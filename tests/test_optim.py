import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from contactformer.autodiff import Parameter, ShapeMismatch, Tensor
from contactformer.optim import AdamState, adam_step

from conftest import peak_allocation


def param(name, data, grad=None):
    t = Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)
    if grad is not None:
        t.grad = np.asarray(grad, dtype=np.float64)
    return Parameter(name, t)


def reference_adam(x0, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8, wd=0.01):
    """Naive step-by-step recurrence used as an oracle."""
    x = float(x0)
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        x *= 1.0 - lr * wd
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        x -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return x


class TestAdamStep:
    def test_zero_gradient_zero_decay_is_fixed_point(self):
        p = param("w", [1.0, -2.0], grad=[0.0, 0.0])
        before = p.tensor.data.copy()
        adam_step({"w": p}, AdamState(), lr=0.1, weight_decay=0.0)
        assert np.array_equal(p.tensor.data, before)

    def test_first_step_moves_by_lr(self):
        # t=1: m_hat = g, v_hat = g^2, update = lr * g / (|g| + eps)
        p = param("w", [1.0], grad=[1.0])
        adam_step({"w": p}, AdamState(), lr=0.1, weight_decay=0.0)
        assert abs(p.tensor.data[0] - 0.9) < 1e-7

    def test_decoupled_decay_alone(self):
        p = param("w", [1.0], grad=[0.0])
        adam_step({"w": p}, AdamState(), lr=0.1, weight_decay=0.01)
        assert p.tensor.data[0] == 1.0 * (1.0 - 0.001)

    def test_matches_reference_recurrence(self):
        rng = np.random.default_rng(0)
        grads = rng.standard_normal(5)
        p = param("w", [0.37])
        state = AdamState()
        for g in grads:
            p.tensor.grad = np.array([g])
            adam_step({"w": p}, state, lr=0.05, weight_decay=0.01)
        expected = reference_adam(0.37, grads, lr=0.05, wd=0.01)
        assert abs(p.tensor.data[0] - expected) < 1e-12

    def test_deterministic_bit_identical(self):
        def run():
            rng = np.random.default_rng(1)
            p = param("w", rng.standard_normal(6))
            state = AdamState()
            for _ in range(4):
                p.tensor.grad = rng.standard_normal(6)
                adam_step({"w": p}, state, lr=0.01)
            return p.tensor.data

        assert np.array_equal(run(), run())

    def test_shape_mismatch(self):
        p = param("w", [1.0, 2.0], grad=[1.0])
        with pytest.raises(ShapeMismatch):
            adam_step({"w": p}, AdamState(), lr=0.1)

    def test_missing_gradient_skipped(self):
        p = param("w", [1.0])
        adam_step({"w": p}, AdamState(), lr=0.1)
        assert p.tensor.data[0] == 1.0


def adam_before(x, g, m, v, t, lr, beta1, beta2, eps, weight_decay):
    """adam_step's update of one parameter as whole-array expressions, as it was
    before it ran in two scratch arrays; returns the new x, m and v."""
    x, m, v = x.copy(), m.copy(), v.copy()
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    if weight_decay != 0.0:
        x *= 1.0 - lr * weight_decay
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * (g * g)
    m_hat = m / bc1
    v_hat = v / bc2
    x -= (lr * m_hat / (np.sqrt(v_hat) + eps)).astype(x.dtype)
    return x, m, v


@st.composite
def adam_operands(draw):
    """Parameter, gradient and moments of one shape and float dtype, any float values."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=5))
    floats = st.floats(width=np.finfo(dtype).bits)
    return tuple(draw(hnp.arrays(dtype, shape, elements=floats)) for _ in range(4))


class TestAdamInPlace:
    @settings(max_examples=200, deadline=None)
    @given(xgmv=adam_operands(), t=st.integers(1, 1000), lr=st.floats(1e-6, 1.0),
           beta1=st.floats(0.0, 1.0, exclude_max=True),
           beta2=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           eps=st.floats(1e-12, 1e-3), weight_decay=st.sampled_from([0.0, 0.01, 0.5]))
    @np.errstate(all="ignore")  # inf - inf, sqrt of a negative moment and the like
    def test_bit_identical_to_whole_array_expressions(self, xgmv, t, lr, beta1, beta2, eps,
                                                      weight_decay):
        x, g, m, v = xgmv
        expected = adam_before(x, g, m, v, t, lr, beta1, beta2, eps, weight_decay)
        p = Parameter("w", Tensor(x.copy(), requires_grad=True))
        p.tensor.grad = g
        state = AdamState(m={"w": m.copy()}, v={"w": v.copy()}, t=t - 1)
        adam_step({"w": p}, state, lr, beta1, beta2, eps, weight_decay)
        for got, want in zip((p.tensor.data, state.m["w"], state.v["w"]), expected):
            assert got.dtype == x.dtype and got.tobytes() == want.tobytes()

    def test_allocates_two_scratch_arrays_per_parameter(self):
        rng = np.random.default_rng(2)
        t = Tensor(rng.standard_normal((512, 256)).astype(np.float32), requires_grad=True)
        t.grad = rng.standard_normal(t.shape).astype(np.float32)
        params, state = {"w": Parameter("w", t)}, AdamState()
        adam_step(params, state, lr=1e-3)  # allocates the moments
        _, peak = peak_allocation(lambda: adam_step(params, state, lr=1e-3))
        assert peak <= 2.25 * t.data.nbytes, peak / t.data.nbytes
