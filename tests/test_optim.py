import numpy as np
import pytest

from contactformer.autodiff import Parameter, ShapeMismatch, Tensor
from contactformer.optim import AdamState, adam_step


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
