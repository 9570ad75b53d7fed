import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from contactformer import autodiff as ad
from contactformer.autodiff import ShapeMismatch, Tensor

from conftest import grad_check, peak_allocation

GRAD_TOL = 1e-4  # every differentiable op must beat this in f64


def t64(data, requires_grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


def rand64(rng, *shape):
    return t64(rng.standard_normal(shape))


def to_scalar(out: Tensor, seed: int = 0) -> Tensor:
    """Contract any output to a scalar via a fixed random linear functional."""
    n = int(np.prod(out.shape)) if out.shape else 1
    w = Tensor(np.random.default_rng(seed).standard_normal((n, 1)))
    return ad.matmul(ad.reshape(out, (1, n)), w)


class TestBackwardMachinery:
    def test_square_at_three(self):
        x = t64([3.0])
        err = grad_check(lambda: ad.reshape(ad.mul(x, x), ()), [x])
        assert err < 1e-8
        x.zero_grad()
        ad.reshape(ad.mul(x, x), ()).backward()
        assert np.allclose(x.grad, [6.0])

    def test_gradient_accumulates_across_shared_use(self):
        x = t64([2.0, -1.0])
        y = ad.add(ad.mul(x, x), x)  # y = x^2 + x, dy/dx = 2x + 1
        to_scalar(y).backward()
        rng = np.random.default_rng(0)
        w = rng.standard_normal((2, 1))[:, 0]
        assert np.allclose(x.grad, (2 * x.data + 1) * w)

    def test_backward_requires_scalar(self):
        x = t64([1.0, 2.0])
        with pytest.raises(ValueError):
            ad.mul(x, x).backward()

    def test_second_backward_raises_and_keeps_grads(self):
        x, y = t64([2.0, -1.0]), t64([[0.5], [3.0]])
        loss = ad.reshape(ad.matmul(ad.reshape(ad.add(ad.mul(x, x), x), (1, 2)), y), ())
        loss.backward()
        first = x.grad.copy(), y.grad.copy()
        with pytest.raises(RuntimeError, match="already ran"):
            loss.backward()
        assert np.array_equal(x.grad, first[0]) and np.array_equal(y.grad, first[1])

    @pytest.mark.parametrize("op, seed_shape, grad", [
        (lambda x: ad.mul(x, 2.0), (5, 2, 3), 2.0),
        (ad.relu, (3,), 1.0),
    ])
    def test_seed_must_have_the_output_shape(self, op, seed_shape, grad):
        x = t64(np.ones((2, 3)))
        out = op(x)
        with pytest.raises(ShapeMismatch):
            out.backward(np.ones(seed_shape))
        assert x.grad is None
        out.backward(np.ones((2, 3)))  # the rejected seed left the graph intact
        assert np.array_equal(x.grad, np.full((2, 3), grad))

    def test_no_grad_blocks_graph(self):
        x = t64([1.0])
        with ad.no_grad():
            y = ad.mul(x, x)
        assert not y.requires_grad and y._backward is None

    def test_a_replaced_backward_is_what_the_sweep_calls(self):
        # the benchmark tracer (perfbench/tracing.py) times each node this way: it
        # replaces out._backward as the op returns and reads parent.requires_grad
        # on each (parent, grad) pair the replacement passes on
        x, w = t64([1.0, -2.0]), t64([3.0, 0.5], requires_grad=False)
        h = ad.mul(x, w)
        original, calls = h._backward, []

        def replacement(g):
            pairs = list(original(g))
            calls.append([(parent.requires_grad, grad.tolist()) for parent, grad in pairs])
            return pairs

        h._backward = replacement
        assert h._backward is replacement
        out = ad.add(h, 1.0)
        del h  # the replacement lives on in the graph without its output tensor
        out.backward(np.ones(2))
        assert calls == [[(True, [3.0, 0.5]), (False, [1.0, -2.0])]]
        assert x.grad.tolist() == [3.0, 0.5] and w.grad is None


class TestOpGradients:
    def test_add_broadcast(self):
        rng = np.random.default_rng(1)
        a, b = rand64(rng, 3, 4), rand64(rng, 4)
        err = grad_check(lambda: to_scalar(ad.add(a, b)), [a, b])
        assert err < GRAD_TOL

    def test_mul_broadcast(self):
        rng = np.random.default_rng(2)
        a, b = rand64(rng, 2, 3, 4), rand64(rng, 1, 4)
        err = grad_check(lambda: to_scalar(ad.mul(a, b)), [a, b])
        assert err < GRAD_TOL

    def test_mul_by_constant(self):
        rng = np.random.default_rng(2)
        x = rand64(rng, 2, 3)
        for c in (0.5, rng.standard_normal((2, 3))):
            err = grad_check(lambda: to_scalar(ad.mul(x, c)), [x])
            assert err < GRAD_TOL
            assert ad.mul(x, c)._parents == (x,)

    def test_add_constant_array(self):
        rng = np.random.default_rng(1)
        x, table = rand64(rng, 2, 3, 4), rng.standard_normal((3, 4))
        err = grad_check(lambda: to_scalar(ad.add(x, table)), [x])
        assert err < GRAD_TOL
        assert ad.add(x, table)._parents == (x,)

    def test_constant_takes_tensor_dtype(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        assert ad.mul(x, np.full(3, 0.5)).dtype == ad.add(x, 1.0).dtype == np.float32

    def test_matmul_2d(self):
        rng = np.random.default_rng(3)
        a, b = rand64(rng, 3, 5), rand64(rng, 5, 2)
        err = grad_check(lambda: to_scalar(ad.matmul(a, b)), [a, b])
        assert err < GRAD_TOL

    def test_matmul_batched(self):
        rng = np.random.default_rng(4)
        a, b = rand64(rng, 2, 2, 3, 4), rand64(rng, 2, 2, 4, 3)
        err = grad_check(lambda: to_scalar(ad.matmul(a, b)), [a, b])
        assert err < GRAD_TOL

    def test_matmul_broadcast_weight(self):
        rng = np.random.default_rng(5)
        a, b = rand64(rng, 4, 2, 3), rand64(rng, 3, 3)
        err = grad_check(lambda: to_scalar(ad.matmul(a, b)), [a, b])
        assert err < GRAD_TOL

    def test_linear(self):
        rng = np.random.default_rng(6)
        x, w, b = rand64(rng, 2, 5, 3), rand64(rng, 3, 4), rand64(rng, 4)
        err = grad_check(lambda: to_scalar(ad.linear(x, w, b)), [x, w, b])
        assert err < GRAD_TOL

    def test_linear_relu_away_from_kink(self):
        rng = np.random.default_rng(6)
        x, w, b = rand64(rng, 2, 5, 3), rand64(rng, 3, 4), rand64(rng, 4)
        assert np.abs(x.data @ w.data + b.data).min() > 1e-2  # clear of the kink
        err = grad_check(lambda: to_scalar(ad.linear_relu(x, w, b)), [x, w, b])
        assert err < GRAD_TOL

    def test_embedding(self):
        rng = np.random.default_rng(7)
        table = rand64(rng, 6, 4)
        ids = rng.integers(0, 6, size=(2, 3))
        err = grad_check(lambda: to_scalar(ad.embedding(table, ids)), [table])
        assert err < GRAD_TOL

    def test_layer_norm(self):
        rng = np.random.default_rng(8)
        x = rand64(rng, 2, 3, 6)
        scale = t64(1.0 + 0.1 * rng.standard_normal(6))
        shift = rand64(rng, 6)
        err = grad_check(lambda: to_scalar(ad.layer_norm(x, scale, shift)),
                            [x, scale, shift])
        assert err < GRAD_TOL

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(9)
        raw = rng.standard_normal((3, 4))
        raw = np.where(np.abs(raw) < 0.05, 0.5, raw)  # keep clear of the kink
        x = t64(raw)
        err = grad_check(lambda: to_scalar(ad.relu(x)), [x])
        assert err < GRAD_TOL

    def test_dropout_with_fixed_mask(self):
        rng = np.random.default_rng(10)
        x = rand64(rng, 3, 5)
        def f():
            drop_rng = np.random.default_rng(123)  # identical mask per call
            return to_scalar(ad.dropout(x, 0.3, drop_rng, train=True))
        err = grad_check(f, [x])
        assert err < GRAD_TOL

    def test_masked_softmax_gradient(self):
        rng = np.random.default_rng(11)
        x = rand64(rng, 4, 6)
        disallow = rng.random((4, 6)) < 0.3
        disallow[:, 0] = False  # keep at least one allowed entry per row
        err = grad_check(lambda: to_scalar(ad.masked_softmax(x, disallow)), [x])
        assert err < GRAD_TOL

    def test_masked_mean_gradient(self):
        rng = np.random.default_rng(12)
        x = rand64(rng, 2, 5, 3)
        keep = rng.random((2, 5)) < 0.6
        keep[:, 0] = True
        err = grad_check(lambda: to_scalar(ad.masked_mean(x, keep)), [x])
        assert err < GRAD_TOL

    def test_transpose_reshape_chain(self):
        rng = np.random.default_rng(13)
        x = rand64(rng, 2, 3, 4)
        def f():
            y = ad.transpose(x, (0, 2, 1))
            return to_scalar(ad.reshape(y, (4, 6)))
        err = grad_check(f, [x])
        assert err < GRAD_TOL

    def test_weighted_cross_entropy_gradient(self):
        rng = np.random.default_rng(14)
        logits = rand64(rng, 2, 3)
        labels = np.array([0, 2])
        weights = np.array([0.5, 1.0, 2.0])
        err = grad_check(lambda: ad.weighted_cross_entropy(logits, labels, weights),
                            [logits])
        assert err < 1e-6


class TestMaskedSoftmax:
    def test_symmetric_with_one_disallowed(self):
        p = ad.masked_softmax(t64([2.0, 2.0, 2.0]), np.array([False, True, False]))
        assert np.allclose(p.data, [0.5, 0.0, 0.5])
        assert p.data[1] == 0.0

    def test_closed_form_two_way(self):
        p = ad.masked_softmax(t64([1.0, 0.0]), np.array([False, False]))
        e = math.e
        assert np.allclose(p.data, [e / (e + 1), 1 / (e + 1)], atol=1e-12)
        assert abs(p.data[0] - 0.7310585786300049) < 1e-12

    def test_rows_sum_to_one_with_exact_zeros(self):
        rng = np.random.default_rng(0)
        logits = t64(rng.standard_normal((50, 9)) * 5)
        disallow = rng.random((50, 9)) < 0.5
        disallow[:, 3] = False
        p = ad.masked_softmax(logits, disallow)
        assert np.allclose(p.data.sum(axis=1), 1.0, atol=1e-6)
        assert (p.data[disallow] == 0.0).all()

    def test_disallowed_positions_get_zero_gradient(self):
        x = t64([[1.0, 2.0, 3.0]])
        disallow = np.array([[False, True, False]])
        to_scalar(ad.masked_softmax(x, disallow)).backward()
        assert x.grad[0, 1] == 0.0


def old_masked_softmax_(s, disallow):
    """The kernel from before every row had to allow a key: fill with -1e9,
    zero the disallowed entries after exp, divide a zero row by 1."""
    disallow = np.asarray(disallow, dtype=bool)
    np.copyto(s, -1e9, where=disallow)
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    np.copyto(s, 0.0, where=disallow)
    denom = s.sum(axis=-1, keepdims=True)
    denom[denom == 0.0] = 1.0
    s /= denom
    return s


def dense_masked_softmax_(s, disallow):
    """In-place masked softmax over a dense block: disallowed scores -inf, exp gives 0."""
    np.copyto(s, -np.inf, where=np.asarray(disallow, dtype=bool))
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    return s


def dense_attention(q, k, v, g, blocks, n_heads, softmax_=dense_masked_softmax_):
    """The dense masked_attention the compact op replaced, in plain numpy.

    Per block it keeps the whole (count, H, n, n) weight array; returns
    the output and the q, k and v gradients for the output gradient g.
    """
    c = np.asarray(1.0 / math.sqrt(q.shape[1] // n_heads), dtype=q.dtype)
    out, gq, gk, gv = (np.zeros(a.shape, a.dtype) for a in (v, q, k, v))
    first = 0
    for disallow in blocks:
        count, n, _ = disallow.shape
        rows = slice(first, first + count * n)
        first = rows.stop
        # (count, H, n, dh) views of the block's rows; writes to out and the gradients land
        qg, kg, vg, gg, og, gqg, gkg, gvg = (
            a[rows].reshape(count, n, n_heads, -1).transpose(0, 2, 1, 3)
            for a in (q, k, v, g, out, gq, gk, gv))
        p = qg @ np.swapaxes(kg, -1, -2)
        p *= c
        softmax_(p, disallow[:, None])
        og[...] = p @ vg
        gs = gg @ np.swapaxes(vg, -1, -2)
        gs -= (gs * p).sum(axis=-1, keepdims=True)
        gs *= p
        gs *= c
        gqg[...] = gs @ kg
        gkg[...] = np.swapaxes(np.swapaxes(qg, -1, -2) @ gs, -1, -2)
        gvg[...] = np.swapaxes(p, -1, -2) @ gg
    return out, gq, gk, gv


def fused_attention(q, k, v, g, blocks, n_heads):
    """ad.masked_attention's output and q, k and v gradients for the output gradient g."""
    leaves = [Tensor(a, requires_grad=True) for a in (q, k, v)]
    out = ad.masked_attention(*leaves, blocks, n_heads)
    out.backward(g)
    return out.data, *(t.grad for t in leaves)


def assert_bit_identical(ours, reference, dtype):
    for a, b in zip(ours, reference, strict=True):
        assert a.dtype == dtype
        assert np.array_equal(a, b)


class TestMaskedSoftmaxOracle:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("scale", [1.0, 100.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_bit_identical_to_old_kernel(self, dtype, scale, seed):
        """On rows that allow at least one key, the -inf kernel gives the old
        kernel's outputs and gradients bit for bit: masked_softmax directly,
        and masked_attention against the dense computation on the old kernel."""
        rng = np.random.default_rng([20, seed])
        b, h, l, dh = 2, 3, 11, 4
        q, k, v, g = (rng.standard_normal((b, h, l, dh)).astype(dtype) for _ in range(4))
        disallow = rng.random((b, 1, l, l)) < rng.uniform(0.2, 0.95)
        disallow[..., np.arange(l), rng.integers(0, l, size=l)] = False  # one key per row
        scores = (q @ np.swapaxes(k, -1, -2)) * dtype(scale)
        g_scores = rng.standard_normal(scores.shape).astype(dtype)
        # the packed op sees (B * L, H * dh) rows, as one block spanning them all;
        # scaling q scales its scores
        packed = [a.transpose(0, 2, 1, 3).reshape(b * l, h * dh)
                  for a in (q * dtype(scale), k, v, g)]
        assert_bit_identical(fused_attention(*packed, [disallow[:, 0]], h),
                             dense_attention(*packed, [disallow[:, 0]], h, old_masked_softmax_),
                             dtype)

        logits = Tensor(scores, requires_grad=True)
        p = ad.masked_softmax(logits, disallow)
        p.backward(g_scores)
        expected = old_masked_softmax_(scores.copy(), disallow)
        inner = (g_scores * expected).sum(axis=-1, keepdims=True)
        assert_bit_identical([p.data, logits.grad], [expected, expected * (g_scores - inner)],
                             dtype)

    def test_row_that_allows_no_key_is_nan(self):
        with np.errstate(invalid="ignore"):
            p = ad.masked_softmax(t64([[1.0, 2.0], [1.0, 2.0]]),
                                  np.array([[True, True], [False, True]]))
        assert np.isnan(p.data[0]).all()
        assert np.array_equal(p.data[1], [1.0, 0.0])


class TestMaskedAttention:
    @staticmethod
    def composite(q, k, v, disallow, scale):
        # the matmul -> scale -> masked_softmax -> matmul chain it replaces
        scores = ad.mul(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), scale)
        return ad.matmul(ad.masked_softmax(scores, disallow), v)

    def test_gradient_with_padded_query_row(self):
        rng = np.random.default_rng(15)
        # two sequences of 5 tokens, 2 heads, packed as rows 0-4 and 5-9
        q, k, v = rand64(rng, 10, 2 * 3), rand64(rng, 10, 2 * 3), rand64(rng, 10, 2 * 4)
        disallow = rng.random((2, 5, 5)) < 0.4
        disallow[1, 3, :] = True  # a query row like a pad's: it attends only itself
        disallow[:, np.arange(5), np.arange(5)] = False  # every query keeps itself
        err = grad_check(lambda: to_scalar(ad.masked_attention(q, k, v, [disallow], 2)),
                            [q, k, v])
        assert err < GRAD_TOL

        out = ad.masked_attention(q, k, v, [disallow], 2)
        assert np.array_equal(out.data[8], v.data[8])
        for t in (q, k, v):
            t.zero_grad()
        to_scalar(out).backward()
        assert (q.grad[8] == 0.0).all()

    def test_gradient_over_groups_of_several_lengths(self):
        """grad_check in float64 over a packed stream of lengths 1, 3, 3 and 5."""
        rng = np.random.default_rng(17)
        q, k, v = rand64(rng, 12, 2 * 3), rand64(rng, 12, 2 * 3), rand64(rng, 12, 2 * 4)
        blocks = []
        for count, n in ((1, 1), (2, 3), (1, 5)):
            disallow = rng.random((count, n, n)) < 0.5
            disallow[:, np.arange(n), np.arange(n)] = False
            blocks.append(disallow)
        err = grad_check(lambda: to_scalar(ad.masked_attention(q, k, v, blocks, 2)),
                            [q, k, v])
        assert err < GRAD_TOL

        # the length-1 sequence attends only itself, whatever its batchmates hold
        out = ad.masked_attention(q, k, v, blocks, 2)
        assert np.array_equal(out.data[0], v.data[0])
        q.zero_grad()
        to_scalar(out).backward()
        assert (q.grad[0] == 0.0).all()

    def test_float32_matches_composite_bit_for_bit(self):
        rng = np.random.default_rng(16)
        b, h, l, dh = 3, 4, 9, 5

        def projection():
            # packed rows (B * L, H * dh); the composite sees them as (B, H, L, dh)
            return rng.standard_normal((b * l, h * dh)).astype(np.float32)

        def unpacked(a):
            return a.reshape(b, l, h, dh).transpose(0, 2, 1, 3)

        q, k, v = projection(), projection(), projection()
        disallow = rng.random((b, 1, l, l)) < 0.5
        disallow[0, :, -2:, :] = disallow[0, :, :, -2:] = True  # two padded positions
        disallow[:, :, np.arange(l), np.arange(l)] = False  # ... that keep their diagonal
        g = rng.standard_normal((b * l, h * dh)).astype(np.float32)

        leaves = [Tensor(a, requires_grad=True) for a in (q, k, v)]
        out = ad.masked_attention(*leaves, [disallow[:, 0]], h)
        out.backward(g)
        fused = [unpacked(a) for a in (out.data, *(t.grad for t in leaves))]
        leaves = [Tensor(unpacked(a), requires_grad=True) for a in (q, k, v)]
        out = self.composite(*leaves, disallow, 1.0 / math.sqrt(dh))
        out.backward(np.ascontiguousarray(unpacked(g)))
        for ours, reference in zip(fused, [out.data] + [t.grad for t in leaves], strict=True):
            assert ours.dtype == np.float32
            assert np.array_equal(ours, reference)

    @staticmethod
    def layout(rng, shapes, density):
        """One block per (count, n), whose masks allow a key with probability density
        besides the diagonal; returns (T, blocks)."""
        blocks = []
        for count, n in shapes:
            disallow = rng.random((count, n, n)) >= density
            disallow[:, np.arange(n), np.arange(n)] = False
            blocks.append(disallow)
        return sum(count * n for count, n in shapes), blocks

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_dense_reference(self, dtype):
        """Outputs and q, k and v gradients equal the dense computation bit for bit."""
        rng = np.random.default_rng(18)
        t, blocks = self.layout(rng, [(3, 1), (2, 7), (1, 12), (4, 30)], 0.3)
        q, k, v, g = (rng.standard_normal((t, 4 * 8)).astype(dtype) for _ in range(4))
        assert_bit_identical(fused_attention(q, k, v, g, blocks, 4),
                             dense_attention(q, k, v, g, blocks, 4), dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_reference_on_random_layouts(self, dtype, data):
        shapes = data.draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 20)),
                                    min_size=1, max_size=3), label="(count, n) per block")
        # 0: each query attends only itself; 1: every key (full mode)
        density = data.draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]), label="density")
        h, dh = data.draw(st.integers(1, 3), label="heads"), data.draw(st.integers(1, 4), label="dh")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        t, blocks = self.layout(rng, shapes, density)
        q, k, v, g = (rng.standard_normal((t, h * dh)).astype(dtype) for _ in range(4))
        assert_bit_identical(fused_attention(q, k, v, g, blocks, h),
                             dense_attention(q, k, v, g, blocks, h), dtype)

    def test_query_that_allows_no_key_raises_naming_its_group(self):
        rng = np.random.default_rng(19)
        t, blocks = self.layout(rng, [(1, 2), (2, 3)], 0.5)
        blocks[1][1, 2, :] = True  # the second sequence's last query allows no key
        q = rand64(rng, t, 2 * 3)
        with pytest.raises(ValueError, match="block 1 "):
            ad.masked_attention(q, q, q, blocks, 2)

    @pytest.mark.parametrize("group", [
        np.zeros((2, 3, 4), bool),  # 6 rows, but not (count, n, n)
        np.zeros((6, 1, 1, 1), bool),
        np.zeros((1, 3, 3), bool),  # rows 0-2 of 6
        np.zeros((3, 3, 3), bool),  # rows 0-8 of 6
    ])
    def test_group_that_does_not_fit_raises(self, group):
        """A group's block must be (count, n, n), and the blocks must tile the rows."""
        q = rand64(np.random.default_rng(20), 6, 2 * 3)
        with pytest.raises(ShapeMismatch, match="blocks "):
            ad.masked_attention(q, q, q, [group], 2)


class TestWeightedCrossEntropy:
    def test_uniform_logits(self):
        loss = ad.weighted_cross_entropy(t64([[0.0, 0.0]]), np.array([0]),
                                         np.ones(2))
        assert abs(loss.item() - math.log(2)) < 1e-12

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal((4, 3))
        labels = np.array([0, 1, 2, 1])
        w = np.array([0.3, 1.1, 2.0])
        a = ad.weighted_cross_entropy(t64(logits), labels, w).item()
        b = ad.weighted_cross_entropy(t64(logits), labels, 2 * w).item()
        assert abs(a - b) < 1e-12

    def test_matches_scalar_recomputation(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((4, 3))
        labels = rng.integers(0, 3, size=4)
        weights = rng.uniform(0.1, 2.0, size=3)

        # independent scalar-by-scalar recomputation
        num = den = 0.0
        for b in range(4):
            z = logits[b]
            m = max(z)
            lse = m + math.log(sum(math.exp(v - m) for v in z))
            nll = lse - z[labels[b]]
            num += weights[labels[b]] * nll
            den += weights[labels[b]]
        expected = num / den

        got = ad.weighted_cross_entropy(t64(logits), labels, weights).item()
        assert abs(got - expected) < 1e-12

    def test_label_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ad.weighted_cross_entropy(t64(np.zeros((2, 3))), np.array([0]), np.ones(3))


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = t64([[1.0, 2.0]])
        assert ad.dropout(x, 0.0, None, train=True) is x

    def test_eval_mode_is_identity(self):
        x = t64([[1.0, 2.0]])
        assert ad.dropout(x, 0.5, None, train=False) is x

    def test_inverted_scaling(self):
        x = Tensor(np.ones((200, 200)))
        y = ad.dropout(x, 0.25, np.random.default_rng(0), train=True)
        kept = y.data != 0
        assert np.allclose(y.data[kept], 1.0 / 0.75)
        assert abs((~kept).mean() - 0.25) < 0.02

    def test_same_rng_state_same_mask(self):
        x = Tensor(np.ones((8, 8)))
        a = ad.dropout(x, 0.5, np.random.default_rng(7), train=True)
        b = ad.dropout(x, 0.5, np.random.default_rng(7), train=True)
        assert np.array_equal(a.data, b.data)

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            ad.dropout(Tensor(np.ones(3)), 1.0, None, train=True)


@st.composite
def value_and_gradient(draw):
    """An array and a gradient of one shape and float dtype, any float values:
    signed zeros, infinities and NaNs included."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6))
    floats = st.floats(width=np.finfo(dtype).bits)
    return tuple(draw(hnp.arrays(dtype, shape, elements=floats)) for _ in range(2))


class TestKeptForBackward:
    """The lean closures are bit for bit the forms they replace; .tobytes() also
    tells signed zeros apart."""

    @settings(max_examples=200, deadline=None)
    @given(xg=value_and_gradient())
    @np.errstate(all="ignore")  # inf * 0 and the like are part of the domain
    def test_relu_backward_from_the_output_sign(self, xg):
        x, g = xg
        [(_, grad)] = ad.relu(Tensor(x, requires_grad=True))._backward(g)
        assert grad.dtype == x.dtype and grad.tobytes() == (g * (x > 0)).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(xg=value_and_gradient(), rate=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           seed=st.integers(0, 2**32 - 1))
    @np.errstate(all="ignore")
    def test_dropout_backward_from_a_bool_mask(self, xg, rate, seed):
        x, g = xg
        rng = np.random.default_rng(seed)
        mask = (rng.random(x.shape, dtype=x.dtype) >= rate).astype(x.dtype) / (1.0 - rate)
        out = ad.dropout(Tensor(x, requires_grad=True), rate, np.random.default_rng(seed), True)
        [(_, grad)] = out._backward(g)
        assert out.data.tobytes() == (x * mask).tobytes()
        assert grad.dtype == x.dtype and grad.tobytes() == (g * mask).tobytes()


def linear_before(x, w, b):
    """linear's forward as one expression, as it was before it ran in place."""
    return (x.reshape(-1, w.shape[0]) @ w + b).reshape(*x.shape[:-1], w.shape[1])


def layer_norm_before(x, scale, shift, g, eps=1e-5):
    """layer_norm's forward and backward as whole-array expressions, as they were
    before they ran in place: y, then the x, scale and shift gradients."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv_std
    y = xhat * scale + shift
    dxhat = g * scale
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    gx = (dxhat - m1 - xhat * m2) * inv_std
    axes = tuple(range(g.ndim - 1))
    return y, gx, (g * xhat).sum(axis=axes), g.sum(axis=axes)


X, W, B, Y = ("lead", "in"), ("in", "out"), ("out",), ("lead", "out")  # linear's shapes
D = ("in",)  # layer_norm's scale and shift


@st.composite
def float_arrays(draw, *shapes):
    """A float dtype and one array per shape, any float values as in value_and_gradient.
    A shape names its axes: "lead" is 0-2 leading axes, "in" and "out" one axis each."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    floats = st.floats(width=np.finfo(dtype).bits)
    axes = {"lead": draw(hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4)),
            "in": (draw(st.integers(1, 6)),), "out": (draw(st.integers(1, 6)),)}
    return dtype, [draw(hnp.arrays(dtype, sum((axes[a] for a in shape), ()), elements=floats))
                   for shape in shapes]


class TestInPlaceKernels:
    """linear, linear_relu and layer_norm compute in the arrays they return, with the
    same ufuncs in the same order as the expressions they replace: bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(operands=float_arrays(X, W, B))
    @np.errstate(all="ignore")
    def test_linear_forward(self, operands):
        dtype, (x, w, b) = operands
        y = ad.linear(Tensor(x), Tensor(w), Tensor(b)).data
        expected = linear_before(x, w, b)
        assert y.dtype == dtype and y.shape == expected.shape
        assert y.tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(operands=float_arrays(X, W, B, Y))
    @np.errstate(all="ignore")
    def test_linear_relu_is_relu_of_linear(self, operands):
        dtype, (x, w, b, g) = operands
        outputs = []
        for f in (ad.linear_relu, lambda *a: ad.relu(ad.linear(*a))):
            tensors = [Tensor(a, requires_grad=True) for a in (x, w, b)]
            out = f(*tensors)
            out.backward(g)
            outputs.append([out.data, *(t.grad for t in tensors)])
        for fused, composed in zip(*outputs):
            assert fused.dtype == dtype and fused.tobytes() == composed.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(operands=float_arrays(X, D, D, X))
    @np.errstate(all="ignore")
    def test_layer_norm_forward_and_backward(self, operands):
        dtype, (x, scale, shift, g) = operands
        tensors = [Tensor(a, requires_grad=True) for a in (x, scale, shift)]
        out = ad.layer_norm(*tensors)
        grads = [grad for _, grad in out._backward(g)]
        for got, expected in zip([out.data, *grads], layer_norm_before(x, scale, shift, g)):
            assert got.dtype == dtype and got.tobytes() == expected.tobytes()


class TestAllocationBudget:
    """An op allocates what it returns or keeps for backward, plus at most one
    scratch array. Budgets count float32 arrays of the op's output (x's for
    layer_norm backward), with 0.25 of slack for reduction buffers and small arrays."""

    SLACK = 0.25

    @pytest.fixture
    def x(self):
        rng = np.random.default_rng(0)
        return Tensor(rng.standard_normal((512, 256)).astype(np.float32), requires_grad=True)

    def assert_budget(self, f, units):
        result, peak = peak_allocation(f)
        out = result.data if isinstance(result, Tensor) else result[0][1]
        assert peak <= (units + self.SLACK) * out.nbytes, peak / out.nbytes
        return result

    def test_linear_forward_allocates_its_output(self, x):
        w = Tensor(np.ones((256, 256), np.float32), requires_grad=True)
        b = Tensor(np.ones(256, np.float32), requires_grad=True)
        self.assert_budget(lambda: ad.linear(x, w, b), 1)

    def test_linear_relu_forward_allocates_its_output(self, x):
        w = Tensor(np.ones((256, 1024), np.float32), requires_grad=True)
        b = Tensor(np.ones(1024, np.float32), requires_grad=True)
        self.assert_budget(lambda: ad.linear_relu(x, w, b), 1)

    def test_layer_norm_forward_allocates_its_output_and_xhat(self, x):
        ones = Tensor(np.ones(256, np.float32), requires_grad=True)
        self.assert_budget(lambda: ad.layer_norm(x, ones, ones), 2)

    def test_layer_norm_backward_allocates_gx_and_one_scratch(self, x):
        ones = Tensor(np.ones(256, np.float32), requires_grad=True)
        out, g = ad.layer_norm(x, ones, ones), np.ones_like(x.data)
        self.assert_budget(lambda: list(out._backward(g)), 2)

    def test_dropout_forward_output_is_its_draw_buffer(self, x):
        rng = np.random.default_rng(1)
        self.assert_budget(lambda: ad.dropout(x, 0.1, rng, True), 1.25)  # and the bool mask

    def test_dropout_backward_allocates_its_gradient(self, x):
        out, g = ad.dropout(x, 0.1, np.random.default_rng(1), True), np.ones_like(x.data)
        self.assert_budget(lambda: list(out._backward(g)), 1)


class TestShapeErrors:
    def test_matmul_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ad.matmul(t64(np.zeros((2, 3))), t64(np.zeros((4, 2))))

    def test_linear_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ad.linear(t64(np.zeros((2, 3))), t64(np.zeros((4, 5))), t64(np.zeros(5)))

    def test_linear_bias_mismatch(self):
        with pytest.raises(ShapeMismatch, match="bias"):
            ad.linear(t64(np.zeros((2, 3))), t64(np.zeros((3, 5))), t64(np.zeros(4)))

    def test_masked_attention_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ad.masked_attention(t64(np.zeros((2, 3))), t64(np.zeros((2, 4))),
                                t64(np.zeros((2, 3))), [np.zeros((1, 2, 2), bool)], 1)

    @pytest.mark.parametrize("n_heads", [0, 3, 4])
    def test_masked_attention_heads_must_divide_width(self, n_heads):
        # q and k are 4 wide and v 6 wide: 2 heads divide both, 0, 3 and 4 do not
        q, v = t64(np.zeros((2, 4))), t64(np.zeros((2, 6)))
        with pytest.raises(ShapeMismatch, match="heads"):
            ad.masked_attention(q, q, v, [np.zeros((1, 2, 2), bool)], n_heads)

    def test_masked_mean_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ad.masked_mean(t64(np.zeros((2, 3, 4))), np.ones((2, 4), dtype=bool))
