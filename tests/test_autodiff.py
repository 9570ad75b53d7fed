import math

import numpy as np
import pytest

from contactformer import autodiff as ad
from contactformer.autodiff import ShapeMismatch, Tensor

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
        err = ad.grad_check(lambda: ad.reshape(ad.mul(x, x), ()), [x])
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

    def test_no_grad_blocks_graph(self):
        x = t64([1.0])
        with ad.no_grad():
            y = ad.mul(x, x)
        assert not y.requires_grad and y._backward is None


class TestOpGradients:
    def test_add_broadcast(self):
        rng = np.random.default_rng(1)
        a, b = rand64(rng, 3, 4), rand64(rng, 4)
        err = ad.grad_check(lambda: to_scalar(ad.add(a, b)), [a, b])
        assert err < GRAD_TOL

    def test_mul_broadcast(self):
        rng = np.random.default_rng(2)
        a, b = rand64(rng, 2, 3, 4), rand64(rng, 1, 4)
        err = ad.grad_check(lambda: to_scalar(ad.mul(a, b)), [a, b])
        assert err < GRAD_TOL

    def test_mul_by_constant(self):
        rng = np.random.default_rng(2)
        x = rand64(rng, 2, 3)
        for c in (0.5, rng.standard_normal((2, 3))):
            err = ad.grad_check(lambda: to_scalar(ad.mul(x, c)), [x])
            assert err < GRAD_TOL
            assert ad.mul(x, c)._parents == (x,)

    def test_add_constant_array(self):
        rng = np.random.default_rng(1)
        x, table = rand64(rng, 2, 3, 4), rng.standard_normal((3, 4))
        err = ad.grad_check(lambda: to_scalar(ad.add(x, table)), [x])
        assert err < GRAD_TOL
        assert ad.add(x, table)._parents == (x,)

    def test_constant_takes_tensor_dtype(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        assert ad.mul(x, np.full(3, 0.5)).dtype == ad.add(x, 1.0).dtype == np.float32

    def test_matmul_2d(self):
        rng = np.random.default_rng(3)
        a, b = rand64(rng, 3, 5), rand64(rng, 5, 2)
        err = ad.grad_check(lambda: to_scalar(ad.matmul(a, b)), [a, b])
        assert err < GRAD_TOL

    def test_matmul_batched(self):
        rng = np.random.default_rng(4)
        a, b = rand64(rng, 2, 2, 3, 4), rand64(rng, 2, 2, 4, 3)
        err = ad.grad_check(lambda: to_scalar(ad.matmul(a, b)), [a, b])
        assert err < GRAD_TOL

    def test_matmul_broadcast_weight(self):
        rng = np.random.default_rng(5)
        a, b = rand64(rng, 4, 2, 3), rand64(rng, 3, 3)
        err = ad.grad_check(lambda: to_scalar(ad.matmul(a, b)), [a, b])
        assert err < GRAD_TOL

    def test_linear(self):
        rng = np.random.default_rng(6)
        x, w, b = rand64(rng, 2, 5, 3), rand64(rng, 3, 4), rand64(rng, 4)
        err = ad.grad_check(lambda: to_scalar(ad.linear(x, w, b)), [x, w, b])
        assert err < GRAD_TOL

    def test_embedding(self):
        rng = np.random.default_rng(7)
        table = rand64(rng, 6, 4)
        ids = rng.integers(0, 6, size=(2, 3))
        err = ad.grad_check(lambda: to_scalar(ad.embedding(table, ids)), [table])
        assert err < GRAD_TOL

    def test_layer_norm(self):
        rng = np.random.default_rng(8)
        x = rand64(rng, 2, 3, 6)
        scale = t64(1.0 + 0.1 * rng.standard_normal(6))
        shift = rand64(rng, 6)
        err = ad.grad_check(lambda: to_scalar(ad.layer_norm(x, scale, shift)),
                            [x, scale, shift])
        assert err < GRAD_TOL

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(9)
        raw = rng.standard_normal((3, 4))
        raw = np.where(np.abs(raw) < 0.05, 0.5, raw)  # keep clear of the kink
        x = t64(raw)
        err = ad.grad_check(lambda: to_scalar(ad.relu(x)), [x])
        assert err < GRAD_TOL

    def test_dropout_with_fixed_mask(self):
        rng = np.random.default_rng(10)
        x = rand64(rng, 3, 5)
        def f():
            drop_rng = np.random.default_rng(123)  # identical mask per call
            return to_scalar(ad.dropout(x, 0.3, drop_rng, train=True))
        err = ad.grad_check(f, [x])
        assert err < GRAD_TOL

    def test_masked_softmax_gradient(self):
        rng = np.random.default_rng(11)
        x = rand64(rng, 4, 6)
        disallow = rng.random((4, 6)) < 0.3
        disallow[:, 0] = False  # keep at least one allowed entry per row
        err = ad.grad_check(lambda: to_scalar(ad.masked_softmax(x, disallow)), [x])
        assert err < GRAD_TOL

    def test_masked_mean_gradient(self):
        rng = np.random.default_rng(12)
        x = rand64(rng, 2, 5, 3)
        keep = rng.random((2, 5)) < 0.6
        keep[:, 0] = True
        err = ad.grad_check(lambda: to_scalar(ad.masked_mean(x, keep)), [x])
        assert err < GRAD_TOL

    def test_transpose_reshape_chain(self):
        rng = np.random.default_rng(13)
        x = rand64(rng, 2, 3, 4)
        def f():
            y = ad.transpose(x, (0, 2, 1))
            return to_scalar(ad.reshape(y, (4, 6)))
        err = ad.grad_check(f, [x])
        assert err < GRAD_TOL

    def test_weighted_cross_entropy_gradient(self):
        rng = np.random.default_rng(14)
        logits = rand64(rng, 2, 3)
        labels = np.array([0, 2])
        weights = np.array([0.5, 1.0, 2.0])
        err = ad.grad_check(lambda: ad.weighted_cross_entropy(logits, labels, weights),
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

    def test_allow_empty_gives_zero_rows(self):
        # a fully disallowed row is a zero row, with a zero gradient
        x = t64([[1.0, 2.0], [1.0, 2.0]])
        disallow = np.array([[True, True], [False, True]])
        p = ad.masked_softmax(x, disallow)
        assert np.array_equal(p.data[0], [0.0, 0.0])
        assert np.allclose(p.data[1], [1.0, 0.0])
        to_scalar(p).backward()
        assert np.array_equal(x.grad[0], [0.0, 0.0])

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


class TestMaskedAttention:
    @staticmethod
    def composite(q, k, v, disallow, scale):
        # the matmul -> scale -> masked_softmax -> matmul chain it replaces
        scores = ad.mul(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), scale)
        return ad.matmul(ad.masked_softmax(scores, disallow), v)

    def test_gradient_with_padded_query_row(self):
        rng = np.random.default_rng(15)
        q, k, v = rand64(rng, 2, 2, 5, 3), rand64(rng, 2, 2, 5, 3), rand64(rng, 2, 2, 5, 4)
        disallow = rng.random((2, 1, 5, 5)) < 0.4
        disallow[:, :, np.arange(5), np.arange(5)] = False  # every query keeps itself
        disallow[1, 0, 3, :] = True  # a padded query row
        err = ad.grad_check(lambda: to_scalar(ad.masked_attention(q, k, v, disallow, 0.5)),
                            [q, k, v])
        assert err < GRAD_TOL

        out = ad.masked_attention(q, k, v, disallow, 0.5)
        assert (out.data[1, :, 3] == 0.0).all()
        for t in (q, k, v):
            t.zero_grad()
        to_scalar(out).backward()
        assert (q.grad[1, :, 3] == 0.0).all()

    def test_float32_matches_composite_bit_for_bit(self):
        rng = np.random.default_rng(16)
        b, h, l, dh = 3, 4, 9, 5

        def heads():
            # (B, L, H, dh) viewed as (B, H, L, dh), as the encoder splits heads
            data = rng.standard_normal((b, l, h, dh)).astype(np.float32)
            return data.transpose(0, 2, 1, 3)

        q, k, v = heads(), heads(), heads()
        disallow = rng.random((b, 1, l, l)) < 0.5
        disallow[:, :, np.arange(l), np.arange(l)] = False
        disallow[0, :, -2:, :] = disallow[0, :, :, -2:] = True  # two padded positions
        g = rng.standard_normal((b, h, l, dh)).astype(np.float32)
        scale = 1.0 / math.sqrt(dh)

        results = []
        for op in (ad.masked_attention, self.composite):
            leaves = [Tensor(a, requires_grad=True) for a in (q, k, v)]
            out = op(*leaves, disallow, scale)
            out.backward(g)
            results.append([out.data] + [t.grad for t in leaves])
        for fused, reference in zip(*results):
            assert fused.dtype == np.float32
            assert np.array_equal(fused, reference)


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


class TestShapeErrors:
    def test_matmul_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ad.matmul(t64(np.zeros((2, 3))), t64(np.zeros((4, 2))))

    def test_linear_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ad.linear(t64(np.zeros((2, 3))), t64(np.zeros((4, 5))))

    def test_masked_attention_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ad.masked_attention(t64(np.zeros((1, 2, 3))), t64(np.zeros((1, 2, 4))),
                                t64(np.zeros((1, 2, 3))), np.zeros((2, 2), dtype=bool), 1.0)

    def test_masked_mean_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ad.masked_mean(t64(np.zeros((2, 3, 4))), np.ones((2, 4), dtype=bool))
