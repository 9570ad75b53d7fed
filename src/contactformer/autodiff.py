"""Minimal reverse-mode autodiff on dense numpy arrays.

Exactly the operator set the encoder needs: matmul / linear, embedding
lookup, layer norm, ReLU, inverted dropout, residual add, masked
attention, masked mean, and weighted cross-entropy, plus masked softmax
on its own. Each op records a backward closure on the output tensor;
``Tensor.backward()`` replays them in reverse topological order and
accumulates into ``.grad`` buffers.

:func:`masked_attention` is the encoder's whole scaled, contact-masked
attention (scores, masked softmax, weighted sum of values) as one node.
Its forward pass keeps a single (..., L, L) buffer, the attention
weights, and its backward pass derives the q, k and v gradients from
them; :func:`masked_softmax` runs the same in-place softmax on a copy
of its input.

Only Tensors are differentiated. The second operand of :func:`add` and
:func:`mul` may be a plain number or array: it is a constant, cast to
the first operand's dtype, never recorded as a parent, and given no
gradient. A fully disallowed row of :func:`masked_softmax` or
:func:`masked_attention` comes out as a row of zeros (padded queries
rely on this).

Training runs in float32; gradient checking should run in float64 (see
:func:`grad_check`), where every op is expected to agree with central
differences to better than 1e-4 relative error.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

MASK_FILL = -1e9  # additive large-negative used instead of -inf


class ShapeMismatch(ValueError):
    """Operand shapes are inconsistent."""


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (used by eval passes)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """Dense array plus an optional gradient buffer of the same shape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        if self.data.dtype not in (np.float32, np.float64):
            self.data = self.data.astype(np.float32)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.item())

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g: np.ndarray):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self, grad: np.ndarray | None = None):
        """Reverse-mode sweep from this tensor; accumulates into .grad."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without a seed needs a scalar output")
            grad = np.ones_like(self.data)

        # Iterative topological order over the recorded graph.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                if node.requires_grad:
                    node._accumulate(g)  # leaf
                continue
            for parent, pg in node._backward(g):
                if not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


@dataclass
class Parameter:
    """Named trainable tensor; names are stable across save/load."""

    name: str
    tensor: Tensor


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g down to `shape` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a: Tensor, b) -> Tensor:
    """a + b with broadcasting; a non-Tensor b is a constant."""
    if not isinstance(b, Tensor):
        c = np.asarray(b, dtype=a.data.dtype)
        return _make(a.data + c, (a,), lambda g: ((a, _unbroadcast(g, a.shape)),))

    def backward(g):
        return ((a, _unbroadcast(g, a.shape)), (b, _unbroadcast(g, b.shape)))

    return _make(a.data + b.data, (a, b), backward)


def mul(a: Tensor, b) -> Tensor:
    """a * b with broadcasting; a non-Tensor b is a constant."""
    if not isinstance(b, Tensor):
        c = np.asarray(b, dtype=a.data.dtype)
        return _make(a.data * c, (a,), lambda g: ((a, _unbroadcast(g * c, a.shape)),))

    def backward(g):
        return (
            (a, _unbroadcast(g * b.data, a.shape)),
            (b, _unbroadcast(g * a.data, b.shape)),
        )

    return _make(a.data * b.data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Stacked matrix product with broadcasting over leading axes."""
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeMismatch(f"matmul: {a.shape} @ {b.shape}")

    def backward(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        return ((a, _unbroadcast(ga, a.shape)), (b, _unbroadcast(gb, b.shape)))

    return _make(a.data @ b.data, (a, b), backward)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """y = x @ w + b over the last axis of x; w is (d_in, d_out)."""
    d_in, d_out = w.shape
    if x.shape[-1] != d_in:
        raise ShapeMismatch(f"linear: x {x.shape} vs w {w.shape}")
    x2 = x.data.reshape(-1, d_in)
    y = x2 @ w.data
    if b is not None:
        if b.shape != (d_out,):
            raise ShapeMismatch(f"linear: bias {b.shape}, expected ({d_out},)")
        y = y + b.data
    y = y.reshape(*x.shape[:-1], d_out)

    def backward(g):
        g2 = g.reshape(-1, d_out)
        grads = [(x, (g2 @ w.data.T).reshape(x.shape)), (w, x2.T @ g2)]
        if b is not None:
            grads.append((b, g2.sum(axis=0)))
        return grads

    parents = (x, w) if b is None else (x, w, b)
    return _make(y, parents, backward)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: out[..., :] = table[ids[...], :]."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeMismatch(f"embedding ids out of range for table {table.shape}")

    def backward(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return ((table, gt),)

    return _make(table.data[ids], (table,), backward)


def relu(x: Tensor) -> Tensor:
    def backward(g):
        return ((x, g * (x.data > 0)),)

    return _make(np.maximum(x.data, 0), (x,), backward)


def layer_norm(x: Tensor, scale: Tensor, shift: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the feature (last) axis with learned scale/shift."""
    d = x.shape[-1]
    if scale.shape != (d,) or shift.shape != (d,):
        raise ShapeMismatch(f"layer_norm: x {x.shape}, scale {scale.shape}, shift {shift.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv_std
    y = xhat * scale.data + shift.data

    def backward(g):
        dxhat = g * scale.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        gx = (dxhat - m1 - xhat * m2) * inv_std
        axes = tuple(range(g.ndim - 1))
        return ((x, gx), (scale, (g * xhat).sum(axis=axes)), (shift, g.sum(axis=axes)))

    return _make(y, (x, scale, shift), backward)


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None, train: bool) -> Tensor:
    """Inverted dropout; identity when rate == 0 or train is False."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("training-mode dropout needs an explicit rng")
    mask = (rng.random(x.shape) >= rate).astype(x.data.dtype) / (1.0 - rate)

    def backward(g):
        return ((x, g * mask),)

    return _make(x.data * mask, (x,), backward)


def _masked_softmax_(s: np.ndarray, disallow: np.ndarray) -> np.ndarray:
    """Masked softmax over the last axis of s, computed in place; returns s.

    Masking is additive MASK_FILL before normalization, then exact zeros
    are forced, so a fully disallowed row comes out as a row of zeros.
    """
    disallow = np.asarray(disallow, dtype=bool)
    np.copyto(s, MASK_FILL, where=disallow)
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    np.copyto(s, 0.0, where=disallow)
    denom = s.sum(axis=-1, keepdims=True)
    denom[denom == 0.0] = 1.0
    s /= denom
    return s


def masked_softmax(logits: Tensor, disallow: np.ndarray) -> Tensor:
    """Softmax over the last axis with hard-masked entries.

    Disallowed positions receive probability exactly 0; allowed positions
    follow the softmax of their logits. Fully masked rows come out as
    all-zero rows (padding queries rely on this).
    """
    p = _masked_softmax_(logits.data.copy(), disallow)

    def backward(g):
        inner = (g * p).sum(axis=-1, keepdims=True)
        return ((logits, p * (g - inner)),)

    return _make(p, (logits,), backward)


def masked_attention(q: Tensor, k: Tensor, v: Tensor, disallow: np.ndarray,
                     scale: float) -> Tensor:
    """softmax(scale * q @ k^T, masked by disallow) @ v as one graph node.

    q, k are (..., Lq, dh) and (..., Lk, dh), v is (..., Lk, dv), and
    disallow (true = query may not attend key) broadcasts to (..., Lq, Lk).
    The forward pass builds the scores in one buffer and turns it into the
    attention weights in place; only the weights are kept for backward.
    A fully disallowed query row gets zero weights, a zero output and a
    zero gradient.
    """
    if q.shape[-1] != k.shape[-1] or k.shape[-2] != v.shape[-2]:
        raise ShapeMismatch(f"masked_attention: q {q.shape}, k {k.shape}, v {v.shape}")
    c = np.asarray(scale, dtype=q.data.dtype)
    p = q.data @ np.swapaxes(k.data, -1, -2)
    p *= c
    _masked_softmax_(p, disallow)

    def backward(g):
        gs = g @ np.swapaxes(v.data, -1, -2)
        gs -= (gs * p).sum(axis=-1, keepdims=True)
        gs *= p
        gs *= c
        return (
            (q, gs @ k.data),
            (k, np.swapaxes(np.swapaxes(q.data, -1, -2) @ gs, -1, -2)),
            (v, np.swapaxes(p, -1, -2) @ g),
        )

    return _make(p @ v.data, (q, k, v), backward)


def weighted_cross_entropy(logits: Tensor, labels: np.ndarray, class_weights: np.ndarray) -> Tensor:
    """Weighted-mean cross-entropy: sum_b w[y_b] * nll_b / sum_b w[y_b]."""
    labels = np.asarray(labels)
    n, c = logits.shape
    if labels.shape != (n,):
        raise ShapeMismatch(f"labels {labels.shape} for logits {logits.shape}")
    weights = np.asarray(class_weights, dtype=logits.data.dtype)
    if weights.shape != (c,):
        raise ShapeMismatch(f"class_weights {weights.shape}, expected ({c},)")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise ValueError("labels out of range")

    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - logz
    w = weights[labels]
    w_total = w.sum()
    if w_total <= 0:
        raise ValueError("total class weight over the batch is zero")
    nll = -logp[np.arange(n), labels]
    loss = (w * nll).sum() / w_total

    def backward(g):
        p = np.exp(logp)
        p[np.arange(n), labels] -= 1.0
        return ((logits, g * p * (w / w_total)[:, None]),)

    return _make(np.asarray(loss, dtype=logits.data.dtype), (logits,), backward)


def masked_mean(x: Tensor, keep: np.ndarray) -> Tensor:
    """Mean over axis 1 of (B, L, D), restricted to keep[b, t] == True."""
    keep = np.asarray(keep, dtype=bool)
    if x.data.ndim != 3 or keep.shape != x.shape[:2]:
        raise ShapeMismatch(f"masked_mean: x {x.shape}, keep {keep.shape}")
    counts = keep.sum(axis=1).astype(x.data.dtype)
    if (counts == 0).any():
        raise ValueError("masked_mean: a row keeps zero positions")
    kf = keep.astype(x.data.dtype)
    out = np.einsum("bld,bl->bd", x.data, kf) / counts[:, None]

    def backward(g):
        gx = kf[:, :, None] * (g / counts[:, None])[:, None, :]
        return ((x, gx),)

    return _make(out, (x,), backward)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)

    def backward(g):
        return ((x, g.reshape(x.shape)),)

    return _make(x.data.reshape(shape), (x,), backward)


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def backward(g):
        return ((x, g.transpose(inverse)),)

    return _make(x.data.transpose(axes), (x,), backward)


def zero_grads(params: Iterable[Parameter | Tensor]):
    for p in params:
        (p.tensor if isinstance(p, Parameter) else p).zero_grad()


def grad_check(
    f: Callable[[], Tensor],
    params: Sequence[Tensor],
    h: float = 1e-4,
) -> float:
    """Max relative error of analytic vs central-difference gradients.

    f must be a deterministic scalar-valued computation over `params`
    (re-evaluated many times; disable dropout). Use float64 tensors:
    finite differences need the headroom. The per-coordinate error is
    |a - n| / max(1e-8, |a| + |n|).
    """
    for p in params:
        p.zero_grad()
    out = f()
    out.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    worst = 0.0
    for p, a in zip(params, analytic):
        a_flat = a.reshape(-1)
        for idx in range(p.data.size):
            mi = np.unravel_index(idx, p.data.shape)
            orig = p.data[mi]
            p.data[mi] = orig + h
            f_plus = f().item()
            p.data[mi] = orig - h
            f_minus = f().item()
            p.data[mi] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            ai = float(a_flat[idx])
            err = abs(ai - numeric) / max(1e-8, abs(ai) + abs(numeric))
            worst = max(worst, err)
    return worst
