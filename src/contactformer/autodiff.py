"""Minimal reverse-mode autodiff on dense numpy arrays.

The encoder and its loss call linear (fused with a ReLU in
:func:`linear_relu`), embedding lookup, mul, residual add, layer norm,
inverted dropout, packed masked attention, scatter, masked mean and
weighted cross-entropy (log-probabilities from the plain-array
:func:`log_softmax`, which the evaluation loss calls too). No package
code calls :func:`matmul`, :func:`masked_softmax`, :func:`relu`,
:func:`reshape` or :func:`transpose`: they stay for the benchmark tracer
(perfbench/), which wraps them by name, and for the tests, which use
them as oracles.

The graph is made of nodes, not tensors. An op whose operands need a
gradient gives its output a :class:`Node`: its parents' nodes (a leaf
Tensor stands for itself) and a backward closure that captures only the
arrays it reads, never a parent Tensor. So an intermediate's data dies
with its last Python reference unless a closure reads it:

- ``linear`` keeps its input (a view), ``mul`` and ``matmul`` both
  operands, ``masked_attention`` q, k, v and its compact weights;
- ``relu``, ``linear_relu`` and ``masked_softmax`` keep their output
  (ReLU's sign is its input's); ``layer_norm`` keeps ``xhat``, ``1/std``;
- ``dropout`` keeps a bool keep mask and rebuilds the scaled mask from it;
- ``add``, ``embedding``, ``scatter``, ``reshape`` and ``transpose``
  keep shapes and indices, ``masked_mean`` its counts and
  ``weighted_cross_entropy`` its log-probabilities.

``Tensor.backward()`` runs the nodes in reverse topological order and
accumulates into the leaves' ``.grad`` buffers. A graph is
differentiated once: the sweep frees each node as it passes, once its
closure has returned its parents' gradients, so nothing of a training
step outlives its backward pass. A second ``backward()`` through the
same graph raises RuntimeError.

Ops compute in the arrays they return: ``linear``, ``linear_relu``,
``layer_norm`` and ``dropout`` allocate what they return or keep for
backward and at most one scratch array, and run there, in place
(``out=``, ``+=``), the same ufuncs in the same order as the whole-array
expressions they replace. Rounding does not depend on where a result is
stored, so results are bit-identical to those expressions.

:func:`masked_attention` is the encoder's whole scaled, contact-masked
attention (scores, masked softmax, weighted sum of values) as one node,
over packed (T, d) projections: several sequences laid end to end, in
groups of equal length, each group described by its (count, n, n)
disallow block alone; heads are views of the columns. Its score and
value products are dense per block (BLAS), but its softmax runs over the
allowed (query, key) entries only, and all it keeps for backward is
their weights, one (H, E) array per block for E allowed entries;
backward rebuilds the dense weights in one scratch buffer.
:func:`masked_softmax` runs a dense softmax on a copy of its input.
:func:`scatter` puts packed rows back into a padded array for pooling.

Only Tensors are differentiated. The second operand of :func:`add` and
:func:`mul` may be a plain number or array: it is a constant, cast to
the first operand's dtype, never recorded as a parent, and given no
gradient. Every softmax row needs a key; the encoder's masks always
allow the diagonal. :func:`masked_attention` raises ValueError for a
query that allows none, and ShapeMismatch for blocks that do not tile
its rows; in :func:`masked_softmax` such a row comes out NaN.

Training runs in float32; gradient checking should run in float64 (see
``grad_check`` in tests/conftest.py), where every op is expected to agree
with central differences to better than 1e-4 relative error.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np


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


class Node:
    """A recorded op: its parents' nodes (a leaf stands for itself) and a closure
    from its output's gradient to one (parent, gradient) pair per parent."""

    __slots__ = ("_parents", "_backward")
    requires_grad = True

    def __init__(self, parents: tuple, grads: Callable[[np.ndarray], tuple]):
        self._parents = parents
        self._backward = lambda g: zip(parents, grads(g))


class Tensor:
    """Dense array plus an optional gradient buffer of the same shape.

    An op output that is recorded has a Node; _backward reads (and
    replaces) the node's.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        if self.data.dtype not in (np.float32, np.float64):
            self.data = self.data.astype(np.float32)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._node: Node | None = None

    @property
    def _backward(self):
        return None if self._node is None else self._node._backward

    @_backward.setter
    def _backward(self, backward):
        self._node._backward = backward

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
        """Reverse-mode sweep from this tensor; accumulates into .grad.

        grad, the seed, must have this tensor's shape; without one the
        tensor must be a scalar. The sweep frees the graph as it goes (see
        the module docstring), so it runs once per graph: a second call
        raises RuntimeError and leaves every .grad as the first left it.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without a seed needs a scalar output")
            grad = np.ones_like(self.data)
        elif np.shape(grad) != self.shape:
            raise ShapeMismatch(f"backward: seed {np.shape(grad)} for a tensor of {self.shape}")

        # Iterative topological order over the recorded graph.
        root = self._node or self
        topo: list[Node | Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Node | Tensor, bool]] = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            if isinstance(node, Node):  # a Tensor here is a leaf
                stack.extend((parent, False) for parent in node._parents
                             if id(parent) not in visited)

        # Popping drops topo's reference to each node as the sweep passes it.
        grads: dict[int, np.ndarray] = {id(root): grad}
        while topo:
            node = topo.pop()
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if isinstance(node, Tensor):
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
            node._parents, node._backward = (), _released

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def _released(g: np.ndarray):
    """Backward closure of a node that a backward pass has already been through."""
    raise RuntimeError("backward() already ran through this graph")


@dataclass
class Parameter:
    """Trainable tensor; its name is its key in the params dict."""

    tensor: Tensor


def _make(data: np.ndarray, parents: tuple[Tensor, ...], grads) -> Tensor:
    """The op output; recorded with a Node when a parent requires grad. grads maps
    the output's gradient to one gradient per parent, in order."""
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._node = Node(tuple(p._node or p for p in parents), grads)
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
    sa = a.shape
    if not isinstance(b, Tensor):
        c = np.asarray(b, dtype=a.data.dtype)
        return _make(a.data + c, (a,), lambda g: (_unbroadcast(g, sa),))
    sb = b.shape
    return _make(a.data + b.data, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def mul(a: Tensor, b) -> Tensor:
    """a * b with broadcasting; a non-Tensor b is a constant."""
    av, sa = a.data, a.shape
    if not isinstance(b, Tensor):
        c = np.asarray(b, dtype=av.dtype)
        return _make(av * c, (a,), lambda g: (_unbroadcast(g * c, sa),))
    bv = b.data
    return _make(av * bv, (a, b),
                 lambda g: (_unbroadcast(g * bv, sa), _unbroadcast(g * av, bv.shape)))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Stacked matrix product with broadcasting over leading axes."""
    av, bv = a.data, b.data
    if av.shape[-1] != bv.shape[-2]:
        raise ShapeMismatch(f"matmul: {a.shape} @ {b.shape}")

    def backward(g):
        ga = g @ np.swapaxes(bv, -1, -2)
        gb = np.swapaxes(av, -1, -2) @ g
        return _unbroadcast(ga, av.shape), _unbroadcast(gb, bv.shape)

    return _make(av @ bv, (a, b), backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """y = x @ w + b over the last axis of x; w is (d_in, d_out), b is (d_out,)."""
    d_in, d_out = w.shape
    if x.shape[-1] != d_in or b.shape != (d_out,):
        raise ShapeMismatch(f"linear: x {x.shape}, w {w.shape}, bias {b.shape}")
    x2, wd, x_shape = x.data.reshape(-1, d_in), w.data, x.shape
    y = x2 @ wd
    y += b.data

    def backward(g):
        g2 = g.reshape(-1, d_out)
        return (g2 @ wd.T).reshape(x_shape), x2.T @ g2, g2.sum(axis=0)

    return _make(y.reshape(*x_shape[:-1], d_out), (x, w, b), backward)


def linear_relu(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """relu(linear(x, w, b)) as one node, the ReLU run in place on the product."""
    out = linear(x, w, b)
    y = np.maximum(out.data, 0, out=out.data)
    if out._node is not None:
        grads = out._backward
        out._backward = lambda g: grads(g * (y > 0))
    return out


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: out[..., :] = table[ids[...], :]."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeMismatch(f"embedding ids out of range for table {table.shape}")

    shape, dtype = table.shape, table.dtype

    def backward(g):
        gt = np.zeros(shape, dtype)
        np.add.at(gt, ids, g)
        return (gt,)

    return _make(table.data[ids], (table,), backward)


def relu(x: Tensor) -> Tensor:
    """max(x, 0); backward reads the output's sign, which is the input's."""
    y = np.maximum(x.data, 0)
    return _make(y, (x,), lambda g: (g * (y > 0),))


LAYER_NORM_EPS = 1e-5


def layer_norm(x: Tensor, scale: Tensor, shift: Tensor) -> Tensor:
    """Normalize over the feature (last) axis with learned scale/shift; eps is LAYER_NORM_EPS."""
    d = x.shape[-1]
    if scale.shape != (d,) or shift.shape != (d,):
        raise ShapeMismatch(f"layer_norm: x {x.shape}, scale {scale.shape}, shift {shift.shape}")
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)  # centred, then scaled in place
    y = np.multiply(xhat, xhat)  # squares first, then the output
    inv_std = 1.0 / np.sqrt(y.mean(axis=-1, keepdims=True) + LAYER_NORM_EPS)
    xhat *= inv_std
    sd = scale.data
    np.multiply(xhat, sd, out=y)
    y += shift.data

    def backward(g):
        gx = g * sd  # dxhat, then the input gradient
        m1 = gx.mean(axis=-1, keepdims=True)
        scratch = np.multiply(gx, xhat)
        m2 = scratch.mean(axis=-1, keepdims=True)
        gx -= m1
        gx -= np.multiply(xhat, m2, out=scratch)
        gx *= inv_std
        axes = tuple(range(g.ndim - 1))
        return gx, np.multiply(g, xhat, out=scratch).sum(axis=axes), g.sum(axis=axes)

    return _make(y, (x, scale, shift), backward)


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None, train: bool) -> Tensor:
    """Inverted dropout; identity when rate == 0 or train is False.

    The keep mask is drawn from rng in x's dtype (float32 draws in training)
    and kept as bool; backward rebuilds the scaled float mask from it.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("training-mode dropout needs an explicit rng")
    dtype = x.data.dtype
    draw = rng.random(x.shape, dtype=dtype)
    keep = draw >= rate

    def times_mask(a: np.ndarray, out: np.ndarray) -> np.ndarray:
        """a * (keep as dtype / (1 - rate)), computed in out."""
        return np.multiply(a, np.divide(keep, 1.0 - rate, out=out, dtype=dtype), out=out)

    return _make(times_mask(x.data, draw), (x,),
                 lambda g: (times_mask(g, np.empty(keep.shape, dtype)),))


def masked_softmax(logits: Tensor, disallow: np.ndarray) -> Tensor:
    """Softmax over the last axis with hard-masked entries.

    Disallowed scores become -inf, so exp gives them probability exactly
    0; allowed positions follow the softmax of their logits. Each row must
    allow an entry (the encoder's masks always allow the diagonal), or it
    comes out NaN.
    """
    p = logits.data.copy()
    np.copyto(p, -np.inf, where=np.asarray(disallow, dtype=bool))
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)

    def backward(g):
        inner = (g * p).sum(axis=-1, keepdims=True)
        return (p * (g - inner),)

    return _make(p, (logits,), backward)


def masked_attention(q: Tensor, k: Tensor, v: Tensor, blocks: Sequence[np.ndarray],
                     n_heads: int) -> Tensor:
    """softmax(q @ k^T / sqrt(dh), masked) @ v within each packed sequence, as one node.

    q, k (T, d) and v (T, dv) hold sequences laid end to end, their
    columns split into n_heads heads (dh = d / n_heads). Each block is a
    (count, n, n) disallow array (true where a query may not attend a key)
    for the next count sequences, of length n; the blocks tile the T rows
    in order. Returns (T, dv).

    The score and value products are dense per block, but the softmax
    runs only over the allowed entries: per block they are gathered into
    an (H, E) array, E the number of allowed (query, key) pairs, and that
    array, the attention weights, is all the node keeps for backward.
    Row sums are taken over a zeroed dense buffer holding the allowed
    values, so outputs and gradients are bit-identical to a dense masked
    softmax. Raises ShapeMismatch for blocks that are not (count, n, n) or
    do not tile the T rows, or for n_heads that does not divide d and dv;
    and ValueError for a block with a query that allows no key (the
    encoder's masks always allow the diagonal).
    """
    h, qd, kd, vd = n_heads, q.data, k.data, v.data
    if (q.data.ndim != 2 or k.shape != q.shape or v.data.ndim != 2 or v.shape[0] != q.shape[0]
            or h < 1 or q.shape[1] % h or v.shape[1] % h):
        raise ShapeMismatch(f"masked_attention: q {q.shape}, k {k.shape}, v {v.shape}, {h} heads")
    shapes = [np.shape(b) for b in blocks]
    starts = np.cumsum([0] + [math.prod(s[:2]) for s in shapes]).tolist()  # first rows
    if starts[-1] != q.shape[0] or any(len(s) != 3 or s[1] != s[2] for s in shapes):
        raise ShapeMismatch(f"masked_attention: blocks {shapes} are not (count, n, n) "
                            f"blocks tiling {q.shape[0]} rows")
    c = np.asarray(1.0 / math.sqrt(q.shape[1] // h), dtype=q.data.dtype)

    def heads(a: np.ndarray, number: int) -> np.ndarray:
        """Block number's rows of a (T, H * w) array as an (H, count, n, w) view."""
        count, n, _ = shapes[number]
        rows = a[starts[number]:starts[number + 1]]
        return rows.reshape(count, n, h, a.shape[1] // h).transpose(2, 0, 1, 3)

    def allowed(number: int) -> tuple[np.ndarray, np.ndarray]:
        """Flat index m n^2 + i n + j of each allowed entry in row-major order, and row degrees."""
        count, n, _ = shapes[number]
        index = np.flatnonzero(~np.asarray(blocks[number], dtype=bool))
        return index, np.bincount(index // n, minlength=count * n)

    def row_sums(s: np.ndarray, degree: np.ndarray) -> np.ndarray:
        """s.sum(-1) of an (H, count, n, n) block, repeated to line up with its (H, E) entries."""
        return np.repeat(s.sum(axis=-1).reshape(h, -1), degree, axis=1)

    # np.empty: the blocks tile the rows, so one block writes each row (here and in backward)
    out = np.empty(vd.shape, dtype=vd.dtype)
    weights = []
    for number in range(len(shapes)):
        index, degree = allowed(number)
        if not degree.all():
            raise ValueError(f"masked_attention: block {number} {shapes[number]} "
                             "has a query that allows no key")
        # a C-ordered (H, count, n, n) buffer, so that each head's scores are one flat run
        s = np.matmul(heads(qd, number), np.swapaxes(heads(kd, number), -1, -2),
                      out=np.empty((h, *shapes[number]), dtype=qd.dtype))
        dense = s.reshape(h, -1)
        w = np.take(dense, index, axis=1)
        w *= c
        w -= np.repeat(np.maximum.reduceat(w, np.cumsum(degree) - degree, axis=1), degree, axis=1)
        np.exp(w, out=w)
        s.fill(0)
        dense[:, index] = w
        w /= row_sums(s, degree)
        dense[:, index] = w
        heads(out, number)[...] = s @ heads(vd, number)
        weights.append(w)

    def backward(g):
        gq, gk, gv = (np.empty(a.shape, dtype=a.dtype) for a in (qd, kd, vd))
        for number, w in enumerate(weights):
            index, degree = allowed(number)
            qg, kg, vg, gg = (heads(a, number) for a in (qd, kd, vd, g))
            # one dense buffer: the weight gradient gs, then p, then gs * p, then the score gradient
            s = np.matmul(gg, np.swapaxes(vg, -1, -2), out=np.empty((h, *shapes[number]), qd.dtype))
            dense = s.reshape(h, -1)
            gw = np.take(dense, index, axis=1)
            s.fill(0)
            dense[:, index] = w
            heads(gv, number)[...] = np.swapaxes(s, -1, -2) @ gg
            dense[:, index] = gw * w
            gw -= row_sums(s, degree)
            gw *= w
            gw *= c
            dense[:, index] = gw
            heads(gq, number)[...] = s @ kg
            heads(gk, number)[...] = np.swapaxes(np.swapaxes(qg, -1, -2) @ s, -1, -2)
        return gq, gk, gv

    return _make(out, (q, k, v), backward)


def log_softmax(z: np.ndarray) -> np.ndarray:
    """log(softmax(z)) over the last axis, on plain arrays (records no node)."""
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


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

    logp = log_softmax(logits.data)
    w = weights[labels]
    w_total = w.sum()
    if w_total <= 0:
        raise ValueError("total class weight over the batch is zero")
    nll = -logp[np.arange(n), labels]
    loss = (w * nll).sum() / w_total

    def backward(g):
        p = np.exp(logp)
        p[np.arange(n), labels] -= 1.0
        return (g * p * (w / w_total)[:, None],)

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
        return (kf[:, :, None] * (g / counts[:, None])[:, None, :],)

    return _make(out, (x,), backward)


def scatter(x: Tensor, index: tuple[np.ndarray, ...], shape: Sequence[int]) -> Tensor:
    """Rows of x (T, D) placed at `index` in a zero array of shape + (D,); backward gathers."""
    out = np.zeros((*shape, x.shape[-1]), dtype=x.data.dtype)
    out[index] = x.data

    return _make(out, (x,), lambda g: (g[index],))


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    x_shape = x.shape
    return _make(x.data.reshape(tuple(shape)), (x,), lambda g: (g.reshape(x_shape),))


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    return _make(x.data.transpose(axes), (x,), lambda g: (g.transpose(inverse),))


def zero_grads(params: Iterable[Parameter]):
    for p in params:
        p.tensor.zero_grad()

