"""Adam with decoupled weight decay.

Decay is applied directly to the parameter (param *= 1 - lr * wd) before
the moment-based update, so it is independent of the gradient moments and
testable on its own. Updates are deterministic: same inputs and state
give bit-identical outputs at a fixed precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Parameter, ShapeMismatch


@dataclass
class AdamState:
    """Per-parameter first/second moment buffers and the shared step count."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def adam_step(
    params: dict[str, Parameter],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    weight_decay: float = 0.01,
) -> None:
    """One in-place update over all params with a .grad buffer.

    Raises ShapeMismatch if a gradient or moment buffer disagrees with its
    parameter's shape.
    """
    state.t += 1
    t = state.t
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name, p in params.items():
        if p.tensor.grad is None:
            continue
        x = p.tensor.data
        g = p.tensor.grad
        if g.shape != x.shape:
            raise ShapeMismatch(f"grad shape {g.shape} != param shape {x.shape} for {name!r}")
        if name not in state.m:
            state.m[name] = np.zeros_like(x)
            state.v[name] = np.zeros_like(x)
        m, v = state.m[name], state.v[name]
        if m.shape != x.shape:
            raise ShapeMismatch(f"adam state shape {m.shape} != param shape {x.shape} for {name!r}")

        if weight_decay != 0.0:
            x *= 1.0 - lr * weight_decay

        # lr * (m / bc1) / (sqrt(v / bc2) + eps): those ufuncs, in order, in two arrays
        m *= beta1
        step = np.multiply(1.0 - beta1, g)
        m += step
        v *= beta2
        np.multiply(1.0 - beta2, np.multiply(g, g, out=step), out=step)
        v += step
        np.multiply(lr, np.divide(m, bc1, out=step), out=step)
        denom = np.divide(v, bc2)
        np.sqrt(denom, out=denom)
        denom += eps
        step /= denom
        x -= step.astype(x.dtype, copy=False)
