"""Adam with classic L2 regularization (decay added to the raw gradient)."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor


@dataclass
class AdamState:
    """Moments of every parameter, raveled in parameter order into one flat
    buffer each; ``shapes`` records the parameters they belong to."""
    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    step: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))
    shapes: list[tuple[int, ...]] = field(default_factory=list)


def adam_init(params: list[Tensor], lr: float = 0.01,
              weight_decay: float = 0.0) -> AdamState:
    """First and second moments start at zero, step at 0."""
    size = sum(p.data.size for p in params)
    return AdamState(lr=lr, weight_decay=weight_decay, m=np.zeros(size),
                     v=np.zeros(size), shapes=[p.data.shape for p in params])


def adam_step(params: list[Tensor], grads: list[np.ndarray],
              state: AdamState) -> None:
    """One in-place update. L2 decay is folded into the gradient, not decoupled.

    The update runs once over the flat buffers; every op is elementwise, so
    each entry gets the bits a per-parameter loop would give it."""
    if not (len(params) == len(grads) == len(state.shapes)):
        raise ValueError("adam_step: params/grads/state length mismatch")
    for p, g, shape in zip(params, grads, state.shapes):
        if not g.shape == p.data.shape == shape:
            raise ValueError(f"adam_step: grad shape {g.shape} vs param "
                             f"{p.data.shape} vs state {shape}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    grad = np.concatenate([g.ravel() for g in grads], dtype=np.float64)
    if state.weight_decay:
        grad += state.weight_decay * np.concatenate([p.data.ravel() for p in params])
    m, v = state.m, state.v
    m *= state.beta1
    m += (1.0 - state.beta1) * grad
    v *= state.beta2
    v += (1.0 - state.beta2) * (grad * grad)
    update = state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
    start = 0
    for p in params:
        p.data -= update[start:start + p.data.size].reshape(p.data.shape)
        start += p.data.size
