"""Autodiff ops that only the tests use, to build reference chains.

graphncd's engine (``graphncd.autodiff``) ships the ops its pipeline runs.
The tests also compare fused kernels against chains of primitives, such as
``sigmoid(u @ u.T)`` followed by clamp, log and sum for the pairwise BCE, and
weight outputs into scalars for gradient checks. These eight ops are that
vocabulary. Each records its node with the engine's own ``_make``, so
``backward`` and ``grad_check`` treat it as any engine op.

    import oracle_ops as oracle
    loss = oracle.sum(oracle.mul(ad.spmm(adj, x), w))
"""
from __future__ import annotations

import numpy as np

from graphncd.autodiff import (Tensor, _broadcastable, _check_2d, _make, _stable_sigmoid,
                               _unbroadcast)


def transpose(a: Tensor) -> Tensor:
    _check_2d(a)

    def vjp(g):
        return [g.T.copy()]

    return _make(a.data.T.copy(), (a,), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product, same broadcasting rules as add."""
    _check_2d(a, b)
    if not _broadcastable(a.shape, b.shape):
        raise ValueError(f"mul shape mismatch: {a.shape} * {b.shape}")
    ash, bsh = a.shape, b.shape
    ad, bd = a.data, b.data

    def vjp(g):
        return [_unbroadcast(g * bd, ash), _unbroadcast(g * ad, bsh)]

    return _make(ad * bd, (a, b), vjp)


def mul_scalar(a: Tensor, c: float) -> Tensor:
    _check_2d(a)
    c = float(c)

    def vjp(g):
        return [g * c]

    return _make(a.data * c, (a,), vjp)


def add_scalar(a: Tensor, c: float) -> Tensor:
    _check_2d(a)

    def vjp(g):
        return [g]

    return _make(a.data + float(c), (a,), vjp)


def sigmoid(a: Tensor) -> Tensor:
    _check_2d(a)
    s = _stable_sigmoid(a.data, np.empty_like(a.data))

    def vjp(g):
        return [g * s * (1.0 - s)]

    return _make(s, (a,), vjp)


def log(a: Tensor) -> Tensor:
    _check_2d(a)
    if np.any(a.data <= 0.0):
        raise ValueError("log needs strictly positive input; clamp first")
    ad = a.data

    def vjp(g):
        return [g / ad]

    return _make(np.log(ad), (a,), vjp)


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient passes only where the input was interior."""
    _check_2d(a)
    if not lo < hi:
        raise ValueError(f"clamp needs lo < hi, got [{lo}, {hi}]")
    mask = (a.data > lo) & (a.data < hi)

    def vjp(g):
        return [g * mask]

    return _make(np.clip(a.data, lo, hi), (a,), vjp)


def sum(a: Tensor) -> Tensor:  # noqa: A001 - matches the op vocabulary
    _check_2d(a)
    shape = a.shape

    def vjp(g):
        return [np.full(shape, g[0, 0])]

    return _make(np.array([[a.data.sum()]]), (a,), vjp)
