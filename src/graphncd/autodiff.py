"""Dense/sparse kernels with reverse-mode differentiation.

Every value is a 2-D float64 array wrapped in a :class:`Tensor`. Ops record
a computation graph as they run; :func:`backward` walks that graph once in
reverse topological order and accumulates vector-Jacobian products in a map
local to the call. Nodes hold no gradients, so a graph can be swept again,
or through another loss that shares part of it, with the same result.

Shapes are strict. Scalars are (1, 1), row vectors (1, d). The only
broadcasting allowed in ``add``/``sub`` is a (1, d) or (1, 1) operand
against an (n, d) one, which covers bias rows and scalar weights.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import scipy.sparse as _sp


class Tensor:
    """A 2-D float64 value node; leaves with requires_grad=True are parameters."""

    __slots__ = ("data", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise ValueError(f"tensors are 2-D, got shape {arr.shape}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], list[np.ndarray | None]] | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape  # type: ignore[return-value]

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a single element, shape is {self.shape}")
        return float(self.data[0, 0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    """Internal node constructor. ``vjp(g)`` returns grads aligned with parents."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = parents
        out._vjp = vjp
    else:
        # constant subgraphs are dropped so frozen branches cost nothing
        out._parents = ()
        out._vjp = None
    return out


class SparseMatrix:
    """Immutable CSR operator used by spmm. Not differentiated through.

    spmm's backward multiplies by the transpose ``mat_t``, a CSC view of the
    same arrays kept from construction, so no operator holds a copy and no
    backward builds one. For a bitwise-symmetric matrix that product is
    bitwise the product with ``mat`` itself.
    """

    def __init__(self, mat):
        csr = _sp.csr_matrix(mat, dtype=np.float64)
        csr.sort_indices()
        self.mat = csr
        self.mat_t = csr.T

    def restrict(self, rows) -> SparseMatrix:
        """The operator ``A[rows]``: its rows at the given indices, in that
        order, duplicates kept. ``spmm(A.restrict(rows), h)`` is the rows
        ``rows`` of ``spmm(A, h)``."""
        ii = np.asarray(rows, dtype=np.int64).reshape(-1)
        if ii.size and (ii.min() < 0 or ii.max() >= self.shape[0]):
            raise IndexError(f"restrict: row index out of range for {self.shape[0]} rows")
        return SparseMatrix(self.mat[ii])

    @property
    def shape(self) -> tuple[int, int]:
        return self.mat.shape  # type: ignore[return-value]


def _check_2d(*ts: Tensor) -> None:
    for t in ts:
        if not isinstance(t, Tensor):
            raise TypeError(f"expected Tensor, got {type(t).__name__}")


def _broadcastable(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Equal shapes, or a (1, d) or (1, 1) operand against an (n, d) one."""
    return a == b or any(s[0] == 1 and s[1] in (1, o[1]) for s, o in ((a, b), (b, a)))


def _unbroadcast(g: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Sum g back down to ``shape`` after numpy broadcasting."""
    if g.shape == shape:
        return g
    out = g
    if shape[0] == 1 and out.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and out.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check_2d(a, b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data
    grad_a, grad_b = a.requires_grad, b.requires_grad

    def vjp(g):
        # a constant operand's gradient would be discarded: skip the product
        return [g @ bd.T if grad_a else None, ad.T @ g if grad_b else None]

    return _make(ad @ bd, (a, b), vjp)


def affine(h: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``h @ w + b`` for a (1, d) bias row, as one node: bitwise
    ``add(matmul(h, w), b)`` in value and in every gradient."""
    _check_2d(h, w, b)
    if h.shape[1] != w.shape[0] or b.shape != (1, w.shape[1]):
        raise ValueError(f"affine shape mismatch: {h.shape} @ {w.shape} + {b.shape}")
    hd, wd, bsh = h.data, w.data, b.shape
    grad_h, grad_w = h.requires_grad, w.requires_grad

    def vjp(g):
        # a constant operand's gradient would be discarded: skip the product
        return [g @ wd.T if grad_h else None, hd.T @ g if grad_w else None,
                _unbroadcast(g, bsh)]

    out = hd @ wd
    out += b.data
    return _make(out, (h, w, b), vjp)


def spmm(m: SparseMatrix, x: Tensor) -> Tensor:
    """Sparse @ dense. Gradient flows into x only (m is a fixed operator)."""
    _check_2d(x)
    if m.shape[1] != x.shape[0]:
        raise ValueError(f"spmm shape mismatch: {m.shape} @ {x.shape}")

    def vjp(g):
        return [m.mat_t @ g]

    return _make(m.mat @ x.data, (x,), vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_2d(a, b)
    if not _broadcastable(a.shape, b.shape):
        raise ValueError(f"add shape mismatch: {a.shape} + {b.shape}")
    ash, bsh = a.shape, b.shape

    def vjp(g):
        return [_unbroadcast(g, ash), _unbroadcast(g, bsh)]

    return _make(a.data + b.data, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_2d(a, b)
    if not _broadcastable(a.shape, b.shape):
        raise ValueError(f"sub shape mismatch: {a.shape} - {b.shape}")
    ash, bsh = a.shape, b.shape

    def vjp(g):
        return [_unbroadcast(g, ash), _unbroadcast(-g, bsh)]

    return _make(a.data - b.data, (a, b), vjp)


def relu(a: Tensor) -> Tensor:
    _check_2d(a)
    mask = a.data > 0.0

    def vjp(g):
        return [g * mask]

    # fmax sends nan and -inf to 0 and += 0.0 turns -0.0 into +0.0: bitwise
    # np.where(mask, a, 0.0), several times faster
    out = np.fmax(a.data, 0.0)
    out += 0.0
    return _make(out, (a,), vjp)


def _stable_sigmoid(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Logistic function into ``out`` (which may be ``x``), stable in both
    tails: 1/(1+e) where x >= 0 and e/(1+e) elsewhere, nan included, with
    e = exp(-|x|)."""
    pos = x >= 0
    e = np.negative(np.abs(x, out=out), out=out)
    np.exp(e, out=e)
    d = e + 1.0
    # e <= 1 everywhere, so this is the numerator: 1 where x >= 0, e elsewhere
    np.maximum(e, pos, out=e)
    return np.divide(e, d, out=e)


def log_softmax_rows(a: Tensor) -> Tensor:
    """Row-wise log-softmax, max-shifted so it is finite for any finite input."""
    _check_2d(a)
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out = shifted - lse
    soft = np.exp(out)

    def vjp(g):
        return [g - soft * g.sum(axis=1, keepdims=True)]

    return _make(out, (a,), vjp)


def softmax_rows(a: Tensor) -> Tensor:
    _check_2d(a)
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        return [s * (g - (g * s).sum(axis=1, keepdims=True))]

    return _make(s, (a,), vjp)


def gather_rows(a: Tensor, idx) -> Tensor:
    """Select rows by integer index array; backward scatter-adds."""
    _check_2d(a)
    ii = np.asarray(idx, dtype=np.int64).reshape(-1)
    if ii.size and (ii.min() < 0 or ii.max() >= a.shape[0]):
        raise IndexError(f"gather_rows index out of range for {a.shape[0]} rows")
    shape = a.shape

    def vjp(g):
        if np.all(ii[1:] > ii[:-1]):
            # one row of g per output row: 0.0 + g, -0.0 made +0.0 as
            # np.add.at makes it, where plain assignment would keep it
            out = np.zeros(shape)
            out[ii] += g
            return [out]
        # ones at (ii[k], k): row r sums g[k] over ii[k] == r in k order,
        # exactly what np.add.at does, without its per-element loop
        m = ii.size
        scatter = _sp.csr_matrix((np.ones(m), (ii, np.arange(m))), shape=(shape[0], m))
        return [scatter @ g]

    return _make(a.data[ii].copy(), (a,), vjp)


def concat_rows(a: Tensor, b: Tensor) -> Tensor:
    """Row-aligned feature concatenation: result row i is [a_i, b_i]."""
    _check_2d(a, b)
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"concat_rows needs equal row counts: {a.shape} vs {b.shape}")
    ca = a.shape[1]

    def vjp(g):
        return [g[:, :ca].copy(), g[:, ca:].copy()]

    return _make(np.hstack([a.data, b.data]), (a, b), vjp)


def mean(a: Tensor) -> Tensor:
    _check_2d(a)
    n = a.data.size
    if n == 0:
        raise ValueError(f"mean of an empty {a.shape} tensor")
    shape = a.shape

    def vjp(g):
        return [np.full(shape, g[0, 0] / n)]

    return _make(np.array([[a.data.mean()]]), (a,), vjp)


def mse(a: Tensor, b: Tensor) -> Tensor:
    """Mean over all elements of (a - b)^2."""
    _check_2d(a, b)
    if a.shape != b.shape:
        raise ValueError(f"mse shape mismatch: {a.shape} vs {b.shape}")
    diff = a.data - b.data
    n = diff.size
    if n == 0:
        raise ValueError(f"mse of empty {a.shape} tensors")

    def vjp(g):
        d = (2.0 / n) * diff * g[0, 0]
        return [d, -d]

    return _make(np.array([[np.mean(diff * diff)]]), (a, b), vjp)


def l2_row_norm(a: Tensor) -> Tensor:
    """Per-row Euclidean norm, shape (n, 1). Zero rows get zero gradient."""
    _check_2d(a)
    r = np.sqrt((a.data * a.data).sum(axis=1, keepdims=True))
    safe = np.where(r > 0.0, r, 1.0)
    ad = a.data

    def vjp(g):
        return [g * ad / safe]

    return _make(r, (a,), vjp)


def nll_rows(logp: Tensor, labels) -> Tensor:
    """Mean negative picked log-probability: -(1/n) sum_i logp[i, labels[i]]."""
    _check_2d(logp)
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    n, c = logp.shape
    if y.size != n:
        raise ValueError(f"nll_rows: {n} rows but {y.size} labels")
    if n == 0:
        raise ValueError("nll_rows: no rows")
    if y.min() < 0 or y.max() >= c:
        raise ValueError(f"nll_rows: label out of range for {c} columns")
    rows = np.arange(n)

    def vjp(g):
        acc = np.zeros((n, c))
        acc[rows, y] = -g[0, 0] / n
        return [acc]

    return _make(np.array([[-logp.data[rows, y].mean()]]), (logp,), vjp)


def backward(loss: Tensor, params: Sequence[Tensor] = ()) -> list[np.ndarray]:
    """Reverse-mode sweep from a scalar loss.

    Returns gradients aligned with ``params``, which are leaves (zeros for
    those the loss does not reach). The gradients live in a map local to the
    call: a node's entry is popped when its vjp runs, so the tape keeps no
    state, a second sweep returns the same gradients and two losses that
    share a subgraph each get their own.
    """
    if loss.data.shape != (1, 1):
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    for i, p in enumerate(params):
        if p._vjp is not None:
            raise ValueError(f"backward returns gradients of leaves; params[{i}] is computed")

    # iterative post-order DFS over grad-requiring ancestry
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    # keyed by id: every node stays alive in ``order`` until the call returns
    grads: dict[int, np.ndarray] = {id(loss): np.ones((1, 1))}
    for node in reversed(order):
        if node._vjp is None or id(node) not in grads:
            continue
        for parent, g in zip(node._parents, node._vjp(grads.pop(id(node)))):
            if g is None or not parent.requires_grad:
                continue
            # the first contribution is stored as returned, later ones are
            # added out of place: an array a vjp returned is never written,
            # even when one g reaches two parents
            old = grads.get(id(parent))
            grads[id(parent)] = g if old is None else old + g

    return [grads[id(p)] if id(p) in grads else np.zeros_like(p.data) for p in params]


def grad_check(f: Callable[[], Tensor], params: Sequence[Tensor],
               eps: float = 1e-5, seed: int = 0,
               max_coords: int | None = None) -> float:
    """Central-difference check of ``backward`` on the scalar ``f()``.

    Rebuilds the graph for every probe. Returns the worst relative error
    max |analytic - fd| / max(1e-8, |fd|) over the sampled coordinates.
    """
    analytic = backward(f(), params)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for p, g in zip(params, analytic):
        size = p.data.size
        if max_coords is not None and size > max_coords:
            coords = np.sort(rng.choice(size, size=max_coords, replace=False))
        else:
            coords = np.arange(size)
        flat = p.data.reshape(-1)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + eps
            hi = f().item()
            flat[i] = orig - eps
            lo = f().item()
            flat[i] = orig
            fd = (hi - lo) / (2.0 * eps)
            err = abs(g.reshape(-1)[i] - fd) / max(1e-8, abs(fd))
            worst = max(worst, err)
    return worst
