"""Graph encoders and linear classification heads.

Two message-passing backbones share one interface: each layer is a linear
map of aggregated node features, ReLU between layers, nothing after the
last. ``encode`` reads the operator that matches the backbone (symmetric
normalized adjacency for gcn, row-mean neighbor aggregator for sage) from an
``EncoderInput``, so the forward pass itself is backbone-agnostic about
graph wiring.

The input is a constant of the run, and so is its propagation ``A·x``: the
``EncoderInput`` computes it once, and layer 0 of both backbones reads it.
gcn layer 0 is therefore ``(A·x)·W`` rather than ``A·(x·W)``, the same
product in another float order; deeper gcn layers stay ``A·(h·W)``.

A loss that reads only some rows encodes on ``inp.at(rows, depth)``, and each
layer computes only its receptive field, the rows the layers above it read
(GraphSAGE's minibatch forward, Hamilton et al. 2017, Alg. 2, without
sampling). The last layer computes ``rows`` on ``A[rows]``; each layer below
it computes, sorted, the columns the layer above reads through its operator
plus the rows of that layer, and its operator is ``A`` sliced to its rows
and to the rows of the layer below. The walk stops at the first layer whose
rows exceed FIELD_SHARE of the nodes, or stop growing: that layer and those
below run over every node, as ``rows=None`` runs them all. Layer 0 reads
``A·x`` (and ``x`` for sage) gathered at its rows.

A sliced operator keeps each row's non-zeros in column order, so each row of
its product sums the same terms in the same order. A matmul's rows do not
depend on its other rows either, except that numpy multiplies a one-row
operand with a vector kernel that may round otherwise. So for gcn with
sorted unique rows, the form splits give, the forward rows are bitwise those
of the full forward wherever no product runs over one row. The weight
gradients sum over fewer rows, so they, and the trained weights, move in the
last bits.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import SparseMatrix, Tensor

BACKBONES = ("gcn", "sage")


@dataclass
class EncoderParams:
    backbone: str
    dims: list[int]            # [input, hidden, ..., repr]
    weights: list[Tensor]
    biases: list[Tensor]

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    @property
    def repr_dim(self) -> int:
        return self.dims[-1]


@dataclass
class HeadParams:
    weight: Tensor             # (repr_dim, num_outputs)
    bias: Tensor               # (1, num_outputs)

    @property
    def num_outputs(self) -> int:
        return self.weight.shape[1]


def glorot(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


def weight_rows(backbone: str, d_in: int) -> int:
    """Rows of a layer's weight over d_in inputs: sage reads each node's own
    features next to its neighbours' mean."""
    return 2 * d_in if backbone == "sage" else d_in


def init_encoder(backbone: str, dims: list[int], seed: int = 0) -> EncoderParams:
    """Glorot-uniform weights, zero biases. dims[0] is the feature width."""
    if backbone not in BACKBONES:
        raise ValueError(f"unknown backbone {backbone!r}, pick from {BACKBONES}")
    if len(dims) < 2:
        raise ValueError("encoder needs at least one layer")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        weights.append(ad.parameter(glorot(weight_rows(backbone, d_in), d_out, rng)))
        biases.append(ad.parameter(np.zeros((1, d_out))))
    return EncoderParams(backbone=backbone, dims=list(dims), weights=weights, biases=biases)


def encoder_parameters(enc: EncoderParams) -> list[Tensor]:
    return list(enc.weights) + list(enc.biases)


def freeze_encoder(enc: EncoderParams) -> EncoderParams:
    """Deep copy (a Tensor copies its data) with gradients off: the
    distillation anchor, and the encoder a forward that only reads values
    runs on, so that it builds no tape."""
    return EncoderParams(
        backbone=enc.backbone,
        dims=list(enc.dims),
        weights=[ad.constant(w.data) for w in enc.weights],
        biases=[ad.constant(b.data) for b in enc.biases],
    )


# at(rows) restricts a layer to the rows the layers above it read only while
# those rows are at most this share of the nodes. One encode and backward of
# a 2-layer, 32-wide encoder (2-core x86 VM, one CPU, one BLAS thread), with
# the layer below the last restricted, took 0.67-0.89 of the unrestricted
# time on discover's graph at fields of 0.58-0.77 of the nodes, and 0.99-1.07
# at 0.79-0.83; on the stock 5x100 SBM, 0.56-0.81 up to 0.63 and 0.91-0.95 at
# 0.69-0.80. The gathers and the column-sliced operator cost what the rows
# save near 0.8, so the share sits below it
FIELD_SHARE = 2 / 3


class Level(NamedTuple):
    """One layer of a row-restricted forward: the ``rows`` it computes, its
    operator ``adj``, ``A[rows]`` over the rows of the layer below (every
    node at the bottom level; none at layer 0, which reads ``A·x``), and
    ``own``, where ``rows`` sit among those."""

    rows: np.ndarray
    adj: SparseMatrix | None
    own: np.ndarray


@dataclass(frozen=True)
class EncoderInput:
    """What ``encode`` reads of the graph: the ``backbone`` whose operator
    ``adj`` is, the input ``x`` and ``ax = A·x``; after ``at(rows, depth)``,
    also the ``levels`` of the restricted forward, the last layer's first.
    ``encode`` rejects an encoder of another backbone. ``x`` is never written
    in place, or ``ax`` would go stale: a caller that moves ``x`` builds a
    new input. A gradient-carrying ``x`` still differentiates through
    ``ax``."""

    backbone: str
    adj: SparseMatrix
    x: Tensor
    ax: Tensor
    levels: tuple[Level, ...] = ()

    @classmethod
    def build(cls, backbone: str, adj: SparseMatrix, x: Tensor) -> EncoderInput:
        return cls(backbone, adj, x, ad.spmm(adj, x))

    def at(self, rows, depth: int) -> EncoderInput:
        """The same input for a ``depth``-layer encoder, with the last layer
        computing only ``rows``, in that order, and each layer below only
        the rows the one above reads, down to the first whose rows exceed
        FIELD_SHARE of the nodes, or stop growing: that layer and those
        below compute every node. IndexError for a row out of range."""
        cur = np.asarray(rows, dtype=np.int64).reshape(-1)
        nodes = self.adj.shape[1]
        if cur.size and (cur.min() < 0 or cur.max() >= nodes):
            raise IndexError(f"at: row index out of range for {nodes} rows")
        levels: list[Level] = []
        for _ in range(depth - 1):
            op = self.adj.restrict(cur)
            # the columns A[cur] reads, plus cur itself: sage's own term reads
            # it and gcn's self-loops already hold it, and so the field only
            # grows, until it passes the share or, past the first level,
            # where cur is sorted and unique, adds no row
            read = np.zeros(nodes, dtype=bool)
            read[op.mat.indices] = read[cur] = True
            below = np.flatnonzero(read)
            if below.size > FIELD_SHARE * nodes or (levels and below.size == cur.size):
                levels.append(Level(cur, op, cur))
                return replace(self, levels=tuple(levels))
            levels.append(Level(cur, SparseMatrix(op.mat[:, below]),
                                np.searchsorted(below, cur)))
            cur = below
        # layer 0 reads A·x, built with the input, at its rows: no operator
        return replace(self, levels=(*levels, Level(cur, None, cur)))


def encode(enc: EncoderParams, inp: EncoderInput) -> Tensor:
    """Forward pass to representations, shape (N, repr_dim); on
    ``inp.at(rows, depth)``, only those rows of it, in that order, shape
    (len(rows), repr_dim). ValueError where ``at`` restricted the input
    for fewer layers and a layer above layer 0 would read layer 0's level."""
    if inp.backbone != enc.backbone:
        raise ValueError(f"a {enc.backbone} encoder cannot read a {inp.backbone} input")
    if inp.x.shape[1] != enc.dims[0]:
        raise ValueError(f"encoder expects {enc.dims[0]} input features, got {inp.x.shape[1]}")
    h, levels = inp.x, inp.levels
    last = enc.num_layers - 1
    for i, (w, b) in enumerate(zip(enc.weights, enc.biases)):
        # layer i computes the rows of level last - i, or every node below them
        lv = levels[last - i] if last - i < len(levels) else None
        op = inp.adj if lv is None else lv.adj
        if op is None and i:
            raise ValueError(f"an input restricted for {len(levels)} layers cannot "
                             f"feed a {enc.num_layers}-layer encoder")
        ax = None
        if i == 0:  # layer 0 reads A·x, built with the input, at its rows
            ax = inp.ax if lv is None else ad.gather_rows(inp.ax, lv.rows)
        if enc.backbone == "gcn":  # (A·x)·W at layer 0, A·(h·W) deeper
            h = ad.add(ad.spmm(op, ad.matmul(h, w)), b) if ax is None else ad.affine(ax, w, b)
        else:  # sage: concat self with mean of neighbors, then linear
            # layer 0 reads every node of x; a deeper layer the rows below it
            own = h if lv is None else ad.gather_rows(h, lv.rows if i == 0 else lv.own)
            h = ad.affine(ad.concat_rows(own, ad.spmm(op, h) if ax is None else ax), w, b)
        if i != last:
            h = ad.relu(h)
    return h


def init_head(repr_dim: int, num_outputs: int, seed: int = 0) -> HeadParams:
    if num_outputs < 1:
        raise ValueError("head needs at least one output")
    rng = np.random.default_rng(seed)
    return HeadParams(weight=ad.parameter(glorot(repr_dim, num_outputs, rng)),
                      bias=ad.parameter(np.zeros((1, num_outputs))))


def head_parameters(head: HeadParams) -> list[Tensor]:
    return [head.weight, head.bias]


def head_forward(head: HeadParams, z: Tensor) -> Tensor:
    if z.shape[1] != head.weight.shape[0]:
        raise ValueError(
            f"head expects {head.weight.shape[0]}-dim representations, got {z.shape[1]}")
    return ad.affine(z, head.weight, head.bias)


def extend_head(old: HeadParams, num_new: int, init_scale: float = 0.01,
                seed: int = 0) -> HeadParams:
    """Joint head over old + new outputs.

    Old columns are copied verbatim so the joint head starts with the
    pretrained old-class behavior; new columns are N(0, init_scale^2) with
    zero bias.
    """
    if num_new < 1:
        raise ValueError("extend_head needs at least one new output")
    rng = np.random.default_rng(seed)
    d, c_old = old.weight.shape
    w = np.zeros((d, c_old + num_new))
    w[:, :c_old] = old.weight.data
    w[:, c_old:] = init_scale * rng.standard_normal((d, num_new))
    b = np.zeros((1, c_old + num_new))
    b[0, :c_old] = old.bias.data[0]
    return HeadParams(weight=ad.parameter(w), bias=ad.parameter(b))
