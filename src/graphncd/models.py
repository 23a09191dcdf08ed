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

A loss that reads only some rows encodes on ``inp.at(rows)``, and the last
layer computes only those, on ``A[rows]``. gcn's last layer is then
``A[rows]·(h·W)``, whose rows are bitwise those of the full product; sage's
is ``concat(h[rows], A[rows]·h)·W``, whose matmul runs over fewer rows and
so may differ from the full product's rows in the last bits. Earlier layers
still run over every node, since the last one reads their neighbours.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

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


@dataclass(frozen=True)
class EncoderInput:
    """What ``encode`` reads of the graph: the ``backbone`` whose operator
    ``adj`` is, the input ``x`` and ``ax = A·x``; after ``at(rows)``, also
    ``rows`` and ``adj_rows = A[rows]``. ``encode`` rejects an encoder of
    another backbone. ``x`` is never written in place, or ``ax`` would go
    stale: a caller that moves ``x`` builds a new input. A gradient-carrying
    ``x`` still differentiates through ``ax``."""

    backbone: str
    adj: SparseMatrix
    x: Tensor
    ax: Tensor
    rows: np.ndarray | None = None
    adj_rows: SparseMatrix | None = None

    @classmethod
    def build(cls, backbone: str, adj: SparseMatrix, x: Tensor) -> EncoderInput:
        return cls(backbone, adj, x, ad.spmm(adj, x))

    def at(self, rows) -> EncoderInput:
        """The same input, with the last layer computing only ``rows``, in
        that order; IndexError for a row out of range."""
        ii = np.asarray(rows, dtype=np.int64).reshape(-1)
        return replace(self, rows=ii, adj_rows=self.adj.restrict(ii))


def encode(enc: EncoderParams, inp: EncoderInput) -> Tensor:
    """Forward pass to representations, shape (N, repr_dim); on ``inp.at(rows)``,
    only those rows of it, in that order, shape (len(rows), repr_dim)."""
    if inp.backbone != enc.backbone:
        raise ValueError(f"a {enc.backbone} encoder cannot read a {inp.backbone} input")
    if inp.x.shape[1] != enc.dims[0]:
        raise ValueError(f"encoder expects {enc.dims[0]} input features, got {inp.x.shape[1]}")
    h, rows = inp.x, inp.rows
    last = enc.num_layers - 1
    for i, (w, b) in enumerate(zip(enc.weights, enc.biases)):
        # the last layer computes only the rows read: A[rows] in place of A
        op = inp.adj if rows is None or i != last else inp.adj_rows
        ax = None
        if i == 0:  # layer 0 reads A·x, built with the input
            ax = inp.ax if op is inp.adj else ad.gather_rows(inp.ax, rows)
        if enc.backbone == "gcn":  # (A·x)·W at layer 0, A·(h·W) deeper
            h = ad.spmm(op, ad.matmul(h, w)) if ax is None else ad.matmul(ax, w)
        else:  # sage: concat self with mean of neighbors, then linear
            own = h if op is inp.adj else ad.gather_rows(h, rows)
            h = ad.matmul(ad.concat_rows(own, ad.spmm(op, h) if ax is None else ax), w)
        h = ad.add(h, b)
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
    return ad.add(ad.matmul(z, head.weight), head.bias)


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
