"""Loss terms for discovering new classes and retaining old ones.

The phase-2 objective combines five scalar terms built from full-batch
representations:

  pairwise      BCE between logistic pair similarities of novel-head logits
                and rank-statistics pseudo pair labels
  self          cross-entropy of the joint head against its own detached
                novel-head argmax, offset into the joint label space
  perturb       mean squared softmax disagreement between clean and
                noise-perturbed representations
  replay        cross-entropy of the joint head on samples drawn from old
                class prototypes (representation space, encoder bypassed)
  distill       mean per-node L2 distance to the frozen encoder's output

Weights: total = pairwise + b1*self + b2*perturb + lam*(replay + omega*distill)
with b1, b2 following a sigmoid-shaped warmup ramp from zero.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graph import is_int64_list


@dataclass
class LossWeights:
    """Scales and schedule knobs for the phase-2 objective."""

    alpha1: float = 0.1        # self-training amplitude
    alpha2: float = 4.0        # perturbation-consistency amplitude
    rampup_length: int = 100
    eta: float = 0.2           # perturbation step size
    lam: float = 1.0           # old-task weight
    omega_fd: float = 10.0     # distillation multiplier inside the old-task term
    top_k: int = 5             # rank statistics depth


@dataclass
class Prototypes:
    """Per-class Gaussian summary of labeled representations."""

    class_ids: np.ndarray      # (C,) int64
    mean: np.ndarray           # (C, d)
    var: np.ndarray            # (C, d) biased per-dimension variance
    counts: np.ndarray         # (C,) int64

    def are_finite(self) -> bool:
        """Whether replay can sample these: every mean finite, every
        variance in [0, inf)."""
        return bool(np.isfinite(self.mean).all()
                    and ((0 <= self.var) & (self.var < np.inf)).all())

    def to_dict(self) -> dict:
        # python float repr round-trips exactly, so JSON storage is lossless
        return {
            "class_ids": [int(c) for c in self.class_ids],
            "mean": [[float(v) for v in row] for row in self.mean],
            "var": [[float(v) for v in row] for row in self.var],
            "counts": [int(c) for c in self.counts],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Prototypes":
        """ValueError unless class ids and counts are lists of 64-bit integers,
        one count per class id, every count is at least 1, and mean and var
        are lists of lists of JSON numbers, not booleans, that fit a float."""
        for key in ("class_ids", "counts"):
            if not is_int64_list(d[key]):
                raise ValueError(f"{key} must be a list of 64-bit integers")
        values = {}
        for key in ("mean", "var"):
            if not (isinstance(d[key], list) and all(
                    isinstance(r, list) and all(type(x) in (int, float) for x in r)
                    for r in d[key])):
                raise ValueError(f"{key} must be a list of lists of numbers")
            try:
                values[key] = np.array([[float(x) for x in r] for r in d[key]])
            except OverflowError as exc:  # an integer past the float range
                raise ValueError(f"{key} holds a number no float holds") from exc
        if len(d["counts"]) != len(d["class_ids"]):
            raise ValueError(f"{len(d['counts'])} counts for {len(d['class_ids'])} classes")
        if not all(c >= 1 for c in d["counts"]):
            raise ValueError(f"counts must be at least 1, got {d['counts']}")
        return cls(class_ids=np.asarray(d["class_ids"], dtype=np.int64),
                   mean=values["mean"], var=values["var"],
                   counts=np.asarray(d["counts"], dtype=np.int64))


def _as_array(z) -> np.ndarray:
    return z.data if isinstance(z, Tensor) else np.asarray(z, dtype=np.float64)


# rows per block of the n x n pair ops, so their temporaries are O(block * n)
PAIR_BLOCK = 64


def _row_blocks(n: int) -> list[slice]:
    """The slices that cut n rows into blocks of PAIR_BLOCK, in order."""
    return [slice(i, i + PAIR_BLOCK) for i in range(0, n, PAIR_BLOCK)]


class _Similarity(Tensor):
    """What pairwise_similarity returns: a Tensor whose one parent is the
    novel logits, so pairwise_bce can differentiate straight to them."""

    __slots__ = ()


def _similarity_vjp(g):
    raise TypeError("a pairwise similarity is differentiated only through pairwise_bce")


def pairwise_similarity(novel_logits: Tensor) -> Tensor:
    """s_ij = logistic(u_i . u_j) over all ordered pairs, shape (n, n).

    One op, forward row block by row block, each block written in place
    into its own rows of s. It has no vjp of its own: pairwise_bce
    differentiates straight to the logits, and any other route to a
    gradient-carrying similarity raises TypeError in backward."""
    u = novel_logits.data
    n = u.shape[0]
    s = np.empty((n, n))
    for r in _row_blocks(n):
        ad._stable_sigmoid(np.matmul(u[r], u.T, out=s[r]), out=s[r])
    out = ad._make(s, (novel_logits,), _similarity_vjp)
    # marked after _make, so a wrapper that swaps out._vjp keeps the mark
    out.__class__ = _Similarity
    return out


def topk_groups(z, k: int) -> np.ndarray:
    """Group id per row, equal exactly where two rows share their top-k
    dimension index set. Ranking ties break toward the lower dimension index.

    Ids run from 1 to the number of groups, in the narrowest unsigned dtype
    that holds the row count, so comparing them is cheap.

    A row takes its top k by k argmax passes, each masking its pick with
    -inf, and argmax returns the first maximum. A row holding nan or +-inf,
    where argmax and the masks would part from the ranking, takes the
    stable argsort of its negation instead."""
    arr = _as_array(z)
    n, d = arr.shape
    if not 1 <= k <= d:
        raise ValueError(f"top_k must be in [1, {d}], got {k}")
    # a row sum is not finite where a value is not, or where it overflows,
    # which the argsort route also serves
    with np.errstate(over="ignore", invalid="ignore"):
        fin = np.isfinite(arr.sum(axis=1))
    left = np.where(fin[:, None], arr, 0.0)  # a copy, so the picks can be masked
    top = np.zeros((n, d), dtype=bool)
    base = np.arange(0, n * d, d)
    for _ in range(k):
        at = left.argmax(axis=1)
        at += base
        top.reshape(-1)[at] = True
        left.reshape(-1)[at] = -np.inf
    odd = np.flatnonzero(~fin)
    top[odd] = False
    top[odd[:, None], np.argsort(-arr[odd], axis=1, kind="stable")[:, :k]] = True
    # a row's set as 64-bit words, dimension 0 the top bit of the first and
    # each word inverted, so the words sort as the sorted index tuples do
    words = np.zeros((n, -(-d // 64) * 8), dtype=np.uint8)
    words[:, :-(-d // 8)] = np.packbits(top, axis=1)
    key = ~words.view(">u8").astype(np.uint64)
    # rows with the same index set share a group id: sort the rows, then a
    # new id starts wherever a row differs from the one before it
    order = np.lexsort(key.T[::-1])
    rows = key[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    gid = np.empty(len(rows), dtype=np.min_scalar_type(len(rows)))
    gid[order] = np.cumsum(new)
    return gid


def topk_pseudo_pairs(z, k: int) -> np.ndarray:
    """Pair label True where two rows share their top-k dimension index set.

    Output is the dense symmetric bool matrix of topk_groups' equal ids, with
    an all-true diagonal; it is a detached target, never differentiated
    through."""
    gid = topk_groups(z, k)
    return gid[:, None] == gid[None, :]


# the BCE clamps similarities to [_S_LO, _S_HI]; pairs outside the open
# interval are saturated and get exactly zero gradient
_S_LO, _S_HI = 1e-12, 1.0 - 1e-12


def _unsaturated(sb: np.ndarray, out: np.ndarray | None = None,
                 scratch: np.ndarray | None = None) -> np.ndarray:
    keep = np.greater(sb, _S_LO, out=out)
    keep &= np.less(sb, _S_HI, out=scratch)
    return keep


def pairwise_bce(s: Tensor, y_pair: np.ndarray) -> Tensor:
    """Mean binary cross-entropy over all n^2 ordered pairs, diagonal included; n >= 1.

    Targets must be 0 or 1, validated once on entry: a bool matrix,
    as topk_pseudo_pairs returns, is that by its type, and any other array
    must hold only 0 and 1 (else ValueError) and is read as y == 1. The row
    blocks are cast to float one at a time. Similarities are clamped to
    [1e-12, 1 - 1e-12] before the log, so saturated pairs contribute a finite
    loss and a zero gradient. One op, summed row block by row block as
    log|clip(s) + y - 1|, bitwise the terms y log(s) + (1 - y) log(1 - s).

    The loss is differentiated straight to the novel logits U under s, in
    the same block loop: with t = c (y - s) m, where m masks out the
    saturated pairs and the logistic derivative has cancelled, dL/dU =
    t U + t^T U. The loss's one parent is then U, so no n x n array is left
    on the tape. A constant s gives a constant loss; a gradient-carrying s
    that pairwise_similarity did not return raises TypeError.

    The scratch is one row block's worth, allocated once before the loop;
    each block's log-sum, t U and t^T U are added to the loss and the
    gradient in block order.
    """
    n, m = s.shape
    if n != m or not n:  # a mean over no pairs is undefined
        raise ValueError(f"similarity matrix must be square and non-empty, got {s.shape}")
    y = np.asarray(y_pair)
    if y.shape != (n, n):
        raise ValueError(f"pair labels {y.shape} do not match similarities {s.shape}")
    if y.dtype != bool:
        if not ((y == 1) | (y == 0)).all():
            raise ValueError("pair labels must be 0 or 1")
        y = y == 1
    if s.requires_grad and not isinstance(s, _Similarity):
        raise TypeError("pairwise_bce differentiates only the output of pairwise_similarity")
    # the logits under s, or none for a constant s
    parents = s._parents
    sd = s.data
    scale = -1.0 / (n * n)
    if parents:
        u = parents[0].data
        grad_u = np.zeros_like(u)
        # |u_i . u_j| < 25 when every squared row norm is, and the logistic
        # of that lies inside the clamp, so no pair can saturate; a nan or
        # inf norm fails the test and keeps the scan
        scan = not np.einsum("ij,ij->i", u, u).max(initial=0.0) < 25.0
    total = 0.0
    # one row block of scratch: y as float, then y - 1; clip(s); t; masks
    shape = (min(PAIR_BLOCK, n), n)
    yf, sf, tf = np.empty(shape), np.empty(shape), np.empty(shape)
    keepf, hif = np.empty(shape, dtype=bool), np.empty(shape, dtype=bool)
    for r in _row_blocks(n):
        sb = sd[r]
        k = sb.shape[0]
        yb, sc = yf[:k], sf[:k]
        np.copyto(yb, y[r])
        if parents:
            t = np.subtract(yb, sb, out=tf[:k])
            if scan:
                keep = _unsaturated(sb, keepf[:k], hif[:k])
                if not keep.all():
                    t[~keep] = 0.0
        # y - 1 is exactly 0 or -1, so this is sc where y = 1, 1 - sc where y = 0
        yb -= 1.0
        np.clip(sb, _S_LO, _S_HI, out=sc)
        sc += yb
        total += np.log(np.abs(sc, out=sc), out=sc).sum()
        if parents:
            grad_u[r] += t @ u
            grad_u += t.T @ u[r]
    loss = np.array([[total * scale]])
    return ad._make(loss, parents, lambda g: [grad_u * (g[0, 0] * scale)])


def assign_pseudo_labels(novel_logits, num_old: int) -> np.ndarray:
    """Joint-space pseudo labels: num_old + argmax of the novel logits.

    Argmax ties resolve to the lowest index. Detached by construction."""
    arr = _as_array(novel_logits)
    return (num_old + np.argmax(arr, axis=1)).astype(np.int64)


def self_training_loss(joint_logits: Tensor, pseudo_labels) -> Tensor:
    """Mean cross-entropy of the joint head against the pseudo labels."""
    return ad.nll_rows(ad.log_softmax_rows(joint_logits), pseudo_labels)


def perturb_representations(z: Tensor, eta: float, sigma, seed: int) -> Tensor:
    """z + eta * noise with noise ~ N(0, diag(sigma^2)), no gradient through it.

    eta == 0 or an all-zero sigma returns z itself, bitwise."""
    sig = np.asarray(sigma, dtype=np.float64).reshape(-1)
    if sig.size != z.shape[1]:
        raise ValueError(f"sigma has {sig.size} entries for {z.shape[1]} dimensions")
    if np.any(sig < 0.0):
        raise ValueError("sigma must be non-negative")
    if eta == 0.0 or not np.any(sig > 0.0):
        return z
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(z.shape) * sig
    return ad.add(z, ad.constant(eta * noise))


def perturb_consistency_loss(logits_clean: Tensor, logits_pert: Tensor) -> Tensor:
    """Mean squared difference between clean and perturbed row softmaxes.

    Equal to the per-node average of sum_k (p_k - q_k)^2 divided by the
    number of classes."""
    if logits_clean.shape != logits_pert.shape:
        raise ValueError(
            f"clean {logits_clean.shape} vs perturbed {logits_pert.shape} logits")
    return ad.mse(ad.softmax_rows(logits_clean), ad.softmax_rows(logits_pert))


def batch_sigma(z) -> np.ndarray:
    """Per-dimension noise scale: batch std of the representations.

    Dimensions with zero spread fall back to 1.0; ValueError for no rows."""
    arr = _as_array(z)
    if arr.shape[0] == 0:
        raise ValueError(f"batch_sigma of no rows, shape {arr.shape}")
    std = arr.std(axis=0)
    return np.where(std > 0.0, std, 1.0)


def compute_prototypes(z, labels, old_classes) -> Prototypes:
    """Per-class mean and biased per-dimension variance of representations."""
    arr = _as_array(z)
    labs = np.asarray(labels, dtype=np.int64).reshape(-1)
    if labs.size != arr.shape[0]:
        raise ValueError(f"{arr.shape[0]} rows but {labs.size} labels")
    ids = np.asarray(list(old_classes), dtype=np.int64)
    means, variances, counts = [], [], []
    for c in ids:
        rows = arr[labs == c]
        if rows.shape[0] == 0:
            raise ValueError(f"class {c} has no representative rows")
        mu = rows.mean(axis=0)
        means.append(mu)
        variances.append(((rows - mu) ** 2).mean(axis=0))
        counts.append(rows.shape[0])
    return Prototypes(class_ids=ids, mean=np.stack(means),
                      var=np.stack(variances), counts=np.array(counts, dtype=np.int64))


def sample_prototype_batch(protos: Prototypes, per_class: int,
                           seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw per_class Gaussian samples from every prototype.

    Returns (features, labels) with rows grouped class-major in
    protos.class_ids order; labels are the stored class ids."""
    if per_class < 1:
        raise ValueError("per_class must be at least 1")
    c, d = protos.mean.shape
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal((c * per_class, d))
    mu = np.repeat(protos.mean, per_class, axis=0)
    sd = np.repeat(np.sqrt(protos.var), per_class, axis=0)
    labels = np.repeat(protos.class_ids, per_class)
    return mu + eps * sd, labels


def replay_loss(joint_logits: Tensor, label_idx) -> Tensor:
    """Mean cross-entropy on replayed prototypes over the full joint softmax.

    label_idx must already be joint head indices, i.e. < number of old
    classes (old classes occupy the leading columns)."""
    y = np.asarray(label_idx, dtype=np.int64).reshape(-1)
    return ad.nll_rows(ad.log_softmax_rows(joint_logits), y)


def distill_loss(z_frozen: Tensor, z_current: Tensor) -> Tensor:
    """Mean per-node L2 distance between frozen and current representations."""
    if z_frozen.shape != z_current.shape:
        raise ValueError(
            f"frozen {z_frozen.shape} vs current {z_current.shape} representations")
    return ad.mean(ad.l2_row_norm(ad.sub(z_frozen, z_current)))


LOSS_TERMS = ("pseudo", "self", "perturb", "replay", "distill")


def rampup(epoch: int, length: int, amplitude: float) -> float:
    """Sigmoid-shaped warmup: amplitude * exp(-5 (1 - t)^2), t = epoch/length.

    Clamps at the full amplitude once epoch reaches length."""
    if length < 1:
        raise ValueError("rampup length must be >= 1")
    if epoch >= length:
        return float(amplitude)
    t = epoch / length
    return float(amplitude * np.exp(-5.0 * (1.0 - t) ** 2))


def loss_betas(w: LossWeights, epoch: int) -> tuple[float, float]:
    return (rampup(epoch, w.rampup_length, w.alpha1),
            rampup(epoch, w.rampup_length, w.alpha2))


def scheduled_total(terms: Mapping[str, Tensor], w: LossWeights,
                    epoch: int) -> tuple[Tensor, dict]:
    """Compose the five 1x1 loss terms into the epoch's scheduled total.

    Returns (total, report); the report carries every term's value plus the
    epoch's effective beta weights and the total, in the order the loss CSV
    expects.

    One node, whose value and gradients are bitwise those of the chain
    ``add``/``mul_scalar`` would build: the novel part, then the old-task
    part times lam. Its parents are the terms in LOSS_TERMS order."""
    b1, b2 = loss_betas(w, epoch)
    lam, omega = float(w.lam), float(w.omega_fd)
    parents = tuple(terms[k] for k in LOSS_TERMS)
    pseudo, self_, perturb, replay, distill = (t.data for t in parents)
    data = ((pseudo + self_ * b1) + perturb * b2) + (replay + distill * omega) * lam

    def vjp(g):
        g_old = g * lam
        return [g, g * b1, g * b2, g_old, g_old * omega]

    total = ad._make(data, parents, vjp)
    report = {k: terms[k].item() for k in LOSS_TERMS}
    report.update(beta1=b1, beta2=b2, total=total.item())
    return total, report

