"""Joint evaluation, cluster matching, and stage-wise retention metrics."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import autodiff as ad
from .graph import ClassSplit, Graph, input_features, operator_for
from .models import encode, head_forward


@dataclass
class MetricsReport:
    old_acc: float
    new_acc: float
    all_acc: float
    confusion: np.ndarray            # rows true class, cols predicted class
    class_order: list[int]           # class ids indexing the confusion matrix
    perf: np.ndarray | None = None   # lower-triangular stage matrix, NaN above
    aa: float | None = None
    af: float | None = None
    phase: int = 1
    seed: int = 0
    config_hash: str = ""
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "old_acc": self.old_acc,
            "new_acc": self.new_acc,
            "all_acc": self.all_acc,
            "aa": self.aa,
            "af": self.af,
            "phase": self.phase,
            "seed": self.seed,
            "config_hash": self.config_hash,
        }
        out.update(self.extras)
        return out


def hungarian_match(cost) -> list[int]:
    """Minimum-cost row-to-column assignment of a square matrix.

    Among all optimal assignments, returns the lexicographically smallest
    permutation (perm[0], perm[1], ...): each row in turn greedily takes the
    smallest column that still allows an optimal completion."""
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"cost matrix must be square, got {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValueError("cost matrix must be finite")
    n = c.shape[0]
    rows, cols = linear_sum_assignment(c)
    best = float(c[rows, cols].sum())
    tol = 1e-9 * max(1.0, abs(best))

    perm: list[int] = []
    remaining = list(range(n))
    prefix = 0.0
    for i in range(n):
        for j in remaining:  # kept sorted
            rest = [x for x in remaining if x != j]
            if rest:
                sub = c[np.ix_(range(i + 1, n), rest)]
                rr, cc = linear_sum_assignment(sub)
                completion = float(sub[rr, cc].sum())
            else:
                completion = 0.0
            if prefix + c[i, j] + completion <= best + tol:
                perm.append(j)
                remaining.remove(j)
                prefix += float(c[i, j])
                break
    return perm


def clustering_accuracy(preds, labels, num_clusters: int) -> float:
    """Best-match accuracy of cluster assignments against labels.

    Builds the contingency table, pads it square, and maximizes matched
    counts via hungarian_match on the negated table."""
    p = np.asarray(preds, dtype=np.int64).reshape(-1)
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    if p.size != y.size:
        raise ValueError(f"{p.size} predictions vs {y.size} labels")
    if p.size == 0:
        raise ValueError("empty prediction set")
    if p.min() < 0 or p.max() >= num_clusters:
        raise ValueError(f"cluster ids must lie in [0, {num_clusters})")
    uniq = np.unique(y)
    m = max(num_clusters, uniq.size)
    cont = np.zeros((m, m))
    col = {int(v): i for i, v in enumerate(uniq)}
    for pi, yi in zip(p, y):
        cont[pi, col[int(yi)]] += 1.0
    perm = hungarian_match(-cont)
    matched = np.sum([cont[i, perm[i]] for i in range(m)])
    return float(matched / p.size)


def aa_af(perf: np.ndarray, phase: int) -> tuple[float, float]:
    """Average accuracy and forgetting after the given 1-based phase.

    aa = mean of row `phase` entries up to the diagonal; af = mean drop of
    earlier tasks from their just-trained accuracy, 0.0 for the first phase."""
    m = np.asarray(perf, dtype=np.float64)
    i = phase
    if i < 1 or i > m.shape[0]:
        raise ValueError(f"phase {phase} out of range for {m.shape[0]} stages")
    aa = float(np.mean(m[i - 1, :i]))
    if i == 1:
        return aa, 0.0
    drops = [m[i - 1, j] - m[j, j] for j in range(i - 1)]
    return aa, float(np.mean(drops))


def joint_predictions(state, g: Graph, normalize_features: bool = False) -> np.ndarray:
    """Argmax over every joint logit for every node. No split metadata enters.

    In phase 1 the joint head does not exist yet and the old head stands in,
    so predictions live in old-slot space only."""
    head = state.joint_head if state.joint_head is not None else state.old_head
    z = encode(state.encoder, operator_for(state.backbone, g),
               ad.constant(input_features(g, normalize_features)))
    logits = head_forward(head, z).data
    return np.argmax(logits, axis=1)


def _align_novel_slots(pred_idx: np.ndarray, g: Graph, split: ClassSplit,
                       mode: str) -> dict[int, int]:
    """Map novel slot -> new class id.

    positional: slot j is new_classes[j]. hungarian: best match between
    slots and true new classes on the new-class test contingency, computed
    after prediction so it never feeds back into the model."""
    n_old = len(split.old_classes)
    n_new = len(split.new_classes)
    if mode == "positional":
        return {s: split.new_classes[s] for s in range(n_new)}
    if mode != "hungarian":
        raise ValueError(f"unknown novel alignment {mode!r}")
    cont = np.zeros((n_new, n_new))
    col = {c: i for i, c in enumerate(split.new_classes)}
    for node in split.p2_test:
        slot = pred_idx[node] - n_old
        if 0 <= slot < n_new:
            cont[slot, col[int(g.labels[node])]] += 1.0
    perm = hungarian_match(-cont)
    return {s: split.new_classes[perm[s]] for s in range(n_new)}


def evaluate_joint(state, g: Graph, split: ClassSplit,
                   novel_alignment: str = "hungarian",
                   normalize_features: bool = False) -> MetricsReport:
    """Task-agnostic accuracy over old, new, and pooled test nodes.

    One argmax over the full joint logit row decides each node; a new-class
    node predicted as any old class counts as wrong. Predicted old slots map
    to old class ids by position; novel slots map per novel_alignment."""
    pred_idx = joint_predictions(state, g, normalize_features)
    n_old = len(split.old_classes)
    slot_map = {i: c for i, c in enumerate(split.old_classes)}
    if state.joint_head is not None:
        slot_map.update({n_old + s: c for s, c in
                         _align_novel_slots(pred_idx, g, split, novel_alignment).items()})
    pred_class = np.array([slot_map[int(i)] for i in pred_idx], dtype=np.int64)

    def acc(nodes: list[int]) -> float:
        ids = np.asarray(nodes, dtype=np.int64)
        if ids.size == 0:
            return 0.0
        return float(np.mean(pred_class[ids] == g.labels[ids]))

    order = list(split.old_classes) + list(split.new_classes)
    pos = {c: i for i, c in enumerate(order)}
    confusion = np.zeros((len(order), len(order)), dtype=np.int64)
    for node in split.all_test:
        confusion[pos[int(g.labels[node])], pos[int(pred_class[node])]] += 1

    return MetricsReport(
        old_acc=acc(split.p1_test),
        new_acc=acc(split.p2_test),
        all_acc=acc(split.all_test),
        confusion=confusion,
        class_order=order,
        phase=2 if state.joint_head is not None else 1,
    )


def write_confusion_csv(path: str, confusion: np.ndarray, class_order: list[int]) -> None:
    """Header row of class ids, then one count row per true class."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("true\\pred," + ",".join(str(c) for c in class_order) + "\n")
        for cid, row in zip(class_order, confusion):
            fh.write(str(cid) + "," + ",".join(str(int(x)) for x in row) + "\n")


def read_confusion_csv(path: str) -> tuple[np.ndarray, list[int]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    order = [int(tok) for tok in lines[0].split(",")[1:]]
    rows = [[int(tok) for tok in ln.split(",")[1:]] for ln in lines[1:]]
    return np.array(rows, dtype=np.int64), order


def write_perf_csv(path: str, perf: np.ndarray) -> None:
    """Lower-triangular stage matrix; undefined upper entries stay empty."""
    with open(path, "w", encoding="utf-8") as fh:
        n = perf.shape[0]
        fh.write("stage," + ",".join(f"task{j + 1}" for j in range(n)) + "\n")
        for i in range(n):
            cells = ["" if j > i else repr(float(perf[i, j])) for j in range(n)]
            fh.write(f"{i + 1}," + ",".join(cells) + "\n")


def read_perf_csv(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    n = len(lines) - 1
    out = np.full((n, n), np.nan)
    for i, ln in enumerate(lines[1:]):
        for j, tok in enumerate(ln.split(",")[1:]):
            if tok:
                out[i, j] = float(tok)
    return out
