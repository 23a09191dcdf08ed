"""Joint evaluation, novel-slot matching, and stage-wise retention metrics."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, constant
from .graph import ClassSplit, Graph, input_features, operator_for
from .models import EncoderInput, encode, freeze_encoder, head_forward


@dataclass(frozen=True)
class MetricsReport:
    """One stage's evaluation, complete when built: nothing edits it after."""
    old_acc: float
    new_acc: float
    all_acc: float
    confusion: np.ndarray            # rows true class, cols predicted class
    class_order: list[int]           # class ids indexing the confusion matrix
    perf: np.ndarray | None = None   # lower-triangular stage matrix, NaN above
    aa: float | None = None
    af: float | None = None
    phase: int = 1

    def to_dict(self) -> dict:
        return {"old_acc": self.old_acc, "new_acc": self.new_acc,
                "all_acc": self.all_acc, "aa": self.aa, "af": self.af,
                "phase": self.phase}


def _assignment_cost(c: list[list[float]]) -> float:
    """Optimal value of the square assignment problem on the rows of c.

    Hungarian method by shortest augmenting paths with row and column
    potentials, O(n^3). Plain lists: numpy's per-call cost dominates at the
    sizes matched here. Index 0 of u, v, match and way is a virtual column.
    Entries near the float64 limit can overflow the potentials; the search
    then stops and returns inf instead of looping."""
    n = len(c)
    if n < 2:
        return c[0][0] if n else 0.0
    inf = float("inf")
    u, v = [0.0] * (n + 1), [0.0] * (n + 1)
    match = [0] * (n + 1)  # match[j]: 1-based row in column j, 0 while free
    cols = range(1, n + 1)
    for i in cols:
        match[0], j0 = i, 0
        minv, way, used = [inf] * (n + 1), [0] * (n + 1), [False] * (n + 1)
        while match[j0]:
            used[j0] = True
            i0 = match[j0]
            row, ui = c[i0 - 1], u[i0]
            delta, j1 = inf, 0
            for j in cols:
                if not used[j]:
                    cur = row[j - 1] - ui - v[j]
                    if cur < minv[j]:
                        minv[j], way[j] = cur, j0
                    if minv[j] < delta:
                        delta, j1 = minv[j], j
            if not j1:  # every reduced cost is inf or NaN
                return inf
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
        while j0:
            match[j0] = match[way[j0]]
            j0 = way[j0]
    return sum((c[match[j] - 1][j - 1] for j in cols), 0.0)


def hungarian_match(cost) -> list[int]:
    """Minimum-cost row-to-column assignment of a square matrix.

    Among all optimal assignments, returns the lexicographically smallest
    permutation (perm[0], perm[1], ...): each row in turn greedily takes the
    smallest column that still allows an optimal completion. ValueError when
    no column does, which entries near the float64 limit can cause."""
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"cost matrix must be square, got {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValueError("cost matrix must be finite")
    rows = c.tolist()
    best = _assignment_cost(rows)
    tol = 1e-9 * max(1.0, abs(best))

    perm: list[int] = []
    remaining = list(range(len(rows)))
    prefix = 0.0
    for i, row in enumerate(rows):
        for j in remaining:  # kept sorted
            rest = [x for x in remaining if x != j]
            completion = _assignment_cost([[r[x] for x in rest] for r in rows[i + 1:]])
            if prefix + row[j] + completion <= best + tol:
                perm.append(j)
                remaining.remove(j)
                prefix += row[j]
                break
        else:  # the sums lost the optimum: entries near the float64 limit
            raise ValueError("cost entries too large to match rows to columns")
    return perm


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
    inp = EncoderInput.build(state.encoder.backbone,
                             operator_for(state.encoder.backbone, g),
                             constant(input_features(g, normalize_features)))
    return _joint_argmax(state, encode(freeze_encoder(state.encoder), inp))


def _joint_argmax(state, z: Tensor) -> np.ndarray:
    """``joint_predictions`` from the encoder's full forward ``z``."""
    head = state.joint_head if state.joint_head is not None else state.old_head
    return np.argmax(head_forward(head, z).data, axis=1)


def _align_novel_slots(pred_idx: np.ndarray, g: Graph,
                       split: ClassSplit) -> dict[int, int]:
    """Map novel slot -> new class id: the Hungarian best match between
    slots and true new classes on the new-class test contingency, computed
    after prediction so it never feeds back into the model."""
    n_old = len(split.old_classes)
    n_new = len(split.new_classes)
    cont = np.zeros((n_new, n_new))
    col = {c: i for i, c in enumerate(split.new_classes)}
    for node in split.p2_test:
        slot = pred_idx[node] - n_old
        if 0 <= slot < n_new:
            cont[slot, col[int(g.labels[node])]] += 1.0
    perm = hungarian_match(-cont)
    return {s: split.new_classes[perm[s]] for s in range(n_new)}


def evaluate_joint(state, g: Graph, split: ClassSplit, z: Tensor, *,
                   phase1_old_acc: float | None = None) -> MetricsReport:
    """Task-agnostic accuracy over old, new, and pooled test nodes, plus the
    stage performance matrix and AA/AF.

    One argmax over the full joint logit row decides each node; a new-class
    node predicted as any old class counts as wrong. Predicted old slots map
    to old class ids by position; novel slots by Hungarian matching. ``z``
    is the encoder's full forward on g. A phase-2 report needs
    ``phase1_old_acc`` for its stage matrix; without it, perf, aa and af
    are None."""
    pred_idx = _joint_argmax(state, z)
    n_old = len(split.old_classes)
    slot_map = {i: c for i, c in enumerate(split.old_classes)}
    if state.joint_head is not None:
        slot_map.update({n_old + s: c for s, c in
                         _align_novel_slots(pred_idx, g, split).items()})
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

    old_acc, new_acc = acc(split.p1_test), acc(split.p2_test)
    if state.phase == 1:
        perf = np.array([[old_acc]])
    elif phase1_old_acc is not None:
        perf = np.array([[phase1_old_acc, np.nan], [old_acc, new_acc]])
    else:
        perf = None
    aa, af = (None, None) if perf is None else aa_af(perf, len(perf))
    return MetricsReport(old_acc=old_acc, new_acc=new_acc, all_acc=acc(split.all_test),
                         confusion=confusion, class_order=order, perf=perf,
                         aa=aa, af=af, phase=state.phase)
