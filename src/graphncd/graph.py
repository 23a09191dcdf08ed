"""Graph containers, text/JSON IO, adjacency preprocessing, splits, SBM data.

File formats (each read by read_text and cut into lines by numbered_lines,
where '#' starts a comment and blank lines are skipped):
  edges     one "u v" pair per line, whitespace separated
  features  one row of floats per node, whitespace separated
  labels    one integer per node
  split     JSON with old/new class lists and the six node-id masks

Edges are undirected; in memory both directions are stored exactly once each.
"""
from __future__ import annotations

import json
import os
from collections.abc import Iterator
from dataclasses import dataclass, field, fields

import numpy as np
import scipy.sparse as sp

from .autodiff import SparseMatrix

# candidate pairs per row block of the SBM sampler: bounds its temporaries
SBM_BLOCK_PAIRS = 2 ** 20
# rows per %-format call when writing integer text
TEXT_CHUNK = 4096


class GraphParseError(ValueError):
    """Malformed text input; message carries file path and line number."""


class GraphValidationError(ValueError):
    """Structurally invalid graph (dangling ids, self loops, NaN features...)."""


def fits_int64(v: int) -> bool:
    return -2 ** 63 <= v < 2 ** 63


def _int64(text: str) -> int:
    v = int(text)
    if not fits_int64(v):
        raise ValueError(f"{text} does not fit a 64-bit integer")
    return v


@dataclass(frozen=True)
class Graph:
    """Undirected featured labeled graph. Treated as immutable once built."""

    num_nodes: int
    edges: np.ndarray      # (2E, 2) int64, both directions present exactly once
    features: np.ndarray   # (N, d) float64
    labels: np.ndarray     # (N,) int64

    @property
    def feat_dim(self) -> int:
        return self.features.shape[1]

    def num_undirected_edges(self) -> int:
        return self.edges.shape[0] // 2


def _canonical_edges(pairs: np.ndarray, num_nodes: int) -> np.ndarray:
    """Validate endpoints, drop duplicates, return both directions sorted."""
    if pairs.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    if pairs.min() < 0 or pairs.max() >= num_nodes:
        bad = pairs[(pairs < 0) | (pairs >= num_nodes)][0]
        raise GraphValidationError(f"edge endpoint {bad} out of range for {num_nodes} nodes")
    if np.any(pairs[:, 0] == pairs[:, 1]):
        u = pairs[pairs[:, 0] == pairs[:, 1]][0, 0]
        raise GraphValidationError(f"self loop on node {u} is not allowed")
    # one int64 key per edge, lo * n + hi; key order is (first, second) order
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    # dedupe by sort + adjacent difference: np.unique hashes int64, ~20x slower
    key = np.sort(lo * num_nodes + hi)
    key = key[np.concatenate(([True], key[1:] != key[:-1]))]
    lo, hi = np.divmod(key, num_nodes)
    both = np.sort(np.concatenate([key, hi * num_nodes + lo]))
    return np.stack(np.divmod(both, num_nodes), axis=1)


def build_graph(num_nodes: int, edge_pairs, features, labels) -> Graph:
    """Assemble and validate a Graph from raw arrays."""
    feats = np.asarray(features, dtype=np.float64)
    labs = np.asarray(labels, dtype=np.int64).reshape(-1)
    if feats.ndim != 2 or feats.shape[0] != num_nodes:
        raise GraphValidationError(f"features must be ({num_nodes}, d), got {feats.shape}")
    if not np.all(np.isfinite(feats)):
        raise GraphValidationError("features contain NaN or Inf")
    if labs.size != num_nodes:
        raise GraphValidationError(f"expected {num_nodes} labels, got {labs.size}")
    if labs.size and labs.min() < 0:
        raise GraphValidationError("labels must be non-negative")
    pairs = np.asarray(edge_pairs, dtype=np.int64).reshape(-1, 2)
    return Graph(num_nodes=num_nodes, edges=_canonical_edges(pairs, num_nodes),
                 features=feats, labels=labs)


def read_text(path: str, error: type[Exception] = GraphParseError) -> str:
    """The text of the regular file at ``path``, the one reader of every text
    input: anything else at ``path`` is FileNotFoundError, text that is not
    UTF-8 is ``error``, and other OSErrors propagate as ``open`` raised them."""
    if not os.path.isfile(path):
        raise FileNotFoundError(f"{path}: no such regular file")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from exc


def numbered_lines(text: str) -> Iterator[tuple[int, str]]:
    """Non-empty, non-comment lines with their 1-based line numbers: '#'
    starts a comment, and lines break where ``str.splitlines`` breaks them.

    Yielded one at a time, as load_graph keeps no (line, body) pair: tens of
    thousands of surviving tuples would set off a full garbage collection."""
    for i, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if body:
            yield i, body


def _table(path: str, parse, width: int | None) -> tuple[list, int | None]:
    """Every token of a whitespace-separated table file, read by ``parse``,
    in one flat list (no list per line), and the width: ``width`` tokens per
    line, or as many as the first line holds when it is None."""
    flat = []
    add = flat.append  # per token: faster than extending by a map or a list
    for lineno, body in numbered_lines(read_text(path)):
        toks = body.split()
        if len(toks) != width:
            if width is not None:
                raise GraphParseError(
                    f"{path}: line {lineno}: expected {width} values, got {len(toks)}")
            width = len(toks)
        try:
            for tok in toks:
                add(parse(tok))
        except ValueError as exc:
            raise GraphParseError(f"{path}: line {lineno}: {exc}") from exc
    return flat, width


def load_graph(edges_path: str, features_path: str, labels_path: str) -> Graph:
    feats, width = _table(features_path, float, None)
    if not feats:
        raise GraphParseError(f"{features_path}: no feature rows")
    labels, _ = _table(labels_path, _int64, 1)
    ends, _ = _table(edges_path, _int64, 2)  # flat u, v, u, v, ...
    n = len(feats) // width
    if len(labels) != n:
        raise GraphValidationError(
            f"{labels_path}: {len(labels)} labels for {n} feature rows")
    return build_graph(n, ends, np.array(feats).reshape(n, width), labels)


def canonical_texts(g: Graph) -> tuple[str, str, str]:
    """Canonical (edges, features, labels) text: each undirected edge once
    as 'u v' with u < v, features as repr floats so round-trips are exact."""
    und = g.edges[g.edges[:, 0] < g.edges[:, 1]]
    feats = "".join(" ".join(map(repr, row)) + "\n" for row in g.features.tolist())
    return _int_lines(und), feats, _int_lines(g.labels.reshape(-1, 1))


def _int_lines(rows: np.ndarray) -> str:
    """One line of space-separated integers per row, TEXT_CHUNK rows per format."""
    line = " ".join(["%d"] * rows.shape[1]) + "\n"
    out = []
    for a in range(0, len(rows), TEXT_CHUNK):
        chunk = rows[a:a + TEXT_CHUNK]
        out.append((line * len(chunk)) % tuple(chunk.ravel().tolist()))
    return "".join(out)


def write_atomic(path: str, data: bytes) -> None:
    """Write a temporary file beside ``path``, then rename it over ``path``:
    a write that dies partway leaves neither a file that looks complete nor
    the temporary file."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.isfile(tmp):
            os.remove(tmp)
        raise


def save_graph(g: Graph, edges_path: str, features_path: str, labels_path: str) -> None:
    texts = canonical_texts(g)
    for path, text in zip((edges_path, features_path, labels_path), texts):
        write_atomic(path, text.encode("utf-8"))


def normalize_rows(x: np.ndarray) -> np.ndarray:
    """Row L2 normalization; zero rows stay zero."""
    norms = np.sqrt((x * x).sum(axis=1, keepdims=True))
    return x / np.where(norms > 0.0, norms, 1.0)


def input_features(g: Graph, normalize: bool) -> np.ndarray:
    """The encoder input: the node features, row-normalized when asked."""
    return normalize_rows(g.features) if normalize else g.features


def normalize_adjacency(g: Graph) -> SparseMatrix:
    """Symmetric GCN operator D^{-1/2} (A + I) D^{-1/2}.

    Entries are built as w / sqrt(d_i * d_j), so symmetric positions are
    bitwise equal by construction, and spmm's backward through the
    transpose is bitwise the product with the operator itself.
    """
    n = g.num_nodes
    rows = np.concatenate([g.edges[:, 0], np.arange(n)])
    cols = np.concatenate([g.edges[:, 1], np.arange(n)])
    deg = np.bincount(rows, minlength=n).astype(np.float64)  # includes self loop
    vals = 1.0 / np.sqrt(deg[rows] * deg[cols])
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    return SparseMatrix(mat)


def mean_adjacency(g: Graph) -> SparseMatrix:
    """Row-stochastic neighbor mean, self excluded; isolated rows stay all-zero."""
    n = g.num_nodes
    rows, cols = g.edges[:, 0], g.edges[:, 1]
    deg = np.bincount(rows, minlength=n).astype(np.float64)
    safe = np.where(deg > 0.0, deg, 1.0)
    vals = 1.0 / safe[rows]
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    return SparseMatrix(mat)


def operator_for(backbone: str, g: Graph) -> SparseMatrix:
    """Message-passing operator matching the backbone's aggregation rule."""
    if backbone == "gcn":
        return normalize_adjacency(g)
    if backbone == "sage":
        return mean_adjacency(g)
    raise ValueError(f"unknown backbone {backbone!r}")


@dataclass
class ClassSplit:
    """Old/new class lists plus the node-id masks for both training phases."""

    old_classes: list[int]
    new_classes: list[int]
    p1_train: list[int] = field(default_factory=list)
    p1_val: list[int] = field(default_factory=list)
    p1_test: list[int] = field(default_factory=list)
    p2_train: list[int] = field(default_factory=list)
    p2_val: list[int] = field(default_factory=list)
    p2_test: list[int] = field(default_factory=list)
    all_test: list[int] = field(default_factory=list)

    def to_json(self) -> str:
        payload = {f.name: [int(x) for x in getattr(self, f.name)] for f in fields(self)}
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ClassSplit":
        """Every field as a JSON list of 64-bit integers, else GraphParseError."""
        try:
            raw = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise GraphParseError(f"a split must be JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise GraphParseError("a split must be a JSON object")
        for f in fields(cls):
            ids = raw.get(f.name)
            if not (isinstance(ids, list)
                    and all(type(x) is int and fits_int64(x) for x in ids)):
                raise GraphParseError(
                    f"split key {f.name!r} must be a list of 64-bit integers")
        return cls(**{f.name: raw[f.name] for f in fields(cls)})

    def save(self, path: str) -> None:
        write_atomic(path, (self.to_json() + "\n").encode("utf-8"))

    @classmethod
    def load(cls, path: str) -> "ClassSplit":
        text = read_text(path)
        try:
            return cls.from_json(text)
        except GraphParseError as exc:
            raise GraphParseError(f"{path}: {exc}") from exc


def validate_split(g: Graph, split: ClassSplit) -> None:
    """Check the split is consistent with the graph's label set and that
    both training phases can run on it."""
    old, new = set(split.old_classes), set(split.new_classes)
    if old & new:
        raise GraphValidationError(f"classes in both old and new: {sorted(old & new)}")
    present = set(int(c) for c in np.unique(g.labels))
    if not present <= (old | new):
        raise GraphValidationError(
            f"labels {sorted(present - old - new)} missing from old/new lists")
    # what training needs: a loss and a validation set in phase 1, and nodes
    # to discover on in phase 2
    for name in ("p1_train", "p1_val", "p2_train"):
        if not getattr(split, name):
            raise GraphValidationError(f"{name} is empty")
    phase1 = split.p1_train + split.p1_val + split.p1_test
    phase2 = split.p2_train + split.p2_val + split.p2_test
    for name, ids, classes in (("phase-1", phase1, old), ("phase-2", phase2, new)):
        arr = np.asarray(ids, dtype=np.int64)
        if arr.min() < 0 or arr.max() >= g.num_nodes:
            raise GraphValidationError(f"{name} mask has out-of-range node id")
        if len(set(ids)) != len(ids):
            raise GraphValidationError(f"{name} masks overlap")
        bad = set(int(c) for c in np.unique(g.labels[arr])) - classes
        if bad:
            raise GraphValidationError(f"{name} mask contains classes {sorted(bad)}")
    if sorted(split.all_test) != sorted(split.p1_test + split.p2_test):
        raise GraphValidationError("all_test must be the union of p1_test and p2_test")
    # and a prototype for every old class
    unseen = old - set(int(c) for c in g.labels[split.p1_train])
    if unseen:
        raise GraphValidationError(f"old classes {sorted(unseen)} have no p1_train node")


def _allocate(n: int, ratios: tuple[float, float, float]) -> tuple[int, int, int]:
    """Floor allocation with remainder repair; every bucket non-empty for n >= 3."""
    n_train = int(np.floor(ratios[0] * n))
    n_val = int(np.floor(ratios[1] * n))
    n_test = n - n_train - n_val
    counts = [n_train, n_val, n_test]
    for i in range(3):
        while counts[i] == 0:
            j = int(np.argmax(counts))
            counts[j] -= 1
            counts[i] += 1
    return counts[0], counts[1], counts[2]


def check_split_ratios(ratios) -> None:
    """ValueError unless there are three positive ratios that sum to 1."""
    if len(ratios) != 3:
        raise ValueError(f"split_ratios needs 3 entries, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"split ratios must sum to 1, got {ratios}")
    if not all(r > 0.0 for r in ratios):
        raise ValueError(f"split ratios must be positive, got {ratios}")


def split_classes(g: Graph, old_classes: list[int], new_classes: list[int],
                  ratios: tuple[float, float, float] = (0.6, 0.2, 0.2),
                  seed: int = 0) -> ClassSplit:
    """Stratified per-class shuffle into train/val/test for both phases,
    checked by validate_split."""
    check_split_ratios(ratios)
    old = [int(c) for c in old_classes]
    new = [int(c) for c in new_classes]
    rng = np.random.default_rng(seed)
    split = ClassSplit(old_classes=old, new_classes=new)
    for classes, buckets in ((old, ("p1_train", "p1_val", "p1_test")),
                             (new, ("p2_train", "p2_val", "p2_test"))):
        for c in classes:
            ids = np.flatnonzero(g.labels == c)
            if ids.size < 3:
                raise GraphValidationError(f"class {c} has {ids.size} nodes, needs >= 3")
            perm = rng.permutation(ids)
            n_tr, n_va, _ = _allocate(ids.size, ratios)
            getattr(split, buckets[0]).extend(int(x) for x in perm[:n_tr])
            getattr(split, buckets[1]).extend(int(x) for x in perm[n_tr:n_tr + n_va])
            getattr(split, buckets[2]).extend(int(x) for x in perm[n_tr + n_va:])
    for k in ("p1_train", "p1_val", "p1_test", "p2_train", "p2_val", "p2_test"):
        getattr(split, k).sort()
    split.all_test = sorted(split.p1_test + split.p2_test)
    validate_split(g, split)
    return split


def sbm_generate(blocks: list[int], p_in: float, p_out: float,
                 feat_dim: int, feat_shift: float, seed: int = 0) -> Graph:
    """Stochastic block model with Gaussian features.

    Node labels are block indices. Each pair inside a block is an edge with
    probability p_in, across blocks p_out. Features are unit-variance
    Gaussians around a per-class mean of norm feat_shift; mean directions
    are orthonormal (seeded QR), so classes are separated across all axes
    rather than along single coordinates.

    Candidate pairs are drawn in row blocks of the upper triangle, at most
    SBM_BLOCK_PAIRS per block, one uniform per pair in row-major order.
    ``Generator.random`` yields the same stream drawn at once or in chunks,
    so the graph does not depend on the block size and memory stays
    O(SBM_BLOCK_PAIRS + edges).
    """
    if not 0.0 <= p_in <= 1.0 or not 0.0 <= p_out <= 1.0:
        raise ValueError("edge probabilities must lie in [0, 1]")
    if min(blocks) <= 0:
        raise ValueError("every block needs at least one node")
    n = int(np.sum(blocks))
    k = len(blocks)
    labels = np.repeat(np.arange(k, dtype=np.int64), blocks)
    rng = np.random.default_rng(seed)

    end = np.repeat(np.cumsum(blocks), blocks)  # one past each node's block
    step = max(1, SBM_BLOCK_PAIRS // n)
    parts = []
    for a in range(0, n, step):
        r = np.arange(a, min(a + step, n))
        # row i's candidates j > i: the rest of its block (p_in), then the
        # later blocks (p_out)
        counts = np.stack([end[r] - r - 1, n - end[r]], axis=1).ravel()
        thresh = np.repeat(np.tile([p_in, p_out], r.size), counts)
        hit = np.flatnonzero(rng.random(thresh.size) < thresh)
        width = n - 1 - r
        start = np.cumsum(width) - width  # each row's first candidate
        row = np.searchsorted(start, hit, side="right") - 1
        parts.append(np.stack([r[row], hit - start[row] + r[row] + 1], axis=1))
    pairs = np.concatenate(parts)

    # orthonormal mean directions; extra classes beyond feat_dim fall back
    # to normalized Gaussian draws
    raw = rng.standard_normal((feat_dim, min(k, feat_dim)))
    q, _ = np.linalg.qr(raw)
    dirs = q.T
    if k > feat_dim:
        extra = rng.standard_normal((k - feat_dim, feat_dim))
        extra /= np.sqrt((extra * extra).sum(axis=1, keepdims=True))
        dirs = np.vstack([dirs, extra])
    means = feat_shift * dirs[:k]
    feats = means[labels] + rng.standard_normal((n, feat_dim))
    return build_graph(n, pairs, feats, labels)
