"""Span recorder and the hooks that time graphncd from outside.

A hook replaces a function where its caller looks it up (for example
``graphncd.training.pairwise_bce`` or ``graphncd.cli.sbm_generate``) with a
wrapper that opens a span, calls through and closes the span. The wrapped
function gets the same arguments and returns the same object, so a hooked
run writes the same bytes as a plain one.

Two hook sets exist:

* ``install_stage_hooks``: the stage spans (``cli.cmd_*``), the dataset and
  split resolution that make up ``setup_s``, and ``optim.adam_step``, whose
  returns mark epoch boundaries. Timed runs install only these.
* ``install_trace_hooks``: the stage hooks plus one span per library call at
  every module boundary, a span around the vjp of every tensor created inside
  spmm, matmul and the phase-2 loss functions, and the counters the per-layer
  table needs.
"""
from __future__ import annotations

import functools
import os
import time

# spans whose tensors get their vjp timed as "<name>.bwd"
_BWD_OWNERS = ("autodiff.spmm", "autodiff.matmul",
               "ncd_losses.pairwise_similarity", "ncd_losses.pairwise_bce")

_LOSS_FUNCS = ("pairwise_similarity", "topk_pseudo_pairs", "pairwise_bce",
               "self_training_loss", "perturb_representations",
               "perturb_consistency_loss", "sample_prototype_batch",
               "replay_loss", "distill_loss")

_STAGES = {"cmd_pretrain": "pretrain", "cmd_ncd": "ncd", "cmd_eval": "eval"}


class Recorder:
    """In-memory spans (name, start, end, parent) plus counters.

    Spans are indexed in opening order; a parent of -1 marks a root.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.stage: str | None = None
        self.stage_codes: dict[str, object] = {}
        self.counters: dict[str, float] = {}
        self.owner: dict[int, int] = {}   # bwd span -> span that made the tensor

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(float("nan"))
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        top = self.stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.names[idx]} closed out of order")

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def duration(self, idx: int) -> float:
        return self.ends[idx] - self.starts[idx]

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [self.duration(i) for i in range(len(self.names))]
        for i, p in enumerate(self.parents):
            if p >= 0:
                out[p] -= self.duration(i)
        return out

    def ancestors(self, idx: int):
        p = self.parents[idx]
        while p >= 0:
            yield p
            p = self.parents[p]

    def spans(self, name: str) -> list[int]:
        return [i for i, n in enumerate(self.names) if n == name]


class Hooks:
    """Installed wrappers; ``remove`` puts the original functions back."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str, after=None) -> None:
        orig = getattr(module, attr)
        rec = self.rec

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = rec.open(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                rec.close(idx)
            if after is not None:
                after(out, *args, **kwargs)
            return out

        self._saved.append((module, attr, orig))
        setattr(module, attr, wrapper)

    def replace(self, module, attr: str, make) -> None:
        """Install ``make(orig)`` in place of ``module.attr``."""
        orig = getattr(module, attr)
        self._saved.append((module, attr, orig))
        setattr(module, attr, make(orig))

    def remove(self) -> None:
        for module, attr, orig in reversed(self._saved):
            setattr(module, attr, orig)
        self._saved.clear()


def _stage_wrapper(rec: Recorder, stage: str):
    def make(orig):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            rec.stage = stage
            idx = rec.open(f"cli.cmd_{stage}")
            try:
                code = orig(*args, **kwargs)
            except BaseException as exc:
                rec.stage_codes[stage] = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                rec.close(idx)
            rec.stage_codes[stage] = code
            return code
        return wrapper
    return make


def install_stage_hooks(rec: Recorder) -> Hooks:
    from graphncd import cli, training

    hooks = Hooks(rec)
    for attr, stage in _STAGES.items():
        hooks.replace(cli, attr, _stage_wrapper(rec, stage))
    hooks.wrap(cli, "resolve_dataset", "cli.resolve_dataset")
    hooks.wrap(cli, "resolve_split", "cli.resolve_split")
    hooks.wrap(training, "adam_step", "optim.adam_step")
    return hooks


def _tape_size(loss) -> tuple[int, int]:
    """Nodes and value bytes on the reverse-mode tape reachable from loss."""
    seen: set[int] = set()
    stack = [loss]
    nbytes = 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nbytes += node.data.nbytes
        stack.extend(p for p in node._parents if p.requires_grad)
    return len(seen), nbytes


def install_trace_hooks(rec: Recorder) -> Hooks:
    from graphncd import autodiff, cli, metrics, training

    hooks = install_stage_hooks(rec)
    wrap = hooks.wrap

    def count_flops(out, m, x):
        rec.count("spmm.flops", 2.0 * m.mat.nnz * x.shape[1])

    def count_pairs(out, z, k):
        rec.count("pairs", out.size)
        rec.count("pairs.positive", float(out.sum()))
        rec.count("pairs.calls")

    def count_bytes(out, path, *args, **kwargs):
        rec.count("checkpoint.bytes_written", os.path.getsize(path))

    wrap(autodiff, "spmm", "autodiff.spmm", after=count_flops)
    wrap(autodiff, "matmul", "autodiff.matmul")
    for mod in (cli, training, metrics):
        wrap(mod, "encode", "models.encode")
        wrap(mod, "operator_for", "graph.operator_for")
    for mod in (training, metrics):
        wrap(mod, "head_forward", "models.head_forward")
    for mod in (cli, training):
        wrap(mod, "evaluate_joint", "metrics.evaluate_joint")
        wrap(mod, "save_checkpoint", "checkpoint.save_checkpoint",
             after=count_bytes)
    wrap(training, "load_checkpoint", "checkpoint.load_checkpoint")
    for attr in ("sbm_generate", "load_graph", "canonical_texts",
                 "split_classes", "validate_split"):
        wrap(cli, attr, f"graph.{attr}")
    wrap(cli, "_sha256_bytes", "cli.sha256")
    wrap(cli, "pretrain", "training.pretrain")
    wrap(cli, "ncd_train", "training.ncd_train")
    for attr in _LOSS_FUNCS:
        wrap(training, attr, f"ncd_losses.{attr}",
             after=count_pairs if attr == "topk_pseudo_pairs" else None)

    def count_tape(out, loss, *args):
        if rec.stage == "ncd":
            nodes, nbytes = _tape_size(loss)
            rec.count("tape.nodes", nodes)
            rec.count("tape.bytes", nbytes)
            rec.count("tape.sweeps")

    wrap(training, "backward", "autodiff.backward", after=count_tape)

    def timed_vjp(vjp, owner: int):
        name = rec.names[owner] + ".bwd"

        def run(g):
            idx = rec.open(name)
            rec.owner[idx] = owner
            try:
                return vjp(g)
            finally:
                rec.close(idx)
        return run

    def make_make(orig):
        def _make(data, parents, vjp):
            out = orig(data, parents, vjp)
            if out._vjp is not None and rec.stack:
                owner = rec.stack[-1]
                if rec.names[owner] in _BWD_OWNERS:
                    out._vjp = timed_vjp(out._vjp, owner)
            return out
        return _make

    hooks.replace(autodiff, "_make", make_make)
    return hooks


def epoch_intervals_ms(rec: Recorder) -> dict[str, list[float]]:
    """Milliseconds between successive adam_step returns, per stage."""
    out: dict[str, list[float]] = {}
    for stage in ("pretrain", "ncd"):
        root = rec.spans(f"cli.cmd_{stage}")
        ends = [rec.ends[i] for i in rec.spans("optim.adam_step")
                if any(a in root for a in rec.ancestors(i))]
        out[stage] = [1e3 * (b - a) for a, b in zip(ends, ends[1:])]
    return out


def setup_seconds(rec: Recorder) -> float:
    return sum(rec.duration(i) for i in range(len(rec.names))
               if rec.names[i] in ("cli.resolve_dataset", "cli.resolve_split"))


def layer_table(rec: Recorder) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    ``.s`` is self time summed over the run, ``.calls`` a call count,
    ``.bwd_s`` time inside the vjp closures of tensors the span created.
    """
    per_self = rec.self_times()
    selfs: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, name in enumerate(rec.names):
        selfs[name] = selfs.get(name, 0.0) + per_self[i]
        calls[name] = calls.get(name, 0) + 1

    def s(name: str) -> float:
        return selfs.get(name, 0.0)

    def n(name: str) -> int:
        return calls.get(name, 0)

    def inside(name: str, ancestor: str) -> list[int]:
        return [i for i in rec.spans(name)
                if any(rec.names[a] == ancestor for a in rec.ancestors(i))]

    dataset_sha = sum(per_self[i] for i in rec.spans("cli.sha256")
                      if rec.names[rec.parents[i]] == "cli.resolve_dataset")
    pretrain_epochs = len(inside("optim.adam_step", "training.pretrain"))
    sweeps = rec.counters.get("tape.sweeps", 0.0)
    pair_calls = rec.counters.get("pairs.calls", 0.0)
    stage_walls = {st: sum(rec.duration(i) for i in rec.spans(f"cli.cmd_{st}"))
                   for st in _STAGES.values()}

    t = {
        "graph.dataset.s": s("graph.sbm_generate") + s("graph.load_graph"),
        "graph.sbm_generate.calls": n("graph.sbm_generate"),
        "graph.load_graph.calls": n("graph.load_graph"),
        "graph.dataset_hash.s": s("graph.canonical_texts") + dataset_sha,
        "graph.split.s": s("graph.split_classes") + s("graph.validate_split"),
        "graph.operator_for.s": s("graph.operator_for"),
        "graph.operator_for.calls": n("graph.operator_for"),
        "models.encode.s": s("models.encode"),
        "models.encode.calls": n("models.encode"),
        "models.encode.calls_per_pretrain_epoch":
            len(inside("models.encode", "training.pretrain")) / max(1, pretrain_epochs),
        "models.head_forward.s": s("models.head_forward"),
        "autodiff.spmm.s": s("autodiff.spmm"),
        "autodiff.spmm.bwd_s": s("autodiff.spmm.bwd"),
        "autodiff.spmm.calls": n("autodiff.spmm"),
        "autodiff.spmm.flops": rec.counters.get("spmm.flops", 0.0),
        "autodiff.matmul.s": s("autodiff.matmul"),
        "autodiff.matmul.bwd_s": s("autodiff.matmul.bwd"),
        "autodiff.matmul.calls": n("autodiff.matmul"),
        "autodiff.backward.s": s("autodiff.backward"),
        "autodiff.tape_nodes_per_epoch":
            rec.counters.get("tape.nodes", 0.0) / max(1.0, sweeps),
        "autodiff.tape_bytes_per_epoch":
            rec.counters.get("tape.bytes", 0.0) / max(1.0, sweeps),
    }
    for fn in _LOSS_FUNCS:
        t[f"ncd_losses.{fn}.s"] = s(f"ncd_losses.{fn}")
    t["ncd_losses.pairwise.bwd_s"] = (s("ncd_losses.pairwise_similarity.bwd")
                                      + s("ncd_losses.pairwise_bce.bwd"))
    t["ncd_losses.pairs_per_epoch"] = rec.counters.get("pairs", 0.0) / max(1.0, pair_calls)
    t["ncd_losses.pair_positive_rate"] = (rec.counters.get("pairs.positive", 0.0)
                                          / max(1.0, rec.counters.get("pairs", 0.0)))
    t.update({
        "optim.adam_step.s": s("optim.adam_step"),
        "optim.adam_step.calls": n("optim.adam_step"),
        "training.pretrain.s": s("training.pretrain"),
        "training.ncd_train.s": s("training.ncd_train"),
        "metrics.evaluate_joint.s": s("metrics.evaluate_joint"),
        "metrics.evaluate_joint.calls": n("metrics.evaluate_joint"),
        "checkpoint.save_checkpoint.s": s("checkpoint.save_checkpoint"),
        "checkpoint.load_checkpoint.s": s("checkpoint.load_checkpoint"),
        "checkpoint.bytes_written": rec.counters.get("checkpoint.bytes_written", 0.0),
        "cli.cmd_pretrain.wall_s": stage_walls["pretrain"],
        "cli.cmd_ncd.wall_s": stage_walls["ncd"],
        "cli.cmd_eval.wall_s": stage_walls["eval"],
        "cli.self_s": sum(s(f"cli.cmd_{st}") for st in _STAGES.values()),
        "cli.resolve_dataset.calls": n("cli.resolve_dataset"),
    })
    t.update(phase2_shares(rec, per_self))
    return t


def phase2_shares(rec: Recorder, per_self: list[float]) -> dict[str, float]:
    """Shares of the ncd_train wall spent in the pairwise chain and in spmm.

    The pairwise chain is every span inside pairwise_similarity,
    topk_pseudo_pairs or pairwise_bce plus the vjp of every tensor they
    created; spmm is its forward spans plus their vjps.
    """
    pairwise = {"ncd_losses.pairwise_similarity", "ncd_losses.topk_pseudo_pairs",
                "ncd_losses.pairwise_bce"}
    wall = sum(rec.duration(i) for i in rec.spans("training.ncd_train"))
    pair_s = spmm_s = 0.0
    for i, name in enumerate(rec.names):
        chain = [i] + list(rec.ancestors(i))
        if not any(rec.names[a] == "training.ncd_train" for a in chain):
            continue
        owner = rec.owner.get(i)
        lineage = chain + ([owner] + list(rec.ancestors(owner)) if owner is not None else [])
        names = {rec.names[a] for a in lineage}
        if names & pairwise:
            pair_s += per_self[i]
        if name in ("autodiff.spmm", "autodiff.spmm.bwd"):
            spmm_s += per_self[i]
    return {"phase2.pairwise_share": pair_s / wall if wall else 0.0,
            "phase2.spmm_share": spmm_s / wall if wall else 0.0}
