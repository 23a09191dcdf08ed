"""Command line entry points.

Subcommands: gen-data, pretrain, ncd, eval, sweep-depth, run. Every command
takes --config (flat key=value or JSON) plus optional --seed/--out overrides
and writes its artifacts into the output directory.

Exit codes: 0 success, 2 bad input or an I/O failure, 3 stale or missing
phase-1 artifacts, 4 a checkpoint whose backbone or dimensions do not fit the
config, dataset or split, 1 anything else.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import numbers
import os
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import constant
# unused here, but perfbench/spans.py hooks cli.save_checkpoint, so it stays bound
from .checkpoint import CheckpointError, save_checkpoint  # noqa: F401
from .config import (ConfigError, RunConfig, config_hash, config_payload,
                     load_config, phase1_hash)
from .graph import (ClassSplit, Graph, GraphParseError, GraphValidationError,
                    canonical_texts, input_features, load_graph, operator_for,
                    read_text, sbm_generate, split_classes, validate_split,
                    write_atomic)
from .metrics import MetricsReport, evaluate_joint
from .models import EncoderInput, encode, freeze_encoder
from .ncd_losses import LOSS_TERMS, Prototypes
from .training import (SEED_SBM, SEED_SPLIT, TrainingDiverged, derive_seed,
                       load_state, ncd_train, pretrain, run_depth_sweep,
                       save_state)


class StaleArtifacts(Exception):
    """Phase-1 artifacts absent or produced under an incompatible config."""


class DimensionMismatch(Exception):
    """Checkpoint backbone or geometry does not fit the config, dataset or split."""


# typed failures that are not bad input (exit 2); an out-of-memory error exits 1
# too, and anything else is a traceback
_EXIT_CODES = {StaleArtifacts: 3, DimensionMismatch: 4, TrainingDiverged: 1}

PRETRAIN_COLUMNS = ("epoch", "loss", "val_acc")
LOSS_COLUMNS = ("epoch", *LOSS_TERMS, "beta1", "beta2", "total")
SWEEP_COLUMNS = ("layers", "old_acc", "new_acc", "all_acc", "aa", "af")


def _timestamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _sha256_bytes(*blobs) -> str:
    h = hashlib.sha256()
    for b in blobs:
        h.update(b)
    return h.hexdigest()


def resolve_dataset(rc: RunConfig) -> tuple[Graph, str]:
    """Load or generate the graph plus its ``dataset_sha256``: the sha256 of
    its parsed arrays, not of any text. The shapes come first, then edges,
    features and labels, as little-endian int64 (features float64), so text
    that parses to the same graph hashes the same."""
    if rc.dataset == "files":
        g = load_graph(rc.edges, rc.features, rc.labels)
    else:
        g = sbm_generate(rc.sbm_blocks, rc.sbm_p_in, rc.sbm_p_out, rc.sbm_feat_dim,
                         rc.sbm_feat_shift, derive_seed(rc.seed, SEED_SBM))
    shapes = np.array([*g.edges.shape, *g.features.shape, *g.labels.shape], "<i8")
    return g, _sha256_bytes(shapes, np.ascontiguousarray(g.edges, "<i8"),
                            np.ascontiguousarray(g.features, "<f8"),
                            np.ascontiguousarray(g.labels, "<i8"))


def resolve_split(rc: RunConfig, g: Graph) -> tuple[ClassSplit, str]:
    if rc.split_file:
        split = ClassSplit.load(rc.split_file)
        try:
            validate_split(g, split)
        except GraphValidationError as exc:
            raise GraphValidationError(f"{rc.split_file}: {exc}") from exc
    else:
        split = split_classes(g, rc.old_classes, rc.new_classes,
                              tuple(rc.split_ratios), derive_seed(rc.seed, SEED_SPLIT))
    return split, _sha256_bytes(split.to_json().encode("utf-8"))


def _say(line: str, stream=None) -> None:
    """Print a line; what the stream cannot encode, such as a lone surrogate
    from an undecodable byte in a path on the command line, is escaped."""
    stream = stream or sys.stdout
    enc = getattr(stream, "encoding", None) or "utf-8"
    print(line.encode(enc, "backslashreplace").decode(enc), file=stream)


def _make_dirs(d: str) -> None:
    try:
        os.makedirs(d, exist_ok=True)
    except OSError as exc:  # e.g. a file where a directory belongs
        raise ConfigError(f"cannot make output directory {d}: {exc}") from exc


def _write_json(path: str, payload: dict) -> None:
    """Serialize, then write atomically: a write that dies partway leaves no
    file that looks complete, which for a manifest would mark its stage
    finished."""
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    write_atomic(path, text.encode("utf-8"))


def _write_csv(path: str, header, rows, floats=None) -> None:
    """Every CSV artifact: the header, then one line per row. Integers are
    written by str, strings as they are, other numbers by repr(float(x)),
    which round-trips exactly. ``floats``, a 2-D float array with one row per
    row, appends its row's values to each line by the same rule, read as
    Python floats in one ``tolist`` rather than checked cell by cell."""
    def cell(x) -> str:
        if isinstance(x, str):
            return x
        return str(x) if isinstance(x, numbers.Integral) else repr(float(x))
    lines = (",".join(map(cell, row)) for row in rows)
    if floats is not None:
        lines = (",".join([lead, *map(repr, tail)])
                 for lead, tail in zip(lines, floats.tolist(), strict=True))
    text = "\n".join([",".join(map(cell, header)), *lines]) + "\n"
    write_atomic(path, text.encode("utf-8"))


def _pick(columns: tuple[str, ...], rows: list[dict]) -> list[list]:
    return [[row[c] for c in columns] for row in rows]


@dataclass
class _Stage:
    """One stage's output directory plus the invocation's resolved inputs.

    Every artifact path comes from `path`, which records the name, so the
    manifest lists exactly the files the stage wrote, in write order."""
    rc: RunConfig
    g: Graph
    split: ClassSplit
    inp: EncoderInput
    dataset_hash: str
    split_hash: str
    config_hash: str
    artifacts: list[str] = field(default_factory=list)

    def path(self, name: str) -> str:
        self.artifacts.append(name)
        return os.path.join(self.rc.out, name)

    def write_metrics(self, rep: MetricsReport) -> None:
        """metrics.json: the report and a timestamp, the run's identity being
        the manifest's; then the report's CSVs."""
        _write_json(self.path("metrics.json"), {**rep.to_dict(), "timestamp": _timestamp()})
        _write_csv(self.path("confusion.csv"), ["true\\pred", *rep.class_order],
                   [[c, *row] for c, row in zip(rep.class_order, rep.confusion)])
        if rep.perf is not None:  # lower-triangular: the cells above stay empty
            n = len(rep.perf)
            _write_csv(self.path("perf_matrix.csv"),
                       ["stage", *(f"task{j + 1}" for j in range(n))],
                       [[i + 1, *("" if j > i else x for j, x in enumerate(row))]
                        for i, row in enumerate(rep.perf)])

    def write_manifest(self, command: str, **facts) -> None:
        """The identity block, the stage's own facts and the artifact list."""
        _write_json(os.path.join(self.rc.out, "manifest.json"), {
            "command": command, "config": config_payload(self.rc),
            "config_hash": self.config_hash, "dataset_sha256": self.dataset_hash,
            "split_sha256": self.split_hash, "seed": self.rc.seed, **facts,
            "artifacts": self.artifacts, "timestamp": _timestamp()})


def _claim(dirs: list[str], force: bool) -> None:
    """Make the output directories, refusing before any is made if one holds a
    finished stage; force deletes the old manifests first, so a re-run that
    fails leaves none vouching for its directory."""
    done = [d for d in dirs if os.path.exists(os.path.join(d, "manifest.json"))]
    if done and not force:
        raise ConfigError(f"{done[0]} holds a finished run; pass --force to overwrite")
    for d in dirs:
        _make_dirs(d)
    for d in done:
        os.remove(os.path.join(d, "manifest.json"))


def _run_dirs(out: str) -> list[str]:
    """The stage directories `run` writes under out, in the order it runs them."""
    return [os.path.join(out, name) for name in ("pretrain", "ncd", "eval")]


def cmd_gen_data(rc: RunConfig, force: bool) -> int:
    if rc.dataset != "sbm":
        raise ConfigError("gen-data needs dataset=sbm; file datasets already exist")
    _make_dirs(rc.out)
    targets = [os.path.join(rc.out, n) for n in
               ("edges.txt", "features.txt", "labels.txt", "split.json")]
    clashes = [t for t in targets if os.path.exists(t)]
    if clashes and not force:
        raise ConfigError(f"refusing to overwrite {clashes[0]}; pass --force")
    g, dataset_hash = resolve_dataset(rc)
    split, split_hash = resolve_split(rc, g)
    for path, text in zip(targets, canonical_texts(g)):
        write_atomic(path, text.encode("utf-8"))
    split.save(targets[3])
    _write_json(os.path.join(rc.out, "gen_manifest.json"), {
        "command": "gen-data", "dataset_sha256": dataset_hash,
        "split_sha256": split_hash, "seed": rc.seed,
        "num_nodes": g.num_nodes, "num_undirected_edges": g.num_undirected_edges(),
        "timestamp": _timestamp()})
    _say(f"gen-data: wrote {g.num_nodes} nodes, "
         f"{g.num_undirected_edges()} edges to {rc.out}")
    return 0


def cmd_pretrain(st: _Stage) -> int:
    state, protos, plog = pretrain(st.g, st.split, st.rc, st.inp)
    rep = evaluate_joint(state, st.g, st.split, encode(freeze_encoder(state.encoder), st.inp))
    p1hash = phase1_hash(st.rc, st.dataset_hash, st.split_hash)

    meta = {"config_hash": st.config_hash, "phase1_hash": p1hash, "seed": st.rc.seed,
            "step": len(plog.rows)}
    save_state(st.path("checkpoint_pretrain.bin"), state, meta)
    save_state(st.path("checkpoint_pretrain_best.bin"), state,
               {**meta, "best_epoch": plog.best_epoch,
                "best_val_acc": plog.best_val_acc, "step": plog.best_epoch + 1},
               plog.best_snapshot)
    _write_json(st.path("prototypes.json"), protos.to_dict())
    st.split.save(st.path("split.json"))
    _write_csv(st.path("losses.csv"), PRETRAIN_COLUMNS, _pick(PRETRAIN_COLUMNS, plog.rows))
    st.write_metrics(rep)
    st.write_manifest("pretrain", phase=1, phase1_hash=p1hash,
                      epochs_run=len(plog.rows), best_epoch=plog.best_epoch,
                      best_val_acc=plog.best_val_acc, old_acc=rep.old_acc)
    _say(f"pretrain: old_acc={rep.old_acc:.4f} best_val={plog.best_val_acc:.4f} "
         f"epochs={len(plog.rows)} out={st.rc.out}")
    return 0


def _is_accuracy(v) -> bool:
    """A number read from outside the program that can be an accuracy: not a
    bool, and in [0, 1], which NaN and the infinities are not."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and 0 <= v <= 1


def _phase1_json(path: str) -> dict:
    try:
        obj = json.loads(read_text(path, StaleArtifacts))
    except (ValueError, RecursionError) as exc:
        raise StaleArtifacts(f"{path} is not JSON ({exc}); rerun pretrain") from exc
    if not isinstance(obj, dict):
        raise StaleArtifacts(f"{path} holds no JSON object; rerun pretrain")
    return obj


def _load_phase1(pretrain_dir: str, st: _Stage):
    """The phase-1 state, prototypes and old-class accuracy, once the manifest
    and the checkpoint both carry the phase-1 hash of the active config and
    the prototypes fit the checkpoint and the split."""
    manifest_path = os.path.join(pretrain_dir, "manifest.json")
    ckpt_path = os.path.join(pretrain_dir, "checkpoint_pretrain.bin")
    proto_path = os.path.join(pretrain_dir, "prototypes.json")
    for p in (manifest_path, ckpt_path, proto_path):
        if not os.path.isfile(p):
            raise StaleArtifacts(f"missing phase-1 artifact: {p}; run pretrain first")
    manifest = _phase1_json(manifest_path)
    want = phase1_hash(st.rc, st.dataset_hash, st.split_hash)
    have = manifest.get("phase1_hash")
    if have != want:
        raise StaleArtifacts(
            f"phase-1 artifacts in {pretrain_dir} were built under a different "
            f"config/dataset (hash {have} != {want}); rerun pretrain")
    old_acc = manifest.get("old_acc")
    if not _is_accuracy(old_acc):
        raise StaleArtifacts(f"{manifest_path} records no phase-1 old_acc in [0, 1]; "
                             "rerun pretrain")
    state, meta = load_state(ckpt_path)
    if meta.get("phase1_hash") != want:
        raise StaleArtifacts(
            f"{ckpt_path} comes from a different pretrain run (hash "
            f"{meta.get('phase1_hash')} != {want}); rerun pretrain")
    shape = (len(st.split.old_classes), state.encoder.repr_dim)
    try:
        protos = Prototypes.from_dict(_phase1_json(proto_path))
        if not (protos.class_ids.tolist() == list(st.split.old_classes)
                and protos.mean.shape == protos.var.shape == shape
                and protos.are_finite()):
            raise ValueError(f"want {shape[0]} finite prototypes of width {shape[1]}, "
                             f"variances >= 0, for old classes {st.split.old_classes}")
    except (KeyError, TypeError, ValueError) as exc:
        raise StaleArtifacts(f"{proto_path}: bad prototypes ({exc!r}); "
                             "rerun pretrain") from exc
    return state, protos, float(old_acc)


def cmd_ncd(st: _Stage, pretrain_dir: str) -> int:
    state, protos, m11 = _load_phase1(pretrain_dir, st)
    state, nlog = ncd_train(state, protos, st.split, st.rc, st.inp)
    rep = evaluate_joint(state, st.g, st.split, encode(freeze_encoder(state.encoder), st.inp),
                         phase1_old_acc=m11)

    meta = {"config_hash": st.config_hash, "seed": st.rc.seed, "phase1_old_acc": m11,
            "best_epoch": nlog.best_epoch, "epochs_run": nlog.epochs_run,
            "step": nlog.epochs_run}
    save_state(st.path("checkpoint_ncd_best.bin"), state, meta)
    save_state(st.path("checkpoint_ncd_final.bin"), state, meta, nlog.final_snapshot)
    _write_csv(st.path("losses.csv"), LOSS_COLUMNS, _pick(LOSS_COLUMNS, nlog.rows))
    st.write_metrics(rep)
    st.write_manifest("ncd", phase=2, pretrain_dir=pretrain_dir,
                      epochs_run=nlog.epochs_run, best_epoch=nlog.best_epoch,
                      stopped_early=nlog.stopped_early, aa=rep.aa, af=rep.af,
                      old_acc=rep.old_acc, new_acc=rep.new_acc, all_acc=rep.all_acc)
    _say(f"ncd: old_acc={rep.old_acc:.4f} new_acc={rep.new_acc:.4f} "
         f"all_acc={rep.all_acc:.4f} aa={rep.aa:.4f} af={rep.af:.4f} "
         f"epochs={nlog.epochs_run} out={st.rc.out}")
    return 0


def cmd_eval(st: _Stage, checkpoint: str) -> int:
    rc, g, split = st.rc, st.g, st.split
    state, meta = load_state(checkpoint)
    # what the model is against what the config, dataset and split ask of it
    fit = [("encoder", state.encoder.backbone, rc.backbone),
           ("input features", state.encoder.dims[0], g.feat_dim),
           ("old-class outputs", state.old_head.num_outputs, len(split.old_classes))]
    if state.novel_head is not None:
        fit.append(("novel outputs", state.novel_head.num_outputs, len(split.new_classes)))
    for what, have, want in fit:
        if have != want:
            raise DimensionMismatch(f"checkpoint has {have} {what}, the run has {want}")
    m11 = meta.get("phase1_old_acc")
    if not (m11 is None or _is_accuracy(m11)):
        raise CheckpointError(f"{checkpoint}: phase1_old_acc {m11!r} is not an accuracy "
                              "in [0, 1]")
    # one full forward, on constants, feeds both the metrics and nodes.csv
    z = encode(freeze_encoder(state.encoder), st.inp)
    # a phase-2 checkpoint without its phase-1 accuracy gets no stage matrix
    rep = evaluate_joint(state, g, split, z, phase1_old_acc=m11)
    st.write_metrics(rep)

    _write_csv(st.path("nodes.csv"), ["id", "label", *(f"z{i}" for i in range(z.shape[1]))],
               [[i, y] for i, y in enumerate(g.labels.tolist())], z.data)
    st.write_manifest("eval", phase=rep.phase, checkpoint=checkpoint,
                      old_acc=rep.old_acc, new_acc=rep.new_acc, all_acc=rep.all_acc)
    _say(f"eval: old_acc={rep.old_acc:.4f} new_acc={rep.new_acc:.4f} "
         f"all_acc={rep.all_acc:.4f} out={rc.out}")
    return 0


def cmd_sweep_depth(st: _Stage) -> int:
    rows = run_depth_sweep(st.g, st.split, st.rc, st.inp, st.rc.sweep_layers)
    _write_csv(st.path("sweep.csv"), SWEEP_COLUMNS, _pick(SWEEP_COLUMNS, rows))
    st.write_manifest("sweep-depth", layers=st.rc.sweep_layers)
    for row in rows:
        _say(f"sweep-depth: layers={row['layers']} old_acc={row['old_acc']:.4f} "
             f"new_acc={row['new_acc']:.4f} all_acc={row['all_acc']:.4f}")
    return 0


def cmd_run(st: _Stage) -> int:
    """pretrain -> ncd -> eval under out/, all on one resolution of the inputs."""
    pre, ncd, ev = (replace(st, rc=replace(st.rc, out=d), artifacts=[])
                    for d in _run_dirs(st.rc.out))
    cmd_pretrain(pre)
    cmd_ncd(ncd, pre.rc.out)
    return cmd_eval(ev, os.path.join(ncd.rc.out, "checkpoint_ncd_best.bin"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphncd",
        description="Stage-wise novel class discovery for node classification")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "gen-data": "generate an SBM dataset plus split and write text artifacts",
        "pretrain": "phase-1 supervised training on old classes",
        "ncd": "phase-2 discovery training (needs pretrain artifacts)",
        "eval": "evaluate a checkpoint on the configured dataset/split",
        "sweep-depth": "full pipeline at several encoder depths",
        "run": "pretrain, ncd, and eval chained into one output directory",
    }
    for name, help_text in specs.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="key=value or JSON config file")
        sp.add_argument("--seed", type=int, default=None, help="override config seed")
        sp.add_argument("--out", default=None, help="override output directory")
        sp.add_argument("--force", action="store_true",
                        help="overwrite an existing run in the output directory")
        if name == "ncd":
            sp.add_argument("--pretrain-dir", default=None,
                            help="directory holding phase-1 artifacts")
        if name == "eval":
            sp.add_argument("--checkpoint", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rc = load_config(args.config)
        if args.seed is not None:
            rc = replace(rc, seed=args.seed)
        if args.out is not None:
            rc = replace(rc, out=args.out)
        rc.validate()  # the overrides too
        if args.command == "gen-data":
            return cmd_gen_data(rc, args.force)
        pretrain_dir = getattr(args, "pretrain_dir", None) or rc.pretrain_dir
        if args.command == "ncd" and (not pretrain_dir or os.path.realpath(pretrain_dir)
                                      == os.path.realpath(rc.out)):
            raise ConfigError("ncd needs the phase-1 artifacts in a directory other than "
                              "its output: pass --pretrain-dir or set pretrain_dir")
        # guard every output directory before the costly resolution all stages share
        _claim(_run_dirs(rc.out) if args.command == "run" else [rc.out], args.force)
        g, dataset_hash = resolve_dataset(rc)
        split, split_hash = resolve_split(rc, g)
        # the one encoder input of every stage: A·x is computed here, once
        inp = EncoderInput.build(rc.backbone, operator_for(rc.backbone, g),
                                 constant(input_features(g, rc.normalize_features)))
        st = _Stage(rc, g, split, inp, dataset_hash, split_hash,
                    config_hash(rc, dataset_hash, split_hash))
        if args.command == "pretrain":
            return cmd_pretrain(st)
        if args.command == "ncd":
            return cmd_ncd(st, pretrain_dir)
        if args.command == "eval":
            return cmd_eval(st, args.checkpoint)
        if args.command == "sweep-depth":
            return cmd_sweep_depth(st)
        return cmd_run(st)
    except (OSError, ConfigError, GraphParseError, GraphValidationError,
            CheckpointError, *_EXIT_CODES) as exc:
        _say(f"error: {exc}", sys.stderr)
        return _EXIT_CODES.get(type(exc), 2)
    except MemoryError as exc:  # numpy's subclass names the array it could not hold
        detail = str(exc)
        _say("error: out of memory" + (f": {detail}" if detail else ""), sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
