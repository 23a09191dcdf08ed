"""Command line entry points.

Subcommands: gen-data, pretrain, ncd, eval, sweep-depth, run. Every command
takes --config (flat key=value or JSON) plus optional --seed/--out overrides
and writes its artifacts into the output directory.

Exit codes: 0 success, 2 missing input or parse failure, 3 stale or missing
phase-1 artifacts, 4 checkpoint/dataset dimension mismatch, 1 anything else.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import autodiff as ad
# unused here, but perfbench/spans.py hooks cli.save_checkpoint, so it stays bound
from .checkpoint import CheckpointError, save_checkpoint  # noqa: F401
from .config import (ConfigError, RunConfig, config_hash, config_payload,
                     load_config, phase1_hash)
from .graph import (ClassSplit, Graph, GraphParseError, GraphValidationError,
                    canonical_texts, input_features, load_graph, operator_for,
                    save_graph, sbm_generate, split_classes, validate_split)
from .metrics import (MetricsReport, evaluate_joint, write_confusion_csv,
                      write_perf_csv)
from .models import encode
from .ncd_losses import LOSS_TERMS, Prototypes
from .training import (SEED_SBM, SEED_SPLIT, TrainingDiverged, derive_seed,
                       load_state, ncd_train, pretrain, run_depth_sweep,
                       save_state, stage_report)


class StaleArtifacts(Exception):
    """Phase-1 artifacts absent or produced under an incompatible config."""


class DimensionMismatch(Exception):
    """Checkpoint geometry does not fit the dataset or split."""


LOSS_COLUMNS = ("epoch", *LOSS_TERMS, "beta1", "beta2", "total")


def _timestamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _ensure_out(path: str) -> None:
    os.makedirs(path, exist_ok=True)


def _guard_overwrite(out: str, force: bool) -> None:
    marker = os.path.join(out, "manifest.json")
    if os.path.exists(marker) and not force:
        raise ConfigError(f"output {out} already holds a run; pass --force to overwrite")


def _sha256_bytes(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for b in blobs:
        h.update(b)
    return h.hexdigest()


def resolve_dataset(rc: RunConfig) -> tuple[Graph, str]:
    """Load or generate the graph plus its content hash."""
    if rc.dataset == "files":
        for p in (rc.edges, rc.features, rc.labels):
            if not os.path.isfile(p):
                raise FileNotFoundError(f"missing dataset file: {p}")
        g = load_graph(rc.edges, rc.features, rc.labels)
        return g, _sha256_bytes(*(Path(p).read_bytes()
                                  for p in (rc.edges, rc.features, rc.labels)))
    g = sbm_generate(rc.sbm_blocks, rc.sbm_p_in, rc.sbm_p_out, rc.sbm_feat_dim,
                     rc.sbm_feat_shift, derive_seed(rc.seed, SEED_SBM))
    texts = canonical_texts(g)
    return g, _sha256_bytes(*(t.encode("utf-8") for t in texts))


def resolve_split(rc: RunConfig, g: Graph) -> tuple[ClassSplit, str]:
    if rc.split_file:
        if not os.path.isfile(rc.split_file):
            raise FileNotFoundError(f"missing split file: {rc.split_file}")
        split = ClassSplit.load(rc.split_file)
        validate_split(g, split)
    else:
        split = split_classes(g, rc.old_classes, rc.new_classes,
                              tuple(rc.split_ratios), derive_seed(rc.seed, SEED_SPLIT))
    return split, _sha256_bytes(split.to_json().encode("utf-8"))


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_csv(path: str, columns: tuple[str, ...], rows: list[dict]) -> None:
    """Header, then one line per row: an integer first column, then float reprs
    (repr round-trips exactly)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join([str(row[columns[0]])]
                              + [repr(float(row[c])) for c in columns[1:]]) + "\n")


def _reference_extras(rc: RunConfig, rep: MetricsReport) -> dict:
    refs = (rc.reference_old, rc.reference_new, rc.reference_all)
    if any(v != v for v in refs):  # any NaN: comparison not configured
        return {}
    return {"reference_comparison": {
        "reference_only": True,
        "reference_old": refs[0], "reference_new": refs[1], "reference_all": refs[2],
        "delta_old": rep.old_acc - refs[0],
        "delta_new": rep.new_acc - refs[1],
        "delta_all": rep.all_acc - refs[2],
    }}


def _write_metrics(out: str, rep: MetricsReport) -> None:
    payload = rep.to_dict()
    payload["timestamp"] = _timestamp()
    _write_json(os.path.join(out, "metrics.json"), payload)
    write_confusion_csv(os.path.join(out, "confusion.csv"), rep.confusion,
                        rep.class_order)
    if rep.perf is not None:
        write_perf_csv(os.path.join(out, "perf_matrix.csv"), rep.perf)


def _write_manifest(out: str, payload: dict) -> None:
    payload = dict(payload)
    payload["timestamp"] = _timestamp()
    _write_json(os.path.join(out, "manifest.json"), payload)


def cmd_gen_data(rc: RunConfig, force: bool) -> int:
    if rc.dataset != "sbm":
        raise ConfigError("gen-data needs dataset=sbm; file datasets already exist")
    _ensure_out(rc.out)
    targets = [os.path.join(rc.out, n) for n in
               ("edges.txt", "features.txt", "labels.txt", "split.json")]
    clashes = [t for t in targets if os.path.exists(t)]
    if clashes and not force:
        raise ConfigError(f"refusing to overwrite {clashes[0]}; pass --force")
    g, dataset_hash = resolve_dataset(rc)
    split, split_hash = resolve_split(rc, g)
    save_graph(g, *targets[:3])
    split.save(targets[3])
    _write_json(os.path.join(rc.out, "gen_manifest.json"), {
        "command": "gen-data", "dataset_sha256": dataset_hash,
        "split_sha256": split_hash, "seed": rc.seed,
        "num_nodes": g.num_nodes, "num_undirected_edges": g.num_undirected_edges(),
        "timestamp": _timestamp()})
    print(f"gen-data: wrote {g.num_nodes} nodes, "
          f"{g.num_undirected_edges()} edges to {rc.out}")
    return 0


def cmd_pretrain(rc: RunConfig, force: bool) -> int:
    _ensure_out(rc.out)
    _guard_overwrite(rc.out, force)
    g, dataset_hash = resolve_dataset(rc)
    split, split_hash = resolve_split(rc, g)
    tc = rc.train_config()
    state, protos, plog = pretrain(g, split, tc)
    rep = stage_report(state, g, split, tc)
    chash = config_hash(rc, dataset_hash, split_hash)
    p1hash = phase1_hash(rc, dataset_hash, split_hash)
    rep.config_hash = chash
    rep.extras.update(_reference_extras(rc, rep))

    split.save(os.path.join(rc.out, "split.json"))
    meta = {"config_hash": chash, "phase1_hash": p1hash, "seed": rc.seed}
    save_state(os.path.join(rc.out, "checkpoint_pretrain.bin"), state, meta)
    save_state(os.path.join(rc.out, "checkpoint_pretrain_best.bin"), state,
               {**meta, "best_epoch": plog.best_epoch,
                "best_val_acc": plog.best_val_acc, "step": plog.best_epoch + 1},
               plog.best_snapshot)
    _write_json(os.path.join(rc.out, "prototypes.json"), protos.to_dict())
    _write_csv(os.path.join(rc.out, "losses.csv"), ("epoch", "loss", "val_acc"),
               plog.rows)
    _write_metrics(rc.out, rep)
    _write_manifest(rc.out, {
        "command": "pretrain", "phase": 1, "config": config_payload(rc),
        "config_hash": chash, "phase1_hash": p1hash,
        "dataset_sha256": dataset_hash, "split_sha256": split_hash,
        "seed": rc.seed, "epochs_run": len(plog.rows),
        "best_epoch": plog.best_epoch, "best_val_acc": plog.best_val_acc,
        "old_acc": rep.old_acc,
        "artifacts": ["checkpoint_pretrain.bin", "checkpoint_pretrain_best.bin",
                      "prototypes.json", "split.json", "losses.csv",
                      "metrics.json", "confusion.csv", "perf_matrix.csv"]})
    print(f"pretrain: old_acc={rep.old_acc:.4f} best_val={plog.best_val_acc:.4f} "
          f"epochs={len(plog.rows)} out={rc.out}")
    return 0


def _load_phase1(pretrain_dir: str, rc: RunConfig, dataset_hash: str,
                 split_hash: str):
    manifest_path = os.path.join(pretrain_dir, "manifest.json")
    ckpt_path = os.path.join(pretrain_dir, "checkpoint_pretrain.bin")
    proto_path = os.path.join(pretrain_dir, "prototypes.json")
    for p in (manifest_path, ckpt_path, proto_path):
        if not os.path.isfile(p):
            raise StaleArtifacts(f"missing phase-1 artifact: {p}; run pretrain first")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    want = phase1_hash(rc, dataset_hash, split_hash)
    have = manifest.get("phase1_hash")
    if have != want:
        raise StaleArtifacts(
            f"phase-1 artifacts in {pretrain_dir} were built under a different "
            f"config/dataset (hash {have} != {want}); rerun pretrain")
    state, meta = load_state(ckpt_path)
    with open(proto_path, "r", encoding="utf-8") as fh:
        protos = Prototypes.from_dict(json.load(fh))
    return state, protos, manifest


def cmd_ncd(rc: RunConfig, force: bool, pretrain_dir: str | None) -> int:
    _ensure_out(rc.out)
    _guard_overwrite(rc.out, force)
    src = pretrain_dir or rc.pretrain_dir or rc.out
    g, dataset_hash = resolve_dataset(rc)
    split, split_hash = resolve_split(rc, g)
    state, protos, _ = _load_phase1(src, rc, dataset_hash, split_hash)
    tc = rc.train_config()
    m11 = evaluate_joint(state, g, split, tc.novel_alignment,
                         tc.normalize_features).old_acc
    state, nlog = ncd_train(state, protos, g, split, tc)
    rep = stage_report(state, g, split, tc, m11)
    chash = config_hash(rc, dataset_hash, split_hash)
    rep.config_hash = chash
    rep.extras.update({f"use_{t}": getattr(tc, f"use_{t}") for t in LOSS_TERMS})
    rep.extras.update(_reference_extras(rc, rep))

    split.save(os.path.join(rc.out, "split.json"))
    _write_csv(os.path.join(rc.out, "losses.csv"), LOSS_COLUMNS, nlog.rows)
    meta = {"config_hash": chash, "seed": rc.seed, "phase1_old_acc": m11,
            "best_epoch": nlog.best_epoch, "epochs_run": nlog.epochs_run}
    save_state(os.path.join(rc.out, "checkpoint_ncd_best.bin"), state, meta)
    save_state(os.path.join(rc.out, "checkpoint_ncd_final.bin"), state, meta,
               nlog.final_snapshot)
    _write_metrics(rc.out, rep)
    _write_manifest(rc.out, {
        "command": "ncd", "phase": 2, "config": config_payload(rc),
        "config_hash": chash, "dataset_sha256": dataset_hash,
        "split_sha256": split_hash, "seed": rc.seed,
        "pretrain_dir": src, "epochs_run": nlog.epochs_run,
        "best_epoch": nlog.best_epoch, "stopped_early": nlog.stopped_early,
        "old_acc": rep.old_acc, "new_acc": rep.new_acc, "all_acc": rep.all_acc,
        "aa": rep.aa, "af": rep.af,
        "artifacts": ["checkpoint_ncd_best.bin", "checkpoint_ncd_final.bin",
                      "split.json", "losses.csv", "metrics.json",
                      "confusion.csv", "perf_matrix.csv"]})
    print(f"ncd: old_acc={rep.old_acc:.4f} new_acc={rep.new_acc:.4f} "
          f"all_acc={rep.all_acc:.4f} aa={rep.aa:.4f} af={rep.af:.4f} "
          f"epochs={nlog.epochs_run} out={rc.out}")
    return 0


def cmd_eval(rc: RunConfig, force: bool, checkpoint: str) -> int:
    _ensure_out(rc.out)
    _guard_overwrite(rc.out, force)
    if not os.path.isfile(checkpoint):
        raise FileNotFoundError(f"missing checkpoint: {checkpoint}")
    g, dataset_hash = resolve_dataset(rc)
    split, split_hash = resolve_split(rc, g)
    state, meta = load_state(checkpoint)
    if state.encoder.dims[0] != g.feat_dim:
        raise DimensionMismatch(
            f"checkpoint expects {state.encoder.dims[0]} input features, "
            f"dataset has {g.feat_dim}")
    if state.old_head.num_outputs != len(split.old_classes):
        raise DimensionMismatch(
            f"checkpoint has {state.old_head.num_outputs} old-class outputs, "
            f"split lists {len(split.old_classes)} old classes")
    if state.novel_head is not None and \
            state.novel_head.num_outputs != len(split.new_classes):
        raise DimensionMismatch(
            f"checkpoint has {state.novel_head.num_outputs} novel outputs, "
            f"split lists {len(split.new_classes)} new classes")
    tc = rc.train_config()
    m11 = meta.get("phase1_old_acc")
    if state.joint_head is None or m11 is not None:
        rep = stage_report(state, g, split, tc, m11)
    else:  # phase-2 checkpoint without its phase-1 accuracy: no stage matrix
        rep = evaluate_joint(state, g, split, tc.novel_alignment,
                             tc.normalize_features)
        rep.seed = rc.seed
    chash = config_hash(rc, dataset_hash, split_hash)
    rep.config_hash = chash
    rep.extras.update(_reference_extras(rc, rep))
    _write_metrics(rc.out, rep)

    z = encode(state.encoder, operator_for(state.backbone, g),
               ad.constant(input_features(g, tc.normalize_features))).data
    with open(os.path.join(rc.out, "nodes.csv"), "w", encoding="utf-8") as fh:
        fh.write("id,label," + ",".join(f"z{i}" for i in range(z.shape[1])) + "\n")
        for i in range(g.num_nodes):
            fh.write(f"{i},{g.labels[i]}," +
                     ",".join(repr(float(v)) for v in z[i]) + "\n")
    _write_manifest(rc.out, {
        "command": "eval", "phase": rep.phase, "config": config_payload(rc),
        "config_hash": chash, "dataset_sha256": dataset_hash,
        "split_sha256": split_hash, "seed": rc.seed, "checkpoint": checkpoint,
        "old_acc": rep.old_acc, "new_acc": rep.new_acc, "all_acc": rep.all_acc,
        "artifacts": ["metrics.json", "confusion.csv", "nodes.csv"]
        + (["perf_matrix.csv"] if rep.perf is not None else [])})
    print(f"eval: old_acc={rep.old_acc:.4f} new_acc={rep.new_acc:.4f} "
          f"all_acc={rep.all_acc:.4f} out={rc.out}")
    return 0


def cmd_sweep_depth(rc: RunConfig, force: bool) -> int:
    _ensure_out(rc.out)
    _guard_overwrite(rc.out, force)
    g, dataset_hash = resolve_dataset(rc)
    split, split_hash = resolve_split(rc, g)
    tc = rc.train_config()
    rows = run_depth_sweep(g, split, tc, rc.sweep_layers)
    _write_csv(os.path.join(rc.out, "sweep.csv"),
               ("layers", "old_acc", "new_acc", "all_acc", "aa", "af"), rows)
    chash = config_hash(rc, dataset_hash, split_hash)
    _write_manifest(rc.out, {
        "command": "sweep-depth", "config": config_payload(rc),
        "config_hash": chash, "dataset_sha256": dataset_hash,
        "split_sha256": split_hash, "seed": rc.seed,
        "layers": rc.sweep_layers, "artifacts": ["sweep.csv"]})
    for row in rows:
        print(f"sweep-depth: layers={row['layers']} old_acc={row['old_acc']:.4f} "
              f"new_acc={row['new_acc']:.4f} all_acc={row['all_acc']:.4f}")
    return 0


def cmd_run(rc: RunConfig, force: bool) -> int:
    """pretrain -> ncd -> eval chained through out/ subdirectories."""
    pre_dir = os.path.join(rc.out, "pretrain")
    ncd_dir = os.path.join(rc.out, "ncd")
    eval_dir = os.path.join(rc.out, "eval")
    code = cmd_pretrain(replace(rc, out=pre_dir), force)
    if code:
        return code
    code = cmd_ncd(replace(rc, out=ncd_dir), force, pre_dir)
    if code:
        return code
    return cmd_eval(replace(rc, out=eval_dir), force,
                    os.path.join(ncd_dir, "checkpoint_ncd_best.bin"))


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
        if args.command == "gen-data":
            return cmd_gen_data(rc, args.force)
        if args.command == "pretrain":
            return cmd_pretrain(rc, args.force)
        if args.command == "ncd":
            return cmd_ncd(rc, args.force, args.pretrain_dir)
        if args.command == "eval":
            return cmd_eval(rc, args.force, args.checkpoint)
        if args.command == "sweep-depth":
            return cmd_sweep_depth(rc, args.force)
        return cmd_run(rc, args.force)
    except (FileNotFoundError, ConfigError, GraphParseError, GraphValidationError,
            CheckpointError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StaleArtifacts as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DimensionMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
