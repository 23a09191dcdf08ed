"""Compare two graphncd ``run`` directories the way the benchmark's
determinism gate does, or first build those runs from two source trees.

    python3 tools/same_artifacts.py A B
    python3 tools/same_artifacts.py --trees PARENT CHANGE --workload W[,W...] \
        --seed S[,S...]

Each stage directory (pretrain, ncd, eval) is hashed with the gate's own
rule, ``perfbench/run.py``'s ``_digests``: CSVs, checkpoints and
``metrics.json`` without its timestamp line. Prints every file that differs
or exists on one side only, then ``identical`` or the count of such files.
A checkpoint that differs is followed by ``(tensors differ: max rel R in
NAME)``, the largest relative difference of any tensor and the tensor it is
in, or by ``(tensors equal; meta differs: KEY[, KEY...])``, unless
graphncd's checkpoint reader (``graphncd.checkpoint.load_checkpoint``, from
this tool's own tree) refuses either side. A tensor's relative
difference is its largest ``|a - b|`` over its largest ``|value|`` on either
side, so a float reorder reads near 1e-16 and a real change far above it.
Two checkpoints whose tensor lists differ in names or shapes read
``(tensors differ)``.

With ``--trees``, every workload of the comma list, as
``perfbench/workloads.py`` declares it, is run at every seed of the comma
list by each tree's own ``src``: ``graphncd gen-data`` first for a workload
that reads files, then ``graphncd run``, each in a subprocess with BLAS
pinned to one thread, all in a temporary directory. The report above is
printed for each workload and seed. An unknown workload or a bad seed list
exits 2 before any run. Otherwise exits 1 if any run failed or any file
differs, else 0.
"""
from __future__ import annotations

import argparse
import importlib.util
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

_TOOLS = Path(__file__).resolve().parent
sys.path.insert(0, str(_TOOLS.parent / "src"))  # graphncd's checkpoint reader

from graphncd.checkpoint import CheckpointError, load_checkpoint  # noqa: E402


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_bench = _load("perfbench_run", _TOOLS.parent / "perfbench" / "run.py")
WORKLOADS = _bench.WORKLOADS          # perfbench/workloads.py, via run.py
seed_list = _load("bench_pairs", _TOOLS / "bench_pairs.py").seed_list
# config keys of a files workload, and the gen-data file each one names
_DATA_FILES = (("edges", "edges.txt"), ("features", "features.txt"),
               ("labels", "labels.txt"), ("split_file", "split.json"))


def _checkpoint(path: Path):
    """(meta, {name: tensor}) of a ``.bin`` file that graphncd's checkpoint
    reader accepts; None for any other file."""
    if path.suffix != ".bin" or not path.is_file():
        return None
    try:
        return load_checkpoint(str(path))
    except CheckpointError:
        return None


def _largest_move(a: dict, b: dict) -> str:
    """``: max rel R in NAME`` for the tensor whose relative difference
    between ``a`` and ``b``, two checkpoints' tensors of the same names and
    shapes, is largest; "" when no tensor differs."""
    moves = []
    for name, x in a.items():
        y = b[name]
        if x.tobytes() != y.tobytes():
            with np.errstate(invalid="ignore"):
                scale = max(np.abs(x).max(), np.abs(y).max())
                # all zeros that differ only in sign have moved by nothing
                rel = float(np.abs(x - y).max() / scale) if scale else 0.0
            moves.append((rel, name))
    if not moves:
        return ""
    rel, name = max(moves, key=lambda m: math.inf if math.isnan(m[0]) else m[0])
    return f": max rel {rel:.0e} in {name}"


def _why(a: Path, b: Path) -> str:
    """Where two differing checkpoints differ, or "" when either is not one."""
    parts = [_checkpoint(p) for p in (a, b)]
    if None in parts:
        return ""
    (meta_a, tensors_a), (meta_b, tensors_b) = parts
    if [(k, t.shape) for k, t in tensors_a.items()] != [
            (k, t.shape) for k, t in tensors_b.items()]:
        return " (tensors differ)"
    moved = _largest_move(tensors_a, tensors_b)
    if moved:
        return f" (tensors differ{moved})"
    keys = sorted(k for k in meta_a.keys() | meta_b.keys() if meta_a.get(k) != meta_b.get(k))
    return f" (tensors equal; meta differs: {', '.join(keys)})" if keys else ""


def differences(a: Path, b: Path) -> list[str]:
    """``stage/file`` for every compared file whose digests differ, with
    ``_why`` for a checkpoint."""
    out = []
    for stage in _bench.STAGES:
        sides = [d / stage for d in (a, b)]
        missing = [str(d) for d in sides if not d.is_dir()]
        if missing:
            out += [f"{stage}/ (missing {m})" for m in missing]
            continue
        da, db = (_bench._digests(d) for d in sides)
        out += [f"{stage}/{name}{_why(*(d / name for d in sides))}"
                for name in sorted(da.keys() | db.keys()) if da.get(name) != db.get(name)]
    return out


def report(diff: list[str]) -> int:
    """Print the per-file report; 1 if any file differs, else 0."""
    for line in diff:
        print(line)
    print(f"{len(diff)} differing files" if diff else "identical")
    return 1 if diff else 0


def run_cli(tree: Path, argv: list[str], cwd: Path) -> None:
    """``graphncd argv`` from ``tree``'s own ``src`` in a subprocess with
    BLAS pinned to one thread; RuntimeError on a non-zero exit."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(tree.resolve() / "src"))
    env.update({v: _bench.BLAS_THREADS for v in _bench.BLAS_VARS})
    proc = subprocess.run([sys.executable, "-m", "graphncd.cli", *argv], cwd=str(cwd),
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: graphncd {argv[0]} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")


def build_run(tree: Path, workload: str, seed: int, work: Path, runner=run_cli) -> Path:
    """``tree``'s ``run`` of one workload at one seed, made under ``work``
    with the workload's config as the benchmark writes it; returns the run
    directory."""
    spec = WORKLOADS[workload]
    work.mkdir(parents=True)
    text = spec["config"] + f"seed = {seed}\n"
    if spec["files"]:
        (work / "gen.cfg").write_text(text)
        runner(tree, ["gen-data", "--config", str(work / "gen.cfg"),
                      "--out", str(work / "data")], work)
        text += "dataset = files\n" + "".join(
            f"{key} = {work / 'data' / name}\n" for key, name in _DATA_FILES)
    (work / "run.cfg").write_text(text)
    runner(tree, ["run", "--config", str(work / "run.cfg"), "--out", str(work / "run")],
           work)
    return work / "run"


def compare_trees(parent: Path, change: Path, workloads: list[str], seeds: list[int],
                  runner=run_cli) -> int:
    """Build and compare both trees' runs of every workload at every seed."""
    status = 0
    with tempfile.TemporaryDirectory(prefix="same_artifacts-") as tmp:
        for seed in seeds:
            for workload in workloads:
                print(f"{workload} seed {seed}:", flush=True)
                try:
                    runs = [build_run(tree, workload, seed,
                                      Path(tmp) / side / f"{workload}-{seed}", runner)
                            for side, tree in (("parent", parent), ("change", change))]
                    status = max(status, report(differences(*runs)))
                except RuntimeError as exc:
                    print(f"run failed: {exc}")
                    status = 1
    return status


def main(argv: list[str] | None = None, runner=run_cli) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("dirs", nargs="*", type=Path, metavar="DIR",
                    help="two run directories to compare")
    ap.add_argument("--trees", nargs=2, type=Path, metavar=("PARENT", "CHANGE"),
                    help="build the runs from these two source trees")
    ap.add_argument("--workload", type=lambda text: text.split(","),
                    help="with --trees: one workload or a comma list")
    ap.add_argument("--seed", type=seed_list, help="with --trees: one seed or a comma list")
    args = ap.parse_args(argv)
    if args.trees is None:
        if len(args.dirs) != 2 or args.workload or args.seed:
            ap.error("give two run directories, or --trees with --workload and --seed")
        return report(differences(*args.dirs))
    if args.dirs or not (args.workload and args.seed):
        ap.error("--trees takes --workload and --seed and no run directories")
    unknown = [w for w in args.workload if w not in WORKLOADS]
    if unknown:
        ap.error(f"unknown workload {unknown[0]!r}; known: {', '.join(WORKLOADS)}")
    for tree in args.trees:
        if not (tree / "src" / "graphncd").is_dir():
            ap.error(f"{tree} has no src/graphncd")
    return compare_trees(*args.trees, args.workload, args.seed, runner)


if __name__ == "__main__":
    sys.exit(main())
