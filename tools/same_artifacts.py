"""Compare two graphncd ``run`` directories the way the benchmark's
determinism gate does.

    python3 tools/same_artifacts.py A B

Each stage directory (pretrain, ncd, eval) is hashed with the gate's own
rule, ``perfbench/run.py``'s ``_digests``: CSVs, checkpoints and
``metrics.json`` without its timestamp line. Prints every file that differs
or exists on one side only, and exits 1 if there is any, else 0.
"""
from __future__ import annotations

import argparse
import importlib.util
import sys
from pathlib import Path

_RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
_spec = importlib.util.spec_from_file_location("perfbench_run", _RUN)
_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_bench)


def differences(a: Path, b: Path) -> list[str]:
    """``stage/file`` for every compared file whose digests differ."""
    out = []
    for stage in _bench.STAGES:
        sides = [d / stage for d in (a, b)]
        missing = [str(d) for d in sides if not d.is_dir()]
        if missing:
            out += [f"{stage}/ (missing {m})" for m in missing]
            continue
        da, db = (_bench._digests(d) for d in sides)
        out += [f"{stage}/{name}" for name in sorted(da.keys() | db.keys())
                if da.get(name) != db.get(name)]
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", type=Path)
    ap.add_argument("b", type=Path)
    args = ap.parse_args(argv)
    diff = differences(args.a, args.b)
    for line in diff:
        print(line)
    print(f"{len(diff)} differing files" if diff else "identical")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
