"""Run the benchmark on two source trees in alternated pairs and judge a gain.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W[,W...] \
        --seed S[,S...] --pairs N --seconds T

For each seed in the comma list, and for each workload in the comma list at
that seed, in turn, each pair runs
``perfbench/run.py --trace 0`` once in each tree, every tree with its own
copy of the benchmark, one after the other; even pairs run the parent first,
odd pairs the change. Each workload then gets a verdict block: for every
end-to-end metric that BENCHMARK.json declares, each side's median and
quartiles and the number of pairs the change won (ties count for neither
side), and whether the gain rule holds: at least ten pairs, wins in at least
nine tenths of them, and a median gap in the better direction larger than the
distance between the parent's quartiles. Then the block names every metric
whose change median is worse than the parent's and, for each, its relative
change next to its ``bound`` from BENCHMARK.json, labelled ``regression``
when the change exceeds the bound, else ``unresolved`` when the parent's
quartile spread, relative to its median, is wider than the bound, else
``within bound``. Each pair's line also gives ``cpus_usable`` from each
run's ``{"env": ...}`` line (``?`` where a run printed none) and flags the
pair when its two sides saw different counts: graphncd's pair ops split
their work over the usable CPUs, so such a pair compares unlike machines;
the block ends with the number of flagged pairs. Exits 1 if any
run failed, else 0; a ``--pairs`` below 1, a ``--seconds`` that is not
finite and positive or a workload that BENCHMARK.json does not declare
exits 2 before any run.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

_SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); statistics.quantiles' default (exclusive) method."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def judge(parent: list[float], change: list[float], better: str) -> dict:
    """Both sides' quartiles, the change's wins over aligned pairs and
    whether the gain rule holds for it."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change value per pair")
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    gap = sign * (cq[1] - pq[1])
    n = len(parent)
    return {"parent": pq, "change": cq, "wins": wins, "pairs": n, "worse": gap < 0,
            "holds": n >= MIN_PAIRS and wins >= WIN_SHARE * n and gap > pq[2] - pq[0]}


def regression(j: dict, bound: float) -> tuple[float, str]:
    """The relative change of a judged metric's median (positive when
    higher) and its label against ``bound``, for a change median that is
    worse than the parent's."""
    (pq1, p, pq3), c = j["parent"], j["change"][1]
    rel = (c - p) / abs(p) if p else math.copysign(math.inf, c - p)
    if abs(rel) > bound:
        return rel, "regression"
    if (pq3 - pq1) / abs(p) > bound:
        return rel, "unresolved"
    return rel, "within bound"


def verdict(workload: str, seed: int, metrics: list[dict],
            values: dict[str, dict[str, list[float]]]) -> list[str]:
    """One workload's verdict block: a line per metric declared in
    ``metrics``, judged on ``values[name]["parent"]`` and ``["change"]``,
    then the line naming the metrics whose change median is worse and a
    line per such metric with its relative change, bound and label."""
    lines = [f"{workload} seed {seed}: median [q1, q3], parent -> change"]
    worse = []
    labels = []
    for m in metrics:
        sides = values[m["name"]]
        j = judge(sides["parent"], sides["change"], m["better"])
        p, c = j["parent"], j["change"]
        lines.append(
            f"{m['name']} ({m['unit']}, {m['better']} is better): "
            f"{p[1]:.4g} [{p[0]:.4g}, {p[2]:.4g}] -> {c[1]:.4g} [{c[0]:.4g}, {c[2]:.4g}]; "
            f"change won {j['wins']}/{j['pairs']}; gain rule "
            f"{'holds' if j['holds'] else 'does not hold'}")
        if j["worse"]:
            worse.append(m["name"])
            rel, label = regression(j, m["bound"])
            labels.append(f"{m['name']}: {rel:+.2%} against bound {m['bound']:.0%}: {label}")
    lines.append(f"{workload}: change median worse than parent's: "
                 f"{', '.join(worse) or 'none'}")
    return lines + labels


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The result line of one benchmark invocation in ``tree``, or None if
    it exited non-zero or printed no result."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=str(tree), capture_output=True, text=True)
    result = read_run(proc.stdout) if proc.returncode == 0 else None
    if result is None:
        sys.stderr.write(proc.stderr)
    return result


def read_run(stdout: str) -> dict | None:
    """The result object on the last line of one benchmark run's output,
    with the run's ``{"env": ...}`` object under ``"env"`` when it printed
    one; None for no output."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        if line.startswith('{"env"'):
            result["env"] = json.loads(line)["env"]
    return result


def cpus_note(results: dict[str, dict]) -> tuple[str, bool]:
    """Each side's ``cpus_usable`` as a pair line's note, and whether the
    two sides saw different counts."""
    cpus = {side: r.get("env", {}).get("cpus_usable", "?") for side, r in results.items()}
    differ = cpus["parent"] != cpus["change"]
    note = f"cpus_usable parent {cpus['parent']}, change {cpus['change']}"
    return note + (" (DIFFERENT: not comparable)" if differ else ""), differ


def seed_list(text: str) -> list[int]:
    """``--seed``'s comma list as integers; an empty element is an error."""
    try:
        return [int(p) for p in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma list of integers: {text!r}") from None


def pairs(args: argparse.Namespace, workload: str, seed: int,
          metrics: list[dict]) -> tuple[dict[str, dict[str, list[float]]], int, int]:
    """Run ``args.pairs`` alternated pairs of one workload at one seed;
    returns the values per metric and side, the number of pairs dropped and
    the number whose sides saw different ``cpus_usable``."""
    values: dict[str, dict[str, list[float]]] = {
        m["name"]: {"parent": [], "change": []} for m in metrics}
    failed = unlike = 0
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        results = {side: run_bench(getattr(args, side), workload, seed,
                                   args.seconds) for side in order}
        if any(r is None or r["failed"] for r in results.values()):
            failed += 1
            print(f"{workload} seed {seed} pair {i}: a run failed, pair dropped")
            continue
        for name, sides in values.items():
            for side, r in results.items():
                sides[side].append(r["metrics"][name]["value"])
        note, differ = cpus_note(results)
        unlike += differ
        print(f"{workload} seed {seed} pair {i} ({order[0]} first): " + ", ".join(
            f"{name} {sides['parent'][-1]:.4g} -> {sides['change'][-1]:.4g}"
            for name, sides in values.items()) + f"; {note}", flush=True)
    return values, failed, unlike


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True, help="one workload or a comma list")
    ap.add_argument("--seed", type=seed_list, required=True,
                    help="one seed or a comma list")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error(f"--pairs must be at least 1, got {args.pairs}")
    if not 0 < args.seconds < math.inf:
        ap.error(f"--seconds must be finite and positive, got {args.seconds}")
    spec = json.loads(_SPEC.read_text())
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workload.split(",")
    unknown = [w for w in workloads if w not in known]
    if unknown:
        ap.error(f"unknown workload {unknown[0]!r}; known: {', '.join(known)}")
    metrics = spec["end_to_end"]
    any_failed = False
    for seed in args.seed:
        for workload in workloads:
            values, failed, unlike = pairs(args, workload, seed, metrics)
            any_failed = any_failed or failed > 0
            if failed == args.pairs:
                print(f"{workload} seed {seed}: no pair completed")
                continue
            print("\n".join(verdict(workload, seed, metrics, values)), flush=True)
            print(f"{workload}: pairs whose sides saw different cpus_usable: {unlike}",
                  flush=True)
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
