"""graphncd benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload through the real CLI path, ``graphncd.cli.main(["run",
...])`` (pretrain -> ncd -> eval with every artifact written), repeatedly for
about S seconds, and at least as often as ``Bench.min_rounds`` asks. Each
repetition runs in a fresh worker process with BLAS pinned to one thread,
one after another. The workload seed becomes the config ``seed``, which
drives the dataset, split and initialisation.

Every repetition's outputs are checked: each stage exits 0 and writes its
manifest and the artifacts it names, the accuracies clear the workload's
floors, and checkpoints, CSVs and ``metrics.json`` (minus its timestamp) are
byte-identical to the first repetition's. A failed check fails the stage it
concerns; stage invocations attempted and failed are the ``attempted`` and
``failed`` counts of the result.

The last line of standard output is one JSON object. With ``--trace 0`` it
holds the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it holds
the per-layer table from traced repetitions, which alternate with untraced
ones so the tracing overhead can be reported. The lines before it record the
environment and each repetition.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
STAGES = ("pretrain", "ncd", "eval")
# End-to-end times are reported at the machine speed at which the worker's
# reference workload takes this long (see worker.Reference).
REFERENCE_S = 0.05
# the whole invocation has to end within 180 s
HARD_LIMIT_S = 165.0


class Bench:
    def __init__(self, workload: str, seed: int, trace: int, work: Path):
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.trace = trace
        self.work = work
        self.t_start = time.monotonic()
        self.reference: dict[str, dict[str, str]] | None = None
        self.attempted = 0
        self.failed = 0
        self.reps: list[dict] = []
        self.config = work / "run.cfg"
        self.env = dict(os.environ)
        self.env.update({v: BLAS_THREADS for v in BLAS_VARS})
        self.env["PYTHONDONTWRITEBYTECODE"] = "1"

    def child(self, name: str, argv: list[str], trace: int) -> dict:
        spec_path = self.work / f"{name}.spec.json"
        result_path = self.work / f"{name}.result.json"
        spec_path.write_text(json.dumps(
            {"argv": argv, "trace": trace, "result": str(result_path)}))
        left = HARD_LIMIT_S - (time.monotonic() - self.t_start)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(spec_path)],
                env=self.env, cwd=str(ROOT), capture_output=True, text=True,
                timeout=max(1.0, left))
        except subprocess.TimeoutExpired:
            return {"code": None, "error": "worker timed out"}
        if proc.returncode != 0 or not result_path.is_file():
            return {"code": None, "error": proc.stderr[-2000:]}
        return json.loads(result_path.read_text())

    def prepare(self) -> None:
        text = self.spec["config"] + f"seed = {self.seed}\n"
        if self.spec["files"]:
            data = self.work / "data"
            gen_cfg = self.work / "gen.cfg"
            gen_cfg.write_text(text)
            res = self.child("gen", ["gen-data", "--config", str(gen_cfg),
                                     "--out", str(data)], 0)
            if res.get("code") != 0:
                raise RuntimeError(f"gen-data failed: {res.get('error')}")
            text += "dataset = files\n" + "".join(
                f"{key} = {data / name}\n" for key, name in (
                    ("edges", "edges.txt"), ("features", "features.txt"),
                    ("labels", "labels.txt"), ("split_file", "split.json")))
        self.config.write_text(text)

    def rep(self, traced: int) -> dict:
        idx = len(self.reps)
        out = self.work / f"rep{idx}"
        res = self.child(f"rep{idx}", ["run", "--config", str(self.config),
                                       "--out", str(out)], traced)
        res["traced"] = traced
        res["failed_stages"] = self.check(res, out)
        res.update(self.facts(out) if not res["failed_stages"] else {})
        shutil.rmtree(out, ignore_errors=True)
        self.attempted += len(STAGES)
        self.failed += len(res["failed_stages"])
        self.reps.append(res)
        print(json.dumps({"rep": idx, "traced": traced,
                          "run_s": res.get("run_s"), "cpu_s": res.get("cpu_s"),
                          "setup_s": res.get("setup_s"),
                          "reference_s": res.get("reference_s"),
                          "failed_stages": res["failed_stages"],
                          "error": res.get("error")}), flush=True)
        return res

    def check(self, res: dict, out: Path) -> list[str]:
        """Stages whose invocation or outputs failed a check."""
        failed = []
        codes = res.get("stage_codes", {})
        for stage in STAGES:
            d = out / stage
            manifest = d / "manifest.json"
            if codes.get(stage) != 0 or not manifest.is_file():
                failed.append(stage)
                continue
            named = json.loads(manifest.read_text()).get("artifacts", [])
            if not all((d / a).is_file() for a in named):
                failed.append(stage)
        failed += [s for s in self.floor_failures(out) if s not in failed]
        digests = {s: _digests(out / s) for s in STAGES if s not in failed}
        if self.reference is None and not failed:
            self.reference = digests
        elif self.reference is not None:
            failed += [s for s, d in digests.items() if d != self.reference[s]]
        return sorted(set(failed), key=STAGES.index)

    def floor_failures(self, out: Path) -> list[str]:
        floors = self.spec["floors"]
        bad = []
        try:
            pre = json.loads((out / "pretrain" / "metrics.json").read_text())
            if not pre["old_acc"] >= floors["pretrain_old"]:
                bad.append("pretrain")
        except (OSError, ValueError, KeyError):
            bad.append("pretrain")
        try:
            ev = json.loads((out / "eval" / "metrics.json").read_text())
            if not all(ev[f"{k}_acc"] >= floors[k] for k in ("old", "new", "all")):
                bad.append("eval")
        except (OSError, ValueError, KeyError):
            bad.append("eval")
        return bad

    def facts(self, out: Path) -> dict:
        ev = json.loads((out / "eval" / "metrics.json").read_text())
        ncd = json.loads((out / "ncd" / "manifest.json").read_text())
        size = sum(f.stat().st_size for f in out.rglob("*") if f.is_file())
        return {"acc": {k: ev[f"{k}_acc"] for k in ("old", "new", "all")},
                "ncd_epochs_run": ncd["epochs_run"], "artifact_bytes": size}

    def min_rounds(self) -> int:
        """Untraced: enough repetitions for 100 pooled epoch intervals per
        phase, and at least three. Traced: two, for a median of the
        per-layer table."""
        if self.trace:
            return 2
        epochs = re.findall(r"^(?:pretrain|ncd)_epochs = (\d+)$",
                            self.spec["config"], re.M)
        return max(3, math.ceil(100 / (min(int(e) for e in epochs) - 1)))

    def measure(self, seconds: float) -> None:
        deadline = time.monotonic() + seconds
        need = self.min_rounds()
        rounds: list[float] = []
        while True:
            t0 = time.monotonic()
            self.rep(0)
            if self.trace:
                self.rep(1)
            rounds.append(time.monotonic() - t0)
            nxt = time.monotonic() + statistics.median(rounds)
            if len(rounds) >= need and nxt > deadline:
                break
            if nxt - self.t_start > HARD_LIMIT_S:
                break

    def result(self) -> dict:
        ok = [r for r in self.reps if not r["failed_stages"]]
        plain = [r for r in ok if not r["traced"]]
        if not plain:
            raise RuntimeError("no repetition completed")
        values = self.layer_metrics(ok, plain) if self.trace else self.end_to_end(plain)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in declared_metrics(self.trace).items()}
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}

    @staticmethod
    def end_to_end(reps: list[dict]) -> dict[str, float]:
        """Times are scaled by REFERENCE_S / (the repetition's reference
        time), which takes out how fast the shared machine was just then."""
        def scaled(r: dict, x: float) -> float:
            return x * REFERENCE_S / r["reference_s"]

        m = {"run_s": statistics.fmean(scaled(r, r["run_s"]) for r in reps),
             "setup_s": statistics.median(scaled(r, r["setup_s"]) for r in reps),
             "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps)}
        for stage in ("pretrain", "ncd"):
            m[f"{stage}_epoch_ms.mean"] = statistics.fmean(
                scaled(r, x) for r in reps for x in r["epoch_ms"][stage])
        return m

    @staticmethod
    def layer_metrics(ok: list[dict], plain: list[dict]) -> dict[str, float]:
        traced = [r for r in ok if r["traced"]]
        if not traced:
            raise RuntimeError("no traced repetition completed")
        table = {k: statistics.median(r["layers"][k] for r in traced)
                 for k in traced[0]["layers"]}
        first = traced[0]
        table["training.ncd.epochs_run"] = first["ncd_epochs_run"]
        table["cli.artifact_bytes"] = first["artifact_bytes"]
        for k, v in first["acc"].items():
            table[f"metrics.{k}_acc"] = v
        for stage in ("pretrain", "ncd"):
            pooled = _pooled(plain, stage)
            table[f"{stage}_epoch_ms.p50"] = statistics.median(pooled)
            table[f"{stage}_epoch_ms.p90"] = statistics.quantiles(pooled, n=10)[8]
        table["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                                     - statistics.median(r["run_s"] for r in plain))
        return table


def _pooled(reps: list[dict], stage: str) -> list[float]:
    """Epoch intervals (ms) of one phase, pooled over repetitions."""
    return [x for r in reps for x in r["epoch_ms"][stage]]


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric names and units BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def _digests(stage_dir: Path) -> dict[str, str]:
    """What the determinism gate compares: CSVs, checkpoints and metrics.json
    without its timestamp line."""
    out = {}
    for f in sorted(stage_dir.iterdir()):
        if f.name == "metrics.json":
            data = "".join(line for line in f.read_text().splitlines(True)
                           if '"timestamp"' not in line).encode()
        elif f.suffix in (".csv", ".bin"):
            data = f.read_bytes()
        else:
            continue
        out[f.name] = hashlib.sha256(data).hexdigest()
    return out


def environment() -> dict:
    git_rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                                 capture_output=True, text=True, timeout=10)
            git_rev = rev.stdout.strip() if rev.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for f in sorted((ROOT / "src" / "graphncd").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return {"git_rev": git_rev, "src_sha256": h.hexdigest(),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": int(BLAS_THREADS)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "graphncd" / "cli.py").is_file():
        print(f"error: no graphncd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = environment()
    env["loadavg_before"] = os.getloadavg()
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(args.workload, args.seed, args.trace, work)
        bench.prepare()
        bench.measure(args.seconds)
        result = bench.result()
        env["versions"] = bench.reps[0].get("versions")
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_after"] = os.getloadavg()
    env["repetitions"] = len(bench.reps)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
