"""One graphncd CLI call in a fresh process, with the bench's hooks installed.

    python3 perfbench/worker.py SPEC.json

SPEC holds ``argv`` (the CLI arguments), ``trace`` (0: stage and epoch
hooks only, 1: full span tracing) and ``result`` (where to write the JSON
result). A fresh process per run gives each run its own ``ru_maxrss``.

Before and after the call the worker times a fixed reference workload that
does not touch graphncd (``reference_seconds``), so the parent can tell how
fast the machine was while the run went.
"""
from __future__ import annotations

import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def versions() -> dict:
    import numpy
    import scipy

    out = {"python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        out["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        out["blas"] = "unknown"
    return out


class Reference:
    """Sparse products, dense elementwise math and an interpreter loop: the
    three kinds of work graphncd does, on fixed inputs, in plain numpy and
    scipy."""

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp

        rng = np.random.default_rng(0)
        n, nnz = 3000, 90_000
        self.m = sp.csr_matrix((rng.random(nnz), (rng.integers(0, n, nnz),
                                                  rng.integers(0, n, nnz))),
                               shape=(n, n))
        self.x = rng.standard_normal((n, 32))
        self.a = rng.standard_normal((400, 400))
        self.np = np

    def seconds(self) -> float:
        np = self.np
        t = time.perf_counter()
        for _ in range(6):
            self.m.T @ (self.m @ self.x)
            np.log1p(np.exp(-np.abs(self.a @ self.a.T * 1e-3)))
            acc = 0
            for i in range(30_000):
                acc += i * i
        return time.perf_counter() - t


def run(spec: dict) -> dict:
    from graphncd import cli

    import spans

    ref = Reference()
    ref_before = ref.seconds()
    rec = spans.Recorder()
    install = spans.install_trace_hooks if spec["trace"] else spans.install_stage_hooks
    hooks = install(rec)
    error = None
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        code = cli.main(spec["argv"])
    except Exception:  # reported to the parent as a failed run
        code, error = None, traceback.format_exc()
    run_s = time.perf_counter() - t0
    cpu_s = time.process_time() - c0
    hooks.remove()
    ref_after = ref.seconds()
    result = {
        "code": code, "error": error, "stage_codes": rec.stage_codes,
        "run_s": run_s, "cpu_s": cpu_s, "setup_s": spans.setup_seconds(rec),
        "reference_s": (ref_before + ref_after) / 2,
        "epoch_ms": spans.epoch_intervals_ms(rec),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": versions(),
    }
    if spec["trace"]:
        result["layers"] = spans.layer_table(rec)
    return result


def main(argv: list[str]) -> int:
    with open(argv[1], "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run(spec)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
