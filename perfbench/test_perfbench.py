"""Checks on the benchmark itself: ``python3 -m pytest perfbench``.

Tracing must not perturb the program, and the span tree must account for
every second of a stage's wall time.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import spans  # noqa: E402
from graphncd import cli, training  # noqa: E402

# the desk workload with short budgets, so a run takes well under a second
SMALL = bench.WORKLOADS["desk"]["config"] + (
    "pretrain_epochs = 12\nncd_epochs = 12\npatience = 12\nrampup_length = 4\n"
    "seed = 3\n")


def _run(tmp: Path, name: str, install) -> tuple[spans.Recorder, Path]:
    cfg = tmp / "small.cfg"
    cfg.write_text(SMALL)
    out = tmp / name
    rec = spans.Recorder()
    hooks = install(rec) if install else None
    try:
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    finally:
        if hooks:
            hooks.remove()
    return rec, out


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench")
    plain = _run(tmp, "plain", None)
    traced = _run(tmp, "traced", spans.install_trace_hooks)
    return plain, traced


def test_traced_run_is_byte_identical_to_untraced(runs):
    (_, plain), (_, traced) = runs
    for stage in bench.STAGES:
        a = bench._digests(plain / stage)
        assert a, f"no compared artifacts in {stage}"
        assert a == bench._digests(traced / stage), stage


def test_hooks_are_removed(runs):
    assert training.pairwise_bce.__module__ == "graphncd.ncd_losses"
    assert not hasattr(training.pairwise_bce, "__wrapped__")
    assert not hasattr(cli.cmd_ncd, "__wrapped__")


def test_self_times_add_up_to_stage_walls(runs):
    (rec, _) = runs[1]
    selfs = rec.self_times()
    assert min(selfs) >= -1e-9
    for stage in bench.STAGES:
        (root,) = rec.spans(f"cli.cmd_{stage}")
        tree = [i for i in range(len(rec.names))
                if i == root or root in rec.ancestors(i)]
        assert len(tree) > 1
        assert sum(selfs[i] for i in tree) == pytest.approx(rec.duration(root),
                                                            abs=1e-6)


def test_layer_table_covers_declared_metrics(runs):
    (rec, _) = runs[1]
    table = spans.layer_table(rec)
    # filled in by the parent from the run's artifacts and the untraced runs
    parent = {"training.ncd.epochs_run", "cli.artifact_bytes", "metrics.old_acc",
              "metrics.new_acc", "metrics.all_acc", "pretrain_epoch_ms.p50",
              "ncd_epoch_ms.p50", "pretrain_epoch_ms.p90", "ncd_epoch_ms.p90",
              "trace.overhead_s"}
    assert set(table) | parent == set(bench.declared_metrics(1))
    assert table["ncd_losses.pairs_per_epoch"] == 120 ** 2  # 60% of 2 x 100 nodes
    assert table["optim.adam_step.calls"] == 24
    assert table["models.encode.calls_per_pretrain_epoch"] == 25 / 12
    for name, value in table.items():
        if name.endswith((".s", "_s")):
            assert value > 0.0, name


def test_epoch_hooks_give_one_interval_per_epoch_step(runs):
    (rec, _) = runs[1]
    intervals = spans.epoch_intervals_ms(rec)
    assert len(intervals["pretrain"]) == 11
    assert len(intervals["ncd"]) == 11
    assert spans.setup_seconds(rec) > 0.0


def test_bench_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "desk", "--seed", "0", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
