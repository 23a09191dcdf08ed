"""tools/bench_pairs.py: the gain rule on fixed numbers (no benchmark is run)."""
import importlib.util
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
judge = bench_pairs.judge

PARENT = [25.8, 26.8, 25.8, 26.1, 25.5, 26.3, 26.0, 25.9, 26.6, 26.2]


def test_quartiles_of_fixed_numbers():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_clear_gain_holds():
    change = [x - 3.0 for x in PARENT]
    j = judge(PARENT, change, "lower")
    assert j["wins"] == 10 and j["pairs"] == 10 and j["holds"]
    assert j["parent"][1] == pytest.approx(26.05)
    assert j["change"][1] == pytest.approx(23.05)


def test_nine_of_ten_wins_suffice_eight_do_not():
    change = [x - 3.0 for x in PARENT]
    change[0] = PARENT[0] + 1.0
    assert judge(PARENT, change, "lower")["wins"] == 9
    assert judge(PARENT, change, "lower")["holds"]
    change[1] = PARENT[1]                      # a tie counts for neither side
    j = judge(PARENT, change, "lower")
    assert j["wins"] == 8 and not j["holds"]


def test_gap_within_parent_iqr_does_not_hold():
    change = [x - 0.05 for x in PARENT]        # wins every pair, by too little
    j = judge(PARENT, change, "lower")
    assert j["wins"] == 10 and not j["holds"]


def test_higher_is_better_and_too_few_pairs():
    acc = [0.80, 0.81, 0.79, 0.80, 0.82, 0.80, 0.81, 0.79, 0.80, 0.80]
    assert judge(acc, [a + 0.1 for a in acc], "higher")["holds"]
    assert not judge(acc, [a - 0.1 for a in acc], "higher")["holds"]
    assert judge(acc, [a - 0.1 for a in acc], "higher")["wins"] == 0
    j = judge(acc[:9], [a + 0.1 for a in acc[:9]], "higher")
    assert j["wins"] == 9 and not j["holds"]   # fewer than ten pairs


def test_unaligned_sides_are_rejected():
    with pytest.raises(ValueError):
        judge([1.0, 2.0], [1.0], "lower")
    with pytest.raises(ValueError):
        judge([], [], "lower")


METRICS = [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
           {"name": "ncd_epoch_ms.mean", "unit": "ms", "better": "lower", "bound": 0.25},
           {"name": "acc", "unit": "fraction", "better": "higher", "bound": 0.1}]


def test_verdict_block_names_the_metrics_with_a_worse_median():
    values = {"run_s": {"parent": PARENT, "change": [x - 3.0 for x in PARENT]},
              "ncd_epoch_ms.mean": {"parent": PARENT, "change": [x + 0.01 for x in PARENT]},
              "acc": {"parent": [0.8] * 10, "change": [0.7] * 10}}
    lines = bench_pairs.verdict("propagate", 0, METRICS, values)
    assert lines[0] == "propagate seed 0: median [q1, q3], parent -> change"
    assert lines[1].startswith("run_s (s, lower is better): 26.05 [")
    assert lines[1].endswith("change won 10/10; gain rule holds")
    assert lines[2].endswith("change won 0/10; gain rule does not hold")
    assert len(lines) == 1 + len(METRICS) + 1 + 2
    assert lines[-3] == ("propagate: change median worse than parent's: "
                         "ncd_epoch_ms.mean, acc")
    assert lines[-2] == "ncd_epoch_ms.mean: +0.04% against bound 25%: within bound"
    assert lines[-1] == "acc: -12.50% against bound 10%: regression"


def test_verdict_block_with_no_worse_median():
    same = {m["name"]: {"parent": PARENT, "change": list(PARENT)} for m in METRICS}
    lines = bench_pairs.verdict("desk", 1, METRICS, same)
    assert lines[-1] == "desk: change median worse than parent's: none"
    assert all("change won 0/10" in line for line in lines[1:-1])   # all ties


def test_regression_labels_on_fixed_numbers():
    regression = bench_pairs.regression
    # parent median 26.05, quartiles 25.8 / 26.375: spread 2.2% of the median
    rel, label = regression(judge(PARENT, [x * 1.3 for x in PARENT], "lower"), 0.25)
    assert rel == pytest.approx(0.3) and label == "regression"
    rel, label = regression(judge(PARENT, [x * 1.1 for x in PARENT], "lower"), 0.25)
    assert rel == pytest.approx(0.1) and label == "within bound"
    # a parent whose own quartiles lie 50% of its median apart cannot resolve 25%
    wide = [6.0, 10.0, 14.0, 10.0, 6.0, 14.0, 10.0, 8.0, 12.0, 10.0]
    rel, label = regression(judge(wide, [x * 1.1 for x in wide], "lower"), 0.25)
    assert rel == pytest.approx(0.1) and label == "unresolved"
    # a change beyond the bound is a regression however wide the parent spreads
    assert regression(judge(wide, [x * 1.5 for x in wide], "lower"), 0.25)[1] == "regression"
    # higher is better: a fall is negative and is judged by its size
    acc = [0.8] * 10
    rel, label = regression(judge(acc, [0.76] * 10, "higher"), 0.1)
    assert rel == pytest.approx(-0.05) and label == "within bound"
    assert regression(judge(acc, [0.6] * 10, "higher"), 0.1)[1] == "regression"
    # a worse change from a zero median is an infinite relative change
    rel, label = regression(judge([0.0] * 10, [1.0] * 10, "lower"), 0.25)
    assert rel == float("inf") and label == "regression"


def test_verdict_block_labels_only_the_worse_metrics():
    values = {"run_s": {"parent": PARENT, "change": [x * 1.3 for x in PARENT]},
              "ncd_epoch_ms.mean": {"parent": PARENT, "change": [x - 3.0 for x in PARENT]},
              "acc": {"parent": [0.8] * 10, "change": [0.8] * 10}}
    lines = bench_pairs.verdict("discover", 11, METRICS, values)
    assert lines[-2] == "discover: change median worse than parent's: run_s"
    assert lines[-1] == "run_s: +30.00% against bound 25%: regression"


def test_seed_list_parsing():
    assert bench_pairs.seed_list("0") == [0]
    assert bench_pairs.seed_list("0,11") == [0, 11]
    assert bench_pairs.seed_list(" 3, -1") == [3, -1]
    for bad in ("0,", ",11", "0,,11", "", "0, ", "a", "0,1.5"):
        with pytest.raises(bench_pairs.argparse.ArgumentTypeError):
            bench_pairs.seed_list(bad)


@pytest.mark.parametrize("seed", ["0,", "0,,11", "x"])
def test_bad_seed_list_exits_2_before_running(seed, monkeypatch, capsys):
    def no_run(*args):
        raise AssertionError("no benchmark may run")
    monkeypatch.setattr(bench_pairs, "run_bench", no_run)
    with pytest.raises(SystemExit) as e:
        bench_pairs.main(["parent", "change", "--workload", "desk", "--seed", seed,
                          "--pairs", "1", "--seconds", "1"])
    assert e.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--pairs", "0"), ("--pairs", "-3"),
    ("--seconds", "0"), ("--seconds", "-1"), ("--seconds", "nan"), ("--seconds", "inf"),
    ("--workload", "desk,nosuch"),
])
def test_a_pair_count_below_1_or_a_bad_duration_exits_2_before_running(
        flag, value, monkeypatch, capsys):
    def no_run(*args):
        raise AssertionError("no benchmark may run")
    monkeypatch.setattr(bench_pairs, "run_bench", no_run)
    argv = {"--workload": "desk", "--pairs": "1", "--seconds": "1", flag: value}
    with pytest.raises(SystemExit) as e:
        bench_pairs.main(["parent", "change", "--seed", "0",
                          *(x for kv in argv.items() for x in kv)])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert flag in err
    if flag == "--workload":
        assert "unknown workload 'nosuch'" in err


def test_every_seed_runs_every_workload(monkeypatch, capsys):
    calls = []

    def fake_run(tree, workload, seed, seconds):
        calls.append((tree.name, workload, seed))
        metrics = {m["name"]: {"value": 1.0} for m in bench_pairs.json.loads(
            bench_pairs._SPEC.read_text())["end_to_end"]}
        return {"failed": 0, "metrics": metrics}
    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    assert bench_pairs.main(["parent", "change", "--workload", "desk,discover",
                             "--seed", "0,11", "--pairs", "1", "--seconds", "1"]) == 0
    assert calls == [("parent", "desk", 0), ("change", "desk", 0),
                     ("parent", "discover", 0), ("change", "discover", 0),
                     ("parent", "desk", 11), ("change", "desk", 11),
                     ("parent", "discover", 11), ("change", "discover", 11)]
    out = capsys.readouterr().out
    assert "desk seed 0: median" in out and "discover seed 11: median" in out


RUN_OUTPUT = """\
{"rep": 0, "wall_s": 0.61}
{"env": {"git_rev": null, "nproc": 2, "cpus_usable": 2, "blas_threads": 1}}
{"workload": "discover", "failed": 0, "metrics": {"run_s": {"value": 0.6}}}
"""


def test_read_run_attaches_the_env_line_to_the_result():
    r = bench_pairs.read_run(RUN_OUTPUT)
    assert r["failed"] == 0 and r["metrics"]["run_s"]["value"] == 0.6
    assert r["env"]["cpus_usable"] == 2
    bare = bench_pairs.read_run(RUN_OUTPUT.splitlines()[-1])
    assert "env" not in bare
    assert bench_pairs.read_run("") is None and bench_pairs.read_run("\n") is None
