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


METRICS = [{"name": "run_s", "unit": "s", "better": "lower"},
           {"name": "ncd_epoch_ms.mean", "unit": "ms", "better": "lower"},
           {"name": "acc", "unit": "fraction", "better": "higher"}]


def test_verdict_block_names_the_metrics_with_a_worse_median():
    values = {"run_s": {"parent": PARENT, "change": [x - 3.0 for x in PARENT]},
              "ncd_epoch_ms.mean": {"parent": PARENT, "change": [x + 0.01 for x in PARENT]},
              "acc": {"parent": [0.8] * 10, "change": [0.7] * 10}}
    lines = bench_pairs.verdict("propagate", 0, METRICS, values)
    assert lines[0] == "propagate seed 0: median [q1, q3], parent -> change"
    assert lines[1].startswith("run_s (s, lower is better): 26.05 [")
    assert lines[1].endswith("change won 10/10; gain rule holds")
    assert lines[2].endswith("change won 0/10; gain rule does not hold")
    assert len(lines) == 1 + len(METRICS) + 1
    assert lines[-1] == ("propagate: change median worse than parent's: "
                         "ncd_epoch_ms.mean, acc")


def test_verdict_block_with_no_worse_median():
    same = {m["name"]: {"parent": PARENT, "change": list(PARENT)} for m in METRICS}
    lines = bench_pairs.verdict("desk", 1, METRICS, same)
    assert lines[-1] == "desk: change median worse than parent's: none"
    assert all("change won 0/10" in line for line in lines[1:-1])   # all ties
