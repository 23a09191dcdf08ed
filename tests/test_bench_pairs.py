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
