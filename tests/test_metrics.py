"""Assignment matching, joint evaluation, retention metrics, CSV round-trips."""
import csv
import dataclasses
import itertools

import numpy as np
import pytest

import graphncd.autodiff as ad
from graphncd import cli
from graphncd.config import RunConfig
from graphncd.graph import ClassSplit, build_graph, operator_for
from graphncd.metrics import (MetricsReport, _assignment_cost, aa_af, evaluate_joint,
                              hungarian_match, joint_predictions)
from graphncd.models import EncoderInput, EncoderParams, HeadParams, encode
from graphncd.training import ModelState


def brute_force_match(cost):
    """Exhaustive minimum; first optimal permutation in lexicographic order."""
    c = np.asarray(cost, dtype=np.float64)
    n = c.shape[0]
    best_perm, best_val = None, np.inf
    for perm in itertools.permutations(range(n)):
        val = sum(c[i, perm[i]] for i in range(n))
        if val < best_val - 1e-12:
            best_val, best_perm = val, perm
    return list(best_perm)


# ----------------------------------------------------------------- matching

def test_hungarian_matches_brute_force_integer_matrices():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(1, 8))
        c = rng.integers(0, 10, size=(n, n)).astype(float)
        assert hungarian_match(c) == brute_force_match(c)


def test_hungarian_matches_brute_force_float_matrices():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        c = rng.standard_normal((n, n))
        assert hungarian_match(c) == brute_force_match(c)


def test_hungarian_lexicographic_tie_break():
    # every assignment costs 2: the identity must win
    assert hungarian_match(np.ones((3, 3))) == [0, 1, 2]
    # two optimal: (0,1) and (1,0); lexicographically smaller starts with 0
    c = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert hungarian_match(c) == [1, 0]        # unique optimum, cost 0
    assert hungarian_match(np.zeros((2, 2))) == [0, 1]


def test_hungarian_rejects_bad_input():
    with pytest.raises(ValueError):
        hungarian_match(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        hungarian_match(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        hungarian_match(np.array([[0.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        hungarian_match(np.zeros(3))
    with pytest.raises(ValueError):
        hungarian_match([[1.0, 2.0]])
    # finite, but the sums overflow: no optimal completion is ever found
    with pytest.raises(ValueError):
        hungarian_match([[1.7e308, -1.7e308], [-1.7e308, 1.7e308]])


def test_hungarian_edge_cases():
    assert hungarian_match(np.zeros((0, 0))) == []
    assert hungarian_match([[5.0]]) == [0]
    assert hungarian_match([[1e300, -1e300], [0.0, 1.0]]) == [1, 0]
    assert hungarian_match([[1, 2], [3, 4]]) == [0, 1]


def test_assignment_cost_matches_scipy():
    # scipy is the reference only: the package itself does not import scipy.optimize
    from scipy.optimize import linear_sum_assignment
    rng = np.random.default_rng(7)
    kinds = [lambda n: rng.integers(0, 4, size=(n, n)).astype(float),   # heavy ties
             lambda n: -rng.integers(0, 51, size=(n, n)).astype(float),  # -contingency
             lambda n: rng.standard_normal((n, n))]
    checked = 0
    for n in range(1, 13):
        for make in kinds:
            for _ in range(56):
                c = make(n)
                rows, cols = linear_sum_assignment(c)
                want = float(c[rows, cols].sum())
                got = _assignment_cost(c.tolist())
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (c, got, want)
                checked += 1
    assert checked >= 2000


def test_assignment_cost_stops_when_its_sums_overflow():
    # reduced costs turn inf/NaN; the solver must return, not loop
    big = 1.7e308
    c = [[big, big, -big], [-big, 0.0, 0.0], [big, big, -big]]
    assert _assignment_cost(c) == np.inf


# --------------------------------------------------------------------- aa/af

def test_aa_af_phase_one():
    aa, af = aa_af(np.array([[0.9]]), 1)
    assert aa == 0.9 and af == 0.0


def test_aa_af_hand_case_exact():
    perf = np.array([[90.0, np.nan], [70.0, 60.0]])
    aa, af = aa_af(perf, 2)
    assert aa == 65.0
    assert af == -20.0


def test_aa_af_three_stage():
    perf = np.array([[0.9, np.nan, np.nan],
                     [0.8, 0.7, np.nan],
                     [0.75, 0.6, 0.5]])
    aa, af = aa_af(perf, 3)
    assert abs(aa - np.mean([0.75, 0.6, 0.5])) < 1e-15
    assert abs(af - np.mean([0.75 - 0.9, 0.6 - 0.7])) < 1e-15


def test_aa_af_phase_out_of_range():
    with pytest.raises(ValueError):
        aa_af(np.array([[0.5]]), 2)


# ------------------------------------------------------------ joint evaluation

def _stub_state(logit_rows, num_old):
    """Edgeless graph + identity feature pipeline: logits equal logit_rows."""
    w = np.asarray(logit_rows, dtype=np.float64)
    n, total = w.shape
    enc = EncoderParams(backbone="gcn", dims=[n, total],
                        weights=[ad.parameter(w)],
                        biases=[ad.parameter(np.zeros((1, total)))])
    old = HeadParams(weight=ad.parameter(np.eye(total)[:, :num_old]),
                     bias=ad.parameter(np.zeros((1, num_old))))
    joint = HeadParams(weight=ad.parameter(np.eye(total)),
                       bias=ad.parameter(np.zeros((1, total))))
    state = ModelState(encoder=enc, old_head=old, joint_head=joint)
    g = build_graph(n, np.zeros((0, 2)), np.eye(n), [0] * n)
    return state, g


def _forward(state, g):
    """The encoder's full forward on g, which evaluate_joint reads."""
    return encode(state.encoder, EncoderInput.build("gcn", operator_for("gcn", g),
                                                    ad.constant(g.features)))


def test_joint_predictions_argmax_over_all_slots():
    logits = [[5.0, 0.0, 0.0, 0.0],
              [0.0, 0.0, 7.0, 0.0],
              [0.0, 1.0, 0.0, 2.0]]
    state, g = _stub_state(logits, num_old=2)
    assert np.array_equal(joint_predictions(state, g), [0, 2, 3])


def test_evaluate_joint_hand_case():
    # labels [0,0,2,3], old {0,1}, new {2,3}, slot preds [0,1,2,2]
    logits = [[9.0, 0.0, 0.0, 0.0],
              [0.0, 9.0, 0.0, 0.0],
              [0.0, 0.0, 9.0, 0.0],
              [0.0, 0.0, 9.0, 5.0]]
    state, g = _stub_state(logits, num_old=2)
    g = build_graph(4, np.zeros((0, 2)), np.eye(4), [0, 0, 2, 3])
    split = ClassSplit(old_classes=[0, 1], new_classes=[2, 3],
                       p1_test=[0, 1], p2_test=[2, 3], all_test=[0, 1, 2, 3])
    for mode in ("positional", "hungarian"):
        rep = evaluate_joint(state, g, split, _forward(state, g), novel_alignment=mode)
        assert rep.old_acc == 0.5
        assert rep.new_acc == 0.5
        assert rep.all_acc == 0.5
        assert rep.phase == 2
    assert rep.class_order == [0, 1, 2, 3]
    # phase 2 without the phase-1 accuracy: no stage matrix
    assert rep.perf is None and rep.aa is None and rep.af is None
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.aa = 0.5
    full = evaluate_joint(state, g, split, _forward(state, g), phase1_old_acc=0.75)
    assert full.perf[0, 0] == 0.75 and np.isnan(full.perf[0, 1])
    assert full.perf[1].tolist() == [0.5, 0.5]
    assert full.aa == 0.5 and full.af == -0.25
    # confusion rows: true 0 -> pred {0,1}; true 2 -> pred 2; true 3 -> pred 2
    assert np.array_equal(rep.confusion, [[1, 1, 0, 0],
                                          [0, 0, 0, 0],
                                          [0, 0, 1, 0],
                                          [0, 0, 1, 0]])


def test_evaluate_joint_constant_old_predictor():
    # always predicts old class 0: new_acc 0, old_acc = share of class 0
    logits = [[9.0, 0.0, 0.0, 0.0]] * 5
    state, _ = _stub_state(logits, num_old=2)
    g = build_graph(5, np.zeros((0, 2)), np.eye(5), [0, 1, 1, 2, 3])
    split = ClassSplit(old_classes=[0, 1], new_classes=[2, 3],
                       p1_test=[0, 1, 2], p2_test=[3, 4], all_test=[0, 1, 2, 3, 4])
    rep = evaluate_joint(state, g, split, _forward(state, g))
    assert rep.new_acc == 0.0
    assert abs(rep.old_acc - 1.0 / 3.0) < 1e-15
    assert abs(rep.all_acc - 1.0 / 5.0) < 1e-15


def test_hungarian_alignment_repairs_swapped_clusters():
    # novel slots fire consistently but swapped relative to class order
    logits = [[9.0, 0.0, 0.0, 0.0],
              [0.0, 0.0, 0.0, 9.0],     # label 2 lands in slot 3
              [0.0, 0.0, 0.0, 9.0],
              [0.0, 0.0, 9.0, 0.0],     # label 3 lands in slot 2
              [0.0, 0.0, 9.0, 0.0]]
    state, _ = _stub_state(logits, num_old=2)
    g = build_graph(5, np.zeros((0, 2)), np.eye(5), [0, 2, 2, 3, 3])
    split = ClassSplit(old_classes=[0, 1], new_classes=[2, 3],
                       p1_test=[0], p2_test=[1, 2, 3, 4],
                       all_test=[0, 1, 2, 3, 4])
    swapped = evaluate_joint(state, g, split, _forward(state, g), novel_alignment="positional")
    assert swapped.new_acc == 0.0
    fixed = evaluate_joint(state, g, split, _forward(state, g), novel_alignment="hungarian")
    assert fixed.new_acc == 1.0
    assert fixed.old_acc == swapped.old_acc == 1.0
    with pytest.raises(ValueError, match="unknown novel alignment 'nearest'"):
        evaluate_joint(state, g, split, _forward(state, g), novel_alignment="nearest")


def test_evaluate_joint_phase_one_uses_old_head():
    logits = [[3.0, 0.0], [0.0, 3.0], [3.0, 0.0]]
    w = np.asarray(logits)
    enc = EncoderParams(backbone="gcn", dims=[3, 2],
                        weights=[ad.parameter(w)],
                        biases=[ad.parameter(np.zeros((1, 2)))])
    old = HeadParams(weight=ad.parameter(np.eye(2)),
                     bias=ad.parameter(np.zeros((1, 2))))
    state = ModelState(encoder=enc, old_head=old)
    g = build_graph(3, np.zeros((0, 2)), np.eye(3), [0, 1, 1])
    split = ClassSplit(old_classes=[0, 1], new_classes=[2],
                       p1_test=[0, 1, 2], p2_test=[], all_test=[0, 1, 2])
    rep = evaluate_joint(state, g, split, _forward(state, g))
    assert rep.phase == 1
    assert abs(rep.old_acc - 2.0 / 3.0) < 1e-15
    assert rep.perf.tolist() == [[rep.old_acc]] and rep.aa == rep.old_acc and rep.af == 0.0


# ----------------------------------------------------------------------- CSV

def _write_report(tmp_path, confusion, order, perf=None):
    """Write a report through the stage writer the CLI uses; return its CSVs."""
    rep = MetricsReport(old_acc=0.5, new_acc=0.5, all_acc=0.5,
                        confusion=confusion, class_order=order, perf=perf)
    stage = cli._Stage(rc=RunConfig(out=str(tmp_path)), g=None, split=None, inp=None,
                       dataset_hash="", split_hash="", config_hash="")
    stage.write_metrics(rep)

    def rows(name):
        with open(str(tmp_path / name), "r", encoding="utf-8", newline="") as fh:
            return list(csv.reader(fh))
    return {n: rows(n) for n in stage.artifacts if n.endswith(".csv")}


def test_confusion_csv_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    confusion = rng.integers(0, 50, size=(5, 5)).astype(np.int64)
    order = [0, 1, 2, 5, 9]
    csvs = _write_report(tmp_path, confusion, order)
    assert set(csvs) == {"confusion.csv"}
    rows = csvs["confusion.csv"]
    assert rows[0] == ["true\\pred", *map(str, order)]
    back = np.array([[int(v) for v in r[1:]] for r in rows[1:]], dtype=np.int64)
    assert np.array_equal(back, confusion)
    assert [int(r[0]) for r in rows[1:]] == order


def test_perf_csv_round_trip_preserves_triangle(tmp_path):
    perf = np.array([[0.912345678901234, np.nan],
                     [0.7, 0.6123456789]])
    csvs = _write_report(tmp_path, np.zeros((2, 2), dtype=np.int64), [0, 1], perf)
    rows = csvs["perf_matrix.csv"]
    assert rows[0] == ["stage", "task1", "task2"]
    assert rows[1][0] == "1" and rows[2][0] == "2"
    assert float(rows[1][1]) == perf[0, 0]
    assert float(rows[2][1]) == perf[1, 0] and float(rows[2][2]) == perf[1, 1]
    assert rows[1][2] == ""                      # upper triangle left empty
    text = (tmp_path / "perf_matrix.csv").read_text()
    assert text.splitlines()[1].endswith(",")
