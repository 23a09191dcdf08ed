"""Loss terms against naive loop oracles plus closed-form hand cases."""
import os
import sys
import threading

import numpy as np
import pytest

import graphncd.autodiff as ad
import graphncd.ncd_losses as ncd_losses
from graphncd.autodiff import backward, constant, grad_check, parameter
from graphncd.ncd_losses import (PAIR_BLOCK, LossWeights, Prototypes, _unsaturated,
                                 assign_pseudo_labels, batch_sigma,
                                 compute_prototypes, distill_loss,
                                 loss_betas, pairwise_bce, pairwise_similarity,
                                 perturb_consistency_loss,
                                 perturb_representations, rampup, replay_loss,
                                 sample_prototype_batch, scheduled_total,
                                 self_training_loss, topk_groups,
                                 topk_pseudo_pairs)

ORACLE_TOL = 1e-12


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _softmax(rows):
    e = np.exp(rows - rows.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


# ------------------------------------------------------- pairwise similarity

def test_pairwise_similarity_matches_loop_oracle():
    rng = np.random.default_rng(0)
    u = rng.standard_normal((6, 3))
    s = pairwise_similarity(constant(u)).data
    for i in range(6):
        for j in range(6):
            assert abs(s[i, j] - _sigmoid(u[i] @ u[j])) < ORACLE_TOL


def test_pairwise_similarity_zero_logits_give_half():
    s = pairwise_similarity(constant(np.zeros((4, 2)))).data
    assert np.array_equal(s, np.full((4, 4), 0.5))


# ------------------------------------------------------------ rank statistics

def test_topk_pairs_hand_case():
    z = np.array([[3.0, 2.0, 1.0],
                  [1.0, 3.0, 2.0],
                  [3.0, 2.0, 0.0]])
    got = topk_pseudo_pairs(z, k=2)
    # top-2 index sets: {0,1}, {1,2}, {0,1} -> rows 0 and 2 pair up
    want = np.array([[1.0, 0.0, 1.0],
                     [0.0, 1.0, 0.0],
                     [1.0, 0.0, 1.0]])
    assert np.array_equal(got, want)


def test_topk_pairs_ties_break_to_lower_index():
    z = np.array([[1.0, 1.0, 0.0],     # top-1 is dim 0 (tie with dim 1)
                  [1.0, 0.0, 1.0],     # top-1 is dim 0 (tie with dim 2)
                  [0.0, 1.0, 1.0]])    # top-1 is dim 1 (tie with dim 2)
    got = topk_pseudo_pairs(z, k=1)
    want = np.array([[1.0, 1.0, 0.0],
                     [1.0, 1.0, 0.0],
                     [0.0, 0.0, 1.0]])
    assert np.array_equal(got, want)


def test_topk_pairs_matches_set_oracle():
    rng = np.random.default_rng(1)
    z = rng.standard_normal((10, 6))
    for k in (1, 3, 6):
        got = topk_pseudo_pairs(z, k)
        tops = [frozenset(np.argsort(-z[i], kind="stable")[:k].tolist())
                for i in range(10)]
        for i in range(10):
            for j in range(10):
                assert got[i, j] == float(tops[i] == tops[j])


def test_topk_pairs_symmetric_unit_diagonal():
    rng = np.random.default_rng(2)
    got = topk_pseudo_pairs(rng.standard_normal((8, 5)), 2)
    assert np.array_equal(got, got.T)
    assert np.array_equal(np.diag(got), np.ones(8))


def test_topk_pairs_k_out_of_range():
    with pytest.raises(ValueError):
        topk_pseudo_pairs(np.zeros((3, 4)), 0)
    with pytest.raises(ValueError):
        topk_pseudo_pairs(np.zeros((3, 4)), 5)


# ------------------------------------------------------------- pairwise BCE

def test_pairwise_bce_uniform_similarity_gives_ln2():
    s = pairwise_similarity(constant(np.zeros((5, 3))))
    y = topk_pseudo_pairs(np.random.default_rng(3).standard_normal((5, 3)), 2)
    loss = pairwise_bce(s, y)
    assert abs(loss.item() - np.log(2.0)) < ORACLE_TOL


def test_pairwise_bce_matches_loop_oracle():
    rng = np.random.default_rng(4)
    u = parameter(rng.standard_normal((7, 4)))
    y = topk_pseudo_pairs(rng.standard_normal((7, 4)), 2)
    loss = pairwise_bce(pairwise_similarity(u), y)
    s = _sigmoid(u.data @ u.data.T)
    sc = np.clip(s, 1e-12, 1 - 1e-12)
    want = -np.mean(y * np.log(sc) + (1 - y) * np.log(1 - sc))
    assert abs(loss.item() - want) < ORACLE_TOL


def test_pairwise_bce_diagonal_contributes():
    # all-zero labels on the diagonal raise the loss: n^2 ordered pairs count
    s = constant(np.full((2, 2), 0.5))
    all_ones = pairwise_bce(s, np.ones((2, 2))).item()
    no_diag = pairwise_bce(s, np.ones((2, 2)) - np.eye(2)).item()
    assert abs(all_ones - no_diag) < ORACLE_TOL   # symmetric at s = 0.5
    tilted = constant(np.array([[0.9, 0.5], [0.5, 0.9]]))
    assert pairwise_bce(tilted, np.ones((2, 2)) - np.eye(2)).item() > \
        pairwise_bce(tilted, np.ones((2, 2))).item()


def test_pairwise_bce_saturated_pairs_stay_finite():
    u = parameter(40.0 * np.eye(3))
    loss = pairwise_bce(pairwise_similarity(u), np.eye(3))
    assert np.isfinite(loss.item())
    (g,) = backward(loss, [u])
    assert np.all(np.isfinite(g))


def test_pairwise_bce_shape_checks():
    with pytest.raises(ValueError):
        pairwise_bce(constant(np.zeros((2, 3))), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        pairwise_bce(constant(np.zeros((2, 2))), np.zeros((3, 3)))
    # a mean over no pairs is undefined
    u = parameter(np.zeros((0, 3)))
    with pytest.raises(ValueError, match="non-empty"):
        pairwise_bce(pairwise_similarity(u), topk_pseudo_pairs(u.data, 1))


_EMPTY = np.zeros((0, 3))
_NO_ROWS = {
    "self_training": lambda: self_training_loss(parameter(_EMPTY), []),
    "replay": lambda: replay_loss(parameter(_EMPTY), []),
    "distill": lambda: distill_loss(constant(_EMPTY), parameter(_EMPTY)),
    "perturb_consistency":
        lambda: perturb_consistency_loss(parameter(_EMPTY), parameter(_EMPTY)),
    "batch_sigma": lambda: batch_sigma(_EMPTY),
}


# every mean over no rows is undefined: a ValueError, never numpy's NaN
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", list(_NO_ROWS))
def test_losses_of_no_rows_raise(name):
    with pytest.raises(ValueError):
        _NO_ROWS[name]()


def test_pairwise_bce_gradient():
    rng = np.random.default_rng(5)
    u = parameter(rng.standard_normal((5, 3)))
    y = topk_pseudo_pairs(rng.standard_normal((5, 3)), 1)
    f = lambda: pairwise_bce(pairwise_similarity(u), y)
    assert grad_check(f, [u]) < 1e-4


# ------------------------------------- closed-form pair ops vs the primitive chain

def _chain_similarity(u):
    return ad.sigmoid(ad.matmul(u, ad.transpose(u)))


def _chain_bce(s, y):
    """pairwise_bce as the chain of primitives it replaces."""
    n = s.shape[0]
    sc = ad.clamp(s, 1e-12, 1.0 - 1e-12)
    pos = ad.mul(ad.log(sc), constant(y))
    neg = ad.mul(ad.log(ad.add_scalar(ad.mul_scalar(sc, -1.0), 1.0)), constant(1.0 - y))
    return ad.mul_scalar(ad.sum(ad.add(pos, neg)), -1.0 / (n * n))


def _mixed_logits(rng, n):
    """Rows at scale 1 and at scale 40, so that some pairs saturate."""
    scale = np.where(rng.random((n, 1)) < 0.5, 1.0, 40.0)
    return rng.standard_normal((n, 3)) * scale


# nine row blocks, the last one short
SPLIT_N = 8 * PAIR_BLOCK + 3
BLOCK_EDGES = (1, PAIR_BLOCK - 1, PAIR_BLOCK, PAIR_BLOCK + 1, 2 * PAIR_BLOCK + 3, SPLIT_N)


@pytest.mark.parametrize("n", BLOCK_EDGES)
def test_pair_ops_match_the_primitive_chain(n):
    rng = np.random.default_rng(100 + n)
    logits = _mixed_logits(rng, n)
    y = topk_pseudo_pairs(rng.integers(0, 3, size=(n, 6)).astype(float), 2)
    u_new, u_old = parameter(logits.copy()), parameter(logits.copy())
    s_new, s_old = pairwise_similarity(u_new), _chain_similarity(u_old)
    assert np.abs(s_new.data - s_old.data).max() < ORACLE_TOL
    loss_new, loss_old = pairwise_bce(s_new, y), _chain_bce(s_old, y)
    assert abs(loss_new.item() - loss_old.item()) < ORACLE_TOL
    (g_new,), (g_old,) = backward(loss_new, [u_new]), backward(loss_old, [u_old])
    assert np.abs(g_new - g_old).max() < ORACLE_TOL


@pytest.mark.parametrize("n", BLOCK_EDGES)
def test_similarity_off_the_bce_route_raises_type_error(n):
    # a dense upstream gradient reaches the similarity by a route other than
    # pairwise_bce; its reference, the primitive chain, is checked above
    rng = np.random.default_rng(200 + n)
    u = parameter(_mixed_logits(rng, n))
    loss = ad.sum(ad.mul(pairwise_similarity(u), constant(rng.standard_normal((n, n)))))
    with pytest.raises(TypeError, match="only through pairwise_bce"):
        backward(loss, [u])


@pytest.mark.parametrize("n", BLOCK_EDGES)
def test_bce_of_a_free_similarity_raises_type_error(n):
    rng = np.random.default_rng(300 + n)
    s = parameter(ad.sigmoid(constant(_mixed_logits(rng, n) @ _mixed_logits(rng, n).T)).data)
    y = rng.random((n, n)) < 0.3
    with pytest.raises(TypeError, match="only the output of pairwise_similarity"):
        pairwise_bce(s, y)
    with pytest.raises(TypeError):
        pairwise_bce(_chain_similarity(parameter(np.ones((n, 2)))), y)


def _two_log_bce(s, y):
    """pairwise_bce's forward as the two-log sum it replaces, block for block."""
    n = s.shape[0]
    total = 0.0
    for i in range(0, n, PAIR_BLOCK):
        sc, yb = np.clip(s[i:i + PAIR_BLOCK], 1e-12, 1.0 - 1e-12), y[i:i + PAIR_BLOCK]
        total += (yb * np.log(sc) + (1.0 - yb) * np.log(1.0 - sc)).sum()
    return total * (-1.0 / (n * n))


@pytest.mark.parametrize("n", BLOCK_EDGES)
def test_bce_forward_is_bitwise_the_two_log_sum(n):
    rng = np.random.default_rng(400 + n)
    s = ad.sigmoid(constant(_mixed_logits(rng, n) @ _mixed_logits(rng, n).T)).data
    # both clamp edges and both saturated ends, under either target
    s.flat[rng.choice(n * n, size=min(n * n, 8), replace=False)] = \
        [0.0, 1e-300, 1e-12, 0.5, 1.0 - 1e-12, 1.0, 1.0, 0.0][:min(n * n, 8)]
    y = (rng.random((n, n)) < 0.3).astype(float)
    assert pairwise_bce(constant(s), y).item() == _two_log_bce(s, y)


@pytest.mark.parametrize("bad", [0.5, -1.0, 2.0, np.nan, np.inf])
def test_bce_rejects_targets_other_than_0_and_1(bad):
    y = np.eye(PAIR_BLOCK + 1)
    y[-1, 0] = bad                               # in the last row block
    with pytest.raises(ValueError, match="0 or 1"):
        pairwise_bce(constant(np.full(y.shape, 0.5)), y)


def test_bce_checks_targets_before_any_row_block(monkeypatch):
    n = 2 * PAIR_BLOCK + 3
    s = pairwise_similarity(parameter(np.random.default_rng(21).standard_normal((n, 3))))
    blocks = []
    row_blocks = ncd_losses._row_blocks
    # each block is recorded as the loop reaches it
    monkeypatch.setattr(ncd_losses, "_row_blocks",
                        lambda n: (blocks.append(r) or r for r in row_blocks(n)))
    y = np.eye(n)
    y[-1, 0] = 0.5                               # in the last row block
    with pytest.raises(ValueError, match="0 or 1"):
        pairwise_bce(s, y)
    assert blocks == []
    y[-1, 0] = 1.0
    pairwise_bce(s, y)
    assert len(blocks) == 3                      # the row blocks of n, run once


def test_bce_gradient_is_zero_exactly_on_saturated_pairs():
    # the mask the fused gradient is multiplied by, at and next to its edges
    lo, hi = 1e-12, 1.0 - 1e-12
    edge = np.array([0.0, 1e-300, lo, np.nextafter(lo, 1.0), 0.5,
                     np.nextafter(hi, 0.0), hi, np.nextafter(hi, 1.0), 1.0])
    want = [False, False, False, True, True, True, False, False, False]
    assert _unsaturated(edge).tolist() == want
    assert _unsaturated(edge.reshape(3, 3)).ravel().tolist() == want


def _count_saturation_scans(monkeypatch):
    calls = []
    scan = ncd_losses._unsaturated
    monkeypatch.setattr(ncd_losses, "_unsaturated",
                        lambda *args: calls.append(1) or scan(*args))
    return calls


def test_saturation_scan_runs_only_where_a_pair_can_saturate(monkeypatch):
    # three row blocks, on one thread: every squared row norm under 25 bounds
    # |u_i . u_j| under 25, whose logistic lies inside the clamp
    n = 2 * PAIR_BLOCK + 3
    rng = np.random.default_rng(31)
    y = topk_pseudo_pairs(rng.integers(0, 3, size=(n, 6)).astype(float), 2)
    bounded = rng.standard_normal((n, 3)) * 0.5
    bounded[7] = [np.nextafter(5.0, 0.0), 0.0, 0.0]     # just under the bound
    at_bound = bounded.copy()
    at_bound[7, 0] = 5.0
    nan_row = bounded.copy()
    nan_row[9, 1] = np.nan
    calls = _count_saturation_scans(monkeypatch)
    for logits, scans in ((bounded, 0), (at_bound, 3), (_mixed_logits(rng, n), 3),
                          (nan_row, 3)):
        calls.clear()
        u = parameter(logits)
        (got,) = backward(pairwise_bce(pairwise_similarity(u), y), [u])
        assert len(calls) == scans
        if scans == 0:
            u_chain = parameter(logits.copy())
            (want,) = backward(_chain_bce(_chain_similarity(u_chain), y), [u_chain])
            assert np.abs(got - want).max() < ORACLE_TOL
    # a constant similarity has no gradient to mask
    calls.clear()
    pairwise_bce(constant(pairwise_similarity(parameter(_mixed_logits(rng, n))).data), y)
    assert calls == []


# ---------------------------------------- the fused route to the novel logits

@pytest.mark.parametrize("n", BLOCK_EDGES)
def test_fused_bce_gradient_matches_the_general_route(n):
    rng = np.random.default_rng(500 + n)
    u = parameter(_mixed_logits(rng, n))
    y = topk_pseudo_pairs(rng.integers(0, 3, size=(n, 6)).astype(float), 2)
    s = pairwise_similarity(u)
    ran = []
    vjp = s._vjp
    s._vjp = lambda g: (ran.append(g), vjp(g))[1]
    loss = pairwise_bce(s, y)
    assert loss._parents == (u,)
    assert loss.item() == pairwise_bce(constant(s.data), y).item()
    (got,) = backward(loss, [u])
    assert not ran                         # the similarity's vjp never runs
    u_chain = parameter(u.data.copy())
    (want,) = backward(_chain_bce(_chain_similarity(u_chain), y), [u_chain])
    assert np.abs(got - want).max() < ORACLE_TOL


@pytest.mark.parametrize("n", (1, PAIR_BLOCK, PAIR_BLOCK + 1, 2 * PAIR_BLOCK + 3, SPLIT_N))
def test_bce_bool_targets_are_bitwise_the_float_ones(n):
    rng = np.random.default_rng(600 + n)
    logits = _mixed_logits(rng, n)
    y = topk_pseudo_pairs(rng.integers(0, 3, size=(n, 6)).astype(float), 2)
    assert y.dtype == bool
    results = []
    for target in (y, y.astype(np.float64)):
        u = parameter(logits.copy())
        fused = pairwise_bce(pairwise_similarity(u), target)
        results.append((fused.data, backward(fused, [u])[0]))
    for got, want in zip(*results):
        assert got.tobytes() == want.tobytes()


def test_fused_bce_gradient_is_zero_when_every_pair_saturates():
    rng = np.random.default_rng(23)
    n = 2 * PAIR_BLOCK + 3
    # |u_i . u_j| >= 3 * 40^2 for every pair, of either sign
    sign = rng.choice([-1.0, 1.0], size=(n, 1))
    u = parameter(40.0 * sign * (1.0 + rng.random((n, 3))))
    y = topk_pseudo_pairs(rng.standard_normal((n, 3)), 1)
    s = pairwise_similarity(u)
    assert np.all((s.data <= 1e-12) | (s.data >= 1.0 - 1e-12))
    loss = pairwise_bce(s, y)
    assert np.isfinite(loss.item())
    (g,) = backward(loss, [u])
    assert np.all(g == 0.0)


def test_bce_of_constant_logits_has_no_parents():
    u = constant(np.random.default_rng(24).standard_normal((9, 3)))
    loss = pairwise_bce(pairwise_similarity(u), np.eye(9))
    assert loss._parents == () and not loss.requires_grad


def test_fused_bce_keeps_no_state_between_calls():
    rng = np.random.default_rng(25)
    u = parameter(_mixed_logits(rng, PAIR_BLOCK + 1))
    y = topk_pseudo_pairs(rng.standard_normal((PAIR_BLOCK + 1, 4)), 2)
    s = pairwise_similarity(u)
    first, second = pairwise_bce(s, y), pairwise_bce(s, y)
    assert first.item() == second.item()
    assert np.array_equal(backward(first, [u])[0], backward(second, [u])[0])


def test_fused_route_survives_a_wrapper_that_swaps_the_vjp(monkeypatch):
    make = ad._make

    def wrapped(data, parents, vjp):
        out = make(data, parents, vjp)
        if out._vjp is not None:
            out._vjp = lambda g, inner=out._vjp: inner(g)
        return out

    monkeypatch.setattr(ad, "_make", wrapped)
    rng = np.random.default_rng(26)
    u = parameter(rng.standard_normal((7, 3)))
    loss = pairwise_bce(pairwise_similarity(u), np.eye(7))
    assert loss._parents == (u,)


# ------------------------------------------- row blocks on the calling thread

def _block_rows(out):
    """The first row of the row block ``out`` views in its similarity matrix."""
    return (out.ctypes.data - out.base.ctypes.data) // out.strides[0]


@pytest.mark.parametrize("parts", (1, 2, 3, 9))
def test_pair_ops_are_bitwise_the_same_in_any_number_of_parts(monkeypatch, parts):
    rng = np.random.default_rng(700)
    logits = _mixed_logits(rng, SPLIT_N)             # saturated rows included
    logits[5, 1] = np.nan
    y = topk_pseudo_pairs(rng.integers(0, 3, size=(SPLIT_N, 6)).astype(float), 2)

    def chain(target):
        u = parameter(logits.copy())
        s = pairwise_similarity(u)
        loss = pairwise_bce(s, target)
        return s.data, loss.data, backward(loss, [u])[0]

    want = [chain(target) for target in (y, y.astype(np.float64))]
    # however many CPUs the machine reports, every block runs on the calling thread
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(parts)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: parts)
    threads = threading.active_count()
    rows = []
    sigmoid = ad._stable_sigmoid

    def spy(x, out):
        rows.append((threading.get_ident(), _block_rows(out)))
        return sigmoid(x, out)

    monkeypatch.setattr(ad, "_stable_sigmoid", spy)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)                      # threads would trade the lock often
    try:
        got = [chain(target) for target in (y, y.astype(np.float64))]
    finally:
        sys.setswitchinterval(switch)
    for run, before in zip(got, want):
        for a, b in zip(run, before):
            assert a.tobytes() == b.tobytes()
    # each run's similarity: the calling thread ran all nine blocks, in order
    blocks = list(range(0, SPLIT_N, PAIR_BLOCK))
    assert rows == [(threading.get_ident(), r) for r in 2 * blocks]
    assert threading.active_count() == threads
    assert np.isnan(want[0][0]).any() and np.isnan(want[0][1]).all()

def _broadcast_topk_pairs(z, k):
    """topk_pseudo_pairs as the (n, n, k) key comparison it replaces."""
    key = np.sort(np.argsort(-z, axis=1, kind="stable")[:, :k], axis=1)
    return (key[:, None, :] == key[None, :, :]).all(axis=2).astype(np.float64)


def _stable_argsort_ids(z, k):
    """topk_groups as the per-row stable argsort and lexsort it replaces:
    ids number the sorted index tuples in lexicographic order."""
    key = np.sort(np.argsort(-z, axis=1, kind="stable")[:, :k], axis=1)
    order = np.lexsort(key.T[::-1])
    rows = key[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    gid = np.empty(len(rows), dtype=np.min_scalar_type(len(rows)))
    gid[order] = np.cumsum(new)
    return gid


@pytest.mark.parametrize("n", (0, 1, 50, 900))
def test_topk_group_ids_match_the_broadcast_comparison(n):
    # few distinct integer values, so ties and shared index sets are common
    d = 8
    z = np.random.default_rng(n).integers(0, 3, size=(n, d)).astype(float)
    for k in (1, 5, d):
        got = topk_pseudo_pairs(z, k)
        assert got.dtype == bool
        assert np.array_equal(got, _broadcast_topk_pairs(z, k))
        assert np.array_equal(topk_groups(z, k), _stable_argsort_ids(z, k))


@pytest.mark.parametrize("n", (255, 256, 300))
def test_topk_pairs_stay_exact_past_255_groups(n):
    # 10 of 20 dimensions: almost every row gets its own group, so the ids
    # reach n and need uint16 from n = 256 on
    z = np.random.default_rng(n).standard_normal((n, 20))
    gid = topk_groups(z, 10)
    assert gid.dtype == np.min_scalar_type(n)
    assert gid.max() > 250
    assert np.array_equal(gid, _stable_argsort_ids(z, 10))
    got = topk_pseudo_pairs(z, 10)
    assert got.dtype == bool
    assert np.array_equal(got, _broadcast_topk_pairs(z, 10))


@pytest.mark.parametrize("d", (8, 128))
def test_topk_groups_match_the_stable_argsort_oracle_on_special_values(d):
    # ties, -0.0 against 0.0, nan and +-inf, at every depth up to k = d; a
    # row's set takes the stable argsort of its negation, as the oracle does
    n = 60
    rng = np.random.default_rng(d)
    z = rng.integers(-1, 2, size=(n, d)).astype(float)
    z[::3] = rng.standard_normal((len(z[::3]), d))
    z[1] = 0.0
    z[1, ::2] = -0.0
    z[2, d // 2] = -0.0
    z[4, 3] = np.nan
    z[5, :] = np.nan
    z[7, 0], z[7, -1] = np.inf, -np.inf
    z[8, 2] = -np.inf
    z[10, 1:3] = np.inf
    z[11] = z[13] = rng.integers(-1, 2, size=d)            # equal rows
    z[12, :4] = [1e308, 1e308, -1e308, 1.0]               # a row sum overflows
    for k in sorted({1, 2, 5, d - 1, d}):
        gid = topk_groups(z, k)
        assert gid.dtype == np.uint8
        assert np.array_equal(gid, _stable_argsort_ids(z, k))
        assert np.array_equal(topk_pseudo_pairs(z, k), _broadcast_topk_pairs(z, k))
        assert gid[11] == gid[13]


def test_topk_groups_stay_exact_past_65535_rows():
    # the n x n pair matrix would take 4.9 GB here, so the ids are checked
    # against the oracle's and np.unique's labelling of the index sets instead
    n, d, k = 70_000, 24, 12
    z = np.random.default_rng(65536).standard_normal((n, d))
    gid = topk_groups(z, k)
    assert gid.dtype == np.uint32
    assert np.array_equal(gid, _stable_argsort_ids(z, k))
    key = np.sort(np.argsort(-z, axis=1, kind="stable")[:, :k], axis=1)
    _, inverse = np.unique(key, axis=0, return_inverse=True)
    groups = int(inverse.max()) + 1
    assert groups > 65_535
    # a bijection between the two labellings: equal ids exactly on equal sets
    assert len(set(zip(gid.tolist(), inverse.ravel().tolist()))) == groups
    assert sorted(set(gid.tolist())) == list(range(1, groups + 1))


# ------------------------------------------------------------- pseudo labels

def test_assign_pseudo_labels_offsets_and_breaks_ties_low():
    logits = np.array([[0.1, 0.9, 0.3],
                       [0.7, 0.7, 0.1],     # tie -> index 0
                       [0.0, 0.2, 0.8]])
    got = assign_pseudo_labels(logits, num_old=4)
    assert np.array_equal(got, [5, 4, 6])
    assert got.dtype == np.int64


def test_self_training_loss_uniform_gives_ln_classes():
    logits = constant(np.zeros((5, 7)))
    labels = np.array([0, 1, 2, 3, 6])
    assert abs(self_training_loss(logits, labels).item() - np.log(7.0)) < ORACLE_TOL


def test_self_training_loss_matches_loop_oracle():
    rng = np.random.default_rng(6)
    logits = rng.standard_normal((8, 5))
    labels = rng.integers(0, 5, size=8)
    got = self_training_loss(constant(logits), labels).item()
    p = _softmax(logits)
    want = -np.mean(np.log(p[np.arange(8), labels]))
    assert abs(got - want) < ORACLE_TOL


# ---------------------------------------------------------------- perturbation

def test_perturb_eta_zero_returns_same_tensor():
    z = parameter(np.ones((3, 2)))
    assert perturb_representations(z, 0.0, [1.0, 1.0], seed=0) is z
    assert perturb_representations(z, 0.5, [0.0, 0.0], seed=0) is z


def test_perturb_is_seeded_and_scaled():
    z = constant(np.zeros((20000, 2)))
    sigma = np.array([1.0, 2.0])
    a = perturb_representations(z, 0.5, sigma, seed=7).data
    b = perturb_representations(z, 0.5, sigma, seed=7).data
    assert np.array_equal(a, b)
    emp = a.std(axis=0)
    assert np.all(np.abs(emp - 0.5 * sigma) / (0.5 * sigma) < 0.02)


def test_perturb_gradient_skips_the_noise():
    # d(perturbed)/dz is the identity: the sampled offset is a constant
    rng = np.random.default_rng(8)
    z = parameter(rng.standard_normal((4, 3)))
    pert = perturb_representations(z, 0.3, [1.0, 1.0, 1.0], seed=9)
    (g,) = backward(ad.sum(ad.mul(pert, pert)), [z])
    assert np.allclose(g, 2.0 * pert.data, atol=1e-12)


def test_perturb_rejects_bad_sigma():
    z = constant(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        perturb_representations(z, 0.5, [1.0, 1.0], seed=0)
    with pytest.raises(ValueError):
        perturb_representations(z, 0.5, [1.0, -1.0, 1.0], seed=0)


def test_perturb_consistency_opposite_onehots_give_one():
    clean = constant(np.array([[40.0, -40.0], [40.0, -40.0]]))
    pert = constant(np.array([[-40.0, 40.0], [-40.0, 40.0]]))
    assert abs(perturb_consistency_loss(clean, pert).item() - 1.0) < ORACLE_TOL


def test_perturb_consistency_matches_formula():
    rng = np.random.default_rng(10)
    a, b = rng.standard_normal((6, 4)), rng.standard_normal((6, 4))
    got = perturb_consistency_loss(constant(a), constant(b)).item()
    want = np.mean((_softmax(a) - _softmax(b)) ** 2)
    assert abs(got - want) < ORACLE_TOL
    assert perturb_consistency_loss(constant(a), constant(a)).item() == 0.0
    with pytest.raises(ValueError, match=r"clean \(6, 4\) vs perturbed \(6, 3\)"):
        perturb_consistency_loss(constant(a), constant(b[:, :3]))


def test_batch_sigma_modes():
    rng = np.random.default_rng(11)
    z = rng.standard_normal((50, 3)) * np.array([1.0, 3.0, 0.0])
    emp = batch_sigma(z)
    assert np.allclose(emp[:2], z[:, :2].std(axis=0), atol=1e-12)
    assert emp[2] == 1.0                     # degenerate dimension falls back


# ------------------------------------------------------------------ prototypes

def test_compute_prototypes_hand_case():
    z = np.array([[1.0, 3.0], [3.0, 5.0]])
    protos = compute_prototypes(z, [0, 0], [0])
    assert np.array_equal(protos.mean, [[2.0, 4.0]])
    assert np.array_equal(protos.var, [[1.0, 1.0]])
    assert np.array_equal(protos.counts, [2])


def test_compute_prototypes_matches_loop_oracle():
    rng = np.random.default_rng(12)
    z = rng.standard_normal((30, 4))
    labels = rng.integers(0, 3, size=30)
    labels[:3] = [0, 1, 2]                   # every class non-empty
    protos = compute_prototypes(z, labels, [0, 1, 2])
    for i, c in enumerate([0, 1, 2]):
        rows = z[labels == c]
        assert np.allclose(protos.mean[i], rows.mean(axis=0), atol=ORACLE_TOL)
        assert np.allclose(protos.var[i],
                           ((rows - rows.mean(axis=0)) ** 2).mean(axis=0),
                           atol=ORACLE_TOL)
        assert protos.counts[i] == rows.shape[0]
    assert np.all(protos.var >= 0.0)


def test_compute_prototypes_missing_class_raises():
    with pytest.raises(ValueError):
        compute_prototypes(np.zeros((3, 2)), [0, 0, 1], [0, 1, 2])
    with pytest.raises(ValueError, match="3 rows but 2 labels"):
        compute_prototypes(np.zeros((3, 2)), [0, 1], [0, 1])


def test_prototypes_json_round_trip():
    rng = np.random.default_rng(13)
    protos = compute_prototypes(rng.standard_normal((20, 3)),
                                rng.integers(0, 2, size=20), [0, 1])
    back = Prototypes.from_dict(protos.to_dict())
    assert np.array_equal(back.mean, protos.mean)
    assert np.array_equal(back.var, protos.var)
    assert np.array_equal(back.class_ids, protos.class_ids)
    assert np.array_equal(back.counts, protos.counts)


def test_sample_prototype_batch_layout_and_determinism():
    protos = Prototypes(class_ids=np.array([4, 7]),
                        mean=np.array([[0.0, 0.0], [10.0, 10.0]]),
                        var=np.ones((2, 2)),
                        counts=np.array([5, 5]))
    feats, labels = sample_prototype_batch(protos, per_class=3, seed=14)
    assert feats.shape == (6, 2)
    assert np.array_equal(labels, [4, 4, 4, 7, 7, 7])   # class-major order
    again, _ = sample_prototype_batch(protos, per_class=3, seed=14)
    assert np.array_equal(feats, again)
    other, _ = sample_prototype_batch(protos, per_class=3, seed=15)
    assert not np.array_equal(feats, other)


def test_sample_prototype_batch_monte_carlo_moments():
    protos = Prototypes(class_ids=np.array([0]),
                        mean=np.array([[2.0, -1.0]]),
                        var=np.array([[4.0, 0.25]]),
                        counts=np.array([10]))
    feats, _ = sample_prototype_batch(protos, per_class=100000, seed=16)
    assert np.all(np.abs(feats.mean(axis=0) - [2.0, -1.0]) < 0.05)
    rel = np.abs(feats.std(axis=0) - [2.0, 0.5]) / np.array([2.0, 0.5])
    assert np.all(rel < 0.02)


def test_sample_prototype_batch_rejects_zero():
    protos = Prototypes(class_ids=np.array([0]), mean=np.zeros((1, 2)),
                        var=np.ones((1, 2)), counts=np.array([1]))
    with pytest.raises(ValueError):
        sample_prototype_batch(protos, per_class=0, seed=0)


# ---------------------------------------------------------------- replay/distill

def test_replay_loss_uniform_gives_ln_classes():
    logits = constant(np.zeros((4, 6)))
    assert abs(replay_loss(logits, [0, 1, 2, 0]).item() - np.log(6.0)) < ORACLE_TOL


def test_replay_loss_matches_loop_oracle():
    rng = np.random.default_rng(17)
    logits = rng.standard_normal((9, 5))
    labels = rng.integers(0, 3, size=9)      # replayed ids stay in old slots
    got = replay_loss(constant(logits), labels).item()
    p = _softmax(logits)
    want = -np.mean(np.log(p[np.arange(9), labels]))
    assert abs(got - want) < ORACLE_TOL


def test_distill_loss_matches_loop_oracle():
    rng = np.random.default_rng(18)
    zf, zc = rng.standard_normal((7, 4)), rng.standard_normal((7, 4))
    got = distill_loss(constant(zf), constant(zc)).item()
    want = np.mean(np.sqrt(((zf - zc) ** 2).sum(axis=1)))
    assert abs(got - want) < ORACLE_TOL
    assert distill_loss(constant(zf), constant(zf)).item() == 0.0


def test_distill_loss_gradient():
    rng = np.random.default_rng(19)
    zf = constant(rng.standard_normal((5, 3)))
    zc = parameter(rng.standard_normal((5, 3)))
    assert grad_check(lambda: distill_loss(zf, zc), [zc]) < 1e-4


def test_distill_loss_shape_check():
    with pytest.raises(ValueError):
        distill_loss(constant(np.zeros((2, 3))), constant(np.zeros((3, 3))))


# ------------------------------------------------------------------- schedule

def test_rampup_endpoints_and_monotonicity():
    assert abs(rampup(0, 80, 2.0) - 2.0 * np.exp(-5.0)) < ORACLE_TOL
    assert rampup(80, 80, 2.0) == 2.0
    assert rampup(200, 80, 2.0) == 2.0
    vals = [rampup(e, 80, 1.0) for e in range(81)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        rampup(0, 0, 1.0)


def test_loss_betas_follow_their_amplitudes():
    w = LossWeights(alpha1=0.1, alpha2=4.0, rampup_length=10)
    b1, b2 = loss_betas(w, 10)
    assert b1 == 0.1 and b2 == 4.0
    b1, b2 = loss_betas(w, 0)
    assert abs(b1 - 0.1 * np.exp(-5)) < ORACLE_TOL
    assert abs(b2 - 4.0 * np.exp(-5)) < ORACLE_TOL


def _scheduled_total_of(comps, w, epoch):
    """scheduled_total on plain floats, as (total, report)."""
    total, report = scheduled_total({k: constant([[v]]) for k, v in comps.items()},
                                    w, epoch)
    return total.item(), report


def test_total_loss_hand_case_fourteen():
    w = LossWeights(alpha1=1.0, alpha2=1.0, rampup_length=10, lam=1.0,
                    omega_fd=10.0)
    comps = dict(pseudo=1.0, self=1.0, perturb=1.0, replay=1.0, distill=1.0)
    total, report = _scheduled_total_of(comps, w, epoch=10)    # betas saturated at 1
    assert abs(total - 14.0) < ORACLE_TOL
    assert report["total"] == total
    assert report["beta1"] == 1.0 and report["beta2"] == 1.0


def test_total_loss_lambda_zero_drops_base_terms():
    w = LossWeights(alpha1=0.3, alpha2=2.0, rampup_length=5, lam=0.0)
    comps = dict(pseudo=0.7, self=0.4, perturb=0.9, replay=123.0, distill=456.0)
    total, _ = _scheduled_total_of(comps, w, epoch=2)
    b1, b2 = loss_betas(w, 2)
    assert abs(total - (0.7 + b1 * 0.4 + b2 * 0.9)) < ORACLE_TOL


def test_total_loss_matches_hand_composition_on_random_inputs():
    rng = np.random.default_rng(20)
    for trial in range(20):
        w = LossWeights(alpha1=rng.uniform(0, 1), alpha2=rng.uniform(0, 5),
                        rampup_length=int(rng.integers(1, 50)),
                        lam=rng.uniform(0, 2), omega_fd=rng.uniform(0, 20))
        comps = {k: float(rng.uniform(0, 3)) for k in
                 ("pseudo", "self", "perturb", "replay", "distill")}
        epoch = int(rng.integers(0, 60))
        total, report = _scheduled_total_of(comps, w, epoch)
        b1, b2 = loss_betas(w, epoch)
        want = (comps["pseudo"] + b1 * comps["self"] + b2 * comps["perturb"]
                + w.lam * (comps["replay"] + w.omega_fd * comps["distill"]))
        assert abs(total - want) < ORACLE_TOL
        for k in comps:
            assert report[k] == comps[k]


def _chain_total(terms, w, epoch):
    """scheduled_total's total as the add/mul_scalar chain it replaces."""
    b1, b2 = loss_betas(w, epoch)
    novel = ad.add(ad.add(terms["pseudo"], ad.mul_scalar(terms["self"], b1)),
                   ad.mul_scalar(terms["perturb"], b2))
    base = ad.add(terms["replay"], ad.mul_scalar(terms["distill"], w.omega_fd))
    return ad.add(novel, ad.mul_scalar(base, w.lam))


def test_scheduled_total_is_one_node_bitwise_the_primitive_chain():
    rng = np.random.default_rng(21)
    names = ("pseudo", "self", "perturb", "replay", "distill")
    zero = constant([[0.0]])
    for trial in range(40):
        w = LossWeights(alpha1=rng.uniform(0, 1), alpha2=rng.uniform(0, 5),
                        rampup_length=int(rng.integers(1, 50)),
                        lam=rng.uniform(0, 2), omega_fd=rng.uniform(0, 20))
        epoch = int(rng.integers(0, 60))
        # a disabled term is the constant zero, as ncd_train passes it
        on = rng.random(5) < 0.7
        values = rng.uniform(0, 3, 5) * 10.0 ** rng.integers(-8, 3, 5)
        terms = {k: parameter([[v]]) if o else zero for k, v, o in zip(names, values, on)}
        total, report = scheduled_total(terms, w, epoch)
        chain = _chain_total(terms, w, epoch)
        assert total._parents == tuple(terms[k] for k in names)
        assert total.data.tobytes() == chain.data.tobytes()
        assert report["total"] == chain.item()
        # under an upstream gradient other than 1 too
        live = [terms[k] for k, o in zip(names, on) if o]
        c = rng.uniform(-3, 3)
        for top, ref in ((total, chain), (ad.mul_scalar(total, c), ad.mul_scalar(chain, c))):
            for got, want in zip(backward(top, live), backward(ref, live), strict=True):
                assert got.tobytes() == want.tobytes()


def test_scheduled_total_gradient_is_each_terms_weight():
    w = LossWeights(alpha1=0.3, alpha2=2.0, rampup_length=5, lam=0.5, omega_fd=7.0)
    terms = {k: parameter([[v]]) for k, v in
             zip(("pseudo", "self", "perturb", "replay", "distill"),
                 (0.7, 0.4, 0.9, 1.1, 0.2))}
    total, report = scheduled_total(terms, w, epoch=2)
    b1, b2 = loss_betas(w, 2)
    grads = backward(total, list(terms.values()))
    weights = (1.0, b1, b2, w.lam, w.lam * w.omega_fd)
    for g, want in zip(grads, weights):
        assert abs(g.item() - want) < ORACLE_TOL
    assert report["total"] == total.item()
    assert report == _scheduled_total_of({k: t.item() for k, t in terms.items()}, w, 2)[1]
