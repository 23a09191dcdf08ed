"""Finite-difference checks and graph semantics for the autodiff core."""
import ast
import concurrent.futures as cf
import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import graphncd.autodiff as ad
from graphncd.autodiff import (SparseMatrix, Tensor, backward, constant,
                               grad_check, parameter)
from graphncd.graph import (build_graph, mean_adjacency, normalize_adjacency, sbm_generate,
                            split_classes)
from graphncd.optim import adam_init, adam_step

TOL = 1e-4


def _p(rng, rows, cols, scale=1.0):
    return parameter(scale * rng.standard_normal((rows, cols)))


# ---------------------------------------------------------------- shapes

def test_tensor_shapes_normalize():
    assert Tensor(3.0).shape == (1, 1)
    assert Tensor([1.0, 2.0, 3.0]).shape == (1, 3)
    assert Tensor([[1.0], [2.0]]).shape == (2, 1)
    with pytest.raises(ValueError):
        Tensor(np.zeros((2, 2, 2)))


def test_item_requires_scalar():
    with pytest.raises(ValueError):
        Tensor([[1.0, 2.0]]).item()
    assert Tensor([[4.5]]).item() == 4.5


def test_add_rejects_incompatible_shapes():
    # and every other op's operand check: (exception, message fragment, call)
    a, b = constant(np.zeros((2, 3))), constant(np.zeros((3, 3)))
    col, row = constant(np.zeros((3, 1))), constant(np.zeros((1, 4)))
    cases = [
        (ValueError, "add shape mismatch", lambda: ad.add(a, b)),
        # only a (1, d) or (1, 1) operand broadcasts, and only against (n, d)
        (ValueError, "add shape mismatch", lambda: ad.add(col, row)),
        (ValueError, "mul shape mismatch", lambda: ad.mul(col, constant(np.zeros((3, 4))))),
        (ValueError, "sub shape mismatch", lambda: ad.sub(a, b)),
        (ValueError, "mul shape mismatch", lambda: ad.mul(a, b)),
        (ValueError, "matmul shape mismatch", lambda: ad.matmul(a, a)),
        (ValueError, "affine shape mismatch", lambda: ad.affine(a, a, row)),
        # the bias is one row as wide as the product
        (ValueError, "affine shape mismatch", lambda: ad.affine(a, b, row)),
        (ValueError, "affine shape mismatch", lambda: ad.affine(a, b, a)),
        (ValueError, "spmm shape mismatch",
         lambda: ad.spmm(SparseMatrix(np.eye(2)), b)),
        (ValueError, "concat_rows needs equal row counts", lambda: ad.concat_rows(a, b)),
        (ValueError, "mse shape mismatch", lambda: ad.mse(a, b)),
        (ValueError, "2 rows but 1 labels", lambda: ad.nll_rows(a, [0])),
        (ValueError, "label out of range", lambda: ad.nll_rows(a, [0, 3])),
        (ValueError, "clamp needs lo < hi", lambda: ad.clamp(a, 1.0, 1.0)),
        (TypeError, "expected Tensor, got ndarray", lambda: ad.add(a, np.zeros((2, 3)))),
        (ValueError, "backward needs a scalar loss", lambda: backward(a, [])),
    ]
    for exc, fragment, call in cases:
        with pytest.raises(exc, match=fragment):
            call()


def test_log_rejects_nonpositive():
    with pytest.raises(ValueError):
        ad.log(constant([[1.0, 0.0]]))


# ------------------------------------------------------- per-op gradients

def test_matmul_grad():
    rng = np.random.default_rng(0)
    a, b = _p(rng, 3, 4), _p(rng, 4, 2)
    assert grad_check(lambda: ad.sum(ad.matmul(a, b)), [a, b]) < TOL


def test_matmul_vjp_skips_constant_operands():
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
    g = rng.standard_normal((3, 2))
    for grad_a, grad_b in ((True, False), (False, True), (True, True)):
        ga, gb = ad.matmul(Tensor(a, grad_a), Tensor(b, grad_b))._vjp(g)
        assert ga is None if not grad_a else np.array_equal(ga, g @ b.T)
        assert gb is None if not grad_b else np.array_equal(gb, a.T @ g)
    # the gradient that is kept is bitwise the full vjp's
    w = parameter(b)
    (gw,) = backward(ad.sum(ad.matmul(constant(a), w)), [w])
    assert np.array_equal(gw, a.T @ np.ones((3, 2)))


def test_affine_grad_with_a_broadcast_bias():
    rng = np.random.default_rng(4)
    h, w, b = _p(rng, 5, 4), _p(rng, 4, 3), _p(rng, 1, 3)
    weights = constant(rng.uniform(0.5, 1.5, (5, 3)))
    assert grad_check(lambda: ad.sum(ad.mul(ad.affine(h, w, b), weights)), [h, w, b]) < TOL


@pytest.mark.parametrize("rows", [1, 5])
def test_affine_is_bitwise_add_of_matmul(rows):
    rng = np.random.default_rng(5 + rows)
    h, w, b = rng.standard_normal((rows, 4)), rng.standard_normal((4, 3)), \
        rng.standard_normal((1, 3))
    g = rng.standard_normal((rows, 3))
    g[0, 0] = -0.0      # a one-row bias gradient is g itself, sign of zero kept
    for flags in ((True, True, True), (False, True, True), (True, False, True),
                  (True, True, False), (False, False, True)):
        one = ad.affine(*(Tensor(v, f) for v, f in zip((h, w, b), flags)))
        mm = ad.matmul(Tensor(h, flags[0]), Tensor(w, flags[1]))
        two = ad.add(mm, Tensor(b, flags[2]))
        assert one.data.tobytes() == two.data.tobytes()
        g_mm, g_b = two._vjp(g)
        # a constant operand's product is skipped, as matmul skips it
        want = [*(mm._vjp(g_mm) if mm.requires_grad else (None, None)), g_b]
        for got, ref in zip(one._vjp(g), want, strict=True):
            assert got is ref is None or got.tobytes() == ref.tobytes()


def test_add_broadcast_bias_grad():
    rng = np.random.default_rng(1)
    x, b = _p(rng, 5, 3), _p(rng, 1, 3)
    assert grad_check(lambda: ad.sum(ad.mul(ad.add(x, b), x)), [x, b]) < TOL


def test_sub_grad():
    rng = np.random.default_rng(2)
    a, b = _p(rng, 4, 3), _p(rng, 4, 3)
    assert grad_check(lambda: ad.sum(ad.mul(ad.sub(a, b), ad.sub(a, b))), [a, b]) < TOL


def test_mul_broadcast_grad():
    rng = np.random.default_rng(3)
    x, s = _p(rng, 4, 3), _p(rng, 1, 1)
    assert grad_check(lambda: ad.sum(ad.mul(x, s)), [x, s]) < TOL


def test_scalar_ops_grad():
    rng = np.random.default_rng(4)
    x = _p(rng, 3, 3)
    f = lambda: ad.sum(ad.add_scalar(ad.mul_scalar(x, 2.5), -1.0))
    assert grad_check(f, [x]) < TOL


def test_relu_grad_away_from_kink():
    rng = np.random.default_rng(5)
    x = parameter(rng.standard_normal((4, 4)) + np.sign(rng.standard_normal((4, 4))))
    assert grad_check(lambda: ad.sum(ad.relu(x)), [x]) < TOL


def test_relu_is_bitwise_the_where_formula():
    rng = np.random.default_rng(7)
    edges = np.array([[0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324,
                       -5e-324, 1.0, -1.0]])
    # -0.0 runs of every length up to 17, so both the vector and the scalar
    # tail paths of fmax meet it
    zeros = [np.full((1, n), -0.0) for n in range(1, 18)]
    for x in (rng.standard_normal((60, 32)), edges, *zeros):
        want = np.where(x > 0.0, x, 0.0)
        # tobytes tells -0.0 from 0.0 and compares nan payloads
        assert ad.relu(constant(x)).data.tobytes() == want.tobytes()


def test_sigmoid_grad():
    rng = np.random.default_rng(6)
    x = _p(rng, 3, 5)
    assert grad_check(lambda: ad.sum(ad.sigmoid(x)), [x]) < TOL


def _where_sigmoid(x):
    """The branch formulation ad.sigmoid used before its branch-free one."""
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))


def test_sigmoid_is_bitwise_the_where_formula():
    rng = np.random.default_rng(21)
    edges = np.array([[0.0, -0.0, np.inf, -np.inf, np.nan, 800.0, -800.0,
                       745.0, -745.0, 36.7, -36.7, 5e-324, -5e-324]])
    for x in (rng.standard_normal((50, 40)) * 30.0, rng.standard_normal((7, 3)),
              edges):
        want = _where_sigmoid(x)
        got = ad.sigmoid(constant(x)).data
        assert np.array_equal(got, want, equal_nan=True)
        # in place over its own input gives the same bits
        buf = x.copy()
        assert np.array_equal(ad._stable_sigmoid(buf, buf), want, equal_nan=True)


def _copysign_sigmoid(x):
    """_stable_sigmoid as it was written with np.copysign for -|x|."""
    pos = x >= 0
    e = np.exp(np.copysign(x, -1.0))
    return np.maximum(e, pos) / (e + 1.0)


def test_stable_sigmoid_is_bitwise_the_copysign_formula():
    rng = np.random.default_rng(27)
    edges = np.array([[0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0, 800.0, -800.0,
                       np.inf, -np.inf, np.nan]])
    for x in (rng.standard_normal((64, 90)) * 30.0, edges):
        want = _copysign_sigmoid(x)
        buf = x.copy()
        for got in (ad._stable_sigmoid(x, np.empty_like(x)),
                    ad._stable_sigmoid(buf, buf)):
            assert np.array_equal(got, want, equal_nan=True)
            real = ~np.isnan(want)
            assert np.array_equal(np.signbit(got[real]), np.signbit(want[real]))


def test_log_grad():
    rng = np.random.default_rng(7)
    x = parameter(np.abs(rng.standard_normal((3, 3))) + 0.5)
    assert grad_check(lambda: ad.sum(ad.log(x)), [x]) < TOL


def test_clamp_grad_interior_and_flat():
    x = parameter([[0.5, 2.0, -3.0]])
    (g,) = backward(ad.sum(ad.clamp(x, 0.0, 1.0)), [x])
    assert np.array_equal(g, [[1.0, 0.0, 0.0]])
    y = parameter([[0.2, 0.7, 0.4]])
    assert grad_check(lambda: ad.sum(ad.mul(ad.clamp(y, 0.0, 1.0), y)), [y]) < TOL


def test_softmax_and_log_softmax_grad():
    rng = np.random.default_rng(8)
    x = _p(rng, 4, 6)
    w = constant(rng.standard_normal((4, 6)))
    assert grad_check(lambda: ad.sum(ad.mul(ad.softmax_rows(x), w)), [x]) < TOL
    assert grad_check(lambda: ad.sum(ad.mul(ad.log_softmax_rows(x), w)), [x]) < TOL


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(9)
    p = ad.softmax_rows(constant(rng.standard_normal((5, 7)) * 30)).data
    assert np.allclose(p.sum(axis=1), 1.0)
    assert p.min() >= 0.0


def test_gather_rows_grad_with_repeats():
    rng = np.random.default_rng(10)
    x = _p(rng, 5, 3)
    idx = np.array([0, 2, 2, 4])
    w = constant(rng.standard_normal((4, 3)))
    assert grad_check(lambda: ad.sum(ad.mul(ad.gather_rows(x, idx), w)), [x]) < TOL


def test_concat_rows_grad():
    rng = np.random.default_rng(11)
    a, b = _p(rng, 4, 2), _p(rng, 4, 3)
    w = constant(rng.standard_normal((4, 5)))
    assert grad_check(lambda: ad.sum(ad.mul(ad.concat_rows(a, b), w)), [a, b]) < TOL


def test_reductions_grad():
    rng = np.random.default_rng(12)
    x = _p(rng, 3, 4)
    assert grad_check(lambda: ad.mean(ad.mul(x, x)), [x]) < TOL
    assert grad_check(lambda: ad.sum(ad.mul(x, x)), [x]) < TOL


def test_mse_grad_and_value():
    rng = np.random.default_rng(13)
    a, b = _p(rng, 4, 3), _p(rng, 4, 3)
    loss = ad.mse(a, b)
    assert abs(loss.item() - np.mean((a.data - b.data) ** 2)) < 1e-12
    assert grad_check(lambda: ad.mse(a, b), [a, b]) < TOL


def test_l2_row_norm_grad_and_zero_row():
    rng = np.random.default_rng(14)
    x = parameter(rng.standard_normal((4, 3)) + 2.0)
    assert grad_check(lambda: ad.sum(ad.l2_row_norm(x)), [x]) < TOL
    z = parameter(np.zeros((2, 3)))
    (g,) = backward(ad.sum(ad.l2_row_norm(z)), [z])
    assert np.array_equal(g, np.zeros((2, 3)))


def test_nll_rows_grad_and_value():
    rng = np.random.default_rng(15)
    x = _p(rng, 5, 4)
    y = np.array([0, 3, 1, 1, 2])
    loss = ad.nll_rows(ad.log_softmax_rows(x), y)
    logp = x.data - x.data.max(axis=1, keepdims=True)
    logp = logp - np.log(np.exp(logp).sum(axis=1, keepdims=True))
    assert abs(loss.item() + logp[np.arange(5), y].mean()) < 1e-12
    assert grad_check(lambda: ad.nll_rows(ad.log_softmax_rows(x), y), [x]) < TOL


def test_transpose_grad():
    rng = np.random.default_rng(16)
    u = _p(rng, 4, 3)
    f = lambda: ad.sum(ad.sigmoid(ad.matmul(u, ad.transpose(u))))
    assert grad_check(f, [u]) < TOL


def _toy_graph(n=6, seed=0):
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    pairs = pairs or [(0, 1)]
    feats = rng.standard_normal((n, 3))
    return build_graph(n, np.array(pairs), feats, np.zeros(n, dtype=np.int64))


def test_spmm_grad_symmetric_operator():
    g = _toy_graph(seed=1)
    adj = normalize_adjacency(g)
    rng = np.random.default_rng(17)
    x = _p(rng, g.num_nodes, 3)
    assert grad_check(lambda: ad.sum(ad.mul(ad.spmm(adj, x), x)), [x]) < TOL


def test_spmm_grad_asymmetric_operator():
    # row-mean aggregation is not symmetric, so the backward pass must use
    # the transpose rather than the matrix itself
    g = _toy_graph(seed=2)
    adj = mean_adjacency(g)
    assert not np.array_equal(adj.mat.toarray(), adj.mat.toarray().T)
    rng = np.random.default_rng(18)
    x = _p(rng, g.num_nodes, 3)
    w = constant(rng.standard_normal((g.num_nodes, 3)))
    assert grad_check(lambda: ad.sum(ad.mul(ad.spmm(adj, x), w)), [x]) < TOL


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_spmm_vjp_on_gcn_operator_is_bitwise_the_operator_product(seed):
    # the vjp multiplies by the CSC view mat.T; the gcn operator is bitwise
    # symmetric, so that is bitwise the product with the operator itself
    g = sbm_generate([100] * 5, 0.05, 0.005, 8, 2.0, seed=seed)
    adj = normalize_adjacency(g)
    up = np.random.default_rng(seed).standard_normal((g.num_nodes, 32))
    x = parameter(np.zeros((g.num_nodes, 32)))
    (got,) = backward(ad.sum(ad.mul(ad.spmm(adj, x), constant(up))), [x])
    assert got.tobytes() == np.asarray(adj.mat @ up).tobytes()


def test_spmm_matches_dense():
    g = _toy_graph(seed=3)
    adj = normalize_adjacency(g)
    x = np.random.default_rng(19).standard_normal((g.num_nodes, 4))
    out = ad.spmm(adj, constant(x)).data
    assert np.allclose(out, adj.mat.toarray() @ x, atol=1e-12)


# ------------------------------------------------- one function splits work

def test_only_in_parts_cuts_work_and_queries_the_cpus():
    src = Path(ad.__file__).parent
    users = set()
    for path in sorted(src.glob("*.py")):
        def visit(node, where):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                where = getattr(node, "name", where)
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name in ("_pool", "_usable_cpus") and isinstance(node.ctx, ast.Load):
                users.add((path.stem, where, name))
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        visit(ast.parse(path.read_text(encoding="utf-8")), None)
    # _in_row_blocks alone sizes the split and the pool by the CPU count and runs the parts
    assert sorted(users) == [("ncd_losses", "_in_row_blocks", "_pool"),
                             ("ncd_losses", "_in_row_blocks", "_usable_cpus")]
    # and the engine holds no thread machinery at all
    imported = set()
    for node in ast.walk(ast.parse(Path(ad.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.split(".")[0])
    assert imported.isdisjoint({"threading", "concurrent", "os"})


# ------------------------------------------------------- spmm runs whole

def _spmm_operators():
    """An operator with empty rows, a restriction with duplicate rows and a
    0-row restriction."""
    rng = np.random.default_rng(40)
    dense = rng.standard_normal((23, 19)) * (rng.random((23, 19)) < 0.3)
    dense[[0, 7, 8, 22]] = 0.0
    op = SparseMatrix(dense)
    return [op, op.restrict([5, 5, 0, 12, 5, 22, 3]), op.restrict([])]


@pytest.mark.parametrize("parts", (1, 2, 3, 9))
def test_spmm_is_bitwise_the_same_in_any_number_of_parts(monkeypatch, parts):
    # however many CPUs the machine offers, spmm is the operator product, whole
    rng = np.random.default_rng(41)
    cases = [(op, rng.standard_normal((op.shape[1], w)), rng.standard_normal((op.shape[0], w)))
             for op in _spmm_operators() for w in (1, 3, 16, 17, 33)]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(parts)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: parts)
    threads = threading.active_count()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)                      # threads would trade the lock often
    try:
        for op, xv, up in cases:
            x = parameter(xv.copy())
            out = ad.spmm(op, x)
            (got,) = backward(ad.sum(ad.mul(out, constant(up))), [x])
            assert out.data.tobytes() == np.asarray(op.mat @ xv).tobytes()
            assert got.tobytes() == np.asarray(op.mat.T @ up).tobytes()
            assert out.data.flags.c_contiguous and got.flags.c_contiguous
    finally:
        sys.setswitchinterval(switch)
    assert threading.active_count() == threads


def test_spmm_starts_no_thread_and_queries_no_cpu_at_any_size(monkeypatch):
    queries, submits = [], []
    # two usable CPUs, whichever module would ask
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: queries.append(1) or {0, 1},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: queries.append(1) or 2)
    submit = cf.ThreadPoolExecutor.submit
    monkeypatch.setattr(cf.ThreadPoolExecutor, "submit",
                        lambda *args, **kw: submits.append(1) or submit(*args, **kw))
    builders = set()
    make = ad._make

    def spy(data, parents, vjp):
        builders.add(threading.get_ident())
        return make(data, parents, vjp)

    monkeypatch.setattr(ad, "_make", spy)
    desk = normalize_adjacency(sbm_generate([100] * 5, 0.15, 0.01, 8, 2.5, seed=0))
    g = sbm_generate([150, 150, 150, 750, 750], 0.03, 0.002, 8, 2.5, seed=0)
    full = normalize_adjacency(g)
    phase2 = full.restrict(split_classes(g, [0, 1, 2], [3, 4], seed=0).p2_train)
    assert phase2.shape == (900, 1950) and 20_000 < phase2.mat.nnz < 26_000
    rng = np.random.default_rng(44)
    # the size of propagate's A[p1_train], which pretrain multiplies every epoch
    big = SparseMatrix(sp.random(1_440, 2_600, density=0.0532, random_state=rng))
    assert 190_000 < big.mat.nnz < 210_000

    def product(op):
        x = parameter(rng.standard_normal((op.shape[1], 32)))
        up = constant(rng.standard_normal((op.shape[0], 32)))
        backward(ad.sum(ad.mul(ad.spmm(op, x), up)), [x])

    threads = threading.active_count()
    for op in (desk, phase2, full, big):
        product(op)
    assert not queries and not submits and threading.active_count() == threads
    assert builders == {threading.get_ident()}


# --------------------------------------------------------- graph semantics

def test_backward_twice_gives_the_same_gradients():
    # no state outlives a sweep, so a second sweep of one tape repeats it
    rng = np.random.default_rng(30)
    x, w = _p(rng, 4, 3), _p(rng, 3, 2)
    h = ad.matmul(x, w)
    loss = ad.sum(ad.mul(ad.add(h, h), ad.sigmoid(h)))
    first = backward(loss, [x, w])
    second = backward(loss, [x, w])
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first, second))


def test_losses_sharing_a_subgraph_each_get_their_own_gradients():
    x = parameter([[1.0, -2.0], [0.5, 3.0]])
    w = parameter([[2.0], [-1.0]])
    shared = ad.matmul(x, w)               # both losses sweep through this
    sq = ad.sum(ad.mul(shared, shared))
    lin = ad.sum(ad.mul_scalar(shared, 3.0))
    gx_sq, gw_sq = backward(sq, [x, w])
    gx_lin, gw_lin = backward(lin, [x, w])
    r = x.data @ w.data                    # d sum(r^2) = 2r, d sum(3r) = 3
    assert np.array_equal(gx_sq, 2.0 * r @ w.data.T)
    assert np.array_equal(gw_sq, x.data.T @ (2.0 * r))
    assert np.array_equal(gx_lin, np.full((2, 1), 3.0) @ w.data.T)
    assert np.array_equal(gw_lin, x.data.T @ np.full((2, 1), 3.0))
    # and the first loss, swept again after the second, is unchanged
    again = backward(sq, [x, w])
    assert np.array_equal(again[0], gx_sq) and np.array_equal(again[1], gw_sq)


def test_backward_rejects_a_computed_param():
    x = parameter([[1.0, 2.0]])
    y = ad.mul(x, x)
    with pytest.raises(ValueError, match="leaves"):
        backward(ad.sum(y), [x, y])


def test_unreached_param_gets_zeros():
    x = parameter([[1.0]])
    y = parameter([[2.0]])
    gx, gy = backward(ad.sum(ad.mul(x, x)), [x, y])
    assert gx[0, 0] == 2.0
    assert np.array_equal(gy, np.zeros((1, 1)))


def test_shared_subexpression_accumulates():
    x = parameter([[3.0]])
    y = ad.mul(x, x)                       # x used twice
    (g,) = backward(ad.sum(ad.add(y, x)), [x])
    assert abs(g[0, 0] - 7.0) < 1e-12      # d(x^2 + x)/dx = 2x + 1


@pytest.mark.parametrize("swap", [False, True])
def test_fanned_out_gradient_is_never_written(swap):
    # add hands one upstream array to both parents; each parent then gets a
    # second contribution, in either order of the outer sum
    a = parameter([[1.0, -2.0], [0.5, 4.0]])
    b = parameter([[3.0, 0.0], [-1.0, 2.0]])
    c = constant([[0.25, -1.5], [2.0, 3.0]])
    s = ad.add(a, b)
    upstream = []
    vjp = s._vjp
    s._vjp = lambda g: (upstream.append(g), vjp(g))[1]
    fan = ad.mul(s, c)
    rest = ad.add(ad.mul_scalar(a, 2.0), ad.mul_scalar(b, 3.0))
    ga, gb = backward(ad.sum(ad.add(rest, fan) if swap else ad.add(fan, rest)), [a, b])
    assert np.array_equal(ga, c.data + 2.0)
    assert np.array_equal(gb, c.data + 3.0)
    assert len(upstream) == 1
    assert np.array_equal(upstream[0], c.data)   # the upstream array is unchanged


def test_gather_rows_vjp_is_bitwise_add_at():
    rng = np.random.default_rng(21)
    w = rng.standard_normal((9, 3))
    w[[1, 4]] = -0.0
    w[6, 2] = -0.0
    for idx in ([0, 2, 2, 4, 4, 4, 7, 0, 2], [5, 5, 5, 5, 5, 5, 5, 5, 5],
                [3, 1, 0, 8, 6, 2, 4, 7, 5], [0, 1, 4, 6, 8], []):
        # [0, 1, 4, 6, 8]: strictly increasing, with -0.0 rows in g
        idx = np.array(idx, dtype=np.int64)
        x = parameter(rng.standard_normal((9, 3)))
        g = w[:idx.size]
        (got,) = backward(ad.sum(ad.mul(ad.gather_rows(x, idx), constant(g))), [x])
        want = np.zeros((9, 3))
        np.add.at(want, idx, g)
        assert got.tobytes() == want.tobytes()
    with pytest.raises(IndexError):
        ad.gather_rows(parameter(np.zeros((3, 2))), [3])


def test_detach_blocks_gradient():
    x = parameter([[2.0]])
    d = constant(x.data.copy())
    loss = ad.sum(ad.mul(x, d))
    (g,) = backward(loss, [x])
    assert abs(g[0, 0] - 2.0) < 1e-12      # only the live factor contributes


def test_constant_branch_is_dropped():
    c = ad.mul(constant([[1.0]]), constant([[2.0]]))
    assert c._parents == () and c._vjp is None and not c.requires_grad


def test_grad_check_flags_wrong_gradient():
    # a deliberately broken derivative must be caught, otherwise the whole
    # suite's FD checks prove nothing
    x = parameter([[1.3]])

    def broken_square():
        return ad.sum(ad._make(x.data ** 2, (x,),
                               lambda g: [3.0 * x.data * g]))  # wrong: 3x not 2x

    assert grad_check(broken_square, [x]) > 1e-2


# ----------------------------------------------------------------- adam

def test_adam_first_step_hand_case():
    # unit gradient, defaults: m_hat = 1, v_hat = 1, so the update is
    # -lr * 1 / (1 + eps) regardless of the parameter value
    p = parameter([[0.5]])
    st = adam_init([p], lr=0.01, weight_decay=0.0)
    adam_step([p], [np.array([[1.0]])], st)
    assert abs(p.data[0, 0] - (0.5 - 0.01 / (1.0 + 1e-8))) < 1e-15
    assert st.step == 1


def test_adam_weight_decay_enters_gradient():
    p_plain = parameter([[1.0]])
    p_decay = parameter([[1.0]])
    st0 = adam_init([p_plain], lr=0.01, weight_decay=0.0)
    st1 = adam_init([p_decay], lr=0.01, weight_decay=0.1)
    adam_step([p_plain], [np.array([[0.0]])], st0)
    adam_step([p_decay], [np.array([[0.0]])], st1)
    assert p_plain.data[0, 0] == 1.0            # no force at all
    assert p_decay.data[0, 0] < 1.0             # pulled toward zero


def test_adam_trajectory_matches_reference_loop():
    # the per-parameter loop the flat update replaces, op for op; mixed
    # shapes (a 1x1, bias rows), weight decay on, compared bit for bit
    rng = np.random.default_rng(20)
    shapes = [(3, 2), (1, 1), (1, 4), (5, 4), (4, 1), (1, 2)]
    ps = [parameter(rng.standard_normal(s)) for s in shapes]
    ref = [p.data.copy() for p in ps]
    ms = [np.zeros(s) for s in shapes]
    vs = [np.zeros(s) for s in shapes]
    lr, wd, b1, b2, eps = 0.05, 0.02, 0.9, 0.999, 1e-8
    st = adam_init(ps, lr=lr, weight_decay=wd)
    for t in range(1, 61):
        grads = [rng.standard_normal(s) for s in shapes]
        adam_step(ps, [g.copy() for g in grads], st)
        for r, m, v, g in zip(ref, ms, vs, grads):
            g = g + wd * r
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            r -= lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
        assert [p.data.tobytes() for p in ps] == [r.tobytes() for r in ref], t
    assert st.step == 60
    assert st.m.tobytes() == np.concatenate([m.ravel() for m in ms]).tobytes()
    assert st.v.tobytes() == np.concatenate([v.ravel() for v in vs]).tobytes()


def test_adam_rejects_mismatched_lengths_and_shapes():
    ps = [parameter(np.ones((2, 3))), parameter(np.ones((1, 3)))]
    st = adam_init(ps)
    before = [p.data.copy() for p in ps]
    with pytest.raises(ValueError, match="length mismatch"):
        adam_step(ps, [np.ones((2, 3))], st)
    with pytest.raises(ValueError, match="length mismatch"):
        adam_step(ps[:1], [np.ones((2, 3))], st)
    with pytest.raises(ValueError, match="grad shape"):
        adam_step(ps, [np.ones((2, 3)), np.ones((3, 1))], st)
    with pytest.raises(ValueError, match="grad shape"):
        adam_step(ps[::-1], [np.ones((1, 3)), np.ones((2, 3))], st)
    assert st.step == 0 and not st.m.any() and not st.v.any()
    assert all(np.array_equal(p.data, b) for p, b in zip(ps, before))


def test_spmm_vjp_reads_the_transpose_of_the_one_stored_matrix():
    g = _toy_graph(seed=4)
    up = np.random.default_rng(31).standard_normal((g.num_nodes, 3))
    for op in (normalize_adjacency(g), mean_adjacency(g)):
        x = parameter(np.zeros((g.num_nodes, 3)))
        (got,) = backward(ad.sum(ad.mul(ad.spmm(op, x), constant(up))), [x])
        assert np.allclose(got, op.mat.toarray().T @ up, atol=1e-12)
        # the operator holds its matrix once: the kept transpose is a view
        # of the same arrays, not a copy
        assert [k for k, v in vars(op).items() if sp.issparse(v)] == ["mat", "mat_t"]
        assert all(np.shares_memory(getattr(op.mat_t, a), getattr(op.mat, a))
                   for a in ("data", "indices", "indptr"))

