"""Encoder forward passes against dense hand compositions, head mechanics."""
import itertools

import numpy as np
import pytest

import graphncd.autodiff as ad
from graphncd.cli import resolve_dataset, resolve_split
from graphncd.config import RunConfig
from graphncd.graph import (Graph, build_graph, input_features, mean_adjacency,
                            normalize_adjacency, operator_for, sbm_generate,
                            split_classes)
from graphncd.models import (EncoderInput, encode, encoder_parameters, extend_head,
                             freeze_encoder, head_forward, head_parameters,
                             init_encoder, init_head)
from graphncd.training import TrainConfig, pretrain


def _graph(seed=0, n=7, d=3):
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
    pairs = pairs or [(0, 1)]
    return build_graph(n, np.array(pairs), rng.standard_normal((n, d)),
                       np.zeros(n, dtype=np.int64))


def test_gcn_two_layer_matches_dense_oracle():
    g = _graph(seed=1)
    enc = init_encoder("gcn", [3, 4, 2], seed=5)
    adj = normalize_adjacency(g)
    out = encode(enc, EncoderInput.build("gcn", adj, ad.constant(g.features))).data

    a = adj.mat.toarray()
    h = a @ (g.features @ enc.weights[0].data) + enc.biases[0].data
    h = np.maximum(h, 0.0)                       # relu between layers only
    want = a @ (h @ enc.weights[1].data) + enc.biases[1].data
    assert np.allclose(out, want, atol=1e-12)


def test_sage_two_layer_matches_dense_oracle():
    g = _graph(seed=2)
    enc = init_encoder("sage", [3, 4, 2], seed=6)
    adj = mean_adjacency(g)
    out = encode(enc, EncoderInput.build("sage", adj, ad.constant(g.features))).data

    a = adj.mat.toarray()
    h = np.hstack([g.features, a @ g.features]) @ enc.weights[0].data + enc.biases[0].data
    h = np.maximum(h, 0.0)
    want = np.hstack([h, a @ h]) @ enc.weights[1].data + enc.biases[1].data
    assert np.allclose(out, want, atol=1e-12)


def test_final_layer_has_no_relu():
    # with enough random draws some outputs must be negative
    g = _graph(seed=3, n=20)
    enc = init_encoder("gcn", [3, 8, 8], seed=7)
    out = encode(enc, EncoderInput.build("gcn", normalize_adjacency(g),
                                         ad.constant(g.features))).data
    assert out.min() < 0.0


def test_encoder_weight_shapes():
    gcn = init_encoder("gcn", [5, 4, 3], seed=0)
    assert [w.shape for w in gcn.weights] == [(5, 4), (4, 3)]
    assert [b.shape for b in gcn.biases] == [(1, 4), (1, 3)]
    sage = init_encoder("sage", [5, 4, 3], seed=0)
    assert [w.shape for w in sage.weights] == [(10, 4), (8, 3)]
    assert gcn.repr_dim == 3 and sage.repr_dim == 3


def test_encoder_init_deterministic():
    a = init_encoder("gcn", [3, 4], seed=9)
    b = init_encoder("gcn", [3, 4], seed=9)
    c = init_encoder("gcn", [3, 4], seed=10)
    assert np.array_equal(a.weights[0].data, b.weights[0].data)
    assert not np.array_equal(a.weights[0].data, c.weights[0].data)


def test_encoder_rejects_bad_dims():
    with pytest.raises(ValueError):
        init_encoder("gcn", [5], seed=0)
    with pytest.raises(ValueError):
        init_encoder("rnn", [5, 3], seed=0)
    g = _graph()
    inp = EncoderInput.build("gcn", normalize_adjacency(g), ad.constant(g.features))
    with pytest.raises(ValueError, match="encoder expects 4 input features, got 3"):
        encode(init_encoder("gcn", [4, 2], seed=0), inp)


def test_freeze_encoder_is_a_constant_copy():
    enc = init_encoder("gcn", [3, 4], seed=1)
    frozen = freeze_encoder(enc)
    assert np.array_equal(frozen.weights[0].data, enc.weights[0].data)
    assert not frozen.weights[0].requires_grad
    enc.weights[0].data[0, 0] += 1.0             # later updates must not leak
    assert frozen.weights[0].data[0, 0] != enc.weights[0].data[0, 0]


def test_encoder_parameters_lists_all_leaves():
    enc = init_encoder("gcn", [3, 4, 2], seed=2)
    params = encoder_parameters(enc)
    assert len(params) == 4
    assert all(p.requires_grad for p in params)


def test_head_forward_is_affine():
    rng = np.random.default_rng(4)
    head = init_head(4, 3, seed=3)
    z = rng.standard_normal((6, 4))
    out = head_forward(head, ad.constant(z)).data
    assert np.allclose(out, z @ head.weight.data + head.bias.data, atol=1e-12)
    with pytest.raises(ValueError, match="head expects 4-dim representations, got 3"):
        head_forward(head, ad.constant(z[:, :3]))


def test_init_head_roles_and_shapes():
    head = init_head(5, 2, seed=0)
    assert head.weight.shape == (5, 2) and head.bias.shape == (1, 2)
    assert head.num_outputs == 2
    assert np.array_equal(head.bias.data, np.zeros((1, 2)))
    with pytest.raises(ValueError):
        init_head(5, 0, seed=0)
    assert len(head_parameters(head)) == 2


def test_extend_head_copies_old_columns_verbatim():
    old = init_head(4, 3, seed=5)
    old.weight.data[:] = np.arange(12, dtype=np.float64).reshape(4, 3)
    old.bias.data[:] = [[0.1, 0.2, 0.3]]
    joint = extend_head(old, num_new=2, init_scale=0.01, seed=6)
    assert joint.num_outputs == 5
    assert np.array_equal(joint.weight.data[:, :3], old.weight.data)
    assert np.array_equal(joint.bias.data[0, :3], old.bias.data[0])
    assert np.array_equal(joint.bias.data[0, 3:], np.zeros(2))
    with pytest.raises(ValueError, match="at least one new output"):
        extend_head(old, num_new=0)


def test_extend_head_preserves_old_logits():
    rng = np.random.default_rng(7)
    old = init_head(4, 3, seed=8)
    joint = extend_head(old, num_new=2, init_scale=0.05, seed=9)
    z = ad.constant(rng.standard_normal((5, 4)))
    assert np.array_equal(head_forward(joint, z).data[:, :3],
                          head_forward(old, z).data)


def test_extend_head_new_columns_scaled_and_seeded():
    old = init_head(64, 3, seed=10)
    a = extend_head(old, num_new=4, init_scale=0.01, seed=11)
    b = extend_head(old, num_new=4, init_scale=0.01, seed=11)
    c = extend_head(old, num_new=4, init_scale=0.01, seed=12)
    assert np.array_equal(a.weight.data, b.weight.data)
    assert not np.array_equal(a.weight.data, c.weight.data)
    fresh = a.weight.data[:, 3:]
    assert 0.003 < fresh.std() < 0.03            # loose N(0, 0.01^2) sanity band


def test_deep_encoder_stacks():
    g = _graph(seed=8)
    enc = init_encoder("gcn", [3] + [4] * 5, seed=13)
    out = encode(enc, EncoderInput.build("gcn", normalize_adjacency(g),
                                         ad.constant(g.features))).data
    assert out.shape == (g.num_nodes, 4)
    assert np.all(np.isfinite(out))


# ------------------------------------------- layer-0 propagation

def _record_spmm(monkeypatch):
    """Wrap the module attribute, as the benchmark's hooks do; returns the
    list every spmm operand is appended to."""
    operands = []
    orig = ad.spmm

    def recorded(m, x):
        operands.append(x)
        return orig(m, x)

    monkeypatch.setattr(ad, "spmm", recorded)
    return operands


def _uncached_sage(enc, adj, x):
    """encode's sage composition with every propagation through ad.spmm."""
    h = x
    for i, (w, b) in enumerate(zip(enc.weights, enc.biases)):
        h = ad.add(ad.matmul(ad.concat_rows(h, ad.spmm(adj, h)), w), b)
        if i != enc.num_layers - 1:
            h = ad.relu(h)
    return h.data


def test_repeated_sage_encode_is_bitwise_the_uncached_composition(monkeypatch):
    g = _graph(seed=2, n=12)
    enc = init_encoder("sage", [3, 4, 4, 2], seed=6)
    adj = mean_adjacency(g)
    x = ad.constant(g.features)
    want = _uncached_sage(enc, adj, x)
    operands = _record_spmm(monkeypatch)
    inp = EncoderInput.build("sage", adj, x)
    for _ in range(3):
        assert np.array_equal(encode(enc, inp).data, want)
    # the input propagates x once; layers 1 and 2 run on every forward
    assert [o is x for o in operands] == [True] + [False] * 6

    a = adj.mat.toarray()
    h = g.features
    for i, (w, b) in enumerate(zip(enc.weights, enc.biases)):
        h = np.hstack([h, a @ h]) @ w.data + b.data
        h = np.maximum(h, 0.0) if i != 2 else h
    assert np.allclose(want, h, atol=1e-12)


def test_frozen_and_live_encoders_share_the_input_product(monkeypatch):
    g = _graph(seed=7, n=12)
    enc = init_encoder("sage", [3, 4, 2], seed=3)
    frozen = freeze_encoder(enc)
    inp = EncoderInput.build("sage", mean_adjacency(g), ad.constant(g.features))
    operands = _record_spmm(monkeypatch)
    for view in (inp, inp.at([5, 0, 5], enc.num_layers)):
        zf = encode(frozen, view).data
        assert np.array_equal(encode(enc, view).data, zf)
    # after the input is built, only layer 1 propagates: once per forward
    assert len(operands) == 4 and not any(o is inp.x for o in operands)


@pytest.mark.parametrize("backbone", ["gcn", "sage"])
def test_encoder_gradients_through_the_input_product(backbone):
    g = _graph(seed=8, n=10)
    adj = operator_for(backbone, g)
    for dims, rows in itertools.product(([3, 2], [3, 4, 2]), (None, [6, 1, 6, 8])):
        enc = init_encoder(backbone, dims, seed=4)
        inp = EncoderInput.build(backbone, adj, ad.constant(g.features))

        def loss():
            z = encode(enc, inp if rows is None else inp.at(rows, enc.num_layers))
            return ad.sum(ad.mul(z, z))

        assert ad.grad_check(loss, encoder_parameters(enc)) < 1e-4
        # an input with a gradient flows it through A·x; grad_check moves x
        # in place between probes, so the loss builds its input each time
        x = ad.parameter(g.features.copy())

        def loss():
            inp = EncoderInput.build(backbone, adj, x)
            z = encode(enc, inp if rows is None else inp.at(rows, enc.num_layers))
            return ad.sum(ad.mul(z, z))

        assert ad.grad_check(loss, [x] + encoder_parameters(enc)) < 1e-4


def _pretrain_spmm_operands(monkeypatch, backbone):
    """(operands on the input, all operands) of building the input and a
    5-epoch pretrain on it."""
    g = sbm_generate([15] * 4, 0.4, 0.03, 6, 2.5, seed=3)
    split = split_classes(g, [0, 1], [2, 3], seed=4)
    cfg = TrainConfig(backbone=backbone, hidden=16, pretrain_epochs=5, seed=0, top_k=3)
    x = input_features(g, cfg.normalize_features)
    operands = _record_spmm(monkeypatch)
    pretrain(g, split, cfg,
             EncoderInput.build(backbone, operator_for(backbone, g), ad.constant(x)))
    return [o for o in operands if o.shape == x.shape and np.array_equal(o.data, x)], operands


def test_pretrain_propagates_the_input_once(monkeypatch):
    on_input, operands = _pretrain_spmm_operands(monkeypatch, "sage")
    assert len(on_input) == 1
    # the second layer still propagates on each of the 2 * 5 + 1 forwards
    assert len(operands) == 1 + 11


def test_gcn_pretrain_propagates_the_input_once(monkeypatch):
    on_input, operands = _pretrain_spmm_operands(monkeypatch, "gcn")
    assert len(on_input) == 1
    assert len(operands) == 1 + 11


def _uncached_gcn(enc, adj, x):
    """encode's gcn composition with layer 0's propagation through ad.spmm."""
    h = x
    for i, (w, b) in enumerate(zip(enc.weights, enc.biases)):
        h = ad.matmul(ad.spmm(adj, h), w) if i == 0 else ad.spmm(adj, ad.matmul(h, w))
        h = ad.add(h, b)
        if i != enc.num_layers - 1:
            h = ad.relu(h)
    return h.data


def test_repeated_gcn_encode_is_bitwise_the_uncached_composition(monkeypatch):
    g = _graph(seed=1, n=12)
    enc = init_encoder("gcn", [3, 4, 4, 2], seed=5)
    adj = normalize_adjacency(g)
    x = ad.constant(g.features)
    want = _uncached_gcn(enc, adj, x)
    operands = _record_spmm(monkeypatch)
    inp = EncoderInput.build("gcn", adj, x)
    for _ in range(3):
        assert np.array_equal(encode(enc, inp).data, want)
    # the input propagates x once; layers 1 and 2 run on every forward
    assert [o is x for o in operands] == [True] + [False] * 6

    a = adj.mat.toarray()
    h = g.features
    for i, (w, b) in enumerate(zip(enc.weights, enc.biases)):
        h = a @ (h @ w.data) + b.data
        h = np.maximum(h, 0.0) if i != 2 else h
    assert np.allclose(want, h, atol=1e-12)


def test_operator_is_built_once_per_graph_and_backbone():
    g = _graph(seed=6)
    gcn, sage = operator_for("gcn", g), operator_for("sage", g)
    assert not np.array_equal(gcn.mat.toarray(), sage.mat.toarray())
    # the task-agnostic case: the same arrays in a rebuilt Graph
    blank = Graph(num_nodes=g.num_nodes, edges=g.edges, features=g.features,
                  labels=np.zeros_like(g.labels))
    fresh = operator_for("sage", blank)
    assert np.array_equal(fresh.mat.toarray(), sage.mat.toarray())
    with pytest.raises(ValueError, match="unknown backbone"):
        operator_for("gat", g)


# ------------------------------------------- row-restricted last layer

# row sets of a 12-node graph; None stands for every node in order
_ROW_SETS = {"empty": [], "single": [4], "sorted": [0, 2, 3, 7, 9],
             "unsorted": [9, 2, 7, 0, 5], "duplicated": [3, 1, 3, 3, 8], "all": None}


@pytest.mark.parametrize("backbone", ["gcn", "sage"])
@pytest.mark.parametrize("layers", [2, 3])
@pytest.mark.parametrize("kind", list(_ROW_SETS))
def test_restricted_encode_is_the_gathered_full_forward(backbone, layers, kind):
    g = _graph(seed=11, n=12)
    inp = EncoderInput.build(backbone, operator_for(backbone, g), ad.constant(g.features))
    enc = init_encoder(backbone, [3] + [4] * layers, seed=9)
    params = encoder_parameters(enc)
    rows = np.arange(g.num_nodes) if _ROW_SETS[kind] is None else \
        np.array(_ROW_SETS[kind], dtype=np.int64)
    weights = ad.constant(np.random.default_rng(2).standard_normal((len(rows), 4)))

    full = ad.gather_rows(encode(enc, inp), rows)
    full_grads = ad.backward(ad.sum(ad.mul(full, weights)), params)
    part = encode(enc, inp.at(rows, layers))
    part_grads = ad.backward(ad.sum(ad.mul(part, weights)), params)

    assert part.shape == full.shape == (len(rows), 4)
    assert np.allclose(part.data, full.data, rtol=0.0, atol=1e-12)
    for a, b in zip(part_grads, full_grads, strict=True):
        assert np.allclose(a, b, rtol=0.0, atol=1e-12)
    if backbone == "gcn" and kind in ("empty", "single", "sorted", "all"):
        # sorted unique rows, the form splits give: the same float operations
        assert np.array_equal(part.data, full.data)
        assert all(np.array_equal(a, b) for a, b in zip(part_grads, full_grads))


@pytest.mark.parametrize("backbone", ["gcn", "sage"])
def test_restricted_encoder_gradients_pass_grad_check(backbone):
    g = _graph(seed=12, n=10)
    inp = EncoderInput.build(backbone, operator_for(backbone, g), ad.constant(g.features))
    enc = init_encoder(backbone, [3, 4, 4, 2], seed=1)

    def loss():
        z = encode(enc, inp.at([6, 1, 6, 8], enc.num_layers))
        return ad.sum(ad.mul(z, z))

    assert ad.grad_check(loss, encoder_parameters(enc)) < 1e-4


def test_one_layer_restricted_encode_reads_the_input_rows():
    g = _graph(seed=13, n=10)
    x = ad.constant(g.features)
    rows = [7, 0, 7]
    for backbone in ("gcn", "sage"):
        inp = EncoderInput.build(backbone, operator_for(backbone, g), x)
        enc = init_encoder(backbone, [3, 2], seed=4)   # layer 0 is the last
        want = encode(enc, inp).data[rows]
        assert np.allclose(encode(enc, inp.at(rows, 1)).data, want, rtol=0.0, atol=1e-12)


def test_restricted_operator_is_built_once_per_row_set():
    g = _graph(seed=14, n=10)
    for backbone in ("gcn", "sage"):
        adj = operator_for(backbone, g)
        op = adj.restrict([4, 1, 7])
        assert op.shape == (3, g.num_nodes)
        assert np.array_equal(op.mat.toarray(), adj.mat.toarray()[[4, 1, 7]])
        # spmm's vjp through it is the product with A[rows] transposed
        x = ad.parameter(np.zeros((g.num_nodes, 2)))
        up = np.arange(6.0).reshape(3, 2)
        (gx,) = ad.backward(ad.sum(ad.mul(ad.spmm(op, x), ad.constant(up))), [x])
        assert np.allclose(gx, op.mat.toarray().T @ up, atol=1e-12)
        # at(rows) starts its chain at the rows, on the operator restrict
        # builds for them, over the columns the layer below computes
        inp = EncoderInput.build(backbone, adj, ad.constant(g.features)).at(np.array([4, 1, 7]), 2)
        top, below = inp.levels[:2]
        assert top.rows.tolist() == [4, 1, 7]
        assert np.array_equal(top.adj.mat.toarray(), op.mat.toarray()[:, below.rows])
        for bad in ([-1], [10], [0, 10]):
            with pytest.raises(IndexError, match="out of range"):
                adj.restrict(bad)
            for depth in (1, 2):
                with pytest.raises(IndexError, match="out of range"):
                    inp.at(bad, depth)


# ------------------------------------------- the receptive-field chain

def _ring(n=24, d=3):
    """A ring of n nodes, whose receptive fields grow two nodes a layer, and
    a separate triangle, whose field stops growing at once."""
    pairs = [(i, (i + 1) % n) for i in range(n)] + [(n, n + 1), (n + 1, n + 2), (n, n + 2)]
    return build_graph(n + 3, np.array(pairs), np.random.default_rng(0).standard_normal(
        (n + 3, d)), np.zeros(n + 3, dtype=np.int64))


# row sets of _ring(); "under" ones keep the field under the share 5 layers
# down, "over" ones pass it 1 or 3 layers down, "closed" stops growing
_CHAIN_ROWS = {"under_sorted": ([5, 6], "under"), "under_repeated": ([7, 3, 7], "under"),
               "over_at_once": (list(range(0, 24, 3)), "over"),
               "over_deeper": ([2, 11, 20], "over"), "closed": ([25], "closed"),
               "empty": ([], "closed")}


def _column_restricted(inp):
    """How many levels, from the last layer's down, read fewer than every node."""
    return sum(lv.adj is not None and lv.adj.shape[1] < inp.adj.shape[1]
               for lv in inp.levels)


@pytest.mark.parametrize("backbone", ["gcn", "sage"])
@pytest.mark.parametrize("layers", [2, 3, 5])
@pytest.mark.parametrize("kind", list(_CHAIN_ROWS))
def test_chain_rows_and_gradients_are_the_full_forward(backbone, layers, kind):
    g = _ring()
    n = g.num_nodes
    inp = EncoderInput.build(backbone, operator_for(backbone, g), ad.constant(g.features))
    enc = init_encoder(backbone, [3] + [4] * layers, seed=layers)
    params = encoder_parameters(enc)
    rows, field = _CHAIN_ROWS[kind]
    rows = np.array(rows, dtype=np.int64)
    view = inp.at(rows, layers)

    # each level's operator reads the rows of the level below, and every
    # node at the bottom one; layer 0's level, reached only when the walk
    # runs the whole depth, reads the input at its rows and has no operator
    assert len(view.levels) <= layers
    for lv, below in zip(view.levels, view.levels[1:] + (None,)):
        cols = np.arange(n) if below is None else below.rows
        if lv.adj is None:
            assert below is None and len(view.levels) == layers
        else:
            assert np.array_equal(lv.adj.mat.toarray(),
                                  inp.adj.mat.toarray()[lv.rows][:, cols])
        assert np.array_equal(cols[lv.own], lv.rows)
    if field == "under":
        assert _column_restricted(view) == layers - 1
    elif field == "over":
        assert _column_restricted(view) == (0 if kind == "over_at_once"
                                            else min(2, layers - 1))
    else:  # the walk ends at the level whose field is its own rows
        assert len(view.levels) == 2
        bottom = view.levels[-1]
        assert layers == 2 or set(bottom.adj.mat.indices) <= set(bottom.rows)

    weights = ad.constant(np.random.default_rng(2).standard_normal((len(rows), 4)))
    full = ad.gather_rows(encode(enc, inp), rows)
    full_grads = ad.backward(ad.sum(ad.mul(full, weights)), params)
    part = encode(enc, view)
    part_grads = ad.backward(ad.sum(ad.mul(part, weights)), params)
    assert part.shape == full.shape == (len(rows), 4)
    assert np.allclose(part.data, full.data, rtol=0.0, atol=1e-12)
    for a, b in zip(part_grads, full_grads, strict=True):
        assert np.allclose(a, b, rtol=0.0, atol=1e-12)
    if backbone == "gcn" and np.all(rows[1:] > rows[:-1]):
        # sorted unique rows: each row of every product sums the same terms
        # in the same order
        assert np.array_equal(part.data, full.data)


@pytest.mark.parametrize("backbone", ["gcn", "sage"])
def test_deeper_chain_gradients_pass_grad_check(backbone):
    g = _ring()
    inp = EncoderInput.build(backbone, operator_for(backbone, g), ad.constant(g.features))
    view = inp.at([9, 4, 9], 3)
    assert _column_restricted(view) >= 2    # both layers below the last restricted
    enc = init_encoder(backbone, [3, 4, 4, 2], seed=2)

    def loss():
        z = encode(enc, view)
        return ad.sum(ad.mul(z, z))

    assert ad.grad_check(loss, encoder_parameters(enc)) < 1e-4


def test_desk_row_sets_restrict_no_columns():
    rc = RunConfig(seed=0)          # the stock 5x100 SBM
    g, _ = resolve_dataset(rc)
    split, _ = resolve_split(rc, g)
    inp = EncoderInput.build("gcn", operator_for("gcn", g), ad.constant(g.features))
    for rows in (split.p1_train, split.p1_val, split.p2_train):
        view = inp.at(rows, 2)
        # the last layer's operator A[rows] alone, with every column
        assert len(view.levels) == 1 and _column_restricted(view) == 0


@pytest.mark.parametrize("backbone", ["gcn", "sage"])
@pytest.mark.parametrize("depth", [1, 2, 3, 5])
def test_at_builds_one_level_per_layer_and_no_operator_for_layer_0(
        monkeypatch, backbone, depth):
    # a path, whose field from one end grows one node a layer and stays
    # under the share: the walk runs the whole depth and stops there
    n = 40
    g = build_graph(n, np.array([(i, i + 1) for i in range(n - 1)]),
                    np.random.default_rng(5).standard_normal((n, 3)), np.zeros(n, dtype=np.int64))
    inp = EncoderInput.build(backbone, operator_for(backbone, g), ad.constant(g.features))
    restricts = []
    restrict = ad.SparseMatrix.restrict
    monkeypatch.setattr(ad.SparseMatrix, "restrict",
                        lambda self, rows: restricts.append(rows) or restrict(self, rows))
    view = inp.at([0], depth)
    # one sliced operator per layer above layer 0, and none for layer 0
    assert len(view.levels) == depth and len(restricts) == depth - 1
    assert view.levels[-1].adj is None
    assert view.levels[-1].rows.tolist() == list(range(depth))
    assert _column_restricted(view) == depth - 1
    monkeypatch.undo()
    for layers in range(1, depth + 1):
        enc = init_encoder(backbone, [3] + [4] * layers, seed=layers)
        want = encode(enc, inp).data[[0]]
        assert np.allclose(encode(enc, view).data, want, rtol=0.0, atol=1e-12)
    # a deeper encoder would read layer 0's level through an operator
    with pytest.raises(ValueError, match=f"restricted for {depth} layers"):
        encode(init_encoder(backbone, [3] + [4] * (depth + 1)), view)
