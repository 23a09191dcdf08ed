"""Graph IO, adjacency operators, splits, and the SBM generator."""
import ast
import hashlib
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chisquare

from graphncd import graph
from graphncd.graph import (ClassSplit, GraphParseError, GraphValidationError,
                            build_graph, canonical_texts, load_graph,
                            mean_adjacency, normalize_adjacency, normalize_rows,
                            operator_for, save_graph, sbm_generate,
                            split_classes, validate_split)


def _small_graph():
    feats = np.arange(12, dtype=np.float64).reshape(4, 3)
    return build_graph(4, [(0, 1), (1, 2), (0, 2)], feats, [0, 0, 1, 1])


# ------------------------------------------------------------ construction

def test_edges_stored_both_directions_once():
    g = _small_graph()
    assert g.edges.shape == (6, 2)
    und = {tuple(e) for e in g.edges.tolist()}
    assert und == {(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)}
    assert g.num_undirected_edges() == 3


def test_duplicate_and_reversed_edges_collapse():
    feats = np.zeros((3, 2))
    g = build_graph(3, [(0, 1), (1, 0), (0, 1)], feats, [0, 0, 0])
    assert g.num_undirected_edges() == 1


def test_edges_are_lexsorted():
    g = _small_graph()
    order = np.lexsort((g.edges[:, 1], g.edges[:, 0]))
    assert np.array_equal(order, np.arange(len(g.edges)))


def test_self_loop_rejected():
    with pytest.raises(GraphValidationError):
        build_graph(3, [(0, 0)], np.zeros((3, 1)), [0, 0, 0])


def test_dangling_endpoint_rejected():
    with pytest.raises(GraphValidationError):
        build_graph(3, [(0, 5)], np.zeros((3, 1)), [0, 0, 0])


def test_nan_features_rejected():
    feats = np.zeros((2, 2))
    feats[0, 0] = np.nan
    with pytest.raises(GraphValidationError):
        build_graph(2, [(0, 1)], feats, [0, 0])
    # and features or labels that do not match the node count
    with pytest.raises(GraphValidationError, match=r"features must be \(2, d\), got \(3, 2\)"):
        build_graph(2, [(0, 1)], np.zeros((3, 2)), [0, 0])
    with pytest.raises(GraphValidationError, match=r"features must be \(2, d\), got \(2,\)"):
        build_graph(2, [(0, 1)], np.zeros(2), [0, 0])
    with pytest.raises(GraphValidationError, match="expected 2 labels, got 3"):
        build_graph(2, [(0, 1)], np.zeros((2, 2)), [0, 0, 1])


def test_negative_labels_rejected():
    with pytest.raises(GraphValidationError):
        build_graph(2, [(0, 1)], np.zeros((2, 1)), [0, -1])


# ------------------------------------------------------------------- IO

def test_save_load_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    g = build_graph(5, [(0, 1), (2, 3), (1, 4)],
                    rng.standard_normal((5, 4)) * 1e-3, [0, 1, 0, 1, 2])
    paths = [str(tmp_path / n) for n in ("e.txt", "f.txt", "l.txt")]
    save_graph(g, *paths)
    h = load_graph(*paths)
    assert h.num_nodes == g.num_nodes
    assert np.array_equal(h.edges, g.edges)
    assert np.array_equal(h.features, g.features)   # repr() floats round-trip
    assert np.array_equal(h.labels, g.labels)


def test_comments_and_blank_lines_ignored(tmp_path):
    (tmp_path / "e.txt").write_text("# header\n0 1\n\n1 2  # trailing\n")
    (tmp_path / "f.txt").write_text("1.0 2.0\n3.0 4.0\n5.0 6.0\n")
    (tmp_path / "l.txt").write_text("0\n1\n0\n")
    g = load_graph(str(tmp_path / "e.txt"), str(tmp_path / "f.txt"),
                   str(tmp_path / "l.txt"))
    assert g.num_undirected_edges() == 2


def test_parse_error_names_file_and_line(tmp_path):
    (tmp_path / "e.txt").write_text("0 1\n")
    (tmp_path / "f.txt").write_text("1.0 2.0\n3.0 oops\n")
    (tmp_path / "l.txt").write_text("0\n0\n")
    with pytest.raises(GraphParseError) as err:
        load_graph(str(tmp_path / "e.txt"), str(tmp_path / "f.txt"),
                   str(tmp_path / "l.txt"))
    assert "f.txt" in str(err.value) and "line 2" in str(err.value)


def test_ragged_feature_rows_rejected(tmp_path):
    (tmp_path / "e.txt").write_text("0 1\n")
    (tmp_path / "f.txt").write_text("1.0 2.0\n3.0\n")
    (tmp_path / "l.txt").write_text("0\n0\n")
    with pytest.raises(GraphParseError) as err:
        load_graph(str(tmp_path / "e.txt"), str(tmp_path / "f.txt"),
                   str(tmp_path / "l.txt"))
    assert "line 2" in str(err.value)


def test_bad_edge_token_count_rejected(tmp_path):
    (tmp_path / "e.txt").write_text("0 1 2\n")
    (tmp_path / "f.txt").write_text("1.0\n2.0\n")
    (tmp_path / "l.txt").write_text("0\n0\n")
    with pytest.raises(GraphParseError) as err:
        load_graph(str(tmp_path / "e.txt"), str(tmp_path / "f.txt"),
                   str(tmp_path / "l.txt"))
    assert "e.txt" in str(err.value)


def test_bad_label_token_count_rejected(tmp_path):
    (tmp_path / "e.txt").write_text("0 1\n")
    (tmp_path / "f.txt").write_text("1.0\n2.0\n")
    (tmp_path / "l.txt").write_text("0\n0 1\n")
    with pytest.raises(GraphParseError, match="l.txt: line 2: expected 1 values, got 2"):
        load_graph(str(tmp_path / "e.txt"), str(tmp_path / "f.txt"),
                   str(tmp_path / "l.txt"))


def test_numbered_lines_breaks_where_splitlines_does():
    text = "a # note\n\n  b\x0cc\r\n# only a comment\nd\u2028e\x85f"
    assert list(graph.numbered_lines(text)) == [
        (1, "a"), (3, "b"), (4, "c"), (6, "d"), (7, "e"), (8, "f")]


def test_read_text_refuses_what_is_not_a_regular_file(tmp_path):
    for path in (str(tmp_path), str(tmp_path / "nope")):
        with pytest.raises(FileNotFoundError) as err:
            graph.read_text(path)
        assert path in str(err.value)


def test_read_text_raises_the_callers_error_on_text_that_is_not_utf8(tmp_path):
    class Custom(Exception):
        pass
    path = tmp_path / "x.txt"
    path.write_bytes(b"0 1\n\xff\n")
    with pytest.raises(GraphParseError, match="not UTF-8"):
        graph.read_text(str(path))
    with pytest.raises(Custom, match="not UTF-8"):
        graph.read_text(str(path), Custom)


NUMPY_READERS = ("loadtxt", "genfromtxt", "fromfile", "load")


def _file_calls(tree: ast.AST, module: str) -> tuple[list, list]:
    """In a parsed module: (module, enclosing function, text mode?) of each
    call to open, os.open, io.open, os.fdopen or Path.open, and (module,
    enclosing function, reader, first argument) of each call to one of
    numpy's file readers, as np.X, numpy.X or a bare imported X."""
    opens, reads = [], []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        func = getattr(node, "func", None)
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        if isinstance(node, ast.Call) and (
                name == "open" or isinstance(func, ast.Attribute) and name == "fdopen"):
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), None)
            opens.append((module, where, not (isinstance(mode, ast.Constant)
                                              and "b" in mode.value)))
        elif isinstance(node, ast.Call) and name in NUMPY_READERS and (
                isinstance(func, ast.Name)
                or isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy")):
            reads.append((module, where, name, ast.unparse(node.args[0]) if node.args else ""))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, None)
    return opens, reads


def test_only_the_reader_the_writer_and_the_checkpoint_loader_open_files():
    src = Path(graph.__file__).parent
    found = [_file_calls(ast.parse(path.read_text(encoding="utf-8")), path.stem)
             for path in sorted(src.glob("*.py"))]
    assert sorted(call for opens, _ in found for call in opens) == [
        ("checkpoint", "load_checkpoint", False),
        ("graph", "read_text", True),
        ("graph", "write_atomic", False)]
    # and no numpy reader opens a path behind read_text: loadtxt, at its one
    # call site, is fed lines of the text read_text returned
    assert [call for _, reads in found for call in reads] == [
        ("graph", "_loadtxt", "loadtxt", "lines")]


@pytest.fixture
def ascii_loadtxt(monkeypatch):
    """np.loadtxt, failing the test when any line it is given is not ASCII:
    numpy's int reader hands such characters to C's isdigit, which can crash."""
    loadtxt = np.loadtxt

    def ascii_only(lines, *args, **kwargs):
        assert all(line.isascii() for line in lines), f"np.loadtxt was given {lines!r}"
        return loadtxt(lines, *args, **kwargs)

    monkeypatch.setattr(graph.np, "loadtxt", ascii_only)


def test_text_that_is_not_ascii_never_reaches_loadtxt(tmp_path, ascii_loadtxt):
    path = tmp_path / "e.txt"
    path.write_text("0\xa01\n1 \u0662\n", encoding="utf-8")
    with pytest.raises(GraphParseError, match=r"e\.txt: line 1: not ASCII"):
        graph._table(str(path), np.int64, 2)
    path.write_text("0 1\n\U00097356\xa2 2\n", encoding="utf-8")
    with pytest.raises(GraphParseError, match=r"e\.txt: line 2: not ASCII"):
        graph._table(str(path), np.int64, 2)


@pytest.mark.parametrize("name,text,dtype,width,lineno", [
    ("e.txt", "0 1\n0 1_0\n", np.int64, 2, 2),
    ("l.txt", "# labels\n0\n\u0661\u0662\n", np.int64, 1, 3),
    ("f.txt", "1.0\xa02.0\n", np.float64, None, 1),
])
def test_a_token_loadtxt_does_not_read_is_a_parse_error(tmp_path, name, text, dtype,
                                                         width, lineno):
    # Python's int and float read each of these: 10, 12 and (1.0, 2.0)
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    head = rf"^{re.escape(str(path))}: line {lineno}: "
    with pytest.raises(GraphParseError, match=head) as caught:
        graph._table(str(path), dtype, width)
    # the line is named, and loadtxt's row, always 0 for a line read alone, is not
    why = str(caught.value)[len(str(path)):]
    assert "row" not in why
    if name == "e.txt":
        assert "column 2" in why


def test_text_that_is_not_ascii_only_in_comments_loads(tmp_path, ascii_loadtxt):
    path = tmp_path / "f.txt"
    path.write_text("# caf\u00e9 \u0661\n1.5 2 # \xa0 \U00097356\n-0.25 1e3\n",
                    encoding="utf-8")
    got = graph._table(str(path), np.float64, None)
    assert got.dtype == np.float64 and got.tolist() == [[1.5, 2.0], [-0.25, 1e3]]


def _no_data_files(tmp_path, edges="0 1\n", features="1.0\n2.0\n", labels="0\n0\n"):
    paths = [str(tmp_path / n) for n in ("e.txt", "f.txt", "l.txt")]
    for path, text in zip(paths, (edges, features, labels)):
        Path(path).write_text(text, encoding="utf-8")
    return paths


@pytest.mark.parametrize("text", ["", "\n  \n", "# only a comment\n\t# 0 1\n"])
def test_an_edges_file_without_data_is_an_edgeless_graph(tmp_path, text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = load_graph(*_no_data_files(tmp_path, edges=text))
    assert g.edges.shape == (0, 2) and g.edges.dtype == np.int64
    assert g.num_nodes == 2


def test_a_features_file_without_data_has_no_feature_rows(tmp_path):
    paths = _no_data_files(tmp_path, features="# only a comment\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GraphParseError, match=r"f\.txt: no feature rows$"):
            load_graph(*paths)


def test_an_empty_labels_file_has_no_labels_for_the_feature_rows(tmp_path):
    paths = _no_data_files(tmp_path, labels="")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GraphValidationError, match=r"l\.txt: 0 labels for 2 feature rows$"):
            load_graph(*paths)


def test_label_count_mismatch_rejected(tmp_path):
    (tmp_path / "e.txt").write_text("0 1\n")
    (tmp_path / "f.txt").write_text("1.0\n2.0\n")
    (tmp_path / "l.txt").write_text("0\n")
    with pytest.raises(GraphValidationError):
        load_graph(str(tmp_path / "e.txt"), str(tmp_path / "f.txt"),
                   str(tmp_path / "l.txt"))


def test_canonical_edges_text_lists_each_pair_once():
    edges_text, _, _ = canonical_texts(_small_graph())
    assert edges_text == "0 1\n0 2\n1 2\n"


# --------------------------------------------------------------- operators

def test_normalized_adjacency_two_node_value():
    g = build_graph(2, [(0, 1)], np.zeros((2, 1)), [0, 0])
    dense = normalize_adjacency(g).mat.toarray()
    assert np.array_equal(dense, np.full((2, 2), 0.5))


def test_normalized_adjacency_bitwise_symmetric():
    g = sbm_generate([20, 20, 20], 0.3, 0.05, 4, 1.0, seed=1)
    dense = normalize_adjacency(g).mat.toarray()
    assert np.array_equal(dense, dense.T)
    assert np.all(dense.diagonal() > 0.0)          # self connections present


def test_normalized_adjacency_hand_path():
    # path 0-1-2: degrees with self loops are 2, 3, 2
    g = build_graph(3, [(0, 1), (1, 2)], np.zeros((3, 1)), [0, 0, 0])
    dense = normalize_adjacency(g).mat.toarray()
    want = np.array([[1 / 2, 1 / np.sqrt(6), 0],
                     [1 / np.sqrt(6), 1 / 3, 1 / np.sqrt(6)],
                     [0, 1 / np.sqrt(6), 1 / 2]])
    assert np.allclose(dense, want, atol=1e-15)


def test_mean_adjacency_row_stochastic_self_excluded():
    g = _small_graph()           # nodes 0-2 form a triangle, node 3 is isolated
    dense = mean_adjacency(g).mat.toarray()
    assert np.allclose(dense[:3].sum(axis=1), 1.0, atol=1e-12)
    assert np.array_equal(dense.diagonal(), np.zeros(4))


def test_mean_adjacency_isolated_row_is_zero():
    g = build_graph(3, [(0, 1)], np.zeros((3, 1)), [0, 0, 0])
    dense = mean_adjacency(g).mat.toarray()
    assert np.array_equal(dense[2], np.zeros(3))


def test_operator_for_dispatch():
    g = _small_graph()
    gcn = operator_for("gcn", g).mat.toarray()
    sage = operator_for("sage", g).mat.toarray()
    assert np.array_equal(gcn, normalize_adjacency(g).mat.toarray())
    assert np.array_equal(sage, mean_adjacency(g).mat.toarray())
    assert gcn[3, 3] == 1.0 and sage[3, 3] == 0.0   # self loop only in gcn
    with pytest.raises(ValueError):
        operator_for("mlp", g)


def test_normalize_rows_keeps_zero_rows():
    x = np.array([[3.0, 4.0], [0.0, 0.0]])
    out = normalize_rows(x)
    assert np.allclose(out[0], [0.6, 0.8])
    assert np.array_equal(out[1], [0.0, 0.0])


# ------------------------------------------------------------------ splits

def _split_graph(seed=0):
    return sbm_generate([30, 30, 30, 30], 0.2, 0.02, 4, 1.0, seed=seed)


def test_split_masks_partition_their_classes():
    g = _split_graph()
    s = split_classes(g, [0, 1], [2, 3], (0.6, 0.2, 0.2), seed=3)
    p1 = s.p1_train + s.p1_val + s.p1_test
    p2 = s.p2_train + s.p2_val + s.p2_test
    assert sorted(p1) == sorted(np.flatnonzero(np.isin(g.labels, [0, 1])).tolist())
    assert sorted(p2) == sorted(np.flatnonzero(np.isin(g.labels, [2, 3])).tolist())
    assert len(set(p1)) == len(p1) and len(set(p2)) == len(p2)
    assert s.all_test == sorted(s.p1_test + s.p2_test)


def test_split_is_stratified_per_class():
    g = _split_graph()
    s = split_classes(g, [0, 1], [2, 3], (0.6, 0.2, 0.2), seed=4)
    for c in (0, 1):
        train_c = np.sum(g.labels[s.p1_train] == c)
        assert train_c == 18       # floor(0.6 * 30)


def test_split_masks_are_sorted():
    g = _split_graph()
    s = split_classes(g, [0, 1], [2, 3], seed=5)
    for k in ("p1_train", "p1_val", "p1_test", "p2_train", "p2_val", "p2_test"):
        ids = getattr(s, k)
        assert ids == sorted(ids)


def test_split_deterministic_and_seed_sensitive():
    g = _split_graph()
    a = split_classes(g, [0, 1], [2, 3], seed=6)
    b = split_classes(g, [0, 1], [2, 3], seed=6)
    c = split_classes(g, [0, 1], [2, 3], seed=7)
    assert a == b
    assert a != c


def test_split_ratios_must_sum_to_one():
    g = _split_graph()
    with pytest.raises(ValueError):
        split_classes(g, [0, 1], [2, 3], (0.5, 0.2, 0.2), seed=0)


def test_split_rejects_overlapping_class_lists():
    g = _split_graph()
    with pytest.raises(GraphValidationError):
        split_classes(g, [0, 1, 2], [2, 3], seed=0)


def test_split_requires_three_nodes_per_class():
    g = build_graph(5, [(0, 1)], np.zeros((5, 2)), [0, 0, 0, 1, 1])
    with pytest.raises(GraphValidationError):
        split_classes(g, [0], [1], (0.4, 0.3, 0.3), seed=0)


def test_tiny_class_still_fills_every_bucket():
    g = build_graph(6, [(0, 1)], np.zeros((6, 2)), [0, 0, 0, 1, 1, 1])
    s = split_classes(g, [0], [1], (0.8, 0.1, 0.1), seed=0)
    assert len(s.p1_train) >= 1 and len(s.p1_val) >= 1 and len(s.p1_test) >= 1


def test_validate_split_catches_tampering():
    g = _split_graph()
    s = split_classes(g, [0, 1], [2, 3], seed=8)
    s.p1_val.append(s.p1_train[0])          # duplicate across phase-1 masks
    with pytest.raises(GraphValidationError):
        validate_split(g, s)


def test_split_json_round_trip(tmp_path):
    g = _split_graph()
    s = split_classes(g, [0, 1], [2, 3], seed=9)
    path = str(tmp_path / "split.json")
    s.save(path)
    assert ClassSplit.load(path) == s


# --------------------------------------------------------------------- SBM

def test_sbm_edge_count_within_three_sigma():
    # expectation and variance derived from the independent Bernoulli pairs
    blocks, p_in, p_out = [50] * 5, 0.2, 0.01
    within_pairs = 5 * (50 * 49 // 2)
    total_pairs = (250 * 249) // 2
    cross_pairs = total_pairs - within_pairs
    mean_edges = within_pairs * p_in + cross_pairs * p_out
    var_edges = (within_pairs * p_in * (1 - p_in)
                 + cross_pairs * p_out * (1 - p_out))
    g = sbm_generate(blocks, p_in, p_out, 8, 1.0, seed=123)
    count = g.num_undirected_edges()
    assert abs(count - mean_edges) <= 3.0 * np.sqrt(var_edges)


def test_sbm_extremes_give_block_cliques():
    g = sbm_generate([4, 5], 1.0, 0.0, 3, 1.0, seed=0)
    assert g.num_undirected_edges() == 4 * 3 // 2 + 5 * 4 // 2
    u, v = g.edges[:, 0], g.edges[:, 1]
    assert np.all(g.labels[u] == g.labels[v])      # never crosses blocks


def test_sbm_labels_are_block_indices():
    g = sbm_generate([3, 4, 2], 0.5, 0.1, 2, 0.0, seed=0)
    assert np.array_equal(g.labels, [0, 0, 0, 1, 1, 1, 1, 2, 2])


def test_sbm_label_independence_when_p_equal():
    # with p_in == p_out each pair is an edge with the same probability, so
    # within/cross edge counts follow the pair-count proportions
    blocks, p = [15, 15], 0.2
    within_pairs = 2 * (15 * 14 // 2)
    cross_pairs = 15 * 15
    obs = np.zeros(2)
    for seed in range(200):
        g = sbm_generate(blocks, p, p, 2, 0.0, seed=seed)
        und = g.edges[g.edges[:, 0] < g.edges[:, 1]]
        same = g.labels[und[:, 0]] == g.labels[und[:, 1]]
        obs[0] += np.sum(same)
        obs[1] += np.sum(~same)
    total = obs.sum()
    expect = total * np.array([within_pairs, cross_pairs]) / (within_pairs + cross_pairs)
    assert chisquare(obs, expect).pvalue > 0.001


def test_sbm_feature_means_separate_with_shift():
    g = sbm_generate([200, 200], 0.1, 0.1, 6, 5.0, seed=11)
    mu0 = g.features[g.labels == 0].mean(axis=0)
    mu1 = g.features[g.labels == 1].mean(axis=0)
    # orthonormal directions scaled by the shift: distance ~ 5 * sqrt(2)
    assert abs(np.linalg.norm(mu0 - mu1) - 5.0 * np.sqrt(2)) < 1.0
    flat = sbm_generate([200, 200], 0.1, 0.1, 6, 0.0, seed=11)
    m0 = flat.features[flat.labels == 0].mean(axis=0)
    m1 = flat.features[flat.labels == 1].mean(axis=0)
    assert np.linalg.norm(m0 - m1) < 0.5


def test_sbm_more_classes_than_feature_dims():
    g = sbm_generate([5, 5, 5, 5], 0.5, 0.1, 2, 1.0, seed=2)
    assert g.feat_dim == 2 and len(np.unique(g.labels)) == 4


def test_sbm_deterministic_per_seed():
    a = sbm_generate([10, 10], 0.3, 0.05, 4, 1.0, seed=42)
    b = sbm_generate([10, 10], 0.3, 0.05, 4, 1.0, seed=42)
    c = sbm_generate([10, 10], 0.3, 0.05, 4, 1.0, seed=43)
    assert np.array_equal(a.edges, b.edges)
    assert np.array_equal(a.features, b.features)
    assert not (np.array_equal(a.edges, c.edges)
                and np.array_equal(a.features, c.features))


def test_sbm_rejects_bad_probabilities():
    with pytest.raises(ValueError):
        sbm_generate([5, 5], 1.5, 0.1, 2, 1.0, seed=0)
    with pytest.raises(ValueError):
        sbm_generate([5, 0], 0.5, 0.1, 2, 1.0, seed=0)


# ------------------------------------------------------ setup path, pinned

# sha256 of the three canonical texts of sbm_generate(*args), recorded from
# the all-pairs generator (np.triu_indices over every candidate pair, then
# unique/vstack/lexsort edges and per-element text). The row-blocked sampler
# and the list-based text must reproduce them at every block size.
SBM_PINS = {
    "n1": (([1], 0.5, 0.5, 3, 1.0, 0),
           "dda21f536d0edea794bb2658f7fefe3ce366a71b0ad604a8f47876b2876f9056"),
    "single": (([3, 4, 5], 0.5, 0.1, 4, 1.0, 1),
               "9e698936154a8458da1b792268be2c1c81112d2de0528c7c688d7f7aca0ae1a0"),
    "two_blocks": (([4, 4], 0.6, 0.2, 3, 1.0, 2),
                   "3498e5065a67f9917dfed97aee22eb96a73fbbf543a231e1c0d112781aee5e42"),
    "p0": (([5, 6], 0.0, 0.0, 2, 1.0, 3),
           "4e8e7bf87079480f0752e71e35afa51c432da6fc7cb5a61d696bf7adaa4fc0f8"),
    "p1": (([5, 6], 1.0, 1.0, 2, 1.0, 4),
           "f9ae80bc0d35be239e946c835d656160c7f8872d44dca71cabf501be18012f98"),
    "cliques": (([7, 1, 9], 1.0, 0.0, 5, 2.0, 5),
                "1836351b59e87a226da3dd0011b28b1b6b6d7682bdb841af66536a7b84a632e8"),
}
# at the default SBM_BLOCK_PAIRS (2**20): one block of 1,025 rows for 1,023
# nodes, one of exactly n rows for 1,024, two blocks (1,023 + 2 rows) for
# 1,025; then the propagate benchmark graph
SBM_PINS_DEFAULT = {
    "n1023": (([400, 623], 0.15, 0.01, 16, 1.0, 6),
              "202027cff29b3aac8ed5f1dbaa225ff76262f14885c9490fe9675bdd28a40798"),
    "n1024": (([512, 512], 0.15, 0.01, 16, 1.0, 7),
              "bae0591e085689de9ab1b9d6973b4da18d05c2edfe126eba8c8b067a611243d3"),
    "n1025": (([500, 525], 0.15, 0.01, 16, 1.0, 8),
              "3c44b2006c1f7b198e9cef406bc7664ec466a981c71cd542aa9b0c2eebb6d9fb"),
    "propagate": (([800, 800, 800, 100, 100], 0.15, 0.01, 16, 1.0, 0),
                  "8cb54d2d0e33aa84c677dd5f79e5702499f3b08f7b7804993e732bbf8911ebdd"),
}


def _texts_sha(g):
    return hashlib.sha256("".join(canonical_texts(g)).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("rows", ["1", "n-1", "n", "n+1", "default"])
@pytest.mark.parametrize("name", sorted(SBM_PINS))
def test_sbm_pinned_at_every_block_size(monkeypatch, name, rows):
    # block rows = budget // n, so these budgets give one row per block and
    # n at block size +1, +0 and -1 rows
    args, want = SBM_PINS[name]
    n = sum(args[0])
    budget = {"1": 1, "n-1": n * (n - 1), "n": n * n, "n+1": n * (n + 1),
              "default": graph.SBM_BLOCK_PAIRS}[rows]
    monkeypatch.setattr(graph, "SBM_BLOCK_PAIRS", budget)
    assert _texts_sha(sbm_generate(*args)) == want


@pytest.mark.parametrize("name", sorted(SBM_PINS_DEFAULT))
def test_sbm_pinned_at_default_block_size(name):
    args, want = SBM_PINS_DEFAULT[name]
    assert _texts_sha(sbm_generate(*args)) == want


def _old_canonical_edges(pairs):
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    und = np.unique(np.stack([lo, hi], axis=1), axis=0)
    both = np.vstack([und, und[:, ::-1]])
    return both[np.lexsort((both[:, 1], both[:, 0]))].astype(np.int64)


_BIG = 2 ** 31          # lo * n + hi reaches ~2**62
_EDGE_CASES = {
    "both_orientations": (np.array([[3, 7], [7, 3], [3, 7], [7, 3]]), 10),
    "single_pair": (np.array([[4, 1]]), 5),
    "keys_near_2_62": (np.array([[_BIG - 1, 0], [_BIG - 2, _BIG - 1], [_BIG - 1, _BIG - 2],
                                 [0, _BIG - 1], [12345, _BIG - 1], [_BIG - 1, _BIG - 3]]),
                       _BIG),
}


def _random_pairs(seed):
    rng = np.random.default_rng(seed)
    n = 40
    pairs = rng.integers(0, n, size=(600, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    pairs = np.vstack([pairs, pairs[:200, ::-1], pairs[100:300]])   # repeats, flips
    rng.shuffle(pairs)
    return pairs, n


@pytest.mark.parametrize("case", [0, 1, 2, *_EDGE_CASES])
def test_canonical_edges_match_unique_vstack_lexsort(case):
    pairs, n = _EDGE_CASES[case] if isinstance(case, str) else _random_pairs(case)
    got = graph._canonical_edges(pairs, n)
    want = _old_canonical_edges(pairs)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    empty = graph._canonical_edges(np.zeros((0, 2), dtype=np.int64), n)
    assert empty.dtype == np.int64 and empty.shape == (0, 2)


@pytest.mark.parametrize("chunk", [1, 7, None])
def test_canonical_texts_match_per_element_formatter(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(graph, "TEXT_CHUNK", chunk)
    feats = np.array([[-0.0, 5e-324, 1e308], [0.1, -1e308, 1.0 / 3.0],
                      [2.0 ** 60, -5e-324, 0.0], [1e-300, 123456789.125, -2.5]])
    g = build_graph(4, [(3, 0), (1, 2), (0, 1), (2, 0), (1, 3)], feats,
                    [0, 2 ** 62, 7, 0])
    und = g.edges[g.edges[:, 0] < g.edges[:, 1]]
    want = ("".join(f"{u} {v}\n" for u, v in und),
            "".join(" ".join(repr(float(x)) for x in row) + "\n" for row in g.features),
            "".join(f"{y}\n" for y in g.labels))
    assert canonical_texts(g) == want
    assert canonical_texts(g)[1].startswith("-0.0 5e-324 1e+308\n")
    big = sbm_generate([30, 30], 0.3, 0.05, 3, 1.0, seed=9)
    und = big.edges[big.edges[:, 0] < big.edges[:, 1]]
    assert canonical_texts(big)[0] == "".join(f"{u} {v}\n" for u, v in und)
