"""Property tests: on any input the parsers raise only their typed errors, the
dataset hash is that of the parsed graph, whatever text spells it, the graph
tables read by np.loadtxt are what the per-token loop reads, and the command
line returns one of its documented exit codes.

Hypothesis runs derandomized and without its example database, so every run
draws the same examples (conftest.py keeps its caches out of the tree).
"""
import io
import json
import os
import shutil
import struct
import sys
import tempfile
from dataclasses import fields

import numpy as np
import pytest

from graphncd import cli
from graphncd.checkpoint import FORMAT_VERSION, CheckpointError, load_checkpoint
from graphncd.config import ConfigError, RunConfig, parse_config_text
from graphncd.graph import (ClassSplit, GraphParseError, GraphValidationError,
                            _parse_tokens, _table, build_graph, canonical_texts,
                            load_graph, save_graph, validate_split)
from graphncd.training import load_state

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=150,
                suppress_health_check=[HealthCheck.function_scoped_fixture])



KEYS = [f.name for f in fields(RunConfig)]

# any size, and just past either end of int64 more often than chance would
integers = (st.integers() | st.integers(2 ** 63 - 1, 2 ** 64)
            | st.integers(-2 ** 64, -2 ** 63 - 1))
json_values = st.recursive(
    st.none() | st.booleans() | integers | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8)

DEFAULTS = RunConfig()


def typed_values(key):
    """Values of the key's own type, so that a config often gets past parsing
    and reaches the value rules: in range, at an edge, or past it."""
    default = getattr(DEFAULTS, key)
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return integers
    if isinstance(default, float):
        return st.floats()
    if isinstance(default, list):
        return st.lists(integers | st.floats(), max_size=5)
    return st.sampled_from(["", "gcn", "sage", "sbm", "files", "joint", "unit"])


def as_text(value):
    if isinstance(value, list):
        return ",".join(map(str, value))
    return str(value)


keys = st.sampled_from(KEYS)
typed_configs = st.lists(keys.flatmap(lambda k: st.tuples(st.just(k), typed_values(k))),
                         min_size=1, max_size=3)
garbage = (st.text(max_size=120)
           | st.lists(st.tuples(keys | st.text(max_size=8), st.text(max_size=12))
                      .map(" = ".join), max_size=4).map("\n".join)
           | st.dictionaries(keys | st.text(max_size=8), json_values,
                             max_size=4).map(json.dumps))


@FUZZ
@given(typed_configs.map(lambda kv: "\n".join(f"{k} = {as_text(v)}" for k, v in kv))
       | typed_configs.map(lambda kv: json.dumps(dict(kv))) | garbage)
def test_parse_config_text_raises_only_config_error(text):
    try:
        parse_config_text(text)
    except ConfigError:
        pass


small = st.integers(-2, 3)
entries = (st.fixed_dictionaries({"name": st.text(max_size=3) | json_values,
                                  "rows": small | json_values,
                                  "cols": small | json_values})
           | json_values)
metas = (st.fixed_dictionaries({"backbone": st.sampled_from(["gcn", "sage"]) | json_values,
                                "dims": st.lists(small, max_size=3) | json_values,
                                "phase": st.sampled_from([1, 2]) | json_values,
                                "num_old": small | json_values,
                                "num_new": small | json_values})
         | json_values)
headers = (st.fixed_dictionaries({"format_version": st.just(FORMAT_VERSION) | json_values,
                                  "meta": metas,
                                  "tensors": st.lists(entries, max_size=3) | json_values})
           | json_values).map(lambda h: json.dumps(h).encode("utf-8"))
payloads = st.integers(0, 12).map(lambda n: bytes(8 * n)) | st.binary(max_size=40)
checkpoints = (st.binary(max_size=80)
               | st.tuples(st.binary(max_size=40), payloads)
               .map(lambda hp: struct.pack("<Q", len(hp[0])) + hp[0] + hp[1])
               | st.tuples(headers, payloads)
               .map(lambda hp: struct.pack("<Q", len(hp[0])) + hp[0] + hp[1]))


@FUZZ
@given(blob=checkpoints)
def test_checkpoint_loaders_raise_only_checkpoint_error(tmp_path, blob):
    path = tmp_path / "ckpt.bin"
    path.write_bytes(blob)
    for load in (load_checkpoint, load_state):
        try:
            load(str(path))
        except CheckpointError:
            pass


split_keys = st.sampled_from([f.name for f in fields(ClassSplit)]) | st.text(max_size=6)
# four nodes, classes 0 and 1: a split that parses is then checked against it,
# and the class lists often fit it, so that the node-id checks run too
SPLIT_GRAPH = build_graph(4, [[0, 1], [2, 3]], [[0.0], [1.0], [2.0], [3.0]], [0, 0, 1, 1])
ids = st.lists(st.integers(0, 3) | integers, max_size=4)
well_typed = st.fixed_dictionaries(
    {f.name: st.just([i]) | ids if i < 2 else ids
     for i, f in enumerate(fields(ClassSplit))})
splits = (st.dictionaries(split_keys, st.lists(integers, max_size=4) | json_values,
                          max_size=8).map(json.dumps)
          | well_typed.map(json.dumps) | json_values.map(json.dumps) | st.text(max_size=40))


@FUZZ
@given(splits)
def test_split_from_json_raises_only_graph_parse_error(text):
    try:
        split = ClassSplit.from_json(text)
    except GraphParseError:
        return
    try:
        validate_split(SPLIT_GRAPH, split)
    except GraphValidationError:
        pass


# rows of numbers (ints at and past int64 among them) that often parse, so
# that the checks after parsing run too, or any text, written as UTF-8 with
# lone surrogates passed through, so undecodable too
numbers = st.sampled_from(["0", "1", "2", "-1", "0.5", "nan", "1e999", "#"]) | integers.map(str)


def rows(width):
    return (st.lists(st.lists(numbers, min_size=width, max_size=width).map(" ".join),
                     min_size=1, max_size=4).map("\n".join)
            | st.text(max_size=30))


@FUZZ
@given(texts=st.tuples(rows(2), rows(1), rows(1)))
def test_load_graph_raises_only_graph_errors(tmp_path, texts):
    paths = [str(tmp_path / name) for name in ("edges.txt", "features.txt", "labels.txt")]
    for path, text in zip(paths, texts):
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8", "surrogatepass"))
    try:
        load_graph(*paths)
    except (GraphParseError, GraphValidationError):
        pass


@st.composite
def small_graphs(draw):
    """(n, features, labels, edge pairs) of a valid graph of 2-6 nodes, with
    subnormal, signed-zero and repeated feature values among the floats."""
    n, d = draw(st.integers(2, 6)), draw(st.integers(1, 3))
    value = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 5e-324, 1.0])
    feats = draw(st.lists(st.lists(value, min_size=d, max_size=d), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    steps = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)),
                          max_size=8))
    return n, feats, labels, [(u, (u + k) % n) for u, k in steps]


def _interleave(draw, lines) -> str:
    """The lines in order, with comment and blank lines drawn in between."""
    out = list(lines)
    for noise in draw(st.lists(st.sampled_from(["", "  ", "# note", "\t# 0 1"]),
                               max_size=4)):
        out.insert(draw(st.integers(0, len(out))), noise)
    return "\n".join(out) + "\n"


@st.composite
def relaid(draw, graph):
    """Other text for the same graph: the edge lines permuted, with endpoints
    swapped, some edges repeated and trailing comments, the features at 17
    significant digits, and comment and blank lines anywhere."""
    n, feats, labels, pairs = graph
    pairs = pairs + (draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else [])
    edges = draw(st.permutations(
        [" ".join(map(str, p[::-1] if draw(st.booleans()) else p))
         + draw(st.sampled_from(["", " # edge"])) for p in pairs]))
    rows = [" ".join(format(x, ".17g") for x in row) for row in feats]
    return tuple(_interleave(draw, lines) for lines in (edges, rows, map(str, labels)))


@st.composite
def one_change(draw, graph):
    """The graph with one label, one feature (by one ulp) or one edge changed."""
    n, feats, labels, pairs = graph
    feats, labels = [list(row) for row in feats], list(labels)
    i = draw(st.integers(0, n - 1))
    what = draw(st.sampled_from(["label", "feature", "edge"]))
    if what == "label":
        labels[i] += 1
    elif what == "feature":
        j = draw(st.integers(0, len(feats[i]) - 1))
        feats[i][j] = float(np.nextafter(feats[i][j], np.inf))
    else:  # drop the edge if the graph has it, else add it
        edge = {i, (i + draw(st.integers(1, n - 1))) % n}
        kept = [p for p in pairs if set(p) != edge]
        pairs = kept if len(kept) < len(pairs) else pairs + [tuple(edge)]
    return n, feats, labels, pairs


def _files_hash(tmp_path, texts) -> str:
    paths = [str(tmp_path / f"{key}.txt") for key in ("edges", "features", "labels")]
    for path, text in zip(paths, texts):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    rc = RunConfig(dataset="files", edges=paths[0], features=paths[1], labels=paths[2])
    return cli.resolve_dataset(rc)[1]


def _canonical(graph):
    n, feats, labels, pairs = graph
    return canonical_texts(build_graph(n, pairs, feats, labels))


@FUZZ
@given(graph=small_graphs(), data=st.data())
def test_dataset_hash_is_that_of_the_parsed_graph(tmp_path, graph, data):
    want = _files_hash(tmp_path, _canonical(graph))
    assert _files_hash(tmp_path, data.draw(relaid(graph))) == want
    assert _files_hash(tmp_path, _canonical(data.draw(one_change(graph)))) != want


# token forms on which np.loadtxt and Python's float or int might part:
# AGREED both read alike in a table of that dtype, and loadtxt refuses every
# REFUSED form in an int table (Python reads some of them)
INT_AGREED = ["+5", "-0", "00012", "0" * 25 + "7", "9223372036854775807",
              "-9223372036854775808"]
AGREED = {np.int64: INT_AGREED,
          np.float64: INT_AGREED + ["nan", "-nan", "Infinity", "-inf", "1e400", "1e-400",
                                    ".5", "5.", "5e-324", "5.0", "1e5"]}
REFUSED = ["1_0", "\u0661\u0662", "\U0001d7d9", "9223372036854775808", "-9223372036854775809",
           "5.0", "1e5", "0x10", "1\x002", "\ufeff1", "1e", "--1"]
SEPARATORS = st.sampled_from([" ", "\t", "\xa0", "\x1f", "\u2000", " \t "])
plain = {np.float64: st.floats().map(repr) | st.floats().map(lambda x: format(x, ".17g")),
         np.int64: st.integers(-2 ** 63, 2 ** 63 - 1).map(str)}


@st.composite
def tables(draw, dtype):
    """(text, width) of a table with at least one line of data: rows of plain
    numbers, with up to two tokens of an odd form and now and then one row of
    another width, joined by drawn separators, with separators around the
    row, trailing comments, and blank and comment lines in between."""
    width = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(plain[dtype], min_size=width, max_size=width),
                         min_size=1, max_size=5))
    for _ in range(draw(st.integers(0, 2))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[draw(st.integers(0, width - 1))] = draw(st.sampled_from(AGREED[dtype] + REFUSED))
    if draw(st.integers(0, 3)) == 0:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[:] = row[1:] or row + row
    lines = [draw(SEPARATORS | st.just("")) + draw(SEPARATORS).join(row)
             + draw(st.sampled_from(["", " ", "# note", " # 1 2", "\xa0"])) for row in rows]
    return _interleave(draw, lines), width


def _outcome(read):
    """A table's dtype, shape and bytes, or the text of its parse error."""
    try:
        arr = read()
    except GraphParseError as exc:
        return str(exc)
    return arr.dtype, arr.shape, arr.tobytes()


@FUZZ
@given(dtype=st.sampled_from([np.float64, np.int64]), data=st.data())
def test_table_reads_what_the_per_token_loop_reads(tmp_path, dtype, data):
    text, drawn = data.draw(tables(dtype))
    width = data.draw(st.sampled_from([None, drawn, drawn % 3 + 1]))
    path = str(tmp_path / "table.txt")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    want = _outcome(lambda: _parse_tokens(path, text, dtype, width))
    assert _outcome(lambda: _table(path, dtype, width)) == want


# A small dataset and schedule that validate and train in a blink. A drawn
# config is written after these lines (or merged over them, as JSON), and
# the keys that set the amount of work only draw small values, so that any
# command whose config validates finishes quickly.
TINY = {"sbm_blocks": [8, 8, 8, 8, 8], "sbm_feat_dim": 4, "hidden": 16,
        "pretrain_epochs": 2, "ncd_epochs": 2, "rampup_length": 1,
        "per_class_replay": 2, "sweep_layers": [2], "top_k": 2}
BOUNDED = {"sbm_blocks": st.lists(st.integers(-1, 8), max_size=6),
           "sbm_feat_dim": st.integers(-1, 6), "hidden": st.sampled_from([0, 16, 17]),
           "layers": st.integers(0, 4), "pretrain_epochs": st.integers(-1, 3),
           "ncd_epochs": st.integers(-1, 3), "per_class_replay": st.integers(-1, 3),
           "sweep_layers": st.lists(st.integers(0, 4), max_size=3)}
# paths, relative to the directory an invocation runs in: real inputs, a
# directory, files where a directory belongs and the other way round, missing ones
PATHS = st.sampled_from(["", "data/edges.txt", "data/features.txt", "data/labels.txt",
                         "data/split.json", "data", "done", "done/pretrain",
                         "done/ncd/checkpoint_ncd_best.bin", "noise.bin", "missing",
                         "run.cfg/x", "out", "out/deeper"])
PATH_KEYS = ("edges", "features", "labels", "split_file", "out", "pretrain_dir")
# what a command line carries: no NUL, but undecodable bytes as lone surrogates
argv_text = (st.text(st.characters(exclude_characters="\x00"), max_size=6)
             | st.sampled_from(["\udcff", "out\udcfe"]))
# a config file has no surrogates, but it may hold NUL
config_text = st.text(max_size=6) | st.sampled_from(["\x00", "out\x00"])


def cli_values(key):
    if key in BOUNDED:
        return BOUNDED[key]
    if key in PATH_KEYS:
        return PATHS | config_text
    return typed_values(key)


def flat_config(d):
    return "".join(f"{k} = {as_text(v)}\n" for k, v in {**TINY, **d}.items())


# built once here: drawing through flatmap, which builds new strategies for
# every example, made this test about three times slower
cli_configs = st.lists(st.one_of([st.tuples(st.just(k), cli_values(k)) for k in KEYS]),
                       max_size=3).map(dict)
config_files = (cli_configs.map(flat_config)
                | cli_configs.map(lambda d: json.dumps({**TINY, **d}))
                | st.text(max_size=40).map(lambda t: flat_config({}) + t))
FLAGS = {"--config": st.just("run.cfg") | PATHS,
         "--seed": integers.map(str) | argv_text,
         "--out": PATHS | argv_text, "--force": st.none(),
         "--pretrain-dir": PATHS | argv_text, "--checkpoint": PATHS | argv_text}
COMMON = ["--config", "--seed", "--out", "--force"]
COMMANDS = {"gen-data": COMMON, "pretrain": COMMON, "sweep-depth": COMMON, "run": COMMON,
            "ncd": COMMON + ["--pretrain-dir"], "eval": COMMON + ["--checkpoint"]}
OPTION = {f: v.map(lambda x, f=f: [f] if x is None else [f, x]) for f, v in FLAGS.items()}
stray = st.sampled_from(sorted(FLAGS)) | argv_text


def command_line(cmd):
    """The subcommand with its config and required option, then options it
    takes (the last of a repeated one wins), now and then a stray token."""
    takes = st.one_of([OPTION[f] for f in COMMANDS[cmd]])
    return st.tuples(st.just([cmd, "--config", "run.cfg"]),
                     *(OPTION[f] for f in COMMANDS[cmd] if f not in COMMON),
                     st.lists(takes, max_size=3).map(lambda gs: sum(gs, [])),
                     st.lists(stray, max_size=1)).map(lambda parts: sum(parts, []))


# or any tokens at all
command_lines = (st.one_of([command_line(cmd) for cmd in sorted(COMMANDS)])
                 | st.lists(stray, max_size=5))


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """What an invocation may name: a dataset on disk, a finished run, noise."""
    home = tmp_path_factory.mktemp("cli")
    (home / "run.cfg").write_text(json.dumps(TINY), encoding="utf-8")
    assert cli.main(["run", "--config", str(home / "run.cfg"),
                     "--out", str(home / "done")]) == 0
    os.makedirs(home / "data")
    save_graph(SPLIT_GRAPH, *(str(home / "data" / f"{n}.txt")
                              for n in ("edges", "features", "labels")))
    (home / "data" / "split.json").write_text('{"p1_train": [0]}', encoding="utf-8")
    (home / "noise.bin").write_bytes(bytes(range(256)))
    return home


def _stream(errors):
    """A UTF-8 text stream with the interpreter's error handler for it."""
    return io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors=errors)


@settings(FUZZ, max_examples=250)
@given(argv=command_lines, text=config_files)
def test_cli_returns_a_documented_exit_code(cli_inputs, monkeypatch, argv, text):
    # stdout and stderr as a UTF-8 locale sets them up
    monkeypatch.setattr(sys, "stdout", _stream("strict"))
    monkeypatch.setattr(sys, "stderr", _stream("backslashreplace"))
    with tempfile.TemporaryDirectory(dir=cli_inputs) as cwd:
        for name in ("data", "done"):
            shutil.copytree(cli_inputs / name, os.path.join(cwd, name))
        shutil.copy(cli_inputs / "noise.bin", cwd)
        with open(os.path.join(cwd, "run.cfg"), "w", encoding="utf-8") as fh:
            fh.write(text)
        monkeypatch.chdir(cwd)
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: a bad command line, or --help
            assert exc.code in (0, 2)
        else:
            assert code in (0, 1, 2, 3, 4)


# ------------------------------------------- the phase-1 JSON files ncd reads

def _paths(obj, path=()):
    """Every path into a parsed JSON value, the root's first."""
    yield path
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


# what a mutation puts in: any JSON value, integers past the float range, nan
# and the infinities (written as JSON's NaN and Infinity literals), booleans
phase1_values = (json_values | st.integers(2 ** 1024, 2 ** 1100)
                 | st.integers(-2 ** 1100, -2 ** 1024)
                 | st.sampled_from([float("nan"), float("inf"), -float("inf"), True, False]))
NOT_UTF8 = [b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80", b"\xf4\x90\x80\x80"]


@st.composite
def mutated_json(draw, obj):
    """The bytes of obj, a parsed JSON value, after one to three mutations,
    each at a drawn path into it: the value there dropped, replaced, or
    nested in a list or an object; now and then with bytes that are not
    UTF-8 put in."""
    obj = json.loads(json.dumps(obj))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(obj))))
        how = draw(st.sampled_from(["drop", "replace", "nest"]))
        if how == "nest":
            new = draw(st.sampled_from([lambda v: [v], lambda v: {"k": v}]))(_at(obj, path))
        else:
            new = draw(phase1_values)
        if not path:  # the root: no parent to drop it from
            obj = new
        elif how == "drop":
            del _at(obj, path[:-1])[path[-1]]
        else:
            _at(obj, path[:-1])[path[-1]] = new
    raw = json.dumps(obj).encode("utf-8")
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.sampled_from(NOT_UTF8)) + raw[at:]
    return raw


PHASE1_JSON = ("prototypes.json", "manifest.json")


@pytest.fixture(scope="module")
def phase1(tmp_path_factory):
    """A finished pretrain, the stage an ncd of the same config reads it in,
    and the bytes of its two JSON files."""
    home = tmp_path_factory.mktemp("phase1")
    (home / "run.cfg").write_text(json.dumps(TINY), encoding="utf-8")
    pre = home / "pre"
    assert cli.main(["pretrain", "--config", str(home / "run.cfg"), "--out", str(pre)]) == 0
    rc = cli.load_config(str(home / "run.cfg"))
    g, dataset_hash = cli.resolve_dataset(rc)
    split, split_hash = cli.resolve_split(rc, g)
    # _load_phase1 reads no encoder input
    stage = cli._Stage(rc, g, split, None, dataset_hash, split_hash,
                       cli.config_hash(rc, dataset_hash, split_hash))
    cli._load_phase1(str(pre), stage)       # the files as pretrain wrote them load
    return pre, stage, {name: (pre / name).read_bytes() for name in PHASE1_JSON}


@FUZZ
@given(names=st.sampled_from([PHASE1_JSON[:1], PHASE1_JSON[1:], PHASE1_JSON]),
       data=st.data())
def test_load_phase1_raises_only_stale_artifacts(phase1, names, data):
    pre, stage, valid = phase1
    try:
        for name in names:
            (pre / name).write_bytes(data.draw(mutated_json(json.loads(valid[name])),
                                               label=name))
        try:
            cli._load_phase1(str(pre), stage)
        except (cli.StaleArtifacts, CheckpointError):
            pass
    finally:
        for name in names:
            (pre / name).write_bytes(valid[name])
