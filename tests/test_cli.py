"""Command-line pipeline: artifacts, exit codes, guards, chaining."""
import builtins
import csv
import importlib.util
import io
import itertools
import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import graphncd.autodiff as ad
from graphncd import cli, graph, metrics, training
from graphncd.checkpoint import load_checkpoint, save_checkpoint
from graphncd.cli import main
from graphncd.config import load_config
from graphncd.graph import (ClassSplit, build_graph, input_features, load_graph,
                            operator_for, save_graph, validate_split)
from graphncd.metrics import evaluate_joint
from graphncd.models import EncoderInput, encode, freeze_encoder
from graphncd.training import load_state

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_artifacts.py"
_spec = importlib.util.spec_from_file_location("same_artifacts", _TOOL)
same_artifacts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_artifacts)

BASE = """
dataset = sbm
sbm_blocks = 15,15,15,15
sbm_p_in = 0.4
sbm_p_out = 0.03
sbm_feat_dim = 6
sbm_feat_shift = 2.5
old_classes = 0,1
new_classes = 2,3
hidden = 16
pretrain_epochs = 12
ncd_epochs = 20
rampup_length = 8
top_k = 3
seed = 0
"""


def _write_cfg(tmp_path, name="run.cfg", extra=""):
    path = tmp_path / name
    path.write_text(BASE + extra, encoding="utf-8")
    return str(path)


def _refuse_constant(name):
    raise ValueError(f"{name} is not standard JSON")


def _read_json(path):
    """A JSON artifact, which must be standard JSON: no NaN or Infinity."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_refuse_constant)


def _forward(state, rc, g):
    """The full forward the CLI evaluates a state on."""
    inp = EncoderInput.build(rc.backbone, operator_for(rc.backbone, g),
                             ad.constant(input_features(g, rc.normalize_features)))
    return encode(freeze_encoder(state.encoder), inp)


def _csv_rows(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


# the losses.csv columns README's "File formats" section documents
PRETRAIN_LOSSES = ["epoch", "loss", "val_acc"]
NCD_LOSSES = ["epoch", "pseudo", "self", "perturb", "replay", "distill",
              "beta1", "beta2", "total"]


# ------------------------------------------------------------------- gen-data

def test_gen_data_roundtrip_and_overwrite_guard(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = str(tmp_path / "data")
    assert main(["gen-data", "--config", cfg, "--out", out]) == 0
    g = load_graph(os.path.join(out, "edges.txt"),
                   os.path.join(out, "features.txt"),
                   os.path.join(out, "labels.txt"))
    assert g.num_nodes == 60 and g.feat_dim == 6
    split = ClassSplit.load(os.path.join(out, "split.json"))
    validate_split(g, split)
    manifest = _read_json(os.path.join(out, "gen_manifest.json"))
    assert manifest["num_nodes"] == 60
    assert manifest["num_undirected_edges"] == g.num_undirected_edges()
    # a second run must refuse to clobber the dataset
    assert main(["gen-data", "--config", cfg, "--out", out]) == 2
    assert "--force" in capsys.readouterr().err
    assert main(["gen-data", "--config", cfg, "--out", out, "--force"]) == 0


def test_gen_data_rejects_file_datasets(tmp_path):
    cfg = _write_cfg(tmp_path, extra="dataset = files\nedges = e\n"
                                     "features = f\nlabels = l\n")
    assert main(["gen-data", "--config", cfg,
                 "--out", str(tmp_path / "d")]) == 2


class _DiesHalfway:
    """A file handle whose write puts down half its data, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        raise OSError(28, "No space left on device")


def test_gen_data_that_dies_mid_write_leaves_no_truncated_file(tmp_path, monkeypatch,
                                                               capsys):
    cfg = _write_cfg(tmp_path)
    clean, out = tmp_path / "clean", tmp_path / "data"
    assert main(["gen-data", "--config", cfg, "--out", str(clean)]) == 0
    capsys.readouterr()
    real_open = open

    def dying_open(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        return _DiesHalfway(fh) if "features.txt" in os.fspath(path) else fh

    with monkeypatch.context() as m:
        m.setattr(graph, "open", dying_open, raising=False)
        assert main(["gen-data", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "No space" in err[0]
    names = ("edges.txt", "features.txt", "labels.txt", "split.json", "gen_manifest.json")
    # the first file is whole, the second never appeared, nothing after it ran
    assert (out / "edges.txt").read_bytes() == (clean / "edges.txt").read_bytes()
    assert [n for n in names if (out / n).exists()] == ["edges.txt"]
    assert not [f for f in os.listdir(out) if f.endswith(".tmp")]
    assert main(["gen-data", "--config", cfg, "--out", str(out), "--force"]) == 0
    for n in names[:4]:
        assert (out / n).read_bytes() == (clean / n).read_bytes()
    assert not [f for f in os.listdir(out) if f.endswith(".tmp")]


@pytest.mark.parametrize("write", [
    lambda path, v: save_checkpoint(path, [("w", np.full((2, 3), v))], {"v": v}),
    lambda path, v: cli._write_csv(path, ["v"], [[v]]),
], ids=["checkpoint", "csv"])
def test_failed_overwrite_leaves_the_old_file_whole(tmp_path, monkeypatch, write):
    path = tmp_path / "artifact"
    write(str(path), 1.0)
    old = path.read_bytes()
    real_open = open

    def dying_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return _DiesHalfway(fh) if "w" in mode else fh

    with monkeypatch.context() as m:
        m.setattr(builtins, "open", dying_open)
        with pytest.raises(OSError, match="No space"):
            write(str(path), 2.0)
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["artifact"]


# ------------------------------------------------------------------- pretrain

@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One pretrain+ncd pair shared by the read-only assertions below."""
    root = tmp_path_factory.mktemp("pipe")
    cfg = _write_cfg(root)
    pre = str(root / "pre")
    ncd = str(root / "ncd")
    assert main(["pretrain", "--config", cfg, "--out", pre]) == 0
    assert main(["ncd", "--config", cfg, "--out", ncd,
                 "--pretrain-dir", pre]) == 0
    return cfg, pre, ncd


def test_pretrain_artifacts(pipeline):
    cfg, pre, _ = pipeline
    manifest = _read_json(os.path.join(pre, "manifest.json"))
    assert manifest["command"] == "pretrain" and manifest["phase"] == 1
    for name in manifest["artifacts"]:
        assert os.path.isfile(os.path.join(pre, name)), name
    rows = _csv_rows(os.path.join(pre, "losses.csv"))
    assert rows[0] == PRETRAIN_LOSSES
    assert len(rows) == 12 + 1
    metrics = _read_json(os.path.join(pre, "metrics.json"))
    assert metrics["phase"] == 1 and "timestamp" in metrics
    assert metrics["old_acc"] == manifest["old_acc"]
    state, meta = load_state(os.path.join(pre, "checkpoint_pretrain.bin"))
    assert meta["phase"] == 1 and state.joint_head is None
    assert meta["phase1_hash"] == manifest["phase1_hash"]


def test_ncd_artifacts_and_flag_echo(pipeline):
    cfg, pre, ncd = pipeline
    manifest = _read_json(os.path.join(ncd, "manifest.json"))
    assert manifest["command"] == "ncd" and manifest["phase"] == 2
    for name in manifest["artifacts"]:
        assert os.path.isfile(os.path.join(ncd, name)), name
    rows = _csv_rows(os.path.join(ncd, "losses.csv"))
    assert rows[0] == NCD_LOSSES
    assert len(rows) == manifest["epochs_run"] + 1
    assert _read_json(os.path.join(ncd, "metrics.json"))["phase"] == 2
    # the manifest's config is the one record of the loss switches
    for flag in ("use_pseudo", "use_self", "use_perturb", "use_replay",
                 "use_distill"):
        assert manifest["config"][flag] is True
    state, meta = load_state(os.path.join(ncd, "checkpoint_ncd_best.bin"))
    assert meta["phase"] == 2 and state.joint_head is not None
    # taken from the phase-1 manifest: the value pretrain measured, bit for bit
    assert meta["phase1_old_acc"] == \
        _read_json(os.path.join(pre, "metrics.json"))["old_acc"]


def test_ncd_without_pretrain_artifacts(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    assert main(["ncd", "--config", cfg, "--out", str(tmp_path / "n"),
                 "--pretrain-dir", str(tmp_path / "empty")]) == 3
    assert "run pretrain first" in capsys.readouterr().err


def test_ncd_rejects_stale_pretrain(pipeline, tmp_path, capsys):
    cfg, pre, _ = pipeline
    # a different seed regenerates a different dataset: the stored phase-1
    # artifacts no longer describe it
    assert main(["ncd", "--config", cfg, "--out", str(tmp_path / "n"),
                 "--pretrain-dir", pre, "--seed", "1"]) == 3
    assert "rerun pretrain" in capsys.readouterr().err


def _copy_stage(src, dst):
    os.makedirs(dst)
    for name in os.listdir(src):
        shutil.copy(os.path.join(src, name), os.path.join(dst, name))
    return str(dst)


def test_ncd_rejects_checkpoint_from_another_pretrain(pipeline, tmp_path, capsys):
    cfg, pre, _ = pipeline
    other = _write_cfg(tmp_path, name="other.cfg", extra="lr = 0.02\n")
    assert main(["pretrain", "--config", other, "--out", str(tmp_path / "p")]) == 0
    mixed = _copy_stage(pre, tmp_path / "mixed")
    shutil.copy(tmp_path / "p" / "checkpoint_pretrain.bin", mixed)
    assert main(["ncd", "--config", cfg, "--out", str(tmp_path / "n"),
                 "--pretrain-dir", mixed]) == 3
    assert "different pretrain run" in capsys.readouterr().err


@pytest.mark.parametrize("old_acc", [None, "0.9", True, float("nan"), float("inf"),
                                     -5.0, 1.5])
def test_ncd_needs_numeric_phase1_old_acc(pipeline, tmp_path, capsys, old_acc):
    cfg, pre, _ = pipeline
    bad = _copy_stage(pre, tmp_path / "bad")
    manifest = _read_json(os.path.join(bad, "manifest.json"))
    if old_acc is None:
        del manifest["old_acc"]
    else:
        manifest["old_acc"] = old_acc
    with open(os.path.join(bad, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    assert main(["ncd", "--config", cfg, "--out", str(tmp_path / "n"),
                 "--pretrain-dir", bad]) == 3
    assert "old_acc" in capsys.readouterr().err


def _json(mutate):
    """The artifact's new text: mutate applied to its parsed JSON."""
    return lambda raw: json.dumps(mutate(json.loads(raw)))


NAN, INF = float("nan"), float("inf")


def _set_first(rows, v):
    """rows with its first value replaced by v."""
    return [[v, *rows[0][1:]], *rows[1:]]


@pytest.mark.parametrize("name,rewrite", [
    ("manifest.json", _json(lambda m: [m])),
    ("prototypes.json", _json(lambda p: {k: v for k, v in p.items() if k != "class_ids"})),
    ("prototypes.json", _json(lambda p: [p])),
    # 1 prototype for 2 old classes
    ("prototypes.json", _json(lambda p: {k: v[:1] for k, v in p.items()})),
    ("prototypes.json", _json(lambda p: {**p, "class_ids": [5, 6]})),
    ("prototypes.json", _json(lambda p: {**p, "mean": [r[:3] for r in p["mean"]]})),
    ("prototypes.json", _json(lambda p: {**p, "var": [[1.0], [1.0, 2.0]]})),
    ("prototypes.json", _json(lambda p: "not an object")),
    ("prototypes.json", lambda raw: raw[:20]),  # not JSON
    # values a trained model cannot write, which replay would turn into NaN
    pytest.param("prototypes.json", _json(lambda p: {**p, "mean": _set_first(p["mean"], NAN)}),
                 id="prototypes.json-nan_mean"),
    pytest.param("prototypes.json", _json(lambda p: {**p, "var": _set_first(p["var"], -1.0)}),
                 id="prototypes.json-negative_var"),
    pytest.param("prototypes.json", _json(lambda p: {**p, "var": _set_first(p["var"], INF)}),
                 id="prototypes.json-infinite_var"),
    # an integer past the float range used to end in OverflowError, exit 1,
    # and a boolean was read as 1.0
    pytest.param("prototypes.json", _json(lambda p: {**p, "mean": _set_first(p["mean"], 10 ** 400)}),
                 id="prototypes.json-huge_integer_mean"),
    pytest.param("prototypes.json", _json(lambda p: {**p, "mean": _set_first(p["mean"], True)}),
                 id="prototypes.json-boolean_mean"),
    # ids and counts that int64 would truncate or that count no node
    pytest.param("prototypes.json", _json(lambda p: {**p, "class_ids": [0.5, 1.9]}),
                 id="prototypes.json-fractional_ids"),
    pytest.param("prototypes.json", _json(lambda p: {**p, "counts": [-5, 0]}),
                 id="prototypes.json-counts_below_1"),
    pytest.param("prototypes.json", _json(lambda p: {**p, "counts": [60]}),
                 id="prototypes.json-one_count_per_class"),
])
def test_ncd_rejects_malformed_phase1_artifacts(pipeline, tmp_path, capsys, name, rewrite):
    cfg, pre, _ = pipeline
    bad = _copy_stage(pre, tmp_path / "bad")
    path = os.path.join(bad, name)
    with open(path, "r", encoding="utf-8") as fh:
        text = rewrite(fh.read())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    assert main(["ncd", "--config", cfg, "--out", str(tmp_path / "n"),
                 "--pretrain-dir", bad]) == 3
    err = capsys.readouterr().err
    assert "rerun pretrain" in err and name in err


def test_ncd_needs_a_pretrain_dir(pipeline, tmp_path, capsys):
    cfg, pre, _ = pipeline
    out = tmp_path / "n"
    assert main(["ncd", "--config", cfg, "--out", str(out)]) == 2
    assert "--pretrain-dir" in capsys.readouterr().err
    assert not out.exists()
    # writing into the pretrain directory is refused even with --force, and
    # leaves it as it was
    stage = _copy_stage(pre, tmp_path / "pre")
    before = sorted(os.listdir(stage))
    assert main(["ncd", "--config", cfg, "--out", stage, "--force"]) == 2
    assert main(["ncd", "--config", cfg, "--out", stage, "--force",
                 "--pretrain-dir", os.path.join(stage, ".")]) == 2
    assert sorted(os.listdir(stage)) == before


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # lr = 1e300 overflows
def test_forced_rerun_that_fails_leaves_no_manifest(pipeline, tmp_path):
    cfg, pre, _ = pipeline
    stage = _copy_stage(pre, tmp_path / "pre")
    huge = _write_cfg(tmp_path, name="huge.cfg", extra="lr = 1e300\n")
    assert main(["pretrain", "--config", huge, "--out", stage, "--force"]) == 1
    assert not os.path.exists(os.path.join(stage, "manifest.json"))
    assert main(["ncd", "--config", cfg, "--out", str(tmp_path / "n"),
                 "--pretrain-dir", stage]) == 3


def test_manifest_that_fails_to_serialize_is_not_left_behind(tmp_path, monkeypatch):
    cfg = _write_cfg(tmp_path)
    out = str(tmp_path / "pre")
    with monkeypatch.context() as m:
        m.setattr(cli, "config_payload", lambda rc: {"unserializable": object()})
        with pytest.raises(TypeError):
            main(["pretrain", "--config", cfg, "--out", out])
    assert not os.path.exists(os.path.join(out, "manifest.json"))
    # no manifest vouches for the directory, so a rerun needs no --force
    assert main(["pretrain", "--config", cfg, "--out", out]) == 0
    assert _read_json(os.path.join(out, "manifest.json"))["command"] == "pretrain"
    assert not [f for f in os.listdir(out) if f.endswith(".tmp")]


def test_phase2_knobs_do_not_invalidate_pretrain(pipeline, tmp_path):
    cfg, pre, _ = pipeline
    alt = _write_cfg(tmp_path, name="alt.cfg",
                     extra="eta = 0.5\nncd_epochs = 6\nuse_perturb = off\n")
    assert main(["ncd", "--config", alt, "--out", str(tmp_path / "n2"),
                 "--pretrain-dir", pre]) == 0


def test_overwrite_guard_on_training_outputs(pipeline, capsys):
    cfg, pre, _ = pipeline
    assert main(["pretrain", "--config", cfg, "--out", pre]) == 2
    assert "pass --force" in capsys.readouterr().err


# ----------------------------------------------------------------------- eval

def test_eval_artifacts_match_training_metrics(pipeline, tmp_path):
    cfg, pre, ncd = pipeline
    out = str(tmp_path / "ev")
    ckpt = os.path.join(ncd, "checkpoint_ncd_best.bin")
    assert main(["eval", "--config", cfg, "--out", out,
                 "--checkpoint", ckpt]) == 0
    manifest = _read_json(os.path.join(out, "manifest.json"))
    for name in manifest["artifacts"]:
        assert os.path.isfile(os.path.join(out, name)), name
    assert "perf_matrix.csv" in manifest["artifacts"]
    rows = _csv_rows(os.path.join(out, "nodes.csv"))
    assert len(rows) == 60 + 1
    assert rows[0][:2] == ["id", "label"] and rows[0][2] == "z0"
    # re-evaluating the checkpoint reproduces the training-time numbers
    ncd_metrics = _read_json(os.path.join(ncd, "metrics.json"))
    ev_metrics = _read_json(os.path.join(out, "metrics.json"))
    for key in ("old_acc", "new_acc", "all_acc", "aa", "af"):
        assert ev_metrics[key] == ncd_metrics[key]


def test_eval_phase1_checkpoint(pipeline, tmp_path):
    cfg, pre, _ = pipeline
    out = str(tmp_path / "ev1")
    assert main(["eval", "--config", cfg, "--out", out, "--checkpoint",
                 os.path.join(pre, "checkpoint_pretrain.bin")]) == 0
    metrics = _read_json(os.path.join(out, "metrics.json"))
    assert metrics["phase"] == 1


@pytest.mark.parametrize("kind", ["phase1", "phase2", "phase2_without_phase1_acc"])
def test_eval_runs_one_encoder_forward(pipeline, tmp_path, monkeypatch, kind):
    cfg, pre, ncd = pipeline
    ckpt = os.path.join(pre, "checkpoint_pretrain.bin") if kind == "phase1" else \
        os.path.join(ncd, "checkpoint_ncd_best.bin")
    if kind == "phase2_without_phase1_acc":  # evaluate_joint without the stage matrix
        meta, tensors = load_checkpoint(ckpt)
        del meta["phase1_old_acc"]
        ckpt = str(tmp_path / "no_m11.bin")
        save_checkpoint(ckpt, list(tensors.items()), meta)
    calls = []
    for mod in (cli, metrics):
        monkeypatch.setattr(mod, "encode", lambda *a, _f=mod.encode, **k:
                            calls.append((a, k)) or _f(*a, **k))
    out = str(tmp_path / "ev")
    assert main(["eval", "--config", cfg, "--out", out, "--checkpoint", ckpt]) == 0
    # the metrics and nodes.csv share one full forward
    assert len(calls) == 1 and len(calls[0][0]) == 2 and not calls[0][1]
    state, _ = load_state(ckpt)
    rc = load_config(cfg)
    g, _ = cli.resolve_dataset(rc)
    split = ClassSplit.load(os.path.join(pre, "split.json"))
    want = evaluate_joint(state, g, split, _forward(state, rc, g))
    got = _read_json(os.path.join(out, "metrics.json"))
    assert [got[k] for k in ("old_acc", "new_acc", "all_acc")] == \
        [want.old_acc, want.new_acc, want.all_acc]
    assert (kind == "phase2_without_phase1_acc") == (got["aa"] is None)


def test_eval_dimension_mismatch(pipeline, tmp_path, capsys):
    cfg, pre, ncd = pipeline
    # the checkpoint has a gcn encoder, 6 input features, 2 old-class and 2
    # novel outputs
    for i, (extra, needle) in enumerate([
            ("backbone = sage\n", "gcn encoder"),
            ("sbm_feat_dim = 8\n", "input features"),
            ("old_classes = 0,1,2\nnew_classes = 3\n", "old-class outputs"),
            ("sbm_blocks = 15,15,15\nnew_classes = 2\n", "novel outputs")]):
        bad = _write_cfg(tmp_path, name=f"bad{i}.cfg", extra=extra)
        assert main(["eval", "--config", bad, "--out", str(tmp_path / f"ev{i}"),
                     "--checkpoint",
                     os.path.join(ncd, "checkpoint_ncd_best.bin")]) == 4
        assert needle in capsys.readouterr().err


def test_eval_refuses_a_checkpoint_with_a_repeated_tensor(pipeline, tmp_path, capsys):
    cfg, _, ncd = pipeline
    meta, tensors = load_checkpoint(os.path.join(ncd, "checkpoint_ncd_best.bin"))
    # a second copy of encoder.w1, of its shape, under a name of the same
    # length, which the header then renames to encoder.w1
    bad = str(tmp_path / "twice.bin")
    save_checkpoint(bad, [*tensors.items(), ("encoder.w9", tensors["encoder.w1"])], meta)
    with open(bad, "rb") as fh:
        raw = fh.read()
    with open(bad, "wb") as fh:
        fh.write(raw.replace(b'"encoder.w9"', b'"encoder.w1"', 1))
    assert main(["eval", "--config", cfg, "--out", str(tmp_path / "ev"),
                 "--checkpoint", bad]) == 2
    assert f"error: {bad}: tensor 'encoder.w1' appears twice" in capsys.readouterr().err


@pytest.mark.parametrize("name,edit", [
    # "u vw" -> "u v_w": the last edge line's endpoints both have two digits
    ("edges.txt", lambda line: line[:-1] + "_" + line[-1]),
    ("labels.txt", lambda line: "".join(chr(0x660 + int(c)) for c in line)),
    ("features.txt", lambda line: line.replace(" ", "\xa0", 1)),
], ids=["underscore", "arabic_indic_digits", "no_break_space"])
def test_a_token_loadtxt_does_not_read_exits_2_naming_file_and_line(tmp_path, capsys,
                                                                     name, edit):
    data = tmp_path / "data"
    assert main(["gen-data", "--config", _write_cfg(tmp_path), "--out", str(data)]) == 0
    path = data / name
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[-1] = edit(lines[-1])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    files = "".join(f"{key} = {data / key}.txt\n" for key in ("edges", "features", "labels"))
    cfg = _write_cfg(tmp_path, name="files.cfg", extra="dataset = files\n" + files)
    assert main(["pretrain", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"error: {path}: line {len(lines)}: " in capsys.readouterr().err


def test_eval_missing_checkpoint(pipeline, tmp_path):
    cfg, _, _ = pipeline
    assert main(["eval", "--config", cfg, "--out", str(tmp_path / "ev"),
                 "--checkpoint", str(tmp_path / "nope.bin")]) == 2


# ------------------------------------------------------------------ bad input

def _split_without_new_classes(raw):
    return {"old_classes": raw["old_classes"]}


def _split_with_float_ids(raw):
    return {**raw, "p1_train": [float(i) for i in raw["p1_train"]]}


def _split_with(key, value):
    def add(raw):
        return {**raw, key: raw[key] + [value]}
    return add


def _ckpt_without(name):
    def drop(meta, tensors):
        del tensors[name]
        return meta, tensors
    return drop


def _ckpt_without_dims(meta, tensors):
    return {k: v for k, v in meta.items() if k != "dims"}, tensors


def _ckpt_without_meta(key):
    def drop(meta, tensors):
        return {k: v for k, v in meta.items() if k != key}, tensors
    return drop


def _ckpt_with(name, shape):
    def resize(meta, tensors):
        tensors[name] = np.zeros(shape)
        return meta, tensors
    return resize


def _ckpt_with_meta(**entries):
    def set_meta(meta, tensors):
        return {**meta, **entries}, tensors
    return set_meta


@pytest.mark.parametrize("kind,mutate,needle", [
    ("split", _split_without_new_classes, "new_classes"),
    ("split", _split_with_float_ids, "p1_train"),
    ("split", lambda raw: [raw["old_classes"]], "JSON object"),
    ("checkpoint", _ckpt_without("encoder.w1"), "encoder.w1"),
    ("checkpoint", _ckpt_without("joint_head.b"), "joint_head.b"),
    ("checkpoint", _ckpt_without("novel_head.w"), "novel_head.w"),
    ("checkpoint", _ckpt_without_dims, "dims"),
    ("checkpoint", _ckpt_with("encoder.w1", (3, 3)), "encoder.w1"),
    # 2 old + 2 novel outputs make the joint head 4 wide
    ("checkpoint", _ckpt_with("joint_head.b", (1, 3)), "joint_head.b"),
    ("checkpoint", _ckpt_with_meta(phase1_old_acc="abc"), "phase1_old_acc"),
    ("checkpoint", _ckpt_with_meta(backbone="mlp"), "mlp"),
    ("checkpoint", _ckpt_with_meta(phase=float("inf")), "bad meta"),
    # a checkpoint whose JSON header is a list, not an object
    ("header", [{"format_version": 1}], "header"),
    # past int64: a node id and a class id
    ("split", _split_with("p1_train", 2 ** 63), "p1_train"),
    ("split", _split_with("old_classes", -2 ** 63 - 1), "old_classes"),
    # a line appended to a file of the dataset, past int64
    ("edges", "0 99999999999999999999", "edges.txt: line"),
    ("labels", "9223372036854775808", "labels.txt: line"),
    # a split that is no JSON, and one with a key that is no list
    ("split", lambda raw: "[", "must be JSON"),
    ("split", lambda raw: {**raw, "p2_train": 3}, "p2_train"),
    # numbers that are not accuracies, which would reach metrics.json as af
    *(pytest.param("checkpoint", _ckpt_with_meta(phase1_old_acc=v), "phase1_old_acc",
                   id=f"checkpoint-phase1_old_acc-{v}")
      for v in (float("nan"), float("-inf"), -5.0)),
    # the meta's geometry names exactly the tensors: none is ignored, and no
    # head size or phase is taken from the tensors
    pytest.param("checkpoint", _ckpt_with("encoder.w2", (16, 16)),
                 "unexpected tensor 'encoder.w2'", id="checkpoint-extra_tensor"),
    pytest.param("checkpoint", _ckpt_with_meta(num_old=7), "'old_head.w' has shape",
                 id="checkpoint-num_old_disagrees"),
    pytest.param("checkpoint", _ckpt_with_meta(phase=1), "unexpected tensor 'joint_head.w'",
                 id="checkpoint-phase_1_with_joint_head"),
    *(pytest.param("checkpoint", mutate, "bad meta", id=f"checkpoint-bad_meta-{case}")
      for case, mutate in [("no_num_old", _ckpt_without_meta("num_old")),
                           ("no_phase", _ckpt_without_meta("phase")),
                           ("phase_3", _ckpt_with_meta(phase=3)),
                           ("num_old_0", _ckpt_with_meta(num_old=0)),
                           ("phase_2_num_new_0", _ckpt_with_meta(num_new=0)),
                           # a geometry value is an int as save_state wrote it, never
                           # coerced into one
                           ("num_old_2.5", _ckpt_with_meta(num_old=2.5)),
                           ("phase_true", _ckpt_with_meta(phase=True)),
                           ("dims_str", _ckpt_with_meta(dims=["6", 16, 16]))]),
])
def test_malformed_outside_file_exits_2(pipeline, tmp_path, capsys, kind, mutate,
                                        needle):
    cfg, pre, ncd = pipeline
    bad = str(tmp_path / "bad")
    out = str(tmp_path / "o")
    if kind == "split":
        text = mutate(_read_json(os.path.join(pre, "split.json")))
        with open(bad, "w", encoding="utf-8") as fh:
            fh.write(text if isinstance(text, str) else json.dumps(text))
        cfg = _write_cfg(tmp_path, name="split.cfg", extra=f"split_file = {bad}\n")
        argv = ["pretrain", "--config", cfg, "--out", out]
    elif kind in ("edges", "labels"):
        data = str(tmp_path / "data")
        assert main(["gen-data", "--config", cfg, "--out", data]) == 0
        with open(os.path.join(data, f"{kind}.txt"), "a", encoding="utf-8") as fh:
            fh.write(mutate + "\n")
        files = "".join(f"{key} = {os.path.join(data, key)}.txt\n"
                        for key in ("edges", "features", "labels"))
        cfg = _write_cfg(tmp_path, name="files.cfg", extra="dataset = files\n" + files)
        argv = ["pretrain", "--config", cfg, "--out", out]
    else:
        if kind == "header":
            header = json.dumps(mutate).encode("utf-8")
            with open(bad, "wb") as fh:
                fh.write(struct.pack("<Q", len(header)) + header)
        else:
            meta, tensors = load_checkpoint(os.path.join(ncd, "checkpoint_ncd_best.bin"))
            meta, tensors = mutate(meta, tensors)
            save_checkpoint(bad, list(tensors.items()), meta)
        argv = ["eval", "--config", cfg, "--out", out, "--checkpoint", bad]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert needle in err
    if kind == "split":  # the one error line names the file
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1


@pytest.mark.parametrize("name", ["labels.txt", "split.json"])
def test_undecodable_outside_file_exits_2(tmp_path, capsys, name):
    data = str(tmp_path / "data")
    assert main(["gen-data", "--config", _write_cfg(tmp_path), "--out", data]) == 0
    bad = os.path.join(data, name)
    with open(bad, "ab") as fh:
        fh.write(b"\xff\n")
    files = "".join(f"{key} = {os.path.join(data, key)}.txt\n"
                    for key in ("edges", "features", "labels"))
    cfg = _write_cfg(tmp_path, name="files.cfg", extra="dataset = files\n" + files
                     + f"split_file = {os.path.join(data, 'split.json')}\n")
    assert main(["pretrain", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"{bad}: not UTF-8" in capsys.readouterr().err


def _drop_old_class_0(split, labels):
    split["p1_train"] = [i for i in split["p1_train"] if labels[i] != 0]


@pytest.mark.parametrize("edit,needle", [
    (lambda split, labels: split.update(p2_train=[]), "p2_train is empty"),
    (_drop_old_class_0, "old classes [0] have no p1_train node"),
    (lambda split, labels: split.update(p1_train=[]), "p1_train is empty"),
    (lambda split, labels: split.update(p1_val=[]), "p1_val is empty"),
    (lambda split, labels: split.update(p1_test=split["p1_test"] + [len(labels)]),
     "phase-1 mask has out-of-range node id"),
    (lambda split, labels: split.update(p1_val=split["p1_val"] + split["p2_train"][:1]),
     "phase-1 mask contains classes"),
    (lambda split, labels: split.update(all_test=split["all_test"][1:]),
     "all_test must be the union of p1_test and p2_test"),
    (lambda split, labels: split.update(old_classes=[0, 0, 1, 2]),
     "old_classes lists class 0 more than once"),
    # no pool to score a phase on: its accuracy would read 0.0
    (lambda split, labels: split.update(p1_test=[], all_test=split["p2_test"]),
     "p1_test is empty"),
    (lambda split, labels: split.update(p2_test=[], all_test=split["p1_test"]),
     "p2_test is empty"),
], ids=["no_p2_train", "old_class_without_p1_train", "no_p1_train", "no_p1_val",
        "node_id_out_of_range", "new_class_in_phase_1", "all_test_not_the_union",
        "class_listed_twice", "no_p1_test", "no_p2_test"])
def test_split_that_training_cannot_run_on_exits_2(tmp_path, capsys, edit, needle):
    text = (BASE.replace("15,15,15,15", "30,30,30,30,30")
            .replace("old_classes = 0,1\nnew_classes = 2,3",
                     "old_classes = 0,1,2\nnew_classes = 3,4"))
    cfg = tmp_path / "sbm.cfg"
    cfg.write_text(text, encoding="utf-8")
    data = tmp_path / "data"
    assert main(["gen-data", "--config", str(cfg), "--out", str(data)]) == 0
    split = _read_json(data / "split.json")
    edit(split, load_graph(*(str(data / f"{key}.txt")
                             for key in ("edges", "features", "labels"))).labels)
    (data / "split.json").write_text(json.dumps(split), encoding="utf-8")
    files = "".join(f"{key} = {data / key}.txt\n" for key in ("edges", "features", "labels"))
    cfg.write_text(text + "dataset = files\n" + files
                   + f"split_file = {data / 'split.json'}\n", encoding="utf-8")
    capsys.readouterr()
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    # the one error line names the split file first
    assert len(err) == 1 and err[0].startswith(f"error: {data / 'split.json'}: ")
    assert needle in err[0]
    assert not list(out.rglob("manifest.json"))


def test_config_class_listed_twice_exits_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, extra="old_classes = 0,0,1\n")
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: old_classes lists class 0 more than once"]
    assert not list(out.rglob("manifest.json"))


@pytest.mark.parametrize("key,target", [("split_file", "missing"), ("config", "dir"),
                                        ("edges", "dir"), ("split_file", "dir")])
def test_input_that_is_no_regular_file_exits_2(tmp_path, capsys, key, target):
    data = tmp_path / "data"
    assert main(["gen-data", "--config", _write_cfg(tmp_path), "--out", str(data)]) == 0
    bad = str(tmp_path / "nope") if target == "missing" else str(data)
    paths = {k: str(data / f"{k}.txt") for k in ("edges", "features", "labels")}
    paths["split_file"] = str(data / "split.json")
    if key != "config":
        paths[key] = bad
    cfg = _write_cfg(tmp_path, name="files.cfg", extra="dataset = files\n" + "".join(
        f"{k} = {v}\n" for k, v in paths.items()))
    capsys.readouterr()
    out = tmp_path / "o"
    assert main(["pretrain", "--config", bad if key == "config" else cfg,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and bad in err[0]
    assert not (out / "manifest.json").exists()


def test_missing_config_file(tmp_path):
    assert main(["pretrain", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("command", ["gen-data", "run"])
def test_output_path_through_a_file_exits_2(tmp_path, capsys, command):
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    assert main([command, "--config", _write_cfg(tmp_path), "--out", str(taken)]) == 2
    assert "cannot make output directory" in capsys.readouterr().err


@pytest.mark.parametrize("command,key", [("pretrain", "out"), ("ncd", "pretrain_dir"),
                                         ("pretrain", "split_file")])
def test_config_path_with_nul_exits_2(tmp_path, capsys, command, key):
    cfg = _write_cfg(tmp_path, extra=f"{key} = a\x00b\n")
    assert main([command, "--config", cfg]) == 2
    assert f"{key} holds a NUL character" in capsys.readouterr().err


def test_undecodable_output_path_is_escaped_in_the_summary(tmp_path, monkeypatch):
    # a UTF-8 locale's stdout refuses the lone surrogate an undecodable argv byte becomes
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
    monkeypatch.setattr(sys, "stdout", stdout)
    out = str(tmp_path / "data\udcff")
    assert main(["gen-data", "--config", _write_cfg(tmp_path), "--out", out]) == 0
    stdout.seek(0)
    assert stdout.read().endswith("data\\udcff\n")
    assert os.path.isfile(os.path.join(out, "edges.txt"))


def test_malformed_config(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("hidden = sixteen\n", encoding="utf-8")
    assert main(["pretrain", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    assert "hidden" in capsys.readouterr().err


def test_undecodable_config_file(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"hidden = 16\n\xff\n")
    assert main(["pretrain", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    assert "UTF-8" in capsys.readouterr().err


def test_seed_override_is_validated(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["pretrain", "--config", _write_cfg(tmp_path), "--out", str(out),
                 "--seed", "-5"]) == 2
    assert "seed must be non-negative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("payload", [{"hidden": [1]}, {"sbm_blocks": 5},
                                     {"lr": None}, {"out": 5},
                                     {"sbm_blocks": ["a"]},
                                     # no recasting: an int key takes an int, a
                                     # float key a number, neither a boolean
                                     {"hidden": 16.7}, {"hidden": 16.0},
                                     {"hidden": True}, {"lr": True},
                                     {"old_classes": [0.9, 1]},
                                     {"old_classes": [False, 1]},
                                     {"split_ratios": [0.6, 0.2, True]}])
def test_json_config_value_of_wrong_type(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["pretrain", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    assert "config key" in capsys.readouterr().err


def test_files_dataset_with_missing_paths(tmp_path):
    cfg = _write_cfg(tmp_path, extra="dataset = files\nedges = missing.txt\n"
                                     "features = f.txt\nlabels = l.txt\n")
    assert main(["pretrain", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2


def test_seed_override_changes_dataset(tmp_path):
    cfg = _write_cfg(tmp_path)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["gen-data", "--config", cfg, "--out", a, "--seed", "0"]) == 0
    assert main(["gen-data", "--config", cfg, "--out", b, "--seed", "1"]) == 0
    ha = _read_json(os.path.join(a, "gen_manifest.json"))["dataset_sha256"]
    hb = _read_json(os.path.join(b, "gen_manifest.json"))["dataset_sha256"]
    assert ha != hb


# ----------------------------------------------------------- dataset identity

def _files_cfg(tmp_path, data):
    """The BASE config over the dataset files in data."""
    return _write_cfg(tmp_path, name="files.cfg", extra="dataset = files\n" + "".join(
        f"{key} = {data / f'{key}.txt'}\n" for key in ("edges", "features", "labels")))


def _dataset_hash(cfg):
    return cli.resolve_dataset(load_config(cfg))[1]


def _relayout_edges(path):
    """Rewrite an edge file as the same edge set in other text: a comment, the
    lines in reverse order with their endpoints swapped, a blank line and the
    last edge twice, once with a trailing comment."""
    lines = [" ".join(line.split()[::-1]) for line in path.read_text().splitlines()]
    lines.reverse()
    path.write_text("# the same graph\n" + "\n".join(lines) + f"\n\n{lines[0]}  # again\n")


def test_dataset_hash_ignores_the_layout_of_the_edge_text(tmp_path):
    data = tmp_path / "data"
    assert main(["gen-data", "--config", _write_cfg(tmp_path), "--out", str(data)]) == 0
    cfg = _files_cfg(tmp_path, data)
    before, text = _dataset_hash(cfg), (data / "edges.txt").read_text()
    _relayout_edges(data / "edges.txt")
    assert (data / "edges.txt").read_text() != text
    assert _dataset_hash(cfg) == before


def test_ncd_reuses_pretrain_after_a_text_edit_not_a_feature_edit(tmp_path, capsys):
    data, pre = tmp_path / "data", str(tmp_path / "pre")
    assert main(["gen-data", "--config", _write_cfg(tmp_path), "--out", str(data)]) == 0
    cfg = _files_cfg(tmp_path, data)
    assert main(["pretrain", "--config", cfg, "--out", pre]) == 0
    _relayout_edges(data / "edges.txt")
    assert main(["ncd", "--config", cfg, "--out", str(tmp_path / "n1"),
                 "--pretrain-dir", pre]) == 0
    # one ulp up in the first feature of the first node
    first, rest = (data / "features.txt").read_text().split(" ", 1)
    (data / "features.txt").write_text(f"{float(np.nextafter(float(first), np.inf))!r} "
                                       + rest)
    capsys.readouterr()
    assert main(["ncd", "--config", cfg, "--out", str(tmp_path / "n2"),
                 "--pretrain-dir", pre]) == 3
    assert "rerun pretrain" in capsys.readouterr().err


def test_gen_data_the_sbm_run_and_the_files_run_share_one_dataset_hash(tmp_path):
    cfg, data = _write_cfg(tmp_path), tmp_path / "data"
    assert main(["gen-data", "--config", cfg, "--out", str(data)]) == 0
    assert main(["pretrain", "--config", cfg, "--out", str(tmp_path / "sbm")]) == 0
    assert main(["pretrain", "--config", _files_cfg(tmp_path, data),
                 "--out", str(tmp_path / "files")]) == 0
    manifests = [data / "gen_manifest.json", tmp_path / "sbm" / "manifest.json",
                 tmp_path / "files" / "manifest.json"]
    hashes = {_read_json(m)["dataset_sha256"] for m in manifests}
    assert len(hashes) == 1 and len(hashes.pop()) == 64


def test_run_reads_no_label_of_a_phase_2_train_node(tmp_path):
    # phase 2 clusters unlabelled nodes: moving the labels among its train
    # nodes, on the same edges, features and split, changes no trained number
    data = tmp_path / "data"
    assert main(["gen-data", "--config", _write_cfg(tmp_path), "--out", str(data)]) == 0
    moved = tmp_path / "moved"
    moved.mkdir()
    for name in ("edges.txt", "features.txt", "split.json"):
        shutil.copy(data / name, moved / name)
    lines = (data / "labels.txt").read_text(encoding="utf-8").splitlines(keepends=True)
    p2 = _read_json(data / "split.json")["p2_train"]
    rolled = [lines[i] for i in p2[1:] + p2[:1]]
    for i, line in zip(p2, rolled):
        lines[i] = line
    (moved / "labels.txt").write_text("".join(lines), encoding="utf-8")
    assert (moved / "labels.txt").read_bytes() != (data / "labels.txt").read_bytes()

    outs = []
    for d in (data, moved):
        cfg = _write_cfg(tmp_path, name=f"{d.name}.cfg", extra="dataset = files\n" + "".join(
            f"{key} = {d / key}.txt\n" for key in ("edges", "features", "labels"))
            + f"split_file = {d / 'split.json'}\n")
        outs.append(tmp_path / f"out_{d.name}")
        assert main(["run", "--config", cfg, "--out", str(outs[-1])]) == 0
    for ckpt in ("pretrain/checkpoint_pretrain.bin", "ncd/checkpoint_ncd_best.bin",
                 "ncd/checkpoint_ncd_final.bin"):
        (_, a), (_, b) = (load_checkpoint(str(out / ckpt)) for out in outs)
        assert a.keys() == b.keys()
        for name in a:
            assert a[name].dtype == b[name].dtype and a[name].shape == b[name].shape
            assert a[name].tobytes() == b[name].tobytes(), (ckpt, name)
    assert (outs[0] / "ncd" / "losses.csv").read_bytes() == \
        (outs[1] / "ncd" / "losses.csv").read_bytes()


def test_dataset_hash_tells_apart_graphs_whose_array_bytes_run_together(tmp_path):
    # 4 nodes with 2 edges and 1 feature each, against 1 edge and 2 features
    # each, whose first features are the subnormal floats with the bits of the
    # other graph's second edge: the edges, features and labels give the same
    # bytes end to end, and only their shapes differ
    feats, labels = np.array([[0.5], [-1.0], [2.0], [0.25]]), [0, 0, 1, 1]
    two = build_graph(4, [(0, 1), (2, 3)], feats, labels)
    bits = two.edges[2:].reshape(2, 2).view(np.float64)
    one = build_graph(4, [(0, 1)], np.vstack([bits, feats.reshape(2, 2)]), labels)
    assert np.isfinite(bits).all() and 0 < np.abs(bits).max() < 1e-300
    assert b"".join(a.tobytes() for a in (one.edges, one.features, one.labels)) == \
        b"".join(a.tobytes() for a in (two.edges, two.features, two.labels))
    hashes = []
    for name, g in (("one", one), ("two", two)):
        (tmp_path / name).mkdir()
        save_graph(g, *(str(tmp_path / name / f"{key}.txt")
                        for key in ("edges", "features", "labels")))
        hashes.append(_dataset_hash(_files_cfg(tmp_path, tmp_path / name)))
    assert hashes[0] != hashes[1]


def test_only_training_forwards_build_a_tape(tmp_path, monkeypatch):
    taped = []

    def recording(encode):
        def wrapper(*args, **kwargs):
            z = encode(*args, **kwargs)
            taped.append(z.requires_grad)
            return z
        return wrapper

    for mod in (training, metrics, cli):
        monkeypatch.setattr(mod, "encode", recording(mod.encode))
    out = tmp_path / "full"
    assert main(["run", "--config", _write_cfg(tmp_path), "--out", str(out)]) == 0
    epochs = 12 + _read_json(out / "ncd" / "manifest.json")["epochs_run"]
    # validation, prototypes, the distillation anchor, the two stage reports
    # and eval's one forward read values only
    assert sum(taped) == epochs and len(taped) > epochs


# ------------------------------------------------------------------- chaining

def test_run_chains_all_three_stages(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = str(tmp_path / "full")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    for stage in ("pretrain", "ncd", "eval"):
        # the manifest lists every file the stage wrote, and only those
        manifest = _read_json(os.path.join(out, stage, "manifest.json"))
        assert sorted(manifest["artifacts"] + ["manifest.json"]) == \
            sorted(os.listdir(os.path.join(out, stage))), stage
    ncd_manifest = _read_json(os.path.join(out, "ncd", "manifest.json"))
    assert ncd_manifest["pretrain_dir"] == os.path.join(out, "pretrain")
    # the split's one file is pretrain's; the ncd manifest names it by hash
    assert "split.json" not in ncd_manifest["artifacts"]
    assert ncd_manifest["split_sha256"] == \
        _read_json(os.path.join(out, "pretrain", "manifest.json"))["split_sha256"]
    ev = _read_json(os.path.join(out, "eval", "metrics.json"))
    assert ev["phase"] == 2


def test_each_stage_metrics_json_holds_its_pinned_keys(tmp_path):
    out = str(tmp_path / "full")
    assert main(["run", "--config", _write_cfg(tmp_path), "--out", out]) == 0
    # the report and its timestamp; the seed and config hash are the manifest's
    want = {"old_acc", "new_acc", "all_acc", "aa", "af", "phase", "timestamp"}
    for stage in ("pretrain", "ncd", "eval"):
        assert set(_read_json(os.path.join(out, stage, "metrics.json"))) == want, stage


def _tree(root) -> dict:
    """{relative path: bytes} of every file under root, each JSON file
    without its timestamp line."""
    out = {}
    for d, _, files in os.walk(root):
        for f in files:
            data = Path(d, f).read_bytes()
            if f.endswith(".json"):
                data = b"".join(line for line in data.splitlines(True)
                                if b'"timestamp"' not in line)
            out[os.path.relpath(os.path.join(d, f), root)] = data
    return out


def test_run_that_dies_at_any_write_leaves_only_whole_files(tmp_path, monkeypatch):
    cfg = _write_cfg(tmp_path)
    out, clean = tmp_path / "run", tmp_path / "clean"
    argv = ["run", "--config", cfg, "--out", str(out)]
    real_open = open
    writes = []

    def recording_open(path, mode="r", *args, **kwargs):
        if "w" in mode:
            writes.append(os.path.relpath(path, out))
        return real_open(path, mode, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(graph, "open", recording_open, raising=False)
        assert main(argv) == 0
    # one writer: every file on disk landed as a write_atomic temp file
    assert sorted(w.removesuffix(".tmp") for w in writes) == sorted(_tree(out))
    assert all(w.endswith(".tmp") for w in writes)
    out.rename(clean)
    want = _tree(clean)
    stages = ["pretrain", "ncd", "eval"]
    for k, target in enumerate(writes):
        seen = itertools.count()

        def dying_open(path, mode="r", *args, **kwargs):
            fh = real_open(path, mode, *args, **kwargs)
            return _DiesHalfway(fh) if "w" in mode and next(seen) == k else fh

        with monkeypatch.context() as m:
            m.setattr(graph, "open", dying_open, raising=False)
            assert main(argv) == 2, target
        have = _tree(out)
        assert not [p for p in have if p.endswith(".tmp")], target
        assert {p: want.get(p) for p in have} == have, target
        failed = stages.index(target.split(os.sep)[0])
        assert not [s for s in stages[failed:] if (out / s / "manifest.json").exists()]
        assert main(argv) in (0, 2)
        assert main([*argv, "--force"]) == 0
        assert same_artifacts.differences(clean, out) == [], target
        shutil.rmtree(out)


def test_write_csv_cell_rule(tmp_path):
    path = str(tmp_path / "t.csv")
    cli._write_csv(path, ["a", "b"], [[3, np.int64(-4), 0.1, np.float64(1 / 3), "", "x"]])
    with open(path, "r", encoding="utf-8") as fh:
        assert fh.read() == "a,b\n3,-4,0.1,0.3333333333333333,,x\n"


def test_write_csv_float_rows_match_the_cell_rule(tmp_path):
    lead = [[0, 7], [1, -2], [2, 0]]
    floats = np.array([[0.1, 1 / 3, -0.0], [1e300, -2.5e-310, np.inf],
                       [np.nan, -np.inf, 123456789.0]])
    fast, cells = str(tmp_path / "fast.csv"), str(tmp_path / "cells.csv")
    cli._write_csv(fast, ["id", "y", "a", "b", "c"], lead, floats)
    cli._write_csv(cells, ["id", "y", "a", "b", "c"],
                   [[*r, *f] for r, f in zip(lead, floats)])
    with open(fast, "rb") as a, open(cells, "rb") as b:
        assert a.read() == b.read()
    with pytest.raises(ValueError):   # one float row per row
        cli._write_csv(fast, ["id"], [[0]], floats)


def test_run_csv_artifacts_follow_the_documented_format(tmp_path):
    out = tmp_path / "full"
    cfg = _write_cfg(tmp_path)
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    rc = load_config(cfg)
    g, _ = cli.resolve_dataset(rc)
    split = ClassSplit.load(str(out / "pretrain" / "split.json"))
    checkpoints = {"pretrain": "pretrain/checkpoint_pretrain.bin",
                   "ncd": "ncd/checkpoint_ncd_best.bin",
                   "eval": "ncd/checkpoint_ncd_best.bin"}
    p1_old = _read_json(str(out / "pretrain" / "metrics.json"))["old_acc"]
    for stage, ckpt in checkpoints.items():
        d = out / stage
        csvs = {name: _csv_rows(str(d / name)) for name in os.listdir(d)
                if name.endswith(".csv")}
        assert set(csvs) == {"confusion.csv", "perf_matrix.csv"} | (
            {"nodes.csv"} if stage == "eval" else {"losses.csv"}), stage
        for name, rows in csvs.items():
            assert all(len(r) == len(rows[0]) for r in rows), (stage, name)

        # the confusion matrix evaluate_joint computes for the stage's state
        state, _ = load_state(str(out / ckpt))
        rep = evaluate_joint(state, g, split, _forward(state, rc, g))
        assert csvs["confusion.csv"] == \
            [["true\\pred", *map(str, rep.class_order)]] + \
            [[str(c), *map(str, row)] for c, row in zip(rep.class_order,
                                                       rep.confusion.tolist())]

        # lower triangle: the stage's accuracies, exact through float; above it empty
        metrics = _read_json(str(d / "metrics.json"))
        want = [[p1_old]] if stage == "pretrain" else \
            [[p1_old, None], [metrics["old_acc"], metrics["new_acc"]]]
        perf = csvs["perf_matrix.csv"]
        assert perf[0] == ["stage", *(f"task{j + 1}" for j in range(len(want)))]
        for i, (row, accs) in enumerate(zip(perf[1:], want, strict=True)):
            assert row[0] == str(i + 1)
            assert [float(c) for c in row[1:i + 2]] == accs[:i + 1]
            assert row[i + 2:] == [""] * (len(want) - i - 1)

        if stage == "eval":
            nodes = csvs["nodes.csv"]
            width = state.encoder.repr_dim
            assert nodes[0] == ["id", "label", *(f"z{i}" for i in range(width))]
            assert [r[:2] for r in nodes[1:]] == \
                [[str(i), str(y)] for i, y in enumerate(g.labels.tolist())]
            assert all(np.isfinite(float(v)) for r in nodes[1:] for v in r[2:])
        else:
            losses = csvs["losses.csv"]
            assert losses[0] == (PRETRAIN_LOSSES if stage == "pretrain" else NCD_LOSSES)
            assert [r[0] for r in losses[1:]] == [str(e) for e in range(len(losses) - 1)]
            assert all(np.isfinite(float(v)) for r in losses[1:] for v in r[1:])


def _count_dataset_resolutions(monkeypatch):
    calls = []
    resolve = cli.resolve_dataset
    monkeypatch.setattr(cli, "resolve_dataset",
                        lambda rc: calls.append(rc.out) or resolve(rc))
    return calls


def test_run_resolves_its_inputs_once(tmp_path, monkeypatch):
    calls = _count_dataset_resolutions(monkeypatch)
    cfg = _write_cfg(tmp_path)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "full")]) == 0
    assert len(calls) == 1


def test_small_run_imports_neither_scipy_optimize_nor_the_thread_pool(tmp_path):
    # a fresh interpreter, since any test may have imported either module here;
    # 150 nodes are at most three row blocks, so no kernel splits
    cfg = tmp_path / "sbm.cfg"
    cfg.write_text(BASE.replace("15,15,15,15", "30,30,30,30,30")
                   .replace("old_classes = 0,1\nnew_classes = 2,3",
                            "old_classes = 0,1,2\nnew_classes = 3,4")
                   .replace("pretrain_epochs = 12\nncd_epochs = 20",
                            "pretrain_epochs = 5\nncd_epochs = 5"), encoding="utf-8")
    code = ("import sys\n"
            "from graphncd.cli import main\n"
            f"assert main(['run', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}]) == 0\n"
            "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize was imported'\n"
            "assert 'concurrent.futures.thread' not in sys.modules, 'a thread pool was loaded'\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "eval" / "confusion.csv").is_file()


@pytest.mark.parametrize("backbone", ["gcn", "sage"])
def test_run_propagates_the_input_once(tmp_path, monkeypatch, backbone):
    graphs = []
    resolve = cli.resolve_dataset
    monkeypatch.setattr(cli, "resolve_dataset",
                        lambda rc: graphs.append(resolve(rc)) or graphs[-1])
    operands = []
    spmm = ad.spmm
    monkeypatch.setattr(ad, "spmm", lambda m, x: operands.append(x) or spmm(m, x))
    cfg = _write_cfg(tmp_path, extra=f"backbone = {backbone}\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "full")]) == 0
    # pretrain, ncd, three stage reports and nodes.csv share one A·x
    x = graphs[0][0].features
    assert sum(o.shape == x.shape and np.array_equal(o.data, x) for o in operands) == 1


def test_run_refuses_before_training_if_any_stage_is_finished(tmp_path, monkeypatch,
                                                              capsys):
    calls = _count_dataset_resolutions(monkeypatch)
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "full"
    (out / "ncd").mkdir(parents=True)
    (out / "ncd" / "manifest.json").write_text("{}", encoding="utf-8")
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert "pass --force" in capsys.readouterr().err
    assert not (out / "pretrain").exists() and not calls
    assert main(["run", "--config", cfg, "--out", str(out), "--force"]) == 0
    assert _read_json(str(out / "ncd" / "manifest.json"))["command"] == "ncd"


def test_sweep_depth_writes_one_row_per_depth(tmp_path):
    cfg = _write_cfg(tmp_path, extra="sweep_layers = 2,3\n"
                                     "pretrain_epochs = 8\nncd_epochs = 8\n")
    out = str(tmp_path / "sweep")
    assert main(["sweep-depth", "--config", cfg, "--out", out]) == 0
    rows = _csv_rows(os.path.join(out, "sweep.csv"))
    assert rows[0] == ["layers", "old_acc", "new_acc", "all_acc", "aa", "af"]
    assert [r[0] for r in rows[1:]] == ["2", "3"]
    assert all(np.isfinite(float(v)) for r in rows[1:] for v in r[1:])
