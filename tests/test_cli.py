"""Command-line pipeline: artifacts, exit codes, guards, chaining."""
import csv
import json
import os
import shutil

import numpy as np
import pytest

from graphncd import cli
from graphncd.checkpoint import load_checkpoint, save_checkpoint
from graphncd.cli import main
from graphncd.graph import ClassSplit, load_graph, validate_split
from graphncd.training import load_state

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


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _csv_rows(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


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
    assert rows[0] == ["epoch", "loss", "val_acc"]
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
    assert rows[0] == list(("epoch", "pseudo", "self", "perturb", "replay",
                            "distill", "beta1", "beta2", "total"))
    assert len(rows) == manifest["epochs_run"] + 1
    metrics = _read_json(os.path.join(ncd, "metrics.json"))
    assert metrics["phase"] == 2
    for flag in ("use_pseudo", "use_self", "use_perturb", "use_replay",
                 "use_distill"):
        assert metrics[flag] is True
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


@pytest.mark.parametrize("old_acc", [None, "0.9", True])
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


def test_eval_dimension_mismatch(pipeline, tmp_path, capsys):
    cfg, pre, ncd = pipeline
    bad = _write_cfg(tmp_path, name="bad.cfg", extra="sbm_feat_dim = 8\n")
    assert main(["eval", "--config", bad, "--out", str(tmp_path / "ev"),
                 "--checkpoint",
                 os.path.join(ncd, "checkpoint_ncd_best.bin")]) == 4
    assert "input features" in capsys.readouterr().err


def test_eval_missing_checkpoint(pipeline, tmp_path):
    cfg, _, _ = pipeline
    assert main(["eval", "--config", cfg, "--out", str(tmp_path / "ev"),
                 "--checkpoint", str(tmp_path / "nope.bin")]) == 2


# ------------------------------------------------------------------ bad input

def _split_without_new_classes(raw):
    return {"old_classes": raw["old_classes"]}


def _split_with_float_ids(raw):
    return {**raw, "p1_train": [float(i) for i in raw["p1_train"]]}


def _ckpt_without(name):
    def drop(meta, tensors):
        del tensors[name]
        return meta, tensors
    return drop


def _ckpt_without_dims(meta, tensors):
    return {k: v for k, v in meta.items() if k != "dims"}, tensors


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
])
def test_malformed_outside_file_exits_2(pipeline, tmp_path, capsys, kind, mutate,
                                        needle):
    cfg, pre, ncd = pipeline
    bad = str(tmp_path / "bad")
    out = str(tmp_path / "o")
    if kind == "split":
        with open(bad, "w", encoding="utf-8") as fh:
            json.dump(mutate(_read_json(os.path.join(pre, "split.json"))), fh)
        cfg = _write_cfg(tmp_path, name="split.cfg", extra=f"split_file = {bad}\n")
        argv = ["pretrain", "--config", cfg, "--out", out]
    else:
        meta, tensors = load_checkpoint(os.path.join(ncd, "checkpoint_ncd_best.bin"))
        meta, tensors = mutate(meta, tensors)
        save_checkpoint(bad, list(tensors.items()), meta)
        argv = ["eval", "--config", cfg, "--out", out, "--checkpoint", bad]
    assert main(argv) == 2
    assert needle in capsys.readouterr().err


def test_missing_config_file(tmp_path):
    assert main(["pretrain", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "o")]) == 2


def test_malformed_config(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("hidden = sixteen\n", encoding="utf-8")
    assert main(["pretrain", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    assert "hidden" in capsys.readouterr().err


@pytest.mark.parametrize("payload", [{"hidden": [1]}, {"sbm_blocks": 5},
                                     {"lr": None}, {"out": 5},
                                     {"sbm_blocks": ["a"]}])
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
    ev = _read_json(os.path.join(out, "eval", "metrics.json"))
    assert ev["phase"] == 2


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
