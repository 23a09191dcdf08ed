"""tools/same_artifacts.py: the determinism gate's comparison of two run directories."""
import importlib.util
import shutil
from pathlib import Path

import pytest

from graphncd.cli import main

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_artifacts.py"
_spec = importlib.util.spec_from_file_location("same_artifacts", _TOOL)
same_artifacts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_artifacts)

TINY = """
dataset = sbm
sbm_blocks = 10,10,10,10
sbm_p_in = 0.4
sbm_p_out = 0.05
sbm_feat_dim = 4
sbm_feat_shift = 2.5
old_classes = 0,1
new_classes = 2,3
hidden = 16
pretrain_epochs = 4
ncd_epochs = 4
rampup_length = 2
top_k = 2
"""


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("runs")
    out = {}
    for name, seed in (("a", 0), ("b", 0), ("c", 1)):
        cfg = root / f"{name}.cfg"
        cfg.write_text(TINY + f"seed = {seed}\n", encoding="utf-8")
        assert main(["run", "--config", str(cfg), "--out", str(root / name)]) == 0
        out[name] = root / name
    return out


def test_identical_runs_exit_0(runs, capsys):
    assert same_artifacts.main([str(runs["a"]), str(runs["b"])]) == 0
    assert capsys.readouterr().out == "identical\n"


def test_runs_differing_by_seed_exit_1_and_name_files(runs, capsys):
    assert same_artifacts.main([str(runs["a"]), str(runs["c"])]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "pretrain/checkpoint_pretrain.bin" in lines
    assert "eval/nodes.csv" in lines
    assert lines[-1] == f"{len(lines) - 1} differing files"


def test_timestamp_and_manifests_are_ignored_but_missing_files_are_not(runs, tmp_path, capsys):
    copy = tmp_path / "copy"
    shutil.copytree(runs["a"], copy)
    metrics = copy / "ncd" / "metrics.json"
    text = metrics.read_text()
    assert '"timestamp": "' in text
    metrics.write_text(text.replace('"timestamp": "', '"timestamp": "x'))
    (copy / "eval" / "manifest.json").write_text("{}")
    assert same_artifacts.main([str(runs["a"]), str(copy)]) == 0
    (copy / "eval" / "nodes.csv").unlink()
    shutil.rmtree(copy / "ncd")
    capsys.readouterr()
    assert same_artifacts.main([str(runs["a"]), str(copy)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [f"ncd/ (missing {copy / 'ncd'})", "eval/nodes.csv"]
