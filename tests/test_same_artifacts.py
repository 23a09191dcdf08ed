"""tools/same_artifacts.py: the determinism gate's comparison of two run directories."""
import importlib.util
import json
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from graphncd.checkpoint import save_checkpoint
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
    assert any(line.startswith("pretrain/checkpoint_pretrain.bin (tensors differ: max rel ")
               for line in lines)
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


def test_a_checkpoint_whose_tensors_are_equal_names_the_meta_keys_that_differ(
        runs, tmp_path, capsys):
    copy = tmp_path / "copy"
    shutil.copytree(runs["a"], copy)
    ckpt = copy / "ncd" / "checkpoint_ncd_best.bin"
    raw = ckpt.read_bytes()
    (hlen,) = struct.unpack("<Q", raw[:8])
    header = json.loads(raw[8:8 + hlen])
    header["meta"]["config_hash"] = "0" * 64
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    ckpt.write_bytes(struct.pack("<Q", len(text)) + text + raw[8 + hlen:])
    # a file that is no checkpoint container is named alone
    (copy / "pretrain" / "checkpoint_pretrain.bin").write_bytes(b"\x00" * 3)
    assert same_artifacts.main([str(runs["a"]), str(copy)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "pretrain/checkpoint_pretrain.bin",
        "ncd/checkpoint_ncd_best.bin (tensors equal; meta differs: config_hash)",
        "2 differing files"]


def test_differing_tensors_name_the_largest_relative_move(tmp_path):
    def why(a, b):
        for name, tensors in (("a.bin", a), ("b.bin", b)):
            save_checkpoint(str(tmp_path / name), list(tensors.items()), {"k": 1})
        return same_artifacts._why(tmp_path / "a.bin", tmp_path / "b.bin")

    ulp = np.spacing(2.0)
    base = {"encoder.w0": np.array([[1.0, 3.0]]), "encoder.w1": np.array([[4.0, -2.0]]),
            "head.b": np.array([[0.5]])}
    # a last-bit move is relative to the tensor's largest value: 4.4e-16 / 4
    w1 = {**base, "encoder.w1": np.array([[4.0, -2.0 + ulp]])}
    assert why(base, w1) == " (tensors differ: max rel 1e-16 in encoder.w1)"
    both = {**w1, "head.b": np.array([[0.25]])}
    assert why(base, both) == " (tensors differ: max rel 5e-01 in head.b)"
    nan = {**both, "encoder.w0": np.array([[np.nan, 3.0]])}
    assert why(base, nan) == " (tensors differ: max rel nan in encoder.w0)"
    signed = {**base, "head.b": np.array([[0.0]])}
    assert why({**base, "head.b": np.array([[-0.0]])}, signed) == \
        " (tensors differ: max rel 0e+00 in head.b)"
    # tensor lists that differ in shape have no element-wise move
    assert why(base, {**base, "head.b": np.array([[0.5, 0.5]])}) == " (tensors differ)"
    assert why(base, base) == ""


# ------------------------------------------------- --trees: building the runs

class FakeRunner:
    """Stands in for ``run_cli``: records each call and writes a run whose
    files hold the tree's name where ``differ`` says they should."""

    def __init__(self, differ=(), fail=None):
        self.calls, self.differ, self.fail = [], set(differ), fail

    def __call__(self, tree, argv, cwd):
        config = Path(argv[argv.index("--config") + 1]).read_text()
        self.calls.append((tree.name, argv[0], config))
        if argv[0] == self.fail:
            raise RuntimeError(f"{tree}: graphncd {argv[0]} exited 1: boom")
        out = Path(argv[argv.index("--out") + 1])
        if argv[0] == "gen-data":
            out.mkdir()
            return
        for stage in same_artifacts._bench.STAGES:
            (out / stage).mkdir(parents=True)
            for name in ("losses.csv", "metrics.json"):
                differs = f"{stage}/{name}" in self.differ
                (out / stage / name).write_text(tree.name if differs else "same")


@pytest.fixture
def trees(tmp_path):
    out = []
    for name in ("parent", "change"):
        (tmp_path / name / "src" / "graphncd").mkdir(parents=True)
        out.append(str(tmp_path / name))
    return out


@pytest.mark.parametrize("argv", [
    ["--workload", "desk,nope", "--seed", "0"],
    ["--workload", "desk,", "--seed", "0"],
    ["--workload", "desk", "--seed", "0,,1"],
    ["--workload", "desk", "--seed", "x"],
    ["--workload", "desk"],
    ["--seed", "0"],
])
def test_bad_tree_arguments_exit_2_before_any_run(trees, capsys, argv):
    runner = FakeRunner()
    with pytest.raises(SystemExit) as exc:
        same_artifacts.main(["--trees", *trees, *argv], runner)
    assert exc.value.code == 2 and runner.calls == []
    assert "error:" in capsys.readouterr().err


def test_trees_and_run_directories_do_not_mix(trees, tmp_path):
    runner = FakeRunner()
    for argv in (["--trees", *trees, "--workload", "desk", "--seed", "0", "a"],
                 ["a", "b", "--seed", "0"],
                 ["a"],
                 ["--trees", str(tmp_path), trees[1], "--workload", "desk", "--seed", "0"]):
        with pytest.raises(SystemExit) as exc:
            same_artifacts.main(argv, runner)
        assert exc.value.code == 2
    assert runner.calls == []


def test_trees_run_every_workload_at_every_seed(trees, capsys):
    runner = FakeRunner()
    argv = ["--trees", *trees, "--workload", "desk,discover", "--seed", "3,4"]
    assert same_artifacts.main(argv, runner) == 0
    assert capsys.readouterr().out.splitlines() == [
        "desk seed 3:", "identical", "discover seed 3:", "identical",
        "desk seed 4:", "identical", "discover seed 4:", "identical"]
    steps = [(tree, cmd) for tree, cmd, _ in runner.calls]
    desk, discover = [("parent", "run"), ("change", "run")], [
        ("parent", "gen-data"), ("parent", "run"), ("change", "gen-data"), ("change", "run")]
    assert steps == (desk + discover) * 2
    # the configs are the benchmark's, with the seed, and discover reads its files
    workloads = same_artifacts.WORKLOADS
    for (_, cmd, config), workload in zip(runner.calls[:6], ["desk"] * 2 + ["discover"] * 4):
        assert config.startswith(workloads[workload]["config"] + "seed = 3\n")
        assert ("dataset = files" in config) == (workload == "discover" and cmd == "run")
    assert "split_file = " in runner.calls[3][2]


def test_trees_report_each_differing_file_and_failed_run(trees, capsys):
    runner = FakeRunner(differ={"ncd/losses.csv", "eval/metrics.json"})
    assert same_artifacts.main(["--trees", *trees, "--workload", "desk", "--seed", "0"],
                               runner) == 1
    assert capsys.readouterr().out.splitlines() == [
        "desk seed 0:", "ncd/losses.csv", "eval/metrics.json", "2 differing files"]
    runner = FakeRunner(fail="gen-data")
    assert same_artifacts.main(["--trees", *trees, "--workload", "discover,desk",
                                "--seed", "0"], runner) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "discover seed 0:" and out[1].startswith("run failed: ")
    assert out[2:] == ["desk seed 0:", "identical"]


def test_run_cli_runs_the_tree_own_source(tmp_path):
    root = Path(__file__).resolve().parent.parent
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY + "seed = 0\npretrain_epochs = 2\nncd_epochs = 2\n")
    same_artifacts.run_cli(root, ["run", "--config", str(cfg), "--out", "r"], tmp_path)
    assert (tmp_path / "r" / "eval" / "manifest.json").is_file()
    with pytest.raises(RuntimeError, match="exited 2"):
        same_artifacts.run_cli(root, ["run", "--config", str(cfg), "--out", "r"], tmp_path)
