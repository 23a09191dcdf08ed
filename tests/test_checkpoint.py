"""Binary checkpoint byte layout, round-trips, and corruption handling."""
import json
import struct
from pathlib import Path

import numpy as np
import pytest

import graphncd.autodiff as ad
from graphncd.checkpoint import (FORMAT_VERSION, CheckpointError,
                                 load_checkpoint, save_checkpoint)
from graphncd.graph import operator_for, sbm_generate, split_classes
from graphncd.training import (ModelState, TrainConfig, derive_seed, load_state,
                               named_parameters, ncd_train, pretrain,
                               save_state, SEED_SBM, SEED_SPLIT)
from graphncd.metrics import joint_predictions
from graphncd.models import EncoderInput, extend_head, init_encoder, init_head


def _tensors(seed=0):
    rng = np.random.default_rng(seed)
    return [("layer.w", rng.standard_normal((3, 4))),
            ("layer.b", rng.standard_normal((1, 4))),
            ("head", rng.standard_normal((4, 2)))]


def test_round_trip_bitwise(tmp_path):
    path = str(tmp_path / "ckpt.bin")
    tensors = _tensors()
    meta = {"phase": 2, "note": "x", "nested": {"a": 1}}
    save_checkpoint(path, tensors, meta)
    got_meta, got = load_checkpoint(path)
    assert got_meta == meta
    assert set(got) == {"layer.w", "layer.b", "head"}
    for name, arr in tensors:
        assert np.array_equal(got[name], arr)
        assert got[name].dtype == np.float64


def test_byte_layout_parses_by_hand(tmp_path):
    path = str(tmp_path / "ckpt.bin")
    tensors = _tensors(seed=1)
    save_checkpoint(path, tensors, {"k": "v"})
    raw = Path(path).read_bytes()

    (hlen,) = struct.unpack("<Q", raw[:8])
    header = json.loads(raw[8:8 + hlen].decode("utf-8"))
    assert header["format_version"] == FORMAT_VERSION
    assert header["meta"] == {"k": "v"}
    assert [e["name"] for e in header["tensors"]] == ["layer.w", "layer.b", "head"]

    # header is compact JSON with sorted keys
    assert raw[8:8 + hlen] == json.dumps(header, sort_keys=True,
                                         separators=(",", ":")).encode("utf-8")

    # payloads follow in header order: rows*cols little-endian float64 each
    offset = 8 + hlen
    for (name, arr) in tensors:
        n = arr.size * 8
        flat = np.frombuffer(raw[offset:offset + n], dtype="<f8")
        assert np.array_equal(flat.reshape(arr.shape), arr)
        offset += n
    assert offset == len(raw)


def test_save_is_deterministic(tmp_path):
    a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    save_checkpoint(a, _tensors(2), {"m": [1, 2]})
    save_checkpoint(b, _tensors(2), {"m": [1, 2]})
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_truncated_payload_rejected(tmp_path):
    path = str(tmp_path / "ckpt.bin")
    save_checkpoint(path, _tensors(3), {})
    raw = Path(path).read_bytes()
    Path(path).write_bytes(raw[:-16])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_truncated_header_rejected(tmp_path):
    path = str(tmp_path / "ckpt.bin")
    Path(path).write_bytes(struct.pack("<Q", 10_000) + b"{}")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_trailing_garbage_rejected(tmp_path):
    path = str(tmp_path / "ckpt.bin")
    save_checkpoint(path, _tensors(4), {})
    with open(path, "ab") as fh:
        fh.write(b"\x00" * 7)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_wrong_format_version_rejected(tmp_path):
    path = str(tmp_path / "ckpt.bin")
    header = json.dumps({"format_version": 99, "meta": {}, "tensors": []},
                        sort_keys=True, separators=(",", ":")).encode()
    Path(path).write_bytes(struct.pack("<Q", len(header)) + header)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_bad_header_json_rejected(tmp_path):
    path = str(tmp_path / "ckpt.bin")
    Path(path).write_bytes(struct.pack("<Q", 4) + b"oops")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def _entry(**over):
    return {"name": "w", "rows": 1, "cols": 1, **over}


@pytest.mark.parametrize("header", [
    [{"format_version": FORMAT_VERSION}],
    {"format_version": FORMAT_VERSION, "meta": {}, "tensors": [{"name": "w", "cols": 1}]},
    {"format_version": FORMAT_VERSION, "meta": {}, "tensors": "x"},
    {"format_version": FORMAT_VERSION, "meta": {}, "tensors": [_entry(rows=-1, cols=-1)]},
    {"format_version": FORMAT_VERSION, "meta": {}},
    {"format_version": FORMAT_VERSION, "meta": {}, "tensors": [["w", 1, 1]]},
    {"format_version": FORMAT_VERSION, "meta": {}, "tensors": [_entry(name=7)]},
    {"format_version": FORMAT_VERSION, "meta": {}, "tensors": [_entry(rows=1.0)]},
    {"format_version": FORMAT_VERSION, "meta": {}, "tensors": [_entry(cols=True)]},
    {"format_version": FORMAT_VERSION, "meta": [], "tensors": [_entry()]},
])
def test_malformed_header_rejected(tmp_path, header):
    """Each header is followed by one float64, the payload of a 1 x 1 tensor."""
    path = str(tmp_path / "ckpt.bin")
    blob = json.dumps(header).encode("utf-8")
    Path(path).write_bytes(struct.pack("<Q", len(blob)) + blob + bytes(8))
    with pytest.raises(CheckpointError, match="header"):
        load_checkpoint(path)


def test_a_repeated_tensor_name_is_refused(tmp_path):
    path = tmp_path / "ckpt.bin"
    with pytest.raises(ValueError, match="'a' is given twice"):
        save_checkpoint(str(path), [("a", np.ones((1, 1))), ("a", np.zeros((1, 1)))], {})
    assert not path.exists()
    header = json.dumps({"format_version": FORMAT_VERSION, "meta": {},
                         "tensors": [_entry(name="a"), _entry(name="a")]}).encode("utf-8")
    path.write_bytes(struct.pack("<Q", len(header)) + header + bytes(16))
    with pytest.raises(CheckpointError, match="tensor 'a' appears twice"):
        load_checkpoint(str(path))


def test_missing_file_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(str(tmp_path / "nope.bin"))


def test_non_2d_tensor_rejected(tmp_path):
    with pytest.raises(ValueError):
        save_checkpoint(str(tmp_path / "x.bin"),
                        [("bad", np.zeros(3))], {})


# --------------------------------------------------- full model state round trip

def _tiny_pipeline():
    g = sbm_generate([12] * 4, 0.4, 0.03, 6, 2.0, seed=derive_seed(0, SEED_SBM))
    split = split_classes(g, [0, 1], [2, 3], seed=derive_seed(0, SEED_SPLIT))
    cfg = TrainConfig(hidden=16, pretrain_epochs=10, ncd_epochs=15, seed=0,
                      rampup_length=5, top_k=3)
    return g, split, cfg, EncoderInput.build(cfg.backbone, operator_for(cfg.backbone, g),
                                             ad.constant(g.features))


def test_model_state_round_trip_phase_one(tmp_path):
    g, split, cfg, inp = _tiny_pipeline()
    state, _, _ = pretrain(g, split, cfg, inp)
    path = str(tmp_path / "p1.bin")
    save_state(path, state, {"extra": 42})
    back, meta = load_state(path)
    assert meta["phase"] == 1 and meta["extra"] == 42
    assert meta["num_old"] == 2 and meta["num_new"] == 0
    assert back.joint_head is None
    assert np.array_equal(joint_predictions(back, g), joint_predictions(state, g))


def test_model_state_round_trip_phase_two(tmp_path):
    g, split, cfg, inp = _tiny_pipeline()
    state, protos, _ = pretrain(g, split, cfg, inp)
    state, _ = ncd_train(state, protos, split, cfg, inp)
    path = str(tmp_path / "p2.bin")
    save_state(path, state)
    back, meta = load_state(path)
    assert meta["phase"] == 2
    assert meta["num_old"] == 2 and meta["num_new"] == 2
    assert back.novel_head is not None and back.joint_head is not None
    for (name_a, a), (name_b, b) in zip(named_parameters(state),
                                        named_parameters(back)):
        assert name_a == name_b
        assert np.array_equal(a.data, b.data)
    assert np.array_equal(joint_predictions(back, g), joint_predictions(state, g))


def test_save_state_writes_snapshot_with_meta_overrides(tmp_path):
    g, split, cfg, inp = _tiny_pipeline()
    state, _, plog = pretrain(g, split, cfg, inp)
    path = str(tmp_path / "best.bin")
    save_state(path, state, {"step": plog.best_epoch + 1}, plog.best_snapshot)
    back, meta = load_state(path)
    assert meta["step"] == plog.best_epoch + 1 and meta["phase"] == 1
    for name, t in named_parameters(back):
        assert np.array_equal(t.data, plog.best_snapshot[name])


@pytest.mark.parametrize("backbone", ["gcn", "sage"])
@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("heads", ["old", "old_novel", "old_novel_joint"])
def test_state_round_trip_is_bitwise_for_every_layout(tmp_path, backbone, layers, heads):
    dims = [6, 5, 4, 3][:layers + 1]
    state = ModelState(init_encoder(backbone, dims, seed=1), init_head(dims[-1], 3, seed=2))
    if "novel" in heads:  # phase 1 may carry a novel head without the joint one
        state.novel_head = init_head(dims[-1], 2, seed=3)
    if "joint" in heads:
        state.joint_head = extend_head(state.old_head, 2, seed=4)
    rng = np.random.default_rng(5)
    for _, t in named_parameters(state):  # no zero bias or copied column to hide a swap
        t.data[...] = rng.standard_normal(t.shape)
    path, again = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    save_state(path, state, {"step": 7})
    back, meta = load_state(path)
    assert meta == {"backbone": backbone, "dims": dims, "phase": state.phase, "num_old": 3,
                    "num_new": 2 if "novel" in heads else 0, "step": 7}
    assert back.phase == state.phase
    assert [(n, t.data.tobytes(), t.requires_grad) for n, t in named_parameters(back)] == \
        [(n, t.data.tobytes(), True) for n, t in named_parameters(state)]
    save_state(again, back, {"step": 7})
    assert Path(again).read_bytes() == Path(path).read_bytes()
