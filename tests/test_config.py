"""Config parsing, validation, and content hashing."""
import json
import math
import pickle
from dataclasses import asdict, fields

import pytest

import numpy as np

import graphncd.autodiff as ad
from graphncd.cli import main
from graphncd.config import (_PHASE1_KEYS, ConfigError, RunConfig, config_hash,
                             config_payload, load_config, parse_config_text,
                             phase1_hash)
from graphncd.graph import input_features, operator_for, sbm_generate, split_classes
from graphncd.models import EncoderInput
from graphncd.ncd_losses import LossWeights
from graphncd.training import TrainConfig, named_parameters, pretrain

TEXT = """
# experiment settings
dataset = sbm
sbm_blocks = 50,50,50,50
sbm_p_in = 0.2          # inline comment
hidden = 16
lr = 0.005
use_perturb = off
normalize_features = yes
old_classes = 0,1
new_classes = 2,3
out = runs/demo
"""


def test_key_value_parsing_types():
    cfg = parse_config_text(TEXT)
    assert cfg.dataset == "sbm"
    assert cfg.sbm_blocks == [50, 50, 50, 50]
    assert cfg.sbm_p_in == 0.2 and isinstance(cfg.sbm_p_in, float)
    assert cfg.hidden == 16 and isinstance(cfg.hidden, int)
    assert cfg.lr == 0.005
    assert cfg.use_perturb is False
    assert cfg.normalize_features is True
    assert cfg.old_classes == [0, 1] and cfg.new_classes == [2, 3]
    assert cfg.out == "runs/demo"
    # untouched keys keep their defaults
    assert cfg.alpha2 == 4.0 and cfg.top_k == 5


def test_json_config_equivalent_to_key_value():
    payload = {"dataset": "sbm", "sbm_blocks": [50, 50, 50, 50],
               "sbm_p_in": 0.2, "hidden": 16, "lr": 0.005,
               "use_perturb": False, "normalize_features": True,
               "old_classes": [0, 1], "new_classes": [2, 3],
               "out": "runs/demo"}
    assert parse_config_text(json.dumps(payload)) == parse_config_text(TEXT)


def test_json_strings_are_coerced():
    cfg = parse_config_text(json.dumps({"lr": "0.05", "hidden": "16",
                                        "use_self": "off"}))
    assert cfg.lr == 0.05 and cfg.hidden == 16 and cfg.use_self is False


def test_bool_words():
    for word, expect in [("true", True), ("YES", True), ("1", True),
                         ("on", True), ("false", False), ("No", False),
                         ("0", False), ("off", False)]:
        cfg = parse_config_text(f"use_self = {word}")
        assert cfg.use_self is expect
    with pytest.raises(ConfigError, match="use_self"):
        parse_config_text("use_self = maybe")


def test_list_tolerates_spaces_and_trailing_comma():
    cfg = parse_config_text("sweep_layers = 2, 4 ,8,")
    assert cfg.sweep_layers == [2, 4, 8]


def test_unknown_key_reports_line_number(tmp_path, capsys):
    with pytest.raises(ConfigError, match="line 3"):
        parse_config_text("hidden = 16\n\nlerning_rate = 0.1\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config_text(json.dumps({"lerning_rate": 0.1}))
    # in either form an unknown key is exit 2 from the CLI, named in the error
    path = tmp_path / "keys.cfg"
    for key in ("eq8_head", "sigma_mode", "novel_alignment"):
        for text, needle in ((f"hidden = 16\n{key} = novel\n", f"line 2: unknown key '{key}'"),
                             (json.dumps({key: "novel"}), f"unknown config key '{key}'")):
            path.write_text(text, encoding="utf-8")
            assert main(["pretrain", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 2
            assert needle in capsys.readouterr().err


def test_bad_value_names_the_key():
    with pytest.raises(ConfigError, match="'hidden'"):
        parse_config_text("hidden = sixteen")
    with pytest.raises(ConfigError, match="'hidden'"):
        parse_config_text("hidden = 0.5")


def test_line_without_equals_rejected():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("hidden = 16\njust some words\n")


def test_bad_json_rejected():
    with pytest.raises(ConfigError, match="bad JSON"):
        parse_config_text('{"hidden": 16,,}')


def test_json_boolean_type_enforced():
    with pytest.raises(ConfigError, match="expected boolean"):
        parse_config_text(json.dumps({"use_self": 1}))


def test_load_config_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_config(str(tmp_path / "nope.cfg"))


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(TEXT, encoding="utf-8")
    assert load_config(str(path)) == parse_config_text(TEXT)


# ------------------------------------------------------------------ validation

@pytest.mark.parametrize("snippet,needle", [
    ("dataset = citation", "dataset must be"),
    ("dataset = files", "needs the"),
    ("split_ratios = 0.5,0.5", "3 entries"),
    ("old_classes = 0,1,2\nnew_classes = 2,3", "overlap"),
    ("new_classes =", "non-empty"),
    ("hidden = 20", "hidden"),          # model validation surfaces here
    ("layers = 1", "layers"),
    ("top_k = 40", "top_k"),
    ("lr = 0", "lr"),
    ("lr = nan", "lr"),
    ("lr = inf", "lr"),
    ("weight_decay = -1", "weight_decay"),
    ("weight_decay = nan", "weight_decay"),
    ("rampup_length = 0", "rampup_length"),
    ("alpha1 = nan", "alpha1"),
    ("alpha2 = -1", "alpha2"),
    ("eta = inf", "eta"),
    ("lam = -0.5", "lam"),
    ("omega_fd = inf", "omega_fd"),
    ("init_scale = nan", "init_scale"),
    ("split_ratios = 0.5,0.5,0", "positive"),
    ("split_ratios = 0.6,0.3,0.2", "sum to 1"),
    ("sweep_layers = 1", "sweep_layers"),
    ("sweep_layers = 2,65", "sweep_layers"),
    ("sweep_layers =", "sweep_layers"),
    ("seed = -1", "seed"),
    ("sbm_blocks = 0,12,12,12", "sbm_blocks"),
    ("sbm_blocks =", "sbm_blocks"),
    ("sbm_p_in = 2", "sbm_p_in"),
    ("sbm_p_out = nan", "sbm_p_out"),
    ("sbm_feat_dim = 0", "sbm_feat_dim"),
    ("pretrain_epochs = 99999999999999999999999", "pretrain_epochs"),
    ('{"per_class_replay": -9223372036854775809}', "per_class_replay"),
    ('{"seed": 1e20}', "seed"),
])
def test_validation_errors(snippet, needle):
    with pytest.raises(ConfigError, match=needle):
        parse_config_text(snippet)


def test_train_config_wiring():
    cfg = parse_config_text("alpha1 = 0.07\neta = 0.5\ntop_k = 3\n"
                            "use_replay = off")
    assert isinstance(cfg, TrainConfig)
    assert cfg.alpha1 == 0.07
    assert cfg.eta == 0.5
    assert cfg.top_k == 3
    assert cfg.use_replay is False and cfg.use_self is True


def test_default_train_config_round_trips():
    training = {f.name for f in fields(TrainConfig)}
    run = {k: v for k, v in asdict(RunConfig()).items() if k in training}
    assert run == asdict(TrainConfig())


def test_every_training_knob_is_a_run_key_with_its_default():
    run_defaults = config_payload(RunConfig())
    assert len(run_defaults) == 43
    for source in (TrainConfig(), LossWeights()):
        for f in fields(source):
            assert run_defaults[f.name] == getattr(source, f.name), f.name


def test_run_config_pickles():
    cfg = RunConfig(hidden=16, sbm_blocks=[10, 20], reference_old=0.5)
    assert config_payload(pickle.loads(pickle.dumps(cfg))) == config_payload(cfg)


# --------------------------------------------------------------------- hashing

def test_default_hashes_are_pinned():
    # a new phase1_hash makes every existing pretrain directory look stale;
    # config_hash only labels a run's artifacts
    assert config_hash(RunConfig(), "d", "s") == \
        "e3638719a451b3ce68a4db74c9929a63fe848301c78bd29a5ac2e1e8d0f67881"
    assert phase1_hash(RunConfig(), "d", "s") == \
        "40fb99fab538ffe5fae399f4f0d0420d0f6e3b1a7b14afe72c67e615fec20973"


def test_config_hash_ignores_wiring_keys():
    a = RunConfig(out="runs/a", pretrain_dir="x", split_file="s.json")
    b = RunConfig(out="runs/b")
    assert config_hash(a, "d", "s") == config_hash(b, "d", "s")


def test_config_hash_sensitive_to_science_keys():
    base = config_hash(RunConfig(), "d", "s")
    assert config_hash(RunConfig(lr=0.02), "d", "s") != base
    assert config_hash(RunConfig(eta=0.3), "d", "s") != base
    assert config_hash(RunConfig(), "other", "s") != base
    assert config_hash(RunConfig(), "d", "other") != base


def test_config_hash_handles_nan_reference_slots():
    assert math.isnan(RunConfig().reference_old)
    a = config_hash(RunConfig(), "d", "s")
    b = config_hash(RunConfig(), "d", "s")
    assert a == b and len(a) == 64
    assert config_hash(RunConfig(reference_old=60.67), "d", "s") != a


def test_phase1_hash_ignores_phase2_knobs():
    base = phase1_hash(RunConfig(), "d", "s")
    for variant in (RunConfig(alpha1=0.9), RunConfig(eta=0.9),
                    RunConfig(ncd_epochs=5), RunConfig(use_self=False),
                    RunConfig(patience=3), RunConfig(out="elsewhere"),
                    RunConfig(top_k=2)):
        assert phase1_hash(variant, "d", "s") == base


def test_phase1_hash_sensitive_to_pretrain_inputs():
    base = phase1_hash(RunConfig(), "d", "s")
    for variant in (RunConfig(hidden=128), RunConfig(seed=1),
                    RunConfig(lr=0.02), RunConfig(pretrain_epochs=100),
                    RunConfig(backbone="sage"),
                    RunConfig(normalize_features=True)):
        assert phase1_hash(variant, "d", "s") != base
    assert phase1_hash(RunConfig(), "other", "s") != base


# A valid value other than the default for every training knob outside
# _PHASE1_KEYS. A new training knob fails the tests below until it is listed
# here (or added to _PHASE1_KEYS, if phase 1 reads it).
PHASE2_ALTERNATIVES = {
    "ncd_epochs": "7", "patience": "3", "alpha1": "0.5", "alpha2": "1.5",
    "rampup_length": "4", "eta": "0.7", "lam": "2.5", "omega_fd": "3.0",
    "top_k": "2", "use_pseudo": "off", "use_self": "off", "use_perturb": "off",
    "use_replay": "off", "use_distill": "off", "init_scale": "0.3",
    "per_class_replay": "5",
}

PHASE1_BASE = "hidden = 16\npretrain_epochs = 6\n"


def _phase2_knobs():
    """Training keys of RunConfig that the phase-1 hash leaves out."""
    training = {f.name for f in fields(TrainConfig)}
    return [f.name for f in fields(RunConfig)
            if f.name in training and f.name not in _PHASE1_KEYS]


def test_phase2_alternatives_name_exactly_the_knobs_outside_the_phase1_hash():
    knobs = _phase2_knobs()
    assert len(knobs) == 16
    assert set(PHASE2_ALTERNATIVES) == set(knobs)


def _pretrain_outputs(text):
    cfg = parse_config_text(text)
    g = sbm_generate([12] * 4, 0.4, 0.03, 6, 2.5, seed=1)
    split = split_classes(g, [0, 1], [2, 3], seed=2)
    inp = EncoderInput.build(cfg.backbone, operator_for(cfg.backbone, g),
                             ad.constant(input_features(g, cfg.normalize_features)))
    state, protos, plog = pretrain(g, split, cfg, inp)
    return ([(n, t.data) for n, t in named_parameters(state)],
            [protos.class_ids, protos.mean, protos.var, protos.counts],
            plog.rows, (plog.best_epoch, plog.best_val_acc),
            sorted(plog.best_snapshot.items()))


@pytest.fixture(scope="module")
def phase1_reference():
    return _pretrain_outputs(PHASE1_BASE)


def _assert_bit_identical(a, b):
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_bit_identical(x, y)
    elif isinstance(a, dict):
        assert a.keys() == b.keys()
        for k in a:
            _assert_bit_identical(a[k], b[k])
    else:
        assert a == b and type(a) is type(b)


@pytest.mark.parametrize("knob", _phase2_knobs())
def test_knobs_outside_the_phase1_hash_leave_pretrain_unchanged(knob, phase1_reference):
    if knob not in PHASE2_ALTERNATIVES:
        pytest.fail(f"training knob {knob!r} has no alternative value: list one in "
                    "PHASE2_ALTERNATIVES, or add it to _PHASE1_KEYS if phase 1 reads it")
    text = PHASE1_BASE + f"{knob} = {PHASE2_ALTERNATIVES[knob]}\n"
    assert getattr(parse_config_text(text), knob) != getattr(RunConfig(), knob)
    _assert_bit_identical(_pretrain_outputs(text), phase1_reference)
