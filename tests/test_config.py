"""Config parsing, validation, and content hashing."""
import json
import math
import pickle
from dataclasses import fields

import pytest

from graphncd.config import (ConfigError, RunConfig, config_hash, config_payload,
                             load_config, parse_config_text, phase1_hash)
from graphncd.ncd_losses import LossWeights
from graphncd.training import TrainConfig

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
        cfg = parse_config_text(f"debug_checks = {word}")
        assert cfg.debug_checks is expect
    with pytest.raises(ConfigError, match="debug_checks"):
        parse_config_text("debug_checks = maybe")


def test_list_tolerates_spaces_and_trailing_comma():
    cfg = parse_config_text("sweep_layers = 2, 4 ,8,")
    assert cfg.sweep_layers == [2, 4, 8]


def test_unknown_key_reports_line_number():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config_text("hidden = 16\n\nlerning_rate = 0.1\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config_text(json.dumps({"lerning_rate": 0.1}))


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
])
def test_validation_errors(snippet, needle):
    with pytest.raises(ConfigError, match=needle):
        parse_config_text(snippet)


def test_train_config_wiring():
    cfg = parse_config_text("alpha1 = 0.07\neta = 0.5\ntop_k = 3\n"
                            "use_replay = off\nsigma_mode = unit")
    tc = cfg.train_config()
    assert tc.weights.alpha1 == 0.07
    assert tc.weights.eta == 0.5
    assert tc.weights.top_k == 3
    assert tc.use_replay is False and tc.use_self is True
    assert tc.sigma_mode == "unit"


def test_default_train_config_round_trips():
    assert RunConfig().train_config() == TrainConfig()


def test_every_training_knob_is_a_run_key_with_its_default():
    run_defaults = config_payload(RunConfig())
    assert len(run_defaults) == 47
    knobs = [f for f in fields(TrainConfig) if f.name != "weights"]
    for source, f in ([(TrainConfig(), f) for f in knobs]
                      + [(LossWeights(), f) for f in fields(LossWeights)]):
        assert run_defaults[f.name] == getattr(source, f.name), f.name


def test_run_config_pickles():
    cfg = RunConfig(hidden=16, sbm_blocks=[10, 20], reference_old=0.5)
    assert config_payload(pickle.loads(pickle.dumps(cfg))) == config_payload(cfg)


# --------------------------------------------------------------------- hashing

def test_default_hashes_are_pinned():
    # changing either value makes every existing run directory look stale
    assert config_hash(RunConfig(), "d", "s") == \
        "0fd59611edb08303b9c766f8949d7a4f1df1d87e1ac4a4c2071a96e28fb062e3"
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
