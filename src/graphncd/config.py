"""Run configuration: flat key=value text (or the same keys as JSON).

Unknown keys are rejected so typos fail loudly. Values are typed by the
default: booleans accept true/false/yes/no/1/0, comma lists split on ','.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields, make_dataclass

from .graph import check_split_ratios
from .ncd_losses import LossWeights
from .training import MAX_LAYERS, TrainConfig


class ConfigError(ValueError):
    """Bad key, bad value, or unreadable config file."""


def _train_fields():
    """(name, type, field) of every TrainConfig knob, LossWeights inlined."""
    for f in fields(TrainConfig):
        for g in fields(LossWeights) if f.name == "weights" else (f,):
            yield g.name, g.type, field(default=g.default,
                                        default_factory=g.default_factory)


# the 28 training keys, derived so that RunConfig cannot drift from TrainConfig;
# a generated class reports the module `types` unless told otherwise
_TrainKeys = make_dataclass("_TrainKeys", list(_train_fields()))
_TrainKeys.__module__ = __name__


@dataclass
class RunConfig(_TrainKeys):
    # dataset
    dataset: str = "sbm"                 # "sbm" or "files"
    edges: str = ""
    features: str = ""
    labels: str = ""
    sbm_blocks: list[int] = field(default_factory=lambda: [100, 100, 100, 100, 100])
    sbm_p_in: float = 0.15
    sbm_p_out: float = 0.01
    sbm_feat_dim: int = 16
    sbm_feat_shift: float = 1.0
    # split
    split_file: str = ""                 # empty: generate and save split.json
    old_classes: list[int] = field(default_factory=lambda: [0, 1, 2])
    new_classes: list[int] = field(default_factory=lambda: [3, 4])
    split_ratios: list[float] = field(default_factory=lambda: [0.6, 0.2, 0.2])
    # outputs / wiring
    out: str = "runs/out"
    pretrain_dir: str = ""               # ncd's phase-1 input unless --pretrain-dir
    sweep_layers: list[int] = field(default_factory=lambda: [2, 4, 8])
    # optional published reference numbers for an informational comparison
    reference_old: float = float("nan")
    reference_new: float = float("nan")
    reference_all: float = float("nan")

    def train_config(self) -> TrainConfig:
        knobs = {f.name: getattr(self, f.name) for f in fields(_TrainKeys)}
        weights = LossWeights(**{f.name: knobs.pop(f.name) for f in fields(LossWeights)})
        return TrainConfig(weights=weights, **knobs)


_BOOL_WORDS = {"true": True, "yes": True, "1": True, "on": True,
               "false": False, "no": False, "0": False, "off": False}

# keys that change results; everything else is wiring and stays out of the hash
_HASH_EXCLUDE = {"out", "pretrain_dir", "edges", "features", "labels", "split_file"}


def _parse_value(name: str, text: str, default) -> object:
    text = text.strip()
    try:
        if isinstance(default, bool):
            word = text.lower()
            if word not in _BOOL_WORDS:
                raise ValueError(f"not a boolean: {text!r}")
            return _BOOL_WORDS[word]
        if isinstance(default, int):
            return int(text)
        if isinstance(default, float):
            return float(text)
        if isinstance(default, list):
            return _coerce([tok for tok in text.split(",") if tok.strip() != ""], default)
        return text
    except ValueError as exc:
        raise ConfigError(f"config key {name!r}: {exc}") from exc


def _coerce(v, default) -> object:
    """v (a JSON value, or a list of string tokens) as the default's type.

    Raises TypeError or ValueError when v does not fit."""
    if isinstance(default, bool) and not isinstance(v, bool):
        raise TypeError("expected boolean")
    if isinstance(default, list):
        if not isinstance(v, list):
            raise TypeError(f"expected a list, got {v!r}")
        elem = type(default[0]) if default else float
        return [elem(x) for x in v]
    if isinstance(default, str):
        raise TypeError(f"expected a string, got {v!r}")
    return type(default)(v)


def parse_config_text(text: str) -> RunConfig:
    defaults = RunConfig()
    known = {f.name: getattr(defaults, f.name) for f in fields(RunConfig)}
    values: dict[str, object] = {}

    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad JSON config: {exc}") from exc
        for k, v in raw.items():
            if k not in known:
                raise ConfigError(f"unknown config key {k!r}")
            if isinstance(v, str):
                values[k] = _parse_value(k, v, known[k])
                continue
            try:
                values[k] = _coerce(v, known[k])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"config key {k!r}: {exc}") from exc
    else:
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"config line {lineno}: expected key=value, got {body!r}")
            key, _, val = body.partition("=")
            key = key.strip()
            if key not in known:
                raise ConfigError(f"config line {lineno}: unknown key {key!r}")
            values[key] = _parse_value(key, val, known[key])

    cfg = RunConfig(**values)  # type: ignore[arg-type]
    _validate(cfg)
    return cfg


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise FileNotFoundError(f"cannot read config {path}: {exc}") from exc


def _validate(cfg: RunConfig) -> None:
    if cfg.dataset not in ("sbm", "files"):
        raise ConfigError(f"dataset must be sbm or files, got {cfg.dataset!r}")
    if cfg.dataset == "files":
        for key in ("edges", "features", "labels"):
            if not getattr(cfg, key):
                raise ConfigError(f"dataset=files needs the {key!r} path")
    # the loss schedule and weights are checked here, not in TrainConfig.validate:
    # library callers may drive training into TrainingDiverged on purpose
    if not cfg.rampup_length >= 1:
        raise ConfigError(f"rampup_length must be at least 1, got {cfg.rampup_length}")
    for key in ("alpha1", "alpha2", "eta", "lam", "omega_fd", "init_scale"):
        v = getattr(cfg, key)
        if not (math.isfinite(v) and v >= 0):
            raise ConfigError(f"{key} must be finite and non-negative, got {v}")
    if not (cfg.sweep_layers and all(2 <= n <= MAX_LAYERS for n in cfg.sweep_layers)):
        raise ConfigError(f"sweep_layers needs one or more depths in [2, {MAX_LAYERS}], "
                          f"got {cfg.sweep_layers}")
    if set(cfg.old_classes) & set(cfg.new_classes):
        raise ConfigError("old_classes and new_classes overlap")
    if not cfg.old_classes or not cfg.new_classes:
        raise ConfigError("old_classes and new_classes must both be non-empty")
    try:
        check_split_ratios(cfg.split_ratios)
        cfg.train_config().validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def config_payload(cfg: RunConfig) -> dict:
    """Every key as a JSON-ready value; the unset NaN reference slots become null."""
    return {k: None if isinstance(v, float) and v != v else v
            for k, v in asdict(cfg).items()}


def config_hash(cfg: RunConfig, dataset_hash: str, split_hash: str) -> str:
    """Content hash over everything that determines the run's numbers."""
    payload = {k: v for k, v in config_payload(cfg).items() if k not in _HASH_EXCLUDE}
    payload["dataset_sha256"] = dataset_hash
    payload["split_sha256"] = split_hash
    return _digest(payload)


# everything phase 1 depends on; phase-2 knobs may change without invalidating
# pretrained artifacts
_PHASE1_KEYS = ("dataset", "sbm_blocks", "sbm_p_in", "sbm_p_out", "sbm_feat_dim",
                "sbm_feat_shift", "old_classes", "new_classes", "split_ratios",
                "backbone", "hidden", "layers", "lr", "weight_decay",
                "pretrain_epochs", "seed", "normalize_features")


def phase1_hash(cfg: RunConfig, dataset_hash: str, split_hash: str) -> str:
    payload = {k: getattr(cfg, k) for k in _PHASE1_KEYS}
    payload["dataset_sha256"] = dataset_hash
    payload["split_sha256"] = split_hash
    return _digest(payload)
