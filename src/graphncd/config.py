"""Run configuration: flat key=value text (or the same keys as JSON).

Unknown keys are rejected so typos fail loudly. Values are typed by the
default: booleans accept true/false/yes/no/1/0, comma lists split on ','.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields

from .graph import check_split_ratios, fits_int64, numbered_lines, read_text
from .training import MAX_LAYERS, TrainConfig


class ConfigError(ValueError):
    """Bad key, bad value, or a config file that is not UTF-8 text."""


@dataclass
class RunConfig(TrainConfig):
    """Every config key: the training keys of TrainConfig plus these."""

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

    def validate(self) -> None:
        """TrainConfig's rules plus the rules for the keys it leaves open, all as
        ConfigError."""
        for key, v in asdict(self).items():
            if any(type(x) is int and not fits_int64(x)
                   for x in (v if isinstance(v, list) else [v])):
                raise ConfigError(f"{key} must fit a 64-bit integer, got {v}")
        for key in ("edges", "features", "labels", "split_file", "out", "pretrain_dir"):
            if "\0" in getattr(self, key):
                raise ConfigError(f"{key} holds a NUL character, which no path can")
        if self.dataset not in ("sbm", "files"):
            raise ConfigError(f"dataset must be sbm or files, got {self.dataset!r}")
        if self.dataset == "files":
            for key in ("edges", "features", "labels"):
                if not getattr(self, key):
                    raise ConfigError(f"dataset=files needs the {key!r} path")
        if not (self.sbm_blocks and min(self.sbm_blocks) >= 1):
            raise ConfigError(f"sbm_blocks needs one or more sizes of at least 1, "
                              f"got {self.sbm_blocks}")
        for key in ("sbm_p_in", "sbm_p_out"):
            if not 0 <= getattr(self, key) <= 1:
                raise ConfigError(f"{key} must lie in [0, 1], got {getattr(self, key)}")
        if self.sbm_feat_dim < 1:
            raise ConfigError(f"sbm_feat_dim must be at least 1, got {self.sbm_feat_dim}")
        if not math.isfinite(self.sbm_feat_shift):
            raise ConfigError(f"sbm_feat_shift must be finite, got {self.sbm_feat_shift}")
        # the loss schedule and weights are checked here, not in TrainConfig.validate:
        # library callers may drive training into TrainingDiverged on purpose
        if not self.rampup_length >= 1:
            raise ConfigError(f"rampup_length must be at least 1, got {self.rampup_length}")
        for key in ("alpha1", "alpha2", "eta", "lam", "omega_fd", "init_scale"):
            v = getattr(self, key)
            if not (math.isfinite(v) and v >= 0):
                raise ConfigError(f"{key} must be finite and non-negative, got {v}")
        if not (self.sweep_layers and all(2 <= n <= MAX_LAYERS for n in self.sweep_layers)):
            raise ConfigError(f"sweep_layers needs one or more depths in [2, {MAX_LAYERS}], "
                              f"got {self.sweep_layers}")
        if set(self.old_classes) & set(self.new_classes):
            raise ConfigError("old_classes and new_classes overlap")
        if not self.old_classes or not self.new_classes:
            raise ConfigError("old_classes and new_classes must both be non-empty")
        try:
            check_split_ratios(self.split_ratios)
            super().validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


_BOOL_WORDS = {"true": True, "yes": True, "1": True, "on": True,
               "false": False, "no": False, "0": False, "off": False}

# keys that change results; everything else is wiring and stays out of the hash
_HASH_EXCLUDE = {"out", "pretrain_dir", "edges", "features", "labels", "split_file"}


_KIND_NAMES = {bool: "boolean", int: "integer", float: "number", str: "string"}


def _coerce(v, default) -> object:
    """v (a JSON value or key=value text) as the default's type.

    A string is stripped and read as text: a boolean word, a comma list with
    empty items dropped, an int or a float, or kept as it is for a string key.
    Otherwise a boolean key takes only a boolean, an int key only an int and a
    float key any number, never a boolean. Raises TypeError or ValueError
    when v does not fit."""
    kind = type(default)
    if isinstance(v, str):
        v = v.strip()
        if kind is bool:
            if v.lower() not in _BOOL_WORDS:
                raise ValueError(f"not a boolean: {v!r}")
            return _BOOL_WORDS[v.lower()]
        if kind is not list:
            return kind(v)
        v = [tok for tok in v.split(",") if tok.strip() != ""]
    if kind is list:
        if not isinstance(v, list):
            raise TypeError(f"expected a list, got {v!r}")
        elem = type(default[0]) if default else float
        return [_coerce(x, elem()) for x in v]
    if type(v) is kind or (kind is float and type(v) is int):
        return kind(v)
    raise TypeError(f"expected {_KIND_NAMES[kind]}, got {v!r}")


def _value(key: str, v, default) -> object:
    try:
        return _coerce(v, default)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from exc


def parse_config_text(text: str) -> RunConfig:
    defaults = RunConfig()
    known = {f.name: getattr(defaults, f.name) for f in fields(RunConfig)}
    values: dict[str, object] = {}

    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            raw = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"bad JSON config: {exc}") from exc
        for k, v in raw.items():
            if k not in known:
                raise ConfigError(f"unknown config key {k!r}")
            values[k] = _value(k, v, known[k])
    else:
        for lineno, body in numbered_lines(text):
            if "=" not in body:
                raise ConfigError(f"config line {lineno}: expected key=value, got {body!r}")
            key, _, val = body.partition("=")
            key = key.strip()
            if key not in known:
                raise ConfigError(f"config line {lineno}: unknown key {key!r}")
            values[key] = _value(key, val, known[key])

    cfg = RunConfig(**values)  # type: ignore[arg-type]
    cfg.validate()
    return cfg


def load_config(path: str) -> RunConfig:
    return parse_config_text(read_text(path, ConfigError))


def _digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def config_payload(cfg: RunConfig) -> dict:
    """Every key as a JSON-ready value: validation leaves no float key NaN or
    infinite."""
    return asdict(cfg)


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
