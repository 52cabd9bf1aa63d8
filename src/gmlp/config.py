"""Flat key=value run configuration.

One option per line, ``key = value``; blank lines and ``#`` comment lines are
ignored, as is anything after `` #`` on a value line. No nesting, no
sections. Unknown keys are rejected so typos fail loudly.

Example::

    arch = GSel-4-2, GFC, ReLU, BNorm, Concat, FC-2, Softmax
    data = synth
    synth_n = 6400
    epochs = 300
    lambda = 1.0
    alpha = 1e-4
    out_dir = runs/synth
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from typing import get_type_hints

import numpy as np

from .data import SynthBayesNet
from .errors import ConfigError
from .training import TrainConfig

OUT_DIR_ENV = "GMLP_OUT_DIR"


def resolve_out_dir(out_dir: str) -> str:
    """``out_dir`` if given, else ``$GMLP_OUT_DIR``, else ``gmlp-out``."""
    return out_dir or os.environ.get(OUT_DIR_ENV, "") or "gmlp-out"


def _train_key(name: str) -> str:
    """The config key of a TrainConfig field: its name without a keyword escape (``lambda_``)."""
    return name.rstrip("_")


# config key -> (TrainConfig field, the type of its default, which casts the value)
_TRAIN_KEYS = {_train_key(f.name): (f.name, type(f.default)) for f in fields(TrainConfig)}


@dataclass
class RunConfig:
    """Everything one training run needs: architecture, data source, schedule."""

    arch: str
    data: str = "synth"  # synth | csv | halfnoise
    train_csv: str = ""
    test_csv: str = ""
    label_column: str = "label"
    has_header: bool = True
    test_fraction: float = 0.2
    branching: int = 2
    out_dir: str = ""
    synth_n: int = 6400
    synth_seed: int = 0
    synth_root_prob: str = ""
    synth_xor_fidelity: float = 0.99
    synth_target_rule: str = ""
    halfnoise_n: int = 2000
    halfnoise_signal: int = 16
    halfnoise_noise: int = 16
    halfnoise_classes: int = 4
    halfnoise_seed: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)

    def validate(self) -> None:
        if not self.arch:
            raise ConfigError("config needs an arch")
        if self.data not in ("synth", "csv", "halfnoise"):
            raise ConfigError(f"unknown data source {self.data!r}")
        if self.data == "csv" and not self.train_csv:
            raise ConfigError("data = csv requires train_csv")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        self.train.validate()

    def synth_net(self) -> SynthBayesNet:
        kw = {"xor_fidelity": self.synth_xor_fidelity}
        if self.synth_root_prob:
            kw["root_prob"] = _float_list(self.synth_root_prob, "synth_root_prob")
        if self.synth_target_rule:
            rule = _float_list(self.synth_target_rule, "synth_target_rule")
            kw["target_rule"] = np.asarray(rule)
        return SynthBayesNet(**kw)

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            if f.name == "train":
                continue
            out[f.name] = getattr(self, f.name)
        for f in fields(self.train):
            out[_train_key(f.name)] = getattr(self.train, f.name)
        return out


# config key -> the type of the RunConfig field of that name, which casts the
# value; the nested TrainConfig's fields take the keys above
_RUN_KEYS = {name: cast for name, cast in get_type_hints(RunConfig).items() if name != "train"}


def _float_list(text: str, key: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"{key}: expected comma-separated floats, got {text!r}") from exc


def _parse_bool(value: str) -> bool:
    low = value.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    """Parse ``key = value`` lines; every malformed line raises ConfigError naming ``source:lineno``."""
    run_kw: dict = {}
    train_kw: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key = value, got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip().lower()
        value = value.split(" #", 1)[0].strip()
        if key in _TRAIN_KEYS:
            (name, caster), dest = _TRAIN_KEYS[key], train_kw
        elif key in _RUN_KEYS:
            caster, dest, name = _RUN_KEYS[key], run_kw, key
        else:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        try:
            dest[name] = _parse_bool(value) if caster is bool else caster(value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: {key}: {exc}") from exc
    if "arch" not in run_kw:
        raise ConfigError(f"{source}: missing required key 'arch'")
    cfg = RunConfig(train=TrainConfig(**train_kw), **run_kw)
    cfg.validate()
    return cfg


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))
