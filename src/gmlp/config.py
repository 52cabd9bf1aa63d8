"""Flat key=value run configuration.

One option per line, ``key = value``; blank lines and ``#`` comment lines are
ignored, as is anything after `` #`` on a value line. No nesting, no
sections. Unknown keys are rejected so typos fail loudly. ``arch`` is
required; every other key has the default shown::

    arch =                  # the architecture string (gmlp.model)
    data = synth            # synth | csv | halfnoise
    train_csv =             # data = csv: the training rows
    test_csv =              # data = csv: the test rows, else test_fraction of train_csv
    label_column = label    # data = csv: a header name, or a 0-based column index
    has_header = true       # data = csv
    test_fraction = 0.2     # the held-out share of generated or unsplit rows
    val_fraction = 0.1      # the share of the training rows held out for validation
    out_dir =               # else $GMLP_OUT_DIR, else gmlp-out
    synth_n = 6400          # data = synth: rows drawn from SynthBayesNet()
    synth_seed = 0          # data = synth: the draw and the train/test split
    halfnoise_n = 2000      # data = halfnoise: rows
    halfnoise_signal = 16   # data = halfnoise: signal columns
    halfnoise_noise = 16    # data = halfnoise: noise columns
    halfnoise_classes = 4   # data = halfnoise: classes
    halfnoise_seed = 0      # data = halfnoise: the draw and the train/test split
    epochs = 300
    batch_size = 64
    lambda = 1.0            # entropy weight
    alpha = 1e-4            # L2 weight
    lr0 = 0.001
    plateau_patience = 10   # epochs without a gain before the lr drops
    plateau_factor = 5.0    # the lr's divisor at a drop
    tau_start = 1.0
    tau_end = 0.01
    seed = 0                # weights, batches, the validation and csv test splits

A synth net other than ``SynthBayesNet()`` is written out by ``gmlp synth``
and trained with ``data = csv``. Example::

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


# the least valid value of each integer data key
_LOWEST = {
    **dict.fromkeys(("synth_n", "halfnoise_n", "halfnoise_classes"), 1),
    **dict.fromkeys(("synth_seed", "halfnoise_seed", "halfnoise_signal", "halfnoise_noise"), 0),
}


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
    val_fraction: float = 0.1
    out_dir: str = ""
    synth_n: int = 6400
    synth_seed: int = 0
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
        if not 0 <= self.val_fraction < 1:
            raise ConfigError(f"val_fraction must be in [0, 1), got {self.val_fraction}")
        for name, low in _LOWEST.items():
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        self.train.validate()

    def to_dict(self) -> dict:
        """Every key with its value: the run's fields, then the training config's."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "train"}
        return out | {_train_key(f.name): getattr(self.train, f.name) for f in fields(self.train)}


# config key -> the type of the RunConfig field of that name, which casts the
# value; the nested TrainConfig's fields take the keys above
_RUN_KEYS = {name: cast for name, cast in get_type_hints(RunConfig).items() if name != "train"}


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
