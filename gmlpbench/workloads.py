"""The benchmark's three workloads and the set-up each one times.

A workload fixes the data generator, the architecture and the training
recipe. Everything random in it (data, split, model initialisation, batch
order) is drawn from the one ``--seed`` the benchmark is given, so the same
seed gives the same inputs, the same trained model and the same accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gmlp import data, model, training

# ROADMAP's W2 net and the dense MLP with the same layer widths.
W2_ARCH = (
    "GSel-64-16, GFC, ReLU, BNorm, GPool-max, GFC, ReLU, BNorm, GPool-max, "
    "GFC, ReLU, BNorm, Concat, FC-10"
)
MLP_ARCH = "FC-1024, ReLU, BNorm, FC-512, ReLU, BNorm, FC-256, ReLU, BNorm, FC-10"
SYNTH_ARCH = "GSel-8-4, GFC, ReLU, BNorm, Concat, FC-2"

# halfnoise columns and the scatter around each class template; at 5.0 a
# nearest-class-mean classifier gets about 0.94, so accuracy is not saturated
HALFNOISE_SIGNAL = 392
HALFNOISE_NOISE = 392
HALFNOISE_CLASSES = 10
HALFNOISE_SCALE = 5.0

VAL_FRACTION = 0.1  # carved from the training rows, as `gmlp train` does


@dataclass(frozen=True)
class Workload:
    name: str
    data: str  # "synth" | "halfnoise"
    arch: str
    n_train: int  # rows before the validation split
    n_test: int  # held-out rows that prediction is timed and scored on
    epochs: int
    batch_size: int
    lr0: float
    # relaxed accuracy must reach the nearest-class-mean accuracy minus this
    ncm_margin: float | None = None
    # accuracy may exceed the Bayes-optimal accuracy on the test rows by at
    # most this much (sampling luck on a finite test set)
    bayes_margin: float | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("synth-small", "synth", SYNTH_ARCH, 4000, 4096, 20, 64, 1e-2, bayes_margin=0.01),
        Workload("wide-784", "halfnoise", W2_ARCH, 1500, 4096, 16, 128, 1e-2, ncm_margin=0.5),
        Workload("mlp-784", "halfnoise", MLP_ARCH, 1500, 4096, 16, 128, 1e-2, ncm_margin=0.2),
    )
}


@dataclass
class Inputs:
    """What one set-up produces: the splits, the built model and its recipe."""

    raw_test: data.Dataset  # un-normalised held-out rows, for the Bayes oracle
    train: data.Dataset
    val: data.Dataset
    test: data.Dataset
    spec: model.ArchSpec
    model: model.Model
    cfg: training.TrainConfig


def synth_net() -> data.SynthBayesNet:
    return data.SynthBayesNet()


def setup(w: Workload, seed: int) -> Inputs:
    """Generate, split, normalise and build, as `gmlp train` does before `fit`."""
    n = w.n_train + w.n_test
    if w.data == "synth":
        full = data.synth_generate(synth_net(), n, seed=seed)
    else:
        full = data.halfnoise_generate(
            n,
            HALFNOISE_SIGNAL,
            HALFNOISE_NOISE,
            HALFNOISE_CLASSES,
            seed=seed,
            within_scale=HALFNOISE_SCALE,
        )
    train, raw_test = data.split(full, w.n_test / n, seed=seed)
    train, val = data.split(train, VAL_FRACTION, seed=seed)
    (train, val, test), _ = data.normalize(train, val, raw_test)
    spec = model.parse_arch(w.arch, d=train.d, seed=seed)
    net = model.Model(spec)
    # plateau rule held off: the budget is too short for lr drops to help
    cfg = training.TrainConfig(
        epochs=w.epochs,
        batch_size=w.batch_size,
        lr0=w.lr0,
        plateau_patience=w.epochs,
        seed=seed,
    )
    return Inputs(raw_test, train, val, test, spec, net, cfg)


def rows_per_epoch(inputs: Inputs) -> int:
    """Training rows one epoch of `fit` steps through: full batches only."""
    return (inputs.train.n // inputs.cfg.batch_size) * inputs.cfg.batch_size
