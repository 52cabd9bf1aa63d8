"""The benchmark's gradient check, run on small nets.

``gmlpbench/checks.py`` compares the tape gradient of the full objective
with central differences; the tape records the same kernels that ``fit``
trains with. A change that breaks the check then fails here, not only in a
benchmark run. The module is loaded from its file and never edited.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from gmlp.model import Model, parse_arch
from gmlp.training import TrainConfig

BENCH = Path(__file__).resolve().parent.parent / "gmlpbench"
D = 6


@pytest.fixture(scope="module")
def checks():
    sys.path.insert(0, str(BENCH))  # checks.py imports workloads as a top-level module
    try:
        spec = importlib.util.spec_from_file_location("gmlpbench_checks", BENCH / "checks.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look their module up there
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


@pytest.mark.parametrize(
    "arch",
    [
        "GSel-8-2, GFC, ReLU, BNorm, GPool-max, GFC, ReLU, BNorm, Concat, FC-3",
        "FC-8, ReLU, BNorm, FC-6, ReLU, BNorm, FC-3",
    ],
)
def test_gradient_check_passes_and_catches_a_flipped_sign(checks, arch):
    rng = np.random.default_rng(3)
    net = Model(parse_arch(arch, d=D, seed=4))
    net.set_temperature(0.5)
    X = rng.normal(size=(checks.GRAD_BATCH, D))
    y = rng.integers(0, 3, size=checks.GRAD_BATCH)
    analytic, numeric = checks.gradient_pairs(net, X, y, TrainConfig(), rng)
    assert analytic.size == checks.GRAD_COORDS * len(net.parameters())
    check = checks.gradients_close("gradient_fd", analytic, numeric)
    assert check.ok, check.detail
    assert not checks.gradients_close("gradient_fd", -analytic, numeric).ok
