import sys
from pathlib import Path

import numpy as np
import pytest

# make the oracle helpers importable as plain modules
sys.path.insert(0, str(Path(__file__).parent))

from gmlp import model as M  # noqa: E402
from gmlp import training  # noqa: E402


@pytest.fixture(params=[np.float64, np.float32], ids=["float64", "float32"])
def eval_dtype(request, monkeypatch):
    """Run the test with the eval executor computing in float64, then in float32 (``evalcheck``)."""
    monkeypatch.setattr(M, "EVAL_DTYPE", request.param)
    return request.param


@pytest.fixture
def train_dtype(monkeypatch):
    """Run the test with ``TrainStep`` computing in float64, the tape path's precision.

    At float64 the compiled step gives the tape path's bits, and its gradient
    meets central finite differences at float64 tolerances.
    """
    monkeypatch.setattr(training, "TRAIN_DTYPE", np.float64)
    return np.float64
