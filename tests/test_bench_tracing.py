"""The benchmark's tracer names gmlp functions by attribute; each name must resolve.

A renamed or deleted function would otherwise surface only when a traced
benchmark run crashes. The tracer module is imported, never installed.
"""

import importlib.util
from pathlib import Path

import pytest

from gmlp import tensor

TRACING = Path(__file__).resolve().parent.parent / "gmlpbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("gmlpbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_resolves(tracing):
    for mod, attr in [*tracing.SPANS, *tracing.GENERATORS]:
        owner, name = tracing._owner(mod, attr)
        assert callable(getattr(owner, name, None)), f"{mod.__name__}.{attr}"


def test_dispatch_names_public_primitives(tracing):
    for _, primitive in tracing.DISPATCH:
        assert primitive in tensor.__all__ and callable(getattr(tensor, primitive))


def test_every_public_tensor_name_exists():
    for name in tensor.__all__:
        assert hasattr(tensor, name), name
