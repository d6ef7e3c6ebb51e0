"""The names other code reaches pira by: the package exports and the
functions the traced benchmark run wraps (``bench/workloads.py``)."""

import sys
from pathlib import Path

import pira

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def test_every_exported_name_resolves():
    assert pira.__all__
    for name in pira.__all__:
        assert getattr(pira, name) is not None, name


def test_the_traced_benchmark_run_patches_and_restores_every_name():
    tracer = Tracer("guard")
    workloads.instrument(tracer)  # raises AttributeError for a name pira lost
    patched = list(tracer._patched)
    try:
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr).__wrapped__ is original, attr
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr
