"""The names other code reaches pira by: the package exports, the
functions the traced benchmark run wraps (``bench/workloads.py``) and the
members its counters read."""

import sys
from pathlib import Path

import pytest

import pira
from pira import WalkMode, WalkParams, oracle
from pira.scenarios import ScenarioKind, ScenarioSpec, generate

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


@pytest.mark.parametrize("mode", list(WalkMode))
def test_the_traced_nnz_counter_reads_the_link_matrix(mode):
    # the traced run's oracle.nnz counts the three class views of the link;
    # no two classes share an entry, so it must be the link's own count
    graph = generate(ScenarioSpec(ScenarioKind.SELF_CITATION), padding=7).graph
    params = WalkParams(mode=mode, min_citation_count=3)
    ts = oracle.build_transition_system(graph, params)
    counted = workloads._count_nnz((graph, params), {}, ts, 0.0)
    assert counted == {"oracle.nnz": ts.link.nnz}
