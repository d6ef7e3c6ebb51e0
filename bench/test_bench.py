"""Self-tests of the benchmark: generator determinism, output checks that
reject corrupted outputs, span bookkeeping, and BENCHMARK.json agreeing
with catalog.py.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import catalog  # noqa: E402
import checks  # noqa: E402
import datagen  # noqa: E402
from spans import Tracer, summarize  # noqa: E402


def _written(tmp_path: Path, seed: int, name: str, n_authors: int = 60) -> bytes:
    directory = tmp_path / name
    datagen.write(datagen.generate(seed, n_authors), directory)
    return checks.dataset_bytes(directory)


def test_generator_same_seed_same_bytes(tmp_path):
    assert _written(tmp_path, 7, "a") == _written(tmp_path, 7, "b")


def test_generator_different_seed_different_bytes(tmp_path):
    assert _written(tmp_path, 7, "a") != _written(tmp_path, 8, "b")


def test_generator_shape():
    ds = datagen.generate(3, 400)
    assert len(ds.papers) == 2 * len(ds.authors)
    ids = [a[0] for a in ds.authors] + [p[0] for p in ds.papers]
    assert len(set(ids)) == len(ids)  # unique across kinds
    for row in ds.authors + ds.papers:
        assert not any(c in field for field in row[:2] for c in "\t\n")
    per_paper = np.bincount([int(p[1:]) for _, p in ds.wrote], minlength=len(ds.papers))
    assert per_paper.min() >= 1 and per_paper.max() <= datagen.COAUTHOR_CAP
    assert 1.8 < per_paper.mean() < 2.6
    citing = {s for s, _ in ds.cites}
    assert all(int(s[1:]) > int(d[1:]) for s, d in ds.cites)  # only older papers
    assert 7 < (len(ds.cites) - ds.duplicate_cites) / len(ds.papers) < 10.5
    assert len(citing) > 0.9 * len(ds.papers)
    in_degree = np.bincount([int(d[1:]) for _, d in ds.cites], minlength=len(ds.papers))
    assert in_degree.max() > 5 * in_degree.mean()  # heavy-tailed cited-by counts
    flags = [f for *_, f in ds.authors + ds.papers]
    assert 0.6 < sum(flags) / len(flags) < 0.8
    assert ds.duplicate_cites == len(ds.cites) - len(set(ds.cites))


def test_generated_dataset_loads_and_merge_suggestions_fire(tmp_path):
    from pira.ingest import load_graph, suggest_merges

    ds = datagen.generate(5, 1000)
    datagen.write(ds, tmp_path)
    graph, report = load_graph(tmp_path)
    assert report.dropped_duplicate_cites == ds.duplicate_cites
    assert graph.n_cite_edges == len(ds.cites) - ds.duplicate_cites
    assert suggest_merges(graph)


RANKING = "1\ta3\t2.500000\n2\ta1\t1.250000\n3\ta2\t1.250000\n4\ta0\t0.100000\n"
NODES = {"a0", "a1", "a2", "a3"}


def test_ranking_check_accepts_valid_ranking():
    assert checks.ranking_tsv(RANKING, NODES) is None


@pytest.mark.parametrize("corrupt", [
    lambda lines: [lines[1], lines[0]] + lines[2:],             # swapped lines
    lambda lines: lines[:3],                                     # node missing
    lambda lines: lines[:3] + ["4\ta3\t0.100000"],               # node twice
    lambda lines: [lines[0], lines[1].replace("1.25", "9.25")] + lines[2:],  # perturbed score
    lambda lines: lines[:3] + ["4\ta0\tnan"],
    lambda lines: lines[:3] + ["4\ta0"],
])
def test_ranking_check_rejects_corruption(corrupt):
    lines = RANKING.splitlines()
    assert checks.ranking_tsv("\n".join(corrupt(lines)) + "\n", NODES) is not None


def test_same_bytes_rejects_reordered_tsv_row(tmp_path):
    from pira.ingest import load_graph, save_graph

    datagen.write(datagen.generate(11, 80), tmp_path / "in")
    graph, _ = load_graph(tmp_path / "in")
    save_graph(graph, tmp_path / "first")
    again, _ = load_graph(tmp_path / "first")
    save_graph(again, tmp_path / "second")
    first = checks.dataset_bytes(tmp_path / "first")
    assert checks.same_bytes(first, checks.dataset_bytes(tmp_path / "second")) is None

    cites = tmp_path / "second" / "cites.tsv"
    rows = cites.read_text().splitlines(keepends=True)
    cites.write_text("".join([rows[1], rows[0]] + rows[2:]))
    assert checks.same_bytes(first, checks.dataset_bytes(tmp_path / "second")) is not None


def test_score_checks_reject_perturbed_scores():
    normalized = np.array([0.5, 1.5, 1.0, 1.0])
    assert checks.mean_one(normalized) is None
    perturbed = normalized.copy()
    perturbed[2] += 1e-6
    assert checks.mean_one(perturbed) is not None

    pr = np.array([0.1, 0.2, 0.7])
    assert checks.probability_vector(pr, 1.0) is None
    assert checks.probability_vector(pr * 1.001, 1.0) is not None
    assert checks.probability_vector(np.array([-0.1, 0.4, 0.7]), 1.0) is not None
    assert checks.probability_vector(np.array([np.nan, 0.3, 0.7]), 1.0) is not None

    exact = np.array([1.0, 2.0, 0.5])
    mae, error = checks.mae_within(exact + 0.01, exact, 0.05)
    assert error is None and mae == pytest.approx(0.01)
    assert checks.mae_within(exact + 0.2, exact, 0.05)[1] is not None


def test_assertion_check_rejects_a_failed_assertion():
    from pira.scenarios import ScenarioKind, ScenarioSpec, evaluate_assertions, generate

    scenario = generate(ScenarioSpec(ScenarioKind.PAPER_QUALITY))
    results = evaluate_assertions(scenario.graph, scenario.assertions)
    assert checks.assertions_pass(results) is None
    flipped = [
        a.__class__(a.measure, a.node_b, a.relation, a.node_a) if a.relation != "=" else a
        for a in scenario.assertions
    ]
    assert checks.assertions_pass(evaluate_assertions(scenario.graph, tuple(flipped))) is not None
    assert checks.assertions_pass([]) is not None


def test_checker_counts_failures():
    ck = checks.Checker()
    ck.record("ok", None)
    ck.record("bad", "broken")
    assert (ck.attempted, ck.failed) == (2, 1)
    assert ck.messages == ["bad: broken"]


def test_spans_self_time_and_patching():
    import types

    module = types.SimpleNamespace(inner=lambda: sum(range(1000)))
    module.outer = lambda: module.inner() + module.inner()
    tracer = Tracer("unit")
    tracer.patch(module, "inner", "m.inner", lambda a, k, r, s: {"m.calls": 1})
    tracer.patch(module, "outer", "m.outer")
    assert module.outer() == 2 * sum(range(1000))
    tracer.restore()
    assert module.inner.__name__ == "<lambda>"
    spans = tracer.take()
    outer = next(s for s in spans if s.name == "m.outer")
    inner = [s for s in spans if s.name == "m.inner"]
    assert len(inner) == 2 and all(s.parent == outer.id for s in inner)
    assert all(s.workload == "unit" and s.end >= s.start for s in spans)
    summary = summarize(spans)
    assert summary["m.inner"]["calls"] == 2
    assert summary["m.outer"]["self_seconds"] == pytest.approx(
        outer.seconds - sum(s.seconds for s in inner))
    assert sum(s.counts.get("m.calls", 0) for s in spans) == 2
    assert tracer.take() == []


def test_spans_memory_peak():
    tracer = Tracer("unit", memory_skip=frozenset({"skipped"}))
    tracer.memory = True
    with tracer.span("outer"):
        with tracer.span("alloc"):
            block = bytearray(4 << 20)
        del block
    with tracer.span("skipped"):
        bytearray(4 << 20)
    peaks = {s.name: s.peak_bytes for s in tracer.take()}
    assert peaks["alloc"] >= 4 << 20 and peaks["outer"] >= peaks["alloc"]
    assert peaks["skipped"] == 0


def test_host_clock_scales_wall_seconds_by_the_probes(monkeypatch):
    import run

    probes = iter([0.1, 0.3, 0.2])
    monkeypatch.setattr(run, "host_probe", lambda: next(probes))
    clock = run.HostClock()
    result, wall, scaled = clock.timed(lambda x: x + 1, 1)
    assert result == 2 and clock.probes == [0.1, 0.3]
    assert scaled == pytest.approx(wall * run.PROBE_REFERENCE_S / 0.2)
    clock.lap()  # outside timed: no probe
    assert clock.probes == [0.1, 0.3]


def test_host_clock_scales_each_lap_by_its_own_probes(monkeypatch):
    import run

    probes = iter([0.1, 0.3, 0.2])
    monkeypatch.setattr(run, "host_probe", lambda: next(probes))
    clock = run.HostClock()
    _, wall, scaled = clock.timed(clock.lap)
    assert clock.probes == [0.1, 0.3, 0.2]
    # one segment scaled over (0.1 + 0.3) / 2, the other over (0.3 + 0.2) / 2
    assert wall * run.PROBE_REFERENCE_S / 0.25 <= scaled <= wall * run.PROBE_REFERENCE_S / 0.2


def test_benchmark_json_matches_catalog():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == catalog.WORKLOADS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == catalog.END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        k: v[:2] for k, v in catalog.PER_LAYER.items()}
    assert all(len(w) <= 200 and "\n" not in w for w in catalog.WORKLOADS.values())
