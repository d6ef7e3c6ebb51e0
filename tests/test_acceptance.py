"""Acceptance suite: one test per criterion, reported pass/fail by conftest.

Criteria cover oracle agreement of the Monte Carlo walker, counter
conservation, c-weight scale invariance, the qualitative comparison matrix,
the citation-loop trap, reference-count dilution, PageRank correctness,
top-x difference properties, CLI determinism and dataset round trips.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from pira import WalkParams, pira_rank
from pira.analysis import Ranking, all_papers, dblp_authors, rank, topx_difference
from pira.baselines import pagerank, paper_pagerank
from pira.cli import main
from pira.ingest import load_graph, save_graph
from pira.oracle import expected_scores
from pira.scenarios import (
    ScenarioKind,
    ScenarioSpec,
    generate,
    measure_scores,
)
from pira.walk import ScoreTable

from conftest import ACCEPTANCE_SEED, ACCEPTANCE_STEPS, FIXTURE_BUILDERS

MATRIX_SCENARIOS = (
    ScenarioKind.PAPER_QUALITY,
    ScenarioKind.COAUTHOR_COUNT,
    ScenarioKind.CITING_QUALITY,
    ScenarioKind.SELF_CITATION,
)


def test_criterion_1_oracle_agreement(fixture_graphs, mc_scores):
    """Monte Carlo at 10^7 steps matches the stationary oracle within 2%."""
    for name, graph in fixture_graphs.items():
        assert graph.n_nodes <= 50
        start = time.perf_counter()
        mc = mc_scores(name)
        elapsed = time.perf_counter() - start
        assert elapsed <= 60.0, f"{name}: walk took {elapsed:.1f}s"
        exact = expected_scores(graph, WalkParams(step_budget=ACCEPTANCE_STEPS,
                                                  seed=ACCEPTANCE_SEED))
        checked = exact.normalized >= 0.01
        rel = np.abs(mc.normalized[checked] - exact.normalized[checked])
        rel /= exact.normalized[checked]
        assert rel.max() <= 0.02, f"{name}: max relative error {rel.max():.4f}"
        l1 = np.abs(mc.normalized - exact.normalized).sum()
        assert l1 <= 0.02 * graph.n_nodes, f"{name}: L1 {l1:.4f}"


def test_criterion_2_counter_conservation(fixture_graphs):
    """With unit c-weights the counters sum exactly to the step budget."""
    params = WalkParams(cite_weight=1, wrote_weight=1, iswb_weight=1,
                        restarting_weight=1, step_budget=100_000, seed=9)
    assert len(fixture_graphs) >= 5
    for name, graph in fixture_graphs.items():
        table = pira_rank(graph, params)
        assert table.raw.sum() == float(params.step_budget), name


def test_criterion_3_scale_invariance(fixture_graphs):
    """Scaling all c-weights by 7.3 leaves every ranking identical."""
    base = WalkParams(cite_weight=1, wrote_weight=0.5, iswb_weight=1,
                      restarting_weight=0.25, step_budget=100_000, seed=31)
    scaled = base.scaled_weights(7.3)
    everything = lambda table: np.ones(len(table), dtype=bool)
    for name, graph in fixture_graphs.items():
        r1 = rank(pira_rank(graph, base), subset=everything)
        r2 = rank(pira_rank(graph, scaled), subset=everything)
        assert [(e.rank, e.node) for e in r1.entries] == [
            (e.rank, e.node) for e in r2.entries
        ], name


def test_criterion_4_comparison_matrix():
    """Each generated scenario reproduces its row of the measure matrix:
    'no' measures leave the designated pair unseparated or inverted, 'yes'
    measures order it correctly (the walk scored by the exact oracle)."""
    for kind in MATRIX_SCENARIOS:
        scenario = generate(ScenarioSpec(kind), padding=20)
        assert scenario.separates is not None
        for measure, should_separate in scenario.separates.items():
            scores = measure_scores(scenario.graph, measure).by_ext_id()
            preferred = scores[scenario.preferred]
            other = scores[scenario.other]
            tolerance = 1e-9 * max(abs(preferred), abs(other), 1e-300)
            if should_separate:
                assert preferred - other > tolerance, (kind, measure)
            else:
                assert preferred <= other + tolerance, (kind, measure)


def test_criterion_5_citation_loop_trap():
    """PR-P keeps the mutually citing pair on top; the bipartite walk with
    theta 0.7 and df 0.15 ranks both papers strictly lower."""
    scenario = generate(ScenarioSpec(ScenarioKind.CITATION_LOOP), padding=20)
    graph = scenario.graph
    prp = rank(ScoreTable.over_papers(graph, paper_pagerank(graph)),
               subset=all_papers)
    pira = rank(expected_scores(graph, WalkParams(theta=0.7, damping_df=0.15)),
                subset=all_papers)
    assert {prp.position_of("x"), prp.position_of("y")} == {1, 2}
    for node in ("x", "y"):
        assert pira.position_of(node) > prp.position_of(node), node


def test_criterion_6_dilution_degrades_chain_rank():
    """A minimum citation count of 10 strictly worsens the chain author's
    rank on the single-reference chain (same seed and budget)."""
    scenario = generate(
        ScenarioSpec(ScenarioKind.SINGLE_REF_CHAIN, {"length": 5}), padding=200
    )
    base = WalkParams(step_budget=1_000_000, seed=7)
    ranks = {}
    for k in (0, 10):
        table = pira_rank(scenario.graph, replace(base, min_citation_count=k))
        ranks[k] = rank(table, subset=dblp_authors).position_of("chain_author")
    assert ranks[10] > ranks[0]


def test_criterion_7_pagerank_correctness():
    """Uniform scores on symmetric fixtures; the star matches a direct solve."""
    ring = pagerank(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
    assert np.abs(ring - 1 / 3).max() <= 1e-9
    cycle = pagerank(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.abs(cycle - 0.5).max() <= 1e-9

    edges = [(1, 0, 1.0), (2, 0, 1.0), (3, 0, 1.0)]
    m = np.zeros((4, 4))
    for s, d, w in edges:
        m[s, d] = w
    pi = pagerank(m, damping=0.15)
    m[0] = 0.25  # dangling hub spreads uniformly
    for s in (1, 2, 3):
        m[s] /= m[s].sum()
    direct = np.linalg.solve(np.eye(4) - 0.85 * m.T, np.full(4, 0.15 / 4))
    assert np.abs(pi - direct).max() <= 1e-9


def test_criterion_8_topx_difference_properties():
    """Identical rankings give an all-zero curve; any pair is zero at 100%."""
    nodes = [f"n{i:02d}" for i in range(40)]
    scores = [(n, float(40 - i)) for i, n in enumerate(nodes)]
    r1 = Ranking.from_scores(scores)
    curve = topx_difference(r1, r1, [1, 5, 10, 25, 50, 100])
    assert all(d == 0.0 for _, d in curve.points)

    rng = np.random.default_rng(8)
    shuffled = [(n, float(s)) for n, s in zip(rng.permutation(nodes), range(40))]
    r2 = Ranking.from_scores(shuffled)
    mixed = topx_difference(r1, r2, [10, 50, 100])
    assert mixed.points[-1] == (100.0, 0.0)


def test_criterion_9_cli_rank_determinism(tmp_path):
    """`rank --method pira` with a fixed seed writes byte-identical files."""
    dataset = tmp_path / "ds"
    save_graph(generate(ScenarioSpec(ScenarioKind.PAPER_QUALITY), padding=10).graph,
               dataset)
    outputs = []
    for name in ("one.tsv", "two.tsv"):
        out = tmp_path / name
        code = main(["rank", str(dataset), "--method", "pira",
                     "--steps", "300000", "--seed", "42", "--walkers", "2",
                     "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0]


def test_criterion_10_synth_ingest_round_trip(tmp_path):
    """synth -> ingest -> re-export is the identity for all six scenarios."""
    for kind in ScenarioKind:
        first = tmp_path / f"{kind.value}-first"
        again = tmp_path / f"{kind.value}-again"
        assert main(["synth", kind.value, str(first), "--padding", "6"]) == 0
        graph, _ = load_graph(first)
        save_graph(graph, again)
        for name in ("authors.tsv", "papers.tsv", "wrote.tsv", "cites.tsv"):
            assert (first / name).read_bytes() == (again / name).read_bytes(), (
                kind, name,
            )
