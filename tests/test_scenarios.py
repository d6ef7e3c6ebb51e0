import numpy as np
import pytest

from pira import WalkParams
from pira.baselines import cit_count, pub_count
from pira.ingest import load_graph, save_graph
from pira.oracle import expected_scores
from pira.scenarios import (
    Assertion,
    ScenarioKind,
    ScenarioSpec,
    assertions_from_tsv,
    assertions_to_tsv,
    evaluate_assertions,
    generate,
    measure_scores,
)

from conftest import rows


def test_generation_is_deterministic():
    for kind in ScenarioKind:
        s1 = generate(ScenarioSpec(kind), padding=7)
        s2 = generate(ScenarioSpec(kind), padding=7)
        assert s1.graph == s2.graph
        assert s1.assertions == s2.assertions


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        generate(ScenarioSpec(ScenarioKind.SINGLE_REF_CHAIN, {"length": 1}))
    with pytest.raises(ValueError):
        generate(ScenarioSpec(ScenarioKind.COAUTHOR_COUNT, {"coauthors": 1}))
    with pytest.raises(ValueError):
        generate(ScenarioSpec(ScenarioKind.PAPER_QUALITY, {"bogus": 3}))
    with pytest.raises(ValueError):
        generate(ScenarioSpec(ScenarioKind.PAPER_QUALITY), padding=-1)


def test_citing_quality_distant_citer_counts():
    g = generate(ScenarioSpec(ScenarioKind.CITING_QUALITY)).graph
    strong_citer = g.paper_index["c1"]
    weak_citer = g.paper_index["c2"]
    assert len(g.cited_by[strong_citer]) == 16
    assert len(g.cited_by[weak_citer]) == 1


def test_self_citation_counts_match_design():
    g = generate(ScenarioSpec(ScenarioKind.SELF_CITATION)).graph
    counts = cit_count(g)
    a1, a2 = g.author_index["a1"], g.author_index["a2"]
    assert counts[a1] == 9
    assert counts[a2] == 3
    assert pub_count(g)[a1] == 10
    # a1's citations all come from his own papers; a2's are all external
    papers_of = rows(g.wrote)
    own = set(papers_of[a1])
    for p in papers_of[a1]:
        assert set(g.cited_by[p]) <= own
    for p in papers_of[a2]:
        assert not set(g.cited_by[p]) & set(papers_of[a2])


def test_citation_loop_has_fourteen_external_citers():
    g = generate(ScenarioSpec(ScenarioKind.CITATION_LOOP)).graph
    x, y = g.paper_index["x"], g.paper_index["y"]
    external = (set(g.cited_by[x]) | set(g.cited_by[y])) - {x, y}
    assert len(external) == 14
    # the loop papers cite each other and nothing else
    assert rows(g.cite)[x] == (y,)
    assert rows(g.cite)[y] == (x,)


def test_single_ref_chain_structure():
    g = generate(ScenarioSpec(ScenarioKind.SINGLE_REF_CHAIN)).graph
    chain = [g.paper_index[f"ch{i:02d}"] for i in range(1, 6)]
    refs_of = rows(g.cite)
    assert refs_of[chain[0]] == ()
    for prev, cur in zip(chain, chain[1:]):
        assert refs_of[cur] == (prev,)


def test_padding_adds_isolated_pairs():
    bare = generate(ScenarioSpec(ScenarioKind.PAPER_QUALITY), padding=0).graph
    padded = generate(ScenarioSpec(ScenarioKind.PAPER_QUALITY), padding=25).graph
    assert padded.n_authors == bare.n_authors + 25
    assert padded.n_papers == bare.n_papers + 25
    assert padded.n_cite_edges == bare.n_cite_edges
    pad_author = padded.author_index["pad_a_000"]
    assert len(rows(padded.wrote)[pad_author]) == 1


@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_expected_assertions_hold_at_oracle_precision(kind):
    scenario = generate(ScenarioSpec(kind), padding=20)
    results = evaluate_assertions(scenario.graph, scenario.assertions)
    failed = [r for r in results if not r.passed]
    assert not failed, failed


def test_scenarios_beyond_ten_thousand_nodes_are_exact():
    # the oracle has no size cap, so a padded scenario is scored exactly
    scenario = generate(ScenarioSpec(ScenarioKind.CITING_QUALITY), padding=5_200)
    g = scenario.graph
    assert g.n_nodes > 10_000
    exact = expected_scores(g, WalkParams())
    assert np.array_equal(measure_scores(g, "pira").normalized, exact.normalized)
    results = evaluate_assertions(g, scenario.assertions)
    assert results and all(r.passed for r in results), [r for r in results if not r.passed]


def test_assertion_tsv_round_trip():
    scenario = generate(ScenarioSpec(ScenarioKind.SELF_CITATION))
    text = assertions_to_tsv(scenario.assertions)
    assert assertions_from_tsv(text) == scenario.assertions
    assert text.splitlines()[0].count("\t") == 3


def test_scenarios_round_trip_through_tsv(tmp_path):
    for kind in ScenarioKind:
        scenario = generate(ScenarioSpec(kind), padding=3)
        out = tmp_path / kind.value
        save_graph(scenario.graph, out)
        reloaded, report = load_graph(out)
        assert report.authors == scenario.graph.n_authors
        assert report.cite_edges == scenario.graph.n_cite_edges
        again = tmp_path / (kind.value + "-again")
        save_graph(reloaded, again)
        for name in ("authors.tsv", "papers.tsv", "wrote.tsv", "cites.tsv"):
            assert (out / name).read_bytes() == (again / name).read_bytes()


def test_measure_scores_unknown_measure():
    g = generate(ScenarioSpec(ScenarioKind.PAPER_QUALITY)).graph
    with pytest.raises(ValueError):
        measure_scores(g, "nope")


def test_evaluate_rejects_unknown_relation():
    g = generate(ScenarioSpec(ScenarioKind.PAPER_QUALITY)).graph
    with pytest.raises(ValueError):
        evaluate_assertions(g, (Assertion("pub", "a1", ">=", "a2"),))
