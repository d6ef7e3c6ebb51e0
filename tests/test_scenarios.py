import re

import numpy as np
import pytest

from pira import WalkParams, build_graph, normalize
from pira.baselines import cit_count, pub_count
from pira.errors import ParseError
from pira.ingest import load_graph, save_graph
from pira.oracle import expected_scores
from pira import scenarios
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
    # padding=True built one padding pair and padding=1.5 raised a TypeError;
    # {"citers": True} built and {"citers": "3"} raised a TypeError
    for padding in (True, 1.5, "3", None):
        with pytest.raises(ValueError, match=f"^padding must be an integer, got {padding!r}$"):
            generate(ScenarioSpec(ScenarioKind.PAPER_QUALITY), padding=padding)
    for citers in (True, False, 1.5, "3", None):
        with pytest.raises(ValueError, match=f"^citers must be an integer, got {citers!r}$"):
            generate(ScenarioSpec(ScenarioKind.PAPER_QUALITY, {"citers": citers}))
    # a numpy integer is an integer
    spec = ScenarioSpec(ScenarioKind.PAPER_QUALITY, {"citers": np.int64(3)})
    assert generate(spec, padding=np.int64(2)).graph == generate(
        ScenarioSpec(ScenarioKind.PAPER_QUALITY, {"citers": 3}), padding=2).graph


@pytest.mark.parametrize("kind, params, message", [
    ("paper-quality", {}, "kind must be a ScenarioKind, got 'paper-quality'"),
    (ScenarioKind.PAPER_QUALITY, None, "params must be a Mapping, got None"),
    (ScenarioKind.PAPER_QUALITY, [("citers", 3)], "params must be a Mapping"),
], ids=["kind_value_string", "params_none", "params_pairs"])
def test_a_scenario_spec_refuses_a_field_of_the_wrong_type(kind, params, message):
    # the kind's value string raised a KeyError in generate, and None params a TypeError
    with pytest.raises(ValueError, match=re.escape(message)):
        ScenarioSpec(kind, params)


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


# each kind at its generator's minimum sizes, padding 1: node ids and DBLP
# flags in dense index order (seeded walks depend on it), then the sorted
# wrote and cite pairs
@pytest.mark.parametrize("kind, params, authors, author_dblp, papers, paper_dblp, wrote, cites", [
    (ScenarioKind.PAPER_QUALITY, {"citers": 1, "other_papers": 2},
     ["a1", "a2", "ea01", "pad_a_000"], [1, 1, 0, 1],
     ["pa1", "q1", "q2", "e01", "pad_p_000"], [1, 1, 1, 0, 1],
     [("a1", "pa1"), ("a2", "q1"), ("a2", "q2"), ("ea01", "e01"), ("pad_a_000", "pad_p_000")],
     [("e01", "pa1")]),
    (ScenarioKind.COAUTHOR_COUNT, {"citations": 1, "coauthors": 2},
     ["a1", "a4", "co01", "eax01", "eay01", "pad_a_000"], [1, 1, 1, 0, 0, 1],
     ["p1", "p4", "ex01", "ey01", "pad_p_000"], [1, 1, 0, 0, 1],
     [("a1", "p1"), ("a4", "p4"), ("co01", "p4"), ("eax01", "ex01"), ("eay01", "ey01"),
      ("pad_a_000", "pad_p_000")],
     [("ex01", "p1"), ("ey01", "p4")]),
    (ScenarioKind.CITING_QUALITY, {"strong_citations": 2, "weak_citations": 1},
     ["b1", "b2", "c1a", "c2a", "pad_a_000"], [1, 1, 0, 0, 1],
     ["pb1", "pb2", "c1", "c2", "d1_01", "d1_02", "d2_01", "pad_p_000"], [1, 1, 0, 0, 0, 0, 0, 1],
     [("b1", "pb1"), ("b2", "pb2"), ("c1a", "c1"), ("c2a", "c2"), ("pad_a_000", "pad_p_000")],
     [("c1", "pb1"), ("c2", "pb2"), ("d1_01", "c1"), ("d1_02", "c1"), ("d2_01", "c2")]),
    (ScenarioKind.SELF_CITATION, {"pubs": 2, "external_citations": 1, "citer_quality": 1},
     ["a1", "a2", "ea1", "bga1_01", "pad_a_000"], [1, 1, 0, 0, 1],
     ["q", "s01", "s02", "e1", "bg1_01", "pad_p_000"], [1, 1, 1, 0, 0, 1],
     [("a1", "s01"), ("a1", "s02"), ("a2", "q"), ("bga1_01", "bg1_01"), ("ea1", "e1"),
      ("pad_a_000", "pad_p_000")],
     [("bg1_01", "e1"), ("e1", "q"), ("s02", "s01")]),
    (ScenarioKind.CITATION_LOOP, {"loop_citers": 1, "author_pubs": 1, "control_citers": 1},
     ["ax", "ay", "az", "pad_a_000"], [1, 1, 1, 1],
     ["x", "y", "z", "xp01", "yp01", "ex01", "ey01", "ez01", "pad_p_000"],
     [1, 1, 1, 1, 1, 0, 0, 0, 1],
     [("ax", "x"), ("ax", "xp01"), ("ay", "y"), ("ay", "yp01"), ("az", "z"),
      ("pad_a_000", "pad_p_000")],
     [("ex01", "x"), ("ey01", "y"), ("ez01", "z"), ("x", "y"), ("y", "x")]),
    (ScenarioKind.SINGLE_REF_CHAIN, {"length": 2, "bracket_pubs": 1},
     ["chain_author", "bracket_author", "pad_a_000"], [1, 1, 1],
     ["ch01", "ch02", "bp01", "pad_p_000"], [1, 1, 1, 1],
     [("bracket_author", "bp01"), ("chain_author", "ch01"), ("chain_author", "ch02"),
      ("pad_a_000", "pad_p_000")],
     [("ch02", "ch01")]),
], ids=[kind.value for kind in ScenarioKind])
def test_generated_nodes_come_in_a_fixed_index_order(kind, params, authors, author_dblp, papers,
                                                     paper_dblp, wrote, cites):
    g = generate(ScenarioSpec(kind, params), padding=1).graph

    def pairs(m, sources, targets):
        return sorted((sources[i], targets[j]) for i, row in enumerate(rows(m)) for j in row)

    assert list(g.author_ext_ids) == authors
    assert g.author_in_dblp.astype(int).tolist() == author_dblp
    assert list(g.paper_ext_ids) == papers
    assert g.paper_in_dblp.astype(int).tolist() == paper_dblp
    assert pairs(g.wrote, g.author_ext_ids, g.paper_ext_ids) == wrote
    assert pairs(g.cite, g.paper_ext_ids, g.paper_ext_ids) == cites


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
    authors, papers = measure_scores(g, "pira"), measure_scores(g, "pira_paper")
    assert authors.ext_ids == g.author_ext_ids and papers.ext_ids == g.paper_ext_ids
    assert np.array_equal(authors.raw, exact.raw[:g.n_authors])
    assert np.array_equal(papers.raw, exact.raw[g.n_authors:])
    results = evaluate_assertions(g, scenario.assertions)
    assert results and all(r.passed for r in results), [r for r in results if not r.passed]


def test_assertion_tsv_round_trip():
    scenario = generate(ScenarioSpec(ScenarioKind.SELF_CITATION))
    text = assertions_to_tsv(scenario.assertions)
    assert assertions_from_tsv(text) == scenario.assertions
    assert text.splitlines()[0].count("\t") == 3
    # ids holding characters that str.splitlines takes for line breaks
    odd = tuple(Assertion("pira", f"a{c}1", ">", f"b{c}2")
                for c in ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"))
    assert assertions_from_tsv(assertions_to_tsv(odd)) == odd


def test_a_malformed_assertion_line_names_its_line():
    # assertion lists follow the dataset files' line rules; a short line
    # once raised a bare unpacking ValueError
    short = "expected 4 tab-separated fields, got 3"
    with pytest.raises(ParseError, match=rf"^a\.tsv:3: {short}$") as err:
        assertions_from_tsv("pub\ta0\t>\ta1\n\npub\ta1\t>\n", source="a.tsv")
    assert (err.value.path, err.value.line) == ("a.tsv", 3)
    with pytest.raises(ParseError, match=rf"^<assertions>:1: {short}$"):
        assertions_from_tsv("pub\ta1\t>\n")
    # an unknown relation was only reported by evaluate_assertions, after
    # its measure had been computed
    relation = re.escape("invalid assertion ('pub', 'a1', '>=', 'a2'): every field")
    with pytest.raises(ParseError, match=rf"^a\.tsv:3: {relation}") as err:
        assertions_from_tsv("pub\ta0\t>\ta1\n\npub\ta1\t>=\ta2\n", source="a.tsv")
    assert (err.value.path, err.value.line) == ("a.tsv", 3)


@pytest.mark.parametrize("fields", [
    ("pub", "x\ny", ">", "z"),
    ("pub", "x", ">", "z\r"),
    ("p\tub", "x", ">", "z"),
    ("", "x", ">", "z"),
    ("pub", "x", "", "z"),
    ("pub", "x", ">", 3),
    ("\ufeffpub", "x", ">", "z"),  # read back as a file's byte-order mark
])
def test_an_assertion_a_file_line_cannot_hold_is_refused(fields):
    # Assertion("pub", "x\ny", ">", "z") was written as a line that
    # assertions_from_tsv rejected
    with pytest.raises(ValueError, match=re.escape(f"invalid assertion {fields}: every field")):
        Assertion(*fields)


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
    with pytest.raises(ValueError, match="unknown measure 'nope'"):
        measure_scores(g, "nope")


def test_cit_paper_scores_papers_by_their_citations():
    g = generate(ScenarioSpec(ScenarioKind.CITATION_LOOP)).graph
    # z has 25 citers, x and y 7 each plus each other
    results = evaluate_assertions(g, (Assertion("cit_paper", "z", ">", "x"),
                                      Assertion("cit_paper", "x", "=", "y")))
    assert all(r.passed for r in results)
    with pytest.raises(ValueError, match="measure 'cit_paper' scores no node 'ax'"):
        evaluate_assertions(g, (Assertion("cit_paper", "ax", "=", "x"),))


def test_pira_measures_score_one_node_kind_when_an_author_and_a_paper_share_an_id():
    g = build_graph([("u", "Author U", True), ("v", "Author V", True)],
                    [("u", "Paper U", True), ("w", "Paper W", True)],
                    [("u", "u"), ("v", "w")], [("w", "u")])
    exact = expected_scores(g, WalkParams())
    for measure, first, kind_rows in (("pira", "v", slice(0, 2)), ("pira_paper", "w", slice(2, 4))):
        (result,) = evaluate_assertions(g, (Assertion(measure, first, "<", "u"),))
        a, b = normalize(exact.raw[kind_rows])[[1, 0]]
        assert (result.value_a, result.value_b) == (a, b), measure
        assert result.passed, measure


def test_evaluate_solves_the_oracle_once_for_both_pira_measures(monkeypatch):
    g = build_graph([("u", "Author U", True), ("v", "Author V", True)],
                    [("u", "Paper U", True), ("w", "Paper W", True)],
                    [("u", "u"), ("v", "w")], [("w", "u")])
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return expected_scores(*args, **kwargs)

    monkeypatch.setattr(scenarios, "expected_scores", counting)
    assertions = (Assertion("pira", "v", "<", "u"), Assertion("pub", "u", "=", "v"),
                  Assertion("pira_paper", "w", "<", "u"), Assertion("pira", "u", ">", "v"))
    results = evaluate_assertions(g, assertions)
    assert len(calls) == 1
    assert all(r.passed for r in results)
    # the same values as each assertion evaluated on its own
    for r in results:
        (alone,) = evaluate_assertions(g, (r.assertion,))
        assert (alone.value_a, alone.value_b) == (r.value_a, r.value_b), r.assertion
    assert len(calls) == 4
    evaluate_assertions(g, (Assertion("pub", "u", "=", "v"), Assertion("pr_a", "u", "=", "v")))
    assert len(calls) == 4  # no PIRA measure, no solve


def test_evaluate_names_the_assertion_and_a_node_its_measure_does_not_score():
    g = generate(ScenarioSpec(ScenarioKind.PAPER_QUALITY)).graph
    for assertion, node in ((Assertion("pub", "a1", ">", "nope"), "nope"),
                            (Assertion("pira", "pa1", ">", "a2"), "pa1"),
                            (Assertion("pira_paper", "a1", "<", "pa1"), "a1")):
        with pytest.raises(ValueError, match=f"assertion '{assertion.measure} "
                                             f".*scores no node '{node}'"):
            evaluate_assertions(g, (assertion,))


def test_evaluate_rejects_unknown_relation():
    g = generate(ScenarioSpec(ScenarioKind.PAPER_QUALITY)).graph
    with pytest.raises(ValueError):
        evaluate_assertions(g, (Assertion("pub", "a1", ">=", "a2"),))
