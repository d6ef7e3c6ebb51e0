import numpy as np
import pytest
from hypothesis import given, settings

import pira.baselines as baselines
from pira import build_graph
from pira.baselines import (
    build_author_graph,
    cit_count,
    h_index,
    pagerank,
    paper_citation_counts,
    paper_pagerank,
    pr_a,
    pr_p,
    pub_count,
)
from pira.errors import ConvergenceError
from pira.scenarios import Assertion, ScenarioKind, ScenarioSpec, evaluate_assertions, generate
from pira.walk import ScoreTable

from conftest import adjacency, rows, small_graph, small_graphs


def _graph_with_citations(author_papers, cite_pairs):
    """author_papers: author -> list of papers; cite_pairs: (citing, cited)."""
    authors = [(a, a.title(), True) for a in author_papers]
    paper_ids = sorted({p for ps in author_papers.values() for p in ps}
                       | {p for pair in cite_pairs for p in pair})
    papers = [(p, p.title(), True) for p in paper_ids]
    wrote = [(a, p) for a, ps in author_papers.items() for p in ps]
    return build_graph(authors, papers, wrote, cite_pairs)


# --- pub / cit / h-index ----------------------------------------------------

def test_pub_count():
    g = _graph_with_citations({"idle": [], "busy": [f"w{i}" for i in range(21)]}, [])
    pubs = dict(zip(g.author_ext_ids, pub_count(g)))
    assert pubs["idle"] == 0
    assert pubs["busy"] == 21


def test_pub_count_after_dedup():
    g = build_graph(
        authors=[("a0", "A", True)],
        papers=[("p0", "P", True)],
        wrote=[("a0", "p0"), ("a0", "p0")],
    )
    assert pub_count(g).tolist() == [1.0]


def test_cit_count_single_heavily_cited_paper():
    citers = [f"c{i}" for i in range(313)]
    g = _graph_with_citations({"star": ["hit"]}, [(c, "hit") for c in citers])
    assert cit_count(g)[g.author_index["star"]] == 313


def test_cit_count_shared_fully_by_coauthors():
    coauthors = {f"co{i}": ["joint"] for i in range(8)}
    citers = [(f"c{i}", "joint") for i in range(570)]
    g = _graph_with_citations(coauthors, citers)
    counts = cit_count(g)
    for i in range(8):
        assert counts[g.author_index[f"co{i}"]] == 570


def test_cit_count_no_citations():
    g = _graph_with_citations({"a": ["p1"], "b": ["p2"]}, [])
    assert cit_count(g).tolist() == [0.0, 0.0]


def _brute_force_h(counts):
    return max(
        (h for h in range(len(counts) + 1)
         if sum(c >= h for c in counts) >= h),
        default=0,
    )


@pytest.mark.parametrize(
    "counts,expected",
    [([], 0), ([10], 1), ([5, 4, 2, 1], 2), ([1, 1, 1], 1), ([3, 3, 3], 3)],
)
def test_h_index(counts, expected):
    assert _brute_force_h(counts) == expected  # oracle agrees with the frozen value
    papers = [f"p{i}" for i in range(len(counts))]
    cites = [
        (f"c{i}_{j}", f"p{i}") for i, c in enumerate(counts) for j in range(c)
    ]
    g = _graph_with_citations({"author": papers}, cites)
    assert h_index(g)[g.author_index["author"]] == expected


def test_h_index_bounds():
    g = _graph_with_citations(
        {"a": ["p1", "p2", "p3"]},
        [("x1", "p1"), ("x2", "p1"), ("x3", "p2")],
    )
    h = h_index(g)[g.author_index["a"]]
    assert h <= pub_count(g)[g.author_index["a"]]
    assert h <= paper_citation_counts(g).max()


# --- pagerank ---------------------------------------------------------------

def _weights(n, edges):
    """Dense weight matrix of a (src, dst, w) edge list."""
    m = np.zeros((n, n))
    for s, d, w in edges:
        m[s, d] += w
    return m


def _solve_pagerank_directly(n, edges, damping):
    """Independent route: solve the linear system instead of iterating."""
    m = np.zeros((n, n))
    out = np.zeros(n)
    for s, d, w in edges:
        m[s, d] += w
        out[s] += w
    for s in range(n):
        if out[s] > 0:
            m[s] /= out[s]
        else:
            m[s] = 1.0 / n
    a = np.eye(n) - (1 - damping) * m.T
    return np.linalg.solve(a, np.full(n, damping / n))


def test_pagerank_three_ring_uniform():
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]
    assert pagerank(_weights(3, edges)) == pytest.approx([1 / 3] * 3, abs=1e-9)


def test_pagerank_two_cycle_uniform():
    assert pagerank(_weights(2, [(0, 1, 1.0), (1, 0, 1.0)])) == pytest.approx([0.5, 0.5], abs=1e-9)


def test_pagerank_star_matches_linear_solve():
    edges = [(1, 0, 1.0), (2, 0, 1.0), (3, 0, 1.0)]
    pi = pagerank(_weights(4, edges), damping=0.15)
    direct = _solve_pagerank_directly(4, edges, 0.15)
    assert pi == pytest.approx(direct, abs=1e-9)
    assert pi[0] > max(pi[1:])
    assert pi.sum() == pytest.approx(1.0, abs=1e-9)


def test_pagerank_validation_and_convergence_cap():
    with pytest.raises(ValueError):
        pagerank(_weights(3, []), damping=0.0)
    with pytest.raises(ValueError):
        pagerank(_weights(0, []))
    with pytest.raises(ValueError):
        pagerank(_weights(2, [(0, 1, -1.0)]))
    with pytest.raises(ConvergenceError):
        pagerank(_weights(3, [(0, 1, 1.0), (1, 0, 1.0)]), tol=1e-15, max_iterations=3)
    for tol in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tol"):
            pagerank(_weights(2, [(0, 1, 1.0)]), tol=tol)


def test_pagerank_weighted_edges_respected():
    # node 0 sends 3/4 of its mass to 1 and 1/4 to 2
    edges = [(0, 1, 3.0), (0, 2, 1.0), (1, 0, 1.0), (2, 0, 1.0)]
    pi = pagerank(_weights(4, edges))  # node 3 is isolated (dangling)
    direct = _solve_pagerank_directly(4, edges, 0.15)
    assert pi == pytest.approx(direct, abs=1e-9)
    assert pi[1] > pi[2]


# --- pr_p --------------------------------------------------------------------

def test_pr_p_even_split_among_coauthors():
    coauthors = {f"co{i}": ["joint"] for i in range(4)}
    g = _graph_with_citations(coauthors, [("citer", "joint")])
    paper_scores = paper_pagerank(g)
    author_scores = pr_p(g)
    joint = g.paper_index["joint"]
    for i in range(4):
        assert author_scores[g.author_index[f"co{i}"]] == pytest.approx(
            paper_scores[joint] / 4
        )


def test_pr_p_single_author_single_paper():
    g = _graph_with_citations({"solo": ["only"]}, [])
    assert pr_p(g)[g.author_index["solo"]] == pytest.approx(paper_pagerank(g)[0])


def test_pr_p_mass_conservation():
    g = _graph_with_citations(
        {"a": ["p1", "p2"], "b": ["p2"]}, [("x", "p1"), ("p1", "p2")]
    )
    paper_scores = paper_pagerank(g)
    authors_of = rows(g.wrote.T)
    authored_mass = sum(
        paper_scores[p] for p in range(g.n_papers) if authors_of[p]
    )
    assert pr_p(g).sum() == pytest.approx(authored_mass, abs=1e-12)


def test_pr_p_citation_loop_dominates_paper_ranking():
    scenario = generate(ScenarioSpec(ScenarioKind.CITATION_LOOP), padding=10)
    g = scenario.graph
    scores = paper_pagerank(g)
    x, y = g.paper_index["x"], g.paper_index["y"]
    others = [i for i in range(g.n_papers) if i not in (x, y)]
    assert min(scores[x], scores[y]) > max(scores[i] for i in others)


# --- author graph / pr_a ------------------------------------------------------

def test_author_graph_single_path():
    g = _graph_with_citations({"a": ["p"], "b": ["q"]}, [("p", "q")])
    m = build_author_graph(g)
    a, b = g.author_index["a"], g.author_index["b"]
    assert m.nnz == 1
    assert m[a, b] == pytest.approx(1.0)


def test_author_graph_split_across_cited_coauthors():
    g = _graph_with_citations(
        {"a": ["p"], "b": ["q"], "c": ["q"]}, [("p", "q")]
    )
    m = build_author_graph(g)
    a = g.author_index["a"]
    assert m.nnz == 2
    assert m[a, g.author_index["b"]] == pytest.approx(0.5)
    assert m[a, g.author_index["c"]] == pytest.approx(0.5)


def test_author_graph_empty_without_citations():
    g = _graph_with_citations({"a": ["p"], "b": ["q"]}, [])
    assert build_author_graph(g).nnz == 0


def test_author_graph_row_sums_at_most_one():
    scenario = generate(ScenarioSpec(ScenarioKind.SELF_CITATION), padding=5)
    g = scenario.graph
    sums = np.asarray(build_author_graph(g).sum(axis=1)).ravel()
    assert np.all(sums <= 1.0 + 1e-12)
    # equality exactly when every paper of the author has a reference and
    # every cited paper has an author
    papers_of, authors_of, refs_of = adjacency(g)
    for a in range(g.n_authors):
        papers = papers_of[a]
        if papers and all(
            refs_of[p] and all(authors_of[r] for r in refs_of[p])
            for p in papers
        ):
            assert sums[a] == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_graphs)
def test_author_graph_is_substochastic_and_pr_a_a_distribution(draw):
    g = small_graph(draw)
    m = build_author_graph(g)
    assert m.shape == (g.n_authors, g.n_authors)
    assert (m.data >= 0).all()
    assert np.asarray(m.sum(axis=1)).max() <= 1.0 + 1e-12
    scores = pr_a(g)
    assert scores.shape == (g.n_authors,)
    assert (scores >= 0).all()
    assert scores.sum() == pytest.approx(1.0, abs=1e-12)


def test_pr_a_symmetric_mutual_citation():
    g = _graph_with_citations({"a": ["p"], "b": ["q"]}, [("p", "q"), ("q", "p")])
    scores = pr_a(g)
    assert scores[g.author_index["a"]] == pytest.approx(scores[g.author_index["b"]])


def test_pr_a_blind_to_citer_quality():
    # both designated authors get one citation; the citers' own citation
    # counts (16 vs 1, carried by authorless papers) cancel out exactly
    scenario = generate(ScenarioSpec(ScenarioKind.CITING_QUALITY), padding=5)
    g = scenario.graph
    scores = pr_a(g)
    b1, b2 = g.author_index["b1"], g.author_index["b2"]
    assert scores[b1] == pytest.approx(scores[b2], rel=1e-9)


def test_pr_a_down_weights_pure_self_citation():
    scenario = generate(ScenarioSpec(ScenarioKind.SELF_CITATION), padding=5)
    g = scenario.graph
    cit = cit_count(g)
    pra = pr_a(g)
    a1, a2 = g.author_index["a1"], g.author_index["a2"]
    assert cit[a1] > cit[a2]       # raw citations prefer the self-citer
    assert pra[a2] > pra[a1]       # the author graph walk does not


# --- factored PageRank ---------------------------------------------------------

def _assert_pr_a_matches_formed_author_graph(g):
    formed = pagerank(build_author_graph(g))
    assert pr_a(g) == pytest.approx(formed, rel=1e-12, abs=0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_graphs)
def test_pr_a_matches_formed_author_graph(draw):
    _assert_pr_a_matches_formed_author_graph(small_graph(draw))


@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_pr_a_matches_formed_author_graph_on_scenarios(kind):
    for padding in (0, 40):
        _assert_pr_a_matches_formed_author_graph(generate(ScenarioSpec(kind), padding).graph)


def test_pr_a_never_forms_the_author_graph(monkeypatch):
    def refuse(graph):
        raise AssertionError("pr_a formed the author graph")

    monkeypatch.setattr(baselines, "build_author_graph", refuse)
    g = generate(ScenarioSpec(ScenarioKind.SELF_CITATION), padding=5).graph
    assert pr_a(g).sum() == pytest.approx(1.0, abs=1e-12)


def test_pagerank_of_factors_equals_pagerank_of_their_product():
    # "idle" wrote only "r", which cites nothing: its row of the first
    # factor is non-empty, but its row of the product is empty (dangling)
    g = _graph_with_citations(
        {"a": ["p"], "b": ["q", "r"], "c": ["q"], "idle": ["r"]},
        [("p", "q"), ("q", "p"), ("q", "r")],
    )
    hops = (g.to_paper, g.to_ref, g.to_author)
    to_paper = hops[0].toarray()
    idle = g.author_index["idle"]
    assert to_paper[idle].sum() == 1.0
    product = (hops[0] @ hops[1] @ hops[2]).toarray()
    assert product[idle].sum() == 0.0
    for damping in (0.15, 0.6):
        assert pagerank(hops, damping) == pytest.approx(
            pagerank(product, damping), rel=1e-12, abs=0)
    # dense factors, in a list, give the same scores
    assert pagerank([h.toarray() for h in hops]) == pytest.approx(
        pagerank(product), rel=1e-12, abs=0)


def test_pr_p_of_a_graph_without_papers_is_zero():
    # used to fail in the solver: "weights must be a non-empty square matrix"
    g = build_graph(authors=[("a0", "A", True), ("a1", "B", True)], papers=[])
    assert pr_p(g).tolist() == [0.0, 0.0]
    with pytest.raises(ValueError, match="damping"):
        pr_p(g, damping=1.0)


def test_pr_a_of_a_graph_without_authors_is_empty():
    g = build_graph(authors=[], papers=[("p0", "P", True), ("p1", "Q", True)],
                    cites=[("p0", "p1")])
    assert pr_a(g).shape == (0,)
    with pytest.raises(ValueError, match="damping"):
        pr_a(g, damping=0.0)


def test_pagerank_rejects_bad_factors_at_once():
    ok = np.ones((2, 3))
    for factors in ([ok, np.ones((2, 2))],            # 3 columns, then 2 rows
                    [ok, np.ones((3, 4))],            # product 2 x 4
                    (np.ones((0, 3)), np.ones((3, 0)))):  # product 0 x 0
        with pytest.raises(ValueError):
            pagerank(factors)
    with pytest.raises(ValueError, match="negative"):
        pagerank([ok, -np.ones((3, 2))])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_pagerank_rejects_non_finite_weights_at_once(bad):
    # a NaN weight used to run every iteration before failing to converge
    with pytest.raises(ValueError, match="finite"):
        pagerank([[0, 1], [bad, 0]])
    with pytest.raises(ValueError, match="finite"):
        pagerank([np.array([[1.0, bad]]), np.ones((2, 1))])


# the function behind each name of the measure table
TABLE_FUNCTIONS = {"pub": pub_count, "cit": cit_count, "hindex": h_index, "pr_p": pr_p,
                   "pr_a": pr_a, "pr_p_paper": paper_pagerank, "cit_paper": paper_citation_counts}


def test_every_measure_of_the_table_is_its_function_and_an_assertion_measure():
    assert baselines.MEASURES.keys() == TABLE_FUNCTIONS.keys()
    g = generate(ScenarioSpec(ScenarioKind.SELF_CITATION), padding=3).graph
    for name, function in TABLE_FUNCTIONS.items():
        papers = name.endswith("_paper")
        over, index = ((ScoreTable.over_papers, g.paper_index) if papers
                       else (ScoreTable.over_authors, g.author_index))
        expected = over(g, function(g))
        table = baselines.measure(g, name)
        for column in ("kinds", "raw", "normalized"):
            assert getattr(table, column).tobytes() == getattr(expected, column).tobytes(), name
        assert table.ext_ids == expected.ext_ids, name
        a, b = ("q", "s01") if papers else ("a1", "a2")
        (result,) = evaluate_assertions(g, (Assertion(name, a, "=", b),))
        assert (result.value_a, result.value_b) == (
            expected.normalized[index[a]], expected.normalized[index[b]]), name
    with pytest.raises(ValueError, match="unknown measure 'nope'"):
        baselines.measure(g, "nope")


def test_the_table_runs_each_function_through_the_module_namespace(monkeypatch):
    # a wrapper set on the module, as a traced benchmark run sets one, sees the call
    g = generate(ScenarioSpec(ScenarioKind.SELF_CITATION)).graph
    calls = []
    monkeypatch.setattr(baselines, "pr_a", lambda graph, damping: calls.append(damping) or
                        np.ones(graph.n_authors))
    assert baselines.measure(g, "pr_a", damping=0.3).normalized.tolist() == [1.0] * g.n_authors
    assert calls == [0.3]
