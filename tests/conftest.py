"""Shared graph fixtures and the acceptance-suite report hook."""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from pira import WalkParams, build_graph, pira_rank
from pira.graph import CitationGraph


def rows(m) -> tuple[tuple[int, ...], ...]:
    """The column indices of each row of a sparse matrix, in stored order,
    as tuples of ints."""
    m = m.tocsr()
    cols, bounds = m.indices.tolist(), m.indptr.tolist()
    return tuple(tuple(cols[a:b]) for a, b in zip(bounds, bounds[1:]))


def adjacency(graph: CitationGraph) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """(papers_of, authors_of, refs_of): each author's papers, each paper's
    authors and each paper's references, read from the matrix rows."""
    return rows(graph.wrote), rows(graph.wrote.T), rows(graph.cite)


def minimal_graph() -> CitationGraph:
    return build_graph(
        authors=[("a0", "Solo Author", True)],
        papers=[("p0", "Only Paper", True)],
        wrote=[("a0", "p0")],
    )


def pair_graph() -> CitationGraph:
    """Two mutually citing papers sharing one author."""
    return build_graph(
        authors=[("a0", "Shared Author", True)],
        papers=[("p0", "First Of Pair", True), ("p1", "Second Of Pair", True)],
        wrote=[("a0", "p0"), ("a0", "p1")],
        cites=[("p0", "p1"), ("p1", "p0")],
    )


def star_graph() -> CitationGraph:
    """A hub paper cited by six leaf papers, one author each."""
    authors = [("ha", "Hub Author", True)]
    papers = [("hub", "Hub Paper", True)]
    wrote = [("ha", "hub")]
    cites = []
    for i in range(6):
        a, p = f"la{i}", f"leaf{i}"
        authors.append((a, f"Leaf Author {i}", i % 2 == 0))
        papers.append((p, f"Leaf Paper {i}", True))
        wrote.append((a, p))
        cites.append((p, "hub"))
    return build_graph(authors, papers, wrote, cites)


def ring_graph() -> CitationGraph:
    """Five papers in a citation ring, each with its own author."""
    authors = [(f"a{i}", f"Ring Author {i}", True) for i in range(5)]
    papers = [(f"p{i}", f"Ring Paper {i}", True) for i in range(5)]
    wrote = [(f"a{i}", f"p{i}") for i in range(5)]
    cites = [(f"p{i}", f"p{(i + 1) % 5}") for i in range(5)]
    return build_graph(authors, papers, wrote, cites)


def mixed_graph() -> CitationGraph:
    """Co-authorship, a citation chain, an authorless paper and a paperless
    author, with mixed DBLP flags."""
    authors = [
        ("alice", "Alice Example", True),
        ("bob", "Bob Example", True),
        ("carol", "Carol Example", False),
        ("dave", "Dave Example", True),
        ("erin", "Erin Paperless", True),  # no publications
    ]
    papers = [
        ("m0", "Joint Work", True),
        ("m1", "Bob Solo", True),
        ("m2", "Carol Solo", False),
        ("m3", "Dave Solo", True),
        ("m4", "Orphan Paper", False),  # no authors
        ("m5", "Dave Again", True),
    ]
    wrote = [
        ("alice", "m0"),
        ("bob", "m0"),
        ("bob", "m1"),
        ("carol", "m2"),
        ("dave", "m3"),
        ("dave", "m5"),
    ]
    cites = [
        ("m1", "m0"),
        ("m2", "m1"),
        ("m3", "m2"),
        ("m3", "m0"),
        ("m0", "m4"),
        ("m5", "m3"),
        ("m5", "m0"),
    ]
    return build_graph(authors, papers, wrote, cites)


def communities_graph() -> CitationGraph:
    """Two citation communities joined by a single bridge citation."""
    authors, papers, wrote, cites = [], [], [], []
    # community one: ring of 8 co-authored papers
    for i in range(8):
        authors.append((f"one_a{i}", f"One Author {i}", True))
        papers.append((f"one_p{i}", f"One Paper {i}", True))
        wrote.append((f"one_a{i}", f"one_p{i}"))
        wrote.append((f"one_a{(i + 1) % 8}", f"one_p{i}"))
        cites.append((f"one_p{i}", f"one_p{(i + 1) % 8}"))
    # community two: star of 6 papers citing a local hub
    authors.append(("two_ha", "Two Hub Author", True))
    papers.append(("two_hub", "Two Hub Paper", True))
    wrote.append(("two_ha", "two_hub"))
    for i in range(6):
        authors.append((f"two_a{i}", f"Two Author {i}", False))
        papers.append((f"two_p{i}", f"Two Paper {i}", True))
        wrote.append((f"two_a{i}", f"two_p{i}"))
        cites.append((f"two_p{i}", "two_hub"))
    cites.append(("two_hub", "one_p0"))  # bridge
    return build_graph(authors, papers, wrote, cites)


# random small graphs: 1-6 authors, 1-6 papers, up to 12 wrote and 15 cite
# pairs, which may repeat or cite their own paper
small_graphs = st.integers(1, 6).flatmap(
    lambda n_a: st.integers(1, 6).flatmap(
        lambda n_p: st.tuples(
            st.just((n_a, n_p)),
            st.lists(st.tuples(st.integers(0, n_a - 1), st.integers(0, n_p - 1)), max_size=12),
            st.lists(st.tuples(st.integers(0, n_p - 1), st.integers(0, n_p - 1)), max_size=15),
        )
    )
)


def small_graph(draw) -> CitationGraph:
    """The graph of one ``small_graphs`` example."""
    (n_a, n_p), wrote, cites = draw
    return build_graph([(f"a{i}", "A", True) for i in range(n_a)],
                       [(f"p{i}", "P", True) for i in range(n_p)],
                       [(f"a{a}", f"p{p}") for a, p in wrote],
                       [(f"p{s}", f"p{d}") for s, d in cites])


FIXTURE_BUILDERS = {
    "minimal": minimal_graph,
    "pair": pair_graph,
    "star": star_graph,
    "ring": ring_graph,
    "mixed": mixed_graph,
    "communities": communities_graph,
}

ACCEPTANCE_STEPS = 10_000_000
ACCEPTANCE_SEED = 42


@pytest.fixture(scope="session")
def fixture_graphs() -> dict[str, CitationGraph]:
    return {name: build() for name, build in FIXTURE_BUILDERS.items()}


@pytest.fixture(scope="session")
def mc_scores(fixture_graphs):
    """Monte Carlo scores at the acceptance budget, computed once per fixture."""
    cache = {}

    def compute(name: str):
        if name not in cache:
            params = WalkParams(step_budget=ACCEPTANCE_STEPS, seed=ACCEPTANCE_SEED)
            cache[name] = pira_rank(fixture_graphs[name], params)
        return cache[name]

    return compute


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        outcome = "PASS" if report.passed else ("FAIL" if report.failed else "SKIP")
        print(f"\n[ACCEPTANCE] {name}: {outcome}")
