"""Shared graph fixtures and the acceptance-suite report hook."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from pira import EdgeColumns, NodeKind, ScoreTable, WalkParams, build_graph, pira_rank
from pira.graph import CitationGraph
from pira.walk import CITE, FAKE, ISWB, RESTART, TO_FAKE, TO_RESTART, WROTE, _outcome_rows


def rows(m) -> tuple[tuple[int, ...], ...]:
    """The column indices of each row of a sparse matrix, in stored order,
    as tuples of ints."""
    m = m.tocsr()
    cols, bounds = m.indices.tolist(), m.indptr.tolist()
    return tuple(tuple(cols[a:b]) for a, b in zip(bounds, bounds[1:]))


def dense_chain(ts) -> np.ndarray:
    """The transition matrix of a ``walk.TransitionSystem``, materialized:
    its link matrix plus the rank-one jumps.  For small systems."""
    m = ts.link.toarray()
    for mass, dist in ts.jumps:
        m += np.outer(mass, dist)
    return m


def outcome_entries(ts) -> list[tuple[int, int, int, float]]:
    """(row, target, class, probability) of each outcome of the sampler's
    rows of a ``walk.TransitionSystem`` (``walk._outcome_rows``), the entry
    row last, one at a time.

    The class is read off the row and the target as the ``walk`` module
    docstring states it, with no code of the package: a sentinel target is
    its jump's class, an author row's move is wrote, and any other row's
    move is isWrittenBy into an author and cite otherwise."""
    indptr, targets, probs = _outcome_rows(ts)
    out = []
    for row in range(len(indptr) - 1):
        for i in range(indptr[row], indptr[row + 1]):
            target = int(targets[i])
            if target < 0:
                cls = RESTART if target == TO_RESTART else FAKE
            elif row < ts.n_authors:
                cls = WROTE
            else:
                cls = ISWB if target < ts.n_authors else CITE
            out.append((row, target, cls, float(probs[i])))
    return out


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


# --- per-line reference writers ---------------------------------------------
# Each builds its text one line, and one id lookup, at a time, ordering rows
# with Python's sorted() on the ids; the library's writers must match them.

def reference_edge_columns(graph: CitationGraph, author_col, paper_col):
    """Each edge matrix's (source, target) pairs sorted by (source id,
    target id), every endpoint looked up in its column one at a time."""
    out = []
    for m, source_ids, source_col in ((graph.wrote, graph.author_ext_ids, author_col),
                                      (graph.cite, graph.paper_ext_ids, paper_col)):
        coo = m.tocoo()
        pairs = sorted(zip(coo.row.tolist(), coo.col.tolist()),
                       key=lambda e: (source_ids[e[0]], graph.paper_ext_ids[e[1]]))
        out.append(EdgeColumns([source_col[s] for s, _ in pairs],
                               [paper_col[d] for _, d in pairs]))
    return tuple(out)


def reference_files(graph: CitationGraph) -> dict[str, str]:
    """The four dataset files, one f-string per line."""
    files = {}
    for name, ids, labels, flags in (
        ("authors.tsv", graph.author_ext_ids, graph.author_names, graph.author_in_dblp),
        ("papers.tsv", graph.paper_ext_ids, graph.paper_titles, graph.paper_in_dblp),
    ):
        order = sorted(range(len(ids)), key=ids.__getitem__)
        files[name] = "".join(f"{ids[i]}\t{labels[i]}\t{int(flags[i])}\n" for i in order)
    wrote, cites = reference_edge_columns(graph, graph.author_ext_ids, graph.paper_ext_ids)
    files["wrote.tsv"] = "".join(f"{a}\t{p}\n" for a, p in zip(*wrote))
    files["cites.tsv"] = "".join(f"{s}\t{d}\n" for s, d in zip(*cites))
    return files


def reference_idmap(graph: CitationGraph) -> str:
    lines = [f"author\t{e}\t{i}\n" for i, e in enumerate(graph.author_ext_ids)]
    lines += [f"paper\t{e}\t{i}\n" for i, e in enumerate(graph.paper_ext_ids)]
    return "".join(lines)


def _esc(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def reference_dot(graph: CitationGraph, scores: ScoreTable | None) -> str:
    """The DOT text, one f-string and one score lookup per node and edge."""
    score_by_key = {}
    if scores is not None:
        score_by_key = dict(zip(zip(scores.kinds.tolist(), scores.ext_ids),
                                scores.normalized.tolist()))
    lines = ["digraph citations {"]
    for kind, prefix, shape, ids, labels in (
        (NodeKind.AUTHOR, "a", "ellipse", graph.author_ext_ids, graph.author_names),
        (NodeKind.PAPER, "p", "box", graph.paper_ext_ids, graph.paper_titles),
    ):
        for i in sorted(range(len(ids)), key=ids.__getitem__):
            label = f"{_esc(ids[i])}\\n{_esc(labels[i])}"
            if (kind, ids[i]) in score_by_key:
                label += f"\\n{score_by_key[kind, ids[i]]:.6f}"
            lines.append(f'  "{prefix}:{_esc(ids[i])}" [shape={shape}, label="{label}"];')
    wrote, cites = reference_edge_columns(graph, graph.author_ext_ids, graph.paper_ext_ids)
    lines += [f'  "a:{_esc(a)}" -> "p:{_esc(p)}" [dir=none];' for a, p in zip(*wrote)]
    lines += [f'  "p:{_esc(s)}" -> "p:{_esc(d)}";' for s, d in zip(*cites)]
    lines.append("}")
    return "\n".join(lines) + "\n"


FIXTURE_BUILDERS = {
    "minimal": minimal_graph,
    "pair": pair_graph,
    "star": star_graph,
    "ring": ring_graph,
    "mixed": mixed_graph,
    "communities": communities_graph,
}


def edge_case_graphs() -> list[CitationGraph]:
    """Graphs whose chains stack zero-size or one-entry blocks: authors
    only and papers only (``small_graphs`` never draws either), both kinds
    without edges, and one author-paper pair."""
    return [
        build_graph([("a0", "A"), ("a1", "B")], []),
        build_graph([], [("p0", "P"), ("p1", "Q")], (), [("p0", "p1")]),
        build_graph([("a0", "A")], [("p0", "P"), ("p1", "Q")]),
        build_graph([("a0", "A")], [("p0", "P")], [("a0", "p0")]),
    ]


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
