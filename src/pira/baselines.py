"""Comparison measures: Pub, Cit, H-index, PR-P and PR-A.

``MEASURES`` is the one table of these baselines by name, the names of
assertion files: a name that ends in ``_paper`` scores papers, any other
name scores authors.  ``measure`` looks a name up and returns its scores
as a ``ScoreTable``; ``pira rank`` and the scenario checker reach every
baseline through it.

PR-P runs PageRank on the paper citation graph and splits each paper's score
evenly among its co-authors.  PR-A runs PageRank on an author graph whose
edge weights are the exact one-citation-hop path probabilities of the
bipartite walk: leave the author through a p-weight-proportional paper pick,
follow one uniformly chosen reference, land on a uniformly chosen author of
the cited paper.

Every measure here is sparse algebra on the graph's stored incidence
matrices, ``CitationGraph.wrote`` and ``cite``: the counts are their degree
sums, PR-P's paper graph is ``cite`` itself, and PR-A's author graph is the
product of the walk's three cached one-hop matrices (``graph.to_paper``,
``to_ref`` and ``to_author``, from which the walk's transition system is
built too).  PageRank runs on the
oracle's stationary solver, which takes that product as its three factors,
so PR-A never forms the author graph; ``build_author_graph`` returns it as
an explicit CSR matrix.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .graph import CitationGraph
from .oracle import DEFAULT_TOL, MAX_ITERATIONS, link_factors, stationary_distribution
from .walk import ScoreTable

DEFAULT_DAMPING = 0.15


def pub_count(graph: CitationGraph) -> np.ndarray:
    """Publications per author."""
    return np.diff(graph.wrote.indptr).astype(float)


def paper_citation_counts(graph: CitationGraph) -> np.ndarray:
    """Incoming citations per paper."""
    return np.bincount(graph.cite.indices, minlength=graph.n_papers).astype(float)


def cit_count(graph: CitationGraph) -> np.ndarray:
    """Citations per author; a citation to a co-authored paper counts fully
    for every co-author."""
    return graph.wrote @ paper_citation_counts(graph)


def h_index(graph: CitationGraph) -> np.ndarray:
    """Largest h such that the author has >= h papers with >= h citations each."""
    wrote = graph.wrote
    rows = np.repeat(np.arange(graph.n_authors), np.diff(wrote.indptr))
    cited = paper_citation_counts(graph)[wrote.indices]
    # each author's papers by descending citations; rank 1, 2, ... within the row
    cited = cited[np.lexsort((-cited, rows))]
    rank = np.arange(1, len(rows) + 1) - wrote.indptr[rows]
    # the papers with at least their rank's citations form a prefix of each row
    return np.bincount(rows[cited >= rank], minlength=graph.n_authors).astype(float)


def pagerank(
    weights,
    damping: float = DEFAULT_DAMPING,
    tol: float = DEFAULT_TOL,
    max_iterations: int = MAX_ITERATIONS,
) -> np.ndarray:
    """PageRank with uniform teleport over a weighted directed graph.

    ``weights`` is a square non-negative matrix, sparse or dense: entry
    (i, j) is the weight of the edge i -> j.  It may also be a list or
    tuple of non-negative matrices whose product is that matrix
    (``oracle.link_factors``); the product is never formed.  ``damping`` is
    the restart probability at each step (links are followed with
    probability 1 - damping).  Transitions from a node are proportional to
    its outgoing edge weights; nodes without outgoing weight spread their
    mass uniformly.  The result sums to 1.  ``link_factors`` checks the
    weights: an empty product, or a negative, NaN or infinite weight,
    raises ValueError.
    """
    if not 0.0 < damping < 1.0:
        raise ValueError(f"damping must be in (0, 1), got {damping}")
    factors = link_factors(weights, "weights")
    # each row's total weight, from one mat-vec per factor
    sums = np.ones(factors[-1].shape[1])
    for f in reversed(factors):
        sums = f @ sums
    n = len(sums)
    dangling = sums == 0
    # the damping and the row scale, folded into one copy of the first factor
    scale = (1.0 - damping) * np.divide(1.0, sums, out=np.zeros(n), where=~dangling)
    first = factors[0]
    first = sp.csr_matrix((first.data * np.repeat(scale, np.diff(first.indptr)),
                           first.indices, first.indptr), shape=first.shape)
    teleport = (damping + (1.0 - damping) * dangling, np.full(n, 1.0 / n))
    return stationary_distribution(
        [first, *factors[1:]], (teleport,), tol=tol, max_iterations=max_iterations
    )


def paper_pagerank(graph: CitationGraph, damping: float = DEFAULT_DAMPING) -> np.ndarray:
    """PageRank over the paper citation graph (every cite edge weight 1)."""
    return pagerank(graph.cite, damping=damping)


def pr_p(graph: CitationGraph, damping: float = DEFAULT_DAMPING) -> np.ndarray:
    """Author scores from paper-graph PageRank, split evenly among co-authors;
    every author scores 0 in a graph without papers."""
    if graph.n_papers == 0 and 0.0 < damping < 1.0:  # a bad damping fails in pagerank
        return np.zeros(graph.n_authors)
    return graph.to_author.T @ paper_pagerank(graph, damping=damping)


def build_author_graph(graph: CitationGraph) -> sp.csr_matrix:
    """One-citation-hop transition probabilities between authors, as an
    explicit matrix: entry (A, B) is the weight w(A -> B), and a diagonal
    entry records an author's self-citation.

    w(A -> B) sums, over A's papers p and p's references r, the probability
    of the path A -> p -> r -> B: normalized p-weight of p among A's papers,
    times 1/|refs(p)|, times 1/|authors(r)|, i.e. the product of the walk's
    three one-hop matrices.  Row sums stay at or below one; the gap is the
    probability of stalling at a paper without references or a cited paper
    without authors.  ``pr_a`` runs on the same product without forming it.
    """
    return sp.csr_matrix(graph.to_paper @ graph.to_ref @ graph.to_author)


def pr_a(graph: CitationGraph, damping: float = DEFAULT_DAMPING) -> np.ndarray:
    """PageRank of each author on the author graph of ``build_author_graph``,
    iterated through its three hop-matrix factors; empty without authors."""
    if graph.n_authors == 0 and 0.0 < damping < 1.0:  # a bad damping fails in pagerank
        return np.zeros(0)
    return pagerank((graph.to_paper, graph.to_ref, graph.to_author), damping=damping)


# each baseline's raw scores by measure name, one entry a lambda of
# (graph, damping).  An entry looks its function up in this module's
# namespace when it runs, so a wrapper that replaces a module attribute
# (bench/workloads.py::instrument sets a traced span on pr_a, pr_p, the
# counts, ... with setattr) still sees the call; a table of the function
# objects themselves would bypass it.
MEASURES = {
    "pub": lambda graph, damping: pub_count(graph),
    "cit": lambda graph, damping: cit_count(graph),
    "hindex": lambda graph, damping: h_index(graph),
    "pr_p": lambda graph, damping: pr_p(graph, damping=damping),
    "pr_a": lambda graph, damping: pr_a(graph, damping=damping),
    "pr_p_paper": lambda graph, damping: paper_pagerank(graph, damping=damping),
    "cit_paper": lambda graph, damping: paper_citation_counts(graph),
}


def measure(graph: CitationGraph, name: str, damping: float = DEFAULT_DAMPING) -> ScoreTable:
    """The scores of the baseline ``MEASURES[name]`` over the papers when
    `name` ends in ``_paper``, else over the authors.  ``damping`` is the
    restart probability of the PageRank measures; the counts ignore it.  A
    name not in the table raises ValueError.
    """
    if name not in MEASURES:
        raise ValueError(f"unknown measure {name!r}")
    over = ScoreTable.over_papers if name.endswith("_paper") else ScoreTable.over_authors
    return over(graph, MEASURES[name](graph, damping))
