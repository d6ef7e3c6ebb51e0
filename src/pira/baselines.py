"""Comparison measures: Pub, Cit, H-index, PR-P and PR-A.

PR-P runs PageRank on the paper citation graph and splits each paper's score
evenly among its co-authors.  PR-A runs PageRank on a derived author graph
whose edge weights are the exact one-citation-hop path probabilities of the
bipartite walk: leave the author through a p-weight-proportional paper pick,
follow one uniformly chosen reference, land on a uniformly chosen author of
the cited paper.

Every measure here is sparse algebra on the graph's stored incidence
matrices, ``CitationGraph.wrote`` and ``cite``: the counts are their degree
sums, PR-P's paper graph is ``cite`` itself, PR-A's author graph is the
sparse product of the walk's three one-hop matrices (``graph.hop_matrices``,
from which the walk's outcome table is built too), and PageRank runs on the
oracle's stationary solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np
import scipy.sparse as sp

from .graph import CitationGraph, hop_matrices, row_stochastic
from .oracle import DEFAULT_TOL, MAX_ITERATIONS, stationary_distribution

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
    (i, j) is the weight of the edge i -> j.  ``damping`` is the restart
    probability at each step (links are followed with probability
    1 - damping).  Transitions from a node are proportional to its outgoing
    edge weights; nodes without outgoing weight spread their mass
    uniformly.  The result sums to 1.
    """
    if not 0.0 < damping < 1.0:
        raise ValueError(f"damping must be in (0, 1), got {damping}")
    m = sp.csr_matrix(weights, dtype=float)
    n = m.shape[0]
    if n == 0 or m.shape[1] != n:
        raise ValueError(f"weights must be a non-empty square matrix, got shape {m.shape}")
    if (m.data < 0).any():
        raise ValueError("negative edge weight")
    dangling = np.asarray(m.sum(axis=1)).ravel() == 0
    teleport = (damping + (1.0 - damping) * dangling, np.full(n, 1.0 / n))
    return stationary_distribution(
        (1.0 - damping) * row_stochastic(m), (teleport,), tol=tol, max_iterations=max_iterations
    )


def paper_pagerank(graph: CitationGraph, damping: float = DEFAULT_DAMPING) -> np.ndarray:
    """PageRank over the paper citation graph (every cite edge weight 1)."""
    return pagerank(graph.cite, damping=damping)


def pr_p(graph: CitationGraph, damping: float = DEFAULT_DAMPING) -> np.ndarray:
    """Author scores from paper-graph PageRank, split evenly among co-authors."""
    to_author = row_stochastic(graph._wrote_t)  # hop_matrices' paper -> author hop
    return to_author.T @ paper_pagerank(graph, damping=damping)


@dataclass(frozen=True, eq=False)  # holds a matrix; compare by identity
class AuthorGraph:
    """Weighted directed author graph; self-loops record author self-citation."""

    matrix: sp.csr_matrix  # entry (a, b) is the weight of a -> b

    @property
    def n_authors(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def edges(self) -> Mapping[tuple[int, int], float]:
        """Read-only ``{(a, b): weight}`` view of the matrix's entries."""
        coo = self.matrix.tocoo()
        return MappingProxyType(
            {(int(a), int(b)): float(w) for a, b, w in zip(coo.row, coo.col, coo.data)}
        )


def build_author_graph(graph: CitationGraph) -> AuthorGraph:
    """One-citation-hop transition probabilities between authors.

    w(A -> B) sums, over A's papers p and p's references r, the probability
    of the path A -> p -> r -> B: normalized p-weight of p among A's papers,
    times 1/|refs(p)|, times 1/|authors(r)|, i.e. the product of the walk's
    three one-hop matrices.  Row sums stay at or below one; the gap is the
    probability of stalling at a paper without references or a cited paper
    without authors.
    """
    to_paper, to_ref, to_author = hop_matrices(graph)
    return AuthorGraph(sp.csr_matrix(to_paper @ to_ref @ to_author))


def pr_a(graph: CitationGraph, damping: float = DEFAULT_DAMPING) -> np.ndarray:
    """PageRank of each author on the derived author graph."""
    return pagerank(build_author_graph(graph).matrix, damping=damping)
