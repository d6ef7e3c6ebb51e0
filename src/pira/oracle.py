"""Exact stationary-distribution oracle for the walk on small graphs.

Builds the Markov chain over nodes implied by a parameter set (interpreted
mode only: the literal mode's double increment depends on the incoming
branch, so its per-arrival accounting is not a function of the node alone),
solves for the stationary arrival distribution by power iteration, and
reweights per-transition inflows by c-weight class to obtain the expected
per-arrival scores, i.e. the limit of the Monte Carlo scorer as the step
budget grows.

The transition matrix is held as three sparse class matrices (wrote, cite,
isWrittenBy) plus two rank-1 restart components: reinitialization mass times
the restart distribution, and fake-citation mass times the uniform paper
distribution.  Rows sum to one exactly.  The class matrices are scaled copies
of the graph's stored incidence matrices (``CitationGraph.wrote`` and
``cite``, the graph's one adjacency), so no dense matrix is built.

``stationary_distribution`` is the package's one power-iteration solver:
the PageRank baselines run through it too, with teleport and dangling mass
as a rank-1 jump.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .errors import ConvergenceError
from .graph import CitationGraph
from .walk import ScoreTable, WalkMode, WalkParams, restart_author_share

DEFAULT_ORACLE_LIMIT = 10_000
DEFAULT_TOL = 1e-12
MAX_ITERATIONS = 10**6


@dataclass(frozen=True, eq=False)  # holds arrays; compare by identity
class TransitionSystem:
    """Row-stochastic transition structure of the walk, by c-weight class.

    States are authors [0, A) followed by papers [A, A+P).  For each row the
    class matrices plus ``init_mass * restart_dist + fake_mass * paper_dist``
    sum to one.
    """

    n_authors: int
    n_papers: int
    wrote_m: sp.csr_matrix    # author rows -> paper columns
    cite_m: sp.csr_matrix     # paper rows -> paper columns
    iswb_m: sp.csr_matrix     # paper rows -> author columns
    init_mass: np.ndarray     # per-row mass sent through the restart distribution
    fake_mass: np.ndarray     # per-row mass sent to a uniformly random paper
    restart_dist: np.ndarray  # distribution over all nodes
    paper_dist: np.ndarray    # uniform distribution over paper states

    @property
    def n(self) -> int:
        return self.n_authors + self.n_papers

    @property
    def link(self) -> sp.csr_matrix:
        """Sum of the three class matrices."""
        return self.wrote_m + self.cite_m + self.iswb_m

    @property
    def jumps(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Rank-one terms (per-row mass, landing distribution) of the chain."""
        return ((self.init_mass, self.restart_dist), (self.fake_mass, self.paper_dist))

    def step(self, pi: np.ndarray) -> np.ndarray:
        """One application of the chain: returns pi @ M."""
        return _apply(pi, self.link.T, self.jumps)

    def row_sums(self) -> np.ndarray:
        return np.asarray(self.link.sum(axis=1)).ravel() + self.init_mass + self.fake_mass

    def to_dense(self) -> np.ndarray:
        """Materialized transition matrix; intended for small test systems."""
        m = self.link.toarray()
        for mass, dist in self.jumps:
            m += np.outer(mass, dist)
        return m


def _restart_distribution(graph: CitationGraph, params: WalkParams) -> np.ndarray:
    n_a, n_p = graph.n_authors, graph.n_papers
    p_author = restart_author_share(graph, params)
    dist = np.zeros(n_a + n_p)
    if n_a:
        dist[:n_a] = p_author / n_a
    if n_p:
        dist[n_a:] = (1.0 - p_author) / n_p
    return dist


def row_stochastic(weights) -> sp.csr_matrix:
    """Scale each row of a non-negative sparse matrix to sum to one.

    Rows without weight stay empty.
    """
    sums = np.asarray(weights.sum(axis=1)).ravel()
    scale = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums > 0)
    return sp.csr_matrix(sp.diags(scale) @ weights)


def hop_matrices(graph: CitationGraph) -> tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix]:
    """Row-stochastic one-hop matrices of the walk's three link classes.

    Returns (author -> paper, proportional to p-weight; paper -> cited
    paper, uniform; paper -> author, uniform).  A node without a link of the
    class has an empty row.
    """
    coauthors = np.asarray(graph.wrote.sum(axis=0)).ravel()
    p_weight = np.divide(1.0, coauthors, out=np.zeros_like(coauthors), where=coauthors > 0)
    return (
        row_stochastic(graph.wrote @ sp.diags(p_weight)),
        row_stochastic(graph.cite),
        row_stochastic(graph.wrote.T),
    )


def _embed(block, row0: int, col0: int, n: int) -> sp.csr_matrix:
    """`block` placed at (row0, col0) of an n x n zero matrix."""
    coo = sp.coo_matrix(block)
    return sp.csr_matrix((coo.data, (coo.row + row0, coo.col + col0)), shape=(n, n))


def build_transition_system(
    graph: CitationGraph,
    params: WalkParams,
    max_nodes: int = DEFAULT_ORACLE_LIMIT,
) -> TransitionSystem:
    """Exact per-node transition probabilities of the interpreted walk."""
    params.validate()
    if params.mode != WalkMode.INTERPRETED:
        raise ValueError("the oracle supports interpreted mode only")
    if graph.n_nodes == 0:
        raise ValueError("cannot build a transition system for an empty graph")
    if graph.n_nodes > max_nodes:
        raise ValueError(
            f"graph has {graph.n_nodes} nodes, above the oracle limit of {max_nodes}"
        )

    n_a, n_p = graph.n_authors, graph.n_papers
    n = n_a + n_p
    keep = 1.0 - params.damping_df
    theta = params.theta
    to_paper, _, to_author = hop_matrices(graph)

    # a citation pick is uniform over max(|refs|, K) slots; the slots beyond
    # the real references are fake picks
    n_refs = np.diff(graph.cite.indptr)
    slots = np.maximum(n_refs, params.min_citation_count)
    per_slot = np.divide(keep * theta, slots, out=np.zeros(n_p), where=n_refs > 0)
    has_papers = np.diff(graph.wrote.indptr) > 0
    has_authors = np.diff(to_author.indptr) > 0

    # the mass of a move the node cannot make reinitializes the walk
    init_mass = np.full(n, params.damping_df)
    init_mass[:n_a] += keep * ~has_papers
    init_mass[n_a:] += keep * theta * (n_refs == 0) + keep * (1.0 - theta) * ~has_authors
    fake_mass = np.zeros(n)
    fake_mass[n_a:] = per_slot * (slots - n_refs)

    return TransitionSystem(
        n_authors=n_a,
        n_papers=n_p,
        wrote_m=_embed(keep * to_paper, 0, n_a, n),
        cite_m=_embed(sp.diags(per_slot) @ graph.cite, n_a, n_a, n),
        iswb_m=_embed(keep * (1.0 - theta) * to_author, n_a, 0, n),
        init_mass=init_mass,
        fake_mass=fake_mass,
        restart_dist=_restart_distribution(graph, params),
        paper_dist=np.concatenate([np.zeros(n_a), np.full(n_p, 1.0 / n_p) if n_p else np.zeros(0)]),
    )


def stationary_distribution(
    link,
    jumps: Sequence[tuple[np.ndarray, np.ndarray]] = (),
    tol: float = DEFAULT_TOL,
    max_iterations: int = MAX_ITERATIONS,
) -> np.ndarray:
    """Stationary distribution of the chain pi -> pi @ link + sum((pi @ mass) * dist).

    ``link`` is a square non-negative matrix (sparse or dense) or a
    TransitionSystem, which supplies its own link matrix and jumps.  Each
    jump is a rank-one term: the row-wise ``mass`` that leaves through it
    and the ``dist`` it lands on.  Power-iterates from the uniform vector,
    renormalizing to sum 1, until the L1 change drops below tol.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if isinstance(link, TransitionSystem):
        link, jumps = link.link, link.jumps + tuple(jumps)
    link = sp.csr_matrix(link, dtype=float)
    n = link.shape[0]
    if n == 0 or link.shape[1] != n:
        raise ValueError(f"link must be a non-empty square matrix, got shape {link.shape}")
    link_t = link.T.tocsr()
    pi = np.full(n, 1.0 / n)
    residual = float("inf")
    for _ in range(max_iterations):
        nxt = _apply(pi, link_t, jumps)
        nxt /= nxt.sum()
        residual = float(np.abs(nxt - pi).sum())
        pi = nxt
        if residual < tol:
            return pi
    raise ConvergenceError(
        f"power iteration did not reach tol={tol} after {max_iterations} iterations "
        f"(final residual {residual:.3e})",
        residual=residual,
    )


def _apply(pi: np.ndarray, link_t, jumps) -> np.ndarray:
    """pi @ M for M = link + sum of outer(mass, dist), given link transposed."""
    out = link_t @ pi
    for mass, dist in jumps:
        out += (pi @ mass) * dist
    return out


def expected_scores(
    graph: CitationGraph,
    params: WalkParams,
    tol: float = DEFAULT_TOL,
    max_nodes: int = DEFAULT_ORACLE_LIMIT,
) -> ScoreTable:
    """Expected per-arrival scores of the walk, normalized to mean 1.0.

    Each node's score rate sums stationary inflow per transition class times
    that class's c-weight; restart arrivals (reinitialization and fake
    citation picks alike) carry the restarting weight.
    """
    ts = build_transition_system(graph, params, max_nodes=max_nodes)
    pi = stationary_distribution(ts, tol=tol)
    rate = (
        params.wrote_weight * (pi @ ts.wrote_m)
        + params.cite_weight * (pi @ ts.cite_m)
        + params.iswb_weight * (pi @ ts.iswb_m)
        + params.restarting_weight * sum((pi @ mass) * dist for mass, dist in ts.jumps)
    )
    if rate.sum() <= 0:
        raise ValueError("the walk accumulates no score mass (all c-weights on unused edges?)")
    return ScoreTable.over_all(graph, rate)
