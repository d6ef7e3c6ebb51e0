"""Exact stationary-distribution oracle for the walk.

Solves the chain the walk samples, in either mode and at any size: the
walk's outcome table (``walk.outcome_table``) read as a sparse transition
system.  Power iteration gives the stationary arrival distribution, and the
per-transition inflows weighted by c-weight class give the expected
per-arrival scores, i.e. the limit of the Monte Carlo scorer as the step
budget grows.  In literal mode the states include one "pending isWrittenBy"
copy per paper, and each copy's score rate is folded back onto its paper,
as the walk folds the copy's arrivals.

The transition matrix is held as three sparse class matrices (wrote, cite,
isWrittenBy) plus two rank-1 restart components: reinitialization mass times
the restart distribution, and fake-citation mass times the uniform paper
distribution.  Rows sum to one.  The class matrices hold the table's link
outcomes: the graph's one-hop matrices (``graph.hop_matrices``, one entry
per edge of ``CitationGraph.wrote`` and ``cite``) scaled per row, plus, in
literal mode, one cite entry per copy, so no dense matrix is built.

``stationary_distribution`` is the package's one power-iteration solver:
the PageRank baselines run through it too, with teleport and dangling mass
as a rank-1 jump.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .errors import ConvergenceError
from .graph import CitationGraph
from .walk import (CITE, FAKE, ISWB, RESTART, WROTE, ScoreTable, WalkParams, fold_copies,
                   outcome_table, restart_author_share)

DEFAULT_TOL = 1e-12
MAX_ITERATIONS = 10**6


@dataclass(frozen=True, eq=False)  # holds arrays; compare by identity
class TransitionSystem:
    """Row-stochastic transition structure of the walk, by c-weight class.

    States are the outcome table's: authors [0, A), papers [A, A+P) and, in
    literal mode only, one pending-isWrittenBy copy per paper [A+P, A+2P).
    A literal paper's move to its own copy is a cite entry, and the copy's
    moves to the paper's authors are isWrittenBy entries.  Every other class
    entry is an entry of the graph's hop matrices (``graph.hop_matrices``)
    times its row's share of that hop.  For each row the class matrices plus
    ``init_mass * restart_dist + fake_mass * paper_dist`` sum to one.
    """

    wrote_m: sp.csr_matrix    # author rows -> paper columns
    cite_m: sp.csr_matrix     # paper rows -> paper (and literal copy) columns
    iswb_m: sp.csr_matrix     # paper (literal: copy) rows -> author columns
    init_mass: np.ndarray     # per-row mass sent through the restart distribution
    fake_mass: np.ndarray     # per-row mass sent to a uniformly random paper
    restart_dist: np.ndarray  # distribution over the nodes, zero on the copies
    paper_dist: np.ndarray    # uniform distribution over paper states

    @property
    def link(self) -> sp.csr_matrix:
        """Sum of the three class matrices."""
        return self.wrote_m + self.cite_m + self.iswb_m

    @property
    def jumps(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Rank-one terms (per-row mass, landing distribution) of the chain."""
        return ((self.init_mass, self.restart_dist), (self.fake_mass, self.paper_dist))


def build_transition_system(graph: CitationGraph, params: WalkParams) -> TransitionSystem:
    """Exact per-state transition probabilities of the walk, in either mode.

    The walk's outcome table without its entry row: link outcomes become the
    class matrices, restart and fake outcomes the rank-one jumps.
    """
    params.validate()
    if graph.n_nodes == 0:
        raise ValueError("cannot build a transition system for an empty graph")
    table = outcome_table(graph, params)
    s, n_a, n = table.n_states, table.n_authors, graph.n_nodes
    # the entry row comes last and is never re-entered
    row = np.repeat(np.arange(s), np.diff(table.indptr[:s + 1]))
    end = table.indptr[s]
    target, cls, prob = table.target[:end], table.cls[:end], table.prob[:end]

    def links(c: int) -> sp.csr_matrix:
        m = cls == c
        return sp.csr_matrix((prob[m], (row[m], target[m])), shape=(s, s))

    def mass(c: int) -> np.ndarray:
        m = cls == c
        return np.bincount(row[m], prob[m], minlength=s)

    p_author = restart_author_share(graph, params)
    restart_dist, paper_dist = np.zeros(s), np.zeros(s)
    restart_dist[:n_a] = p_author / max(n_a, 1)
    restart_dist[n_a:n] = (1.0 - p_author) / max(n - n_a, 1)
    paper_dist[n_a:n] = 1.0 / max(n - n_a, 1)
    return TransitionSystem(
        wrote_m=links(WROTE),
        cite_m=links(CITE),
        iswb_m=links(ISWB),
        init_mass=mass(RESTART),
        fake_mass=mass(FAKE),
        restart_dist=restart_dist,
        paper_dist=paper_dist,
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
    renormalizing to sum 1, until the L1 change drops below tol, which must
    be a positive finite number.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be a positive finite number, got {tol}")
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
    max_nodes: int | None = None,
) -> ScoreTable:
    """Expected per-arrival scores of the walk, in either mode, normalized to
    mean 1.0.

    Each state's score rate sums stationary inflow per transition class times
    that class's c-weight; restart arrivals (reinitialization and fake
    citation picks alike) carry the restarting weight.  In literal mode each
    copy's rate is folded onto its paper, so the table has one row per node.
    ``max_nodes``, when given, refuses larger graphs; by default any size is
    solved.
    """
    if max_nodes is not None and graph.n_nodes > max_nodes:
        raise ValueError(f"graph has {graph.n_nodes} nodes, above max_nodes={max_nodes}")
    ts = build_transition_system(graph, params)
    pi = stationary_distribution(ts, tol=tol)
    rate = (
        params.wrote_weight * (pi @ ts.wrote_m)
        + params.cite_weight * (pi @ ts.cite_m)
        + params.iswb_weight * (pi @ ts.iswb_m)
        + params.restarting_weight * sum((pi @ mass) * dist for mass, dist in ts.jumps)
    )
    if rate.sum() <= 0:
        raise ValueError("the walk accumulates no score mass (all c-weights on unused edges?)")
    return ScoreTable.over_all(graph, fold_copies(rate, graph))
