"""Exact stationary-distribution oracle for the walk.

Solves the chain the walk samples, in either mode and at any size: the
walk's own ``TransitionSystem`` (``walk.build_transition_system``, imported
here under the same names).  Power iteration gives the stationary arrival
distribution; its inflow per state and edge class, scored by
``walk.score_arrivals`` as the walk's counts are, is the limit of the
Monte Carlo scorer's ``raw`` per step.  In literal mode the states include
one "pending isWrittenBy" copy per paper, whose arrivals are folded back
onto its paper, as the walk folds them.  At damping_df = 0 the chain may
be periodic or reducible, so the oracle iterates the lazy chain
(link + I) / 2 from the walk's start law instead; it has the same
stationary laws (see ``expected_scores``).

The oracle reads that system as one sparse link matrix plus two rank-1
restart components: reinitialization mass times the restart distribution,
and fake-citation mass times the uniform paper distribution.  Rows sum to
one.  ``link`` is derived from the system's rows on first read: their link
outcomes, the graph's one-hop matrices (``graph.to_paper``, ``to_ref`` and
``to_author``, one entry per edge of ``CitationGraph.wrote`` and ``cite``)
scaled per row, plus, in literal mode, one cite entry per copy, so no dense
matrix is built.

A link's edge class follows from its endpoints (``walk.entry_classes``):
wrote from an author row, isWrittenBy into an author column, cite
otherwise.  So ``class_inflows`` splits the arrivals of any per-state
weights by class with one product of the link's transpose, and no matrix
per class is built.

``stationary_distribution`` is the package's one power-iteration solver and
its one chain check: the PageRank baselines run through it too, with
teleport and dangling mass as a rank-1 jump.  Its link may be a sequence of
factors whose product is the square link matrix; each iteration then applies
the factors' transposes in turn, so PR-A iterates through the three hop
matrices and never forms the author graph.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .errors import ConvergenceError
from .graph import CitationGraph
from .walk import (CITE, FAKE, ISWB, N_CLASSES, RESTART, WROTE, ScoreTable,
                   TransitionSystem, WalkParams, build_transition_system, fold_copies,
                   score_arrivals)

DEFAULT_TOL = 1e-12
MAX_ITERATIONS = 10**6


def stationary_distribution(
    link,
    jumps: Sequence[tuple[np.ndarray, np.ndarray]] = (),
    tol: float = DEFAULT_TOL,
    max_iterations: int = MAX_ITERATIONS,
    start: np.ndarray | None = None,
) -> np.ndarray:
    """Stationary distribution of the chain pi -> pi @ link + sum((pi @ mass) * dist).

    ``link`` is a square matrix (sparse or dense) or a sequence of matrices
    whose product is that matrix (``link_factors``); a transition system
    passes ``ts.link, ts.jumps``.  Each jump is a rank-one term: the
    row-wise ``mass`` that leaves through it and the ``dist`` it lands on.
    Power-iterates from ``start`` (by default the uniform vector; a
    reducible chain's limit depends on it), renormalizing to sum 1, until
    the L1 change drops below tol, a positive finite number.  A negative,
    NaN or infinite link, jump or start entry, or a start of another shape
    or of sum 0, raises ValueError before the first iteration, and an
    iterate that does not sum to a positive number (the chain lost its
    mass) raises ValueError at once.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be a positive finite number, got {tol}")
    factors = link_factors(link, "link")
    if not all(_finite_non_negative(a) for jump in jumps for a in jump):
        raise ValueError("jump masses and distributions must be finite and not negative")
    n = factors[0].shape[0]
    pi = np.full(n, 1.0 / n) if start is None else np.asarray(start, dtype=float)
    if pi.shape != (n,):
        raise ValueError(f"start must have one entry per state ({n}), got shape {pi.shape}")
    if not (_finite_non_negative(pi) and pi.sum() > 0):
        raise ValueError("start must be finite, not negative and sum to more than 0")
    # pi @ (F1 @ F2 @ ...) = ... F2.T @ (F1.T @ pi): the transposes, in turn
    factors_t = [f.T.tocsr() for f in factors]
    residual = float("inf")
    for _ in range(max_iterations):
        nxt = _apply(pi, factors_t, jumps)
        total = nxt.sum()
        if not 0 < total < math.inf:
            raise ValueError(f"the chain loses its mass: an iterate sums to {total}")
        nxt /= total
        residual = float(np.abs(nxt - pi).sum())
        pi = nxt
        if residual < tol:
            return pi
    raise ConvergenceError(
        f"power iteration did not reach tol={tol} after {max_iterations} iterations "
        f"(final residual {residual:.3e})",
        residual=residual,
    )


def link_factors(link, name: str) -> list[sp.csr_matrix]:
    """``link`` as a list of float CSR factors whose product is a square
    matrix.

    A list or tuple of sparse matrices and 2-D arrays is a sequence of
    factors; anything else is one matrix.  The factors' shapes must chain,
    their product must be square and non-empty, and every stored entry
    must be finite and not negative; otherwise ValueError, naming the
    argument as ``name``.
    """
    chain = isinstance(link, (list, tuple)) and len(link) > 0 and all(
        sp.issparse(f) or (isinstance(f, np.ndarray) and f.ndim == 2) for f in link)
    factors = [sp.csr_matrix(f, dtype=float) for f in (link if chain else (link,))]
    shapes = [f.shape for f in factors]
    n, m = shapes[0][0], shapes[-1][1]
    if any(a[1] != b[0] for a, b in zip(shapes, shapes[1:])):
        raise ValueError(f"{name} factors do not chain, got shapes {shapes}")
    if n == 0 or m != n:
        raise ValueError(f"{name} must be a non-empty square matrix, got shape {(n, m)}")
    if not all(_finite_non_negative(f.data) for f in factors):
        raise ValueError(f"{name} entries must be finite and not negative")
    return factors


def _finite_non_negative(a: np.ndarray) -> bool:
    return bool(((0 <= a) & (a < math.inf)).all())  # NaN fails both tests


def _apply(pi: np.ndarray, factors_t, jumps) -> np.ndarray:
    """pi @ M for M = link + sum of outer(mass, dist), given the transposes
    of link's factors."""
    out = pi
    for t in factors_t:
        out = t @ out
    for mass, dist in jumps:
        out += (pi @ mass) * dist
    return out


def class_inflows(ts: TransitionSystem, weights) -> np.ndarray:
    """Expected arrivals per state and edge class of one step taken from
    per-state ``weights`` (finite and not negative, else ValueError; ``pi``
    gives the stationary inflows).

    Columns in class order: the restart and fake jumps' landings, then the
    link arrivals, classed by their endpoints as ``walk.entry_classes``
    classes them.  ``link.T`` times the weights kept on author rows is
    wrote; times those kept on paper and copy rows, it is isWrittenBy in
    the author columns and cite in the others.  Both come from one product
    of ``link.T`` with a two-column matrix.
    """
    x = np.asarray(weights, dtype=float)
    n_a, s = ts.n_authors, ts.n_states
    if x.shape != (s,):
        raise ValueError(f"weights must have one entry per state ({s}), got shape {x.shape}")
    if not _finite_non_negative(x):
        raise ValueError("weights must be finite and not negative")
    by_source = np.zeros((s, 2))
    by_source[:n_a, 0], by_source[n_a:, 1] = x[:n_a], x[n_a:]
    by_target = ts.link.T @ by_source
    out = np.zeros((s, N_CLASSES))
    for c, (mass, dist) in zip((RESTART, FAKE), ts.jumps):
        out[:, c] = (x @ mass) * dist
    out[:, WROTE] = by_target[:, 0]
    out[:n_a, ISWB] = by_target[:n_a, 1]
    out[n_a:, CITE] = by_target[n_a:, 1]
    return out


def expected_scores(
    graph: CitationGraph,
    params: WalkParams,
    tol: float = DEFAULT_TOL,
    max_nodes: int | None = None,
) -> ScoreTable:
    """Expected per-arrival scores of the walk, in either mode, normalized to
    mean 1.0.

    The stationary inflows per state and edge class (``class_inflows`` of
    the transition system's ``pi``), copies folded onto their papers, are
    scored by ``walk.score_arrivals`` as the walk's counts are.
    So ``raw`` is the limit of ``pira_rank(graph, params).raw / step_budget``
    for any c-weights, and sums to 1 when all four are equal.
    ``max_nodes``, when given, refuses larger graphs; by default any size is
    solved.

    At ``damping_df`` > 0 every row restarts with probability at least df, so
    the chain has one aperiodic recurrent class.  At df = 0 it may be
    periodic or reducible; the solver then iterates the lazy chain
    (link + I) / 2, with halved jump masses, from the walk's start law
    ``restart_dist``.  That chain has the same stationary laws, is aperiodic,
    and from that start converges to the walk's own limit.
    """
    if max_nodes is not None and graph.n_nodes > max_nodes:
        raise ValueError(f"graph has {graph.n_nodes} nodes, above max_nodes={max_nodes}")
    ts = build_transition_system(graph, params)
    if params.damping_df > 0:
        pi = stationary_distribution(ts.link, ts.jumps, tol=tol)
    else:
        lazy = (ts.link + sp.identity(ts.link.shape[0], format="csr")) * 0.5
        pi = stationary_distribution(lazy, [(mass * 0.5, dist) for mass, dist in ts.jumps],
                                     tol=tol, start=ts.restart_dist)
    return score_arrivals(graph, fold_copies(class_inflows(ts, pi), graph), params)
