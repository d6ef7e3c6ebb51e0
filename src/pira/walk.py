"""Monte Carlo random-walk scorer for the bipartite citation graph.

The surfer alternates between author and paper nodes.  Leaving an author, it
picks one of the author's papers with probability proportional to that
paper's p-weight (1 / co-author count).  At a paper it follows a citation
with probability ``theta``, otherwise it jumps to a uniformly random author
of the paper.  Every arrival is counted per node and per edge class (restart,
fake pick, wrote, cite, isWrittenBy) and consumes one unit of the step
budget; the raw score is those counts weighted by the c-weights of the
classes (``score_arrivals``).  A damping test at each arrival reinitializes
the walk from a random node.

Two execution modes are provided:

* ``INTERPRETED`` (default): the flow described above.
* ``LITERAL``: the four-procedure control flow (init/a2p/p2p/p2a) kept
  exactly, with its two quirks: the citation target is drawn before the
  theta test, so the 1-theta branch re-arrives at the current paper with
  ``cite_weight`` before jumping to one of its authors, and a paper with
  no outgoing references always reinitializes instead of taking an
  isWrittenBy jump.

``min_citation_count`` (K) dilutes thin reference lists: the citation
pick is uniform over max(|refs|, K) slots, and a slot beyond the real
references sends the surfer to a uniformly random paper ("fake" pick); in
literal mode the slot is drawn before the theta test, so a fake pick is
taken whatever theta is.  A move the node cannot make (from an author
without papers, a citation from a paper without references, an isWrittenBy
jump from a paper without authors) reinitializes the walk instead.

The walk's chain is one ``TransitionSystem`` (``build_transition_system``):
a link matrix over the walk's states, one ``sp.bmat`` of the graph's
one-hop matrices (``graph.to_paper``, ``to_ref``, ``to_author``) scaled per
row, plus the restart and fake jumps.  The states are the authors, the
papers and, in literal mode, one "pending isWrittenBy" copy per paper, the
state after the 1-theta re-arrival.  A row of the link lists its moves to
papers, then to authors, then to its copy, each in index order; the seeded
walk draws in that order.  Only the sampler lists each move as an outcome
(``_outcome_rows``), a jump as a sentinel whose landing is drawn by
arithmetic.  A move's edge class follows from its row and target
(``entry_classes``, the one class rule).

Restarts are regeneration points: the arrivals from one restart outcome up
to the next form a restart cycle, and one surfer's arrivals are i.i.d.
cycles joined in start order.  So each walker runs its cycles side by side
in a pool of slots, drawing for all of them from one numpy RNG stream:
every restart outcome opens the walker's next cycle, the walker stops
opening cycles once its arrivals reach its budget, and its counts are its
cycles' arrivals in start order, cut once at the budget.  Each walker's
counts therefore have exactly the law of one surfer's first ``budget``
arrivals, whatever its slot count, which is sized for speed only.  The
slots of consecutive walkers step in lockstep, and the copies' arrivals are
folded back onto their papers at the end.  The exact oracle
(``oracle.expected_scores``) solves the same system and scores its
expected arrivals per class with the same ``score_arrivals``.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .graph import CitationGraph, NodeKind, _read_only

_MASK64 = (1 << 64) - 1


class WalkMode(enum.Enum):
    INTERPRETED = "interpreted"
    LITERAL = "literal"


@dataclass(frozen=True)
class WalkParams:
    """All knobs of the walk.

    ``damping_df`` is the probability that an arrival reinitializes the walk
    (the complement of the classic follow probability).  ``theta`` is the
    probability of following a citation link when leaving a paper.
    ``restart_author_prob`` chooses the node type on reinitialization; None
    means proportional to the node counts, i.e. a uniform restart over all
    nodes.  ``step_budget`` counts arrivals, so the arrival counts sum to
    the budget exactly, and so do the raw scores when all c-weights are one.
    ``walkers`` splits the budget into that many independent walks, each
    with its own RNG stream (streams, not processes: all walkers run in the
    calling process), and the scores depend on the params only, not on the
    machine.  Each walker's arrival counts have the law of one surfer's
    first arrivals up to its share of the budget.

    Construction checks every value, so no invalid params can be made,
    not through ``dataclasses.replace`` or ``scaled_weights`` either.  A
    bad value raises ValueError naming its field, and so does a wrong type:
    a float field that is not a real number (``restart_author_prob`` may be
    None) or an integer field that is not an integer (a bool included).
    The integer fields are stored as Python ints, so a numpy integer gives
    the same params.
    """

    damping_df: float = 0.15
    theta: float = 0.7
    restarting_weight: float = 0.0
    cite_weight: float = 1.0
    wrote_weight: float = 0.0
    iswb_weight: float = 1.0
    min_citation_count: int = 0
    mode: WalkMode = WalkMode.INTERPRETED
    restart_author_prob: Optional[float] = None
    step_budget: int = 1_000_000
    seed: int = 0
    walkers: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.mode, WalkMode):
            raise ValueError(f"mode must be a WalkMode, got {self.mode!r}")
        for name in ("damping_df", "theta", "restarting_weight", "cite_weight",
                     "wrote_weight", "iswb_weight", "restart_author_prob"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real)
                    or value is None and name == "restart_author_prob"):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if not 0.0 <= self.damping_df <= 1.0:
            raise ValueError(f"damping_df must be in [0, 1], got {self.damping_df}")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must be in [0, 1], got {self.theta}")
        if self.restart_author_prob is not None and not 0.0 <= self.restart_author_prob <= 1.0:
            raise ValueError(
                f"restart_author_prob must be in [0, 1], got {self.restart_author_prob}"
            )
        weights = (self.restarting_weight, self.cite_weight, self.wrote_weight, self.iswb_weight)
        if not all(0 <= w < math.inf for w in weights):
            raise ValueError("c-weights must be finite and non-negative")
        if all(w == 0 for w in weights):
            raise ValueError("at least one c-weight must be positive")
        for name in ("min_citation_count", "step_budget", "walkers", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))  # a numpy integer too
        if self.min_citation_count < 0:
            raise ValueError("min_citation_count must be non-negative")
        if self.step_budget < 1:
            raise ValueError("step_budget must be at least 1")
        if self.walkers < 1:
            raise ValueError("walkers must be at least 1")

    def scaled_weights(self, factor: float) -> "WalkParams":
        """Same params with all four c-weights multiplied by `factor`."""
        return replace(
            self,
            restarting_weight=self.restarting_weight * factor,
            cite_weight=self.cite_weight * factor,
            wrote_weight=self.wrote_weight * factor,
            iswb_weight=self.iswb_weight * factor,
        )


@dataclass(frozen=True, eq=False)  # holds arrays; compare by identity
class ScoreTable:
    """Per-node scores: raw accumulated counters plus a mean-1.0 normalization.

    The table is columnar, one row per node: ``kinds`` (a ``NodeKind`` code
    per row), ``ext_ids``, ``in_dblp`` (a bool array), ``raw`` and
    ``normalized``.  Construction takes the first four as parallel columns
    and computes ``normalized`` (``normalize``; all-zero raw scores stay
    zero).  A column of another length, or a raw score that is NaN,
    infinite or negative, raises ValueError.  Tables made from a graph
    reference its id and flag columns rather than copying them.
    """

    kinds: np.ndarray     # int8 NodeKind code per row
    ext_ids: Sequence[str]
    in_dblp: np.ndarray   # bool
    raw: np.ndarray
    normalized: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        n = len(self.ext_ids)
        for name, dtype in (("raw", float), ("kinds", np.int8), ("in_dblp", bool)):
            column = np.asarray(getattr(self, name), dtype=dtype)
            if column.shape != (n,):
                raise ValueError(f"{name} has shape {column.shape}, expected ({n},): "
                                 "one value per node")
            object.__setattr__(self, name, column)
        raw = self.raw
        if not np.isfinite(raw).all():
            raise ValueError("raw scores must be finite, got NaN or infinity")
        if (raw < 0).any():
            raise ValueError(f"raw scores must not be negative, got {raw.min()}")
        object.__setattr__(self, "normalized", normalize(raw) if raw.any() else raw.copy())

    def __len__(self) -> int:
        return len(self.ext_ids)

    @classmethod
    def over_authors(cls, graph: CitationGraph, values) -> "ScoreTable":
        """Scores over the graph's authors, in index order."""
        return cls(np.full(graph.n_authors, NodeKind.AUTHOR, dtype=np.int8),
                   graph.author_ext_ids, graph.author_in_dblp, values)

    @classmethod
    def over_papers(cls, graph: CitationGraph, values) -> "ScoreTable":
        """Scores over the graph's papers, in index order."""
        return cls(np.full(graph.n_papers, NodeKind.PAPER, dtype=np.int8),
                   graph.paper_ext_ids, graph.paper_in_dblp, values)

    @classmethod
    def over_all(cls, graph: CitationGraph, raw: np.ndarray) -> "ScoreTable":
        """Scores over authors followed by papers, in index order."""
        kinds = np.repeat(np.array([NodeKind.AUTHOR, NodeKind.PAPER], dtype=np.int8),
                          [graph.n_authors, graph.n_papers])
        return cls(kinds, graph.author_ext_ids + graph.paper_ext_ids,
                   np.concatenate((graph.author_in_dblp, graph.paper_in_dblp)), raw)


def normalize(raw) -> np.ndarray:
    """Scale raw counters so their mean is 1.0; all-zero counters raise
    ValueError.

    The counters are first scaled by the exact power of two that brings the
    largest into [0.5, 1), so a total that would overflow to infinity or
    underflow to a subnormal still gives mean 1.  Where the total and its
    reciprocal stay normal floats, the result is bit for bit the plain
    ``raw * (len(raw) / raw.sum())``, unless an entry lies below about
    2**-1022 times the largest.
    """
    raw = np.asarray(raw, dtype=float)
    raw = np.ldexp(raw, -np.frexp(raw.max(initial=0.0))[1])
    total = raw.sum()
    if total <= 0:
        raise ValueError("cannot normalize all-zero counters")
    return raw * (len(raw) / total)


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def walker_seed(seed: int, walker: int) -> int:
    """Deterministic per-walker RNG seed derived from (seed, walker)."""
    return _splitmix64(_splitmix64(seed & _MASK64) ^ (walker + 1))


def restart_author_share(graph: CitationGraph, params: WalkParams) -> float:
    """Probability that a restart lands on an author rather than a paper.

    ``params.restart_author_prob``, or n_authors / n_nodes when it is None;
    always 0 without authors and 1 without papers, since a node kind with no
    nodes cannot be restarted into.
    """
    if graph.n_authors == 0:
        return 0.0
    if graph.n_papers == 0:
        return 1.0
    p = params.restart_author_prob
    return graph.n_authors / graph.n_nodes if p is None else p


# Edge classes of an arrival: the columns of the per-node arrival counts.
RESTART, FAKE, WROTE, CITE, ISWB = range(5)
N_CLASSES = 5
# Sentinel next states of the sampler's restart and fake outcomes
# (``_outcome_rows``): their landing node is drawn by arithmetic.
TO_RESTART = -1
TO_FAKE = -2

# Restart outcomes are regeneration points of the chain, so a walker's
# restart cycles are i.i.d. and can run side by side in slots (see
# _group_counts).  The slot count is a speed choice: one slot per
# _CYCLES_PER_SLOT expected restart cycles, at most _MAX_SLOTS.
_MAX_SLOTS = 4096
_CYCLES_PER_SLOT = 16
_GROUP_SLOTS = 8192  # slots of consecutive walkers stepped together
_BLOCK_DRAWS = 1 << 14  # uniforms drawn for a group at a time (at least a step's)
_MIN_BUFFER = 1 << 14
# -log of the chance that a walker's early cycles run past its cut, which
# costs a re-run of its group (see _window)
_CUT_RISK = 20.0


@dataclass(frozen=True, eq=False)  # holds arrays; compare by identity
class TransitionSystem:
    """The walk's chain: a sparse link matrix plus two rank-one jumps.

    States are authors [0, A), papers [A, A+P) and, in literal mode only,
    one "pending isWrittenBy" copy per paper [A+P, A+2P): the state between
    the literal 1-theta branch's re-arrival at its paper (counted on the
    paper) and the jump to one of the paper's authors.  State r restarts
    with probability ``init_mass[r]`` (landing by ``restart_dist``), picks a
    fake citation with ``fake_mass[r]`` (landing by ``paper_dist``) and
    otherwise takes a link of row r of ``link``, whose entries are positive.

    ``link`` is one block matrix of the graph's scaled hop matrices; each
    of its rows lists its targets by kind (papers, authors, the row's copy),
    ascending within a kind, and is unsorted in state numbering.  A link's
    edge class follows from its row and target (``entry_classes``);
    ``wrote_m``, ``cite_m`` and ``iswb_m``, the link split by class and
    read-only, are built on first read.  A literal paper's move to its own
    copy is a cite link; every other link is an entry of one of the graph's
    hop matrices times its row's share of that hop.
    """

    n_authors: int
    link: sp.csr_matrix       # the link moves, states x states
    init_mass: np.ndarray     # per-state mass sent through the restart distribution
    fake_mass: np.ndarray     # per-state mass sent to a uniformly random paper
    restart_dist: np.ndarray  # distribution over the nodes, zero on the copies
    paper_dist: np.ndarray    # uniform distribution over paper states

    @property
    def n_states(self) -> int:
        return self.link.shape[0]

    @property
    def jumps(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Rank-one terms (per-row mass, landing distribution) of the chain."""
        return ((self.init_mass, self.restart_dist), (self.fake_mass, self.paper_dist))

    @cached_property
    def wrote_m(self) -> sp.csr_matrix:  # author rows -> paper columns
        return self._links_of(WROTE)

    @cached_property
    def cite_m(self) -> sp.csr_matrix:  # paper rows -> paper (and literal copy) columns
        return self._links_of(CITE)

    @cached_property
    def iswb_m(self) -> sp.csr_matrix:  # paper (literal: copy) rows -> author columns
        return self._links_of(ISWB)

    def _links_of(self, c: int) -> sp.csr_matrix:
        """The link entries of edge class `c`, read-only."""
        link = self.link
        kept = entry_classes(link.indptr, link.indices, self.n_authors) == c
        indptr = np.concatenate(([0], np.cumsum(kept)))[link.indptr]
        return _read_only(sp.csr_matrix((link.data[kept], link.indices[kept], indptr),
                                        shape=link.shape))


def entry_classes(indptr: np.ndarray, target: np.ndarray, n_authors: int) -> np.ndarray:
    """Edge class (int8) of each entry of rows ``indptr`` over ``target``,
    the author rows first.

    The package's one class rule: a sentinel target is its jump's class;
    a move from an author row is wrote; a move from any other row is
    isWrittenBy into an author and cite otherwise (paper to paper, and in
    literal mode paper to its copy).
    """
    # arithmetic on the comparison, since a masked store over every entry
    # costs several times more
    to_author = (target < n_authors).view(np.int8)
    cls = to_author * np.int8(ISWB - CITE) + np.int8(CITE)
    cls[:indptr[n_authors]] = WROTE
    jump = np.flatnonzero(target < 0)
    cls[jump] = np.where(target[jump] == TO_RESTART, RESTART, FAKE)
    return cls


def build_transition_system(graph: CitationGraph, params: WalkParams) -> TransitionSystem:
    """The walk's chain, in either mode, in O(nodes + edges).

    This is the package's one definition of the walk's chain: the exact
    oracle solves it and the engine samples its ``_outcome_rows``.  Its
    links are the graph's one-hop matrices (``graph.to_paper``, ``to_ref``,
    ``to_author``), each row scaled by the share of its row's mass that
    takes that hop, stacked by one ``sp.bmat``; links of probability zero
    are left out.  A row of ``link`` lists its moves to papers, then to
    authors, then to its copy, each in index order, and every seeded walk
    draws in that order.
    """
    if graph.n_nodes == 0:
        raise ValueError("cannot build a transition system for an empty graph")
    n_a, n_p = graph.n_authors, graph.n_papers
    n = n_a + n_p
    literal = params.mode == WalkMode.LITERAL
    n_states = n + n_p if literal else n
    df, theta = params.damping_df, params.theta
    keep = 1.0 - df
    to_paper, to_ref, to_author = graph.to_paper, graph.to_ref, graph.to_author
    n_pubs = np.diff(to_paper.indptr)
    n_refs = np.diff(to_ref.indptr)
    n_auth = np.diff(to_author.indptr)
    # a citation pick is uniform over max(|refs|, K) slots: the real share
    # goes to the references, and a slot beyond them is a fake pick (a
    # uniform paper; K is taken as a float, since it may not fit the
    # degrees' int32)
    slots = np.maximum(n_refs, float(params.min_citation_count))
    real = np.divide(n_refs, slots, out=np.zeros(n_p), where=n_refs > 0)
    fake = keep * np.divide(slots - n_refs, slots, out=np.zeros(n_p), where=n_refs > 0)
    no_refs, no_authors = n_refs == 0, n_auth == 0
    if literal:
        # the slot is drawn before the theta test, so the 1-theta share of
        # the real slots re-arrives at the paper (as its copy), and a paper
        # without references always restarts
        paper_restart = df + keep * no_refs
        paper_fake = fake
        copy_restart = df + keep * no_authors
        iswb_share = keep
    else:
        paper_restart = df + keep * (theta * no_refs + (1.0 - theta) * no_authors)
        paper_fake = theta * fake
        copy_restart = 0.0
        iswb_share = keep * (1.0 - theta)

    def rows(author, paper, copy):  # per-row values over the author, paper and copy rows
        return np.concatenate((np.broadcast_to(author, n_a), np.broadcast_to(paper, n_p),
                               np.broadcast_to(copy, n_states - n)))

    def scaled(m: sp.csr_matrix, data: np.ndarray) -> sp.csr_matrix:  # m's entries, new data
        return sp.csr_matrix((data, m.indices, m.indptr), shape=m.shape)

    # block rows are the states' authors, papers and copies, block columns
    # the papers, authors and copies; explicit empty blocks, not None, keep
    # scipy on its all-CSR stacking path
    wrote = scaled(to_paper, keep * to_paper.data)
    refs = scaled(to_ref, np.repeat(keep * theta * real, n_refs) * to_ref.data)
    iswb = scaled(to_author, iswb_share * to_author.data)
    a_a = sp.csr_matrix((n_a, n_a))
    if literal:
        copy = sp.csr_matrix((keep * (1.0 - theta) * real, np.arange(n_p), np.arange(n_p + 1)),
                             shape=(n_p, n_p))
        p_p = sp.csr_matrix((n_p, n_p))
        blocks = [[wrote, a_a, sp.csr_matrix((n_a, n_p))],
                  [refs, sp.csr_matrix((n_p, n_a)), copy],
                  [p_p, iswb, p_p]]
    else:
        blocks = [[wrote, a_a], [refs, iswb]]
    link = sp.bmat(blocks, format="csr")
    link.sort_indices()  # the row order above, whichever stacking path ran
    link.eliminate_zeros()
    # into states, which leaves the rows unsorted; the shift keeps the index
    # dtype, since a wider one costs several times more
    c = link.indices
    link.indices = np.where(c < n_p, c + n_a, c - (c < n) * c.dtype.type(n_p))
    link.has_sorted_indices = False
    init_mass = rows(df + keep * (n_pubs == 0), paper_restart, copy_restart)
    p_author = restart_author_share(graph, params)
    restart_dist, paper_dist = np.zeros(n_states), np.zeros(n_states)
    restart_dist[:n_a] = p_author / max(n_a, 1)
    restart_dist[n_a:n] = (1.0 - p_author) / max(n_p, 1)
    paper_dist[n_a:n] = 1.0 / max(n_p, 1)
    return TransitionSystem(n_a, link, init_mass, rows(0.0, paper_fake, 0.0), restart_dist,
                            paper_dist)


def _outcome_rows(ts: TransitionSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(indptr, target, prob) of the sampler's rows: row r lists state r's
    restart and fake pick (the sentinel targets ``TO_RESTART``, ``TO_FAKE``;
    left out at mass zero), then its links.  The last row, the entry row
    where slots start, restarts with probability one."""
    jumps = ((TO_RESTART, np.append(ts.init_mass, 1.0)), (TO_FAKE, np.append(ts.fake_mass, 0.0)))
    sizes = np.append(np.diff(ts.link.indptr), 0) + sum(mass > 0 for _, mass in jumps)
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    target, prob = np.empty(indptr[-1], np.intp), np.empty(indptr[-1])
    is_link, slot = np.ones(indptr[-1], bool), indptr[:-1]
    for sentinel, mass in jumps:  # each row's restart, then its fake pick, in its next slot
        has = mass > 0
        target[slot[has]], prob[slot[has]], is_link[slot[has]] = sentinel, mass[has], False
        slot = slot + has
    target[is_link], prob[is_link] = ts.link.indices, ts.link.data  # links fill the rest, in order
    return indptr, target, prob


def _guide(indptr: np.ndarray, prob: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(upper, guide): each outcome's row-local running probability, and a
    guide table with one bin per outcome.

    A row with k outcomes splits [0, 1) into k equal bins; the guide entry of
    bin j is the row's first outcome whose ``upper`` exceeds j / k.  Drawing
    u, start at the guide entry of bin floor(u * k) and advance while
    ``upper[e] <= u``: O(1) steps expected.  The last outcome of each row
    gets ``upper = 1``, so the advance never leaves its row.
    """
    size = np.diff(indptr)
    running = np.cumsum(prob)
    before = np.concatenate(([0.0], running))[indptr[:-1]]
    # threshold error <= rows * eps from the shared running sum, far below
    # any Monte Carlo resolution
    upper = running - np.repeat(before, size)
    upper[indptr[1:] - 1] = 1.0
    # covered[e]: how many of its row's bins start below upper[e]
    k = np.repeat(size, size)
    covered = np.minimum(np.ceil(upper * k), k).astype(np.intp)
    bins = np.diff(covered, prepend=0)
    bins[indptr[:-1]] = covered[indptr[:-1]]
    return upper, np.repeat(np.arange(len(prob)), bins)


def _slots(budget: int, df: float) -> int:
    """Cycle slots of a walker with `budget` arrivals at damping `df`: one
    per ``_CYCLES_PER_SLOT`` expected restart cycles, at most ``_MAX_SLOTS``
    and at least one, so at df = 0 each walker is a single slot."""
    return max(1, min(_MAX_SLOTS, int(budget * df) // _CYCLES_PER_SLOT))


def _window(budget: int, slots: int, df: float) -> int:
    """Arrivals before a walker's budget from which its new cycles are
    recorded rather than counted at once.

    When the window starts, at most ``slots`` early cycles are open and
    fewer than ``budget - window + slots`` early arrivals have been made.
    Each further arrival of theirs ends its cycle with probability at least
    df, so they pass the budget only if ``window`` trials at rate df give
    fewer than ``slots`` successes; the window is the Chernoff bound that
    makes this less likely than e^-``_CUT_RISK``.  One slot runs its cycles
    one after another and needs no window; at df = 0 with more slots every
    cycle is recorded.
    """
    if slots == 1:
        return 0
    if df == 0:
        return budget
    trials = (slots + _CUT_RISK + math.sqrt(_CUT_RISK ** 2 + 2 * _CUT_RISK * slots)) / df
    return min(budget, math.ceil(trials))


def _walker_groups(params: WalkParams):
    """Consecutive walkers with steps, as lists of (walker, budget, slots),
    grouped so that each group has at most ``_GROUP_SLOTS`` slots (and at
    least one walker)."""
    base, extra = divmod(params.step_budget, params.walkers)
    group, group_slots = [], 0
    for w in range(min(params.walkers, params.step_budget)):
        budget = base + (w < extra)
        slots = _slots(budget, params.damping_df)
        if group and group_slots + slots > _GROUP_SLOTS:
            yield group
            group, group_slots = [], 0
        group.append((w, budget, slots))
        group_slots += slots
    yield group


def _sampler(graph: CitationGraph, params: WalkParams):
    """(step, n_states): ``step(state, u, v) -> (next state, arrival code,
    restarted)`` over the chain's ``_outcome_rows``, one outcome per state
    from the uniforms u (guide table) and v (restart and fake landings), with
    the arrival code ``node * N_CLASSES + class`` and the indices whose
    outcome restarted.  The chain itself is not kept."""
    indptr, target, prob = _outcome_rows(build_transition_system(graph, params))
    upper, guide = _guide(indptr, prob)
    size = np.diff(indptr).astype(float)
    n_a, n_p = graph.n_authors, graph.n_papers
    # a sentinel's code is its class; its landing node is added per step
    code = np.maximum(target, 0) * N_CLASSES + entry_classes(indptr, target, n_a)
    n = n_a + n_p
    # a restart lands on an author with probability p_author, else on a
    # paper; a fake pick lands on a uniform paper (author share 0)
    p_author = restart_author_share(graph, params)
    author_scale = n_a / p_author if p_author > 0 else 0.0
    jumps = [(TO_RESTART, p_author, n_p / (1.0 - p_author) if p_author < 1 else 0.0)]
    if (target == TO_FAKE).any():
        jumps.append((TO_FAKE, 0.0, n_p))

    def land(v: np.ndarray, share: float, paper_scale: float) -> np.ndarray:
        paper = v >= share
        x = np.where(paper, n_a + (v - share) * paper_scale, v * author_scale)
        return np.minimum(x.astype(np.intp), np.where(paper, n - 1, n_a - 1))

    def step(s: np.ndarray, u: np.ndarray, v: np.ndarray):
        e = guide[indptr[s] + (u * size[s]).astype(np.intp)]
        late = (upper[e] <= u).nonzero()[0]
        while late.size:
            e[late] += 1
            late = late[upper[e[late]] <= u[late]]
        nxt = target[e]
        out = code[e]
        restarted = (nxt == TO_RESTART).nonzero()[0]
        for sentinel, share, paper_scale in jumps:
            hit = restarted if sentinel == TO_RESTART else (nxt == sentinel).nonzero()[0]
            if hit.size:
                landing = land(v[hit], share, paper_scale)
                nxt[hit] = landing
                out[hit] += landing * N_CLASSES
        return nxt, out, restarted

    return step, len(indptr) - 2


def _group_counts(step, n_states: int, seed: int, group, windows) -> tuple[np.ndarray, np.ndarray]:
    """(arrival codes counted, walkers whose early cycles overran their cut)
    of one group of walkers; the counts are exact only when none overran.

    Each walker's ``slots`` start at the entry row, so the first step opens
    one cycle per slot.  Every restart outcome closes its slot's cycle and,
    while the walker has made fewer arrivals than its budget before the
    step, opens the walker's next cycle in that slot (in slot order within a
    step); afterwards it leaves the slot idle.  Every slot is busy until
    then, so a walker opens cycles for exactly ceil(budget / slots) steps.

    Cycles opened before the walker's arrivals reach ``budget - window`` are
    early, and their arrivals are counted at once.  The arrivals of later,
    late cycles are recorded with their cycle, step by step; once the
    walker is done, its late cycles in start order supply the arrivals
    still missing from the budget.  A late cycle stops as soon as the
    arrivals of the early cycles and of the late ones up to it reach the
    budget, since all its further arrivals fall past the cut.  If the early
    arrivals pass the budget, the cut falls inside the early cycles and the
    walker has overrun.  A walker with one slot runs its cycles one after
    another, so it stops once its early arrivals reach the budget.
    """
    n_codes = N_CLASSES * n_states
    n_walkers = len(group)
    budget = np.array([b for _, b, _ in group], np.int64)
    slots = np.array([s for *_, s in group], np.int64)
    open_end = -(-budget // slots)  # first step that opens no cycle
    switch = -(-(budget - np.asarray(windows, np.int64)) // slots)  # first late step
    # late cycle k of walker w has the id k * n_walkers + w, so column w of
    # ``late_len`` (arrivals per late cycle) lists w's cycles in start order
    late_len = np.zeros((1, n_walkers), np.int64)
    n_late = np.zeros(n_walkers, np.int64)
    records = []  # (late cycle ids, arrival codes) per step
    # a walker opens fewer than budget + slots cycles
    id_bound = (budget.max() + slots.max()) * n_walkers
    rec_type = np.int32 if max(id_bound, n_codes) < 2**31 else np.int64
    rngs = [np.random.default_rng(walker_seed(seed, w)) for w, *_ in group]
    bounds = np.concatenate(([0], np.cumsum(slots)))
    n = int(bounds[-1])
    block = max(1, _BLOCK_DRAWS // (2 * n))
    # the live slots, in slot order: index, walker, state and late cycle id
    # (-1 for an early cycle)
    live = np.arange(n)
    wid = np.repeat(np.arange(n_walkers), slots)
    state = np.full(n, n_states, np.intp)  # the entry row
    cyc = np.full(n, -1, np.intp)
    active = np.ones(n_walkers, bool)
    # until step `careful` every slot is busy and every new cycle early
    careful = int(switch.min())
    early = careful * slots  # arrivals of early cycles
    counts = np.zeros(n_codes, np.int64)
    buf = np.empty(max(_MIN_BUFFER, n_codes, n), np.intp)
    filled = 0

    def commit(codes: np.ndarray) -> None:
        nonlocal filled
        if filled + len(codes) > len(buf):
            counts[:] += np.bincount(buf[:filled], minlength=n_codes)
            filled = 0
        buf[filled:filled + len(codes)] = codes
        filled += len(codes)

    t = 0
    while live.size:
        if t % block == 0:
            draws = np.empty((block, 2, n))
            for i in np.flatnonzero(active):
                draws[:, :, bounds[i]:bounds[i + 1]] = rngs[i].random((block, 2, slots[i]))
        u, v = draws[t % block]
        if live.size < n:
            u, v = u[live], v[live]
        nxt, out, restarted = step(state, u, v)
        keep = is_late = None
        if t < careful:
            commit(out)
        else:
            keep = np.ones(live.size, bool)
            if restarted.size:
                wr = wid[restarted]
                opens = t < open_end[wr]
                keep[restarted[~opens]] = False
                late = opens & (t >= switch[wr])
                new = np.full(restarted.size, -1, np.intp)
                w_late = wr[late]
                if w_late.size:
                    k = n_late[w_late] + np.arange(w_late.size) - np.searchsorted(w_late, w_late)
                    new[late] = k * n_walkers + w_late
                    n_late += np.bincount(w_late, minlength=n_walkers)
                    if n_late.max() > len(late_len):
                        grown = np.zeros((2 * n_late.max(), n_walkers), np.int64)
                        grown[:len(late_len)] = late_len
                        late_len = grown
                cyc[restarted] = new
            is_late = cyc >= 0
            is_early = keep & ~is_late
            is_late &= keep
            commit(out[is_early])
            early += np.bincount(wid[is_early], minlength=n_walkers)
            if is_late.any():
                g = cyc[is_late]
                late_len.ravel()[g] += 1
                records.append((g.astype(rec_type), out[is_late].astype(rec_type)))
            else:
                is_late = None
        t += 1
        if t >= careful:
            # one slot has reached its budget; more have overrun their cut
            stop = active & (early >= budget + (slots > 1))
            if stop.any():
                keep = ~stop[wid] if keep is None else keep & ~stop[wid]
            if is_late is not None and (t >= open_end).any():
                # late cycles whose further arrivals all fall past the cut
                reached = np.cumsum(late_len[:n_late.max()], axis=0).ravel()
                i = is_late.nonzero()[0]
                w = wid[i]
                keep[i[early[w] + reached[cyc[i]] >= budget[w]]] = False
        if keep is None or keep.all():
            state = nxt
        else:
            live, wid, cyc, state = live[keep], wid[keep], cyc[keep], nxt[keep]
            active &= np.bincount(wid, minlength=n_walkers) > 0
    overrun = np.flatnonzero(early > budget)
    if not overrun.size:
        # the arrivals of each late cycle that fall inside its walker's cut:
        # a step records at most one arrival per cycle, in cycle order
        before = np.cumsum(late_len, axis=0) - late_len
        take = np.clip(budget - early - before, 0, late_len).ravel()
        for g, codes in records:
            kept = take[g] > 0
            take[g[kept]] -= 1
            commit(codes[kept])
    counts += np.bincount(buf[:filled], minlength=n_codes)
    return counts, overrun


def _arrival_counts(graph: CitationGraph, params: WalkParams) -> np.ndarray:
    """Arrivals per node and edge class, int64 (nodes x ``N_CLASSES``).

    Walker w draws from ``np.random.default_rng(walker_seed(seed, w))``:
    each lockstep step takes a row of uniforms u and one of v for all its
    slots.  Its counts are its restart cycles' arrivals, joined in start
    order and cut once at its budget (``_group_counts``), so they have the
    law of one surfer's first ``budget`` arrivals, whatever its slot count.
    The slots of a group of walkers step together, each on its own walker's
    draws, so the counts do not depend on the grouping either.  A group in
    which a walker's early cycles overran its cut is run again with that
    walker's every cycle recorded; the draws are the same, so the result is
    too.  Counts of the literal copies are added to their papers.
    """
    step, n_states = _sampler(graph, params)
    df = params.damping_df
    counts = None
    for group in _walker_groups(params):
        windows = [_window(budget, slots, df) for _, budget, slots in group]
        while True:
            got, overrun = _group_counts(step, n_states, params.seed, group, windows)
            if not overrun.size:
                break
            for i in overrun:
                windows[i] = group[i][1]
        counts = got if counts is None else np.add(counts, got, out=counts)
    return fold_copies(counts.reshape(n_states, N_CLASSES), graph)


def fold_copies(per_state: np.ndarray, graph: CitationGraph) -> np.ndarray:
    """Per-node values of per-state ones: each literal copy's value is added
    to its paper (in place) and the copy rows are dropped."""
    n_a, n = graph.n_authors, graph.n_nodes
    if len(per_state) > n:
        per_state[n_a:n] += per_state[n:]
    return per_state[:n]


def score_arrivals(graph: CitationGraph, arrivals: np.ndarray, params: WalkParams) -> ScoreTable:
    """Scores from arrivals per node (authors, then papers) and edge class
    (``N_CLASSES`` columns), counted by the walk or expected by the oracle.

    The raw score weights the classes by their c-weights in units of the
    largest one, restart and fake picks both by the restart weight.  Raw
    scores that sum to zero raise ValueError.
    """
    weights = np.array([params.restarting_weight, params.restarting_weight,
                        params.wrote_weight, params.cite_weight, params.iswb_weight])
    raw = (arrivals * (weights / weights.max())).sum(axis=1)
    if raw.sum() <= 0:
        raise ValueError("the walk accumulates no score mass (all c-weights on unused edges?)")
    return ScoreTable.over_all(graph, raw)


def pira_rank(graph: CitationGraph, params: WalkParams) -> ScoreTable:
    """Run the walk for `step_budget` arrivals and return normalized scores.

    The budget is split evenly across walkers; walker i draws from its own
    RNG stream derived from (seed, i) and counts one surfer's first
    arrivals up to its share, with exactly that surfer's law.  Its restart
    cycles run side by side in lockstep slots, as many as its budget and
    ``damping_df`` give for speed, so the result depends on the params only.
    Arrivals are counted per node and edge class as integers and scored by
    ``score_arrivals``.  With unit weights the raw scores therefore sum to
    the step budget exactly, nodes with equal arrivals per class tie
    exactly, and the counts do not depend on the weights at all.
    """
    if graph.n_nodes == 0:
        raise ValueError("cannot rank an empty graph")
    return score_arrivals(graph, _arrival_counts(graph, params), params)
