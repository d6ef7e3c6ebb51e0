"""Monte Carlo random-walk scorer for the bipartite citation graph.

The surfer alternates between author and paper nodes.  Leaving an author, it
picks one of the author's papers with probability proportional to that
paper's p-weight (1 / co-author count).  At a paper it follows a citation
with probability ``theta``, otherwise it jumps to a uniformly random author
of the paper.  Every arrival increments the destination's counter by the
c-weight of the edge class used (restart / wrote / cite / isWrittenBy) and
consumes one unit of the step budget.  A damping test at each arrival
reinitializes the walk from a random node.

Two execution modes are provided:

* ``INTERPRETED`` (default): the flow described above.
* ``LITERAL``: the four-procedure control flow (init/a2p/p2p/p2a) kept
  exactly, with its two quirks: the citation target is drawn before the
  theta test, so the 1-theta branch re-increments the current paper with
  ``cite_weight`` before jumping to one of its authors, and a paper with
  no outgoing references always reinitializes instead of taking an
  isWrittenBy jump.

``minimum_citation_count`` (K) dilutes thin reference lists: the citation
pick is uniform over max(|refs|, K) slots, and a slot beyond the real
references sends the surfer to a uniformly random paper ("fake" pick).
"""

from __future__ import annotations

import enum
import os
import random
from dataclasses import dataclass, replace
from functools import cached_property, partial
from itertools import accumulate
from typing import Optional

import numpy as np

from .graph import CitationGraph, NodeId

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
    nodes.  ``step_budget`` counts arrivals (counter increments), so with all
    c-weights equal to one the counters sum to the budget exactly.
    ``walkers`` splits the budget into that many independent walks, each
    with its own RNG stream; they run in parallel processes, at most one
    per usable CPU, and the scores depend on (seed, walkers, step_budget)
    only, not on the machine.  Raw counters are the per-walker counter
    arrays summed in walker order.
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

    def validate(self) -> None:
        if not 0.0 <= self.damping_df <= 1.0:
            raise ValueError(f"damping_df must be in [0, 1], got {self.damping_df}")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must be in [0, 1], got {self.theta}")
        if self.restart_author_prob is not None and not 0.0 <= self.restart_author_prob <= 1.0:
            raise ValueError(
                f"restart_author_prob must be in [0, 1], got {self.restart_author_prob}"
            )
        weights = (self.restarting_weight, self.cite_weight, self.wrote_weight, self.iswb_weight)
        if any(w < 0 for w in weights):
            raise ValueError("c-weights must be non-negative")
        if all(w == 0 for w in weights):
            raise ValueError("at least one c-weight must be positive")
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


@dataclass(frozen=True)
class TableRow:
    node: NodeId
    ext_id: str
    in_dblp: bool
    raw: float
    normalized: float


@dataclass(frozen=True, eq=False)  # holds arrays; compare by identity
class ScoreTable:
    """Per-node scores: raw accumulated counters plus a mean-1.0 normalization."""

    nodes: tuple[NodeId, ...]
    ext_ids: tuple[str, ...]
    in_dblp: tuple[bool, ...]
    raw: np.ndarray
    normalized: np.ndarray
    total_arrivals: int = 0

    def __len__(self) -> int:
        return len(self.nodes)

    def rows(self) -> list[TableRow]:
        return [
            TableRow(n, e, d, float(r), float(s))
            for n, e, d, r, s in zip(self.nodes, self.ext_ids, self.in_dblp,
                                     self.raw, self.normalized)
        ]

    @cached_property
    def _pos(self) -> dict[NodeId, int]:
        return {n: i for i, n in enumerate(self.nodes)}

    def raw_of(self, node: NodeId) -> float:
        return float(self.raw[self._pos[node]])

    def normalized_of(self, node: NodeId) -> float:
        return float(self.normalized[self._pos[node]])

    def by_ext_id(self) -> dict[str, float]:
        """Normalized score per external id.

        Raises ValueError when two nodes share an id (an author and a
        paper); filter to one node kind first.
        """
        out: dict[str, float] = {}
        for e, s in zip(self.ext_ids, self.normalized):
            if e in out:
                raise ValueError(f"external id {e!r} names more than one node; "
                                 "filter to a single node kind")
            out[e] = float(s)
        return out

    def to_tsv(self) -> str:
        """`node_id<TAB>raw<TAB>normalized` lines, sorted by node id."""
        order = sorted(range(len(self.nodes)), key=lambda i: self.ext_ids[i])
        lines = [
            f"{self.ext_ids[i]}\t{self.raw[i]:.6f}\t{self.normalized[i]:.6f}"
            for i in order
        ]
        return "\n".join(lines) + "\n" if lines else ""

    @classmethod
    def from_raw(
        cls,
        nodes: tuple[NodeId, ...],
        ext_ids: tuple[str, ...],
        in_dblp: tuple[bool, ...],
        raw: np.ndarray,
        total_arrivals: int = 0,
    ) -> "ScoreTable":
        """Table with ``normalize``d scores; all-zero raw scores stay zero."""
        raw = np.asarray(raw, dtype=float)
        normalized = normalize(raw, len(nodes)) if raw.sum() > 0 else raw.copy()
        return cls(nodes, ext_ids, in_dblp, raw, normalized, total_arrivals)

    @classmethod
    def _over(cls, records, values, total_arrivals: int = 0) -> "ScoreTable":
        return cls.from_raw(
            tuple(r.id for r in records),
            tuple(r.ext_id for r in records),
            tuple(r.in_dblp for r in records),
            values,
            total_arrivals,
        )

    @classmethod
    def over_authors(cls, graph: CitationGraph, values) -> "ScoreTable":
        return cls._over(graph.authors, values)

    @classmethod
    def over_papers(cls, graph: CitationGraph, values) -> "ScoreTable":
        return cls._over(graph.papers, values)

    @classmethod
    def over_all(
        cls, graph: CitationGraph, raw: np.ndarray, total_arrivals: int = 0
    ) -> "ScoreTable":
        """Scores over authors followed by papers, in index order."""
        return cls._over(graph.authors + graph.papers, raw, total_arrivals)


def normalize(raw, n_nodes: int | None = None) -> np.ndarray:
    """Scale raw counters so the mean score over all nodes is 1.0."""
    raw = np.asarray(raw, dtype=float)
    if n_nodes is None:
        n_nodes = len(raw)
    total = raw.sum()
    if total <= 0:
        raise ValueError("cannot normalize all-zero counters")
    return raw * (n_nodes / total)


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def walker_seed(seed: int, walker: int) -> int:
    """Deterministic per-walker RNG seed derived from (seed, walker)."""
    return _splitmix64(_splitmix64(seed & _MASK64) ^ (walker + 1))


def _cumulative_p_weights(graph: CitationGraph) -> list[list[float]]:
    """Per author, the running sums of the p-weights (1 / co-author count)
    of the author's papers, in ``papers_of`` order."""
    wrote = graph.wrote
    per_edge = (1.0 / np.bincount(wrote.indices)[wrote.indices]).tolist()
    bounds = wrote.indptr.tolist()
    return [list(accumulate(per_edge[a:b])) for a, b in zip(bounds, bounds[1:])]


# Walker states: the next arrival is encoded as (node, weight, phase).
# phase distinguishes the literal mode's p2p and p2a procedures.
_P2P = 0
_P2A = 1


def _run_walker(
    counters: list[float],
    graph: CitationGraph,
    author_cumw: list[list[float]],
    params: WalkParams,
    rng: random.Random,
    budget: int,
    restart_author_prob: float,
) -> None:
    """Advance one walker by `budget` arrivals, accumulating into counters.

    Hot loop: everything is bound to locals, node state is a single integer
    (authors in [0, A), papers offset by A).
    """
    rand = rng.random
    author_papers = graph.papers_of
    paper_authors = graph.authors_of
    paper_refs = graph.refs_of
    n_authors = len(author_papers)
    n_papers = len(paper_authors)
    df = params.damping_df
    theta = params.theta
    k_min = params.min_citation_count
    # accumulate in units of the largest c-weight: proportional weight sets
    # then produce bit-identical counters, making rankings exactly scale-free
    w_max = max(params.restarting_weight, params.cite_weight,
                params.wrote_weight, params.iswb_weight)
    w_restart = params.restarting_weight / w_max
    w_cite = params.cite_weight / w_max
    w_wrote = params.wrote_weight / w_max
    w_iswb = params.iswb_weight / w_max
    literal = params.mode == WalkMode.LITERAL
    p_author = restart_author_prob

    def restart() -> tuple[int, float, int]:
        if rand() < p_author:
            return int(rand() * n_authors), w_restart, _P2P
        return n_authors + int(rand() * n_papers), w_restart, _P2P

    node, weight, phase = restart()
    for _ in range(budget):
        counters[node] += weight
        if rand() < df:
            node, weight, phase = restart()
            continue
        if node < n_authors:
            # author -> paper, p-weight proportional
            papers = author_papers[node]
            if not papers:
                node, weight, phase = restart()
                continue
            cw = author_cumw[node]
            u = rand() * cw[-1]
            lo, hi = 0, len(cw) - 1
            while lo < hi:
                mid = (lo + hi) >> 1
                if u < cw[mid]:
                    hi = mid
                else:
                    lo = mid + 1
            node, weight, phase = n_authors + papers[lo], w_wrote, _P2P
            continue
        pi = node - n_authors
        if literal:
            if phase == _P2A:
                authors = paper_authors[pi]
                if not authors:
                    node, weight, phase = restart()
                else:
                    node = authors[int(rand() * len(authors))]
                    weight, phase = w_iswb, _P2P
                continue
            refs = paper_refs[pi]
            n_refs = len(refs)
            if n_refs == 0:
                node, weight, phase = restart()
                continue
            slots = n_refs if n_refs >= k_min else k_min
            s = int(rand() * slots)
            if s >= n_refs:  # fake pick: restart from any paper
                node = n_authors + int(rand() * n_papers)
                weight, phase = w_restart, _P2P
            elif rand() < theta:
                node, weight, phase = n_authors + refs[s], w_cite, _P2P
            else:
                # quirk: re-arrive at the current paper, then jump to an author
                node, weight, phase = n_authors + pi, w_cite, _P2A
            continue
        # interpreted mode
        if rand() < theta:
            refs = paper_refs[pi]
            n_refs = len(refs)
            if n_refs == 0:
                node, weight, phase = restart()
                continue
            slots = n_refs if n_refs >= k_min else k_min
            s = int(rand() * slots)
            if s >= n_refs:
                node = n_authors + int(rand() * n_papers)
                weight = w_restart
            else:
                node, weight = n_authors + refs[s], w_cite
        else:
            authors = paper_authors[pi]
            if not authors:
                node, weight, phase = restart()
                continue
            node = authors[int(rand() * len(authors))]
            weight = w_iswb


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


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity set where the platform
    reports one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _walker_counters(
    graph: CitationGraph,
    author_cumw: list[list[float]],
    params: WalkParams,
    p_author: float,
    task: tuple[int, int],
) -> np.ndarray:
    """Counters of walker `task[0]` after `task[1]` arrivals, drawn from its
    own (seed, walker) RNG stream."""
    walker, budget = task
    counters = [0.0] * graph.n_nodes
    rng = random.Random(walker_seed(params.seed, walker))
    _run_walker(counters, graph, author_cumw, params, rng, budget, p_author)
    return np.array(counters, dtype=float)


# The per-walker function of the pool a worker process serves; set once in
# each worker by the pool initializer, never in the parent.
_worker_job = None


def _adopt_job(job) -> None:
    global _worker_job
    _worker_job = job


def _run_adopted_job(task: tuple[int, int]) -> np.ndarray:
    return _worker_job(task)


def pira_rank(graph: CitationGraph, params: WalkParams) -> ScoreTable:
    """Run the walk for `step_budget` arrivals and return normalized scores.

    The budget is split evenly across walkers, and walker i draws from its
    own RNG stream derived from (seed, i).  Walkers with a non-zero budget
    run in parallel worker processes, at most one per CPU this process may
    use (forked, so they share the graph instead of copying it; in this
    process when there is one walker, one CPU or no ``fork``).  Each walker
    fills its own counter array, and the raw counters are those arrays
    summed in walker order, so the result depends on (seed, walkers,
    step_budget) only, never on the machine or on the number of processes.

    Raw counters are accumulated in units of the largest c-weight (the walk
    itself never depends on the weights), so with unit weights they sum to
    the step budget exactly and rankings are invariant under rescaling all
    four weights.
    """
    import multiprocessing  # here, so that importing pira does not load it

    params.validate()
    if graph.n_nodes == 0:
        raise ValueError("cannot rank an empty graph")
    # build the tuple views and the p-weights once, before any fork
    graph.papers_of, graph.authors_of, graph.refs_of
    job = partial(_walker_counters, graph, _cumulative_p_weights(graph), params,
                  restart_author_share(graph, params))
    base, extra = divmod(params.step_budget, params.walkers)
    tasks = [(w, base + (1 if w < extra else 0))
             for w in range(min(params.walkers, params.step_budget))]
    processes = min(len(tasks), _usable_cpus())
    start = np.zeros(graph.n_nodes)
    # fork: the workers inherit the graph and p-weights instead of
    # unpickling them, and run only the pure-Python walk on them
    if processes > 1 and "fork" in multiprocessing.get_all_start_methods():
        with multiprocessing.get_context("fork").Pool(processes, _adopt_job, (job,)) as pool:
            raw = sum(pool.imap(_run_adopted_job, tasks), start)
    else:
        raw = sum(map(job, tasks), start)
    if raw.sum() <= 0:
        raise ValueError("walk accumulated no score mass (all c-weights on unused edges?)")
    return ScoreTable.over_all(graph, raw, total_arrivals=params.step_budget)
