"""Deterministic generators for qualitative ranking scenarios.

Each generator builds a small citation graph around a designated pair of
nodes together with the ordering assertions the structure is meant to
produce, so a test suite can check which measures separate the pair and
which cannot.  Generation is purely structural: the same spec always yields
the same graph.

The four pair-comparison scenarios (paper quality, co-author count, citing
quality, self-citation) assert one ordering of their pair for each of
``pub``, ``cit``, ``pr_a`` and ``pira``.  The ``pira`` assertion reads
``(node_a, ">", node_b)``, with node_a the author a good measure ranks
higher; a measure separates the pair exactly when its assertion equals
that one.

Padding adds isolated author-paper pairs so rank positions have a
population without disturbing the scenario structure.
"""

from __future__ import annotations

import enum
import inspect
import numbers
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import baselines
from .graph import CitationGraph, _clean, build_graph
from .ingest import _split_table
from .oracle import expected_scores
from .walk import ScoreTable, WalkParams


class ScenarioKind(enum.Enum):
    PAPER_QUALITY = "paper-quality"
    COAUTHOR_COUNT = "coauthor-count"
    CITING_QUALITY = "citing-quality"
    SELF_CITATION = "self-citation"
    CITATION_LOOP = "citation-loop"
    SINGLE_REF_CHAIN = "single-ref-chain"


# relative tolerance of an assertion's relation, scaled by the larger score
REL_TOL = 1e-9


@dataclass(frozen=True)
class Assertion:
    """`measure` scores `node_a` `relation` `node_b`.  Every field must be
    a non-empty str that fits one file line (``graph._clean``'s rule for
    ids), and the relation ``<``, ``=`` or ``>``; else ValueError."""

    measure: str
    node_a: str
    relation: str  # ">", "<" or "="
    node_b: str

    def __post_init__(self) -> None:
        fields = (self.measure, self.node_a, self.relation, self.node_b)
        if not _clean(fields, (), ()) or self.relation not in ("<", "=", ">"):
            raise ValueError(f"invalid assertion {fields}: every field must be a non-empty str "
                             "without tabs or line breaks, and the relation '<', '=' or '>'")

    def __str__(self) -> str:
        return f"{self.measure}\t{self.node_a}\t{self.relation}\t{self.node_b}"


@dataclass(frozen=True)
class ScenarioSpec:
    """A scenario kind and the generator sizes it overrides.  A kind that
    is not a ``ScenarioKind`` (its value string included), or params that
    are not a Mapping, raise ValueError naming the field."""

    kind: ScenarioKind
    params: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.kind, ScenarioKind):
            raise ValueError(f"kind must be a ScenarioKind, got {self.kind!r}")
        if not isinstance(self.params, Mapping):
            raise ValueError(f"params must be a Mapping, got {self.params!r}")


@dataclass(frozen=True)
class Scenario:
    """Generated graph plus its expected orderings."""

    kind: ScenarioKind
    graph: CitationGraph
    assertions: tuple[Assertion, ...]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


# a generator takes its sizes as keyword-only parameters, each with its
# default, and returns its node and edge lists (authors, papers, wrote,
# cites) and its assertions; ``generate`` pads the lists, builds the graph
# and wraps both
_Parts = tuple[list, list, list, list, tuple[Assertion, ...]]


def _pad(authors, papers, wrote, padding: int) -> None:
    for i in range(padding):
        a, p = f"pad_a_{i:03d}", f"pad_p_{i:03d}"
        authors.append((a, f"Padding Author {i}", True))
        papers.append((p, f"Padding Paper {i}", True))
        wrote.append((a, p))


def _paper_quality(*, citers: int = 10, other_papers: int = 2) -> _Parts:
    _require(citers >= 1, "citers must be at least 1")
    _require(other_papers >= 2, "other_papers must be at least 2")

    authors = [("a1", "Single Strong Paper", True), ("a2", "Many Quiet Papers", True)]
    papers = [("pa1", "The Referential Paper", True)]
    wrote = [("a1", "pa1")]
    cites = []
    for i in range(other_papers):
        papers.append((f"q{i + 1}", f"Quiet Paper {i + 1}", True))
        wrote.append(("a2", f"q{i + 1}"))
    for i in range(citers):
        pid, aid = f"e{i + 1:02d}", f"ea{i + 1:02d}"
        papers.append((pid, f"Citing Paper {i + 1}", False))
        authors.append((aid, f"Citing Author {i + 1}", False))
        wrote.append((aid, pid))
        cites.append((pid, "pa1"))
    assertions = (
        Assertion("pub", "a1", "<", "a2"),
        Assertion("cit", "a1", ">", "a2"),
        Assertion("pr_a", "a1", ">", "a2"),
        Assertion("pira", "a1", ">", "a2"),
    )
    return authors, papers, wrote, cites, assertions


def _coauthor_count(*, citations: int = 5, coauthors: int = 10) -> _Parts:
    _require(citations >= 1, "citations must be at least 1")
    _require(coauthors >= 2, "coauthors must be at least 2")

    authors = [("a1", "Solo Author", True), ("a4", "Crowd Author", True)]
    papers = [("p1", "Solo Paper", True), ("p4", "Crowd Paper", True)]
    wrote = [("a1", "p1"), ("a4", "p4")]
    cites = []
    for i in range(coauthors - 1):
        aid = f"co{i + 1:02d}"
        authors.append((aid, f"Co-author {i + 1}", True))
        wrote.append((aid, "p4"))
    for target, tag in (("p1", "x"), ("p4", "y")):
        for i in range(citations):
            pid, aid = f"e{tag}{i + 1:02d}", f"ea{tag}{i + 1:02d}"
            papers.append((pid, f"Citer {tag}{i + 1}", False))
            authors.append((aid, f"Citer Author {tag}{i + 1}", False))
            wrote.append((aid, pid))
            cites.append((pid, target))
    assertions = (
        Assertion("pub", "a1", "=", "a4"),
        Assertion("cit", "a1", "=", "a4"),
        Assertion("pr_a", "a1", ">", "a4"),
        Assertion("pira", "a1", ">", "a4"),
    )
    return authors, papers, wrote, cites, assertions


def _citing_quality(*, strong_citations: int = 16, weak_citations: int = 1) -> _Parts:
    _require(strong_citations > weak_citations >= 1,
             "need strong_citations > weak_citations >= 1")

    # the second-hop citers carry no authors: the one-hop author graph then
    # sees perfectly symmetric inflow for b1 and b2, while the walk on the
    # bipartite graph still funnels through the well-cited citer
    authors = [
        ("b1", "Cited By Quality", True),
        ("b2", "Cited By Obscurity", True),
        ("c1a", "Strong Citer Author", False),
        ("c2a", "Weak Citer Author", False),
    ]
    papers = [
        ("pb1", "Quality-cited Paper", True),
        ("pb2", "Obscurity-cited Paper", True),
        ("c1", "Strong Citing Paper", False),
        ("c2", "Weak Citing Paper", False),
    ]
    wrote = [("b1", "pb1"), ("b2", "pb2"), ("c1a", "c1"), ("c2a", "c2")]
    cites = [("c1", "pb1"), ("c2", "pb2")]
    for i in range(strong_citations):
        pid = f"d1_{i + 1:02d}"
        papers.append((pid, f"Distant Citer of Strong {i + 1}", False))
        cites.append((pid, "c1"))
    for i in range(weak_citations):
        pid = f"d2_{i + 1:02d}"
        papers.append((pid, f"Distant Citer of Weak {i + 1}", False))
        cites.append((pid, "c2"))
    assertions = (
        Assertion("pub", "b1", "=", "b2"),
        Assertion("cit", "b1", "=", "b2"),
        Assertion("pr_a", "b1", "=", "b2"),
        Assertion("pira", "b1", ">", "b2"),
    )
    return authors, papers, wrote, cites, assertions


def _self_citation(*, pubs: int = 10, external_citations: int = 3,
                   citer_quality: int = 25) -> _Parts:
    _require(pubs >= 2, "pubs must be at least 2")
    _require(external_citations >= 1, "external_citations must be at least 1")
    _require(citer_quality >= 1, "citer_quality must be at least 1")

    authors = [("a1", "Self Citer", True), ("a2", "Externally Cited", True)]
    papers = [("q", "Externally Cited Paper", True)]
    wrote = [("a2", "q")]
    cites = []
    # a1: pubs papers, each citing the previous one (pubs - 1 self citations)
    for i in range(pubs):
        pid = f"s{i + 1:02d}"
        papers.append((pid, f"Serial Paper {i + 1}", True))
        wrote.append(("a1", pid))
        if i:
            cites.append((pid, f"s{i:02d}"))
    # a2: external_citations citers, each well cited by citer_quality papers
    for j in range(external_citations):
        cid, caid = f"e{j + 1}", f"ea{j + 1}"
        papers.append((cid, f"External Citer {j + 1}", False))
        authors.append((caid, f"External Citer Author {j + 1}", False))
        wrote.append((caid, cid))
        cites.append((cid, "q"))
        for k in range(citer_quality):
            bid, baid = f"bg{j + 1}_{k + 1:02d}", f"bga{j + 1}_{k + 1:02d}"
            papers.append((bid, f"Background Citer {j + 1}.{k + 1}", False))
            authors.append((baid, f"Background Author {j + 1}.{k + 1}", False))
            wrote.append((baid, bid))
            cites.append((bid, cid))
    assertions = (
        Assertion("pub", "a1", ">", "a2"),
        Assertion("cit", "a1", ">", "a2"),
        Assertion("pr_a", "a2", ">", "a1"),
        Assertion("pira", "a2", ">", "a1"),
    )
    return authors, papers, wrote, cites, assertions


def _citation_loop(*, loop_citers: int = 7, author_pubs: int = 30,
                   control_citers: int = 25) -> _Parts:
    _require(loop_citers >= 1, "loop_citers must be at least 1")
    _require(author_pubs >= 1, "author_pubs must be at least 1")
    _require(control_citers >= 1, "control_citers must be at least 1")

    authors = [
        ("ax", "Author of X", True),
        ("ay", "Author of Y", True),
        ("az", "Author of Control", True),
    ]
    papers = [
        ("x", "Loop Paper X", True),
        ("y", "Loop Paper Y", True),
        ("z", "Well Cited Control", True),
    ]
    wrote = [("ax", "x"), ("ay", "y"), ("az", "z")]
    cites = [("x", "y"), ("y", "x")]
    # the loop authors are prolific: the walk escapes through them
    for owner, tag in (("ax", "x"), ("ay", "y")):
        for i in range(author_pubs):
            pid = f"{tag}p{i + 1:02d}"
            papers.append((pid, f"Other Paper {tag}{i + 1}", True))
            wrote.append((owner, pid))
    for target, tag, count in (("x", "ex", loop_citers), ("y", "ey", loop_citers),
                               ("z", "ez", control_citers)):
        for i in range(count):
            pid = f"{tag}{i + 1:02d}"
            papers.append((pid, f"Citer {tag}{i + 1}", False))
            cites.append((pid, target))
    assertions = (
        Assertion("pr_p_paper", "x", ">", "z"),
        Assertion("pr_p_paper", "y", ">", "z"),
        Assertion("pira_paper", "z", ">", "x"),
        Assertion("pira_paper", "z", ">", "y"),
    )
    return authors, papers, wrote, cites, assertions


def _single_ref_chain(*, length: int = 5, bracket_pubs: int = 7) -> _Parts:
    _require(length >= 2, "length must be at least 2")
    _require(bracket_pubs >= 1, "bracket_pubs must be at least 1")

    authors = [("chain_author", "Chain Author", True), ("bracket_author", "Bracket Author", True)]
    papers = []
    wrote = []
    cites = []
    for i in range(length):
        pid = f"ch{i + 1:02d}"
        papers.append((pid, f"Chain Paper {i + 1}", True))
        wrote.append(("chain_author", pid))
        if i:
            cites.append((pid, f"ch{i:02d}"))
    # the bracket author sits between the chain author's diluted and
    # undiluted scores, so a minimum citation count changes their order
    for i in range(bracket_pubs):
        pid = f"bp{i + 1:02d}"
        papers.append((pid, f"Bracket Paper {i + 1}", True))
        wrote.append(("bracket_author", pid))
    assertions = (Assertion("pira", "chain_author", ">", "bracket_author"),)
    return authors, papers, wrote, cites, assertions


_GENERATORS = {
    ScenarioKind.PAPER_QUALITY: _paper_quality,
    ScenarioKind.COAUTHOR_COUNT: _coauthor_count,
    ScenarioKind.CITING_QUALITY: _citing_quality,
    ScenarioKind.SELF_CITATION: _self_citation,
    ScenarioKind.CITATION_LOOP: _citation_loop,
    ScenarioKind.SINGLE_REF_CHAIN: _single_ref_chain,
}


def generate(spec: ScenarioSpec, padding: int = 0) -> Scenario:
    """Build the scenario graph and its expected ordering assertions.

    ``spec.params`` overrides the generator's size defaults; an unknown key,
    or a padding or size that is no integer (or a bool), raises ValueError.
    """
    generator = _GENERATORS[spec.kind]
    unknown = set(spec.params) - set(inspect.signature(generator).parameters)
    if unknown:
        raise ValueError(f"unknown parameters for {spec.kind.value}: {sorted(unknown)}")
    for name, value in (("padding", padding), *spec.params.items()):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if padding < 0:
        raise ValueError("padding must be non-negative")
    authors, papers, wrote, cites, assertions = generator(**spec.params)
    _pad(authors, papers, wrote, padding)
    return Scenario(spec.kind, build_graph(authors, papers, wrote, cites), assertions)


def assertions_to_tsv(assertions: tuple[Assertion, ...]) -> str:
    return "".join(str(a) + "\n" for a in assertions)


def assertions_from_tsv(text: str, source: str = "<assertions>") -> tuple[Assertion, ...]:
    """Parse `measure<TAB>node_a<TAB>relation<TAB>node_b` lines by the
    dataset files' line rules (``ingest._split_table``); a malformed line or
    invalid ``Assertion`` raises ParseError naming `source` and the line."""
    table = _split_table(text, 4, source, source)
    assertions = []
    for row, fields in enumerate(zip(*table.columns)):
        try:
            assertions.append(Assertion(*fields))
        except ValueError as exc:
            raise table.error(row, str(exc)) from None
    return tuple(assertions)


# the measures read from the oracle's one solve of a graph
PIRA_MEASURES = frozenset({"pira", "pira_paper"})


def measure_scores(graph: CitationGraph, measure: str,
                   oracle_raw: np.ndarray | None = None) -> ScoreTable:
    """Score table for one measure name: ``pira``, ``pira_paper`` or a
    baseline of the ``baselines.MEASURES`` table at its default damping.

    A name that ends in ``_paper`` scores the papers, every other name the
    authors.  The PIRA measures are the exact stationary oracle's scores at
    the default walk parameters, at any size, renormalized over their node
    kind; ``oracle_raw``, when given, is that oracle's ``raw`` for `graph`,
    so it is not solved again.  An unknown name raises ValueError.
    """
    if measure not in PIRA_MEASURES:
        return baselines.measure(graph, measure)
    raw = expected_scores(graph, WalkParams()).raw if oracle_raw is None else oracle_raw
    if measure == "pira":
        return ScoreTable.over_authors(graph, raw[:graph.n_authors])
    return ScoreTable.over_papers(graph, raw[graph.n_authors:])


@dataclass(frozen=True)
class AssertionResult:
    assertion: Assertion
    value_a: float
    value_b: float
    passed: bool


def evaluate_assertions(
    graph: CitationGraph, assertions: tuple[Assertion, ...]
) -> list[AssertionResult]:
    """Check each assertion against freshly computed measure scores.

    Each measure is computed once, and the oracle is solved once for both
    PIRA measures.  A measure whose name ends in ``_paper`` scores papers,
    any other measure authors; a node that the assertion's measure does not
    score, or a measure ``measure_scores`` does not know, raises ValueError.
    """
    cache: dict[str, np.ndarray] = {}
    oracle_raw = None
    results = []
    for a in assertions:
        if a.measure not in cache:
            if a.measure in PIRA_MEASURES and oracle_raw is None:
                oracle_raw = expected_scores(graph, WalkParams()).raw
            cache[a.measure] = measure_scores(graph, a.measure, oracle_raw).normalized
        scores = cache[a.measure]
        index = graph.paper_index if a.measure.endswith("_paper") else graph.author_index
        for node in (a.node_a, a.node_b):
            if node not in index:
                raise ValueError(f"assertion '{a.measure} {a.node_a} {a.relation} {a.node_b}': "
                                 f"measure {a.measure!r} scores no node {node!r}")
        va, vb = float(scores[index[a.node_a]]), float(scores[index[a.node_b]])
        tol = REL_TOL * max(abs(va), abs(vb), 1e-300)
        ok = {"=": abs(va - vb) <= tol, ">": va - vb > tol, "<": vb - va > tol}[a.relation]
        results.append(AssertionResult(a, va, vb, ok))
    return results
