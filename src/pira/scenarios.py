"""Deterministic generators for qualitative ranking scenarios.

Each generator builds a small citation graph around a designated pair of
nodes together with the ordering assertions the structure is meant to
produce, so a test suite can check which measures separate the pair and
which cannot.  Generation is purely structural: the same spec always yields
the same graph.

Padding adds isolated author-paper pairs so rank positions have a
population without disturbing the scenario structure.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping, Optional

from . import baselines
from .graph import CitationGraph, build_graph
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
    measure: str
    node_a: str
    relation: str  # ">", "<" or "="
    node_b: str

    def __str__(self) -> str:
        return f"{self.measure}\t{self.node_a}\t{self.relation}\t{self.node_b}"


@dataclass(frozen=True)
class ScenarioSpec:
    kind: ScenarioKind
    params: Mapping[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Scenario:
    """Generated graph plus its expected orderings.

    For the four pair-comparison scenarios, ``preferred``/``other`` name the
    designated pair (preferred = the author a good measure ranks higher) and
    ``separates`` records which measures are expected to get the order right.
    """

    kind: ScenarioKind
    graph: CitationGraph
    assertions: tuple[Assertion, ...]
    preferred: Optional[str] = None
    other: Optional[str] = None
    separates: Optional[Mapping[str, bool]] = None


DEFAULT_PARAMS: dict[ScenarioKind, dict[str, int]] = {
    ScenarioKind.PAPER_QUALITY: {"citers": 10, "other_papers": 2},
    ScenarioKind.COAUTHOR_COUNT: {"citations": 5, "coauthors": 10},
    ScenarioKind.CITING_QUALITY: {"strong_citations": 16, "weak_citations": 1},
    ScenarioKind.SELF_CITATION: {
        "pubs": 10,
        "external_citations": 3,
        "citer_quality": 25,
    },
    ScenarioKind.CITATION_LOOP: {
        "loop_citers": 7,
        "author_pubs": 30,
        "control_citers": 25,
    },
    ScenarioKind.SINGLE_REF_CHAIN: {"length": 5, "bracket_pubs": 7},
}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _pad(authors, papers, wrote, padding: int) -> None:
    for i in range(padding):
        a, p = f"pad_a_{i:03d}", f"pad_p_{i:03d}"
        authors.append((a, f"Padding Author {i}", True))
        papers.append((p, f"Padding Paper {i}", True))
        wrote.append((a, p))


def _paper_quality(params: Mapping[str, int], padding: int) -> Scenario:
    citers = params["citers"]
    other_papers = params["other_papers"]
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
    _pad(authors, papers, wrote, padding)

    assertions = (
        Assertion("pub", "a1", "<", "a2"),
        Assertion("cit", "a1", ">", "a2"),
        Assertion("pr_a", "a1", ">", "a2"),
        Assertion("pira", "a1", ">", "a2"),
    )
    return Scenario(
        ScenarioKind.PAPER_QUALITY,
        build_graph(authors, papers, wrote, cites),
        assertions,
        preferred="a1",
        other="a2",
        separates={"pub": False, "cit": True, "pr_a": True, "pira": True},
    )


def _coauthor_count(params: Mapping[str, int], padding: int) -> Scenario:
    citations = params["citations"]
    coauthors = params["coauthors"]
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
    _pad(authors, papers, wrote, padding)

    assertions = (
        Assertion("pub", "a1", "=", "a4"),
        Assertion("cit", "a1", "=", "a4"),
        Assertion("pr_a", "a1", ">", "a4"),
        Assertion("pira", "a1", ">", "a4"),
    )
    return Scenario(
        ScenarioKind.COAUTHOR_COUNT,
        build_graph(authors, papers, wrote, cites),
        assertions,
        preferred="a1",
        other="a4",
        separates={"pub": False, "cit": False, "pr_a": True, "pira": True},
    )


def _citing_quality(params: Mapping[str, int], padding: int) -> Scenario:
    strong = params["strong_citations"]
    weak = params["weak_citations"]
    _require(strong > weak >= 1, "need strong_citations > weak_citations >= 1")

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
    for i in range(strong):
        pid = f"d1_{i + 1:02d}"
        papers.append((pid, f"Distant Citer of Strong {i + 1}", False))
        cites.append((pid, "c1"))
    for i in range(weak):
        pid = f"d2_{i + 1:02d}"
        papers.append((pid, f"Distant Citer of Weak {i + 1}", False))
        cites.append((pid, "c2"))
    _pad(authors, papers, wrote, padding)

    assertions = (
        Assertion("pub", "b1", "=", "b2"),
        Assertion("cit", "b1", "=", "b2"),
        Assertion("pr_a", "b1", "=", "b2"),
        Assertion("pira", "b1", ">", "b2"),
    )
    return Scenario(
        ScenarioKind.CITING_QUALITY,
        build_graph(authors, papers, wrote, cites),
        assertions,
        preferred="b1",
        other="b2",
        separates={"pub": False, "cit": False, "pr_a": False, "pira": True},
    )


def _self_citation(params: Mapping[str, int], padding: int) -> Scenario:
    pubs = params["pubs"]
    ext = params["external_citations"]
    quality = params["citer_quality"]
    _require(pubs >= 2, "pubs must be at least 2")
    _require(ext >= 1, "external_citations must be at least 1")
    _require(quality >= 1, "citer_quality must be at least 1")

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
    # a2: ext external citers, each well cited by `quality` authored papers
    for j in range(ext):
        cid, caid = f"e{j + 1}", f"ea{j + 1}"
        papers.append((cid, f"External Citer {j + 1}", False))
        authors.append((caid, f"External Citer Author {j + 1}", False))
        wrote.append((caid, cid))
        cites.append((cid, "q"))
        for k in range(quality):
            bid, baid = f"bg{j + 1}_{k + 1:02d}", f"bga{j + 1}_{k + 1:02d}"
            papers.append((bid, f"Background Citer {j + 1}.{k + 1}", False))
            authors.append((baid, f"Background Author {j + 1}.{k + 1}", False))
            wrote.append((baid, bid))
            cites.append((bid, cid))
    _pad(authors, papers, wrote, padding)

    assertions = (
        Assertion("pub", "a1", ">", "a2"),
        Assertion("cit", "a1", ">", "a2"),
        Assertion("pr_a", "a2", ">", "a1"),
        Assertion("pira", "a2", ">", "a1"),
    )
    return Scenario(
        ScenarioKind.SELF_CITATION,
        build_graph(authors, papers, wrote, cites),
        assertions,
        preferred="a2",
        other="a1",
        separates={"pub": False, "cit": False, "pr_a": True, "pira": True},
    )


def _citation_loop(params: Mapping[str, int], padding: int) -> Scenario:
    loop_citers = params["loop_citers"]
    author_pubs = params["author_pubs"]
    control_citers = params["control_citers"]
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
    _pad(authors, papers, wrote, padding)

    assertions = (
        Assertion("pr_p_paper", "x", ">", "z"),
        Assertion("pr_p_paper", "y", ">", "z"),
        Assertion("pira_paper", "z", ">", "x"),
        Assertion("pira_paper", "z", ">", "y"),
    )
    return Scenario(
        ScenarioKind.CITATION_LOOP,
        build_graph(authors, papers, wrote, cites),
        assertions,
    )


def _single_ref_chain(params: Mapping[str, int], padding: int) -> Scenario:
    length = params["length"]
    bracket_pubs = params["bracket_pubs"]
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
    _pad(authors, papers, wrote, padding)

    assertions = (Assertion("pira", "chain_author", ">", "bracket_author"),)
    return Scenario(
        ScenarioKind.SINGLE_REF_CHAIN,
        build_graph(authors, papers, wrote, cites),
        assertions,
    )


_GENERATORS = {
    ScenarioKind.PAPER_QUALITY: _paper_quality,
    ScenarioKind.COAUTHOR_COUNT: _coauthor_count,
    ScenarioKind.CITING_QUALITY: _citing_quality,
    ScenarioKind.SELF_CITATION: _self_citation,
    ScenarioKind.CITATION_LOOP: _citation_loop,
    ScenarioKind.SINGLE_REF_CHAIN: _single_ref_chain,
}


def generate(spec: ScenarioSpec, padding: int = 0) -> Scenario:
    """Build the scenario graph and its expected ordering assertions."""
    if padding < 0:
        raise ValueError("padding must be non-negative")
    params = dict(DEFAULT_PARAMS[spec.kind])
    unknown = set(spec.params) - set(params)
    if unknown:
        raise ValueError(f"unknown parameters for {spec.kind.value}: {sorted(unknown)}")
    params.update(spec.params)
    return _GENERATORS[spec.kind](params, padding)


def assertions_to_tsv(assertions: tuple[Assertion, ...]) -> str:
    return "".join(str(a) + "\n" for a in assertions)


def assertions_from_tsv(text: str) -> tuple[Assertion, ...]:
    out = []
    for line in text.splitlines():
        if not line.strip():
            continue
        measure, a, rel, b = line.split("\t")
        out.append(Assertion(measure, a, rel, b))
    return tuple(out)


def measure_scores(graph: CitationGraph, measure: str) -> ScoreTable:
    """Score table for one measure name.

    ``pira_paper`` and ``pr_p_paper`` score the papers, every other measure
    the authors.  The PIRA measures are the exact stationary oracle's
    scores at the default walk parameters, at any size, renormalized over
    their node kind.
    """
    if measure == "pub":
        return ScoreTable.over_authors(graph, baselines.pub_count(graph))
    if measure == "cit":
        return ScoreTable.over_authors(graph, baselines.cit_count(graph))
    if measure == "hindex":
        return ScoreTable.over_authors(graph, baselines.h_index(graph))
    if measure == "pr_a":
        return ScoreTable.over_authors(graph, baselines.pr_a(graph))
    if measure == "pr_p":
        return ScoreTable.over_authors(graph, baselines.pr_p(graph))
    if measure == "pr_p_paper":
        return ScoreTable.over_papers(graph, baselines.paper_pagerank(graph))
    if measure == "pira":
        raw = expected_scores(graph, WalkParams()).raw
        return ScoreTable.over_authors(graph, raw[:graph.n_authors])
    if measure == "pira_paper":
        raw = expected_scores(graph, WalkParams()).raw
        return ScoreTable.over_papers(graph, raw[graph.n_authors:])
    raise ValueError(f"unknown measure {measure!r}")


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

    A node that the assertion's measure does not score (see
    ``measure_scores`` for the node kind of each) raises ValueError.
    """
    cache: dict[str, dict[str, float]] = {}
    results = []
    for a in assertions:
        if a.measure not in cache:
            cache[a.measure] = measure_scores(graph, a.measure).by_ext_id()
        scores = cache[a.measure]
        for node in (a.node_a, a.node_b):
            if node not in scores:
                raise ValueError(f"assertion '{a.measure} {a.node_a} {a.relation} {a.node_b}': "
                                 f"measure {a.measure!r} scores no node {node!r}")
        va, vb = scores[a.node_a], scores[a.node_b]
        scale = max(abs(va), abs(vb), 1e-300)
        if a.relation == "=":
            ok = abs(va - vb) <= REL_TOL * scale
        elif a.relation == ">":
            ok = va - vb > REL_TOL * scale
        elif a.relation == "<":
            ok = vb - va > REL_TOL * scale
        else:
            raise ValueError(f"unknown relation {a.relation!r}")
        results.append(AssertionResult(a, va, vb, ok))
    return results
