"""Immutable bipartite author-paper graph with typed edges.

Authors connect to papers through ``wrote`` edges; papers connect to papers
through directed ``cites`` edges.  The reverse direction of ``wrote``
(paper -> author) is not stored separately: it is always derived as the
inverse adjacency, so the two views cannot drift apart.

Nodes carry a dense integer index per kind (fast array-based walkers) plus a
stable external string id (``ext_id``) used by every file format and by
subgraph extraction, where dense indices are reassigned.

The adjacency is stored once, as two read-only CSR incidence matrices:
``wrote`` (authors x papers) and ``cite`` (papers x papers).  ``build_graph``
looks every edge id up once and makes each matrix from one numpy sort of the
edge keys ``source * n_targets + target``, which also finds the duplicates.
The exact measures, the counts and the edge listings read the matrices; the
tuple views ``papers_of``, ``authors_of``, ``refs_of`` and ``cited_by`` are
derived from them (the reverse two from the transposes) on first use, for
callers that walk Python sequences.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence, Union

import numpy as np
import scipy.sparse as sp

from .errors import DanglingEdgeError, GraphBuildError


class NodeKind(enum.IntEnum):
    AUTHOR = 0
    PAPER = 1


@dataclass(frozen=True, order=True)
class NodeId:
    """Identity of a node inside one graph: (kind, dense index)."""

    kind: NodeKind
    index: int

    def __str__(self) -> str:
        return f"{'a' if self.kind == NodeKind.AUTHOR else 'p'}{self.index}"


def author_id(index: int) -> NodeId:
    return NodeId(NodeKind.AUTHOR, index)


def paper_id(index: int) -> NodeId:
    return NodeId(NodeKind.PAPER, index)


@dataclass(frozen=True)
class Author:
    id: NodeId
    ext_id: str
    name: str
    in_dblp: bool = True


@dataclass(frozen=True)
class Paper:
    id: NodeId
    ext_id: str
    title: str
    in_dblp: bool = True


@dataclass(frozen=True)
class BuildReport:
    """Counts of everything build_graph dropped or flagged."""

    dropped_duplicate_wrote: int = 0
    dropped_duplicate_cites: int = 0
    dropped_self_citations: int = 0
    authors_without_papers: int = 0
    papers_without_authors: int = 0


# Node specs accepted by build_graph: (ext_id, name) or (ext_id, name, in_dblp).
NodeSpec = Union[tuple[str, str], tuple[str, str, bool]]


@dataclass(frozen=True, eq=False)  # holds matrices; __eq__ below, unhashable
class CitationGraph:
    """Bipartite citation graph, immutable after construction.

    The edges are two read-only 0/1 CSR matrices with sorted, distinct
    column indices per row; the four tuple views derive from them, so every
    view is consistent by construction.  Safe for concurrent readers.
    """

    authors: tuple[Author, ...]
    papers: tuple[Paper, ...]
    wrote: sp.csr_matrix  # authors x papers: 1 where the author wrote the paper
    cite: sp.csr_matrix   # papers x papers: 1 where the row paper cites the column
    report: BuildReport

    def __eq__(self, other: object) -> bool:
        """Same records, same build report and the same edges."""
        if not isinstance(other, CitationGraph):
            return NotImplemented
        return (
            self.authors == other.authors
            and self.papers == other.papers
            and self.report == other.report
            and all(
                np.array_equal(m.indptr, o.indptr) and np.array_equal(m.indices, o.indices)
                for m, o in ((self.wrote, other.wrote), (self.cite, other.cite))
            )
        )

    @property
    def n_authors(self) -> int:
        return len(self.authors)

    @property
    def n_papers(self) -> int:
        return len(self.papers)

    @property
    def n_nodes(self) -> int:
        return len(self.authors) + len(self.papers)

    @property
    def n_wrote_edges(self) -> int:
        return self.wrote.nnz

    @property
    def n_cite_edges(self) -> int:
        return self.cite.nnz

    @cached_property
    def papers_of(self) -> tuple[tuple[int, ...], ...]:  # author index -> paper indices
        return _rows(self.wrote)

    @cached_property
    def authors_of(self) -> tuple[tuple[int, ...], ...]:  # paper index -> author indices
        return _rows(self.wrote.T.tocsr())

    @cached_property
    def refs_of(self) -> tuple[tuple[int, ...], ...]:  # paper index -> papers it cites
        return _rows(self.cite)

    @cached_property
    def cited_by(self) -> tuple[tuple[int, ...], ...]:  # paper index -> papers citing it
        return _rows(self.cite.T.tocsr())

    @cached_property
    def author_index(self) -> dict[str, int]:
        return {a.ext_id: a.id.index for a in self.authors}

    @cached_property
    def paper_index(self) -> dict[str, int]:
        return {p.ext_id: p.id.index for p in self.papers}

    def node(self, node: NodeId) -> Author | Paper:
        """Look up the Author or Paper record for a NodeId."""
        if node.kind == NodeKind.AUTHOR:
            if not 0 <= node.index < len(self.authors):
                raise ValueError(f"unknown author index {node.index}")
            return self.authors[node.index]
        if not 0 <= node.index < len(self.papers):
            raise ValueError(f"unknown paper index {node.index}")
        return self.papers[node.index]

    def ext_id(self, node: NodeId) -> str:
        return self.node(node).ext_id


def _rows(m: sp.csr_matrix) -> tuple[tuple[int, ...], ...]:
    """The column indices of each row of `m`, as tuples of plain ints."""
    cols = tuple(m.indices.tolist())  # slicing a tuple gives the row tuples
    bounds = m.indptr.tolist()
    return tuple([cols[a:b] for a, b in zip(bounds, bounds[1:])])


def edge_ext_ids(
    graph: CitationGraph,
) -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    """The wrote and the cite edges as sorted (source, target) external-id pairs."""
    author_ext = [a.ext_id for a in graph.authors]
    paper_ext = [p.ext_id for p in graph.papers]

    def pairs(m: sp.csr_matrix, source_ext: list[str]) -> list[tuple[str, str]]:
        rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr)).tolist()
        return sorted(zip(map(source_ext.__getitem__, rows),
                          map(paper_ext.__getitem__, m.indices.tolist())))

    return pairs(graph.wrote, author_ext), pairs(graph.cite, paper_ext)


def _normalize_specs(specs: Sequence[NodeSpec], kind: str) -> list[tuple[str, str, bool]]:
    out = []
    seen: set[str] = set()
    for spec in specs:
        if len(spec) == 2:
            ext, label = spec  # type: ignore[misc]
            flag = True
        else:
            ext, label, flag = spec  # type: ignore[misc]
        if not ext:
            raise GraphBuildError(f"{kind} with empty id")
        if not label:
            raise GraphBuildError(f"{kind} {ext!r} has an empty name")
        # the TSV format's separators; text mode reads a bare \r as a line break
        text = ext + label
        if "\t" in text or "\n" in text or "\r" in text:
            raise GraphBuildError(
                f"{kind} {ext!r} ({label!r}): ids and names may not contain tabs or line breaks"
            )
        if ext in seen:
            raise GraphBuildError(f"duplicate {kind} id {ext!r}")
        seen.add(ext)
        out.append((ext, label, bool(flag)))
    return out


class EdgeColumns(NamedTuple):
    """Edges as two parallel id columns: ``sources[i] -> targets[i]``."""

    sources: Sequence[str]
    targets: Sequence[str]


def _edge_indices(
    edges: Iterable[tuple[str, str]] | EdgeColumns,
    label: str,
    src_kind: str,
    src_index: dict[str, int],
    dst_index: dict[str, int],
) -> tuple[np.ndarray, np.ndarray]:
    """Dense indices of both endpoint columns, each id looked up once.

    An unknown id raises DanglingEdgeError for the first edge that has one,
    naming its source before its target.
    """
    if not isinstance(edges, EdgeColumns):
        pairs = list(edges)
        edges = EdgeColumns([s for s, _ in pairs], [d for _, d in pairs])
    src = list(map(src_index.get, edges.sources))
    dst = list(map(dst_index.get, edges.targets))
    if None in src or None in dst:
        pos = min(col.index(None) if None in col else len(col) for col in (src, dst))
        s_ext, d_ext = edges.sources[pos], edges.targets[pos]
        kind, ext = (src_kind, s_ext) if src[pos] is None else ("paper", d_ext)
        raise DanglingEdgeError(
            f"{label} edge ({s_ext!r}, {d_ext!r}): unknown {kind} {ext!r}",
            edges=label, position=pos, kind=kind, ext_id=ext,
        )
    return np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)


def _edge_matrix(
    src: np.ndarray, dst: np.ndarray, n_src: int, n_dst: int
) -> tuple[sp.csr_matrix, int]:
    """Read-only n_src x n_dst 0/1 matrix of the distinct (src, dst) edges,
    plus the number of duplicate edges dropped."""
    keys = np.sort(src * n_dst + dst)  # by source, then target
    if len(keys):
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    indptr = np.searchsorted(keys, np.arange(n_src + 1) * n_dst)
    indices = keys % n_dst if n_dst else keys
    m = sp.csr_matrix((np.ones(len(keys)), indices, indptr), shape=(n_src, n_dst))
    for a in (m.data, m.indices, m.indptr):
        a.flags.writeable = False  # shared by every reader of the graph
    return m, len(src) - len(keys)


def build_graph(
    authors: Sequence[NodeSpec],
    papers: Sequence[NodeSpec],
    wrote: Iterable[tuple[str, str]] | EdgeColumns = (),
    cites: Iterable[tuple[str, str]] | EdgeColumns = (),
) -> CitationGraph:
    """Construct a CitationGraph from node specs and string-id edge lists.

    Edges are (source, target) pairs or one EdgeColumns.  Duplicate edges and
    self-citations are dropped (counted in the report); an edge endpoint
    that names no node raises DanglingEdgeError, a GraphBuildError, as does
    an id, name or title containing a tab or line break (the TSV
    separators).  Authors without papers and papers without authors are
    permitted and flagged.
    """
    author_rows = _normalize_specs(authors, "author")
    paper_rows = _normalize_specs(papers, "paper")
    n_a, n_p = len(author_rows), len(paper_rows)
    a_index = {ext: i for i, (ext, _, _) in enumerate(author_rows)}
    p_index = {ext: i for i, (ext, _, _) in enumerate(paper_rows)}

    w_src, w_dst = _edge_indices(wrote, "wrote", "author", a_index, p_index)
    c_src, c_dst = _edge_indices(cites, "cite", "paper", p_index, p_index)
    loops = c_src == c_dst
    self_cites = int(loops.sum())
    if self_cites:
        c_src, c_dst = c_src[~loops], c_dst[~loops]

    wrote_m, dup_wrote = _edge_matrix(w_src, w_dst, n_a, n_p)
    cite_m, dup_cites = _edge_matrix(c_src, c_dst, n_p, n_p)

    report = BuildReport(
        dropped_duplicate_wrote=dup_wrote,
        dropped_duplicate_cites=dup_cites,
        dropped_self_citations=self_cites,
        authors_without_papers=int(np.count_nonzero(np.diff(wrote_m.indptr) == 0)),
        papers_without_authors=int(np.count_nonzero(
            np.bincount(wrote_m.indices, minlength=n_p) == 0)),
    )
    return CitationGraph(
        authors=tuple(
            Author(author_id(i), ext, name, flag)
            for i, (ext, name, flag) in enumerate(author_rows)
        ),
        papers=tuple(
            Paper(paper_id(i), ext, title, flag)
            for i, (ext, title, flag) in enumerate(paper_rows)
        ),
        wrote=wrote_m,
        cite=cite_m,
        report=report,
    )


def p_weight(graph: CitationGraph, author: NodeId, paper: NodeId) -> float:
    """Probability weight of a wrote edge: 1 / number of co-authors of the paper."""
    if author.kind != NodeKind.AUTHOR or paper.kind != NodeKind.PAPER:
        raise ValueError("p_weight expects an (author, paper) pair")
    graph.node(author)
    graph.node(paper)
    w = graph.wrote
    if paper.index not in w.indices[w.indptr[author.index]:w.indptr[author.index + 1]]:
        raise ValueError(
            f"no wrote edge between {graph.ext_id(author)!r} and {graph.ext_id(paper)!r}"
        )
    return 1.0 / int(np.count_nonzero(w.indices == paper.index))


def neighborhood(graph: CitationGraph, center: NodeId, radius: int) -> CitationGraph:
    """Induced subgraph of every node within `radius` hops of `center`.

    All edge kinds count as one hop in either direction.  External ids,
    names/titles and DBLP flags are preserved; dense indices are reassigned.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    graph.node(center)  # validates existence

    seen = {center}
    frontier = deque([(center, 0)])
    while frontier:
        node, dist = frontier.popleft()
        if dist == radius:
            continue
        if node.kind == NodeKind.AUTHOR:
            neighbors = [paper_id(p) for p in graph.papers_of[node.index]]
        else:
            pi = node.index
            neighbors = [author_id(a) for a in graph.authors_of[pi]]
            neighbors += [paper_id(p) for p in graph.refs_of[pi]]
            neighbors += [paper_id(p) for p in graph.cited_by[pi]]
        for nb in neighbors:
            if nb not in seen:
                seen.add(nb)
                frontier.append((nb, dist + 1))

    kept_authors = sorted(n.index for n in seen if n.kind == NodeKind.AUTHOR)
    kept_papers = sorted(n.index for n in seen if n.kind == NodeKind.PAPER)
    a_set, p_set = set(kept_authors), set(kept_papers)
    author_specs = [
        (graph.authors[i].ext_id, graph.authors[i].name, graph.authors[i].in_dblp)
        for i in kept_authors
    ]
    paper_specs = [
        (graph.papers[i].ext_id, graph.papers[i].title, graph.papers[i].in_dblp)
        for i in kept_papers
    ]
    wrote_edges = [
        (graph.authors[a].ext_id, graph.papers[p].ext_id)
        for a in kept_authors
        for p in graph.papers_of[a]
        if p in p_set
    ]
    cite_edges = [
        (graph.papers[s].ext_id, graph.papers[d].ext_id)
        for s in kept_papers
        for d in graph.refs_of[s]
        if d in p_set
    ]
    return build_graph(author_specs, paper_specs, wrote_edges, cite_edges)
