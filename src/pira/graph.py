"""Immutable bipartite author-paper graph with typed edges.

Authors connect to papers through ``wrote`` edges; papers connect to papers
through directed ``cites`` edges.  The reverse direction of ``wrote``
(paper -> author) is not stored separately: it is always derived as the
inverse adjacency, so the two views cannot drift apart.

Nodes carry a dense integer index per kind (fast array-based walkers) plus a
stable external string id (``ext_id``) used by every file format and by
subgraph extraction, where dense indices are reassigned.

The node data is stored as columns, one set per kind: the external ids and
the names (titles for papers) as tuples of ``str``, and the DBLP flags as a
read-only numpy bool array, all in dense-index order.  The ``Author`` and
``Paper`` records are views built from the columns on first read.

The adjacency is stored once, as two read-only CSR incidence matrices:
``wrote`` (authors x papers) and ``cite`` (papers x papers).  ``build_graph``
looks every edge id up once and makes each matrix from one numpy sort of the
edge keys ``source * n_targets + target``, which also finds the duplicates.
The exact measures, the counts, the edge listings, ``neighborhood`` and the
merge suggestions read the matrices; the one tuple view, ``cited_by``, is
derived from the transpose of ``cite`` on first use.  The edge listings and
the saved files sort by the ids' order, taken once per kind
(``author_id_order``, ``paper_id_order``), as integer keys.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
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


class NodeColumns(NamedTuple):
    """Nodes of one kind as three parallel columns: node ``i`` has the id
    ``ext_ids[i]``, the name (or title) ``names[i]`` and the DBLP flag
    ``in_dblp[i]``."""

    ext_ids: Sequence[str]
    names: Sequence[str]
    in_dblp: Sequence[bool]


@dataclass(frozen=True, eq=False)  # holds arrays; __eq__ below, unhashable
class CitationGraph:
    """Bipartite citation graph, immutable after construction.

    Node data is held in per-kind columns in dense-index order: ids and
    names (titles) as tuples of str, DBLP flags as read-only bool arrays.
    ``authors`` and ``papers`` are record views built from them on first
    read, and ``author_id_order`` / ``paper_id_order`` are the read-only
    index permutations that sort each kind by id.  The edges are two
    read-only 0/1 CSR matrices with sorted, distinct column indices per
    row; the ``cited_by`` tuple view derives from them, so it is consistent
    by construction.  Safe for concurrent readers.
    """

    author_ext_ids: tuple[str, ...]
    author_names: tuple[str, ...]
    author_in_dblp: np.ndarray  # bool, read-only
    paper_ext_ids: tuple[str, ...]
    paper_titles: tuple[str, ...]
    paper_in_dblp: np.ndarray   # bool, read-only
    wrote: sp.csr_matrix  # authors x papers: 1 where the author wrote the paper
    cite: sp.csr_matrix   # papers x papers: 1 where the row paper cites the column
    report: BuildReport
    author_index: dict[str, int] = field(repr=False)  # ext_id -> dense index
    paper_index: dict[str, int] = field(repr=False)

    def __eq__(self, other: object) -> bool:
        """Same node columns, same build report and the same edges."""
        if not isinstance(other, CitationGraph):
            return NotImplemented
        return (
            self.author_ext_ids == other.author_ext_ids
            and self.author_names == other.author_names
            and np.array_equal(self.author_in_dblp, other.author_in_dblp)
            and self.paper_ext_ids == other.paper_ext_ids
            and self.paper_titles == other.paper_titles
            and np.array_equal(self.paper_in_dblp, other.paper_in_dblp)
            and self.report == other.report
            and all(
                np.array_equal(m.indptr, o.indptr) and np.array_equal(m.indices, o.indices)
                for m, o in ((self.wrote, other.wrote), (self.cite, other.cite))
            )
        )

    @property
    def n_authors(self) -> int:
        return len(self.author_ext_ids)

    @property
    def n_papers(self) -> int:
        return len(self.paper_ext_ids)

    @property
    def n_nodes(self) -> int:
        return self.n_authors + self.n_papers

    @property
    def n_wrote_edges(self) -> int:
        return self.wrote.nnz

    @property
    def n_cite_edges(self) -> int:
        return self.cite.nnz

    @cached_property
    def authors(self) -> tuple[Author, ...]:
        return tuple(map(Author, map(author_id, range(self.n_authors)), self.author_ext_ids,
                         self.author_names, self.author_in_dblp.tolist()))

    @cached_property
    def papers(self) -> tuple[Paper, ...]:
        return tuple(map(Paper, map(paper_id, range(self.n_papers)), self.paper_ext_ids,
                         self.paper_titles, self.paper_in_dblp.tolist()))

    @cached_property
    def author_id_order(self) -> np.ndarray:  # author indices sorted by ext_id
        return _id_order(self.author_ext_ids)

    @cached_property
    def paper_id_order(self) -> np.ndarray:  # paper indices sorted by ext_id
        return _id_order(self.paper_ext_ids)

    @cached_property
    def _wrote_t(self) -> sp.csr_matrix:  # papers x authors
        return self.wrote.T.tocsr()

    @cached_property
    def _cite_t(self) -> sp.csr_matrix:  # cited paper x citing paper
        return self.cite.T.tocsr()

    @cached_property
    def cited_by(self) -> tuple[tuple[int, ...], ...]:  # paper index -> papers citing it
        return _rows(self._cite_t)

    def node(self, node: NodeId) -> Author | Paper:
        """Look up the Author or Paper record for a NodeId."""
        i = node.index
        if node.kind == NodeKind.AUTHOR:
            if not 0 <= i < self.n_authors:
                raise ValueError(f"unknown author index {i}")
            return Author(node, self.author_ext_ids[i], self.author_names[i],
                          bool(self.author_in_dblp[i]))
        if not 0 <= i < self.n_papers:
            raise ValueError(f"unknown paper index {i}")
        return Paper(node, self.paper_ext_ids[i], self.paper_titles[i],
                     bool(self.paper_in_dblp[i]))

    def ext_id(self, node: NodeId) -> str:
        return self.node(node).ext_id


def _rows(m: sp.csr_matrix) -> tuple[tuple[int, ...], ...]:
    """The column indices of each row of `m`, as tuples of plain ints."""
    cols = tuple(m.indices.tolist())  # slicing a tuple gives the row tuples
    bounds = m.indptr.tolist()
    return tuple([cols[a:b] for a, b in zip(bounds, bounds[1:])])


def _id_order(ext_ids: tuple[str, ...]) -> np.ndarray:
    order = np.array(sorted(range(len(ext_ids)), key=ext_ids.__getitem__), dtype=np.int64)
    order.flags.writeable = False  # shared by every reader of the graph
    return order


def _ranks(order: np.ndarray) -> np.ndarray:
    """The place of each index in the permutation `order`."""
    ranks = np.empty_like(order)
    ranks[order] = np.arange(len(order))
    return ranks


def edge_ext_ids(graph: CitationGraph) -> tuple[EdgeColumns, EdgeColumns]:
    """The wrote and the cite edges as id columns, sorted by (source id,
    target id).

    Ids are distinct within a kind, so an edge's place in that order is its
    integer key ``source rank * n_papers + target rank``, a node's rank
    being its place in ``author_id_order`` / ``paper_id_order``.  The keys
    are sorted and split back into ranks.
    """
    n_p, paper_ext, paper_order = graph.n_papers, graph.paper_ext_ids, graph.paper_id_order
    paper_rank = _ranks(paper_order)

    def columns(m: sp.csr_matrix, source_ext: tuple[str, ...],
                source_order: np.ndarray) -> EdgeColumns:
        rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
        keys = np.sort(_ranks(source_order)[rows] * n_p + paper_rank[m.indices])
        source, target = np.divmod(keys, max(n_p, 1))
        return EdgeColumns(list(map(source_ext.__getitem__, source_order[source].tolist())),
                           list(map(paper_ext.__getitem__, paper_order[target].tolist())))

    return (columns(graph.wrote, graph.author_ext_ids, graph.author_id_order),
            columns(graph.cite, paper_ext, paper_order))


def _checked_specs(specs: Iterable[NodeSpec], kind: str) -> list[tuple[str, str, bool]]:
    """The specs as (ext_id, name, flag) rows, checked one by one in order."""
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


def _clean(ext_ids: Sequence[str], names: Sequence[str]) -> bool:
    """True when every id and name is a non-empty str without a tab or a
    line break (the TSV separators; text mode reads a bare \\r as a line
    break)."""
    try:
        text = "".join(ext_ids) + "".join(names)
    except TypeError:
        return False
    return not ("" in ext_ids or "" in names or "\t" in text or "\n" in text or "\r" in text)


def _node_columns(
    nodes: Sequence[NodeSpec] | NodeColumns, kind: str
) -> tuple[NodeColumns, dict[str, int]]:
    """Checked columns (id and name tuples, a read-only bool array) plus the
    id -> index map.

    The checks run on whole columns.  Only when one fails, or the specs mix
    lengths, do they run spec by spec in ``_checked_specs``, so the first
    bad spec raises its own message.
    """
    if isinstance(nodes, NodeColumns):
        if not len(nodes.ext_ids) == len(nodes.names) == len(nodes.in_dblp):
            raise ValueError("NodeColumns columns differ in length")
        columns = (tuple(nodes.ext_ids), tuple(nodes.names), nodes.in_dblp)
        specs: Iterable[NodeSpec] = zip(*columns)
    else:
        specs = nodes if isinstance(nodes, (list, tuple)) else list(nodes)
        sizes = set(map(len, specs))
        if sizes == {3}:
            columns = tuple(zip(*specs))
        elif sizes == {2}:
            columns = (*zip(*specs), (True,) * len(specs))
        else:  # no specs, or specs of mixed or wrong lengths
            columns = None
    index = None
    if columns is not None and _clean(columns[0], columns[1]):
        index = dict(zip(columns[0], range(len(columns[0]))))
    if index is None or len(index) != len(columns[0]):  # a failed check or a repeated id
        rows = _checked_specs(specs, kind)
        columns = tuple(zip(*rows)) if rows else ((), (), ())
        index = dict(zip(columns[0], range(len(rows))))
    ext_ids, names, flags = columns
    in_dblp = np.fromiter(map(bool, flags), dtype=bool, count=len(ext_ids))
    in_dblp.flags.writeable = False
    return NodeColumns(ext_ids, names, in_dblp), index


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

    When one is unknown, the columns are looked up again to raise
    DanglingEdgeError for the first edge that has an unknown id, naming its
    source before its target.
    """
    if not isinstance(edges, EdgeColumns):
        pairs = list(edges)
        edges = EdgeColumns([s for s, _ in pairs], [d for _, d in pairs])
    try:
        return tuple(np.fromiter(map(index.__getitem__, ids), dtype=np.int64, count=len(ids))
                     for index, ids in ((src_index, edges.sources), (dst_index, edges.targets)))
    except KeyError:
        pass  # find the first edge with an unknown id
    src = list(map(src_index.get, edges.sources))
    dst = list(map(dst_index.get, edges.targets))
    pos = min(col.index(None) if None in col else len(col) for col in (src, dst))
    s_ext, d_ext = edges.sources[pos], edges.targets[pos]
    kind, ext = (src_kind, s_ext) if src[pos] is None else ("paper", d_ext)
    raise DanglingEdgeError(
        f"{label} edge ({s_ext!r}, {d_ext!r}): unknown {kind} {ext!r}",
        edges=label, position=pos, kind=kind, ext_id=ext,
    )


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


def _assemble(
    authors: tuple[NodeColumns, dict[str, int]],
    papers: tuple[NodeColumns, dict[str, int]],
    wrote: tuple[np.ndarray, np.ndarray],
    cites: tuple[np.ndarray, np.ndarray],
    self_cites: int = 0,
) -> CitationGraph:
    """The graph of checked node columns and index edge lists, with the
    edges' matrices and the build report."""
    (a_cols, a_index), (p_cols, p_index) = authors, papers
    n_a, n_p = len(a_cols.ext_ids), len(p_cols.ext_ids)
    wrote_m, dup_wrote = _edge_matrix(*wrote, n_a, n_p)
    cite_m, dup_cites = _edge_matrix(*cites, n_p, n_p)
    report = BuildReport(
        dropped_duplicate_wrote=dup_wrote,
        dropped_duplicate_cites=dup_cites,
        dropped_self_citations=self_cites,
        authors_without_papers=int(np.count_nonzero(np.diff(wrote_m.indptr) == 0)),
        papers_without_authors=int(np.count_nonzero(
            np.bincount(wrote_m.indices, minlength=n_p) == 0)),
    )
    return CitationGraph(
        author_ext_ids=a_cols.ext_ids, author_names=a_cols.names, author_in_dblp=a_cols.in_dblp,
        paper_ext_ids=p_cols.ext_ids, paper_titles=p_cols.names, paper_in_dblp=p_cols.in_dblp,
        wrote=wrote_m, cite=cite_m, report=report, author_index=a_index, paper_index=p_index,
    )


def build_graph(
    authors: Sequence[NodeSpec] | NodeColumns,
    papers: Sequence[NodeSpec] | NodeColumns,
    wrote: Iterable[tuple[str, str]] | EdgeColumns = (),
    cites: Iterable[tuple[str, str]] | EdgeColumns = (),
) -> CitationGraph:
    """Construct a CitationGraph from node specs and string-id edge lists.

    Nodes are specs ((ext_id, name) or (ext_id, name, in_dblp)) or one
    NodeColumns per kind; edges are (source, target) pairs or one
    EdgeColumns.  Duplicate edges and self-citations are dropped (counted in
    the report); an edge endpoint that names no node raises
    DanglingEdgeError, a GraphBuildError, as does an empty or repeated id,
    an empty name, and an id, name or title containing a tab or line break
    (the TSV separators).  Authors without papers and papers without
    authors are permitted and flagged.
    """
    a_nodes = _node_columns(authors, "author")
    p_nodes = _node_columns(papers, "paper")
    a_index, p_index = a_nodes[1], p_nodes[1]
    w_src, w_dst = _edge_indices(wrote, "wrote", "author", a_index, p_index)
    c_src, c_dst = _edge_indices(cites, "cite", "paper", p_index, p_index)
    loops = c_src == c_dst
    self_cites = int(loops.sum())
    if self_cites:
        c_src, c_dst = c_src[~loops], c_dst[~loops]
    return _assemble(a_nodes, p_nodes, (w_src, w_dst), (c_src, c_dst), self_cites)


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


def _row_entries(m: sp.csr_matrix, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entry counts of the given rows of `m`, and their column indices in
    row order."""
    starts, ends = m.indptr[rows], m.indptr[rows + 1]
    counts = ends - starts
    # position of each entry: its row's start plus its offset within the row
    offsets = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    return counts, m.indices[np.repeat(starts, counts) + offsets]


def _sub_nodes(
    ext_ids: tuple[str, ...], names: tuple[str, ...], in_dblp: np.ndarray, kept: np.ndarray
) -> tuple[NodeColumns, dict[str, int]]:
    """The kept nodes' columns, in index order, and their id -> index map."""
    kept_list = kept.tolist()
    sub_ext = tuple([ext_ids[i] for i in kept_list])
    flags = in_dblp[kept]
    flags.flags.writeable = False
    return (NodeColumns(sub_ext, tuple([names[i] for i in kept_list]), flags),
            dict(zip(sub_ext, range(len(sub_ext)))))


def neighborhood(graph: CitationGraph, center: NodeId, radius: int) -> CitationGraph:
    """Induced subgraph of every node within `radius` hops of `center`.

    All edge kinds count as one hop in either direction.  External ids,
    names/titles and DBLP flags are preserved; dense indices are reassigned
    in the original order.  The search runs level by level on the CSR
    matrices and their transposes, and the edges are sliced from them.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    graph.node(center)  # validates existence

    a, p = NodeKind.AUTHOR, NodeKind.PAPER
    seen = [np.zeros(graph.n_authors, dtype=bool), np.zeros(graph.n_papers, dtype=bool)]
    seen[center.kind][center.index] = True
    front = [np.array([center.index] if center.kind == kind else [], dtype=np.int64)
             for kind in (a, p)]
    hops = ((a, p, graph.wrote), (p, a, graph._wrote_t), (p, p, graph.cite), (p, p, graph._cite_t))
    for _ in range(radius):
        reached: list[list[np.ndarray]] = [[], []]
        for source, target, m in hops:
            reached[target].append(_row_entries(m, front[source])[1])
        for kind in (a, p):
            nodes = np.unique(np.concatenate(reached[kind]))
            front[kind] = nodes[~seen[kind][nodes]]
            seen[kind][front[kind]] = True
        if not (len(front[a]) or len(front[p])):
            break

    kept_a, kept_p = np.flatnonzero(seen[a]), np.flatnonzero(seen[p])
    new_p = np.full(graph.n_papers, -1, dtype=np.int64)
    new_p[kept_p] = np.arange(len(kept_p))

    def induced(m: sp.csr_matrix, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        counts, cols = _row_entries(m, rows)
        src, dst = np.repeat(np.arange(len(rows)), counts), new_p[cols]
        return src[dst >= 0], dst[dst >= 0]

    return _assemble(
        _sub_nodes(graph.author_ext_ids, graph.author_names, graph.author_in_dblp, kept_a),
        _sub_nodes(graph.paper_ext_ids, graph.paper_titles, graph.paper_in_dblp, kept_p),
        induced(graph.wrote, kept_a),
        induced(graph.cite, kept_p),
    )
