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
read-only numpy bool array, all in dense-index order: node ``i`` of a kind
is row ``i`` of that kind's columns.

The adjacency is stored once, as two read-only CSR incidence matrices:
``wrote`` (authors x papers) and ``cite`` (papers x papers).  ``build_graph``
looks every edge id up once and makes each matrix from one numpy sort of the
edge keys ``source * n_targets + target``, which also finds the duplicates.
The exact measures, the counts, the edge listings, ``neighborhood`` and the
merge suggestions read the matrices; the one tuple view, ``cited_by``, is
derived from the transpose of ``cite`` on first use.  The edge listings and
the saved files sort by the ids' order, taken once per kind
(``author_id_order``, ``paper_id_order``), as integer keys.

The walk's three one-hop moves (p-weighted paper pick, uniform reference
and author picks) are the package's one definition of its chain's links:
``to_paper``, ``to_ref`` and ``to_author``, the incidence matrices with
their stored data scaled row by row.  Each is a read-only matrix cached on
the graph on first use, so the walk's transition system, the exact oracle,
PR-P and PR-A share one copy.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from itertools import zip_longest
from typing import Iterable, NamedTuple, Sequence, Union

import numpy as np
import scipy.sparse as sp

from .errors import DanglingEdgeError, GraphBuildError, NodeSpecError


class NodeKind(enum.IntEnum):
    AUTHOR = 0
    PAPER = 1


@dataclass(frozen=True, order=True)
class NodeId:
    """Identity of a node inside one graph: (kind, dense index)."""

    kind: NodeKind
    index: int


def author_id(index: int) -> NodeId:
    return NodeId(NodeKind.AUTHOR, index)


def paper_id(index: int) -> NodeId:
    return NodeId(NodeKind.PAPER, index)


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
    ``author_id_order`` / ``paper_id_order`` are the read-only
    index permutations that sort each kind by id.  The edges are two
    read-only 0/1 CSR matrices with sorted, distinct column indices per
    row; the ``cited_by`` tuple view and the walk's read-only hop matrices
    (``to_paper``, ``to_ref``, ``to_author``) derive from them on first
    use, so they are consistent by construction.  Safe for concurrent
    readers.
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
    def author_id_order(self) -> np.ndarray:  # author indices sorted by ext_id
        return _id_order(self.author_ext_ids)

    @cached_property
    def paper_id_order(self) -> np.ndarray:  # paper indices sorted by ext_id
        return _id_order(self.paper_ext_ids)

    @cached_property
    def _wrote_t(self) -> sp.csr_matrix:  # papers x authors
        return _read_only(self.wrote.T.tocsr())

    @cached_property
    def _cite_t(self) -> sp.csr_matrix:  # cited paper x citing paper
        return _read_only(self.cite.T.tocsr())

    @cached_property
    def to_paper(self) -> sp.csr_matrix:
        """Author -> paper hop, proportional to the paper's p-weight
        1 / co-author count (``wrote`` weighted, then scaled per row)."""
        wrote, coauthors = self.wrote, np.diff(self._wrote_t.indptr)
        p_weight = sp.csr_matrix(
            (wrote.data / coauthors[wrote.indices], wrote.indices, wrote.indptr),
            shape=wrote.shape)
        return _read_only(row_stochastic(p_weight))

    @cached_property
    def to_ref(self) -> sp.csr_matrix:
        """Paper -> cited paper hop, uniform over the references."""
        return _read_only(row_stochastic(self.cite))

    @cached_property
    def to_author(self) -> sp.csr_matrix:
        """Paper -> author hop, uniform over the paper's authors."""
        return _read_only(row_stochastic(self._wrote_t))

    @cached_property
    def cited_by(self) -> tuple[tuple[int, ...], ...]:  # paper index -> papers citing it
        return _rows(self._cite_t)


def _read_only(m: sp.csr_matrix) -> sp.csr_matrix:
    """`m`, with its arrays made read-only: it is shared by every reader of
    the graph."""
    for a in (m.data, m.indices, m.indptr):
        a.flags.writeable = False
    return m


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


def gather(column: Sequence[str], indices: np.ndarray) -> list[str]:
    """``[column[i] for i in indices]``, as one numpy gather over an object
    array view of `column`."""
    return np.array(column, dtype=object)[indices].tolist()


def edge_columns(graph: CitationGraph, author_col: Sequence[str],
                 paper_col: Sequence[str]) -> tuple[EdgeColumns, EdgeColumns]:
    """The wrote and the cite edges sorted by (source id, target id), each
    endpoint given as its entry of `author_col` / `paper_col` (one entry per
    node index).

    Ids are distinct within a kind, so an edge's place in that order is its
    integer key ``source rank * n_papers + target rank``, a node's rank
    being its place in ``author_id_order`` / ``paper_id_order``.  The keys
    are sorted and split back into ranks, and each endpoint column is one
    ``gather`` of the given column at the node indices of those ranks.
    """
    n_p, paper_order = graph.n_papers, graph.paper_id_order
    paper_rank = _ranks(paper_order)

    def columns(m: sp.csr_matrix, source_col: Sequence[str],
                source_order: np.ndarray) -> EdgeColumns:
        rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
        keys = np.sort(_ranks(source_order)[rows] * n_p + paper_rank[m.indices])
        source, target = np.divmod(keys, max(n_p, 1))
        return EdgeColumns(gather(source_col, source_order[source]),
                           gather(paper_col, paper_order[target]))

    return (columns(graph.wrote, author_col, graph.author_id_order),
            columns(graph.cite, paper_col, paper_order))


def _clean(ext_ids: Sequence[str], names: Sequence[str], flags: Sequence[bool]) -> bool:
    """True when every id and name is a non-empty str without a tab or a
    line break (the TSV separators; text mode reads a bare \\r as a line
    break), no id starts with U+FEFF (read as a byte-order mark at the start
    of a file) and every flag is a bool, 0 or 1."""
    try:
        text = "".join(ext_ids) + "".join(names)
        if not set(flags) <= {False, True}:
            return False
    except TypeError:  # a value that is not a str, or an unhashable flag
        return False
    if "\ufeff" in text and any(e.startswith("\ufeff") for e in ext_ids):
        return False
    return not ("" in ext_ids or "" in names or "\t" in text or "\n" in text or "\r" in text)


def _checked_index(ext_ids: Sequence, names: Sequence, flags: Sequence,
                   kind: str) -> dict[str, int]:
    """The id -> index map of the columns, checked node by node in order;
    the first bad node raises NodeSpecError with its position."""
    index: dict[str, int] = {}
    for position, (ext, label, flag) in enumerate(zip(ext_ids, names, flags)):
        if not (isinstance(ext, str) and isinstance(label, str)):
            problem = f"{kind} ({ext!r}, {label!r}): ids and names must be str"
        elif not ext:
            problem = f"{kind} with empty id"
        elif not label:
            problem = f"{kind} {ext!r} has an empty name"
        elif "\t" in (text := ext + label) or "\n" in text or "\r" in text:
            problem = (f"{kind} {ext!r} ({label!r}): "
                       "ids and names may not contain tabs or line breaks")
        elif ext.startswith("\ufeff"):  # a saved file may begin with the id
            problem = f"{kind} {ext!r}: ids may not start with U+FEFF, a file's byte-order mark"
        elif flag not in (False, True):
            problem = f"{kind} {ext!r}: the DBLP flag must be a bool, 0 or 1, got {flag!r}"
        elif ext in index:
            problem = f"duplicate {kind} id {ext!r}"
        else:
            index[ext] = position
            continue
        raise NodeSpecError(problem, kind, position)
    return index


def _bad_shape(items: Sequence, sizes: tuple[int, ...]) -> tuple[int, str]:
    """The position of the first spec or pair whose length is not in
    `sizes`, and what is wrong with it."""
    for position, item in enumerate(items):
        try:
            if len(item) not in sizes:
                return position, (f"{item!r} has length {len(item)}, "
                                  f"not {' or '.join(map(str, sizes))}")
        except TypeError:  # a value without a length
            return position, f"{item!r} is not a sequence"
    raise AssertionError("every item has a right length")


def _node_columns(
    nodes: Sequence[NodeSpec] | NodeColumns, kind: str
) -> tuple[NodeColumns, dict[str, int]]:
    """Checked columns (id and name tuples, a read-only bool array) plus the
    id -> index map.

    Specs become (id, name, flag) columns first, the flag of a 2-field spec
    being True.  The checks run on whole columns; only when one fails, or
    an id repeats, does ``_checked_index`` search the same columns node by
    node, so the first bad node raises its own message.
    """
    if isinstance(nodes, NodeColumns):
        if not len(nodes.ext_ids) == len(nodes.names) == len(nodes.in_dblp):
            raise ValueError("NodeColumns columns differ in length")
        ext_ids, names, flags = tuple(nodes.ext_ids), tuple(nodes.names), nodes.in_dblp
    else:
        specs = nodes if isinstance(nodes, (list, tuple)) else list(nodes)
        try:
            sizes = set(map(len, specs))
        except TypeError:  # a spec that is not a sequence
            sizes = {None}
        if not sizes <= {2, 3}:
            position, problem = _bad_shape(specs, (2, 3))
            raise NodeSpecError(f"{kind} spec {problem}", kind, position)
        columns = list(zip_longest(*specs, fillvalue=True)) or [(), ()]
        if len(columns) == 2:  # 2-field specs only
            columns.append((True,) * len(specs))
        ext_ids, names, flags = columns
    index = dict(zip(ext_ids, range(len(ext_ids)))) if _clean(ext_ids, names, flags) else {}
    if len(index) != len(ext_ids):  # a failed check or a repeated id
        index = _checked_index(ext_ids, names, flags, kind)
    in_dblp = np.array(flags, dtype=bool)
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

    Pairs become one EdgeColumns first; a pair of another size raises
    GraphBuildError, and columns of unequal lengths raise ValueError.  When
    an id is unknown, the columns are looked up again to raise
    DanglingEdgeError for the first edge that has an unknown id, naming its
    source before its target.
    """
    if not isinstance(edges, EdgeColumns):
        pairs = edges if isinstance(edges, (list, tuple)) else list(edges)
        try:
            edges = EdgeColumns([s for s, _ in pairs], [d for _, d in pairs])
        except (TypeError, ValueError):  # a pair of another size, or not a sequence
            position, problem = _bad_shape(pairs, (2,))
            raise GraphBuildError(f"{label} edge {position}: {problem}") from None
    if len(edges.sources) != len(edges.targets):
        raise ValueError("EdgeColumns columns differ in length")
    try:
        return tuple(np.fromiter(map(index.__getitem__, ids), dtype=np.int64, count=len(ids))
                     for index, ids in ((src_index, edges.sources), (dst_index, edges.targets)))
    except (KeyError, TypeError):  # an unknown or an unhashable id
        pass  # find the first edge with one; an id that is not a str names no node
    src, dst = ([index.get(e) if isinstance(e, str) else None for e in ids]
                for index, ids in ((src_index, edges.sources), (dst_index, edges.targets)))
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
    return _read_only(m), len(src) - len(keys)


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
    DanglingEdgeError, a GraphBuildError (so does an id that is not a str,
    an unhashable one included), and an edge pair that is not a sequence of
    two ids raises a plain GraphBuildError.  A bad node raises
    NodeSpecError, also a GraphBuildError: a spec that is not a sequence of
    2 or 3 fields, an id or name that is not a str, an empty or repeated
    id, an empty name, an id, name or title containing a tab or line break
    (the TSV separators), an id starting with U+FEFF (a saved file starting
    with it would load without it, as a byte-order mark) and a DBLP flag
    that is not a bool, 0 or 1.  NodeColumns or EdgeColumns whose columns
    differ in length raise ValueError.  Authors without papers and papers
    without authors are permitted and flagged.
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


def row_stochastic(m: sp.csr_matrix) -> sp.csr_matrix:
    """`m` (non-negative) with each row scaled to sum to one.

    The stored entries keep their order: each entry is multiplied by its
    row's factor.  A row without weight becomes all zero.
    """
    sums = m @ np.ones(m.shape[1])
    scale = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums > 0)
    return sp.csr_matrix((m.data * np.repeat(scale, np.diff(m.indptr)), m.indices, m.indptr),
                         shape=m.shape)


def _row_entries(m: sp.csr_matrix, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entry counts of the given rows of `m`, and their column indices in
    row order."""
    starts, ends = m.indptr[rows], m.indptr[rows + 1]
    counts = ends - starts
    # position of each entry: its row's start plus its offset within the row
    offsets = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    return counts, m.indices[np.repeat(starts, counts) + offsets]


def neighborhood(graph: CitationGraph, center: NodeId, radius: int) -> CitationGraph:
    """Induced subgraph of every node within `radius` hops of `center`.

    All edge kinds count as one hop in either direction.  External ids,
    names/titles and DBLP flags are preserved; dense indices are reassigned
    in the original order.  The search runs level by level on the CSR
    matrices and their transposes, and the edges are sliced from them; the
    kept nodes' columns are gathered and enter the subgraph the way
    ``build_graph``'s NodeColumns do.  A center whose kind is not a
    NodeKind, or a radius that is not a non-negative int, raises ValueError.
    """
    if not isinstance(center.kind, NodeKind):
        raise ValueError(f"center kind must be a NodeKind, got {center.kind!r}")
    if isinstance(radius, bool) or not isinstance(radius, numbers.Integral):
        raise ValueError(f"radius must be an integer, got {radius!r}")
    if radius < 0:
        raise ValueError("radius must be non-negative")
    a, p = NodeKind.AUTHOR, NodeKind.PAPER
    if not 0 <= center.index < (graph.n_authors, graph.n_papers)[center.kind]:
        raise ValueError(f"unknown {center.kind.name.lower()} index {center.index}")
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

    def nodes(kept: np.ndarray, ext_ids: tuple[str, ...], names: tuple[str, ...],
              in_dblp: np.ndarray, kind: str) -> tuple[NodeColumns, dict[str, int]]:
        rows = kept.tolist()  # few rows of long columns: no whole-column gather
        return _node_columns(NodeColumns([ext_ids[i] for i in rows], [names[i] for i in rows],
                                         in_dblp[kept]), kind)

    return _assemble(
        nodes(kept_a, graph.author_ext_ids, graph.author_names, graph.author_in_dblp, "author"),
        nodes(kept_p, graph.paper_ext_ids, graph.paper_titles, graph.paper_in_dblp, "paper"),
        induced(graph.wrote, kept_a),
        induced(graph.cite, kept_p),
    )
