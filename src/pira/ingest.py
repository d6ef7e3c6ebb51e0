"""TSV dataset loading, saving, and author-merge suggestions.

A dataset directory holds four UTF-8 tab-separated files without headers:

* ``authors.tsv``: author_id, name, in_dblp (0 or 1)
* ``papers.tsv``:  paper_id, title, in_dblp
* ``wrote.tsv``:   author_id, paper_id
* ``cites.tsv``:   citing_paper_id, cited_paper_id

Ids are arbitrary non-empty strings without tabs or newlines.  Blank lines
are skipped (they still count in error line numbers), and ``\r\n`` and a
bare ``\r`` end a line like ``\n``.  Each file is read once and split into
columns; the field checks run on whole columns.  Edge ids are checked once,
by ``build_graph``'s index lookup, and an unknown one becomes a ParseError
naming its file and line.  Saving sorts every file, so load -> save is a
fixed point of the serialization.

Merge suggestions flag author pairs whose names are initial-compatible
(same last token, every leading token of the shorter name a prefix of its
counterpart) and that either cite one another's papers or share a
co-author.  Candidates are found by blocking on the last-name token: each
rule is one sparse product over the graph's matrices in which only authors
of the same block can meet, so the cost follows the edges rather than the
square of the largest block, and the name check runs only on the pairs the
products yield.  Suggestions are never applied: duplicate authors are
preferred over accidentally merging two distinct people.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import islice, repeat
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import DanglingEdgeError, MissingFileError, ParseError
from .graph import (CitationGraph, EdgeColumns, NodeColumns, NodeId, author_id, build_graph,
                    edge_ext_ids)

AUTHORS_FILE = "authors.tsv"
PAPERS_FILE = "papers.tsv"
WROTE_FILE = "wrote.tsv"
CITES_FILE = "cites.tsv"


@dataclass(frozen=True)
class LoadReport:
    """Line counts and dropped-edge counts from one load."""

    authors: int
    papers: int
    wrote_lines: int
    cites_lines: int
    wrote_edges: int
    cite_edges: int
    dropped_duplicate_wrote: int
    dropped_duplicate_cites: int
    dropped_self_citations: int
    authors_without_papers: int
    papers_without_authors: int

    def to_text(self) -> str:
        fields = [
            ("authors", self.authors),
            ("papers", self.papers),
            ("wrote_lines", self.wrote_lines),
            ("cites_lines", self.cites_lines),
            ("wrote_edges", self.wrote_edges),
            ("cite_edges", self.cite_edges),
            ("dropped_duplicate_wrote", self.dropped_duplicate_wrote),
            ("dropped_duplicate_cites", self.dropped_duplicate_cites),
            ("dropped_self_citations", self.dropped_self_citations),
            ("authors_without_papers", self.authors_without_papers),
            ("papers_without_authors", self.papers_without_authors),
        ]
        return "".join(f"{k}={v}\n" for k, v in fields)


@dataclass(frozen=True)
class _Table:
    """The non-blank lines of one dataset file, split into columns."""

    path: Path
    text: str  # the whole file, kept only to number lines in error messages
    columns: list[list[str]]

    def __len__(self) -> int:
        return len(self.columns[0])

    def error(self, row: int, message: str) -> ParseError:
        """ParseError at the `row`-th non-blank line; blank lines count in
        the line number."""
        lines = (i for i, line in enumerate(self.text.split("\n"), start=1) if line)
        lineno = next(islice(lines, row, None))
        return ParseError(f"{self.path.name}:{lineno}: {message}", path=str(self.path), line=lineno)


def _first_bad_row(rows: list[str], n_cols: int) -> tuple[int, str]:
    for i, row in enumerate(rows):
        cols = row.split("\t")
        if len(cols) != n_cols:
            return i, f"expected {n_cols} tab-separated fields, got {len(cols)}"
        if "" in cols[:2]:
            return i, "empty field"
    raise AssertionError("no bad row")


def _read_table(path: Path, n_cols: int) -> _Table:
    """Read a file once and split it into `n_cols` columns.

    Every non-blank line must have `n_cols` fields and non-empty first two
    fields (the ids; a node's name).  The checks run on whole columns; the
    first failing line is only looked for when one fails.
    """
    if not path.is_file():
        raise MissingFileError(f"missing dataset file {path.name} in {path.parent}",
                               path=str(path))
    with open(path, encoding="utf-8") as fh:
        text = fh.read()  # text mode reads \r\n and a bare \r as \n
    rows = list(filter(None, text.split("\n")))
    fields = "\t".join(rows).split("\t") if rows else []
    table = _Table(path, text, [fields[i::n_cols] for i in range(n_cols)])
    tabs = list(map(str.count, rows, repeat("\t")))
    if tabs.count(n_cols - 1) != len(rows) or any("" in col for col in table.columns[:2]):
        raise table.error(*_first_bad_row(rows, n_cols))
    return table


def _nodes(table: _Table) -> NodeColumns:
    """The id, name and in_dblp columns, the flags as booleans."""
    col = table.columns[2]
    if col.count("1") + col.count("0") != len(col):
        row = next(i for i, v in enumerate(col) if v not in ("0", "1"))
        raise table.error(row, f"in_dblp flag must be 0 or 1, got {col[row]!r}")
    return NodeColumns(table.columns[0], table.columns[1], list(map("1".__eq__, col)))


def load_graph(directory: str | Path) -> tuple[CitationGraph, LoadReport]:
    """Load a dataset directory into a CitationGraph plus its load report."""
    directory = Path(directory)
    authors_t = _read_table(directory / AUTHORS_FILE, 3)
    papers_t = _read_table(directory / PAPERS_FILE, 3)
    authors, papers = _nodes(authors_t), _nodes(papers_t)
    wrote_t = _read_table(directory / WROTE_FILE, 2)
    cites_t = _read_table(directory / CITES_FILE, 2)
    try:
        graph = build_graph(authors, papers, EdgeColumns(*wrote_t.columns),
                            EdgeColumns(*cites_t.columns))
    except DanglingEdgeError as exc:
        table = wrote_t if exc.edges == "wrote" else cites_t
        raise table.error(exc.position, f"unknown {exc.kind} {exc.ext_id!r}") from None
    report = LoadReport(
        authors=graph.n_authors,
        papers=graph.n_papers,
        wrote_lines=len(wrote_t),
        cites_lines=len(cites_t),
        wrote_edges=graph.n_wrote_edges,
        cite_edges=graph.n_cite_edges,
        dropped_duplicate_wrote=graph.report.dropped_duplicate_wrote,
        dropped_duplicate_cites=graph.report.dropped_duplicate_cites,
        dropped_self_citations=graph.report.dropped_self_citations,
        authors_without_papers=graph.report.authors_without_papers,
        papers_without_authors=graph.report.papers_without_authors,
    )
    return graph, report


def save_graph(graph: CitationGraph, directory: str | Path) -> None:
    """Write the four dataset files, each sorted, to `directory`."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    wrote, cites = edge_ext_ids(graph)
    for name, ext_ids, labels, flags, order in (
        (AUTHORS_FILE, graph.author_ext_ids, graph.author_names, graph.author_in_dblp,
         graph.author_id_order),
        (PAPERS_FILE, graph.paper_ext_ids, graph.paper_titles, graph.paper_in_dblp,
         graph.paper_id_order),
    ):
        flag_of = flags.view(np.uint8).tolist()
        (directory / name).write_text(
            "".join(f"{ext_ids[i]}\t{labels[i]}\t{flag_of[i]}\n" for i in order.tolist()),
            encoding="utf-8",
        )
    (directory / WROTE_FILE).write_text(
        "".join([f"{a}\t{p}\n" for a, p in zip(*wrote)]), encoding="utf-8"
    )
    (directory / CITES_FILE).write_text(
        "".join([f"{s}\t{d}\n" for s, d in zip(*cites)]), encoding="utf-8"
    )


def write_idmap(graph: CitationGraph, path: str | Path) -> None:
    """Write the external-id to dense-index mapping: kind, ext_id, index."""
    lines = [f"author\t{e}\t{i}\n" for i, e in enumerate(graph.author_ext_ids)]
    lines += [f"paper\t{e}\t{i}\n" for i, e in enumerate(graph.paper_ext_ids)]
    Path(path).write_text("".join(lines), encoding="utf-8")


class MergeRule(enum.IntEnum):
    SELF_CITATION_INITIAL_MATCH = 1
    COMMON_COAUTHOR_INITIAL_MATCH = 2


@dataclass(frozen=True)
class MergeSuggestion:
    author_a: NodeId
    author_b: NodeId
    rule: MergeRule


def _name_tokens(name: str) -> list[str]:
    return [t.rstrip(".").casefold() for t in name.split() if t.rstrip(".")]


def _tokens_compatible(ta: list[str], tb: list[str]) -> bool:
    """``initial_compatible`` on names already split by ``_name_tokens``."""
    if not ta or not tb:
        return False
    if ta[-1] != tb[-1]:
        return False
    lead_a, lead_b = ta[:-1], tb[:-1]
    short, long_ = (lead_a, lead_b) if len(lead_a) <= len(lead_b) else (lead_b, lead_a)
    for s, l in zip(short, long_):
        if not (l.startswith(s) or s.startswith(l)):
            return False
    return True


def initial_compatible(name_a: str, name_b: str) -> bool:
    """True when the names agree on the last token and every leading token of
    the shorter form is a prefix of its counterpart ("J. YYY" vs "John YYY")."""
    return _tokens_compatible(_name_tokens(name_a), _name_tokens(name_b))


def _entry_rows(m: sp.csr_matrix) -> np.ndarray:
    """The row of each stored entry of `m`, in storage order."""
    return np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))


def _bool_csr(indptr: np.ndarray, cols: np.ndarray, keep: np.ndarray,
              shape: tuple[int, int]) -> sp.csr_matrix:
    """The 0/1 matrix of the entries ``cols[keep]``, in the rows that
    `indptr` lays out over all of `cols`."""
    kept = np.flatnonzero(keep)
    # a row starts after the kept entries that come before its first position
    indptr = np.searchsorted(kept, indptr)
    return sp.csr_matrix((np.ones(len(kept), dtype=bool), cols[kept], indptr), shape=shape)


def _same_group_pairs(
    left: sp.csr_matrix, right: sp.csr_matrix, group: np.ndarray, width: int
) -> np.ndarray:
    """Keys ``a * n + b`` (a < b, sorted) of the author pairs in one group
    where ``left @ right.T`` is non-zero at [a, b] or at [b, a].

    Both operands have one row per author and `width` columns.  The product
    runs over keys, not columns: the entry (row, col) moves to the key of
    (col, group[row]), so two rows meet only on a column they share within
    one group.  The keys number the (col, group) pairs the right operand
    has, so the inner dimension is at most its entry count, not
    ``n_groups * width`` (scipy gives the transposed operand an index
    pointer that long); a left entry whose pair the right operand lacks
    meets nothing.
    """
    n = len(group)

    def entry_groups(m: sp.csr_matrix) -> np.ndarray:
        return np.repeat(group, np.diff(m.indptr))

    # key number + 1 of each (col, group) pair, as a width x n_groups matrix,
    # so looking keys up is one sparse indexing call
    key_of = sp.csr_matrix(
        (np.ones(right.nnz, dtype=np.int64), (right.indices, entry_groups(right))),
        shape=(width, int(group.max(initial=-1)) + 1))
    key_of.data = np.arange(1, key_of.nnz + 1, dtype=key_of.indptr.dtype)

    def shifted(m: sp.csr_matrix) -> sp.csr_matrix:
        if not m.nnz:  # scipy's indexing returns a sparse matrix for no points
            return sp.csr_matrix((n, key_of.nnz), dtype=bool)
        keys = np.asarray(key_of[m.indices, entry_groups(m)]).ravel()
        keys -= 1
        return _bool_csr(m.indptr, keys, keys >= 0, (n, key_of.nnz))

    right_k = shifted(right)
    left_k = right_k if left is right else shifted(left)  # co @ co: one operand
    product = left_k @ right_k.T
    a, b = _entry_rows(product), product.indices
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    return np.unique(lo[lo != hi] * n + hi[lo != hi])


def suggest_merges(graph: CitationGraph) -> list[MergeSuggestion]:
    """Author pairs that are probably the same person, by the two heuristics.

    Candidates are blocked by last name: each rule is one sparse product
    restricted to authors who share a casefolded last-name token (see
    ``_same_group_pairs``), and ``initial_compatible``'s check runs only on
    the pairs it yields.  The self-citation rule fires where
    ``wrote @ cite @ wrote.T`` is non-zero at [a, b] or [b, a]; the
    co-author rule where ``co @ co`` is, ``co`` being ``wrote @ wrote.T``
    without its diagonal, so the shared co-author is neither a nor b.
    Pairs are unordered (smaller index first), one suggestion per rule that
    fires, sorted by (rule, author_a, author_b).  Nothing is merged.
    """
    n = graph.n_authors
    tokens = list(map(_name_tokens, graph.author_names))
    # a name without tokens is a group of its own (its author's index as the
    # key), so it never pairs
    group_of: dict[object, int] = {}
    group = np.fromiter(
        (group_of.setdefault(t[-1] if t else a, len(group_of)) for a, t in enumerate(tokens)),
        dtype=np.int32, count=n)
    wrote = graph.wrote.astype(bool)  # 0/1 products need no float counts
    shared = wrote @ wrote.T  # authors x authors: 1 where they share a paper
    co = _bool_csr(shared.indptr, shared.indices, _entry_rows(shared) != shared.indices, (n, n))
    del shared
    rules = (
        (MergeRule.SELF_CITATION_INITIAL_MATCH,
         _same_group_pairs(wrote @ graph.cite.astype(bool), wrote, group, graph.n_papers)),
        (MergeRule.COMMON_COAUTHOR_INITIAL_MATCH, _same_group_pairs(co, co, group, n)),
    )
    suggestions = []
    for rule, pairs in rules:
        for a, b in zip(*(half.tolist() for half in np.divmod(pairs, max(n, 1)))):
            if _tokens_compatible(tokens[a], tokens[b]):
                suggestions.append(MergeSuggestion(author_id(a), author_id(b), rule))
    return suggestions
