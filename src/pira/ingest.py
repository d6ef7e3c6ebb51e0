"""TSV dataset loading, saving, and author-merge suggestions.

A dataset directory holds four UTF-8 tab-separated files without headers:

* ``authors.tsv``: author_id, name, in_dblp (0 or 1)
* ``papers.tsv``:  paper_id, title, in_dblp
* ``wrote.tsv``:   author_id, paper_id
* ``cites.tsv``:   citing_paper_id, cited_paper_id

Ids are arbitrary non-empty strings without tabs or newlines.  A leading
UTF-8 byte-order mark is dropped; a U+FEFF anywhere else is content.  Blank
lines are skipped (they still count in error line numbers), and ``\r\n``
and a bare ``\r`` end a line like ``\n``.  Each file is read once and
checked as a whole: one pass over its UTF-8 bytes finds every tab and line
end and checks each line's field count and its two leading fields at once,
then one split makes the columns.  Only when that check fails is the file
looked at line by line, to name the first bad line; a file that is not
valid UTF-8 is reported at the line of its first bad byte.  Edge ids are
checked once, by ``build_graph``'s index lookup, and an unknown one becomes
a ParseError naming its file and line.  Saving sorts every file, so load ->
save is a fixed point of the serialization; each file is written from whole
id-ordered columns (``save_graph``).

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
import re
from dataclasses import asdict, dataclass, fields
from itertools import islice
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .errors import DanglingEdgeError, MissingFileError, NodeSpecError, ParseError
from .graph import (CitationGraph, EdgeColumns, NodeColumns, NodeId, author_id, build_graph,
                    edge_columns, gather)

AUTHORS_FILE = "authors.tsv"
PAPERS_FILE = "papers.tsv"
WROTE_FILE = "wrote.tsv"
CITES_FILE = "cites.tsv"

_BLANK_RUNS = re.compile("\n\n+")


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
        """One ``field=value`` line per field, in declaration order."""
        return "".join(f"{f.name}={getattr(self, f.name)}\n" for f in fields(self))


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


def _well_formed(body: str, n_cols: int) -> bool:
    """Whether every line of `body` has `n_cols` (at least 2) tab-separated
    fields whose first two are non-empty; a blank line fails.

    The check runs on the UTF-8 bytes: a tab or LF byte is never part of a
    multi-byte sequence, so byte positions mark the same fields as the text
    does.  With exactly n_cols - 1 tabs per line in all, each line's tabs
    lie in that line when its first and its last tab do.
    """
    data = np.frombuffer(body.encode("utf-8"), dtype=np.uint8)
    tabs = np.flatnonzero(data == 9)
    line_ends = np.flatnonzero(data == 10)
    if len(tabs) != (n_cols - 1) * (len(line_ends) + 1):
        return False
    tabs = tabs.reshape(-1, n_cols - 1)  # row i: the tabs that belong to line i
    starts = np.append(0, line_ends + 1)
    ends = np.append(line_ends, len(data))  # the text's end closes the last line
    # a line's first tab after its first byte: the first field is non-empty
    if not ((tabs[:, 0] > starts).all() and (tabs[:, -1] < ends).all()):
        return False
    second_end = tabs[:, 1] if n_cols > 2 else ends
    return bool((second_end > tabs[:, 0] + 1).all())


def _decode_error(path: Path) -> ParseError:
    """ParseError at the line of the first byte of `path` that is not UTF-8."""
    raw = path.read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = raw[:exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        lineno = head.count(b"\n") + 1
        return ParseError(
            f"{path.name}:{lineno}: not valid UTF-8: byte 0x{raw[exc.start]:02x} ({exc.reason})",
            path=str(path), line=lineno)
    raise AssertionError("the file decodes")


def _read_table(path: Path, n_cols: int) -> _Table:
    """Read a file once and split it into `n_cols` columns.

    Every non-blank line must have `n_cols` fields and non-empty first two
    fields (the ids; a node's name).  One check over the text's bytes
    covers every line (``_well_formed``) and one split makes the columns.
    Blank lines fail the check: the text then drops them as a whole and is
    checked again.  The first failing line is only looked for when that
    check fails too.
    """
    if not path.is_file():
        raise MissingFileError(f"missing dataset file {path.name} in {path.parent}",
                               path=str(path))
    try:
        # utf-8-sig drops a leading byte-order mark; a U+FEFF elsewhere stays
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()  # text mode reads \r\n and a bare \r as \n
    except UnicodeDecodeError:
        raise _decode_error(path) from None
    body = text.strip("\n")
    if not body:
        return _Table(path, text, [[] for _ in range(n_cols)])
    if not _well_formed(body, n_cols):
        body = _BLANK_RUNS.sub("\n", body)  # blank lines fail the check too
        if not _well_formed(body, n_cols):
            raise _Table(path, text, []).error(*_first_bad_row(body.split("\n"), n_cols))
    cells = body.replace("\n", "\t").split("\t")
    return _Table(path, text, [cells[i::n_cols] for i in range(n_cols)])


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
    except NodeSpecError as exc:
        table = authors_t if exc.kind == "author" else papers_t
        raise table.error(exc.position, str(exc)) from None
    report = LoadReport(
        authors=graph.n_authors,
        papers=graph.n_papers,
        wrote_lines=len(wrote_t),
        cites_lines=len(cites_t),
        wrote_edges=graph.n_wrote_edges,
        cite_edges=graph.n_cite_edges,
        **asdict(graph.report),
    )
    return graph, report


def _write_rows(path: Path, columns: Sequence[Sequence[str]]) -> None:
    """Write one line per row of the parallel `columns`, fields joined by
    tabs; no rows make an empty file."""
    text = "\n".join(map("\t".join, zip(*columns)))
    path.write_text(text + "\n" if text else "", encoding="utf-8")


def save_graph(graph: CitationGraph, directory: str | Path) -> None:
    """Write the four dataset files, each sorted, to `directory`.

    Each file is built from whole columns in id order: the node files
    ``gather`` id, name and flag at ``author_id_order`` /
    ``paper_id_order``, the edge files take ``edge_columns`` of the ids, and
    each file's lines are one join of its rows.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, ext_ids, labels, flags, order in (
        (AUTHORS_FILE, graph.author_ext_ids, graph.author_names, graph.author_in_dblp,
         graph.author_id_order),
        (PAPERS_FILE, graph.paper_ext_ids, graph.paper_titles, graph.paper_in_dblp,
         graph.paper_id_order),
    ):
        flag_text = gather(("0", "1"), flags[order].view(np.uint8))
        _write_rows(directory / name,
                    (gather(ext_ids, order), gather(labels, order), flag_text))
    wrote, cites = edge_columns(graph, graph.author_ext_ids, graph.paper_ext_ids)
    _write_rows(directory / WROTE_FILE, wrote)
    _write_rows(directory / CITES_FILE, cites)


def write_idmap(graph: CitationGraph, path: str | Path) -> None:
    """Write the external-id to dense-index mapping: kind, ext_id, index.

    Authors, then papers, each in index order, so nothing is gathered:
    one f-string per line over the id columns, joined once.
    """
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


def _name_key(name: str) -> str:
    """The name's tokens joined by single spaces (a token holds no
    whitespace).  Kept as one string per name: a list per name sets off
    cyclic garbage collection passes when there are many names."""
    return " ".join(_name_tokens(name))


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
    keys = list(map(_name_key, graph.author_names))
    # the group is the last token; a name without tokens is a group of its
    # own (its author's index as the key), so it never pairs
    group_of: dict[object, int] = {}
    group = np.fromiter(
        (group_of.setdefault(k[k.rfind(" ") + 1:] if k else a, len(group_of))
         for a, k in enumerate(keys)),
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
            if _tokens_compatible(keys[a].split(" "), keys[b].split(" ")):
                suggestions.append(MergeSuggestion(author_id(a), author_id(b), rule))
    return suggestions
