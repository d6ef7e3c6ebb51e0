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
co-author.  Suggestions are never applied: duplicate authors are preferred
over accidentally merging two distinct people.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import islice, repeat
from pathlib import Path

import numpy as np

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
    for name, ext_ids, labels, flags in (
        (AUTHORS_FILE, graph.author_ext_ids, graph.author_names, graph.author_in_dblp),
        (PAPERS_FILE, graph.paper_ext_ids, graph.paper_titles, graph.paper_in_dblp),
    ):
        # ids are distinct within a kind, so the rows sort by id alone
        rows = sorted(zip(ext_ids, labels, flags.view(np.uint8).tolist()))
        (directory / name).write_text(
            "".join(f"{e}\t{label}\t{f}\n" for e, label, f in rows), encoding="utf-8"
        )
    (directory / WROTE_FILE).write_text(
        "".join(f"{a}\t{p}\n" for a, p in wrote), encoding="utf-8"
    )
    (directory / CITES_FILE).write_text(
        "".join(f"{s}\t{d}\n" for s, d in cites), encoding="utf-8"
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


def initial_compatible(name_a: str, name_b: str) -> bool:
    """True when the names agree on the last token and every leading token of
    the shorter form is a prefix of its counterpart ("J. YYY" vs "John YYY")."""
    ta, tb = _name_tokens(name_a), _name_tokens(name_b)
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


def suggest_merges(graph: CitationGraph) -> list[MergeSuggestion]:
    """Author pairs that are probably the same person, by the two heuristics.

    Pairs are unordered (smaller index first), one suggestion per rule that
    fires, sorted by (rule, author_a, author_b).  Nothing is merged.
    """
    # candidate pairs share a casefolded last name token
    by_last: dict[str, list[int]] = {}
    names = graph.author_names
    for a, name in enumerate(names):
        tokens = _name_tokens(name)
        if tokens:
            by_last.setdefault(tokens[-1], []).append(a)

    cite_targets: list[set[int]] = [
        {r for p in papers for r in graph.refs_of[p]} for papers in graph.papers_of
    ]
    paper_sets: list[set[int]] = [set(papers) for papers in graph.papers_of]
    coauthors: list[set[int]] = []
    for a, papers in enumerate(graph.papers_of):
        co = {b for p in papers for b in graph.authors_of[p]}
        co.discard(a)
        coauthors.append(co)

    suggestions = []
    for group in by_last.values():
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                if not initial_compatible(names[a], names[b]):
                    continue
                if cite_targets[a] & paper_sets[b] or cite_targets[b] & paper_sets[a]:
                    suggestions.append(MergeSuggestion(
                        author_id(a), author_id(b), MergeRule.SELF_CITATION_INITIAL_MATCH))
                if coauthors[a] & coauthors[b]:
                    suggestions.append(MergeSuggestion(
                        author_id(a), author_id(b), MergeRule.COMMON_COAUTHOR_INITIAL_MATCH))
    suggestions.sort(key=lambda s: (s.rule, s.author_a.index, s.author_b.index))
    return suggestions
