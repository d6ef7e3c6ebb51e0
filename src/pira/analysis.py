"""Rankings, comparison curves, scatter data, dataset statistics, DOT export.

Rankings are keyed by external node ids so that rankings written to disk and
rankings held in memory compare identically.  Ties are broken by ascending
node id; ranks are dense positions 1..N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .graph import CitationGraph, NodeKind, _clean, edge_columns, gather
from .ingest import _split_table
from .walk import ScoreTable


@dataclass(frozen=True, eq=False)  # holds arrays; __eq__ below
class Ranking:
    """A ranking as three parallel columns, best first: the external node
    ids (each listed once), their scores and their ranks (positions 1..N
    for computed rankings; a parsed file keeps its own numbers)."""

    ids: tuple[str, ...]
    scores: np.ndarray  # float64
    ranks: np.ndarray   # int64

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ranking):
            return NotImplemented
        return (self.ids == other.ids and np.array_equal(self.scores, other.scores)
                and np.array_equal(self.ranks, other.ranks))

    @cached_property
    def _rank_of(self) -> dict[str, int]:
        return dict(zip(self.ids, self.ranks.tolist()))

    def position_of(self, node: str) -> int:
        return self._rank_of[node]

    def to_tsv(self) -> str:
        """`rank<TAB>node_id<TAB>score` lines, scores at 6 decimal places,
        all formatted by one ``%`` over the interleaved columns."""
        fields: list = [None] * (3 * len(self.ids))
        fields[0::3], fields[1::3] = self.ranks.tolist(), self.ids
        fields[2::3] = self.scores.tolist()
        return "%d\t%s\t%.6f\n" * len(self.ids) % tuple(fields)

    @classmethod
    def from_tsv(cls, text: str, source: str = "<ranking>") -> "Ranking":
        """Parse `rank<TAB>node_id<TAB>score` lines by the dataset files'
        line rules (``ingest._split_table``).  A malformed line, or a node
        listed twice, raises ParseError naming `source` and the line (both
        lines for a repeated node)."""
        table = _split_table(text, 3, source, source)
        ranks, scores, first_row = [], [], {}  # first_row: node id -> its row, in file order
        for row, (position, node, score) in enumerate(zip(*table.columns)):
            try:
                ranks.append(int(position))
                scores.append(float(score))
            except ValueError as exc:
                raise table.error(row, str(exc)) from None
            if first_row.setdefault(node, row) != row:
                raise table.error(
                    row, f"node {node!r} already listed at line {table.line(first_row[node])}")
        return cls(tuple(first_row), np.array(scores, dtype=float),
                   np.array(ranks, dtype=np.int64))


# common subsets for rank(): each builds a row mask of a score table
def dblp_authors(table: ScoreTable) -> np.ndarray:
    return table.in_dblp & (table.kinds == NodeKind.AUTHOR)


def dblp_papers(table: ScoreTable) -> np.ndarray:
    return table.in_dblp & (table.kinds == NodeKind.PAPER)


def all_authors(table: ScoreTable) -> np.ndarray:
    return table.kinds == NodeKind.AUTHOR


def all_papers(table: ScoreTable) -> np.ndarray:
    return table.kinds == NodeKind.PAPER


def rank(
    scores: ScoreTable,
    subset: Optional[Callable[[ScoreTable], np.ndarray]] = None,
) -> Ranking:
    """Deterministic ranking of a score table by normalized score.

    ``subset`` builds a bool mask with one entry per row of the table
    (``dblp_authors``, ``all_papers``, ...); by default only DBLP-flagged
    nodes are ranked.  The kept rows are ordered by one ``np.lexsort`` on
    (descending normalized score, ascending external id).  A kept id that a
    graph could not hold (``graph._clean``) raises ValueError.
    """
    mask = np.asarray(scores.in_dblp if subset is None else subset(scores))
    if mask.dtype != bool or mask.shape != (len(scores),):
        raise ValueError(f"subset must give a bool mask of shape ({len(scores)},), "
                         f"got {mask.dtype} of shape {mask.shape}")
    rows = np.flatnonzero(mask)
    if not len(rows):
        raise ValueError("no nodes left to rank after filtering")
    ids = list(map(scores.ext_ids.__getitem__, rows.tolist()))
    if len(set(ids)) != len(ids):
        raise ValueError(
            "duplicate node ids in ranking input (an author and a paper share "
            "an id?); filter to a single node kind"
        )
    if not _clean(ids, (), ()):
        bad = next(i for i in ids if not _clean((i,), (), ()))
        raise ValueError(f"node id {bad!r} cannot be written to a ranking file: an id must be "
                         "a non-empty str without tabs or line breaks, not starting with U+FEFF")
    kept = scores.normalized[rows]
    order = np.lexsort((np.array(ids, dtype=object), -kept))
    return Ranking(tuple(map(ids.__getitem__, order.tolist())), kept[order],
                   np.arange(1, len(ids) + 1))


@dataclass(frozen=True)
class DiffCurve:
    points: tuple[tuple[float, float], ...]  # (x percent, difference percent)

    def to_csv(self) -> str:
        lines = ["x_percent,diff_percent"]
        lines += [f"{x:g},{d:.6f}" for x, d in self.points]
        return "\n".join(lines) + "\n"


def topx_difference(
    r1: Ranking, r2: Ranking, cutoffs: Sequence[float]
) -> DiffCurve:
    """Percentage of the top-x% set of r1 that is absent from r2's top-x%.

    Each of r1's ids is looked up once for its place in r2; an id of r1's
    top ``top`` is absent from r2's top when that place is ``top`` or more.
    """
    place = dict(zip(r2.ids, range(len(r2))))
    if set(r1.ids) != place.keys():
        raise ValueError("rankings cover different node sets")
    n = len(r1)
    if n == 0:
        raise ValueError("cannot compare empty rankings")
    place_in_r2 = np.fromiter(map(place.__getitem__, r1.ids), dtype=np.int64, count=n)
    points = []
    for x in cutoffs:
        if not 0.0 < x <= 100.0:
            raise ValueError(f"cutoff must be in (0, 100], got {x}")
        top = math.ceil(x * n / 100.0)
        absent = int(np.count_nonzero(place_in_r2[:top] >= top))
        points.append((float(x), 100.0 * absent / top))
    return DiffCurve(tuple(points))


@dataclass(frozen=True)
class ScatterPoint:
    node: str
    base_rank: int
    rank_difference: int  # base rank minus other rank


def rank_scatter(r_base: Ranking, r_other: Ranking, top_n: int) -> list[ScatterPoint]:
    """Rank differences for the first `top_n` nodes of the base ranking."""
    if set(r_base.ids) != set(r_other.ids):
        raise ValueError("rankings cover different node sets")
    if not 0 <= top_n <= len(r_base):
        raise ValueError(f"top_n={top_n} is outside [0, {len(r_base)}], the ranking size")
    return [
        ScatterPoint(node, rank, rank - r_other.position_of(node))
        for node, rank in zip(r_base.ids[:top_n], r_base.ranks[:top_n].tolist())
    ]


def scatter_to_csv(points: Sequence[ScatterPoint]) -> str:
    lines = ["node_id,base_rank,rank_difference"]
    lines += [f"{p.node},{p.base_rank},{p.rank_difference}" for p in points]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class StatsReport:
    """Dataset statistics split by DBLP membership."""

    n_authors: int
    n_authors_dblp: int
    n_papers: int
    n_papers_dblp: int
    mean_pubs_dblp: float
    mean_pubs_external: float
    mean_coauthors_dblp: float
    mean_coauthors_external: float
    citation_edges: int
    citation_edges_dblp_to_dblp: int
    pubs_per_author: dict[int, tuple[int, int]]        # bucket -> (dblp, external)
    coauthors_per_paper: dict[int, tuple[int, int]]
    out_citations_per_paper: dict[int, tuple[int, int]]
    in_citations_per_paper_dblp: dict[int, int]

    def summary_csv(self) -> str:
        rows = [
            ("authors", self.n_authors),
            ("authors_dblp", self.n_authors_dblp),
            ("papers", self.n_papers),
            ("papers_dblp", self.n_papers_dblp),
            ("mean_pubs_dblp", f"{self.mean_pubs_dblp:.6f}"),
            ("mean_pubs_external", f"{self.mean_pubs_external:.6f}"),
            ("mean_coauthors_dblp", f"{self.mean_coauthors_dblp:.6f}"),
            ("mean_coauthors_external", f"{self.mean_coauthors_external:.6f}"),
            ("citation_edges", self.citation_edges),
            ("citation_edges_dblp_to_dblp", self.citation_edges_dblp_to_dblp),
        ]
        return "key,value\n" + "\n".join(f"{k},{v}" for k, v in rows) + "\n"

    @staticmethod
    def _split_csv(hist: dict[int, tuple[int, int]]) -> str:
        lines = ["bucket,dblp,external"]
        lines += [f"{b},{hist[b][0]},{hist[b][1]}" for b in sorted(hist)]
        return "\n".join(lines) + "\n"

    def to_csvs(self) -> dict[str, str]:
        in_lines = ["bucket,dblp"]
        in_lines += [
            f"{b},{self.in_citations_per_paper_dblp[b]}"
            for b in sorted(self.in_citations_per_paper_dblp)
        ]
        return {
            "summary.csv": self.summary_csv(),
            "publications_per_author.csv": self._split_csv(self.pubs_per_author),
            "coauthors_per_paper.csv": self._split_csv(self.coauthors_per_paper),
            "out_citations_per_paper.csv": self._split_csv(self.out_citations_per_paper),
            "in_citations_per_paper_dblp.csv": "\n".join(in_lines) + "\n",
        }


def _split_histogram(values: np.ndarray, flags: np.ndarray) -> dict[int, tuple[int, int]]:
    """Bucket -> (DBLP count, external count) over the buckets that occur."""
    size = int(values.max()) + 1 if len(values) else 0
    dblp = np.bincount(values[flags], minlength=size).tolist()
    ext = np.bincount(values[~flags], minlength=size).tolist()
    return {b: (d, e) for b, (d, e) in enumerate(zip(dblp, ext)) if d or e}


def _mean(values: np.ndarray) -> float:
    return int(values.sum()) / len(values) if len(values) else 0.0


def dataset_stats(graph: CitationGraph) -> StatsReport:
    """Degree statistics and histograms for a loaded dataset."""
    a_dblp, p_dblp = graph.author_in_dblp, graph.paper_in_dblp
    pubs = np.diff(graph.wrote.indptr)
    coauthors = np.bincount(graph.wrote.indices, minlength=graph.n_papers)
    out_cits = np.diff(graph.cite.indptr)
    in_cits_dblp = np.bincount(graph.cite.indices, minlength=graph.n_papers)[p_dblp]
    # an edge is DBLP -> DBLP when its source (repeated per reference) and target both are
    dblp_to_dblp = int(np.count_nonzero(np.repeat(p_dblp, out_cits) & p_dblp[graph.cite.indices]))
    return StatsReport(
        n_authors=graph.n_authors,
        n_authors_dblp=int(a_dblp.sum()),
        n_papers=graph.n_papers,
        n_papers_dblp=int(p_dblp.sum()),
        mean_pubs_dblp=_mean(pubs[a_dblp]),
        mean_pubs_external=_mean(pubs[~a_dblp]),
        mean_coauthors_dblp=_mean(coauthors[p_dblp]),
        mean_coauthors_external=_mean(coauthors[~p_dblp]),
        citation_edges=graph.n_cite_edges,
        citation_edges_dblp_to_dblp=dblp_to_dblp,
        pubs_per_author=_split_histogram(pubs, a_dblp),
        coauthors_per_paper=_split_histogram(coauthors, p_dblp),
        out_citations_per_paper=_split_histogram(out_cits, p_dblp),
        in_citations_per_paper_dblp={
            b: n for b, n in enumerate(np.bincount(in_cits_dblp).tolist()) if n
        },
    )


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(graph: CitationGraph, scores: Optional[ScoreTable] = None) -> str:
    """Graphviz text for a (sub)graph: authors as ellipses, papers as boxes,
    wrote edges undirected, cite edges directed.  Output is byte-stable.

    Ids and names are escaped once per node.  The node lines ``gather`` the
    escaped columns in id order (``author_id_order`` / ``paper_id_order``),
    the edge lines take ``edge_columns`` of the escaped ids, and each group
    of lines is one f-string comprehension over those columns.
    """
    score_by_key: dict[tuple[int, str], float] = {}
    if scores is not None:
        score_by_key = dict(zip(zip(scores.kinds.tolist(), scores.ext_ids),
                                scores.normalized.tolist()))

    lines = ["digraph citations {"]
    escaped: dict[NodeKind, list[str]] = {}  # per kind, by index: the escaped id
    for kind, prefix, shape, ext_ids, labels, order in (
        (NodeKind.AUTHOR, "a", "ellipse", graph.author_ext_ids, graph.author_names,
         graph.author_id_order),
        (NodeKind.PAPER, "p", "box", graph.paper_ext_ids, graph.paper_titles,
         graph.paper_id_order),
    ):
        escaped[kind] = list(map(_dot_escape, ext_ids))
        ids = gather(ext_ids, order)
        suffixes = [f"\\n{score_by_key[kind, e]:.6f}" if (kind, e) in score_by_key else ""
                    for e in ids] if score_by_key else [""] * len(ids)
        lines += [f'  "{prefix}:{e}" [shape={shape}, label="{e}\\n{label}{suffix}"];'
                  for e, label, suffix in zip(gather(escaped[kind], order),
                                              map(_dot_escape, gather(labels, order)), suffixes)]
    wrote, cites = edge_columns(graph, escaped[NodeKind.AUTHOR], escaped[NodeKind.PAPER])
    lines += [f'  "a:{a}" -> "p:{p}" [dir=none];' for a, p in zip(*wrote)]
    lines += [f'  "p:{s}" -> "p:{d}";' for s, d in zip(*cites)]
    lines.append("}")
    return "\n".join(lines) + "\n"
