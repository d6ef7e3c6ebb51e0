"""Rankings, comparison curves, scatter data, dataset statistics, DOT export.

Rankings are keyed by external node ids so that rankings written to disk and
rankings held in memory compare identically.  A ranking has one order, its
line order: a node's rank is its place, 1 for the first line.  ``rank``
breaks ties by ascending node id; the comparisons (``topx_difference``,
``rank_scatter``) read every node's place from one cached map per ranking.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .graph import CitationGraph, NodeKind, _clean, edge_columns, gather
from .ingest import _split_table
from .walk import ScoreTable


@dataclass(frozen=True, eq=False)  # holds an array; __eq__ below
class Ranking:
    """A ranking as two parallel columns, best first: the external node ids
    (each listed once) and their scores.  A node's rank is its place in
    ``ids``: 1 for the first.

    Construction makes ``scores`` a float64 array and checks what
    ``from_tsv`` checks: one score per id, no id listed twice, and scores
    that are finite, not negative and never rising; else ValueError.
    """

    ids: tuple[str, ...]
    scores: np.ndarray  # float64

    def __post_init__(self) -> None:
        scores = np.asarray(self.scores, dtype=float)
        if scores.shape != (len(self.ids),):
            raise ValueError(f"scores have shape {scores.shape}, expected ({len(self.ids)},): "
                             "one score per id")
        object.__setattr__(self, "scores", scores)
        if len(self._place) != len(self.ids):
            raise ValueError("a node is listed twice: ranking ids must be unique")
        if not ((0 <= scores) & (scores < math.inf)).all():
            raise ValueError("ranking scores must be finite and not negative")
        if (scores[1:] > scores[:-1]).any():
            raise ValueError("ranking scores must not rise: the best node comes first")

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ranking):
            return NotImplemented
        return self.ids == other.ids and np.array_equal(self.scores, other.scores)

    @cached_property
    def _place(self) -> dict[str, int]:
        """Node id -> its rank: the one map every comparison reads."""
        return dict(zip(self.ids, range(1, len(self.ids) + 1)))

    def position_of(self, node: str) -> int:
        return self._place[node]

    def to_tsv(self) -> str:
        """`rank<TAB>node_id<TAB>score` lines, the ranks 1..N, scores at 6
        decimal places, all formatted by one ``%`` over the interleaved
        columns."""
        fields: list = [None] * (3 * len(self.ids))
        fields[0::3], fields[1::3] = range(1, len(self.ids) + 1), self.ids
        fields[2::3] = self.scores.tolist()
        return "%d\t%s\t%.6f\n" * len(self.ids) % tuple(fields)

    @classmethod
    def from_tsv(cls, text: str, source: str = "<ranking>") -> "Ranking":
        """Parse what ``to_tsv`` writes: `rank<TAB>node_id<TAB>score` lines,
        split by the dataset files' line rules (``ingest._split_table``).

        Each rank must be its line's place among the non-blank lines, and
        each score finite, not negative and not above the score on the line
        before.  A malformed line, a rank or score that does not parse or
        breaks those rules, or a node listed twice raises ParseError naming
        `source` and the line (both lines for a repeated node).
        """
        table = _split_table(text, 3, source, source)
        scores, first_row = [], {}  # first_row: node id -> its row, in file order
        for row, (position, node, score) in enumerate(zip(*table.columns)):
            try:
                place, value = int(position), float(score)
            except ValueError as exc:
                raise table.error(row, str(exc)) from None
            if place != row + 1:
                raise table.error(row, f"rank {place}, expected {row + 1}: "
                                       "the ranks number the non-blank lines 1..N")
            if not (math.isfinite(value) and value >= 0):
                raise table.error(row, f"score {score!r} is not a finite number >= 0")
            if scores and value > scores[-1]:
                raise table.error(row, f"score {score} is above the score on the line before")
            if first_row.setdefault(node, row) != row:
                raise table.error(
                    row, f"node {node!r} already listed at line {table.line(first_row[node])}")
            scores.append(value)
        return cls(tuple(first_row), np.array(scores, dtype=float))


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
    return Ranking(tuple(map(ids.__getitem__, order.tolist())), kept[order])


def _csv(header: str, lines: Iterable[str]) -> str:
    """The one CSV writer: `header`, then `lines`, each ended by a newline."""
    return "\n".join([header, *lines]) + "\n"


@dataclass(frozen=True)
class DiffCurve:
    points: tuple[tuple[float, float], ...]  # (x percent, difference percent)

    def to_csv(self) -> str:
        return _csv("x_percent,diff_percent", (f"{x:g},{d:.6f}" for x, d in self.points))


def _places_in(r1: Ranking, r2: Ranking) -> np.ndarray:
    """The rank in r2 of each node of r1, in r1's order; ValueError when
    the two rankings cover different node sets."""
    if r1._place.keys() != r2._place.keys():
        raise ValueError("rankings cover different node sets")
    return np.fromiter(map(r2._place.__getitem__, r1.ids), dtype=np.int64, count=len(r1))


def topx_difference(
    r1: Ranking, r2: Ranking, cutoffs: Sequence[float]
) -> DiffCurve:
    """Percentage of the top-x% set of r1 that is absent from r2's top-x%.

    Both top sets are read from the line order: a cutoff x takes the first
    ceil(x * N / 100) nodes, computed exactly on x's shortest decimal form
    (so 1.1 % of 3,000 nodes is 33 nodes).  A node of r1's top ``top`` is
    absent from r2's when its rank in r2 is above ``top``.  A cutoff that is
    not a real number (a bool included) or lies outside (0, 100] raises
    ValueError.
    """
    place_in_r2 = _places_in(r1, r2)
    n = len(r1)
    if n == 0:
        raise ValueError("cannot compare empty rankings")
    points = []
    for x in cutoffs:
        if isinstance(x, bool) or not isinstance(x, numbers.Real):
            raise ValueError(f"cutoff must be a real number, got {x!r}")
        if not 0.0 < x <= 100.0:
            raise ValueError(f"cutoff must be in (0, 100], got {x}")
        # float first: numpy 2 writes repr(np.float64(1.1)) as 'np.float64(1.1)'
        top = math.ceil(Fraction(repr(float(x))) * n / 100)
        absent = int(np.count_nonzero(place_in_r2[:top] > top))
        points.append((float(x), 100.0 * absent / top))
    return DiffCurve(tuple(points))


@dataclass(frozen=True)
class ScatterPoint:
    node: str
    base_rank: int
    rank_difference: int  # base rank minus other rank


def rank_scatter(r_base: Ranking, r_other: Ranking, top_n: int) -> list[ScatterPoint]:
    """Rank differences for the first `top_n` nodes of the base ranking,
    each rank a node's place in its ranking's line order.  A `top_n` that is
    not an int (a bool included) or lies outside [0, ranking size] raises
    ValueError, as do rankings of different node sets."""
    if isinstance(top_n, bool) or not isinstance(top_n, numbers.Integral):
        raise ValueError(f"top_n must be an integer, got {top_n!r}")
    place_in_other = _places_in(r_base, r_other)
    if not 0 <= top_n <= len(r_base):
        raise ValueError(f"top_n={top_n} is outside [0, {len(r_base)}], the ranking size")
    return [ScatterPoint(node, rank, rank - other) for rank, (node, other)
            in enumerate(zip(r_base.ids[:top_n], place_in_other[:top_n].tolist()), start=1)]


def scatter_to_csv(points: Sequence[ScatterPoint]) -> str:
    return _csv("node_id,base_rank,rank_difference",
                (f"{p.node},{p.base_rank},{p.rank_difference}" for p in points))


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
        return _csv("key,value", (f"{k},{v}" for k, v in rows))

    @staticmethod
    def _split_csv(hist: dict[int, tuple[int, int]]) -> str:
        return _csv("bucket,dblp,external",
                    (f"{b},{d},{e}" for b, (d, e) in sorted(hist.items())))

    def to_csvs(self) -> dict[str, str]:
        in_cits = (f"{b},{n}" for b, n in sorted(self.in_citations_per_paper_dblp.items()))
        return {
            "summary.csv": self.summary_csv(),
            "publications_per_author.csv": self._split_csv(self.pubs_per_author),
            "coauthors_per_paper.csv": self._split_csv(self.coauthors_per_paper),
            "out_citations_per_paper.csv": self._split_csv(self.out_citations_per_paper),
            "in_citations_per_paper_dblp.csv": _csv("bucket,dblp", in_cits),
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
