"""Ranking toolkit for bipartite author-paper citation graphs.

Implements the PIRA random-walk ranking with configurable probability and
counter weights, five baseline measures (publication count, citation count,
H-index, PageRank on the paper graph, PageRank on a derived author graph),
an exact stationary oracle, TSV dataset ingestion, scenario
generators, and ranking-comparison analytics.
"""

from .graph import (
    BuildReport,
    CitationGraph,
    EdgeColumns,
    NodeColumns,
    NodeId,
    NodeKind,
    author_id,
    build_graph,
    neighborhood,
    paper_id,
)
from .walk import (
    ScoreTable,
    WalkMode,
    WalkParams,
    normalize,
    pira_rank,
)

__version__ = "0.1.0"

__all__ = [
    "BuildReport",
    "CitationGraph",
    "EdgeColumns",
    "NodeColumns",
    "NodeId",
    "NodeKind",
    "author_id",
    "build_graph",
    "neighborhood",
    "paper_id",
    "ScoreTable",
    "WalkMode",
    "WalkParams",
    "normalize",
    "pira_rank",
]
