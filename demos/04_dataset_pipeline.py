"""End-to-end dataset tour: synthesize, save, reload, analyze, visualize.

Generates a scenario graph, writes it as a four-file TSV dataset, loads it
back, prints dataset statistics and author-merge suggestions, writes two
ranking files plus their difference curve, and exports a neighborhood as
Graphviz DOT.
"""

import tempfile
from pathlib import Path

from pira.analysis import (
    dataset_stats,
    dblp_authors,
    export_dot,
    rank,
    topx_difference,
)
from pira.baselines import cit_count, pr_p
from pira.graph import neighborhood, paper_id
from pira.ingest import load_graph, save_graph, suggest_merges
from pira.scenarios import ScenarioKind, ScenarioSpec, generate
from pira.walk import ScoreTable

with tempfile.TemporaryDirectory(prefix="pira-demo-") as tmp:
    workdir = Path(tmp)
    dataset = workdir / "dataset"

    scenario = generate(ScenarioSpec(ScenarioKind.SELF_CITATION), padding=30)
    save_graph(scenario.graph, dataset)
    print(f"dataset written to {dataset}")

    graph, report = load_graph(dataset)
    print("\nload report:")
    print(report.to_text())

    stats = dataset_stats(graph)
    print(f"mean publications (flagged authors):  {stats.mean_pubs_dblp:.3f}")
    print(f"mean publications (external authors): {stats.mean_pubs_external:.3f}")
    print(f"citations, total / flagged-to-flagged: "
          f"{stats.citation_edges} / {stats.citation_edges_dblp_to_dblp}")

    print("\nmerge suggestions:", suggest_merges(graph) or "none")

    cit_ranking = rank(ScoreTable.over_authors(graph, cit_count(graph)),
                       subset=dblp_authors)
    prp_ranking = rank(ScoreTable.over_authors(graph, pr_p(graph)),
                       subset=dblp_authors)
    (workdir / "cit.tsv").write_text(cit_ranking.to_tsv())
    (workdir / "prp.tsv").write_text(prp_ranking.to_tsv())
    curve = topx_difference(cit_ranking, prp_ranking, [5, 10, 25, 50, 100])
    print("\ntop-x% difference between citation-count and paper-graph rankings:")
    for x, diff in curve.points:
        print(f"  top {x:5.1f}% -> {diff:5.1f}% different")

    center = paper_id(graph.paper_index["q"])
    dot = export_dot(neighborhood(graph, center, 1))
    dot_path = workdir / "neighborhood.dot"
    dot_path.write_text(dot)
    print(f"\nDOT export of the cited paper's neighborhood -> {dot_path}")
    print(dot)
