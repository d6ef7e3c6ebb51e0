"""Every workload and metric the benchmark reports, with what it is for.

``BENCHMARK.json`` at the repository root lists the same workloads and
metrics (name, unit, better) in the fixed layout the benchmark runner reads;
``test_bench.py`` checks that the two agree.  The ``moves`` text, which that
layout has no room for, says which end-to-end metric on which workload each
layer metric should move; every later performance claim names one
end-to-end metric and one workload from here.
"""

from __future__ import annotations

WORKLOADS = {
    "walk": "pira rank --method pira --walkers 2 at ~250 arrivals per node, then again with --mode literal --min-cite-count 10: the walk loop dominates in both branches, load and ranking stay minor",
    "exact": "load, oracle, PR-P, PR-A, Cit, Pub, H-index, rankings and top-x curves: the paper's comparison run, solvers heavy, no walk",
    "ingest": "load, save, reload, stats, merge suggestions and DOT export: parsing, graph building and writing, no solver or walk",
    "scenarios": "all six scenario kinds at paddings up to ~1.1k nodes, saved, reloaded and checked: many tiny graphs where fixed per-call cost dominates",
}

# name -> (unit, better)
END_TO_END = {
    "task_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# name -> (unit, better, moves)
PER_LAYER = {
    "ingest.load_graph_s": ("s", "lower", "task_s on ingest (two loads), exact, a little on walk"),
    "ingest.load_peak_mb": ("MB", "lower", "peak_rss_mb on ingest and exact"),
    "ingest.bytes_read": ("bytes", "lower", "input size: TSV bytes read by load_graph per task"),
    "graph.build_graph_s": ("s", "lower", "as ingest.load_graph_s: construction inside the load, apart from parsing"),
    "graph.nodes": ("count", "higher", "input size: nodes of the largest graph loaded per task"),
    "graph.wrote_edges": ("count", "higher", "input size: wrote edges of that graph"),
    "graph.cite_edges": ("count", "higher", "input size: cite edges of that graph"),
    "ingest.save_graph_s": ("s", "lower", "task_s on ingest and scenarios only"),
    "ingest.bytes_written": ("bytes", "lower", "output size of save_graph per task"),
    "ingest.suggest_merges_s": ("s", "lower", "task_s on ingest only"),
    "analysis.dataset_stats_s": ("s", "lower", "task_s on ingest only"),
    "graph.neighborhood_s": ("s", "lower", "task_s on ingest only"),
    "analysis.export_dot_s": ("s", "lower", "task_s on ingest only"),
    "walk.pira_rank_s": ("s", "lower", "task_s on walk; no change on exact, ingest, scenarios"),
    "walk.steps_per_s": ("1/s", "higher", "task_s on walk (interpreted call); walk.mae must hold"),
    "walk.literal_steps_per_s": ("1/s", "higher", "task_s on walk (literal call), so a gain that costs the literal branch shows"),
    "walk.mae": ("score", "lower", "accuracy of the walk against the oracle at the walk budget; must hold while walk speed moves"),
    "oracle.build_transition_system_s": ("s", "lower", "task_s on exact and scenarios, setup_s on walk"),
    "oracle.stationary_distribution_s": ("s", "lower", "task_s on exact and scenarios, setup_s on walk"),
    "oracle.nnz": ("count", "lower", "size of the transition system solved per task"),
    "baselines.build_author_graph_s": ("s", "lower", "task_s and peak_rss_mb on exact, task_s on scenarios"),
    "baselines.pr_a_s": ("s", "lower", "task_s and peak_rss_mb on exact, task_s on scenarios"),
    "baselines.pr_p_s": ("s", "lower", "task_s on exact and scenarios"),
    "baselines.counts_s": ("s", "lower", "Cit + Pub + H-index: task_s on exact and scenarios"),
    "baselines.author_graph_edges": ("count", "lower", "size of the PR-A author graph per task"),
    "baselines.pr_a_peak_mb": ("MB", "lower", "peak_rss_mb on exact"),
    "analysis.rank_s": ("s", "lower", "task_s on exact, a little on walk"),
    "analysis.to_tsv_s": ("s", "lower", "task_s on exact, a little on walk"),
    "analysis.topx_difference_s": ("s", "lower", "task_s on exact"),
    "cli.main_s": ("s", "lower", "task_s on walk"),
    "cli.overhead_s": ("s", "lower", "task_s on walk: main minus its load, walk, rank, to_tsv and write spans"),
    "scenarios.generate_s": ("s", "lower", "task_s on scenarios"),
    "scenarios.evaluate_assertions_s": ("s", "lower", "task_s on scenarios"),
    "scenarios.graphs": ("count", "higher", "scenario graphs checked per task"),
    "scenarios.assertions": ("count", "higher", "scenario assertions checked per task"),
    "host.probe_s": ("s", "lower", "machine noise: median seconds of the fixed pure-Python probe taken around every timed piece of work"),
    "trace.overhead_s": ("s", "lower", "traced task_s minus untraced task_s in the same run"),
}
