"""The four benchmark workloads and the traced-run instrumentation.

Each workload has a ``setup`` (dataset generation and anything the task
needs that a user would have ready), a ``task`` (the timed end-to-end user
task), ``check`` (output checks of one task execution) and ``finish``
(checks made once per run).  Tasks call pira only through module
attributes (``ingest.load_graph``, ``cli.main``, ...), so ``instrument`` can
trace the very same code path.
"""

from __future__ import annotations

import dataclasses
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import pira
import pira.analysis as analysis
import pira.baselines as baselines
import pira.cli as cli
import pira.graph as graph_mod
import pira.ingest as ingest
import pira.oracle as oracle
import pira.scenarios as scenarios
import pira.walk as walk
from pira.walk import ScoreTable, WalkMode, WalkParams

import checks
import datagen
from spans import Span, Tracer

WALK_AUTHORS = 1_000          # 3k nodes
ARRIVALS_PER_NODE = 250       # walk budget = 250 x nodes
WALKERS = 2
LITERAL_MIN_CITE_COUNT = 10
WALK_MAE_TOLERANCE = 0.05     # the seed code gives 0.040-0.044 over seeds 1-20
EXACT_AUTHORS = 2_000         # 6k nodes
INGEST_AUTHORS = 2_000
TOPX_CUTOFFS = (1, 5, 10, 25, 50, 100)
DOT_CENTERS = 3               # neighborhoods exported around the most-cited papers
# (low, high) padding ranges, one padding drawn from each per run
SCENARIO_PADDINGS = ((0, 1), (30, 70), (300, 500), (900, 1100))


@dataclass
class Context:
    work: Path   # empty scratch directory owned by this run
    seed: int
    # called by a task between its steps, so the timer can check the
    # host's speed there (run.HostClock.lap)
    lap: Callable[[], None] = lambda: None
    _dirs: int = 0

    def fresh_dir(self, stem: str) -> Path:
        self._dirs += 1
        return self.work / f"{stem}{self._dirs}"


@dataclass
class DatasetState:
    ds: datagen.Dataset
    directory: Path
    bytes: int
    dblp_authors: set[str]
    first_output: Any = None
    extra: dict = field(default_factory=dict)

    def meta(self) -> dict:
        return {"dataset": self.ds.counts(), "dataset_bytes": self.bytes,
                "graph": self.extra.get("graph_counts"),
                "build_report": self.extra.get("build_report")}

    def note_graph(self, graph) -> None:
        self.extra["build_report"] = dataclasses.asdict(graph.report)
        self.extra["graph_counts"] = {"nodes": graph.n_nodes, "wrote_edges": graph.n_wrote_edges,
                                      "cite_edges": graph.n_cite_edges}


def _dataset_state(ctx: Context, n_authors: int) -> DatasetState:
    ds = datagen.generate(ctx.seed, n_authors)
    ctx.lap()
    directory = ctx.fresh_dir("dataset")
    written = datagen.write(ds, directory)
    return DatasetState(ds, directory, written, {ext for ext, _, flag in ds.authors if flag})


class Workload:
    name = ""

    def finish(self, ctx: Context, ck: checks.Checker, state, layer: dict) -> None:
        """Checks made once per run, after the timed executions."""


class WalkWorkload(Workload):
    """`pira rank DIR --method pira --walkers 2` at a fixed arrival budget,
    once in the default interpreted mode and once in literal mode."""

    name = "walk"
    modes = {
        WalkMode.INTERPRETED: (),
        WalkMode.LITERAL: ("--mode", "literal", "--min-cite-count", str(LITERAL_MIN_CITE_COUNT)),
    }

    def params(self, state: DatasetState, seed: int, mode: WalkMode) -> WalkParams:
        n_nodes = len(state.ds.authors) + len(state.ds.papers)
        return WalkParams(
            step_budget=ARRIVALS_PER_NODE * n_nodes, seed=seed, walkers=WALKERS, mode=mode,
            min_citation_count=LITERAL_MIN_CITE_COUNT if mode == WalkMode.LITERAL else 0,
        )

    def setup(self, ctx: Context) -> DatasetState:
        state = _dataset_state(ctx, WALK_AUTHORS)
        ctx.lap()
        graph, _ = ingest.load_graph(state.directory)
        state.note_graph(graph)
        state.extra["oracle"] = oracle.expected_scores(graph, WalkParams(), max_nodes=graph.n_nodes)
        return state

    def task(self, ctx: Context, state: DatasetState) -> dict:
        outputs = {}
        for i, (mode, flags) in enumerate(self.modes.items()):
            if i:
                ctx.lap()
            out = ctx.fresh_dir("ranking")
            rc = cli.main([
                "rank", str(state.directory), "--method", "pira",
                "--walkers", str(WALKERS),
                "--steps", str(self.params(state, ctx.seed, mode).step_budget),
                "--seed", str(ctx.seed), *flags, "--out", str(out),
            ])
            outputs[mode] = (rc, out.read_bytes() if out.is_file() else b"")
            out.unlink(missing_ok=True)
        return outputs

    def check(self, ck: checks.Checker, state: DatasetState, outputs: dict) -> None:
        for mode, (rc, data) in outputs.items():
            ck.record(f"{mode.value} exit code", checks.equal("pira rank exit code", 0, rc))
        if state.first_output is None:
            state.first_output = outputs
            for mode, (_, data) in outputs.items():
                ck.record(f"{mode.value} ranking",
                          checks.ranking_tsv(data.decode("utf-8"), state.dblp_authors))
        else:
            for mode, (_, data) in outputs.items():
                ck.record(f"{mode.value} same bytes as first repetition",
                          checks.same_bytes(state.first_output[mode][1], data))

    def finish(self, ctx: Context, ck: checks.Checker, state: DatasetState, layer: dict) -> None:
        # the same walks through the library must rank exactly as the CLI did
        graph, _ = ingest.load_graph(state.directory)
        first = state.first_output or {}
        for mode in self.modes:
            scores = walk.pira_rank(graph, self.params(state, ctx.seed, mode))
            library = analysis.rank(scores, subset=analysis.dblp_authors).to_tsv().encode("utf-8")
            ck.record(f"{mode.value} CLI ranking equals library ranking",
                      checks.same_bytes(library, first.get(mode, (0, b""))[1]))
            if mode == WalkMode.INTERPRETED:
                mae, error = checks.mae_within(
                    scores.normalized, state.extra["oracle"].normalized, WALK_MAE_TOLERANCE)
                ck.record("walk_mae", error)
                layer["walk.mae"] = mae


class ExactWorkload(Workload):
    """The paper's comparison: six deterministic measures on one load."""

    name = "exact"
    measures = ("oracle", "prp", "pra", "cit", "pub", "hindex")

    def setup(self, ctx: Context) -> DatasetState:
        return _dataset_state(ctx, EXACT_AUTHORS)

    def task(self, ctx: Context, state: DatasetState) -> dict:
        graph, _ = ingest.load_graph(state.directory)
        ctx.lap()
        vectors = {"prp": baselines.pr_p(graph)}
        ctx.lap()
        vectors["pra"] = baselines.pr_a(graph)
        ctx.lap()
        vectors.update(cit=baselines.cit_count(graph), pub=baselines.pub_count(graph),
                       hindex=baselines.h_index(graph))
        tables = {"oracle": oracle.expected_scores(graph, WalkParams(), max_nodes=graph.n_nodes)}
        ctx.lap()
        tables.update({k: ScoreTable.over_authors(graph, v) for k, v in vectors.items()})
        rankings = {k: analysis.rank(t, subset=analysis.dblp_authors) for k, t in tables.items()}
        tsv = {k: r.to_tsv() for k, r in rankings.items()}
        curves = {
            k: analysis.topx_difference(r, rankings["oracle"], TOPX_CUTOFFS).to_csv()
            for k, r in rankings.items() if k != "oracle"
        }
        return {"graph": graph, "vectors": vectors, "oracle": tables["oracle"],
                "tsv": tsv, "curves": curves}

    def check(self, ck: checks.Checker, state: DatasetState, out: dict) -> None:
        ck.record("oracle mean", checks.mean_one(out["oracle"].normalized))
        ck.record("oracle sums over all nodes",
                  checks.equal("oracle nodes", out["graph"].n_nodes, len(out["oracle"])))
        # every generated paper has an author, so PR-P keeps all PageRank mass
        ck.record("pr_p vector", checks.probability_vector(out["vectors"]["prp"], 1.0))
        ck.record("pr_a vector", checks.probability_vector(out["vectors"]["pra"], 1.0))
        if state.first_output is None:
            state.first_output = (out["tsv"], out["curves"])
            state.note_graph(out["graph"])
            for k in self.measures:
                ck.record(f"{k} ranking", checks.ranking_tsv(out["tsv"][k], state.dblp_authors))
        else:
            ck.record("same rankings and curves as first repetition",
                      checks.equal("rankings and curves", state.first_output,
                                   (out["tsv"], out["curves"])))


class IngestWorkload(Workload):
    """Load, save, reload, then the read-only dataset tools."""

    name = "ingest"

    def setup(self, ctx: Context) -> DatasetState:
        return _dataset_state(ctx, INGEST_AUTHORS)

    def task(self, ctx: Context, state: DatasetState) -> dict:
        graph, report = ingest.load_graph(state.directory)
        ctx.lap()
        saved = ctx.fresh_dir("saved")
        ingest.save_graph(graph, saved)
        ctx.lap()
        again, _ = ingest.load_graph(saved)
        ctx.lap()
        stats = analysis.dataset_stats(again)
        merges = ingest.suggest_merges(again)
        ctx.lap()
        top = sorted(range(again.n_papers), key=lambda p: (-len(again.cited_by[p]), p))
        dots = [
            analysis.export_dot(graph_mod.neighborhood(again, graph_mod.paper_id(p), 1))
            for p in top[:DOT_CENTERS]
        ]
        return {"report": report, "loaded": graph, "saved": saved, "graph": again, "stats": stats,
                "merges": len(merges), "dots": dots}

    def check(self, ck: checks.Checker, state: DatasetState, out: dict) -> None:
        ds = state.ds
        report = out["report"]
        ck.record("authors loaded", checks.equal("authors", len(ds.authors), report.authors))
        ck.record("papers loaded", checks.equal("papers", len(ds.papers), report.papers))
        ck.record("duplicate cites dropped",
                  checks.equal("dropped_duplicate_cites", ds.duplicate_cites,
                               report.dropped_duplicate_cites))
        ck.record("cite edges kept",
                  checks.equal("cite_edges", len(ds.cites) - ds.duplicate_cites, report.cite_edges))
        ck.record("stats authors", checks.equal("stats authors", len(ds.authors), out["stats"].n_authors))
        resaved = out["saved"].with_name(out["saved"].name + "_resaved")
        ingest.save_graph(out["graph"], resaved)
        ck.record("save -> load -> save",
                  checks.same_bytes(checks.dataset_bytes(out["saved"]), checks.dataset_bytes(resaved)))
        shutil.rmtree(resaved)
        shutil.rmtree(out["saved"])
        summary = (out["merges"], out["dots"])
        if state.first_output is None:
            state.first_output = summary
            state.note_graph(out["loaded"])
            ck.record("merge suggestions fire", None if out["merges"] > 0 else "no suggestions")
        else:
            ck.record("same merges and DOT as first repetition",
                      checks.equal("merges and DOT", state.first_output, summary))


@dataclass
class ScenarioState:
    paddings: tuple[int, ...]

    def meta(self) -> dict:
        return {"paddings": list(self.paddings),
                "kinds": [k.value for k in scenarios.ScenarioKind]}


class ScenariosWorkload(Workload):
    """Every scenario kind at a spread of paddings: generate, save, load, check."""

    name = "scenarios"

    def setup(self, ctx: Context) -> ScenarioState:
        rng = np.random.default_rng(ctx.seed)
        return ScenarioState(tuple(int(rng.integers(lo, hi)) for lo, hi in SCENARIO_PADDINGS))

    def task(self, ctx: Context, state: ScenarioState) -> list:
        results = []
        for i, kind in enumerate(scenarios.ScenarioKind):
            if i:
                ctx.lap()
            for padding in state.paddings:
                scenario = scenarios.generate(scenarios.ScenarioSpec(kind), padding=padding)
                directory = ctx.fresh_dir("scenario")
                ingest.save_graph(scenario.graph, directory)
                graph, _ = ingest.load_graph(directory)
                results.append((kind.value, padding, directory,
                                scenarios.evaluate_assertions(graph, scenario.assertions)))
        return results

    def check(self, ck: checks.Checker, state: ScenarioState, out: list) -> None:
        for kind, padding, directory, results in out:
            ck.record(f"{kind} padding {padding}", checks.assertions_pass(results))
            shutil.rmtree(directory)


WORKLOADS = {w.name: w for w in (WalkWorkload(), ExactWorkload(), IngestWorkload(),
                                 ScenariosWorkload())}


def _dataset_bytes_in(directory) -> int:
    return sum((Path(directory) / name).stat().st_size for name in checks.DATASET_FILES)


def _count_load(args, kwargs, result, seconds) -> dict:
    graph = result[0]
    return {"ingest.bytes_read": _dataset_bytes_in(args[0]),
            "graph.nodes": graph.n_nodes,
            "graph.wrote_edges": graph.n_wrote_edges,
            "graph.cite_edges": graph.n_cite_edges}


def _count_save(args, kwargs, result, seconds) -> dict:
    return {"ingest.bytes_written": _dataset_bytes_in(args[1])}


def _count_walk(args, kwargs, result, seconds) -> dict:
    params = args[1]
    prefix = "walk.literal" if params.mode == WalkMode.LITERAL else "walk.interpreted"
    return {f"{prefix}_steps": params.step_budget, f"{prefix}_seconds": seconds}


def _count_nnz(args, kwargs, ts, seconds) -> dict:
    return {"oracle.nnz": ts.wrote_m.nnz + ts.cite_m.nnz + ts.iswb_m.nnz}


# The walk allocates a float per step, which tracemalloc slows about 20-fold;
# cli.main's children carry the peaks that matter.
MEMORY_SKIP = frozenset({"walk.pira_rank", "cli.main"})


def instrument(tracer: Tracer) -> None:
    """Patch a span around every public pira call the workloads make, in
    every module namespace that calls it."""
    counted = [
        (ingest, "load_graph", "ingest.load_graph", _count_load),
        (cli, "load_graph", "ingest.load_graph", _count_load),
        (ingest, "build_graph", "graph.build_graph", None),
        (ingest, "save_graph", "ingest.save_graph", _count_save),
        (ingest, "suggest_merges", "ingest.suggest_merges", None),
        (graph_mod, "neighborhood", "graph.neighborhood", None),
        (walk, "pira_rank", "walk.pira_rank", _count_walk),
        (cli, "pira_rank", "walk.pira_rank", _count_walk),
        (oracle, "build_transition_system", "oracle.build_transition_system", _count_nnz),
        (oracle, "stationary_distribution", "oracle.stationary_distribution", None),
        (oracle, "expected_scores", "oracle.expected_scores", None),
        (cli, "expected_scores", "oracle.expected_scores", None),
        (scenarios, "expected_scores", "oracle.expected_scores", None),
        (baselines, "build_author_graph", "baselines.build_author_graph",
         lambda a, k, ag, s: {"baselines.author_graph_edges": len(ag.edges)}),
        (baselines, "pr_a", "baselines.pr_a", None),
        (baselines, "pr_p", "baselines.pr_p", None),
        (baselines, "paper_pagerank", "baselines.pr_p", None),  # PR-P of papers
        (baselines, "cit_count", "baselines.cit_count", None),
        (baselines, "pub_count", "baselines.pub_count", None),
        (baselines, "h_index", "baselines.h_index", None),
        (analysis, "rank", "analysis.rank", None),
        (cli, "rank", "analysis.rank", None),
        (analysis.Ranking, "to_tsv", "analysis.to_tsv", None),
        (analysis, "topx_difference", "analysis.topx_difference", None),
        (analysis, "dataset_stats", "analysis.dataset_stats", None),
        (analysis, "export_dot", "analysis.export_dot", None),
        (cli, "main", "cli.main", None),
        (cli, "_write_or_print", "cli.write", None),
        (scenarios, "generate", "scenarios.generate", lambda a, k, r, s: {"scenarios.graphs": 1}),
        (scenarios, "evaluate_assertions", "scenarios.evaluate_assertions",
         lambda a, k, r, s: {"scenarios.assertions": len(r)}),
    ]
    for owner, attr, name, counter in counted:
        tracer.patch(owner, attr, name, counter)


# per-layer metric -> span name whose summed seconds it reports
_SECONDS = {
    "ingest.load_graph_s": "ingest.load_graph",
    "graph.build_graph_s": "graph.build_graph",
    "ingest.save_graph_s": "ingest.save_graph",
    "ingest.suggest_merges_s": "ingest.suggest_merges",
    "analysis.dataset_stats_s": "analysis.dataset_stats",
    "graph.neighborhood_s": "graph.neighborhood",
    "analysis.export_dot_s": "analysis.export_dot",
    "walk.pira_rank_s": "walk.pira_rank",
    "oracle.build_transition_system_s": "oracle.build_transition_system",
    "oracle.stationary_distribution_s": "oracle.stationary_distribution",
    "baselines.build_author_graph_s": "baselines.build_author_graph",
    "baselines.pr_a_s": "baselines.pr_a",
    "baselines.pr_p_s": "baselines.pr_p",
    "analysis.rank_s": "analysis.rank",
    "analysis.to_tsv_s": "analysis.to_tsv",
    "analysis.topx_difference_s": "analysis.topx_difference",
    "cli.main_s": "cli.main",
    "scenarios.generate_s": "scenarios.generate",
    "scenarios.evaluate_assertions_s": "scenarios.evaluate_assertions",
}
_SIZE_COUNTS = ("graph.nodes", "graph.wrote_edges", "graph.cite_edges")
_SUMMED_COUNTS = ("ingest.bytes_read", "ingest.bytes_written", "oracle.nnz",
                  "baselines.author_graph_edges", "scenarios.graphs", "scenarios.assertions")


def layer_values(summary: dict[str, dict[str, float]], spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced task execution."""
    seconds = lambda name: summary.get(name, {}).get("seconds", 0.0)
    out = {metric: seconds(name) for metric, name in _SECONDS.items()}
    out["baselines.counts_s"] = sum(
        seconds(n) for n in ("baselines.cit_count", "baselines.pub_count", "baselines.h_index"))
    out["cli.overhead_s"] = summary.get("cli.main", {}).get("self_seconds", 0.0)
    counts: dict[str, float] = {}
    for s in spans:
        for key, value in s.counts.items():
            if key in _SIZE_COUNTS:
                counts[key] = max(counts.get(key, 0), value)
            else:
                counts[key] = counts.get(key, 0) + value
    for key in _SIZE_COUNTS + _SUMMED_COUNTS:
        out[key] = counts.get(key, 0)
    for mode, metric in (("interpreted", "walk.steps_per_s"), ("literal", "walk.literal_steps_per_s")):
        busy = counts.get(f"walk.{mode}_seconds", 0.0)
        out[metric] = counts.get(f"walk.{mode}_steps", 0) / busy if busy > 0 else 0.0
    return out


def memory_values(summary: dict[str, dict[str, float]]) -> dict[str, float]:
    peak = lambda name: summary.get(name, {}).get("peak_mb", 0.0)
    return {"ingest.load_peak_mb": peak("ingest.load_graph"),
            "baselines.pr_a_peak_mb": peak("baselines.pr_a")}


def versions() -> dict[str, str]:
    import scipy
    return {"pira": pira.__version__, "numpy": np.__version__, "scipy": scipy.__version__}
