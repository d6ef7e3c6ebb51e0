"""Command-line interface.

Subcommands: ingest, rank, compare, inspect, synth, stats.  Exit codes:
0 success, 2 usage or input validation (a missing input file included),
3 I/O failure (such as an output path in a missing directory), 4 solver
non-convergence.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import baselines
from .analysis import (
    Ranking,
    all_authors,
    all_papers,
    dblp_authors,
    dblp_papers,
    dataset_stats,
    export_dot,
    rank,
    rank_scatter,
    scatter_to_csv,
    topx_difference,
)
from .errors import ConvergenceError, MissingFileError, PiraError
from .graph import CitationGraph, NodeId, NodeKind, neighborhood
from .ingest import _read_text, load_graph, save_graph, write_idmap
from .oracle import expected_scores
from .scenarios import ScenarioKind, ScenarioSpec, assertions_to_tsv, generate
from .walk import ScoreTable, WalkMode, WalkParams, pira_rank

# the --weights names and the WalkParams fields they set
WEIGHT_FIELDS = {"cite": "cite_weight", "wrote": "wrote_weight",
                 "iswb": "iswb_weight", "restart": "restarting_weight"}


def _parse_weights(text: str) -> dict[str, float]:
    """A --weights spec as WalkParams keyword arguments."""
    out = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"bad weight spec {part!r}, expected name=value")
        name, value = part.split("=", 1)
        if name not in WEIGHT_FIELDS:
            raise ValueError(f"unknown weight {name!r} (use {', '.join(WEIGHT_FIELDS)})")
        try:
            out[WEIGHT_FIELDS[name]] = float(value)
        except ValueError:
            raise ValueError(f"bad weight value {value!r} for {name}") from None
    return out


def _walk_params(args: argparse.Namespace) -> WalkParams:
    return WalkParams(
        damping_df=args.df,
        theta=args.theta,
        min_citation_count=args.min_cite_count,
        mode=WalkMode(args.mode),
        restart_author_prob=args.restart_author_prob,
        step_budget=args.steps,
        seed=args.seed,
        walkers=args.walkers,
        **_parse_weights(args.weights or ""),
    )


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_ingest(args: argparse.Namespace) -> int:
    graph, report = load_graph(args.directory)
    sys.stdout.write(report.to_text())
    if args.idmap:
        write_idmap(graph, args.idmap)
    if args.export:
        save_graph(graph, args.export)
    return 0


def _measure_name(args: argparse.Namespace) -> str:
    """The ``baselines.MEASURES`` name of a baseline --method and --papers."""
    name = {"prp": "pr_p", "pra": "pr_a"}.get(args.method, args.method)
    return name + "_paper" if args.papers else name


def _method_scores(
    graph: CitationGraph, args: argparse.Namespace, params: WalkParams
) -> ScoreTable:
    if args.method == "pira":
        return pira_rank(graph, params)
    if args.method == "oracle":
        return expected_scores(graph, params)
    return baselines.measure(graph, _measure_name(args), damping=args.df)


def cmd_rank(args: argparse.Namespace) -> int:
    if args.method not in ("pira", "oracle") and _measure_name(args) not in baselines.MEASURES:
        raise ValueError(f"method {args.method!r} ranks authors only")
    params = _walk_params(args)  # flag validation happens before any work
    graph, _ = load_graph(args.directory)
    scores = _method_scores(graph, args, params)
    if args.papers:
        subset = all_papers if args.all_nodes else dblp_papers
    else:
        subset = all_authors if args.all_nodes else dblp_authors
    ranking = rank(scores, subset=subset)
    _write_or_print(ranking.to_tsv(), args.out)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    cutoffs = None
    if args.curve is not None:  # flag validation happens before any file is read
        try:
            cutoffs = [float(x) for x in args.curve.split(",") if x.strip()]
        except ValueError:
            raise ValueError(f"bad cutoff list {args.curve!r}") from None
    for f in (args.rank_a, args.rank_b):
        if not Path(f).is_file():
            raise MissingFileError(f"missing ranking file {f}", path=f)
    r_a, r_b = (Ranking.from_tsv(_read_text(f, f), source=f) for f in (args.rank_a, args.rank_b))
    if cutoffs is not None:
        text = topx_difference(r_a, r_b, cutoffs).to_csv()
    else:
        text = scatter_to_csv(rank_scatter(r_a, r_b, args.scatter))
    _write_or_print(text, args.out)
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    prefix, colon, ext = args.node.partition(":")
    kind = {"a": NodeKind.AUTHOR, "p": NodeKind.PAPER}.get(prefix) if colon else None
    if kind is None:  # the node spec is checked before the dataset is read
        raise ValueError("node must be given as a:AUTHOR_ID or p:PAPER_ID")
    graph, _ = load_graph(args.directory)
    index = (graph.author_index, graph.paper_index)[kind].get(ext)
    if index is None:
        raise ValueError(f"unknown node {args.node!r}")
    sub = neighborhood(graph, NodeId(kind, index), args.radius)
    _write_or_print(export_dot(sub), args.dot)
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    try:
        kind = ScenarioKind(args.kind)
    except ValueError:
        raise ValueError(
            f"unknown scenario kind {args.kind!r} "
            f"(choose from {', '.join(k.value for k in ScenarioKind)})"
        ) from None
    params = {}
    for spec in args.param or []:
        if "=" not in spec:
            raise ValueError(f"bad --param {spec!r}, expected key=value")
        key, value = spec.split("=", 1)
        try:
            params[key] = int(value)
        except ValueError:
            raise ValueError(f"bad --param value {value!r} for {key}") from None
    scenario = generate(ScenarioSpec(kind, params), padding=args.padding)
    out_dir = Path(args.out_dir)
    save_graph(scenario.graph, out_dir)
    (out_dir / "assertions.tsv").write_text(
        assertions_to_tsv(scenario.assertions), encoding="utf-8"
    )
    sys.stdout.write(
        f"{scenario.graph.n_authors} authors, {scenario.graph.n_papers} papers, "
        f"{scenario.graph.n_cite_edges} citations -> {out_dir}\n"
    )
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    graph, _ = load_graph(args.directory)
    report = dataset_stats(graph)
    sys.stdout.write(report.summary_csv())
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in report.to_csvs().items():
            (out_dir / name).write_text(text, encoding="utf-8")
    return 0


def _add_walk_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--steps", type=int, default=WalkParams.step_budget,
                        help="walk step budget (arrivals)")
    parser.add_argument("--seed", type=int, default=WalkParams.seed)
    parser.add_argument("--walkers", type=int, default=WalkParams.walkers,
                        help="independent walks sharing the step budget, each "
                             "with its own RNG stream and the law of one surfer; "
                             "output depends on the walk flags only, not on the "
                             "machine")
    parser.add_argument("--theta", type=float, default=WalkParams.theta,
                        help="probability of following a citation from a paper")
    parser.add_argument("--df", type=float, default=WalkParams.damping_df,
                        help="reinitialization probability at each arrival")
    parser.add_argument("--min-cite-count", type=int, default=WalkParams.min_citation_count,
                        help="virtual floor on outgoing reference counts")
    parser.add_argument("--mode", choices=[m.value for m in WalkMode],
                        default=WalkParams.mode.value)
    default_weights = ",".join(f"{name}={getattr(WalkParams, field):g}"
                               for name, field in WEIGHT_FIELDS.items())
    parser.add_argument("--weights", default=None, metavar="SPEC",
                        help=f"c-weights (default {default_weights})")
    parser.add_argument("--restart-author-prob", type=float,
                        default=WalkParams.restart_author_prob,
                        help="probability a restart enters at an author "
                             "(default: proportional to node counts)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pira",
        description="Rank authors and papers of a bipartite citation graph.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="load a TSV dataset and print its report")
    p_ingest.add_argument("directory")
    p_ingest.add_argument("--idmap", default=None, help="write id-to-index map here")
    p_ingest.add_argument("--export", default=None,
                          help="re-export the loaded graph to this directory")
    p_ingest.set_defaults(func=cmd_ingest)

    p_rank = sub.add_parser("rank", help="rank authors or papers by one method")
    p_rank.add_argument("directory")
    p_rank.add_argument("--method", required=True,
                        choices=["cit", "hindex", "oracle", "pira", "pra", "prp", "pub"])
    p_rank.add_argument("--out", default=None, help="ranking file (default stdout)")
    p_rank.add_argument("--papers", action="store_true",
                        help="rank papers instead of authors")
    p_rank.add_argument("--all-nodes", action="store_true",
                        help="rank all nodes, not only DBLP ones")
    _add_walk_flags(p_rank)
    p_rank.set_defaults(func=cmd_rank)

    p_cmp = sub.add_parser("compare", help="compare two ranking files")
    p_cmp.add_argument("rank_a")
    p_cmp.add_argument("rank_b")
    group = p_cmp.add_mutually_exclusive_group(required=True)
    group.add_argument("--curve", default=None, metavar="CUTOFFS",
                       help="top-x%% difference curve, e.g. 1,5,10,25,50,100")
    group.add_argument("--scatter", type=int, default=None, metavar="N",
                       help="rank differences for the first N nodes")
    p_cmp.add_argument("--out", default=None)
    p_cmp.set_defaults(func=cmd_compare)

    p_ins = sub.add_parser("inspect", help="export a node neighborhood as DOT")
    p_ins.add_argument("directory")
    p_ins.add_argument("node", help="a:AUTHOR_ID or p:PAPER_ID")
    p_ins.add_argument("--radius", type=int, default=1)
    p_ins.add_argument("--dot", default=None, help="output file (default stdout)")
    p_ins.set_defaults(func=cmd_inspect)

    p_syn = sub.add_parser("synth", help="generate a scenario dataset")
    p_syn.add_argument("kind", help=", ".join(k.value for k in ScenarioKind))
    p_syn.add_argument("out_dir")
    p_syn.add_argument("--padding", type=int, default=0)
    p_syn.add_argument("--param", action="append", metavar="KEY=VALUE",
                       help="override a size parameter (repeatable)")
    p_syn.set_defaults(func=cmd_synth)

    p_sta = sub.add_parser("stats", help="dataset statistics")
    p_sta.add_argument("directory")
    p_sta.add_argument("--out", default=None, help="directory for histogram CSVs")
    p_sta.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (PiraError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
