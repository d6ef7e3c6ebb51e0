"""Show which ranking measures tell the generated scenarios apart.

Four structural situations separate the ranking methods: a single
high-quality paper versus many quiet ones, co-author crowds, the quality of
citing papers, and self-citation.  For each scenario the script reports
which measures order the designated pair correctly.  Two further scenarios
show the paper-graph citation trap and reference-count dilution.

Every scenario's ordering assertions are checked on the way: a failed one is
marked "!?" in the table, named on stderr, and makes the script exit 1.
"""

import sys

from pira.analysis import all_papers, dblp_authors, rank
from pira.baselines import paper_pagerank
from pira.oracle import expected_scores
from pira.scenarios import (
    ScenarioKind,
    ScenarioSpec,
    evaluate_assertions,
    generate,
)
from pira.walk import ScoreTable, WalkParams, pira_rank

MATRIX = (
    ScenarioKind.PAPER_QUALITY,
    ScenarioKind.COAUTHOR_COUNT,
    ScenarioKind.CITING_QUALITY,
    ScenarioKind.SELF_CITATION,
)
MEASURES = ("pub", "cit", "pr_a", "pira")

failed = []


def check(scenario):
    """Each measure's assertion result; failed ones are kept for the exit."""
    results = evaluate_assertions(scenario.graph, scenario.assertions)
    failed.extend(r.assertion for r in results if not r.passed)
    return {r.assertion.measure: r for r in results}


print(f"{'scenario':18s}" + "".join(f"{m:>8s}" for m in MEASURES))
for kind in MATRIX:
    results = check(generate(ScenarioSpec(kind), padding=20))
    pair = results["pira"].assertion  # the designated pair, preferred first
    cells = []
    for measure in MEASURES:
        a = results[measure].assertion
        separates = (a.node_a, a.relation, a.node_b) == (pair.node_a, ">", pair.node_b)
        cells.append(("yes" if separates else "no") + ("" if results[measure].passed else "!?"))
    print(f"{kind.value:18s}" + "".join(f"{c:>8s}" for c in cells))

print("\nCitation loop: two papers citing only each other trap the")
print("paper-graph surfer; the bipartite walk escapes through the authors.")
loop = generate(ScenarioSpec(ScenarioKind.CITATION_LOOP), padding=20)
check(loop)
prp = rank(ScoreTable.over_papers(loop.graph, paper_pagerank(loop.graph)),
           subset=all_papers)
pira = rank(expected_scores(loop.graph, WalkParams()), subset=all_papers)
for node in ("x", "y", "z"):
    print(f"  paper {node}: paper-graph rank {prp.position_of(node):2d}  "
          f"walk rank {pira.position_of(node):2d}")

print("\nDilution: a minimum citation count starves single-reference chains.")
chain = generate(ScenarioSpec(ScenarioKind.SINGLE_REF_CHAIN), padding=200)
check(chain)
for k in (0, 10):
    params = WalkParams(step_budget=1_000_000, seed=7, min_citation_count=k)
    ranking = rank(pira_rank(chain.graph, params), subset=dblp_authors)
    print(f"  min_citation_count={k:2d}: chain author ranks "
          f"{ranking.position_of('chain_author')}")

for a in failed:
    print(f"failed assertion: {a.measure} {a.node_a} {a.relation} {a.node_b}",
          file=sys.stderr)
sys.exit(1 if failed else 0)
