"""Score a small citation graph with every ranking method.

Builds a toy bipartite graph by hand, computes publication count, citation
count, H-index, PageRank on papers (PR-P), PageRank on the derived author
graph (PR-A) and the bipartite-walk score, then prints them side by side.
"""

from pira import WalkParams, build_graph, pira_rank
from pira.baselines import cit_count, h_index, pr_a, pr_p, pub_count
from pira.oracle import expected_scores

# Ada wrote a heavily cited classic; Bob writes prolifically but cites
# mostly himself; Cleo co-authored one well-received paper with Ada.
graph = build_graph(
    authors=[("ada", "Ada", True), ("bob", "Bob", True), ("cleo", "Cleo", True)],
    papers=[
        ("classic", "A Classic Result", True),
        ("joint", "A Joint Follow-up", True),
        ("b1", "Bob Vol. 1", True),
        ("b2", "Bob Vol. 2", True),
        ("b3", "Bob Vol. 3", True),
    ]
    + [(f"ext{i}", f"External Study {i}", False) for i in range(1, 7)],
    wrote=[
        ("ada", "classic"), ("ada", "joint"), ("cleo", "joint"),
        ("bob", "b1"), ("bob", "b2"), ("bob", "b3"),
    ],
    cites=[(f"ext{i}", "classic") for i in range(1, 7)]
    + [
        ("joint", "classic"),
        ("b2", "b1"), ("b3", "b2"),   # Bob's self-citation chain
        ("ext1", "joint"),
    ],
)

pub = pub_count(graph)
cit = cit_count(graph)
hind = h_index(graph)
prp = pr_p(graph)
pra = pr_a(graph)

# Monte Carlo walk and its exact limit
walk = pira_rank(graph, WalkParams(step_budget=2_000_000, seed=42))
exact = expected_scores(graph, WalkParams())

print(f"{'author':8s} {'Pub':>4s} {'Cit':>4s} {'Hind':>4s} "
      f"{'PR-P':>8s} {'PR-A':>8s} {'walk':>8s} {'exact':>8s}")
for author in graph.authors:
    i = author.id.index
    print(
        f"{author.ext_id:8s} {pub[i]:4.0f} {cit[i]:4.0f} {hind[i]:4.0f} "
        f"{prp[i]:8.4f} {pra[i]:8.4f} "
        f"{walk.normalized_of(author.id):8.4f} "
        f"{exact.normalized_of(author.id):8.4f}"
    )

print()
print("Bob leads on publications, but the walk ranks Ada first: her score")
print("arrives through citations from independent papers, not her own.")
