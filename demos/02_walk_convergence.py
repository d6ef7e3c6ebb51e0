"""Watch the Monte Carlo walker converge to the exact stationary scores.

Runs the walk with growing step budgets against the transition-system
oracle and prints the shrinking L1 gap, then demonstrates two bookkeeping
guarantees: unit c-weights conserve the step budget exactly, and rescaling
all c-weights leaves the normalized scores untouched.
"""

import numpy as np

from pira import WalkParams, build_graph, pira_rank
from pira.oracle import build_transition_system, expected_scores, stationary_distribution

graph = build_graph(
    authors=[("a", "Ann", True), ("b", "Ben", True)],
    papers=[("p", "First", True), ("q", "Second", True), ("r", "Third", True)],
    wrote=[("a", "p"), ("a", "q"), ("b", "q"), ("b", "r")],
    cites=[("q", "p"), ("r", "q"), ("p", "r")],
)

params = WalkParams(seed=42)
exact = expected_scores(graph, params)

print("stationary arrival distribution:")
ts = build_transition_system(graph, params)
pi = stationary_distribution(ts)
# one state per node, authors then papers, as the score table's rows
for state, ext in enumerate(exact.ext_ids):
    print(f"  {ext}: pi={pi[state]:.4f}  expected score={exact.normalized[state]:.4f}")

print("\nL1 distance of the Monte Carlo scores to the oracle:")
for budget in (10**4, 10**5, 10**6, 10**7):
    mc = pira_rank(graph, WalkParams(step_budget=budget, seed=42))
    l1 = np.abs(mc.normalized - exact.normalized).sum()
    print(f"  {budget:>10,d} steps -> L1 = {l1:.5f}")

unit = WalkParams(cite_weight=1, wrote_weight=1, iswb_weight=1,
                  restarting_weight=1, step_budget=250_000, seed=1)
table = pira_rank(graph, unit)
print(f"\nunit weights: counters sum to {table.raw.sum():,.0f} "
      f"for a budget of {unit.step_budget:,d}")

scaled = pira_rank(graph, unit.scaled_weights(12.5))
print("rescaling every c-weight by 12.5 changes normalized scores by",
      f"{np.abs(scaled.normalized - table.normalized).max():.2e}")
