from dataclasses import replace

import numpy as np
import pytest

from pira import WalkMode, WalkParams, build_graph
from pira.errors import ConvergenceError
from pira.oracle import (
    TransitionSystem,
    build_transition_system,
    expected_scores,
    stationary_distribution,
)

from conftest import FIXTURE_BUILDERS, pair_graph, star_graph


def _solve_stationary_directly(matrix: np.ndarray) -> np.ndarray:
    """Independent route: solve pi (M - I) = 0 with sum(pi) = 1 by least squares."""
    n = matrix.shape[0]
    a = np.vstack([matrix.T - np.eye(n), np.ones(n)])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    return pi


def test_two_state_system_hand_enumerated():
    # one author, one paper, no citations, df=0
    g = build_graph(
        authors=[("a0", "A", True)],
        papers=[("p0", "P", True)],
        wrote=[("a0", "p0")],
    )
    params = WalkParams(damping_df=0.0, theta=0.7)
    ts = build_transition_system(g, params)
    m = ts.to_dense()
    # author row sends everything to the paper
    assert m[0].tolist() == pytest.approx([0.0, 1.0])
    # paper row: theta mass has no references and restarts (uniform over the
    # two nodes), the rest goes back to the author
    restart = ts.restart_dist
    expected = 0.7 * restart + 0.3 * np.array([1.0, 0.0])
    assert m[1] == pytest.approx(expected)


def test_rows_sum_to_one_on_all_fixtures():
    params = WalkParams(min_citation_count=3)
    for build in FIXTURE_BUILDERS.values():
        g = build()
        ts = build_transition_system(g, params)
        assert np.allclose(ts.row_sums(), 1.0, atol=1e-12)
        dense = ts.to_dense()
        assert np.all(dense >= 0)
        assert np.allclose(dense.sum(axis=1), 1.0, atol=1e-12)


def test_mutual_pair_rows():
    g = pair_graph()
    ts = build_transition_system(g, WalkParams(theta=1.0, damping_df=0.15))
    m = ts.to_dense()
    # paper rows: 0.15 through the restart distribution, 0.85 to the other paper
    restart = ts.restart_dist
    assert m[1] == pytest.approx(0.15 * restart + 0.85 * np.array([0, 0, 1.0]))
    assert m[2] == pytest.approx(0.15 * restart + 0.85 * np.array([0, 1.0, 0]))


def test_stationary_of_damped_two_cycle_matrix():
    cycle = np.array([[0.0, 1.0], [1.0, 0.0]])
    damped = 0.15 * np.full((2, 2), 0.5) + 0.85 * cycle
    pi = stationary_distribution(damped)
    assert pi == pytest.approx([0.5, 0.5], abs=1e-9)


def test_stationary_of_three_ring():
    # papers-only citation ring with theta=1: uniform by symmetry
    g = build_graph(
        authors=[],
        papers=[("p0", "A", True), ("p1", "B", True), ("p2", "C", True)],
        cites=[("p0", "p1"), ("p1", "p2"), ("p2", "p0")],
    )
    ts = build_transition_system(g, WalkParams(theta=1.0))
    pi = stationary_distribution(ts)
    assert pi == pytest.approx([1 / 3] * 3, abs=1e-9)


def test_stationary_star_matches_direct_solve():
    g = star_graph()
    ts = build_transition_system(g, WalkParams())
    pi = stationary_distribution(ts)
    direct = _solve_stationary_directly(ts.to_dense())
    assert pi == pytest.approx(direct, abs=1e-9)
    hub = g.n_authors + g.paper_index["hub"]
    leaves = [g.n_authors + g.paper_index[f"leaf{i}"] for i in range(6)]
    assert all(pi[hub] > pi[l] for l in leaves)


def test_stationary_is_fixed_point():
    tol = 1e-12
    for build in FIXTURE_BUILDERS.values():
        ts = build_transition_system(build(), WalkParams())
        pi = stationary_distribution(ts, tol=tol)
        assert np.abs(ts.step(pi) - pi).sum() < 10 * tol
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)


def test_stationary_convergence_error():
    # a periodic chain with unbalanced cycle classes oscillates forever
    periodic = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    with pytest.raises(ConvergenceError) as err:
        stationary_distribution(periodic, tol=1e-15, max_iterations=500)
    assert err.value.residual > 0


def test_unit_weights_proportional_to_pi():
    g = star_graph()
    params = WalkParams(cite_weight=1, wrote_weight=1, iswb_weight=1,
                        restarting_weight=1)
    ts = build_transition_system(g, params)
    pi = stationary_distribution(ts)
    table = expected_scores(g, params)
    assert table.normalized == pytest.approx(pi * g.n_nodes, abs=1e-9)


def test_zero_wrote_weight_starves_papers():
    # no citations and author-only restarts: papers are reached only through
    # wrote edges, so with wrote_weight=0 they score nothing
    g = build_graph(
        authors=[("a0", "A", True), ("a1", "B", True)],
        papers=[("p0", "P", True), ("p1", "Q", True)],
        wrote=[("a0", "p0"), ("a1", "p1")],
    )
    params = WalkParams(wrote_weight=0.0, restarting_weight=1.0,
                        restart_author_prob=1.0)
    table = expected_scores(g, params)
    by_ext = dict(zip(table.ext_ids, table.normalized))
    assert by_ext["p0"] == 0.0
    assert by_ext["p1"] == 0.0
    assert by_ext["a0"] > 0


def test_zero_score_mass_rejected():
    # theta=1 on a graph without citations: every arrival is a restart or a
    # wrote move, and both carry zero weight
    g = build_graph(authors=[("a0", "A", True)], papers=[("p0", "P", True)],
                    wrote=[("a0", "p0")])
    params = WalkParams(theta=1.0, wrote_weight=0.0, restarting_weight=0.0)
    with pytest.raises(ValueError, match="no score mass"):
        expected_scores(g, params)


def test_expected_scores_scale_invariant_in_weights():
    g = star_graph()
    base = WalkParams(cite_weight=2, wrote_weight=0.5, iswb_weight=1,
                      restarting_weight=0.25)
    t1 = expected_scores(g, base)
    t2 = expected_scores(g, base.scaled_weights(37.0))
    assert np.allclose(t1.normalized, t2.normalized, atol=1e-9)


def test_fake_mass_with_min_citation_count():
    # one reference, K=10: the citation branch keeps 1/10 real mass
    g = build_graph(
        authors=[],
        papers=[("src", "S", True), ("dst", "D", True)],
        cites=[("src", "dst")],
    )
    params = WalkParams(theta=1.0, damping_df=0.0, min_citation_count=10)
    ts = build_transition_system(g, params)
    src = 0
    assert ts.cite_m[src].sum() == pytest.approx(0.1)
    assert ts.fake_mass[src] == pytest.approx(0.9)
    m = ts.to_dense()
    assert np.allclose(m.sum(axis=1), 1.0)


# --- exact transition rows ------------------------------------------------

def _authors_with_two_one_and_no_papers():
    # a0 wrote p1 solo (p-weight 1) and p2 with a1 (p-weight 1/2); a2 wrote
    # nothing; no paper has references
    return build_graph(
        authors=[("a0", "Main", True), ("a1", "Co", True), ("a2", "Idle", True)],
        papers=[("p1", "Solo", True), ("p2", "Joint", True)],
        wrote=[("a0", "p1"), ("a0", "p2"), ("a1", "p2")],
    )


def _source_with_three_refs():
    papers = [("src", "Source", True)] + [(f"r{i}", f"Ref {i}", True) for i in range(3)]
    return build_graph(authors=[], papers=papers,
                       cites=[("src", f"r{i}") for i in range(3)])


def _authored_source_with_two_refs():
    # src, written by a0 and a1, cites r0 and r1; the references have no
    # authors and no references of their own
    return build_graph(
        authors=[("a0", "First", True), ("a1", "Second", True)],
        papers=[("src", "Source", True), ("r0", "Ref 0", True), ("r1", "Ref 1", True)],
        wrote=[("a0", "src"), ("a1", "src")],
        cites=[("src", "r0"), ("src", "r1")],
    )


_DF, _THETA = 0.15, 0.7
_KEEP = 1 - _DF
_LITERAL = WalkParams(mode=WalkMode.LITERAL)

# (graph, params, row node, {class: {target: probability}}, init_mass, fake_mass)
ROW_CASES = {
    "p_weight_split": (
        _authors_with_two_one_and_no_papers, WalkParams(), "a0",
        {"wrote": {"p1": _KEEP * 2 / 3, "p2": _KEEP / 3}}, _DF, 0.0),
    "one_paper": (
        _authors_with_two_one_and_no_papers, WalkParams(), "a1",
        {"wrote": {"p2": _KEEP}}, _DF, 0.0),
    "no_papers": (
        _authors_with_two_one_and_no_papers, WalkParams(), "a2", {}, 1.0, 0.0),
    "k0_uniform_refs": (
        _source_with_three_refs, WalkParams(min_citation_count=0), "src",
        {"cite": {f"r{i}": _KEEP * _THETA / 3 for i in range(3)}},
        _DF + _KEEP * (1 - _THETA), 0.0),
    "no_refs": (
        _authors_with_two_one_and_no_papers, WalkParams(min_citation_count=50), "p1",
        {"iswb": {"a0": _KEEP * (1 - _THETA)}}, _DF + _KEEP * _THETA, 0.0),
    # literal mode, R references over S = max(R, K) slots: each reference
    # gets keep*theta/S, the paper's own copy keep*(1-theta)*R/S (the double
    # count) and the fake pick keep*(S-R)/S, whatever theta is
    "literal_paper_k5": (
        _authored_source_with_two_refs, replace(_LITERAL, min_citation_count=5), "src",
        {"cite": {"r0": _KEEP * _THETA / 5, "r1": _KEEP * _THETA / 5,
                  "copy:src": _KEEP * (1 - _THETA) * 2 / 5}},
        _DF, _KEEP * 3 / 5),
    "literal_paper_k0": (
        _authored_source_with_two_refs, _LITERAL, "src",
        {"cite": {"r0": _KEEP * _THETA / 2, "r1": _KEEP * _THETA / 2,
                  "copy:src": _KEEP * (1 - _THETA)}},
        _DF, 0.0),
    # the copy jumps to a uniform author of its paper
    "literal_copy": (
        _authored_source_with_two_refs, _LITERAL, "copy:src",
        {"iswb": {"a0": _KEEP / 2, "a1": _KEEP / 2}}, _DF, 0.0),
    # ... or restarts when the paper has no authors
    "literal_copy_no_authors": (
        _source_with_three_refs, _LITERAL, "copy:src", {}, 1.0, 0.0),
    # a paper without references always restarts, K or not
    "literal_no_refs": (
        _authors_with_two_one_and_no_papers, replace(_LITERAL, min_citation_count=50), "p1",
        {}, 1.0, 0.0),
    "literal_no_refs_k0": (
        _authored_source_with_two_refs, _LITERAL, "r0", {}, 1.0, 0.0),
}


@pytest.mark.parametrize("case", list(ROW_CASES))
def test_transition_rows_exact(case):
    build, params, node, expected, init_mass, fake_mass = ROW_CASES[case]
    g = build()
    ts = build_transition_system(g, params)
    def state(ext):
        if ext.startswith("copy:"):  # literal copies follow the nodes
            return g.n_nodes + g.paper_index[ext[len("copy:"):]]
        return g.author_index[ext] if ext in g.author_index else g.n_authors + g.paper_index[ext]

    row = state(node)
    classes = {"wrote": ts.wrote_m, "cite": ts.cite_m, "iswb": ts.iswb_m}
    for name, matrix in classes.items():
        want = np.zeros(ts.n)
        for target, p in expected.get(name, {}).items():
            want[state(target)] = p
        assert matrix[row].toarray().ravel() == pytest.approx(want, abs=1e-15), name
    assert ts.init_mass[row] == pytest.approx(init_mass, abs=1e-15)
    assert ts.fake_mass[row] == pytest.approx(fake_mass, abs=1e-15)
    assert ts.row_sums()[row] == pytest.approx(1.0, abs=1e-15)


def test_oracle_has_no_size_cap():
    # 10,200 nodes, above the size where the oracle used to refuse
    rng = np.random.default_rng(7)
    n_a, n_p = 3_400, 6_800
    # build_graph drops the duplicate edges and self-citations among these
    g = build_graph([(f"a{i}", "A", True) for i in range(n_a)],
                    [(f"p{i}", "P", True) for i in range(n_p)],
                    [(f"a{a}", f"p{p}") for a, p in rng.integers([n_a, n_p], size=(9_000, 2))],
                    [(f"p{s}", f"p{d}") for s, d in rng.integers(n_p, size=(20_000, 2))])
    assert g.n_nodes > 10_000
    for mode in WalkMode:
        params = WalkParams(mode=mode, min_citation_count=3)
        ts = build_transition_system(g, params)
        assert np.abs(ts.row_sums() - 1.0).max() <= 1e-12
        table = expected_scores(g, params)
        assert len(table) == g.n_nodes
        assert table.normalized.sum() == pytest.approx(g.n_nodes)
    # a cap applies only when the caller asks for one
    with pytest.raises(ValueError, match="max_nodes"):
        expected_scores(g, WalkParams(), max_nodes=g.n_nodes - 1)
