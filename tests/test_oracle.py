import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pira import WalkMode, WalkParams, build_graph, pira_rank
from pira.errors import ConvergenceError
from pira.oracle import (
    build_transition_system,
    class_inflows,
    expected_scores,
    stationary_distribution,
)
from pira.walk import (CITE, ISWB, N_CLASSES, RESTART, TO_FAKE, TO_RESTART, WROTE,
                       _outcome_rows, entry_classes)

from conftest import (FIXTURE_BUILDERS, dense_chain, edge_case_graphs, outcome_entries,
                      pair_graph, small_graph, small_graphs, star_graph)


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
    m = dense_chain(ts)
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
        dense = dense_chain(ts)
        assert np.all(dense >= 0)
        assert np.allclose(dense.sum(axis=1), 1.0, atol=1e-12)


def test_mutual_pair_rows():
    g = pair_graph()
    ts = build_transition_system(g, WalkParams(theta=1.0, damping_df=0.15))
    m = dense_chain(ts)
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
    pi = stationary_distribution(ts.link, ts.jumps)
    assert pi == pytest.approx([1 / 3] * 3, abs=1e-9)


def test_stationary_star_matches_direct_solve():
    g = star_graph()
    ts = build_transition_system(g, WalkParams())
    pi = stationary_distribution(ts.link, ts.jumps)
    direct = _solve_stationary_directly(dense_chain(ts))
    assert pi == pytest.approx(direct, abs=1e-9)
    hub = g.n_authors + g.paper_index["hub"]
    leaves = [g.n_authors + g.paper_index[f"leaf{i}"] for i in range(6)]
    assert all(pi[hub] > pi[l] for l in leaves)


def test_stationary_is_fixed_point():
    tol = 1e-12
    for build in FIXTURE_BUILDERS.values():
        ts = build_transition_system(build(), WalkParams())
        pi = stationary_distribution(ts.link, ts.jumps, tol=tol)
        assert np.abs(pi @ dense_chain(ts) - pi).sum() < 10 * tol
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)


def test_stationary_convergence_error():
    # a periodic chain with unbalanced cycle classes oscillates forever
    periodic = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    with pytest.raises(ConvergenceError) as err:
        stationary_distribution(periodic, tol=1e-15, max_iterations=500)
    assert err.value.residual > 0


@pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan"), float("inf")])
def test_tol_must_be_positive_and_finite(tol):
    # a NaN tol used to pass the check and run every iteration before
    # failing to converge with a residual of 0
    with pytest.raises(ValueError, match="tol"):
        stationary_distribution(np.array([[0.5, 0.5], [0.5, 0.5]]), tol=tol)
    with pytest.raises(ValueError, match="tol"):
        expected_scores(star_graph(), WalkParams(), tol=tol)


def test_unit_weights_proportional_to_pi():
    g = star_graph()
    params = WalkParams(cite_weight=1, wrote_weight=1, iswb_weight=1,
                        restarting_weight=1)
    ts = build_transition_system(g, params)
    pi = stationary_distribution(ts.link, ts.jumps)
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


def test_expected_scores_of_an_empty_graph_is_refused():
    for mode in WalkMode:
        with pytest.raises(ValueError, match="transition system for an empty graph"):
            expected_scores(build_graph([], []), WalkParams(mode=mode))


def test_zero_score_mass_rejected():
    # theta=1 on a graph without citations: every arrival is a restart or a
    # wrote move, and both carry zero weight; both estimators score through
    # walk.score_arrivals and say so in the same words
    g = build_graph(authors=[("a0", "A", True)], papers=[("p0", "P", True)],
                    wrote=[("a0", "p0")])
    params = WalkParams(theta=1.0, wrote_weight=0.0, restarting_weight=0.0,
                        step_budget=1_000)
    for estimator in (expected_scores, pira_rank):
        with pytest.raises(ValueError, match="^the walk accumulates no score mass"):
            estimator(g, params)


@pytest.mark.parametrize("mode", list(WalkMode))
def test_equal_weights_give_each_nodes_share_of_the_arrivals(mode):
    # raw is in the walk's units, weights relative to the largest: with all
    # four weights equal it is the stationary share of the arrivals, at any
    # common value
    for name, build in FIXTURE_BUILDERS.items():
        g = build()
        unit = WalkParams(mode=mode, min_citation_count=3, cite_weight=1, wrote_weight=1,
                          iswb_weight=1, restarting_weight=1)
        raw = expected_scores(g, unit).raw
        assert raw.sum() == pytest.approx(1.0, abs=1e-12), name
        assert np.array_equal(expected_scores(g, unit.scaled_weights(37.0)).raw, raw), name


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
    m = dense_chain(ts)
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
        want = np.zeros(matrix.shape[1])
        for target, p in expected.get(name, {}).items():
            want[state(target)] = p
        assert matrix[row].toarray().ravel() == pytest.approx(want, abs=1e-15), name
    assert ts.init_mass[row] == pytest.approx(init_mass, abs=1e-15)
    assert ts.fake_mass[row] == pytest.approx(fake_mass, abs=1e-15)
    assert dense_chain(ts)[row].sum() == pytest.approx(1.0, abs=1e-15)


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
        # too large for dense_chain: each jump's dist sums to one (or its mass is 0)
        sums = np.asarray(ts.link.sum(axis=1)).ravel() + ts.init_mass + ts.fake_mass
        assert np.abs(sums - 1.0).max() <= 1e-12
        table = expected_scores(g, params)
        assert len(table) == g.n_nodes
        assert table.normalized.sum() == pytest.approx(g.n_nodes)
    # a cap applies only when the caller asks for one
    with pytest.raises(ValueError, match="max_nodes"):
        expected_scores(g, WalkParams(), max_nodes=g.n_nodes - 1)


def test_stationary_of_factors_equals_stationary_of_their_product():
    # "idle" wrote only a paper without references, so its row of the
    # product is empty although its row of the first factor is not
    g = build_graph(
        authors=[("a", "A", True), ("b", "B", True), ("idle", "Idle", True)],
        papers=[("p", "P", True), ("q", "Q", True), ("r", "R", True)],
        wrote=[("a", "p"), ("b", "q"), ("b", "r"), ("idle", "r")],
        cites=[("p", "q"), ("q", "p"), ("q", "r")],
    )
    hops = (g.to_paper, g.to_ref, g.to_author)
    product = (hops[0] @ hops[1] @ hops[2]).toarray()
    assert product[g.author_index["idle"]].sum() == 0.0
    n = g.n_authors
    # the mass the links leave, plus a fifth of every row, lands uniformly
    scaled = [0.8 * hops[0], hops[1], hops[2]]
    jumps = ((1.0 - 0.8 * product.sum(axis=1), np.full(n, 1.0 / n)),)
    pi = stationary_distribution(scaled, jumps)
    assert pi == pytest.approx(stationary_distribution(0.8 * product, jumps), rel=1e-12, abs=0)
    chain = 0.8 * product + np.outer(*jumps[0])
    assert pi == pytest.approx(_solve_stationary_directly(chain), abs=1e-9)


def test_stationary_rejects_bad_link_and_jumps_at_once():
    ok = np.full((2, 2), 0.5)
    uniform = np.full(2, 0.5)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            stationary_distribution(np.array([[0.5, bad], [0.5, 0.5]]))
        with pytest.raises(ValueError, match="finite"):
            stationary_distribution([ok, np.array([[1.0, 0.0], [0.0, bad]])])
        with pytest.raises(ValueError, match="finite"):
            stationary_distribution(ok, ((np.array([0.0, bad]), uniform),))
        with pytest.raises(ValueError, match="finite"):
            stationary_distribution(ok, ((np.zeros(2), np.array([bad, 0.5])),))
    with pytest.raises(ValueError, match="chain"):
        stationary_distribution([np.ones((2, 3)), np.ones((2, 2))])
    with pytest.raises(ValueError, match="square"):
        stationary_distribution([np.ones((2, 3)), np.ones((3, 1))])


_HALF = np.full((2, 2), 0.5)
_UNIFORM = np.full(2, 0.5)


@pytest.mark.parametrize("link, jumps, start, match", [
    # a negative entry used to give a "distribution" outside [0, 1]
    (np.array([[0.5, 0.5], [-0.2, 1.2]]), (), None, "negative"),
    ([_HALF, np.array([[1.2, -0.2], [0.0, 1.0]])], (), None, "negative"),
    (_HALF, ((np.array([-0.5, 0.0]), _UNIFORM),), None, "negative"),
    (0.5 * _HALF, ((_UNIFORM, np.array([1.5, -0.5])),), None, "negative"),
    # a chain that loses its mass used to run every iteration, warning at each
    (np.zeros((2, 2)), (), None, "mass"),
    (np.array([[0.0, 1.0], [0.0, 0.0]]), (), None, "mass"),
    # a negative start used to come back as the distribution; a zero, NaN
    # or infinite one blamed the chain, and one of another length numpy
    (np.eye(2), (), np.array([-1.0, 2.0]), "start"),
    (_HALF, (), np.zeros(2), "start"),
    (_HALF, (), np.array([0.5, float("nan")]), "start"),
    (_HALF, (), np.array([float("inf"), 0.5]), "start"),
    (_HALF, (), np.full(3, 1 / 3), "start"),
    (_HALF, (), np.full((1, 2), 0.5), "start"),
], ids=["link", "factor", "jump-mass", "jump-dist", "zero", "nilpotent", "start-negative",
        "start-zero", "start-nan", "start-inf", "start-length", "start-2d"])
def test_stationary_rejects_an_invalid_chain_at_once(link, jumps, start, match):
    began = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            stationary_distribution(link, jumps, start=start)
    assert time.perf_counter() - began < 0.5


def _state_entries(ts):
    """(row, target, class, probability) of each outcome of the system's
    state rows (the entry row left out), classed by the test's reference."""
    return [e for e in outcome_entries(ts) if e[0] < ts.n_states]


def _assert_link_classes_follow_the_endpoints(graph, params):
    ts = build_transition_system(graph, params)
    s = ts.n_states
    every = outcome_entries(ts)
    indptr, target, _ = _outcome_rows(ts)
    # the package's one class rule gives each outcome the reference's class
    assert entry_classes(indptr, target, ts.n_authors).tolist() == [c for *_, c, _ in every]
    # the entry row, last, only restarts
    assert [e for e in every if e[0] == s] == [(s, TO_RESTART, RESTART, 1.0)] == every[-1:]
    entries = every[:-1]
    # each row lists its restart, then its fake pick, then its links
    order = {TO_RESTART: 0, TO_FAKE: 1}
    assert entries == sorted(entries, key=lambda e: (e[0], order.get(e[1], 2)))
    # the rows' non-sentinel outcomes are exactly the link's entries, in order
    link = ts.link
    got = zip(np.repeat(np.arange(s), np.diff(link.indptr)).tolist(), link.indices.tolist(),
              link.data.tolist())
    assert list(got) == [(r, t, p) for r, t, _, p in entries if t >= 0]
    # each row lists its moves to papers, then to authors, then to its copy,
    # each in index order: every seeded walk draws in this order
    n_a, n = graph.n_authors, graph.n_nodes
    for r in range(s):
        targets = link.indices[link.indptr[r]:link.indptr[r + 1]].tolist()
        assert targets == sorted(set(targets), key=lambda t: (t >= n, t < n_a, t)), r
    # the jump masses are the rows' restart and fake outcomes, and those
    # outcomes are exactly the masses' positive entries
    for mass, sentinel in ((ts.init_mass, TO_RESTART), (ts.fake_mass, TO_FAKE)):
        want = np.zeros(s)
        for r, t, _, p in entries:
            if t == sentinel:
                want[r] += p
        assert np.array_equal(mass, want), sentinel
        assert [(r, p) for r, t, _, p in entries if t == sentinel] == [
            (r, float(mass[r])) for r in np.flatnonzero(mass > 0).tolist()], sentinel
    # the class views of the link hold exactly the rows' entries of their class
    views = {WROTE: ts.wrote_m, CITE: ts.cite_m, ISWB: ts.iswb_m}
    for cls, view in views.items():
        coo = view.tocoo()
        got = sorted(zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()))
        assert got == sorted((r, t, p) for r, t, c, p in entries if c == cls), cls
        assert not view.data.flags.writeable
    assert sum(view.nnz for view in views.values()) == ts.link.nnz


@pytest.mark.parametrize("k", [0, 3])
def test_each_link_outcome_has_the_class_its_endpoints_imply(fixture_graphs, k):
    for g in [*fixture_graphs.values(), *edge_case_graphs()]:
        for mode in WalkMode:
            _assert_link_classes_follow_the_endpoints(
                g, WalkParams(mode=mode, min_citation_count=k))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_graphs, st.sampled_from([0, 3]), st.sampled_from([0.0, 0.5, 1.0]),
       st.sampled_from([0.0, 0.15, 1.0]), st.sampled_from(list(WalkMode)))
def test_each_link_outcome_has_the_class_its_endpoints_imply_on_random_graphs(
        draw, k, theta, df, mode):
    params = WalkParams(min_citation_count=k, theta=theta, damping_df=df, mode=mode)
    _assert_link_classes_follow_the_endpoints(small_graph(draw), params)


def _dense_class_inflows(ts, weights) -> np.ndarray:
    """Arrivals per state and class of one step from `weights`, summed entry
    by entry over the system's outcomes as the test's reference classes
    them; restart and fake outcomes land on ``ts``'s distributions."""
    landing = {TO_RESTART: ts.restart_dist, TO_FAKE: ts.paper_dist}
    out = np.zeros((len(weights), N_CLASSES))
    for row, target, cls, p in _state_entries(ts):
        if target < 0:
            out[:, cls] += weights[row] * p * landing[target]
        else:
            out[target, cls] += weights[row] * p
    return out


@pytest.mark.parametrize("k", [0, 3])
def test_class_inflows_equal_a_dense_per_class_reference(fixture_graphs, k):
    rng = np.random.default_rng(11)
    for name, g in fixture_graphs.items():
        for mode in WalkMode:
            params = WalkParams(mode=mode, min_citation_count=k, theta=0.6, damping_df=0.2)
            ts = build_transition_system(g, params)
            pi = stationary_distribution(ts.link, ts.jumps)
            n = ts.link.shape[0]
            for x in (pi, rng.random(n), rng.integers(0, 50, n) * (rng.random(n) < 0.5)):
                got = class_inflows(ts, x)
                want = _dense_class_inflows(ts, x)
                assert got.shape == (n, N_CLASSES)
                assert np.abs(got - want).max() <= 1e-13 * x.sum(), (name, mode)
                # every row sums to one, so one step conserves the weights
                assert got.sum() == pytest.approx(x.sum(), rel=1e-12), (name, mode)
            with pytest.raises(ValueError, match="one entry per state"):
                class_inflows(ts, np.ones(n + 1))
            # a negative weight used to give negative arrivals, a NaN one NaN
            # columns and an infinite one a RuntimeWarning
            for bad in (-1.0, float("nan"), float("inf")):
                x = np.ones(n)
                x[0] = bad
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(ValueError, match="finite and not negative"):
                        class_inflows(ts, x)


# --- df = 0: periodic and reducible chains --------------------------------------

UNIT = dict(cite_weight=1, wrote_weight=1, iswb_weight=1, restarting_weight=1)


def test_oracle_gives_the_literal_double_count_exactly_at_df_zero():
    # theta 0 and df 0 make the pair graph's chain periodic: author -> paper
    # -> author, and in literal mode author -> paper -> its copy -> author
    base = WalkParams(damping_df=0.0, theta=0.0, **UNIT)
    for mode, papers_per_author in ((WalkMode.LITERAL, 2.0), (WalkMode.INTERPRETED, 1.0)):
        start = time.perf_counter()
        raw = expected_scores(pair_graph(), replace(base, mode=mode)).raw
        assert time.perf_counter() - start < 1.0, mode
        assert raw[1:].sum() / raw[0] == pytest.approx(papers_per_author, abs=1e-9), mode


def test_oracle_at_df_zero_follows_the_walks_start_law_on_two_components():
    # two closed components without dead ends: at df 0 a walk never leaves
    # the one it starts in, and restarts enter at the three authors only,
    # so the first component (one author) gets a third of the arrivals
    g = build_graph(
        authors=[("a0", "A0", True), ("b0", "B0", True), ("b1", "B1", True)],
        papers=[(p, p.upper(), True) for p in ("p0", "p1", "q0", "q1", "q2")],
        wrote=[("a0", "p0"), ("a0", "p1"), ("b0", "q0"), ("b0", "q1"), ("b1", "q1"),
               ("b1", "q2")],
        cites=[("p0", "p1"), ("p1", "p0"), ("q0", "q1"), ("q1", "q2"), ("q2", "q0")],
    )
    first = [g.author_index["a0"], g.n_authors + g.paper_index["p0"],
             g.n_authors + g.paper_index["p1"]]
    for mode in WalkMode:
        params = WalkParams(damping_df=0.0, restart_author_prob=1.0, mode=mode, **UNIT)
        ts = build_transition_system(g, params)
        lazy = (dense_chain(ts) + np.eye(len(ts.restart_dist))) / 2
        limit = ts.restart_dist @ np.linalg.matrix_power(lazy, 1 << 20)
        if mode is WalkMode.LITERAL:  # the copies' arrivals count for their papers
            limit[g.n_authors:g.n_nodes] += limit[g.n_nodes:]
        raw = expected_scores(g, params).raw
        assert raw == pytest.approx(limit[:g.n_nodes], abs=1e-9), mode
        assert raw[first].sum() == pytest.approx(1 / 3, abs=1e-9), mode
