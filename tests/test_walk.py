import math
import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from pira import (
    WalkMode,
    WalkParams,
    build_graph,
    normalize,
    pira_rank,
)
from pira.analysis import rank
from pira.baselines import h_index
from pira.oracle import build_transition_system, class_inflows, expected_scores
import pira.walk as walk
from pira.walk import ScoreTable, walker_seed

from conftest import (ACCEPTANCE_SEED, ACCEPTANCE_STEPS, FIXTURE_BUILDERS, adjacency,
                      communities_graph, dense_chain, edge_case_graphs, mixed_graph,
                      outcome_entries, pair_graph, ring_graph, small_graph, small_graphs)


def test_params_validation():
    WalkParams()
    with pytest.raises(ValueError):
        WalkParams(damping_df=1.5)
    with pytest.raises(ValueError):
        WalkParams(theta=-0.1)
    with pytest.raises(ValueError):
        WalkParams(cite_weight=-1.0)
    with pytest.raises(ValueError):
        WalkParams(cite_weight=0, iswb_weight=0, wrote_weight=0,
                   restarting_weight=0)
    with pytest.raises(ValueError):
        WalkParams(step_budget=0)
    with pytest.raises(ValueError):
        WalkParams(walkers=0)
    with pytest.raises(ValueError):
        WalkParams(min_citation_count=-1)
    # non-finite c-weights and a K that is not an integer: before they were
    # rejected, a NaN or infinite weight ran the whole walk, and a NaN or
    # infinite K made rows that did not sum to one
    for weight in ("restarting_weight", "cite_weight", "wrote_weight", "iswb_weight"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match="c-weights"):
                replace(WalkParams(), **{weight: value})
    for k in (math.nan, math.inf, 2.5, 3.0, "3"):
        with pytest.raises(ValueError, match="min_citation_count"):
            WalkParams(min_citation_count=k)
    WalkParams(min_citation_count=np.int64(3))
    # a fractional budget used to pass and count fewer arrivals than asked
    for name in ("step_budget", "walkers", "seed"):
        with pytest.raises(ValueError, match=name):
            replace(WalkParams(), **{name: 1000.5})
    # each of these was once built unchecked: a mode string gave the
    # interpreted chain's scores, a negative scale divided by zero in
    # score_arrivals, a negative weight took each citation off the score,
    # and a restart share above one came back as is
    with pytest.raises(ValueError, match="mode"):
        WalkParams(mode="literal")
    with pytest.raises(ValueError, match="c-weights"):
        WalkParams().scaled_weights(-1.0)
    with pytest.raises(ValueError, match="c-weights"):
        WalkParams(cite_weight=-0.5)
    with pytest.raises(ValueError, match="restart_author_prob"):
        WalkParams(restart_author_prob=2.0)
    # a wrongly typed value names its field: these raised TypeError from a
    # comparison, and a bool built as the integer 1
    for name, value in (("theta", "0.5"), ("damping_df", None), ("cite_weight", "1"),
                        ("restart_author_prob", "0.5"), ("walkers", True),
                        ("step_budget", True)):
        with pytest.raises(ValueError, match=name):
            WalkParams(**{name: value})
    WalkParams(theta=np.float32(0.5), damping_df=0, restart_author_prob=None, seed=np.int64(2))


# --- normalize ------------------------------------------------------------

def test_normalize_cases():
    assert normalize([2, 2]).tolist() == [1.0, 1.0]
    assert normalize([3, 1]).tolist() == [1.5, 0.5]
    assert normalize([0, 4, 4]).tolist() == [0.0, 1.5, 1.5]
    with pytest.raises(ValueError):
        normalize([0.0, 0.0])


def test_normalize_gives_mean_one_when_the_total_overflows_or_underflows():
    # a total of 2e308 overflowed to inf and every score read 0; a total of
    # 2e-320 is subnormal, and its reciprocal overflowed to inf
    for raw in ([1e308, 1e308, 1.0], [1e-320, 1e-320]):
        out = normalize(raw)
        assert np.isfinite(out).all() and math.isclose(out.mean(), 1.0), raw
    g = build_graph([(f"a{i}", f"A{i}", True) for i in range(3)], [])
    ranking = rank(ScoreTable.over_authors(g, [1e308, 1e308, 1.0]), subset=lambda t: t.in_dblp)
    assert ranking.to_tsv() == "1\ta0\t1.500000\n2\ta1\t1.500000\n3\ta2\t0.000000\n"


# non-negative counters, at least one positive, whose positive entries lie
# between 2**-500 and 2**500: neither their total nor its reciprocal leaves
# the normal float range
_scaled_counters = st.lists(
    st.one_of(st.just(0.0), st.floats(2.0 ** -500, 2.0 ** 500)), min_size=1, max_size=40
).filter(any)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_scaled_counters)
def test_normalize_is_the_plain_product_while_the_total_stays_in_range(raw):
    raw = np.array(raw)
    assert normalize(raw).tobytes() == (raw * (len(raw) / raw.sum())).tobytes()


def test_score_table_normalization_and_ext_id_lookup():
    # an author and a paper may share an external id
    g = build_graph(authors=[("x", "Author X", True)], papers=[("x", "Paper X", True)],
                    wrote=[("x", "x")])
    table = ScoreTable.over_all(g, [1.0, 3.0])
    assert table.normalized.tolist() == normalize([1.0, 3.0]).tolist()
    assert list(table.ext_ids) == ["x", "x"]
    papers = ScoreTable.over_papers(g, [2.0])
    assert (list(papers.ext_ids), papers.normalized.tolist()) == (["x"], [1.0])
    # all-zero baseline vectors give all-zero tables instead of raising
    assert ScoreTable.over_authors(g, h_index(g)).normalized.tolist() == [0.0]


# --- pira_rank ------------------------------------------------------------

def test_empty_graph_and_bad_budget_rejected():
    g = build_graph([], [])
    with pytest.raises(ValueError):
        pira_rank(g, WalkParams(step_budget=100))
    with pytest.raises(ValueError):
        pira_rank(pair_graph(), WalkParams(step_budget=0))


def test_pure_restart_walk_matches_type_split():
    # df=1 degenerates the walk to independent restarts
    g = pair_graph()
    params = WalkParams(
        damping_df=1.0,
        restarting_weight=1.0,
        restart_author_prob=0.3,
        step_budget=1_000_000,
        seed=11,
    )
    table = pira_rank(g, params)
    by_ext = dict(zip(table.ext_ids, table.normalized))
    # authors carry mass 0.3 and papers 0.7, uniformly within each kind
    sigma = 3 * math.sqrt(0.3 * 0.7 / params.step_budget) * g.n_nodes
    assert abs(by_ext["a0"] - 3 * 0.3) < sigma
    assert abs(by_ext["p0"] - 3 * 0.35) < sigma
    assert abs(by_ext["p1"] - 3 * 0.35) < sigma


def test_counter_conservation_with_unit_weights():
    params = WalkParams(
        cite_weight=1, wrote_weight=1, iswb_weight=1, restarting_weight=1,
        step_budget=100_000, seed=3,
    )
    for build in FIXTURE_BUILDERS.values():
        table = pira_rank(build(), params)
        assert table.raw.sum() == float(params.step_budget)


def test_determinism_bit_identical():
    g = ring_graph()
    params = WalkParams(step_budget=200_000, seed=77, walkers=4)
    t1 = pira_rank(g, params)
    t2 = pira_rank(g, params)
    assert np.array_equal(t1.raw, t2.raw)
    # a different seed gives a different outcome
    t3 = pira_rank(g, replace(params, seed=78))
    assert not np.array_equal(t1.raw, t3.raw)


def test_walker_split_changes_path_not_scale():
    g = ring_graph()
    one = pira_rank(g, WalkParams(step_budget=300_000, seed=5, walkers=1))
    many = pira_rank(g, WalkParams(step_budget=300_000, seed=5, walkers=7))
    assert one.raw.sum() == pytest.approx(many.raw.sum(), rel=0.05)
    assert walker_seed(5, 0) != walker_seed(5, 1)


# --- walkers, cycle slots and integer arrival counts ---------------------------

@pytest.mark.parametrize("mode", list(WalkMode))
def test_counts_repeat_and_follow_seed_and_walkers(mode):
    g = communities_graph()
    base = WalkParams(restarting_weight=0.1, wrote_weight=0.3, iswb_weight=0.7,
                      step_budget=100_003, seed=9, mode=mode,
                      min_citation_count=3 if mode == WalkMode.LITERAL else 0)
    seen = []
    for walkers in (1, 2, 3, 7):
        params = replace(base, walkers=walkers)
        counts = walk._arrival_counts(g, params)
        assert counts.dtype == np.int64 and counts.shape == (g.n_nodes, walk.N_CLASSES)
        assert np.array_equal(counts, walk._arrival_counts(g, params)), walkers
        assert pira_rank(g, params).raw.tobytes() == pira_rank(g, params).raw.tobytes()
        assert not np.array_equal(counts, walk._arrival_counts(g, replace(params, seed=10)))
        seen.append(counts)
    # a different walker count draws different streams
    for i in range(len(seen)):
        for j in range(i):
            assert not np.array_equal(seen[i], seen[j])
    # two walkers of equal budget do not share a stream: their counts are
    # not twice one walker's
    assert (walk._arrival_counts(g, replace(base, walkers=2, step_budget=100_000)) % 2).any()


def test_tiny_budget_over_many_walkers():
    params = WalkParams(cite_weight=1, wrote_weight=1, iswb_weight=1, restarting_weight=1,
                        step_budget=5, walkers=1000)
    started = time.perf_counter()
    assert pira_rank(ring_graph(), params).raw.sum() == 5
    assert time.perf_counter() - started < 1.0
    # each of the five one-step walkers makes its first arrival: a restart
    assert walk._arrival_counts(ring_graph(), params)[:, walk.RESTART].sum() == 5


def test_many_small_walkers_step_together():
    # the one-slot walkers step together, not one after another: about
    # 0.04 s on a 2-vCPU host, where stepping them in turn took over 1 s
    params = WalkParams(step_budget=100_000, walkers=1000)
    started = time.perf_counter()
    pira_rank(ring_graph(), params)
    assert time.perf_counter() - started < 0.5


@pytest.mark.parametrize("mode", list(WalkMode))
def test_counts_do_not_depend_on_how_walkers_are_grouped(monkeypatch, mode):
    # uneven budgets give walkers different slot and step counts
    g = communities_graph()
    cases = [WalkParams(step_budget=b, walkers=w, seed=b, mode=mode, damping_df=df)
             for b, w, df in ((100_003, 3, 0.15), (2_000_001, 7, 1.0), (10_007, 1000, 0.15),
                              (20_000, 9, 0.0))]
    grouped = [walk._arrival_counts(g, p) for p in cases]
    monkeypatch.setattr(walk, "_GROUP_SLOTS", 1)  # one walker per group
    for params, counts in zip(cases, grouped):
        assert np.array_equal(counts, walk._arrival_counts(g, params)), params


def test_slot_and_window_rules():
    assert walk._slots(10**9, 0.0) == 1  # a cycle need not end at df = 0
    assert walk._slots(10**9, 0.15) == walk._MAX_SLOTS
    assert walk._slots(100, 0.15) == 1
    assert walk._window(10**6, 1, 0.15) == 0  # one slot's cycles never overlap
    assert walk._window(10**6, 8, 0.0) == 10**6  # every cycle recorded
    for budget in (1_000, 99_999, 375_000, 2_000_000):
        for df in (0.01, 0.02, 0.05, 0.15, 0.5, 1.0):
            slots = walk._slots(budget, df)
            window = walk._window(budget, slots, df)
            assert 1 <= slots <= walk._MAX_SLOTS
            assert slots == 1 or slots / df <= window <= budget, (budget, df)


@pytest.mark.parametrize("mode", list(WalkMode))
def test_counts_do_not_depend_on_the_record_window(monkeypatch, mode):
    # recording every cycle and recording almost none (so that the early
    # cycles overrun the cut and the group runs again) give the same counts
    g = communities_graph()
    cases = [WalkParams(step_budget=b, walkers=w, seed=b, mode=mode, damping_df=df,
                        min_citation_count=3)
             for b, w, df in ((100_003, 3, 0.15), (2_000_001, 7, 1.0), (50_000, 2, 0.5),
                              (20_000, 9, 0.0), (200_000, 1, 0.02))]
    default = [walk._arrival_counts(g, p) for p in cases]
    overruns = []
    group_counts = walk._group_counts

    def counting(*args):
        counts, overrun = group_counts(*args)
        overruns.append(overrun.size)
        return counts, overrun

    monkeypatch.setattr(walk, "_group_counts", counting)
    for window in (lambda budget, slots, df: budget,
                   lambda budget, slots, df: 0 if slots == 1 else slots):
        monkeypatch.setattr(walk, "_window", window)
        for params, counts in zip(cases, default):
            assert np.array_equal(counts, walk._arrival_counts(g, params)), params
    assert sum(overruns) > 0


def _expected_first_arrivals(graph, params, budget: int) -> np.ndarray:
    """Expected arrivals per node and class of one surfer's first `budget`
    arrivals: the entry's restart, then budget - 1 steps of the exact
    per-class chain."""
    ts = build_transition_system(graph, params)
    x = ts.restart_dist.copy()  # where the first arrival lands
    expected = np.zeros((len(x), walk.N_CLASSES))
    expected[:, walk.RESTART] = x
    for _ in range(budget - 1):
        flows = class_inflows(ts, x)
        expected += flows
        x = flows.sum(axis=1)
    return walk.fold_copies(expected, graph)


@pytest.mark.parametrize("mode", list(WalkMode))
def test_each_walker_counts_one_surfers_first_arrivals(mode):
    # many slots per walker, each with few restart cycles: a walker's counts
    # must still average to the exact expectation of one surfer's first
    # `budget` arrivals, per node and class (a per-slot cut would not)
    g = mixed_graph()
    budget, walkers, batches = 800, 100, 40
    params = WalkParams(damping_df=0.3, min_citation_count=3, mode=mode)
    assert walk._slots(budget, params.damping_df) >= 10
    expected = _expected_first_arrivals(g, params, budget)
    means = np.array([
        walk._arrival_counts(g, replace(params, step_budget=budget * walkers, walkers=walkers,
                                        seed=seed)) / walkers
        for seed in range(batches)
    ])
    mean = means.mean(axis=0)
    stderr = means.std(axis=0, ddof=1) / math.sqrt(batches)
    assert np.all(np.abs(mean - expected) <= 5 * stderr + 1e-9), np.abs(mean - expected) / stderr


@pytest.mark.parametrize("mode", list(WalkMode))
def test_walk_raw_per_step_tends_to_the_oracle_raw(fixture_graphs, mode):
    # both estimators score arrivals with walk.score_arrivals, so the
    # oracle's raw is the walk's raw per step for any weights, not only up
    # to scale
    params = WalkParams(mode=mode, min_citation_count=3, restarting_weight=0.1,
                        cite_weight=0.3, wrote_weight=0.2, iswb_weight=0.7, step_budget=10_000)
    batches = 20
    for name, g in fixture_graphs.items():
        exact = expected_scores(g, params).raw
        per_step = np.array([pira_rank(g, replace(params, seed=seed)).raw / params.step_budget
                             for seed in range(batches)])
        mean = per_step.mean(axis=0)
        stderr = per_step.std(axis=0, ddof=1) / math.sqrt(batches)
        assert np.all(np.abs(mean - exact) <= 5 * stderr + 1e-9), name


def test_small_damping_walk_matches_the_oracle():
    # criterion 1's tolerances at df = 0.05, with 40 walkers so that each
    # walker's budget is short; 4x criterion 1's budget keeps the noise
    # below the tolerance
    g = communities_graph()
    params = WalkParams(damping_df=0.05, step_budget=4 * ACCEPTANCE_STEPS, seed=ACCEPTANCE_SEED,
                        walkers=40)
    exact = expected_scores(g, params).normalized
    mc = pira_rank(g, params).normalized
    checked = exact >= 0.01
    rel = np.abs(mc[checked] - exact[checked]) / exact[checked]
    assert rel.max() <= 0.02, f"max relative error {rel.max():.4f}"
    assert np.abs(mc - exact).sum() <= 0.02 * g.n_nodes


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(small_graphs, st.integers(1, 4), st.integers(1, 3_000), st.sampled_from(list(WalkMode)))
def test_unit_weight_counters_conserve_the_budget_across_walkers(draw, walkers, budget, mode):
    params = WalkParams(cite_weight=1, wrote_weight=1, iswb_weight=1, restarting_weight=1,
                        step_budget=budget, seed=budget, walkers=walkers, mode=mode)
    assert pira_rank(small_graph(draw), params).raw.sum() == budget


def test_equal_arrivals_tie_exactly_with_non_dyadic_weights():
    # 40 one-author papers in a citation ring: at ~10 arrivals per node many
    # nodes share their arrivals per class
    n = 40
    g = build_graph([(f"a{i:02d}", "A", True) for i in range(n)],
                    [(f"p{i:02d}", "P", True) for i in range(n)],
                    [(f"a{i:02d}", f"p{i:02d}") for i in range(n)],
                    [(f"p{i:02d}", f"p{(i + 1) % n:02d}") for i in range(n)])
    params = WalkParams(restarting_weight=0.1, wrote_weight=0.3, iswb_weight=0.7,
                        step_budget=800, seed=3, walkers=2)
    counts = walk._arrival_counts(g, params)
    assert counts.sum() == params.step_budget
    table = pira_rank(g, params)
    weights = np.array([0.1, 0.1, 0.3, 1.0, 0.7])
    weighted = sum(counts[:, c] * weights[c] for c in range(walk.N_CLASSES))
    assert table.raw.tobytes() == weighted.tobytes()
    _, group = np.unique(counts, axis=0, return_inverse=True)
    group = group.ravel()
    mixed_ties = 0
    for label in np.unique(group):
        members = np.flatnonzero(group == label)
        assert len(set(table.raw[members].tolist())) == 1
        if len(members) > 1 and np.count_nonzero(counts[members[0]]) >= 2:
            mixed_ties += 1
    assert mixed_ties > 0
    ranking = rank(table, subset=lambda t: np.ones(len(t), dtype=bool))
    by_score: dict[float, list[str]] = {}
    for node, score in zip(ranking.ids, ranking.scores.tolist()):
        by_score.setdefault(score, []).append(node)
    assert all(nodes == sorted(nodes) for nodes in by_score.values())
    assert max(len(nodes) for nodes in by_score.values()) > 1


# --- an independent exact reference ------------------------------------------

def _dense_reference_scores(graph, params) -> np.ndarray:
    """Normalized expected scores of the walk as the ``walk`` module docstring
    describes it, in either mode: a dense per-class transition matrix built
    node by node in plain Python and solved by least squares.  It shares no
    code with the walk's transition system or the oracle."""
    literal = params.mode == WalkMode.LITERAL
    n_a, n_p, n = graph.n_authors, graph.n_papers, graph.n_nodes
    s = n + n_p if literal else n  # literal: a pending-isWrittenBy copy per paper
    df, theta, k = params.damping_df, params.theta, params.min_citation_count
    keep = 1.0 - df
    if n_a == 0 or n_p == 0:
        share = float(n_p == 0)
    else:
        share = n_a / n if params.restart_author_prob is None else params.restart_author_prob
    restart_dist = np.zeros(s)
    restart_dist[:n_a] = share / max(n_a, 1)
    restart_dist[n_a:n] = (1.0 - share) / max(n_p, 1)
    paper_dist = np.zeros(s)
    paper_dist[n_a:n] = 1.0 / max(n_p, 1)
    restart, fake, wrote, cite, iswb = range(5)
    moves = np.zeros((5, s, s))  # class, from, to
    papers_of, authors_of, refs_of = adjacency(graph)

    def to_authors(i, authors, p):
        if not authors:
            moves[restart, i] += p * restart_dist
        for a in authors:
            moves[iswb, i, a] += p / len(authors)

    for i in range(s):
        moves[restart, i] += df * restart_dist
        if i < n_a:
            papers = papers_of[i]
            if not papers:
                moves[restart, i] += keep * restart_dist
            p_weight = {q: 1.0 / len(authors_of[q]) for q in papers}
            for q, w in p_weight.items():
                moves[wrote, i, n_a + q] += keep * w / sum(p_weight.values())
        elif i < n:
            q = i - n_a
            refs = refs_of[q]
            slots = max(len(refs), k)
            follow = 1.0 if literal else theta  # literal draws the slot first
            if not refs:
                moves[restart, i] += keep * follow * restart_dist
            else:
                for r in refs:
                    moves[cite, i, n_a + r] += keep * theta / slots
                moves[fake, i] += keep * follow * (slots - len(refs)) / slots * paper_dist
            if literal and refs:
                moves[cite, i, n + q] += keep * (1.0 - theta) * len(refs) / slots
            elif not literal:
                to_authors(i, authors_of[q], keep * (1.0 - theta))
        else:
            to_authors(i, authors_of[i - n], keep)

    a = np.vstack([moves.sum(axis=0).T - np.eye(s), np.ones(s)])
    b = np.zeros(s + 1)
    b[-1] = 1.0
    pi = np.linalg.lstsq(a, b, rcond=None)[0]
    weights = (params.restarting_weight, params.restarting_weight, params.wrote_weight,
               params.cite_weight, params.iswb_weight)
    rate = sum(w * (pi @ m) for w, m in zip(weights, moves))
    if literal:  # each copy's rate onto its paper
        rate[n_a:n] += rate[n:]
    return normalize(rate[:n])


def _assert_rows_sum_to_one(graph, params):
    ts = build_transition_system(graph, params)
    indptr, _, prob = walk._outcome_rows(ts)
    assert (prob > 0).all()
    sums = np.bincount(np.repeat(np.arange(len(indptr) - 1), np.diff(indptr)), prob)
    assert np.abs(sums - 1.0).max() <= 1e-12
    chain = dense_chain(ts)
    assert np.abs(chain.sum(axis=1) - 1.0).max() <= 1e-12


def _assert_links_are_scaled_hops(graph, params):
    """The chain's link outcomes, classed by the test's reference, are the
    graph's hop matrices with each row scaled: wrote by 1-df, cite by
    (1-df) theta |refs| / max(|refs|, K) and isWrittenBy by the mode's
    share."""
    row, target, cls, prob = map(np.array, zip(*outcome_entries(
        build_transition_system(graph, params))))
    to_paper, to_ref, to_author = graph.to_paper, graph.to_ref, graph.to_author
    n_a, n_p, n = graph.n_authors, graph.n_papers, graph.n_nodes
    keep, theta = 1.0 - params.damping_df, params.theta
    literal = params.mode == WalkMode.LITERAL
    refs = np.diff(to_ref.indptr)
    real = refs / np.maximum(np.maximum(refs, params.min_citation_count), 1)
    authors, papers, copies = range(n_a), range(n_a, n), range(n, n + n_p)
    expected = [
        (walk.WROTE, authors, papers, keep * to_paper),
        (walk.CITE, papers, papers, sp.diags(keep * theta * real) @ to_ref),
        (walk.ISWB, copies if literal else papers, authors,
         (keep if literal else keep * (1.0 - theta)) * to_author),
    ]
    for c, rows_, cols, want in expected:
        # a literal paper's move to its own copy is the one cite outcome
        # that is not a hop
        of_cls = (cls == c) & (target < n)
        got = of_cls & np.isin(row, rows_) & np.isin(target, cols)
        assert np.count_nonzero(got) == np.count_nonzero(of_cls), c
        got = sp.csr_matrix((prob[got], (row[got] - rows_.start, target[got] - cols.start)),
                            shape=want.shape)
        assert np.abs(got.toarray() - want.toarray()).max(initial=0.0) <= 1e-15, c
        assert got.nnz == np.count_nonzero(want.toarray()), c


@pytest.mark.parametrize("k", [0, 3])
def test_chain_links_are_scaled_hops(fixture_graphs, k):
    for g in [*fixture_graphs.values(), *edge_case_graphs()]:
        for mode in WalkMode:
            _assert_links_are_scaled_hops(g, WalkParams(mode=mode, min_citation_count=k))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_graphs, st.sampled_from([0, 3]), st.sampled_from([0.0, 0.5, 1.0]),
       st.sampled_from([0.0, 0.15, 1.0]), st.sampled_from(list(WalkMode)))
def test_chain_links_are_scaled_hops_on_random_graphs(draw, k, theta, df, mode):
    params = WalkParams(min_citation_count=k, theta=theta, damping_df=df, mode=mode)
    _assert_links_are_scaled_hops(small_graph(draw), params)


def _assert_oracle_equals_the_reference(graph, params):
    # power iteration to a residual well below the default 1e-12, so that
    # the comparison checks the chain, not the solver's stopping point
    for mode in WalkMode:
        params = replace(params, mode=mode)
        _assert_rows_sum_to_one(graph, params)
        exact = expected_scores(graph, params, tol=1e-14).normalized
        assert np.abs(exact - _dense_reference_scores(graph, params)).max() <= 1e-12, mode
        scaled = expected_scores(graph, params.scaled_weights(37.0), tol=1e-14).normalized
        assert np.abs(scaled - exact).max() <= 1e-12, mode


@pytest.mark.parametrize("k", [0, 3])
def test_oracle_equals_the_dense_reference(fixture_graphs, k):
    params = WalkParams(min_citation_count=k, wrote_weight=0.3, restarting_weight=0.1)
    for name, g in fixture_graphs.items():
        _assert_oracle_equals_the_reference(g, params)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_graphs, st.sampled_from([0, 3]), st.sampled_from([0.0, 0.5, 1.0]),
       st.floats(0.05, 1.0), st.sampled_from([None, 0.3]))
def test_oracle_equals_the_dense_reference_on_random_graphs(draw, k, theta, df, p_author):
    params = WalkParams(min_citation_count=k, theta=theta, damping_df=df,
                        restart_author_prob=p_author, wrote_weight=0.3, restarting_weight=0.1)
    _assert_oracle_equals_the_reference(small_graph(draw), params)


@pytest.mark.parametrize("k", [0, 3])
def test_literal_walk_matches_its_exact_chain(fixture_graphs, k):
    # criterion 1's budget and tolerances, applied to literal mode's own chain
    params = WalkParams(mode=WalkMode.LITERAL, min_citation_count=k, wrote_weight=0.3,
                        restarting_weight=0.1, step_budget=ACCEPTANCE_STEPS,
                        seed=ACCEPTANCE_SEED)
    for name, g in fixture_graphs.items():
        exact = expected_scores(g, params).normalized
        mc = pira_rank(g, params).normalized
        checked = exact >= 0.01
        rel = np.abs(mc[checked] - exact[checked]) / exact[checked]
        assert rel.max() <= 0.02, f"{name}: max relative error {rel.max():.4f}"
        assert np.abs(mc - exact).sum() <= 0.02 * g.n_nodes, name


def test_weight_scaling_leaves_normalized_scores():
    g = ring_graph()
    base = WalkParams(
        cite_weight=1, wrote_weight=0.5, iswb_weight=1, restarting_weight=0.25,
        step_budget=200_000, seed=21,
    )
    t1 = pira_rank(g, base)
    t2 = pira_rank(g, base.scaled_weights(10.0))
    assert np.allclose(t1.normalized, t2.normalized, atol=1e-9)


def test_min_citation_below_out_degree_is_identity():
    # every ring paper has exactly one reference: K=1 changes nothing
    g = ring_graph()
    base = WalkParams(step_budget=150_000, seed=13)
    with_k = replace(base, min_citation_count=1)
    assert np.array_equal(pira_rank(g, base).raw, pira_rank(g, with_k).raw)


def test_numpy_integer_params_walk_like_python_ints():
    # a numpy seed once built, then raised OverflowError in walker_seed
    ints = dict(seed=3, step_budget=1000, walkers=2, min_citation_count=4)
    python = WalkParams(**ints)
    numpy = WalkParams(**{name: np.int64(v) for name, v in ints.items()})
    assert numpy == python
    assert all(type(getattr(numpy, name)) is int for name in ints)
    g = mixed_graph()
    for mode in WalkMode:
        assert np.array_equal(pira_rank(g, replace(numpy, mode=mode)).raw,
                              pira_rank(g, replace(python, mode=mode)).raw), mode


@pytest.mark.parametrize("k", [2**31, 10**18])
@pytest.mark.parametrize("mode", list(WalkMode))
def test_min_citation_count_beyond_int32_builds_and_scores(k, mode):
    # a K above the int32 degree array once raised OverflowError in the
    # chain build; every reference list is then diluted to almost nothing
    params = WalkParams(min_citation_count=k, mode=mode, step_budget=5000, seed=5,
                        restarting_weight=1.0, wrote_weight=1.0)
    g = mixed_graph()
    assert expected_scores(g, params).raw.sum() == pytest.approx(1.0, abs=1e-12)
    assert pira_rank(g, params).raw.sum() == params.step_budget


def test_pair_graph_matches_oracle():
    g = pair_graph()
    params = WalkParams(theta=1.0, step_budget=10_000_000, seed=42,
                        cite_weight=1, wrote_weight=1, iswb_weight=1,
                        restarting_weight=1)
    mc = pira_rank(g, params)
    exp = expected_scores(g, params)
    mask = exp.normalized >= 0.01
    rel = np.abs(mc.normalized[mask] - exp.normalized[mask]) / exp.normalized[mask]
    assert rel.max() < 0.02


def test_convergence_toward_oracle():
    # mean L1 error over a few seeds shrinks as the budget grows; averaging
    # keeps a lucky low-budget draw from breaking monotonicity
    g = pair_graph()
    exp = expected_scores(g, WalkParams())

    def mean_l1(budget, seeds):
        errs = [
            float(np.abs(
                pira_rank(g, WalkParams(step_budget=budget, seed=s)).normalized
                - exp.normalized
            ).sum())
            for s in seeds
        ]
        return sum(errs) / len(errs)

    l1 = [
        mean_l1(10**5, (42, 43, 44)),
        mean_l1(10**6, (42, 43, 44)),
        mean_l1(10**7, (42,)),
    ]
    assert l1[0] > l1[1] > l1[2]


def test_literal_and_interpreted_agree_when_quirks_unreachable():
    # theta=1 on a graph where every paper has a reference: the literal
    # mode's 1-theta branch and its no-refs shortcut are never taken
    g = ring_graph()
    params = WalkParams(theta=1.0, step_budget=1_000_000, seed=19)
    exp = expected_scores(g, params)
    for mode in (WalkMode.INTERPRETED, WalkMode.LITERAL):
        mc = pira_rank(g, replace(params, mode=mode))
        mask = exp.normalized >= 0.01
        rel = np.abs(mc.normalized[mask] - exp.normalized[mask]) / exp.normalized[mask]
        assert rel.max() < 0.05, mode


def test_literal_mode_double_counts_papers_on_iswb_branch():
    # with df=0 and theta=0 the literal walk cycles author -> paper ->
    # (same paper again) -> author, so papers see twice the author arrivals;
    # the interpreted walk alternates one-for-one
    g = pair_graph()
    base = WalkParams(damping_df=0.0, theta=0.0, step_budget=300_000, seed=2,
                      cite_weight=1, wrote_weight=1, iswb_weight=1,
                      restarting_weight=1)
    lit = pira_rank(g, replace(base, mode=WalkMode.LITERAL))
    inter = pira_rank(g, base)
    papers_to_author_lit = lit.raw[1:].sum() / lit.raw[0]
    papers_to_author_inter = inter.raw[1:].sum() / inter.raw[0]
    assert papers_to_author_lit == pytest.approx(2.0, rel=0.02)
    assert papers_to_author_inter == pytest.approx(1.0, rel=0.02)


def test_literal_zero_ref_paper_restarts_instead_of_iswb():
    # one author, one paper without references: in literal mode the author
    # can only be reached through restarts, so with restarting_weight=0 the
    # author's counter stays empty while interpreted mode feeds it via iswb
    g = build_graph(
        authors=[("a0", "A", True)],
        papers=[("p0", "No Refs", True)],
        wrote=[("a0", "p0")],
    )
    base = WalkParams(theta=0.5, step_budget=50_000, seed=4,
                      cite_weight=1, wrote_weight=1, iswb_weight=1,
                      restarting_weight=0)
    lit = pira_rank(g, replace(base, mode=WalkMode.LITERAL))
    inter = pira_rank(g, base)
    assert lit.raw[0] == 0.0
    assert inter.raw[0] > 0.0
