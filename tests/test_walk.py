import math
import multiprocessing
import random
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pira import (
    WalkMode,
    WalkParams,
    build_graph,
    normalize,
    pira_rank,
)
from pira.baselines import h_index
from pira.oracle import expected_scores
import pira.walk as walk
from pira.walk import ScoreTable, walker_seed

from conftest import FIXTURE_BUILDERS, communities_graph, pair_graph, ring_graph


def test_params_validation():
    WalkParams().validate()
    with pytest.raises(ValueError):
        WalkParams(damping_df=1.5).validate()
    with pytest.raises(ValueError):
        WalkParams(theta=-0.1).validate()
    with pytest.raises(ValueError):
        WalkParams(cite_weight=-1.0).validate()
    with pytest.raises(ValueError):
        WalkParams(cite_weight=0, iswb_weight=0, wrote_weight=0,
                   restarting_weight=0).validate()
    with pytest.raises(ValueError):
        WalkParams(step_budget=0).validate()
    with pytest.raises(ValueError):
        WalkParams(walkers=0).validate()
    with pytest.raises(ValueError):
        WalkParams(min_citation_count=-1).validate()


# --- normalize ------------------------------------------------------------

def test_normalize_cases():
    assert normalize([2, 2]).tolist() == [1.0, 1.0]
    assert normalize([3, 1]).tolist() == [1.5, 0.5]
    assert normalize([0, 4, 4]).tolist() == [0.0, 1.5, 1.5]
    with pytest.raises(ValueError):
        normalize([0.0, 0.0])


def test_score_table_normalization_and_ext_id_lookup():
    # an author and a paper may share an external id
    g = build_graph(authors=[("x", "Author X", True)], papers=[("x", "Paper X", True)],
                    wrote=[("x", "x")])
    table = ScoreTable.over_all(g, [1.0, 3.0])
    assert table.normalized.tolist() == normalize([1.0, 3.0]).tolist()
    with pytest.raises(ValueError, match="'x'"):
        table.by_ext_id()
    assert ScoreTable.over_papers(g, [2.0]).by_ext_id() == {"x": 1.0}
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


# --- parallel walkers and their merge ----------------------------------------

def _sequential_raw(graph, params):
    """All walkers run one after another into one counter list."""
    counters = [0.0] * graph.n_nodes
    author_cumw = walk._cumulative_p_weights(graph)
    p_author = walk.restart_author_share(graph, params)
    base, extra = divmod(params.step_budget, params.walkers)
    for w in range(params.walkers):
        rng = random.Random(walker_seed(params.seed, w))
        budget = base + (1 if w < extra else 0)
        walk._run_walker(counters, graph, author_cumw, params, rng, budget, p_author)
    return np.array(counters)


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("mode", list(WalkMode))
def test_walker_merge_matches_sequential_reference_with_unit_weights(monkeypatch, mode, cpus):
    # integer counters make the per-walker sum exact, so no float add differs
    monkeypatch.setattr(walk, "_usable_cpus", lambda: cpus)
    g = communities_graph()
    for walkers in (2, 3, 7):
        params = WalkParams(step_budget=100_003, seed=9, walkers=walkers, mode=mode,
                            min_citation_count=3 if mode == WalkMode.LITERAL else 0)
        raw = pira_rank(g, params).raw
        assert raw.tobytes() == _sequential_raw(g, params).tobytes(), walkers


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="worker processes are forked")
@pytest.mark.parametrize("mode", list(WalkMode))
def test_pool_and_single_process_give_the_same_bits(monkeypatch, mode):
    g = communities_graph()
    params = WalkParams(restarting_weight=0.1, wrote_weight=0.3, iswb_weight=0.7,
                        step_budget=60_000, seed=31, walkers=5, mode=mode)
    monkeypatch.setattr(walk, "_usable_cpus", lambda: 3)
    pooled = pira_rank(g, params).raw
    monkeypatch.setattr(walk, "_usable_cpus", lambda: 1)
    single = pira_rank(g, params).raw
    assert pooled.tobytes() == single.tobytes()


_small_graphs = st.integers(1, 6).flatmap(
    lambda n_a: st.integers(1, 6).flatmap(
        lambda n_p: st.tuples(
            st.just((n_a, n_p)),
            st.lists(st.tuples(st.integers(0, n_a - 1), st.integers(0, n_p - 1)), max_size=12),
            st.lists(st.tuples(st.integers(0, n_p - 1), st.integers(0, n_p - 1)), max_size=15),
        )
    )
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_small_graphs, st.integers(1, 4), st.integers(1, 3_000), st.sampled_from(list(WalkMode)))
def test_unit_weight_counters_conserve_the_budget_across_walkers(draw, walkers, budget, mode):
    (n_a, n_p), wrote, cites = draw
    g = build_graph([(f"a{i}", "A", True) for i in range(n_a)],
                    [(f"p{i}", "P", True) for i in range(n_p)],
                    [(f"a{a}", f"p{p}") for a, p in wrote],
                    [(f"p{s}", f"p{d}") for s, d in cites])
    params = WalkParams(cite_weight=1, wrote_weight=1, iswb_weight=1, restarting_weight=1,
                        step_budget=budget, seed=budget, walkers=walkers, mode=mode)
    assert pira_rank(g, params).raw.sum() == budget


def test_only_walkers_with_steps_are_dispatched(monkeypatch):
    dispatched, pool_sizes = [], []
    counters = walk._walker_counters

    def record_task(*args):
        dispatched.append(args[-1])
        return counters(*args)

    pool = multiprocessing.context.BaseContext.Pool

    def record_pool(self, processes=None, *args, **kwargs):
        pool_sizes.append(processes)
        return pool(self, processes, *args, **kwargs)

    monkeypatch.setattr(walk, "_walker_counters", record_task)
    monkeypatch.setattr(multiprocessing.context.BaseContext, "Pool", record_pool)
    params = WalkParams(cite_weight=1, wrote_weight=1, iswb_weight=1, restarting_weight=1,
                        step_budget=5, walkers=1000)
    monkeypatch.setattr(walk, "_usable_cpus", lambda: 1)
    assert pira_rank(ring_graph(), params).raw.sum() == 5
    assert dispatched == [(w, 1) for w in range(5)] and pool_sizes == []
    # with spare CPUs the pool never gets more processes than walkers or CPUs
    monkeypatch.setattr(walk, "_usable_cpus", lambda: 3)
    started = time.perf_counter()
    assert pira_rank(ring_graph(), params).raw.sum() == 5
    assert time.perf_counter() - started < 10
    pira_rank(ring_graph(), replace(params, step_budget=100, walkers=2))
    forks = "fork" in multiprocessing.get_all_start_methods()
    assert pool_sizes == ([3, 2] if forks else [])


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


def test_score_table_serialization_shape():
    g = pair_graph()
    table = pira_rank(g, WalkParams(step_budget=10_000, seed=0))
    text = table.to_tsv()
    lines = text.strip().split("\n")
    assert len(lines) == 3
    assert lines[0].startswith("a0\t")
    first_ids = [l.split("\t")[0] for l in lines]
    assert first_ids == sorted(first_ids)
