import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pira import build_graph
from pira.errors import ParseError
from pira.analysis import (
    Ranking,
    all_authors,
    all_papers,
    dataset_stats,
    dblp_authors,
    dblp_papers,
    export_dot,
    rank,
    rank_scatter,
    scatter_to_csv,
    topx_difference,
)
from pira.walk import ScoreTable

from pira.graph import NodeKind
from pira.ingest import load_graph, save_graph

from conftest import mixed_graph, pair_graph, reference_dot, reference_files, small_graphs


def _table(pairs, dblp=None):
    """Score table over synthetic author nodes from (ext_id, score) pairs."""
    from pira.graph import NodeKind

    ext_ids = tuple(e for e, _ in pairs)
    raw = np.array([s for _, s in pairs], dtype=float)
    flags = tuple(True for _ in pairs) if dblp is None else tuple(dblp)
    kinds = np.full(len(pairs), NodeKind.AUTHOR)
    return ScoreTable(kinds, ext_ids, flags, raw)


# --- rank ---------------------------------------------------------------

def test_rank_orders_by_score():
    r = rank(_table([("a", 2.0), ("b", 1.0)]))
    assert r.ids == ("a", "b")
    assert [r.position_of(n) for n in r.ids] == [1, 2]


def test_rank_breaks_ties_by_node_id():
    r = rank(_table([("b", 1.0), ("a", 1.0)]))
    assert r.ids == ("a", "b")


def test_rank_default_filter_is_dblp():
    r = rank(_table([("in", 1.0), ("out", 5.0)], dblp=[True, False]))
    assert r.ids == ("in",)


def test_rank_empty_after_filter():
    with pytest.raises(ValueError):
        rank(_table([("out", 1.0)], dblp=[False]))


def test_rank_kind_subsets():
    g = pair_graph()
    from pira.walk import WalkParams, pira_rank

    table = pira_rank(g, WalkParams(step_budget=50_000, seed=0))
    authors = rank(table, subset=all_authors)
    papers = rank(table, subset=all_papers)
    assert authors.ids == ("a0",)
    assert set(papers.ids) == {"p0", "p1"}


def test_rank_positions_are_dense_and_rerankable():
    table = _table([("c", 3.0), ("a", 1.0), ("b", 1.0), ("d", 0.5)])
    r = rank(table)
    assert [r.position_of(n) for n in "cabd"] == [1, 2, 3, 4]
    again = rank(_table(list(zip(r.ids, r.scores.tolist()))))
    assert again.ids == r.ids


def test_score_table_rejects_a_vector_of_the_wrong_length():
    g = build_graph([("a", "A", True), ("b", "B", True), ("c", "C", True)],
                    [("p", "P", True)], [("a", "p")])
    with pytest.raises(ValueError, match=r"raw has shape \(2,\), expected \(3,\)"):
        ScoreTable.over_authors(g, [3.0, 1.0])
    with pytest.raises(ValueError, match="one value per node"):
        ScoreTable.over_papers(g, [1.0, 2.0])
    with pytest.raises(ValueError, match="one value per node"):
        ScoreTable.over_all(g, np.ones(3))
    with pytest.raises(ValueError, match="one value per node"):
        ScoreTable.over_authors(g, np.ones((3, 1)))
    with pytest.raises(ValueError, match=r"kinds has shape \(1,\)"):
        ScoreTable([NodeKind.AUTHOR], ("a", "b"), [True, True], [1.0, 2.0])
    with pytest.raises(ValueError, match=r"in_dblp has shape \(3,\)"):
        ScoreTable([NodeKind.AUTHOR] * 2, ("a", "b"), [True] * 3, [1.0, 2.0])
    with pytest.raises(ValueError, match=r"raw has shape \(3,\), expected \(2,\)"):
        ScoreTable([NodeKind.AUTHOR] * 2, ("a", "b"), [True] * 2, [1.0, 2.0, 3.0])
    # the normalized scores are computed, never passed: a table once took
    # any array there, and rank printed a score of -1
    with pytest.raises(TypeError):
        ScoreTable([NodeKind.AUTHOR] * 2, ("a", "b"), [True] * 2, [1.0, 3.0], [5.0, -1.0])
    table = ScoreTable([NodeKind.AUTHOR] * 2, ("a", "b"), [True] * 2, [1.0, 3.0])
    assert table.normalized.tolist() == [0.5, 1.5]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_score_table_rejects_non_finite_scores(bad):
    g = build_graph([("a", "A", True), ("b", "B", True), ("c", "C", True)], [])
    with pytest.raises(ValueError, match="finite"):
        ScoreTable.over_authors(g, [1.0, bad, 2.0])
    with pytest.raises(ValueError, match="finite"):
        _table([("a", 1.0), ("b", bad)])


def test_score_table_rejects_a_negative_score():
    # it once built, and rank printed the author's score as -0.5
    g = build_graph([("a", "A", True), ("b", "B", True)], [])
    with pytest.raises(ValueError, match="must not be negative, got -1.0"):
        ScoreTable.over_authors(g, [-1.0, 5.0])


def test_ranking_tsv_round_trip():
    # scores [1.5, 0.5] already average to 1, so normalization keeps them
    r = rank(_table([("a", 1.5), ("b", 0.5)]))
    text = r.to_tsv()
    assert text == "1\ta\t1.500000\n2\tb\t0.500000\n"
    assert Ranking.from_tsv(text) == r


def test_rank_refuses_a_subset_mask_of_another_shape_or_dtype():
    table = _table([("a", 1.0), ("b", 2.0), ("c", 3.0)])
    message = re.escape("subset must give a bool mask of shape (3,)")
    for mask in (np.array([True, False]), np.array([1, 0, 1])):
        with pytest.raises(ValueError, match=message):
            rank(table, subset=lambda t: mask)


def test_rank_refuses_an_author_and_a_paper_that_share_an_id_ranked_together():
    g = build_graph([("x", "Author X", True)], [("x", "Paper X", True)], [("x", "x")])
    table = ScoreTable.over_all(g, [1.0, 3.0])
    with pytest.raises(ValueError, match="duplicate node ids in ranking input"):
        rank(table, subset=lambda t: np.ones(len(t), dtype=bool))
    assert rank(table, subset=all_papers).ids == ("x",)


@pytest.mark.parametrize("bad", ["a\tb", "", "x\ny", "x\r", "\t", 5])
def test_rank_refuses_an_id_a_ranking_file_cannot_hold(bad):
    # "a\tb" was written as `2\ta\tb\t0.666667`, a line of four fields
    # that Ranking.from_tsv refused
    table = _table([("c", 1.0), (bad, 2.0), ("d", 3.0)])
    with pytest.raises(ValueError, match=re.escape(f"node id {bad!r} cannot be written")):
        rank(table)
    # an id that is not kept is never written
    r = rank(table, subset=lambda t: np.array([True, False, True]))
    assert Ranking.from_tsv(r.to_tsv()) == r


def test_ranking_from_tsv_names_source_and_line_of_a_bad_line():
    good = "1\ta\t1.500000\n\n2\tb\t0.500000\n"
    r = Ranking.from_tsv(good, source="r.tsv")
    assert [r.position_of(n) for n in ("a", "b")] == [1, 2]
    with pytest.raises(KeyError):
        r.position_of("c")
    for bad, message in [
        ("2\tb\n", r"r\.tsv:4: expected 3 tab-separated fields, got 2"),
        ("2\tb\t0.5\textra\n", r"r\.tsv:4: expected 3 tab-separated fields, got 4"),
        ("two\tb\t0.5\n", r"r\.tsv:4: invalid literal for int"),
        ("2\tb\thigh\n", r"r\.tsv:4: could not convert string to float"),
        # ranking files follow the dataset files' line rules: an empty node id
        # was read as the node '', and a line of spaces was skipped
        ("2\t\t0.5\n", r"r\.tsv:4: empty field"),
        ("   \n", r"r\.tsv:4: expected 3 tab-separated fields, got 1"),
        # a ranking file holds exactly what to_tsv writes: ranks 1..N over
        # the non-blank lines, and finite scores >= 0 that never rise
        ("2\tc\t0.5\n", r"r\.tsv:4: rank 2, expected 3: the ranks number the non-blank"),
        ("3\tc\tnan\n", r"r\.tsv:4: score 'nan' is not a finite number >= 0"),
        ("3\tc\tinf\n", r"r\.tsv:4: score 'inf' is not a finite number >= 0"),
        ("3\tc\t1e400\n", r"r\.tsv:4: score '1e400' is not a finite number >= 0"),
        ("3\tc\t-0.5\n", r"r\.tsv:4: score '-0\.5' is not a finite number >= 0"),
        ("3\tc\t0.6\n", r"r\.tsv:4: score 0\.6 is above the score on the line before"),
    ]:
        with pytest.raises(ParseError, match=message) as err:
            Ranking.from_tsv(good + bad, source="r.tsv")
        assert (err.value.path, err.value.line) == ("r.tsv", 4)


def test_ranking_from_tsv_rejects_a_node_listed_twice():
    # a blank line still counts in the line numbers
    with pytest.raises(ParseError, match=r"r\.tsv:4: node 'a' already listed at line 1") as err:
        Ranking.from_tsv("1\ta\t3.0\n2\tb\t2.0\n\n3\ta\t1.0\n", source="r.tsv")
    assert (err.value.path, err.value.line) == ("r.tsv", 4)


def test_a_ranking_built_directly_checks_what_from_tsv_checks():
    # each was once built: a repeated node read as a 0 % curve while the
    # scatter listed it twice, a rising score wrote a file from_tsv refuses,
    # a short score column failed in to_tsv and a list of scores lacked
    # .tolist()
    for ids, scores, message in [
        (("x", "x", "y"), [3, 2, 1], "listed twice"),
        (("x", "y"), np.array([1.0, 5.0]), "must not rise"),
        (("x", "y"), np.array([2.0]), r"shape \(1,\), expected \(2,\)"),
        (("x", "y"), np.array([[2.0, 1.0]]), r"shape \(1, 2\), expected \(2,\)"),
        (("x", "y"), [2.0, np.nan], "finite and not negative"),
        (("x", "y"), [np.inf, 1.0], "finite and not negative"),
        (("x", "y"), [1.0, -1.0], "finite and not negative"),
    ]:
        with pytest.raises(ValueError, match=message):
            Ranking(ids, scores)
    r = Ranking(("x", "y"), [2, 1])
    assert r == Ranking(("x", "y"), np.array([2.0, 1.0]))
    assert r.scores.dtype == np.float64
    assert Ranking.from_tsv(r.to_tsv()) == r


# --- topx_difference -------------------------------------------------------

def _ranking(nodes):
    """The ranking of `nodes` in the given order, with descending scores."""
    return Ranking(tuple(nodes), np.arange(len(nodes), 0, -1, dtype=float))


def test_topx_identical_rankings_zero_curve():
    r = _ranking([f"n{i}" for i in range(20)])
    curve = topx_difference(r, r, [5, 10, 50, 100])
    assert all(d == 0.0 for _, d in curve.points)


def test_topx_disjoint_top_sets():
    nodes = [f"n{i:02d}" for i in range(20)]
    r1 = _ranking(nodes)
    r2 = _ranking(nodes[10:] + nodes[:10])
    curve = topx_difference(r1, r2, [10, 50, 100])
    assert curve.points[0] == (10.0, 100.0)
    assert curve.points[1] == (50.0, 100.0)
    assert curve.points[2] == (100.0, 0.0)


def test_topx_always_zero_at_hundred():
    nodes = [f"n{i}" for i in range(7)]
    r1 = _ranking(nodes)
    r2 = _ranking(list(reversed(nodes)))
    curve = topx_difference(r1, r2, [100])
    assert curve.points == ((100.0, 0.0),)


def test_topx_symmetric():
    nodes = [f"n{i:02d}" for i in range(30)]
    rng = np.random.default_rng(3)
    r1 = _ranking(list(rng.permutation(nodes)))
    r2 = _ranking(list(rng.permutation(nodes)))
    cutoffs = [7, 13, 50, 90]
    c12 = topx_difference(r1, r2, cutoffs)
    c21 = topx_difference(r2, r1, cutoffs)
    assert c12.points == c21.points


def test_topx_rejects_mismatched_sets_and_bad_cutoffs():
    r1 = _ranking(["a", "b"])
    r2 = _ranking(["a", "c"])
    with pytest.raises(ValueError):
        topx_difference(r1, r2, [50])
    with pytest.raises(ValueError):
        topx_difference(r1, r1, [0])
    with pytest.raises(ValueError):
        topx_difference(r1, r1, [101])
    # a string cutoff raised a TypeError from the comparison, and True was taken as 1
    for cutoff in ("50", True, None):
        message = re.escape(f"cutoff must be a real number, got {cutoff!r}")
        with pytest.raises(ValueError, match=message):
            topx_difference(r1, r1, [cutoff])


def test_topx_rejects_empty_rankings():
    with pytest.raises(ValueError, match="empty"):
        topx_difference(_ranking([]), _ranking([]), [10])


def test_topx_sizes_a_decimal_cutoff_exactly():
    # 1.1 % of 3,000 nodes is 33 nodes and 2.2 % is 66; in floats the sizes
    # came out as 34 and 67, and the curve read 2.941176 and 1.492537
    nodes = [f"n{i:04d}" for i in range(3000)]
    swapped = nodes.copy()
    swapped[33], swapped[2999] = swapped[2999], swapped[33]  # places 34 and 3,000
    curve = topx_difference(_ranking(nodes), _ranking(swapped), [1.1, np.float64(2.2), 10])
    assert curve.points == ((1.1, 0.0), (2.2, 100.0 / 66), (10.0, 100.0 / 300))
    assert curve.to_csv().splitlines()[1:3] == ["1.1,0.000000", "2.2,1.515152"]


def test_diff_curve_csv():
    r = _ranking(["a", "b"])
    text = topx_difference(r, r, [50, 100]).to_csv()
    assert text.splitlines()[0] == "x_percent,diff_percent"
    assert len(text.splitlines()) == 3


# --- rank_scatter ----------------------------------------------------------

def test_scatter_identical_rankings():
    r = _ranking([f"n{i}" for i in range(10)])
    points = rank_scatter(r, r, 5)
    assert len(points) == 5
    assert all(p.rank_difference == 0 for p in points)


def test_scatter_large_displacement():
    # the node at base rank 167 sits at rank 1613 in the other ranking
    nodes = [f"n{i:04d}" for i in range(1, 2001)]
    base = _ranking(nodes)
    moved = nodes.copy()
    moved.insert(1612, moved.pop(166))
    other = _ranking(moved)
    points = rank_scatter(base, other, 200)
    assert points[166].base_rank == 167
    assert points[166].rank_difference == 167 - 1613 == -1446


def test_scatter_full_length_and_bounds():
    r1 = _ranking(["a", "b", "c"])
    r2 = _ranking(["c", "a", "b"])
    assert len(rank_scatter(r1, r2, 3)) == 3
    with pytest.raises(ValueError):
        rank_scatter(r1, r2, 4)
    csv = scatter_to_csv(rank_scatter(r1, r2, 3))
    assert csv.splitlines()[0] == "node_id,base_rank,rank_difference"


def test_scatter_rejects_negative_top_n():
    r = _ranking(["a"])
    assert rank_scatter(r, r, 0) == []
    with pytest.raises(ValueError, match="top_n=-1"):
        rank_scatter(r, r, -1)


def test_scatter_rejects_a_top_n_that_is_no_integer():
    # 1.5 raised a TypeError from the slice, and True was taken as 1
    r = _ranking(["a", "b"])
    for top_n in (1.5, True, "1", None):
        message = re.escape(f"top_n must be an integer, got {top_n!r}")
        with pytest.raises(ValueError, match=message):
            rank_scatter(r, r, top_n)
    assert len(rank_scatter(r, r, np.int64(2))) == 2


# --- dataset_stats ----------------------------------------------------------

def test_stats_match_constructed_degrees():
    # 2 dblp authors with 3 and 1 papers; 1 external author with 2 papers
    g = build_graph(
        authors=[("d1", "D One", True), ("d2", "D Two", True),
                 ("x1", "X One", False)],
        papers=[("p1", "P1", True), ("p2", "P2", True), ("p3", "P3", True),
                ("q1", "Q1", False), ("q2", "Q2", False)],
        wrote=[("d1", "p1"), ("d1", "p2"), ("d1", "p3"), ("d2", "p1"),
               ("x1", "q1"), ("x1", "q2")],
        cites=[("q1", "p1"), ("q2", "p1"), ("p2", "p1"), ("p3", "p2")],
    )
    stats = dataset_stats(g)
    assert stats.n_authors == 3 and stats.n_authors_dblp == 2
    assert stats.n_papers == 5 and stats.n_papers_dblp == 3
    assert stats.mean_pubs_dblp == pytest.approx(2.0)       # (3 + 1) / 2
    assert stats.mean_pubs_external == pytest.approx(2.0)
    assert stats.pubs_per_author == {1: (1, 0), 2: (0, 1), 3: (1, 0)}
    # coauthors per paper: p1 has 2, p2/p3 have 1, q1/q2 have 1
    assert stats.coauthors_per_paper == {1: (2, 2), 2: (1, 0)}
    assert stats.out_citations_per_paper == {0: (1, 0), 1: (2, 2)}
    assert stats.in_citations_per_paper_dblp == {0: 1, 1: 1, 3: 1}
    assert stats.citation_edges == 4
    assert stats.citation_edges_dblp_to_dblp == 2
    # histogram masses cover every node of their kind
    assert sum(d + e for d, e in stats.pubs_per_author.values()) == 3
    assert sum(d + e for d, e in stats.coauthors_per_paper.values()) == 5


def test_stats_empty_graph():
    stats = dataset_stats(build_graph([], []))
    assert stats.n_authors == 0
    assert stats.mean_pubs_dblp == 0.0
    assert stats.pubs_per_author == {}
    assert stats.citation_edges == 0
    csvs = stats.to_csvs()
    assert set(csvs) == {
        "summary.csv", "publications_per_author.csv", "coauthors_per_paper.csv",
        "out_citations_per_paper.csv", "in_citations_per_paper_dblp.csv",
    }


def test_stats_histogram_masses_on_mixed_graph():
    g = mixed_graph()
    stats = dataset_stats(g)
    assert sum(d + e for d, e in stats.pubs_per_author.values()) == g.n_authors
    assert sum(d + e for d, e in stats.coauthors_per_paper.values()) == g.n_papers
    assert sum(d + e for d, e in stats.out_citations_per_paper.values()) == g.n_papers
    assert sum(stats.in_citations_per_paper_dblp.values()) == stats.n_papers_dblp


# --- export_dot --------------------------------------------------------------

def test_dot_empty_graph():
    text = export_dot(build_graph([], []))
    assert text == "digraph citations {\n}\n"


def test_dot_single_pair():
    g = build_graph(
        authors=[("a0", "Ann", True)],
        papers=[("p0", "Work", True)],
        wrote=[("a0", "p0")],
    )
    text = export_dot(g)
    assert '"a:a0" [shape=ellipse, label="a0\\nAnn"];' in text
    assert '"p:p0" [shape=box, label="p0\\nWork"];' in text
    assert '"a:a0" -> "p:p0" [dir=none];' in text


def test_dot_mutual_citation_edges():
    g = pair_graph()
    text = export_dot(g)
    assert '"p:p0" -> "p:p1";' in text
    assert '"p:p1" -> "p:p0";' in text


def test_dot_includes_scores_and_is_stable():
    g = pair_graph()
    from pira.walk import WalkParams, pira_rank

    table = pira_rank(g, WalkParams(step_budget=50_000, seed=1))
    first = export_dot(g, table)
    assert first == export_dot(g, table)
    label = [l for l in first.splitlines() if '"a:a0"' in l and "label" in l][0]
    assert label.count("\\n") == 2  # ext id, name, score


def test_dot_escapes_quotes():
    g = build_graph(
        authors=[("a0", 'Says "Hi"', True)],
        papers=[("p0", "P", True)],
        wrote=[("a0", "p0")],
    )
    assert '\\"Hi\\"' in export_dot(g)


def test_dot_escapes_ids_in_node_and_edge_lines_and_scores_one_kind():
    # an author and a paper share an id; ids and labels hold quotes and backslashes
    g = build_graph(
        authors=[('x"1', "Ann \\ Bo", True), ("b", "Cy", False)],
        papers=[('x"1', 'On "Q"', True), ("p\\2", "R", True)],
        wrote=[('x"1', 'x"1'), ("b", "p\\2"), ('x"1', "p\\2")],
        cites=[("p\\2", 'x"1')],
    )
    table = ScoreTable([NodeKind.AUTHOR, NodeKind.AUTHOR], ['x"1', "b"], [True, False],
                       [3.0, 1.0])
    assert export_dot(g, table) == (
        "digraph citations {\n"
        '  "a:b" [shape=ellipse, label="b\\nCy\\n0.500000"];\n'
        '  "a:x\\"1" [shape=ellipse, label="x\\"1\\nAnn \\\\ Bo\\n1.500000"];\n'
        '  "p:p\\\\2" [shape=box, label="p\\\\2\\nR"];\n'
        '  "p:x\\"1" [shape=box, label="x\\"1\\nOn \\"Q\\""];\n'
        '  "a:b" -> "p:p\\\\2" [dir=none];\n'
        '  "a:x\\"1" -> "p:p\\\\2" [dir=none];\n'
        '  "a:x\\"1" -> "p:x\\"1" [dir=none];\n'
        '  "p:p\\\\2" -> "p:x\\"1";\n'
        "}\n"
    )


# --- rank against a sorted reference -----------------------------------------

MASKS = {
    "default": (None, lambda kind, flag: flag),
    "dblp_authors": (dblp_authors, lambda kind, flag: flag and kind == NodeKind.AUTHOR),
    "dblp_papers": (dblp_papers, lambda kind, flag: flag and kind == NodeKind.PAPER),
    "all_authors": (all_authors, lambda kind, flag: kind == NodeKind.AUTHOR),
    "all_papers": (all_papers, lambda kind, flag: kind == NodeKind.PAPER),
}


# ids that are prefixes of each other ("p1", "p10"), hold code points below
# "\t" or are non-ASCII: sorting rows by id then differs from sorting the lines;
# and characters that str.splitlines takes for line breaks but "\n" splits do not
_odd_ids = st.text(st.sampled_from(["p", "1", "0", "\x01", "\x08", " ", '"', "\\", "é", "中",
                                    "\U0001F600", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                    "\x85", "\u2028", "\u2029"]), min_size=1, max_size=4)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(small_graphs, st.data())
def test_rank_matches_a_sorted_reference_and_save_load_is_a_fixed_point(draw, data):
    (n_a, n_p), wrote, cites = draw
    n = n_a + n_p
    flags = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    # few distinct values force ties, which the ids must break
    raw = data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=n, max_size=n))

    def graph(author, paper):
        # distinct, loop-free edges: nothing is dropped, so a reload has the same report
        return build_graph([(author(i), f"Author {i}", flags[i]) for i in range(n_a)],
                           [(paper(i), f"Paper {i}", flags[n_a + i]) for i in range(n_p)],
                           [(author(a), paper(p)) for a, p in sorted(set(wrote))],
                           [(paper(s), paper(d)) for s, d in sorted(set(cites)) if s != d])

    # ids that sort against the indices, so a tie broken by index would show
    reversed_ids = graph(lambda i: f"a{n_a - i}", lambda i: f"p{n_p - i}")
    table = ScoreTable.over_all(reversed_ids, raw)
    kinds = [NodeKind.AUTHOR] * n_a + [NodeKind.PAPER] * n_p
    for name, (subset, keep) in MASKS.items():
        kept = [(e, s) for e, s, k, f in zip(table.ext_ids, table.normalized.tolist(), kinds, flags)
                if keep(k, f)]
        if not kept:
            with pytest.raises(ValueError, match="no nodes left"):
                rank(table, subset=subset)
            continue
        expected = sorted(kept, key=lambda es: (-es[1], es[0]))
        got = rank(table, subset=subset)
        assert got.ids == tuple(e for e, _ in expected), name
        assert got.scores.tolist() == [s for _, s in expected], name
        assert [got.position_of(e) for e, _ in expected] == list(range(1, len(expected) + 1)), name
        assert got.to_tsv() == "".join(
            f"{i}\t{e}\t{s:.6f}\n" for i, (e, s) in enumerate(expected, 1)), name

    # ids in index order: a reload keeps every index
    g = graph(lambda i: f"a{i}", lambda i: f"p{i}")
    a_ids = data.draw(st.lists(_odd_ids, min_size=n_a, max_size=n_a, unique=True))
    p_ids = data.draw(st.lists(_odd_ids, min_size=n_p, max_size=n_p, unique=True))
    odd_ids = graph(a_ids.__getitem__, p_ids.__getitem__)
    for saved in (g, reversed_ids, odd_ids):
        files, dot = reference_files(saved), reference_dot(saved, None)
        assert export_dot(saved) == dot
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "first"), Path(tmp, "second")
            save_graph(saved, first)
            loaded, _ = load_graph(first)
            save_graph(loaded, second)
            assert sorted(f.name for f in first.iterdir()) == sorted(files)
            for name, text in files.items():
                assert (first / name).read_bytes() == text.encode("utf-8"), name
                assert (second / name).read_bytes() == text.encode("utf-8"), name
        assert export_dot(loaded) == dot
        if saved is g:
            assert loaded == g
        # each node kind's ranking file reads back as the same ranking
        for table, subset in ((ScoreTable.over_authors(saved, raw[:n_a]), all_authors),
                              (ScoreTable.over_papers(saved, raw[n_a:]), all_papers)):
            if len(table):
                text = rank(table, subset=subset).to_tsv()
                assert Ranking.from_tsv(text).to_tsv() == text


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.lists(_odd_ids, min_size=1, max_size=10, unique=True), st.data())
def test_a_written_ranking_reads_back_and_the_scatter_reads_its_line_order(ids, data):
    # few distinct values force ties, which the ids break
    draw_scores = st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]),
                           min_size=len(ids), max_size=len(ids))
    base = rank(_table(list(zip(ids, data.draw(draw_scores)))))
    other = rank(_table(list(zip(ids, data.draw(draw_scores)))))
    text = base.to_tsv()
    read = Ranking.from_tsv(text)
    assert read.to_tsv() == text
    assert read.ids == base.ids
    top_n = data.draw(st.integers(0, len(ids)))
    for r in (base, read):
        points = rank_scatter(r, other, top_n)
        assert [(p.node, p.base_rank, p.rank_difference) for p in points] == [
            (n, r.position_of(n), r.position_of(n) - other.position_of(n)) for n in r.ids[:top_n]]
