import random
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pira import build_graph
from pira.analysis import dataset_stats
from pira.errors import GraphBuildError, MissingFileError, ParseError
from pira.ingest import (
    MergeRule,
    initial_compatible,
    load_graph,
    save_graph,
    suggest_merges,
    write_idmap,
)

from conftest import adjacency, rows


def _write_dataset(directory: Path, authors, papers, wrote, cites) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "authors.tsv").write_text(
        "".join(f"{i}\t{n}\t{f}\n" for i, n, f in authors), encoding="utf-8"
    )
    (directory / "papers.tsv").write_text(
        "".join(f"{i}\t{t}\t{f}\n" for i, t, f in papers), encoding="utf-8"
    )
    (directory / "wrote.tsv").write_text(
        "".join(f"{a}\t{p}\n" for a, p in wrote), encoding="utf-8"
    )
    (directory / "cites.tsv").write_text(
        "".join(f"{s}\t{d}\n" for s, d in cites), encoding="utf-8"
    )
    return directory


def test_load_small_fixture(tmp_path):
    d = _write_dataset(
        tmp_path / "ds",
        authors=[("w1", "Writer One", 1), ("w2", "Writer Two", 0)],
        papers=[("x1", "Paper X", 1), ("x2", "Paper Y", 1)],
        wrote=[("w1", "x1"), ("w2", "x2")],
        cites=[("x2", "x1")],
    )
    graph, report = load_graph(d)
    assert report.authors == 2
    assert report.papers == 2
    assert report.wrote_edges == 2
    assert report.cite_edges == 1
    assert graph.authors[graph.author_index["w2"]].in_dblp is False
    text = report.to_text()
    assert "authors=2" in text and "cite_edges=1" in text


def test_missing_file_names_it(tmp_path):
    d = _write_dataset(tmp_path / "ds", [("a", "A", 1)], [("p", "P", 1)], [], [])
    (d / "cites.tsv").unlink()
    with pytest.raises(MissingFileError, match="cites.tsv"):
        load_graph(d)


def test_malformed_line_reports_position(tmp_path):
    d = _write_dataset(tmp_path / "ds", [("a", "A", 1)], [("p", "P", 1)], [], [])
    (d / "authors.tsv").write_text("a\tA\t1\nbroken line\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"authors\.tsv:2"):
        load_graph(d)


def test_bad_flag_reports_position(tmp_path):
    d = _write_dataset(tmp_path / "ds", [("a", "A", 2)], [("p", "P", 1)], [], [])
    with pytest.raises(ParseError, match=r"authors\.tsv:1.*0 or 1"):
        load_graph(d)


def test_unknown_edge_id_reports_file_and_line(tmp_path):
    d = _write_dataset(
        tmp_path / "ds",
        authors=[("a", "A", 1)],
        papers=[("p", "P", 1)],
        wrote=[("a", "p")],
        cites=[("p", "ghost")],
    )
    with pytest.raises(ParseError) as err:
        load_graph(d)
    assert "cites.tsv:1" in str(err.value)
    assert "unknown paper" in str(err.value)


def test_duplicates_and_self_citations_counted(tmp_path):
    d = _write_dataset(
        tmp_path / "ds",
        authors=[("a", "A", 1)],
        papers=[("p", "P", 1), ("q", "Q", 1)],
        wrote=[("a", "p"), ("a", "p")],
        cites=[("p", "q"), ("p", "q"), ("q", "q")],
    )
    _, report = load_graph(d)
    assert report.dropped_duplicate_wrote == 1
    assert report.dropped_duplicate_cites == 1
    assert report.dropped_self_citations == 1
    assert report.wrote_lines == 2 and report.cites_lines == 3


def test_save_then_load_is_fixed_point(tmp_path):
    g = build_graph(
        authors=[("zz", "Last", True), ("aa", "First", False)],
        papers=[("p2", "Two", True), ("p1", "One", True)],
        wrote=[("zz", "p2"), ("aa", "p1"), ("aa", "p2")],
        cites=[("p2", "p1")],
    )
    first = tmp_path / "first"
    save_graph(g, first)
    reloaded, _ = load_graph(first)
    second = tmp_path / "second"
    save_graph(reloaded, second)
    for name in ("authors.tsv", "papers.tsv", "wrote.tsv", "cites.tsv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    # same nodes, flags and edges after the round trip
    assert {(a.ext_id, a.name, a.in_dblp) for a in reloaded.authors} == {
        (a.ext_id, a.name, a.in_dblp) for a in g.authors
    }
    edges = lambda gr: {
        (gr.papers[s].ext_id, gr.papers[d].ext_id)
        for s, refs in enumerate(rows(gr.cite)) for d in refs
    }
    assert edges(reloaded) == edges(g)


def test_idmap(tmp_path):
    g = build_graph(
        authors=[("w", "W", True)], papers=[("x", "X", True)], wrote=[("w", "x")]
    )
    path = tmp_path / "idmap.tsv"
    write_idmap(g, path)
    assert path.read_text() == "author\tw\t0\npaper\tx\t0\n"


def _thousandth_scale_dataset(tmp_path) -> Path:
    """Deterministic fixture with the aggregate shape of a large author-paper
    crawl at 1/1000 scale: 246 authors (73 flagged), 281 papers (68 flagged),
    631 citations of which 122 run between flagged papers, and mean
    publications per flagged author of 507/73 (about 6.95)."""
    n_dblp_a, n_ext_a = 73, 173
    n_dblp_p, n_papers = 68, 281
    authors = [(f"da{i:03d}", f"Dblp Author {i}", 1) for i in range(n_dblp_a)]
    authors += [(f"xa{i:03d}", f"Ext Author {i}", 0) for i in range(n_ext_a)]
    papers = [(f"dp{i:03d}", f"Dblp Paper {i}", 1) for i in range(n_dblp_p)]
    papers += [(f"xp{i:03d}", f"Ext Paper {i}", 0) for i in range(n_papers - n_dblp_p)]
    paper_ids = [p[0] for p in papers]

    wrote = []
    # 69 * 7 + 4 * 6 = 507 flagged wrote edges -> mean 507/73
    for i in range(n_dblp_a):
        pubs = 7 if i < 69 else 6
        for k in range(pubs):
            wrote.append((f"da{i:03d}", paper_ids[(i + k * 73) % n_papers]))
    # 121 * 2 + 52 * 1 = 294 external wrote edges -> mean 294/173 (about 1.7)
    for i in range(n_ext_a):
        pubs = 2 if i < 121 else 1
        for k in range(pubs):
            wrote.append((f"xa{i:03d}", paper_ids[(i * 3 + k * 97) % n_papers]))

    cites = []
    # 68 + 54 = 122 citations between flagged papers
    for i in range(n_dblp_p):
        cites.append((f"dp{i:03d}", f"dp{(i + 11) % n_dblp_p:03d}"))
    for i in range(54):
        cites.append((f"dp{i:03d}", f"dp{(i + 23) % n_dblp_p:03d}"))
    # 83 * 3 + 130 * 2 = 509 citations from external papers into flagged ones
    for i in range(n_papers - n_dblp_p):
        refs = 3 if i < 83 else 2
        for k, off in enumerate((0, 29, 41)[:refs]):
            cites.append((f"xp{i:03d}", f"dp{(i + off) % n_dblp_p:03d}"))
    assert len(cites) == 631

    return _write_dataset(tmp_path / "scaled", authors, papers, wrote, cites)


def test_thousandth_scale_fixture_loads_with_constructed_counts(tmp_path):
    d = _thousandth_scale_dataset(tmp_path)
    graph, report = load_graph(d)
    assert report.authors == 246
    assert report.papers == 281
    assert report.cite_edges == 631
    assert report.dropped_duplicate_cites == 0
    assert report.dropped_duplicate_wrote == 0
    stats = dataset_stats(graph)
    assert stats.citation_edges == 631
    assert stats.citation_edges_dblp_to_dblp == 122
    assert stats.mean_pubs_dblp == pytest.approx(507 / 73)
    assert abs(stats.mean_pubs_dblp - 6.95) < 0.01
    assert stats.mean_pubs_external == pytest.approx(294 / 173)
    non_dblp_nodes = (246 - 73) + (281 - 68)
    assert non_dblp_nodes / graph.n_nodes == pytest.approx(0.73, abs=0.01)


# --- merge suggestions -------------------------------------------------------

def test_initial_compatibility_rules():
    assert initial_compatible("J. YYY", "John YYY")
    assert initial_compatible("John YYY", "J. YYY")
    assert initial_compatible("J. B. Smith", "John Brian Smith")
    assert initial_compatible("J. Smith", "John Brian Smith")
    assert initial_compatible("john yyy", "John YYY")
    assert not initial_compatible("J. YYY", "John ZZZ")
    assert not initial_compatible("B. Smith", "John Brian Smith")
    assert not initial_compatible("", "John YYY")


def test_self_citation_merge_suggestion():
    g = build_graph(
        authors=[("short", "J. YYY", True), ("long", "John YYY", True)],
        papers=[("pa", "Paper A", True), ("pb", "Paper B", True)],
        wrote=[("short", "pa"), ("long", "pb")],
        cites=[("pa", "pb")],
    )
    suggestions = suggest_merges(g)
    assert len(suggestions) == 1
    s = suggestions[0]
    assert s.rule == MergeRule.SELF_CITATION_INITIAL_MATCH
    assert {g.authors[s.author_a.index].ext_id,
            g.authors[s.author_b.index].ext_id} == {"short", "long"}


def test_common_coauthor_merge_suggestion():
    g = build_graph(
        authors=[("short", "J. YYY", True), ("long", "John YYY", True),
                 ("shared", "K. ZZZ", True)],
        papers=[("pa", "Paper A", True), ("pb", "Paper B", True)],
        wrote=[("short", "pa"), ("shared", "pa"), ("long", "pb"), ("shared", "pb")],
    )
    suggestions = suggest_merges(g)
    assert len(suggestions) == 1
    assert suggestions[0].rule == MergeRule.COMMON_COAUTHOR_INITIAL_MATCH


def test_both_rules_fire_separately_and_sorted():
    g = build_graph(
        authors=[("short", "J. YYY", True), ("long", "John YYY", True),
                 ("shared", "K. ZZZ", True)],
        papers=[("pa", "Paper A", True), ("pb", "Paper B", True)],
        wrote=[("short", "pa"), ("shared", "pa"), ("long", "pb"), ("shared", "pb")],
        cites=[("pa", "pb")],
    )
    suggestions = suggest_merges(g)
    assert [s.rule for s in suggestions] == [
        MergeRule.SELF_CITATION_INITIAL_MATCH,
        MergeRule.COMMON_COAUTHOR_INITIAL_MATCH,
    ]
    for s in suggestions:
        assert s.author_a != s.author_b
        assert s.author_a.index < s.author_b.index


def test_distinct_names_no_suggestions():
    g = build_graph(
        authors=[("a", "Alice Alpha", True), ("b", "Bob Beta", True)],
        papers=[("pa", "Paper A", True), ("pb", "Paper B", True)],
        wrote=[("a", "pa"), ("b", "pb")],
        cites=[("pa", "pb"), ("pb", "pa")],
    )
    assert suggest_merges(g) == []


def test_suggestions_only_for_compatible_names_never_mutate():
    g = build_graph(
        authors=[("s1", "A. Same", True), ("s2", "Alan Same", True),
                 ("s3", "Zoe Same", True), ("o", "Other Name", True)],
        papers=[(f"p{i}", f"P{i}", True) for i in range(4)],
        wrote=[("s1", "p0"), ("s2", "p1"), ("s3", "p2"), ("o", "p3")],
        cites=[("p0", "p1"), ("p2", "p1"), ("p3", "p0")],
    )
    before = (adjacency(g), g.cited_by)
    for s in suggest_merges(g):
        assert initial_compatible(
            g.authors[s.author_a.index].name, g.authors[s.author_b.index].name
        )
    assert (adjacency(g), g.cited_by) == before


# names that differ only in case or trailing dots, share or miss initials,
# and have no token at all ("." and "..")
_MERGE_NAMES = ["J. Smith", "John Smith", "john SMITH.", "J Smith", "Jo. Smith", "Smith",
                "J. K. Smith", "K. Smith", "John Brian Smith", ".", "..", "Jane Doe",
                "J. Doe", "doe.", "Ä. Ölsen", "ä ölsen"]

_merge_graphs = st.integers(1, 8).flatmap(
    lambda n_a: st.integers(0, 6).flatmap(
        lambda n_p: st.tuples(
            st.lists(st.sampled_from(_MERGE_NAMES), min_size=n_a, max_size=n_a),
            st.just(n_p),
            # no wrote edges at all leaves a cite-only graph
            st.lists(st.tuples(st.integers(0, n_a - 1), st.integers(0, n_p - 1)), max_size=14)
            if n_p else st.just([]),
            st.lists(st.tuples(st.integers(0, n_p - 1), st.integers(0, n_p - 1)), max_size=14)
            if n_p else st.just([]),
        )
    )
)


def _brute_force_merges(graph) -> list[tuple[int, int, int]]:
    """(rule, a, b) for every author pair, checked one pair at a time over
    Python sets."""
    papers_of, authors_of, refs_of = (list(map(set, view)) for view in adjacency(graph))
    names = graph.author_names
    cited = [{r for p in papers for r in refs_of[p]} for papers in papers_of]
    coauthors = [{c for p in papers for c in authors_of[p]} - {a}
                 for a, papers in enumerate(papers_of)]
    found = []
    for a in range(graph.n_authors):
        for b in range(a + 1, graph.n_authors):
            if not initial_compatible(names[a], names[b]):
                continue
            if cited[a] & papers_of[b] or cited[b] & papers_of[a]:
                found.append((int(MergeRule.SELF_CITATION_INITIAL_MATCH), a, b))
            if coauthors[a] & coauthors[b]:
                found.append((int(MergeRule.COMMON_COAUTHOR_INITIAL_MATCH), a, b))
    return sorted(found)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_merge_graphs)
def test_suggest_merges_matches_a_brute_force_pair_loop(draw):
    names, n_p, wrote, cites = draw
    g = build_graph([(f"a{i}", name, True) for i, name in enumerate(names)],
                    [(f"p{i}", "P", True) for i in range(n_p)],
                    [(f"a{a}", f"p{p}") for a, p in wrote],
                    [(f"p{s}", f"p{d}") for s, d in cites])
    got = [(int(s.rule), s.author_a.index, s.author_b.index) for s in suggest_merges(g)]
    assert got == _brute_force_merges(g)


def test_suggest_merges_is_not_quadratic_in_a_last_name_group():
    # one last-name group of 3,000 authors: on a 2-vCPU VM a pair loop over
    # the group takes 10-19 s, the blocked products 0.3-0.8 s
    rng = random.Random(5)
    n = 3000
    firsts = ["Ann", "A.", "Bob", "B", "Carl", "C.", "Al", "Anna", "Bo", "Ca"]
    authors = [(f"a{i}", f"{rng.choice(firsts)} {rng.choice(['X.', 'Y', ''])} Wang", True)
               for i in range(n)]
    papers = [(f"p{i}", "T", True) for i in range(2 * n)]
    wrote = [(f"a{rng.randrange(n)}", f"p{p}")
             for p in range(2 * n) for _ in range(rng.randint(1, 3))]
    cites = [(f"p{rng.randrange(2 * n)}", f"p{rng.randrange(2 * n)}") for _ in range(8 * n)]
    g = build_graph(authors, papers, wrote, cites)
    start = time.perf_counter()
    suggestions = suggest_merges(g)
    elapsed = time.perf_counter() - start
    assert elapsed < 4.0, f"suggest_merges took {elapsed:.2f} s on one 3,000-author group"
    keys = [(s.rule, s.author_a.index, s.author_b.index) for s in suggestions]
    assert keys == sorted(set(keys)) and len(keys) > 10_000
    assert all(a < b for _, a, b in keys)


def test_library_graph_with_unusual_text_is_a_save_load_fixed_point(tmp_path):
    # everything build_graph accepts must survive the TSV format
    g = build_graph(
        authors=[(" a 1 ", 'O\'Brien "Bob"', True), ("ä\\t", "Zoë Œ\x85", False)],
        papers=[("p#1", "Title\\n with a literal backslash", True), ("p 2", "\x0b\x0c", True)],
        wrote=[(" a 1 ", "p#1"), ("ä\\t", "p 2")],
        cites=[("p 2", "p#1")],
    )
    first, second = tmp_path / "first", tmp_path / "second"
    save_graph(g, first)
    reloaded, _ = load_graph(first)
    save_graph(reloaded, second)
    for name in ("authors.tsv", "papers.tsv", "wrote.tsv", "cites.tsv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    assert {(a.ext_id, a.name, a.in_dblp) for a in reloaded.authors} == {
        (a.ext_id, a.name, a.in_dblp) for a in g.authors
    }
    titles = lambda gr: {(p.ext_id, p.title) for p in gr.papers}
    assert titles(reloaded) == titles(g)


# --- loader edge cases ------------------------------------------------------

def _small_dataset(directory: Path) -> Path:
    return _write_dataset(
        directory,
        authors=[("a1", "Ann One", 1), ("a2", "Bo Two", 0)],
        papers=[("p1", "First", 1), ("p2", "Second", 0), ("p3", "Third", 1)],
        wrote=[("a1", "p1"), ("a2", "p2"), ("a2", "p3"), ("a1", "p3")],
        cites=[("p2", "p1"), ("p3", "p1"), ("p3", "p2"), ("p3", "p2")],
    )


def _rewrite_line_ends(directory: Path, newline: str) -> None:
    for path in directory.iterdir():
        text = path.read_text(encoding="utf-8")
        path.write_bytes(text.replace("\n", newline).encode("utf-8"))


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "bare_cr"])
def test_crlf_and_bare_cr_load_like_lf(tmp_path, newline):
    lf = _small_dataset(tmp_path / "lf")
    other = _small_dataset(tmp_path / "other")
    _rewrite_line_ends(other, newline)
    assert b"\r" in (other / "cites.tsv").read_bytes()
    assert load_graph(other) == load_graph(lf)


def test_blank_lines_are_skipped(tmp_path):
    plain = _small_dataset(tmp_path / "plain")
    blanks = _small_dataset(tmp_path / "blanks")
    for path in blanks.iterdir():
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        # leading, middle and trailing blank lines
        path.write_text("\n\n" + lines[0] + "\n" + "".join(lines[1:]) + "\n\n", encoding="utf-8")
    graph, report = load_graph(blanks)
    assert (graph, report) == load_graph(plain)
    assert report.cites_lines == 4


@pytest.mark.parametrize(
    "name, text, expected",
    [
        ("authors.tsv", "a1\tAnn One\t1\n\nbroken line\n", r"authors\.tsv:3: expected 3 tab-separated fields, got 1"),
        ("papers.tsv", "\np1\tFirst\t1\np2\tSecond\t0\n\np3\tThird\tyes\n", r"papers\.tsv:5: in_dblp flag must be 0 or 1, got 'yes'"),
        ("wrote.tsv", "a1\tp1\n\n\tp2\n", r"wrote\.tsv:3: empty field"),
        ("cites.tsv", "p2\tp1\n\n\np3\tghost\n", r"cites\.tsv:4: unknown paper 'ghost'"),
        ("wrote.tsv", "a1\tp1\n\r\nnobody\tp2\n", r"wrote\.tsv:3: unknown author 'nobody'"),
    ],
    ids=["malformed", "bad_flag", "empty_field", "unknown_id", "unknown_id_after_crlf_blank"],
)
def test_error_after_blank_lines_names_file_and_line(tmp_path, name, text, expected):
    d = _small_dataset(tmp_path / "ds")
    (d / name).write_text(text, encoding="utf-8", newline="")
    with pytest.raises(ParseError, match=expected) as err:
        load_graph(d)
    assert err.value.path == str(d / name)
    assert err.value.line == int(expected.split(":")[1])


@pytest.mark.parametrize(
    "name, text, expected",
    [
        ("authors.tsv", "a1\tAnn One\t1\na2\t\t0\nbroken\na3\tC\t2\n", r"authors\.tsv:2: empty field"),
        ("authors.tsv", "a1\tAnn One\t1\nbroken\na2\t\t0\n", r"authors\.tsv:2: expected 3"),
        ("papers.tsv", "p1\tFirst\tx\np2\tSecond\t0\np3\tThird\ty\n", r"papers\.tsv:1: .*got 'x'"),
        ("wrote.tsv", "a1\tp1\na2\tp9\nzz\tp1\n", r"wrote\.tsv:2: unknown paper 'p9'"),
        ("cites.tsv", "p2\tp1\np3\tp8\np9\tp1\n", r"cites\.tsv:2: unknown paper 'p8'"),
    ],
    ids=["empty_before_malformed", "malformed_before_empty", "flags", "wrote_ids", "cite_ids"],
)
def test_first_of_several_bad_lines_is_reported(tmp_path, name, text, expected):
    d = _small_dataset(tmp_path / "ds")
    (d / name).write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match=expected):
        load_graph(d)


def test_unknown_author_and_paper_on_one_line_names_the_author(tmp_path):
    d = _small_dataset(tmp_path / "ds")
    (d / "wrote.tsv").write_text("a1\tp1\nghost\tnowhere\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"wrote\.tsv:2: unknown author 'ghost'"):
        load_graph(d)


def test_duplicate_author_id_in_file_raises_graph_build_error(tmp_path):
    d = _small_dataset(tmp_path / "ds")
    (d / "authors.tsv").write_text("a1\tAnn One\t1\na2\tBo Two\t0\na1\tAnn Again\t1\n",
                                   encoding="utf-8")
    with pytest.raises(GraphBuildError, match="duplicate author id 'a1'"):
        load_graph(d)


# --- load_graph against build_graph on random datasets ------------------------

_datasets = st.integers(0, 5).flatmap(
    lambda n_a: st.integers(0 if n_a == 0 else 1, 6).flatmap(
        lambda n_p: st.tuples(
            st.just(n_a),
            st.just(n_p),
            st.lists(st.tuples(st.integers(0, n_a - 1), st.integers(0, n_p - 1)), max_size=12)
            if n_a and n_p else st.just([]),
            st.lists(st.tuples(st.integers(0, n_p - 1), st.integers(0, n_p - 1)), max_size=16)
            if n_p else st.just([]),
        )
    )
)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_datasets, st.sampled_from(["\n", "\r\n"]))
def test_load_graph_equals_build_graph_on_random_datasets(dataset, newline):
    n_a, n_p, wrote_idx, cites_idx = dataset
    authors = [(f"a{i}", f"Author {i}", i % 2) for i in range(n_a)]
    papers = [(f"p{i}", f"Paper {i}", (i + 1) % 2) for i in range(n_p)]
    # duplicate lines and self-citations come from the index draws
    wrote = [(f"a{a}", f"p{p}") for a, p in wrote_idx]
    cites = [(f"p{s}", f"p{d}") for s, d in cites_idx]
    with tempfile.TemporaryDirectory() as tmp:
        d = _write_dataset(Path(tmp) / "ds", authors, papers, wrote, cites)
        _rewrite_line_ends(d, newline)
        graph, report = load_graph(d)
    assert graph == build_graph(
        [(e, n, bool(f)) for e, n, f in authors], [(e, t, bool(f)) for e, t, f in papers],
        wrote, cites,
    )

    # the report's drop counts, recounted by hand
    kept_cites = [c for c in cites if c[0] != c[1]]
    assert report.dropped_self_citations == len(cites) - len(kept_cites)
    assert report.dropped_duplicate_cites == len(kept_cites) - len(set(kept_cites))
    assert report.dropped_duplicate_wrote == len(wrote) - len(set(wrote))
    assert (report.wrote_lines, report.cites_lines) == (len(wrote), len(cites))
    assert report.authors_without_papers == n_a - len({a for a, _ in wrote})
    assert report.papers_without_authors == n_p - len({p for _, p in wrote})
    assert all(type(i) is int for row in graph.cited_by for i in row)
