import random
import tempfile
from collections import Counter, deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pira import build_graph, neighborhood
from pira.analysis import StatsReport, dataset_stats, export_dot
from pira.errors import DanglingEdgeError, GraphBuildError, NodeSpecError
from pira.graph import EdgeColumns, NodeColumns, NodeId, NodeKind, author_id, paper_id
from pira.ingest import save_graph

from conftest import adjacency, rows, small_graph, small_graphs


def test_minimal_graph():
    g = build_graph(
        authors=[("a0", "A", True)],
        papers=[("p0", "P", True)],
        wrote=[("a0", "p0")],
    )
    assert g.n_authors == 1
    assert g.n_papers == 1
    assert g.n_wrote_edges == 1
    assert g.n_cite_edges == 0


def test_self_citation_dropped():
    g = build_graph(
        authors=[("a0", "A", True)],
        papers=[("p0", "P", True)],
        wrote=[("a0", "p0")],
        cites=[("p0", "p0")],
    )
    assert g.n_cite_edges == 0
    assert g.report.dropped_self_citations == 1


def test_duplicate_wrote_deduped():
    g = build_graph(
        authors=[("a0", "A", True)],
        papers=[("p0", "P", True)],
        wrote=[("a0", "p0"), ("a0", "p0")],
    )
    assert g.n_wrote_edges == 1
    assert g.report.dropped_duplicate_wrote == 1


def test_duplicate_cites_deduped_and_build_idempotent():
    args = dict(
        authors=[("a0", "A", True)],
        papers=[("p0", "P", True), ("p1", "Q", True)],
        wrote=[("a0", "p0")],
        cites=[("p0", "p1"), ("p0", "p1"), ("p0", "p1")],
    )
    g1 = build_graph(**args)
    assert g1.n_cite_edges == 1
    assert g1.report.dropped_duplicate_cites == 2
    # doubling every edge leaves the edge sets identical
    args2 = dict(args)
    args2["wrote"] = args["wrote"] * 2
    g2 = build_graph(**args2)
    assert rows(g2.wrote) == rows(g1.wrote)
    assert rows(g2.cite) == rows(g1.cite)


def test_dangling_endpoints_rejected():
    with pytest.raises(GraphBuildError, match="unknown paper 'nope'"):
        build_graph(
            authors=[("a0", "A", True)],
            papers=[("p0", "P", True)],
            wrote=[("a0", "nope")],
        )
    with pytest.raises(GraphBuildError, match="unknown paper 'gone'"):
        build_graph(
            authors=[],
            papers=[("p0", "P", True)],
            cites=[("p0", "gone")],
        )


def test_inverse_adjacency_consistent():
    g = build_graph(
        authors=[("a0", "A", True), ("a1", "B", True)],
        papers=[("p0", "P", True), ("p1", "Q", True), ("p2", "R", True)],
        wrote=[("a0", "p0"), ("a1", "p0"), ("a1", "p1")],
        cites=[("p0", "p1"), ("p2", "p1"), ("p2", "p0")],
    )
    papers_of, authors_of, refs_of = adjacency(g)
    for a, papers in enumerate(papers_of):
        for p in papers:
            assert a in authors_of[p]
    for p, authors in enumerate(authors_of):
        for a in authors:
            assert p in papers_of[a]
    for s, refs in enumerate(refs_of):
        for d in refs:
            assert s in g.cited_by[d]


def test_orphans_flagged():
    g = build_graph(
        authors=[("a0", "Writer", True), ("a1", "Idle", True)],
        papers=[("p0", "Written", True), ("p1", "Orphan", True)],
        wrote=[("a0", "p0")],
    )
    assert g.report.authors_without_papers == 1
    assert g.report.papers_without_authors == 1


def test_p_weight_values():
    # to_paper spreads an author's step over its papers in proportion to the
    # p-weight 1 / co-author count
    g = build_graph(
        authors=[(f"a{i}", f"A{i}", True) for i in range(4)],
        papers=[("three", "Three Authors", True), ("solo", "One Author", True),
                ("four", "Four Authors", True)],
        wrote=[("a0", "three"), ("a1", "three"), ("a2", "three"),
               ("a0", "solo"),
               ("a0", "four"), ("a1", "four"), ("a2", "four"), ("a3", "four")],
    )
    to_paper = g.to_paper.toarray()
    three, solo, four = (g.paper_index[p] for p in ("three", "solo", "four"))
    a0 = to_paper[0] / to_paper[0, solo]  # p-weight of the solo paper: 1
    assert a0[three] == pytest.approx(1 / 3)
    assert a0[solo] == 1.0
    assert a0[four] == pytest.approx(0.25)
    assert to_paper[0].sum() == pytest.approx(1.0)
    assert to_paper[3, four] == 1.0  # a3's only paper


def test_p_weight_requires_edge():
    # only wrote edges carry a p-weight, and an author without papers has none
    g = build_graph(
        authors=[("a0", "A", True), ("a1", "B", True)],
        papers=[("p0", "P", True)],
        wrote=[("a0", "p0")],
    )
    to_paper = g.to_paper
    assert rows(to_paper) == ((0,), ())
    assert to_paper.toarray().tolist() == [[1.0], [0.0]]


def test_p_weights_sum_to_one_per_paper():
    # random graphs: the p-weights of a paper's authors, its to_author row,
    # always sum to 1
    rng = random.Random(7)
    for _ in range(20):
        n_a, n_p = rng.randint(1, 8), rng.randint(1, 8)
        authors = [(f"a{i}", f"A{i}", True) for i in range(n_a)]
        papers = [(f"p{i}", f"P{i}", True) for i in range(n_p)]
        wrote = [
            (f"a{i}", f"p{j}")
            for i in range(n_a)
            for j in range(n_p)
            if rng.random() < 0.4
        ]
        g = build_graph(authors, papers, wrote)
        to_author = g.to_author
        authors_of = rows(g.wrote.T)
        assert rows(to_author) == authors_of
        for p in range(n_p):
            weights = to_author[p].data
            if authors_of[p]:
                assert weights == pytest.approx([1 / len(authors_of[p])] * len(authors_of[p]))
                assert weights.sum() == pytest.approx(1.0, abs=1e-12)


def _assert_hops_keep_their_sources(g):
    """Each hop matrix has its source's stored pattern, with sorted column
    indices, and each of its rows sums to one or is empty."""
    sources = (g.wrote, g.cite, g.wrote.T.tocsr())
    for hop, source in zip((g.to_paper, g.to_ref, g.to_author), sources):
        assert hop.shape == source.shape
        assert np.array_equal(hop.indptr, source.indptr)
        assert np.array_equal(hop.indices, source.indices)
        assert all(list(r) == sorted(set(r)) for r in rows(hop))
        assert (hop.data > 0).all()
        sums = np.asarray(hop.sum(axis=1)).ravel()
        empty = np.diff(hop.indptr) == 0
        assert (sums[empty] == 0).all()
        assert np.abs(sums[~empty] - 1.0).max(initial=0.0) <= 1e-12


def test_hop_matrices_are_cached_and_read_only(fixture_graphs):
    g = fixture_graphs["mixed"]
    hops = (g.to_paper, g.to_ref, g.to_author)
    assert all(a is b for a, b in zip(hops, (g.to_paper, g.to_ref, g.to_author)))
    for hop in hops:
        for array in (hop.data, hop.indices, hop.indptr):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]


def test_hop_matrices_keep_their_sources_on_the_fixtures(fixture_graphs):
    for g in fixture_graphs.values():
        _assert_hops_keep_their_sources(g)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_graphs)
def test_hop_matrices_keep_their_sources(draw):
    _assert_hops_keep_their_sources(small_graph(draw))


def _six_node_fixture():
    # papers x and y cite each other; x has author ax and citer c (by ca)
    return build_graph(
        authors=[("ax", "Author X", True), ("ay", "Author Y", True),
                 ("ca", "Citer Author", True)],
        papers=[("x", "Paper X", True), ("y", "Paper Y", True),
                ("c", "Citing Paper", True)],
        wrote=[("ax", "x"), ("ay", "y"), ("ca", "c")],
        cites=[("x", "y"), ("y", "x"), ("c", "x")],
    )


def test_neighborhood_radius_zero():
    g = _six_node_fixture()
    sub = neighborhood(g, paper_id(g.paper_index["x"]), 0)
    assert sub.n_nodes == 1
    assert sub.paper_ext_ids == ("x",)


def test_neighborhood_radius_one_hand_enumerated():
    g = _six_node_fixture()
    sub = neighborhood(g, paper_id(g.paper_index["x"]), 1)
    assert set(sub.author_ext_ids) == {"ax"}
    assert set(sub.paper_ext_ids) == {"x", "y", "c"}
    # induced edges: the mutual pair plus the citer's edge; ax-x wrote
    assert sub.n_cite_edges == 3
    assert sub.n_wrote_edges == 1


def test_neighborhood_saturates_to_component():
    g = _six_node_fixture()
    sub = neighborhood(g, paper_id(g.paper_index["x"]), 10)
    assert sub.n_nodes == g.n_nodes
    assert set(sub.author_ext_ids) == set(g.author_ext_ids)


def test_neighborhood_monotone_in_radius():
    g = _six_node_fixture()
    previous: set[str] = set()
    for radius in range(4):
        sub = neighborhood(g, author_id(g.author_index["ca"]), radius)
        current = set(sub.author_ext_ids) | set(sub.paper_ext_ids)
        assert previous <= current
        previous = current


def test_neighborhood_preserves_flags_and_ids():
    g = build_graph(
        authors=[("a0", "Keep Me", False)],
        papers=[("p0", "Keep Title", False)],
        wrote=[("a0", "p0")],
    )
    sub = neighborhood(g, author_id(0), 1)
    assert sub.author_ext_ids == ("a0",)
    assert sub.author_names == ("Keep Me",)
    assert sub.paper_titles == ("Keep Title",)
    assert sub.author_in_dblp.tolist() == [False]
    assert sub.paper_in_dblp.tolist() == [False]


def test_neighborhood_unknown_center():
    g = _six_node_fixture()
    for center, name in ((paper_id(99), "paper index 99"), (paper_id(3), "paper index 3"),
                         (author_id(3), "author index 3"), (author_id(-1), "author index -1")):
        with pytest.raises(ValueError, match=f"unknown {name}"):
            neighborhood(g, center, 1)
    # a kind that is not a NodeKind once raised an IndexError, a float radius
    # a TypeError, and a bool radius built the radius-1 subgraph
    with pytest.raises(ValueError, match="center kind must be a NodeKind, got 5"):
        neighborhood(g, NodeId(5, 0), 1)
    for radius in (1.5, True, "1"):
        with pytest.raises(ValueError, match="radius must be an integer"):
            neighborhood(g, author_id(0), radius)
    with pytest.raises(ValueError, match="radius must be non-negative"):
        neighborhood(g, author_id(0), -1)
    # a float index raised an IndexError, and a bool was taken as paper 1
    for index in (0.5, True):
        with pytest.raises(ValueError, match="center index must be an integer"):
            neighborhood(g, NodeId(NodeKind.PAPER, index), 1)


def _reference_neighborhood(graph, center, radius):
    """Breadth-first search over the matrix rows as tuples, then a rebuild
    from the kept nodes' ids, specs and induced edges."""
    papers_of, authors_of, refs_of = adjacency(graph)
    seen = {center}
    frontier = deque([(center, 0)])
    while frontier:
        node, dist = frontier.popleft()
        if dist == radius:
            continue
        if node.kind == NodeKind.AUTHOR:
            neighbors = [paper_id(p) for p in papers_of[node.index]]
        else:
            neighbors = [author_id(a) for a in authors_of[node.index]]
            neighbors += [paper_id(p) for p in refs_of[node.index]]
            neighbors += [paper_id(p) for p in graph.cited_by[node.index]]
        for nb in neighbors:
            if nb not in seen:
                seen.add(nb)
                frontier.append((nb, dist + 1))
    kept_a = sorted(n.index for n in seen if n.kind == NodeKind.AUTHOR)
    kept_p = sorted(n.index for n in seen if n.kind == NodeKind.PAPER)
    a, p = graph.author_ext_ids, graph.paper_ext_ids
    return build_graph(
        [(a[i], graph.author_names[i], graph.author_in_dblp[i]) for i in kept_a],
        [(p[i], graph.paper_titles[i], graph.paper_in_dblp[i]) for i in kept_p],
        [(a[i], p[j]) for i in kept_a for j in papers_of[i] if j in kept_p],
        [(p[i], p[j]) for i in kept_p for j in refs_of[i] if j in kept_p],
    )


def _assert_neighborhoods_match_the_reference(g):
    centers = [author_id(i) for i in range(g.n_authors)] + [paper_id(i) for i in range(g.n_papers)]
    for center in centers:
        for radius in range(4):
            sub = neighborhood(g, center, radius)
            ref = _reference_neighborhood(g, center, radius)
            assert sub == ref and sub.report == ref.report, (center, radius)
            assert export_dot(sub) == export_dot(ref)


def test_neighborhood_matches_a_tuple_view_search_on_the_fixtures(fixture_graphs):
    for g in fixture_graphs.values():
        _assert_neighborhoods_match_the_reference(g)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_graphs)
def test_neighborhood_matches_a_tuple_view_search_on_random_graphs(draw):
    _assert_neighborhoods_match_the_reference(small_graph(draw))


def test_node_ordering():
    assert NodeId(NodeKind.AUTHOR, 5) < NodeId(NodeKind.PAPER, 0)
    assert NodeId(NodeKind.PAPER, 1) < NodeId(NodeKind.PAPER, 2)


@pytest.mark.parametrize("sep", ["\t", "\n", "\r"], ids=["tab", "newline", "carriage_return"])
def test_tsv_separators_in_ids_and_names_rejected(sep):
    bad = f"x{sep}y"
    for authors, papers in (
        ([(bad, "Name")], []),
        ([("a0", bad)], []),
        ([], [(bad, "Title")]),
        ([], [("p0", bad)]),
    ):
        with pytest.raises(GraphBuildError, match="tabs or line breaks"):
            build_graph(authors, papers)


def test_edge_columns_build_like_pairs_and_dangling_edges_say_where():
    authors = [("a0", "A", True), ("a1", "B", False)]
    papers = [("p0", "P", True), ("p1", "Q", True), ("p2", "R", False)]
    wrote = [("a0", "p0"), ("a1", "p1"), ("a0", "p0"), ("a1", "p2")]
    cites = [("p1", "p0"), ("p2", "p2"), ("p2", "p0"), ("p1", "p0")]
    columns = lambda edges: EdgeColumns([s for s, _ in edges], [d for _, d in edges])
    g = build_graph(authors, papers, wrote, cites)
    assert build_graph(authors, papers, columns(wrote), columns(cites)) == g
    assert g.report.dropped_duplicate_wrote == 1
    assert (g.report.dropped_self_citations, g.report.dropped_duplicate_cites) == (1, 1)
    assert rows(g.cite) == ((), (0,), (0,)) and g.cited_by == ((1, 2), (), ())

    # the first bad edge wins; on one edge the source is named first
    bad_wrote = wrote[:2] + [("zz", "p9"), ("a0", "p8")]
    with pytest.raises(DanglingEdgeError, match=r"unknown author 'zz'") as err:
        build_graph(authors, papers, columns(bad_wrote))
    assert (err.value.edges, err.value.position, err.value.kind, err.value.ext_id) == (
        "wrote", 2, "author", "zz")
    bad_cites = cites + [("p0", "p7"), ("p6", "p0")]
    with pytest.raises(DanglingEdgeError, match=r"cite edge \('p0', 'p7'\): unknown paper 'p7'") as err:
        build_graph(authors, papers, wrote, bad_cites)
    assert (err.value.edges, err.value.position) == ("cite", 4)

    # a pair of another size names its edge list and position; it once
    # raised a bare unpacking ValueError
    for bad_pair, size in ((("a1",), 1), (("a1", "p1", "p2"), 3)):
        with pytest.raises(GraphBuildError, match=f"wrote edge 2: .* has length {size}, not 2") as err:
            build_graph(authors, papers, wrote[:2] + [bad_pair])
        assert type(err.value) is GraphBuildError
    # a pair that is not a sequence, and an unhashable id, once raised a raw
    # TypeError
    with pytest.raises(GraphBuildError, match=r"^wrote edge 2: 5 is not a sequence$") as err:
        build_graph(authors, papers, wrote[:2] + [5])
    assert type(err.value) is GraphBuildError
    for bad_pair, unknown in (((["a0"], "p0"), "author ['a0']"), (("a0", ["p0"]), "paper ['p0']")):
        with pytest.raises(DanglingEdgeError) as err:
            build_graph(authors, papers, wrote[:2] + [bad_pair])
        assert str(err.value) == f"wrote edge {bad_pair!r}: unknown {unknown}"
        assert (err.value.edges, err.value.position) == ("wrote", 2)
    # columns of unequal lengths: EdgeColumns(["a", "a"], ["p"]) once built
    # one edge and counted one dropped duplicate, and a larger gap failed
    # inside numpy
    for bad in (EdgeColumns(["a0", "a0"], ["p0"]), EdgeColumns(["a0"], ["p0", "p1", "p2"]),
                EdgeColumns([], ["p0"])):
        with pytest.raises(ValueError, match="EdgeColumns columns differ in length"):
            build_graph(authors, papers, bad)
    with pytest.raises(ValueError, match="NodeColumns columns differ in length"):
        build_graph(NodeColumns(["a0", "a1"], ["A", "B"], [True]), papers)



@pytest.mark.parametrize("authors, papers, kind, position, match", [
    ([("a0", "A"), ("a1", "B"), ("a0", "C")], [], "author", 2, "duplicate author id 'a0'"),
    ([("a0", "A")], [("p0", "P"), ("\ufeffp1", "Q")], "paper", 1, "may not start with U\\+FEFF"),
    ([("a0", "A"), ("a1", "")], [("p0", "")], "author", 1, "empty name"),
    ([], [("p0", "P"), ("p1", "Q\tR")], "paper", 1, "tabs or line breaks"),
    ([], [("p0", "P", True), ("", "Q", True)], "paper", 1, "paper with empty id"),
    # each of these once built a graph or raised an untyped error
    ([("a0", "A", True), ("a1", "B", "0")], [], "author", 1, "DBLP flag .* got '0'"),
    ([], [("p0", "P", None)], "paper", 0, "DBLP flag .* got None"),
    (NodeColumns(["a0", "a1"], ["A", "B"], [1, 2]), [], "author", 1, "DBLP flag .* got 2"),
    ([("a0", "A"), ("a1",)], [], "author", 1, "has length 1, not 2 or 3"),
    ([], [("p0", "P", True, "x")], "paper", 0, "has length 4, not 2 or 3"),
    ([("a0", "A"), (1, "A")], [], "author", 1, "ids and names must be str"),
    ([(0, "A")], [], "author", 0, "ids and names must be str"),
    ([], [("p0", None)], "paper", 0, "ids and names must be str"),
    ([5], [], "author", 0, "^author spec 5 is not a sequence$"),
    ([], [("p0", "P"), None], "paper", 1, "^paper spec None is not a sequence$"),
], ids=["repeated", "bom", "empty_name", "tab", "empty_id", "flag_str", "flag_none",
        "flag_two", "one_field", "four_fields", "int_id", "zero_id", "none_title",
        "int_spec", "none_spec"])
def test_a_bad_node_spec_says_which(authors, papers, kind, position, match):
    # a NodeSpecError is a GraphBuildError that names the spec's kind and
    # position, which load_graph turns into a file and line
    with pytest.raises(NodeSpecError, match=match) as err:
        build_graph(authors, papers)
    assert isinstance(err.value, GraphBuildError)
    assert (err.value.kind, err.value.position) == (kind, position)

# --- the matrix-backed graph against a plain-Python recount --------------------

_edge_lists = st.integers(0, 12).flatmap(
    lambda n_a: st.integers(0, 12).flatmap(
        lambda n_p: st.tuples(
            st.lists(st.booleans(), min_size=n_a, max_size=n_a),
            st.lists(st.booleans(), min_size=n_p, max_size=n_p),
            st.lists(st.tuples(st.integers(0, n_a - 1), st.integers(0, n_p - 1)), max_size=30)
            if n_a and n_p else st.just([]),
            # small paper ranges make duplicates and self-citations common
            st.lists(st.tuples(st.integers(0, n_p - 1), st.integers(0, n_p - 1)), max_size=40)
            if n_p else st.just([]),
        )
    )
)


def _rows_of(dense) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(j) for j in np.flatnonzero(row)) for row in dense)


def _histogram(values_flags) -> dict[int, tuple[int, int]]:
    dblp = Counter(v for v, f in values_flags if f)
    ext = Counter(v for v, f in values_flags if not f)
    return {b: (dblp[b], ext[b]) for b in sorted(set(dblp) | set(ext))}


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_edge_lists)
def test_matrix_graph_matches_a_plain_recount(draw):
    a_flags, p_flags, wrote_idx, cites_idx = draw
    # ids that do not sort like their indices ("a10" < "a2")
    authors = [(f"a{i}", f"Author {i}", f) for i, f in enumerate(a_flags)]
    papers = [(f"p{i}", f"Paper {i}", f) for i, f in enumerate(p_flags)]
    g = build_graph(authors, papers,
                    [(f"a{a}", f"p{p}") for a, p in wrote_idx],
                    [(f"p{s}", f"p{d}") for s, d in cites_idx])
    n_a, n_p = len(authors), len(papers)
    wrote = sorted(set(wrote_idx))
    cites = sorted({(s, d) for s, d in cites_idx if s != d})

    # the matrices store sorted, distinct column indices per row, and
    # cited_by is the rows of cite's transpose, in plain ints
    w, c = g.wrote.toarray(), g.cite.toarray()
    assert rows(g.wrote) == _rows_of(w) and rows(g.cite) == _rows_of(c)
    assert g.cited_by == _rows_of(c.T)
    assert all(type(i) is int for row in g.cited_by for i in row)
    assert rows(g.wrote) == tuple(tuple(p for x, p in wrote if x == a) for a in range(n_a))
    assert g.cited_by == tuple(tuple(s for s, d in cites if d == p) for p in range(n_p))
    assert (g.n_wrote_edges, g.n_cite_edges) == (len(wrote), len(cites))
    assert g.report.authors_without_papers == n_a - len({a for a, _ in wrote})
    assert g.report.papers_without_authors == n_p - len({p for _, p in wrote})

    # the stored matrices cannot be written to
    for array in (g.wrote.data, g.wrote.indices, g.cite.indptr):
        with pytest.raises(ValueError):
            array[...] = 0

    pubs = [(sum(x == a for x, _ in wrote), a_flags[a]) for a in range(n_a)]
    coauthors = [(sum(q == p for _, q in wrote), p_flags[p]) for p in range(n_p)]
    out_cits = [(sum(s == p for s, _ in cites), p_flags[p]) for p in range(n_p)]
    in_cits = Counter(sum(d == p for _, d in cites) for p in range(n_p) if p_flags[p])
    expected = StatsReport(
        n_authors=n_a,
        n_authors_dblp=sum(a_flags),
        n_papers=n_p,
        n_papers_dblp=sum(p_flags),
        mean_pubs_dblp=_mean([v for v, f in pubs if f]),
        mean_pubs_external=_mean([v for v, f in pubs if not f]),
        mean_coauthors_dblp=_mean([v for v, f in coauthors if f]),
        mean_coauthors_external=_mean([v for v, f in coauthors if not f]),
        citation_edges=len(cites),
        citation_edges_dblp_to_dblp=sum(p_flags[s] and p_flags[d] for s, d in cites),
        pubs_per_author=_histogram(pubs),
        coauthors_per_paper=_histogram(coauthors),
        out_citations_per_paper=_histogram(out_cits),
        in_citations_per_paper_dblp=dict(sorted(in_cits.items())),
    )
    stats = dataset_stats(g)
    assert stats == expected and stats.to_csvs() == expected.to_csvs()

    wrote_ext = sorted((f"a{a}", f"p{p}") for a, p in wrote)
    cites_ext = sorted((f"p{s}", f"p{d}") for s, d in cites)
    files = {
        "authors.tsv": "".join(f"{e}\t{n}\t{int(f)}\n" for e, n, f in sorted(authors)),
        "papers.tsv": "".join(f"{e}\t{t}\t{int(f)}\n" for e, t, f in sorted(papers)),
        "wrote.tsv": "".join(f"{a}\t{p}\n" for a, p in wrote_ext),
        "cites.tsv": "".join(f"{s}\t{d}\n" for s, d in cites_ext),
    }
    with tempfile.TemporaryDirectory() as tmp:
        save_graph(g, tmp)
        assert {name: (Path(tmp) / name).read_text(encoding="utf-8") for name in files} == files

    dot = ["digraph citations {"]
    dot += [f'  "a:{e}" [shape=ellipse, label="{e}\\n{n}"];' for e, n, _ in sorted(authors)]
    dot += [f'  "p:{e}" [shape=box, label="{e}\\n{t}"];' for e, t, _ in sorted(papers)]
    dot += [f'  "a:{a}" -> "p:{p}" [dir=none];' for a, p in wrote_ext]
    dot += [f'  "p:{s}" -> "p:{d}";' for s, d in cites_ext]
    assert export_dot(g) == "\n".join(dot + ["}"]) + "\n"


def test_an_id_starting_with_a_byte_order_mark_is_rejected():
    # a saved file that began with that id would load without its U+FEFF
    for authors, papers in (([("\ufeffa0", "Name")], []), ([], [("\ufeffp0", "Title")])):
        with pytest.raises(GraphBuildError, match="may not start with U\\+FEFF"):
            build_graph(authors, papers)
    # elsewhere in an id, and anywhere in a name, U+FEFF is text
    g = build_graph([("a\ufeff0", "\ufeffName")], [("p0", "Title")], [("a\ufeff0", "p0")])
    assert g.author_ext_ids == ("a\ufeff0",) and g.author_names == ("\ufeffName",)
