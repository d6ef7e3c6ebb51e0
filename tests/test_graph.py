import random

import pytest

from pira import build_graph, neighborhood, p_weight
from pira.errors import DanglingEdgeError, GraphBuildError
from pira.graph import EdgeColumns, NodeId, NodeKind, author_id, paper_id


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
    assert g2.papers_of == g1.papers_of
    assert g2.refs_of == g1.refs_of


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
    for a, papers in enumerate(g.papers_of):
        for p in papers:
            assert a in g.authors_of[p]
    for p, authors in enumerate(g.authors_of):
        for a in authors:
            assert p in g.papers_of[a]
    for s, refs in enumerate(g.refs_of):
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
    g = build_graph(
        authors=[(f"a{i}", f"A{i}", True) for i in range(4)],
        papers=[("three", "Three Authors", True), ("solo", "One Author", True),
                ("four", "Four Authors", True)],
        wrote=[("a0", "three"), ("a1", "three"), ("a2", "three"),
               ("a0", "solo"),
               ("a0", "four"), ("a1", "four"), ("a2", "four"), ("a3", "four")],
    )
    three = paper_id(g.paper_index["three"])
    assert p_weight(g, author_id(0), three) == pytest.approx(1 / 3)
    assert p_weight(g, author_id(0), paper_id(g.paper_index["solo"])) == 1.0
    assert p_weight(g, author_id(3), paper_id(g.paper_index["four"])) == 0.25


def test_p_weight_requires_edge():
    g = build_graph(
        authors=[("a0", "A", True), ("a1", "B", True)],
        papers=[("p0", "P", True)],
        wrote=[("a0", "p0")],
    )
    with pytest.raises(ValueError, match="no wrote edge"):
        p_weight(g, author_id(1), paper_id(0))


def test_p_weights_sum_to_one_per_paper():
    # random graphs: the p-weights of a paper's authors always sum to 1
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
        for p in range(n_p):
            owners = g.authors_of[p]
            if not owners:
                continue
            total = sum(p_weight(g, author_id(a), paper_id(p)) for a in owners)
            assert total == pytest.approx(1.0, abs=1e-12)


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
    assert sub.papers[0].ext_id == "x"


def test_neighborhood_radius_one_hand_enumerated():
    g = _six_node_fixture()
    sub = neighborhood(g, paper_id(g.paper_index["x"]), 1)
    assert {a.ext_id for a in sub.authors} == {"ax"}
    assert {p.ext_id for p in sub.papers} == {"x", "y", "c"}
    # induced edges: the mutual pair plus the citer's edge; ax-x wrote
    assert sub.n_cite_edges == 3
    assert sub.n_wrote_edges == 1


def test_neighborhood_saturates_to_component():
    g = _six_node_fixture()
    sub = neighborhood(g, paper_id(g.paper_index["x"]), 10)
    assert sub.n_nodes == g.n_nodes
    assert {a.ext_id for a in sub.authors} == {a.ext_id for a in g.authors}


def test_neighborhood_monotone_in_radius():
    g = _six_node_fixture()
    previous: set[str] = set()
    for radius in range(4):
        sub = neighborhood(g, author_id(g.author_index["ca"]), radius)
        current = {a.ext_id for a in sub.authors} | {p.ext_id for p in sub.papers}
        assert previous <= current
        previous = current


def test_neighborhood_preserves_flags_and_ids():
    g = build_graph(
        authors=[("a0", "Keep Me", False)],
        papers=[("p0", "Keep Title", False)],
        wrote=[("a0", "p0")],
    )
    sub = neighborhood(g, author_id(0), 1)
    assert sub.authors[0].ext_id == "a0"
    assert sub.authors[0].name == "Keep Me"
    assert sub.authors[0].in_dblp is False
    assert sub.papers[0].in_dblp is False


def test_neighborhood_unknown_center():
    g = _six_node_fixture()
    with pytest.raises(ValueError):
        neighborhood(g, paper_id(99), 1)


def test_node_ordering():
    assert NodeId(NodeKind.AUTHOR, 5) < NodeId(NodeKind.PAPER, 0)
    assert NodeId(NodeKind.PAPER, 1) < NodeId(NodeKind.PAPER, 2)
    assert str(author_id(3)) == "a3"
    assert str(paper_id(4)) == "p4"


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
    assert g.refs_of == ((), (0,), (0,)) and g.cited_by == ((1, 2), (), ())

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
