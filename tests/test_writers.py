"""The dataset, id-map and DOT writers against the per-line reference
writers of conftest.

The library builds each file from whole columns gathered with index arrays;
the references build the same text one line, and one id lookup, at a time.
The family of graphs mixes odd ids and names (quotes, backslashes, colons,
spaces, CJK, emoji) and covers an empty graph, a paperless author and an
authorless paper.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pira import ScoreTable, build_graph
from pira.analysis import export_dot
from pira.graph import edge_columns
from pira.ingest import save_graph, write_idmap

from conftest import reference_dot, reference_edge_columns, reference_files, reference_idmap


_odd_text = st.text(st.sampled_from(["a", "p", "1", "0", " ", ":", '"', "\\", "中", "文",
                                     "\U0001F600", "é", "\ufeff"]), min_size=1, max_size=4)
_odd_ids = _odd_text.filter(lambda t: not t.startswith("\ufeff"))  # build_graph refuses those

# 0-6 authors and 0-6 papers with odd, distinct ids and odd names, random
# flags, and up to 12 wrote and 15 cite pairs, which may repeat or loop
writer_graphs = st.integers(0, 6).flatmap(
    lambda n_a: st.integers(0, 6).flatmap(
        lambda n_p: st.tuples(
            st.lists(st.tuples(_odd_ids, _odd_text, st.booleans()),
                     min_size=n_a, max_size=n_a, unique_by=lambda s: s[0]),
            st.lists(st.tuples(_odd_ids, _odd_text, st.booleans()),
                     min_size=n_p, max_size=n_p, unique_by=lambda s: s[0]),
            st.lists(st.tuples(st.integers(0, n_a - 1), st.integers(0, n_p - 1)), max_size=12)
            if n_a and n_p else st.just([]),
            st.lists(st.tuples(st.integers(0, n_p - 1), st.integers(0, n_p - 1)), max_size=15)
            if n_p else st.just([]),
            st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=n_a + n_p,
                     max_size=n_a + n_p),
        )
    )
)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(writer_graphs)
@example(([], [], [], [], []))  # the empty graph
@example(([(" a:1", 'O"Neil \\ 中', True), ("a 0", "\U0001F600", False)],
          [("p:\\", "Title 文", True), ('"p"', "T", False)],
          [(0, 0)], [(0, 1)], [1.0, 0.0, 3.0, 0.5]))  # a paperless author, an authorless paper
def test_writers_match_the_per_line_references(tmp_path_factory, draw):
    authors, papers, wrote, cites, raw = draw
    g = build_graph(authors, papers,
                    [(authors[a][0], papers[p][0]) for a, p in wrote],
                    [(papers[s][0], papers[d][0]) for s, d in cites])

    a_col = [f"<{e}>" for e in g.author_ext_ids]  # any per-index columns, not only the ids
    p_col = [f"[{e}]" for e in g.paper_ext_ids]
    assert edge_columns(g, a_col, p_col) == reference_edge_columns(g, a_col, p_col)

    out = tmp_path_factory.mktemp("saved")
    save_graph(g, out)
    files = reference_files(g)
    assert sorted(f.name for f in out.iterdir()) == sorted(files)
    for name, text in files.items():
        assert (out / name).read_bytes() == text.encode("utf-8"), name

    write_idmap(g, out / "idmap.tsv")
    assert (out / "idmap.tsv").read_bytes() == reference_idmap(g).encode("utf-8")

    tables = [None]
    if g.n_authors:
        tables.append(ScoreTable.over_authors(g, raw[:g.n_authors]))  # papers unscored
    if g.n_nodes:
        tables.append(ScoreTable.over_all(g, raw))
    for scores in tables:
        assert export_dot(g, scores) == reference_dot(g, scores)
