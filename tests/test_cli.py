from pathlib import Path

import pytest

from pira import WalkMode, WalkParams
from pira.analysis import all_authors, dblp_authors, dblp_papers, rank
from pira.cli import main
from pira.ingest import load_graph, save_graph
from pira.oracle import expected_scores

from conftest import mixed_graph, pair_graph


@pytest.fixture()
def dataset(tmp_path):
    d = tmp_path / "ds"
    save_graph(mixed_graph(), d)
    return d


def test_ingest_ok(dataset, capsys):
    assert main(["ingest", str(dataset)]) == 0
    out = capsys.readouterr().out
    assert "authors=5" in out
    assert "papers=6" in out


def test_ingest_missing_file(dataset, capsys):
    (dataset / "cites.tsv").unlink()
    assert main(["ingest", str(dataset)]) == 2
    assert "cites.tsv" in capsys.readouterr().err


def test_ingest_reports_drops(tmp_path, capsys):
    d = tmp_path / "dup"
    d.mkdir()
    (d / "authors.tsv").write_text("a\tA\t1\n")
    (d / "papers.tsv").write_text("p\tP\t1\nq\tQ\t1\n")
    (d / "wrote.tsv").write_text("a\tp\na\tp\n")
    (d / "cites.tsv").write_text("p\tq\np\tq\nq\tq\n")
    assert main(["ingest", str(d)]) == 0
    out = capsys.readouterr().out
    assert "dropped_duplicate_wrote=1" in out
    assert "dropped_duplicate_cites=1" in out
    assert "dropped_self_citations=1" in out


def test_ingest_idmap_and_export(dataset, tmp_path):
    idmap = tmp_path / "idmap.tsv"
    export = tmp_path / "exported"
    assert main(["ingest", str(dataset), "--idmap", str(idmap),
                 "--export", str(export)]) == 0
    assert idmap.exists()
    assert (export / "authors.tsv").read_bytes() == (dataset / "authors.tsv").read_bytes()


@pytest.mark.parametrize("method", ["pub", "cit", "hindex", "prp", "pra", "oracle"])
def test_rank_methods_run(dataset, method, capsys):
    assert main(["rank", str(dataset), "--method", method]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines
    assert lines[0].split("\t")[0] == "1"


@pytest.mark.parametrize("flags, subset", [((), dblp_authors), (("--papers",), dblp_papers),
                                           (("--all-nodes",), all_authors)],
                         ids=["authors", "papers", "all-nodes"])
def test_rank_oracle_in_literal_mode(dataset, flags, subset, capsys):
    base = ["rank", str(dataset), "--method", "oracle", "--min-cite-count", "3", *flags]
    assert main(base + ["--mode", "literal"]) == 0
    out = capsys.readouterr().out
    graph, _ = load_graph(dataset)
    params = WalkParams(mode=WalkMode.LITERAL, min_citation_count=3)
    assert out == rank(expected_scores(graph, params), subset=subset).to_tsv()
    assert main(base) == 0
    assert capsys.readouterr().out != out  # the mode changes the scores


def test_rank_pub_orders_by_publications(dataset, capsys):
    assert main(["rank", str(dataset), "--method", "pub", "--all-nodes"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    # dave and bob have two papers each; dave wins the tie alphabetically... bob does
    assert lines[0].split("\t")[1] == "bob"
    assert lines[1].split("\t")[1] == "dave"


def test_rank_pira_deterministic_bytes(dataset, tmp_path):
    out1, out2 = tmp_path / "r1.tsv", tmp_path / "r2.tsv"
    flags = ["rank", str(dataset), "--method", "pira", "--steps", "200000",
             "--seed", "42", "--walkers", "3", "--out"]
    assert main(flags + [str(out1)]) == 0
    assert main(flags + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_rank_validates_flags(dataset, capsys):
    assert main(["rank", str(dataset), "--method", "pira", "--theta", "1.5"]) == 2
    assert "theta" in capsys.readouterr().err
    assert main(["rank", str(dataset), "--method", "pira",
                 "--weights", "cite=x"]) == 2
    assert main(["rank", str(dataset), "--method", "pub", "--papers"]) == 2


def test_rank_papers_subset(dataset, capsys):
    assert main(["rank", str(dataset), "--method", "cit", "--papers",
                 "--all-nodes"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    names = {l.split("\t")[1] for l in lines}
    assert names == {f"m{i}" for i in range(6)}


def test_rank_weights_flag(dataset, capsys):
    assert main(["rank", str(dataset), "--method", "pira", "--steps", "50000",
                 "--weights", "cite=2,wrote=1,iswb=0.5,restart=0.1"]) == 0
    assert capsys.readouterr().out


def test_compare_curve_zero_for_same_file(dataset, tmp_path, capsys):
    ranking = tmp_path / "r.tsv"
    assert main(["rank", str(dataset), "--method", "pub", "--out", str(ranking)]) == 0
    assert main(["compare", str(ranking), str(ranking), "--curve", "10,50,100"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "x_percent,diff_percent"
    assert all(line.endswith(",0.000000") for line in out[1:])


def test_compare_scatter_row_count(dataset, tmp_path, capsys):
    r1, r2 = tmp_path / "r1.tsv", tmp_path / "r2.tsv"
    assert main(["rank", str(dataset), "--method", "pub", "--out", str(r1)]) == 0
    assert main(["rank", str(dataset), "--method", "cit", "--out", str(r2)]) == 0
    assert main(["compare", str(r1), str(r2), "--scatter", "3"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 4  # header + 3 rows


def test_compare_scatter_thousand_rows(tmp_path, capsys):
    d = tmp_path / "wide"
    assert main(["synth", "single-ref-chain", str(d), "--padding", "1100"]) == 0
    capsys.readouterr()
    r1, r2 = tmp_path / "w1.tsv", tmp_path / "w2.tsv"
    assert main(["rank", str(d), "--method", "pub", "--out", str(r1)]) == 0
    assert main(["rank", str(d), "--method", "cit", "--out", str(r2)]) == 0
    assert main(["compare", str(r1), str(r2), "--scatter", "1000"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1001


def test_compare_mismatched_sets(dataset, tmp_path, capsys):
    r1, r2 = tmp_path / "r1.tsv", tmp_path / "r2.tsv"
    assert main(["rank", str(dataset), "--method", "pub", "--out", str(r1)]) == 0
    assert main(["rank", str(dataset), "--method", "pub", "--all-nodes",
                 "--out", str(r2)]) == 0
    assert main(["compare", str(r1), str(r2), "--curve", "50"]) == 2


def test_compare_empty_rankings_is_an_input_error(tmp_path, capsys):
    r1, r2 = tmp_path / "e1.tsv", tmp_path / "e2.tsv"
    r1.write_text("", encoding="utf-8")
    r2.write_text("\n", encoding="utf-8")
    assert main(["compare", str(r1), str(r2), "--curve", "10"]) == 2
    assert "empty" in capsys.readouterr().err


def test_compare_negative_scatter_is_an_input_error(tmp_path, capsys):
    r = tmp_path / "one.tsv"
    r.write_text("1\tx\t1.000000\n", encoding="utf-8")
    assert main(["compare", str(r), str(r), "--scatter", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "top_n=-1" in captured.err


def test_compare_malformed_ranking_line_names_file_and_line(tmp_path, capsys):
    good, bad = tmp_path / "good.tsv", tmp_path / "bad.tsv"
    good.write_text("1\tx\t1.000000\n2\ty\t0.500000\n", encoding="utf-8")
    bad.write_text("1\tx\t1.000000\n2\ty\n", encoding="utf-8")
    assert main(["compare", str(good), str(bad), "--curve", "50"]) == 2
    err = capsys.readouterr().err
    assert f"{bad}:2: expected 3 tab-separated fields, got 2" in err


def test_compare_ranking_listing_a_node_twice_is_an_input_error(tmp_path, capsys):
    # before this was checked, both modes exited 0: the curve read 0 % at
    # every cutoff and the scatter listed `a` twice
    dup, other = tmp_path / "dup.tsv", tmp_path / "other.tsv"
    dup.write_text("1\ta\t3.000000\n2\ta\t2.000000\n3\tb\t1.000000\n", encoding="utf-8")
    other.write_text("1\tb\t3.000000\n2\ta\t2.000000\n3\tb\t1.000000\n", encoding="utf-8")
    for mode in (["--curve", "34,67,100"], ["--scatter", "3"]):
        assert main(["compare", str(dup), str(other), *mode]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{dup}:2: node 'a' already listed at line 1" in captured.err


def test_inspect_radius_zero(dataset, capsys):
    assert main(["inspect", str(dataset), "a:alice", "--radius", "0"]) == 0
    out = capsys.readouterr().out
    assert '"a:alice"' in out
    assert "->" not in out


def test_inspect_mutual_pair(tmp_path, capsys):
    d = tmp_path / "pair"
    save_graph(pair_graph(), d)
    assert main(["inspect", str(d), "p:p0", "--radius", "2"]) == 0
    out = capsys.readouterr().out
    assert '"p:p0" -> "p:p1";' in out
    assert '"p:p1" -> "p:p0";' in out


def test_inspect_unknown_node(dataset, capsys):
    assert main(["inspect", str(dataset), "a:ghost"]) == 2
    assert main(["inspect", str(dataset), "ghost"]) == 2


def test_synth_round_trip_and_bad_kind(tmp_path, capsys):
    out = tmp_path / "syn"
    assert main(["synth", "self-citation", str(out), "--padding", "4"]) == 0
    assert (out / "assertions.tsv").exists()
    graph, _ = load_graph(out)
    again = tmp_path / "again"
    save_graph(graph, again)
    for name in ("authors.tsv", "papers.tsv", "wrote.tsv", "cites.tsv"):
        assert (out / name).read_bytes() == (again / name).read_bytes()
    assert main(["synth", "not-a-kind", str(tmp_path / "x")]) == 2


def test_synth_param_overrides(tmp_path):
    out = tmp_path / "syn"
    assert main(["synth", "single-ref-chain", str(out), "--param", "length=3"]) == 0
    graph, _ = load_graph(out)
    assert "ch03" in graph.paper_index
    assert "ch04" not in graph.paper_index
    assert main(["synth", "single-ref-chain", str(tmp_path / "y"),
                 "--param", "length=one"]) == 2


def test_stats_outputs(dataset, tmp_path, capsys):
    stats_dir = tmp_path / "stats"
    assert main(["stats", str(dataset), "--out", str(stats_dir)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("key,value")
    assert (stats_dir / "publications_per_author.csv").exists()
    assert (stats_dir / "summary.csv").read_text().startswith("key,value")


def test_stats_empty_graph(tmp_path, capsys):
    d = tmp_path / "empty"
    d.mkdir()
    for name in ("authors.tsv", "papers.tsv", "wrote.tsv", "cites.tsv"):
        (d / name).write_text("")
    assert main(["stats", str(d)]) == 0
    out = capsys.readouterr().out
    assert "authors,0" in out
    assert "citation_edges,0" in out


def test_stats_deterministic(dataset, capsys):
    assert main(["stats", str(dataset)]) == 0
    first = capsys.readouterr().out
    assert main(["stats", str(dataset)]) == 0
    assert capsys.readouterr().out == first
