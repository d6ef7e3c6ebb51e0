from pathlib import Path

import pytest

from pira import WalkMode, WalkParams, baselines, build_graph, cli
from pira.analysis import all_authors, dblp_authors, dblp_papers, rank
from pira.cli import main
from pira.errors import ConvergenceError
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


def test_ingest_invalid_utf8_is_an_input_error_naming_file_and_line(dataset, capsys):
    papers = dataset / "papers.tsv"
    papers.write_bytes(papers.read_bytes().replace(b"\n", b"\xff\xfe\n", 2))
    assert main(["ingest", str(dataset)]) == 2
    assert capsys.readouterr().err.startswith("error: papers.tsv:1: not valid UTF-8: byte 0xff")


@pytest.mark.parametrize("second, message", [
    ("a0\tAgain\t1", "authors.tsv:2: duplicate author id 'a0'"),
    ("\ufeffa1\tBOM\t1", "authors.tsv:2: author '\\ufeffa1': ids may not start with U+FEFF, "
                          "a file's byte-order mark"),
], ids=["repeated_id", "bom_id"])
def test_ingest_bad_node_row_is_an_input_error_naming_file_and_line(dataset, capsys, second,
                                                                    message):
    (dataset / "authors.tsv").write_text(f"a0\tAnn\t1\n{second}\n", encoding="utf-8")
    (dataset / "wrote.tsv").write_text("", encoding="utf-8")
    assert main(["ingest", str(dataset)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


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


@pytest.mark.parametrize("papers", [False, True], ids=["authors", "papers"])
@pytest.mark.parametrize("method", ["cit", "hindex", "oracle", "pira", "pra", "prp", "pub"])
def test_a_method_ranks_exactly_the_node_kinds_the_measure_table_scores(
        dataset, capsys, method, papers):
    flags = ["--papers"] if papers else []
    name = {"prp": "pr_p", "pra": "pr_a"}.get(method, method) + ("_paper" if papers else "")
    code = main(["rank", str(dataset), "--method", method, "--steps", "20000", *flags])
    out, err = capsys.readouterr()
    if method not in ("pira", "oracle") and name not in baselines.MEASURES:
        assert (code, out, err) == (2, "", f"error: method {method!r} ranks authors only\n")
        return
    assert code == 0 and err == ""
    if name in baselines.MEASURES:
        graph, _ = load_graph(dataset)
        subset = dblp_papers if papers else dblp_authors
        assert out == rank(baselines.measure(graph, name), subset=subset).to_tsv()


def test_walk_flags_default_to_walk_params_and_weights_set_their_fields():
    def walk_params(*flags):
        return cli._walk_params(cli.build_parser().parse_args(
            ["rank", "DIR", "--method", "pira", *flags]))

    assert walk_params() == WalkParams()
    weighted = walk_params("--weights", "cite=0.3,wrote=0.2,iswb=0.7,restart=0.1")
    assert weighted == WalkParams(cite_weight=0.3, wrote_weight=0.2, iswb_weight=0.7,
                                  restarting_weight=0.1)


def test_rank_rejects_non_finite_weights_before_loading(tmp_path, capsys):
    # the weights are checked before the (missing) dataset is read
    missing = str(tmp_path / "missing")
    for spec in ("cite=nan", "iswb=inf", "restart=-inf"):
        assert main(["rank", missing, "--method", "pira", "--weights", spec]) == 2
        assert "c-weights must be finite" in capsys.readouterr().err
    assert main(["rank", missing, "--method", "pira"]) == 2
    assert "c-weights" not in capsys.readouterr().err


def test_rank_prp_without_papers_scores_zero_like_cit(tmp_path, capsys):
    d = tmp_path / "paperless"
    save_graph(build_graph([("a0", "A", True), ("a1", "B", True)], []), d)
    outputs = []
    for method in ("cit", "prp"):
        assert main(["rank", str(d), "--method", method]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] and outputs[1] == outputs[0]


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


def test_compare_reads_a_ranking_with_a_byte_order_mark_like_the_plain_one(
        dataset, tmp_path, capsys):
    plain, bom = tmp_path / "r.tsv", tmp_path / "bom.tsv"
    assert main(["rank", str(dataset), "--method", "cit", "--out", str(plain)]) == 0
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    capsys.readouterr()
    for mode in (["--curve", "10,50,100"], ["--scatter", "3"]):
        assert main(["compare", str(plain), str(plain), *mode]) == 0
        expected = capsys.readouterr().out
        assert main(["compare", str(bom), str(plain), *mode]) == 0
        assert capsys.readouterr().out == expected


def test_compare_an_empty_cutoff_list_gives_an_empty_curve(tmp_path, capsys):
    # --curve "" fell through to the scatter branch, whose top_n was None
    r = tmp_path / "r.tsv"
    r.write_text("1\tx\t1.000000\n", encoding="utf-8")
    for curve in ("", ","):
        assert main(["compare", str(r), str(r), "--curve", curve]) == 0
        assert capsys.readouterr().out == "x_percent,diff_percent\n"


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
    # a byte that is not UTF-8 once failed without its file and line
    bad.write_bytes(b"1\tx\t1.000000\n2\t\xffy\t0.500000\n")
    assert main(["compare", str(good), str(bad), "--curve", "50"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:2: not valid UTF-8: byte 0xff ")


def test_compare_refuses_ranks_out_of_line_order_at_their_line(tmp_path, capsys):
    # the pair once compared: the curve read 0 % at every cutoff from the
    # line orders, while the scatter read the ranks and moved x by 2
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    a.write_text("1\tx\t3.000000\n2\ty\t2.000000\n3\tz\t1.000000\n", encoding="utf-8")
    b.write_text("3\tx\t3.000000\n1\ty\t2.000000\n2\tz\t1.000000\n", encoding="utf-8")
    for mode in (["--curve", "34,67,100"], ["--scatter", "3"]):
        assert main(["compare", str(a), str(b), *mode]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{b}:1: rank 3, expected 1" in captured.err


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


@pytest.mark.parametrize("command", [
    ["rank", "{ds}", "--method", "pub", "--out", "{missing}/r.tsv"],
    ["compare", "{ranking}", "{ranking}", "--curve", "50", "--out", "{missing}/c.csv"],
    ["inspect", "{ds}", "a:alice", "--dot", "{missing}/n.dot"],
    ["ingest", "{ds}", "--idmap", "{missing}/idmap.tsv"],
], ids=["rank", "compare", "inspect", "ingest"])
def test_a_write_into_a_missing_directory_is_an_io_failure(dataset, tmp_path, capsys, command):
    ranking = tmp_path / "r.tsv"
    assert main(["rank", str(dataset), "--method", "pub", "--out", str(ranking)]) == 0
    paths = {"ds": dataset, "ranking": ranking, "missing": tmp_path / "missing"}
    assert main([arg.format(**paths) for arg in command]) == 3
    assert "missing" in capsys.readouterr().err


def test_stats_out_onto_a_file_is_an_io_failure(dataset, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["stats", str(dataset), "--out", str(taken)]) == 3


def test_compare_missing_ranking_file_is_an_input_error(tmp_path, capsys):
    r = tmp_path / "one.tsv"
    r.write_text("1\tx\t1.000000\n", encoding="utf-8")
    for missing in (tmp_path / "absent.tsv", tmp_path):  # no file, a directory
        assert main(["compare", str(r), str(missing), "--curve", "10"]) == 2
        assert capsys.readouterr().err == f"error: missing ranking file {missing}\n"


def test_solver_non_convergence_exits_4(dataset, capsys, monkeypatch):
    def stall(graph, params):
        raise ConvergenceError("power iteration did not reach tol", residual=1.0)

    monkeypatch.setattr(cli, "expected_scores", stall)
    assert main(["rank", str(dataset), "--method", "oracle"]) == 4
    assert capsys.readouterr().err == "error: power iteration did not reach tol\n"


def _not_called(*args, **kwargs):
    raise AssertionError("the input was read before the flags were checked")


NODE_SPEC = "node must be given as a:AUTHOR_ID or p:PAPER_ID"


@pytest.mark.parametrize("argv, message", [
    (["rank", "ds", "--method", "pira", "--weights", "cite"],
     "bad weight spec 'cite', expected name=value"),
    (["rank", "ds", "--method", "pira", "--weights", "foo=1"],
     "unknown weight 'foo' (use cite, wrote, iswb, restart)"),
    (["rank", "ds", "--method", "hindex", "--papers"], "method 'hindex' ranks authors only"),
    (["compare", "a.tsv", "bad.tsv", "--curve", "1,x"], "bad cutoff list '1,x'"),
    (["compare", "a.tsv", "absent.tsv", "--curve", "1,x"], "bad cutoff list '1,x'"),
    (["inspect", "ds", "q:x"], NODE_SPEC),
    (["inspect", "ds", "nocolon"], NODE_SPEC),
    (["inspect", "ds", "a"], NODE_SPEC),
    (["inspect", "ds", "a:x", "--radius", "-1"], "radius must be non-negative"),
    (["compare", "a.tsv", "bad.tsv", "--scatter", "-1"], "--scatter top_n=-1 must be non-negative"),
    (["synth", "paper-quality", "out", "--param", "citers"],
     "bad --param 'citers', expected key=value"),
], ids=["weight_without_value", "unknown_weight", "authors_only_method", "bad_cutoff",
        "bad_cutoff_missing_file", "bad_prefix", "no_colon", "bare_prefix", "negative_radius",
        "negative_scatter", "param_without_value"])
def test_a_bad_flag_exits_2_before_any_input_is_read(tmp_path, monkeypatch, capsys, argv,
                                                     message):
    # the dataset "ds" does not exist, and neither dataset nor ranking file is read
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "load_graph", _not_called)
    monkeypatch.setattr(cli, "_read_text", _not_called)
    Path("a.tsv").write_text("1\tx\t1.000000\n", encoding="utf-8")
    Path("bad.tsv").write_text("not a ranking\n", encoding="utf-8")
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not Path("out").exists()


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
