from __future__ import annotations

import io
import json
import sys
import time

import pytest

import onecross.cli as cli
from onecross import families
from onecross.cli import main
from onecross.formats import (
    FormatError,
    detect_format,
    parse_edge_list,
    parse_graph6,
    parse_input,
    write_graph6,
)
from onecross.graph import PathInGraph, build, subdivide_edge
from helpers import write_edge_list


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------


def test_graph6_roundtrip_families():
    for g in (families.complete_graph(5), families.v8(), families.cube_graph(),
              families.path_graph(4), families.complete_bipartite(3, 4)):
        back = parse_graph6(write_graph6(g))
        assert back.n == g.n
        assert sorted(tuple(sorted(p)) for _, p in back.edge_items()) == sorted(
            tuple(sorted(p)) for _, p in g.edge_items()
        )


def test_graph6_known_encoding():
    # K4 on 4 vertices: all six bits set
    k4 = families.complete_graph(4)
    assert write_graph6(k4) == "C~"
    assert parse_graph6("C~").m == 6


def test_graph6_header_accepted():
    g = parse_graph6(">>graph6<<C~")
    assert g.n == 4 and g.m == 6


def test_graph6_rejects_parallel_edges():
    with pytest.raises(FormatError):
        write_graph6(build([(0, 1), (0, 1)]))


def test_graph6_rejects_truncation():
    with pytest.raises(FormatError):
        parse_graph6("F")  # seven vertices, no adjacency payload


def test_cli_graph6_rejects_trailing_characters(tmp_path):
    for text, code in (("A_x", 64), ("DQcx", 64), ("A_", 0), ("DQc", 0)):
        path = tmp_path / "g.g6"
        path.write_text(text + "\n")
        assert main(["decide", str(path)]) == code, text
    assert parse_graph6("DQc").n == 5


def test_nx_agreement():
    import networkx as nx

    for g6 in ("C~", "D?{", "E?~o"):
        mine = parse_graph6(g6)
        theirs = nx.from_graph6_bytes(g6.encode())
        assert mine.n == theirs.number_of_nodes()
        assert sorted(tuple(sorted(p)) for _, p in mine.edge_items()) == sorted(
            tuple(sorted(e)) for e in theirs.edges()
        )


# ---------------------------------------------------------------------------
# edge lists
# ---------------------------------------------------------------------------


def test_edge_list_labels_and_comments():
    text = "# a square\nA B\nB C\nC D\nD A  # closing\n"
    g, labels = parse_edge_list(text)
    assert labels == ["A", "B", "C", "D"]
    assert g.n == 4 and g.m == 4


def test_edge_list_parallel_edges():
    g, _ = parse_edge_list("a b\na b\n")
    assert g.m == 2


def test_edge_list_roundtrip(v8):
    labels = [f"v{i}" for i in range(8)]
    g, back_labels = parse_edge_list(write_edge_list(v8, labels))
    assert back_labels == labels
    assert g == v8


def test_format_detection(v8):
    assert detect_format(write_graph6(families.complete_graph(4))) == "graph6"
    assert detect_format("a b\nb c\n") == "edgelist"
    assert detect_format(">>graph6<<C~") == "graph6"
    g, _ = parse_input(write_edge_list(v8), "auto")
    assert g == v8


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


@pytest.fixture()
def v8_file(tmp_path, v8):
    path = tmp_path / "v8.txt"
    path.write_text(write_edge_list(v8, [f"v{i}" for i in range(8)]))
    return str(path)


def test_cli_decide_v8(v8_file, capsys):
    code = main(["decide", v8_file])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["schema"] == 1
    assert report["verdict"] == "one"
    assert sorted(report["drawing"]["crossing_pair"]) in [[0, 3], [0, 4], [0, 5]]


def test_cli_decide_planar(tmp_path, capsys):
    path = tmp_path / "p3.txt"
    path.write_text(write_edge_list(families.path_graph(3)))
    assert main(["decide", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "planar"


def test_cli_decide_k6_graph6(tmp_path, capsys):
    path = tmp_path / "k6.g6"
    path.write_text(write_graph6(families.complete_graph(6)) + "\n")
    assert main(["decide", str(path)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "two_plus"
    assert report["rejected_pairs"]


def test_cli_decide_deterministic(v8_file, capsys):
    main(["decide", v8_file])
    first = capsys.readouterr().out
    main(["decide", v8_file])
    assert capsys.readouterr().out == first


def test_cli_decide_verify(v8_file, capsys):
    code = main(["decide", v8_file, "--verify"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["verified"] is True


def test_cli_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("a b c d\n")
    assert main(["decide", str(path)]) == 64
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["decide"], ["pairs"], ["draw", "--pair", "0,1", "2,3"]],
                         ids=["decide", "pairs", "draw"])
def test_cli_refuses_a_file_that_is_not_utf8(command, tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff 1\n")
    assert main([command[0], str(path), *command[1:]]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: input is not UTF-8")


def test_cli_refuses_stdin_that_is_not_utf8(tmp_path, monkeypatch, capsys):
    # K5 with one vertex named by the byte 0xff, read as the C locale would
    names = [b"\xff", b"1", b"2", b"3", b"4"]
    k5 = b"".join(a + b" " + b + b"\n" for i, a in enumerate(names) for b in names[i + 1 :])
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(k5), "ascii", "surrogateescape"))
    out = tmp_path / "k5.dot"
    assert main(["draw", "-", "--pair", "1,2", "3,4", "-o", str(out)]) == 64
    assert capsys.readouterr().err.startswith("input error: input is not UTF-8")
    assert not out.exists()


def test_cli_pairs_v8(v8_file, capsys):
    code = main(["pairs", v8_file])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    got = sorted(tuple(sorted(r["pair"])) for r in report["crossing_pairs"])
    assert (0, 4) in got
    assert all(9 not in pair for pair in got)
    assert all(r["agree"] for r in report["crossing_pairs"] + report["rejected_pairs"])


def test_cli_pairs_siran(tmp_path, siran, capsys):
    path = tmp_path / "siran.txt"
    labels = ["u", "v", "w", "x", "y", "z"]
    path.write_text(write_edge_list(siran, labels))
    assert main(["pairs", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    ux, wz, uy = 3 * 0 + 0, 3 * 2 + 2, 3 * 0 + 1
    crossing = {tuple(sorted(r["pair"])) for r in report["crossing_pairs"]}
    assert tuple(sorted((uy, wz))) in crossing
    assert tuple(sorted((ux, wz))) not in crossing
    rejected = {tuple(sorted(r["pair"])): r for r in report["rejected_pairs"]}
    assert rejected[tuple(sorted((ux, wz)))]["separation"]["separated"] is True


def test_cli_pairs_budget_hit_keeps_the_settled_pairs(tmp_path, siran, capsys):
    path = tmp_path / "siran.txt"
    path.write_text(write_edge_list(siran))
    assert main(["pairs", str(path), "--verify"]) == 1
    full = capsys.readouterr().out
    assert main(["pairs", str(path), "--verify", "--budget-steps", "15"]) == 69
    out, err = capsys.readouterr()
    assert err == "budget exceeded: search step budget exhausted\n"
    report, whole = json.loads(out), json.loads(full)
    assert report["partial"] is True and report["verified"] is True and "partial" not in whole
    assert (len(report["crossing_pairs"]), len(report["rejected_pairs"])) == (2, 3)
    for key in ("crossing_pairs", "rejected_pairs"):
        assert all(r in whole[key] for r in report[key])
    # a budget that every pair's search fits in leaves the report as it is
    assert main(["pairs", str(path), "--verify", "--budget-steps", "30"]) == 1
    assert capsys.readouterr().out == full


def test_cli_pairs_planar_input(tmp_path, capsys):
    path = tmp_path / "q3.txt"
    path.write_text(write_edge_list(families.cube_graph()))
    assert main(["pairs", str(path)]) == 65


def test_cli_draw(v8_file, tmp_path, capsys):
    svg = tmp_path / "out.svg"
    code = main(["draw", v8_file, "--pair", "v0,v1", "v4,v5", "--svg", str(svg)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("graph onedrawing")
    assert "crossing" in out
    assert svg.read_text().startswith("<svg")


def test_cli_draw_rejects_non_crossing_pair(v8_file, capsys):
    assert main(["draw", v8_file, "--pair", "v1,v5", "v0,v1"]) == 66


def test_cli_draw_unknown_edge(v8_file):
    assert main(["draw", v8_file, "--pair", "v0,v9", "v4,v5"]) == 64


def test_cli_draw_output_file(v8_file, tmp_path):
    out = tmp_path / "d.dot"
    assert main(["draw", v8_file, "--pair", "v0,v1", "v4,v5", "-o", str(out)]) == 0
    assert out.read_text().startswith("graph onedrawing")


def test_cli_corpus_small(capsys):
    code = main(["corpus", "--max-n", "5"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["inconsistencies"] == 0
    assert report["graphs_checked"] == 31


def test_cli_corpus_random_seeded(capsys):
    code = main(["corpus", "--max-n", "7", "--count", "12", "--seed", "5"])
    first = capsys.readouterr().out
    assert code == 0
    main(["corpus", "--max-n", "7", "--count", "12", "--seed", "5"])
    assert capsys.readouterr().out == first
    assert json.loads(first)["inconsistencies"] == 0


def test_cli_corpus_over_budget(capsys):
    assert main(["corpus", "--max-n", "40"]) == 69


def test_cli_corpus_budget_hit_skips_only_that_graph(capsys):
    assert main(["corpus", "--max-n", "6", "--budget-steps", "3"]) == 69
    serial = capsys.readouterr().out
    report = json.loads(serial)
    assert report["partial"] is True
    assert report["graphs_checked"] > 0 and report["skipped"]
    assert report["graphs_checked"] + len(report["skipped"]) == 143
    assert main(["corpus", "--max-n", "6", "--budget-steps", "3", "--jobs", "2"]) == 69
    assert capsys.readouterr().out == serial


def test_cli_corpus_parallel_jobs_deterministic(capsys):
    assert main(["corpus", "--max-n", "5", "--jobs", "2"]) == 0
    parallel = capsys.readouterr().out
    assert main(["corpus", "--max-n", "5"]) == 0
    assert capsys.readouterr().out == parallel


def test_cli_corpus_timing_names_the_slowest_graph(monkeypatch, capsys):
    import onecross.cli as cli

    equivalence = cli.check_equivalence

    def slow_on_k5(g, budget=None):
        if write_graph6(g) == "D~{":
            time.sleep(0.2)
        return equivalence(g, budget=budget)

    monkeypatch.setattr(cli, "check_equivalence", slow_on_k5)
    assert main(["corpus", "--max-n", "5", "--timing"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["slowest"]["graph6"] == "D~{"
    assert 0.2 <= report["slowest"]["seconds"] <= report["timing_seconds"]
    # timed inside each worker, so --jobs reports it too
    monkeypatch.undo()
    atlas = {write_graph6(g) for g in families.atlas_connected(5)}
    assert main(["corpus", "--max-n", "5", "--timing", "--jobs", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["slowest"]["graph6"] in atlas
    assert main(["corpus", "--max-n", "5"]) == 0
    assert "slowest" not in json.loads(capsys.readouterr().out)


def test_cli_pairs_verify_recheck(v8_file, capsys):
    assert main(["pairs", v8_file, "--verify"]) == 1
    assert json.loads(capsys.readouterr().out)["verified"] is True


def test_cli_pairs_verify_refuses_a_broken_certificate(tmp_path, monkeypatch, capsys):
    # walking the two-edge branch backwards keeps its ends and edges, so the
    # three conditions still agree; --verify's re-check must refuse it
    import dataclasses

    import onecross.characterize as characterize
    from onecross.kuratowski import enumerate_kuratowski

    def backwards(g):
        for cert in enumerate_kuratowski(g):
            yield dataclasses.replace(cert, branches=tuple(
                PathInGraph(b.vertices[::-1], b.edges) if b.length == 2 else b for b in cert.branches))

    monkeypatch.setattr(characterize, "enumerate_kuratowski", backwards)
    path = tmp_path / "k33s.g6"
    path.write_text(write_graph6(subdivide_edge(families.complete_bipartite(3, 3), 0)[0]) + "\n")
    assert main(["pairs", str(path), "--verify"]) == 70
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("INCONSISTENCY: ")


def test_cli_reports_a_condition_disagreement(tmp_path, monkeypatch, capsys):
    # an oracle that refuses every pair must surface as exit 70, naming the
    # first disagreeing pair in `pairs` and counting every one in `corpus`
    import onecross.characterize as characterize

    monkeypatch.setattr(characterize, "oracle_crossing_pair", lambda g, p: None)
    path = tmp_path / "k5.g6"
    path.write_text(write_graph6(families.complete_graph(5)) + "\n")
    assert main(["pairs", str(path)]) == 70
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "INCONSISTENCY: equivalence conditions disagree on pair (0,5): i=False ii=True iii=True\n"
    )
    assert main(["corpus", "--max-n", "5"]) == 70
    report = json.loads(capsys.readouterr().out)
    assert report["inconsistencies"] == 15
    assert report["pairs_checked"] == 15
    assert report["minimal_failing"] == {"graph6": "D~{", "pair": [0, 7]}


@pytest.mark.parametrize(
    "argv",
    [
        ["--count", "3", "--max-n", "4"],
        ["--count", "3", "--max-n", "6", "--max-edges", "2"],
        ["--count", "-2"],
    ],
    ids=["max-n-below-5", "max-edges-below-max-n", "negative-count"],
)
def test_cli_corpus_rejects_unusable_random_settings(argv, capsys):
    assert main(["corpus", *argv]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip()


def test_cli_draw_planar_input(tmp_path, capsys):
    path = tmp_path / "q3.txt"
    path.write_text(write_edge_list(families.cube_graph()))
    assert main(["draw", str(path), "--pair", "0,1", "2,3"]) == 66
    assert capsys.readouterr().err == "planar input: no crossing pairs\n"


def test_cli_draw_tests_the_input_once(v8_file, lr_tests, capsys):
    # one left-right test of the input and one of the gadget graph
    assert main(["draw", v8_file, "--pair", "v0,v1", "v4,v5"]) == 0
    assert len(lr_tests) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["corpus", "--jobs", "0"],
        ["corpus", "--jobs", "-2"],
        ["corpus", "--budget-steps", "-1"],
        ["decide", "V8", "--budget-steps", "-1"],
        ["pairs", "V8", "--budget-steps", "-5"],
    ],
    ids=["jobs-zero", "jobs-negative", "corpus-budget-negative", "decide-budget-negative", "pairs-budget-negative"],
)
def test_cli_rejects_unusable_worker_and_budget_settings(argv, v8_file, lr_tests, capsys):
    argv = [v8_file if a == "V8" else a for a in argv]
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip()
    assert lr_tests == []


@pytest.mark.parametrize(
    "argv",
    [
        ["decide", "V8", "--no-such-flag"],
        ["decide"],
        ["pairs", "V8", "--budget-steps", "ten"],
        ["draw", "V8", "--pair", "v0,v1", "v4,v5", "--timing"],
    ],
    ids=["unknown-flag", "missing-input", "non-integer-budget", "draw-timing"],
)
def test_cli_usage_errors_exit_64(argv, v8_file, lr_tests, capsys):
    # argparse's own exit status 2 would read as a verdict of decide or pairs
    argv = [v8_file if a == "V8" else a for a in argv]
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ")
    assert lr_tests == []


def test_cli_help_exits_0(capsys):
    assert main(["draw", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: ")


def test_cli_top_help_lists_every_command(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: onecross [-h] {decide,pairs,draw,corpus} ...\n")
    for name, (_func, summary, _options) in cli.COMMANDS.items():
        assert f"    {name}" in out and summary in out


@pytest.mark.parametrize(
    "argv",
    [
        ["decide", "--help"],
        ["pairs", "--help"],
        ["draw", "--help"],
        ["corpus", "--help"],
        ["decide"],
        ["decide", "g.txt", "--no-such-flag"],
        ["decide", "g.txt", "stray"],
        ["pairs", "g.txt", "--budget-steps", "ten"],
        ["draw", "g.txt", "--pair", "0,1"],
        ["corpus", "--max-n", "six"],
    ],
)
def test_cli_parser_of_one_command_prints_what_the_full_parser_does(argv, capsys):
    # a call that names its command builds that subparser alone; its help and
    # usage errors keep the full parser's bytes
    printed = []
    for parser in (cli._parser(argv), cli._parser([])):
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args(argv)
        printed.append((exit_info.value.code, capsys.readouterr()))
    assert list(cli._parser(argv)._subparsers._group_actions[0].choices) == argv[:1]
    assert printed[0] == printed[1]


def test_cli_corpus_never_asks_for_more_workers_than_graphs(monkeypatch, capsys):
    import multiprocessing

    sizes: list[int] = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, args):
            return [fn(*a) for a in args]

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    assert main(["corpus", "--count", "3", "--max-n", "6", "--seed", "2"]) == 0
    serial = capsys.readouterr().out
    assert main(["corpus", "--count", "3", "--max-n", "6", "--seed", "2", "--jobs", "64"]) == 0
    assert capsys.readouterr().out == serial
    assert sizes == [3]
    assert main(["corpus", "--count", "1", "--max-n", "6", "--jobs", "64"]) == 0
    assert sizes == [3]
