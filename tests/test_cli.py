import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import tracemalloc
from array import array
from contextlib import contextmanager
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liquidrank import cli, ingest, rank
from liquidrank.cli import main
from liquidrank.errors import DomainError
from liquidrank.rank import RankedList, RankParams, read_ranking_csv

TWEETS = "\n".join(
    [
        '{"author": "alice", "text": "great take @bob", "timestamp": 100}',
        '{"author": "bob", "text": "@alice @alice always on point", "timestamp": 200}',
        '{"author": "bob", "text": "@alice again", "timestamp": 300}',
        '{"author": "carol", "text": "reading @alice and @bob", "timestamp": 400}',
    ]
)

JUDGMENTS = "node,grade\nalice,2\nbob,1\ncarol,0\n"

# Post corpora with one malformed line of each kind, and the ingest output the
# previous, whole-file parser wrote for them.
INGEST_DATA = Path(__file__).parent / "data" / "ingest"


@pytest.fixture
def workspace(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tweets.jsonl").write_text(TWEETS + "\n", encoding="utf-8")
    (tmp_path / "judgments.csv").write_text(JUDGMENTS, encoding="utf-8")
    return tmp_path


def test_ingest_writes_interactions_and_manifest(workspace, capsys):
    assert main(["ingest", "--input", "tweets.jsonl"]) == 0
    out = capsys.readouterr().out
    assert "interactions.csv" in out

    rows = (workspace / "out" / "interactions.csv").read_text().splitlines()
    assert rows[0] == "rater,ratee,timestamp"
    assert rows[1:] == [
        "alice,bob,100",
        "bob,alice,200",
        "bob,alice,200",
        "bob,alice,300",
        "carol,alice,400",
        "carol,bob,400",
    ]

    manifest = json.loads((workspace / "out" / "manifest.json").read_text())
    stage = manifest["stages"]["ingest"]
    assert stage["tweet_count"] == 4
    assert stage["record_count"] == 6
    assert stage["malformed_count"] == 0
    assert stage["input_digest"].startswith("sha256:")
    assert manifest["outputs"]["interactions.csv"] == "out/interactions.csv"
    assert "ingest" in manifest["timings_ms"]


def test_ingest_empty_file_writes_header_only(workspace):
    (workspace / "empty.jsonl").write_text("")
    assert main(["ingest", "--input", "empty.jsonl"]) == 0
    assert (workspace / "out" / "interactions.csv").read_bytes() == b"rater,ratee,timestamp\n"


def test_ingest_missing_input_exits_1(workspace, capsys):
    assert main(["ingest", "--input", "nope.jsonl"]) == 1
    assert "error:" in capsys.readouterr().err


def test_ingest_strict_exits_2_with_location(workspace, capsys):
    (workspace / "bad.jsonl").write_text('{"author": "a", "text": "x", "timestamp": 1}\nnot json\n')
    assert main(["ingest", "--input", "bad.jsonl", "--strict"]) == 2
    err = capsys.readouterr().err
    assert "bad.jsonl:2" in err


def test_ingest_lenient_skips_and_warns(workspace, capsys):
    (workspace / "bad.jsonl").write_text('{"author": "a", "text": "@b", "timestamp": 1}\nnot json\n')
    assert main(["ingest", "--input", "bad.jsonl"]) == 0
    err = capsys.readouterr().err
    assert "bad.jsonl:2" in err
    assert "skipped" in err
    manifest = json.loads((workspace / "out" / "manifest.json").read_text())
    assert manifest["stages"]["ingest"]["malformed_count"] == 1


@pytest.mark.parametrize("strict", [False, True])
def test_ingest_timestamp_range_ends_at_int64_max(workspace, capsys, strict):
    top = 2**63 - 1
    (workspace / "edge.jsonl").write_text(
        f'{{"author": "a", "text": "@b", "timestamp": {top}}}\n{{"author": "b", "text": "@a", "timestamp": {top + 1}}}\n'
    )
    code = main(["ingest", "--input", "edge.jsonl", *(["--strict"] if strict else [])])
    err = capsys.readouterr().err
    reason = f"timestamp must be <= {top}"
    if strict:
        assert (code, err) == (2, f"error: edge.jsonl:2: {reason}\n")
    else:
        assert (code, err) == (0, f"warning: edge.jsonl:2: skipped ({reason})\n")
        assert (workspace / "out" / "interactions.csv").read_text() == f"rater,ratee,timestamp\na,b,{top}\n"


def test_rank_timestamp_range_ends_at_int64_max(workspace, capsys):
    top = 2**63 - 1
    (workspace / "edge.csv").write_text(f"rater,ratee,timestamp\na,b,{top}\nb,a,{top - 1}\n")
    assert main(["rank", "--input", "edge.csv", "--window-start", str(top)]) == 0
    assert json.loads((workspace / "out" / "manifest.json").read_text())["stages"]["rank"]["edge_count"] == 1
    (workspace / "edge.csv").write_text(f"rater,ratee,timestamp\na,b,{top}\nb,a,{top + 1}\n")
    capsys.readouterr()
    assert main(["rank", "--input", "edge.csv"]) == 2
    assert capsys.readouterr().err == f"error: edge.csv:3: timestamp must be <= {top}\n"


@pytest.mark.parametrize("name", ["tweets.csv", "tweets.CSV"])
def test_ingest_csv_by_suffix(workspace, name):
    (workspace / name).write_text(
        "author,text,timestamp\nalice,hello @bob,5\n", encoding="utf-8"
    )
    assert main(["ingest", "--input", name]) == 0
    rows = (workspace / "out" / "interactions.csv").read_text().splitlines()
    assert rows[1] == "alice,bob,5"


def test_ingest_reads_any_other_suffix_as_jsonl(workspace):
    (workspace / "data.txt").write_text('{"author": "a", "text": "@b", "timestamp": 1}\n')
    assert main(["ingest", "--input", "data.txt"]) == 0
    assert (workspace / "out" / "interactions.csv").read_text() == "rater,ratee,timestamp\na,b,1\n"


def test_ingest_format_flag_is_a_usage_error(workspace, capsys):
    # The suffix alone names the post format; --format is report's chart format.
    with pytest.raises(SystemExit) as exit_info:
        main(["ingest", "--input", "tweets.jsonl", "--format", "jsonl"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --format jsonl" in capsys.readouterr().err
    assert not (workspace / "out").exists()


def test_rank_defaults_to_out_dir_interactions(workspace):
    assert main(["ingest", "--input", "tweets.jsonl"]) == 0
    assert main(["rank"]) == 0
    for name in ("mentions", "liquid", "product"):
        assert (workspace / "out" / f"ranking_{name}.csv").exists()
    assert (workspace / "out" / "reputation.json").exists()

    mentions = read_ranking_csv(workspace / "out" / "ranking_mentions.csv")
    assert mentions.entries[0].node == "alice"
    assert mentions.entries[0].score == 4.0

    reputation = json.loads((workspace / "out" / "reputation.json").read_text())
    assert reputation["converged"] is True
    assert set(reputation["scores"]) == {"alice", "bob", "carol"}
    assert reputation["params"]["alpha"] == 0.5

    manifest = json.loads((workspace / "out" / "manifest.json").read_text())
    assert manifest["stages"]["rank"]["node_count"] == 3
    assert manifest["stages"]["rank"]["edge_count"] == 4


def test_rank_missing_interactions_exits_1(workspace, capsys):
    assert main(["rank"]) == 1
    assert "error:" in capsys.readouterr().err


def test_rank_empty_window_exits_3(workspace, capsys):
    assert main(["ingest", "--input", "tweets.jsonl"]) == 0
    assert main(["rank", "--window-start", "10000", "--window-end", "20000"]) == 3
    assert "error:" in capsys.readouterr().err


def test_rank_window_filters_edges(workspace):
    assert main(["ingest", "--input", "tweets.jsonl"]) == 0
    assert main(["rank", "--window-start", "100", "--window-end", "250"]) == 0
    manifest = json.loads((workspace / "out" / "manifest.json").read_text())
    # only the ts=100 and ts=200 records survive
    assert manifest["stages"]["rank"]["record_count"] == 6
    assert manifest["stages"]["rank"]["edge_count"] == 2
    reputation = json.loads((workspace / "out" / "reputation.json").read_text())
    assert reputation["window"] == {"start": 100, "end": 250.0}


def test_rank_window_start_takes_a_number(workspace):
    # A start of 1.5 keeps the rows stamped 2 and later, as a start of 2 does.
    (workspace / "edges.csv").write_text("rater,ratee,timestamp\na,b,1\nb,a,2\nc,a,3\n", encoding="utf-8")
    names, rankings = [f"ranking_{m}.csv" for m in ("mentions", "liquid", "product")], {}
    for start in ("1", "1.5", "2"):
        assert main(["rank", "--input", "edges.csv", "--window-start", start, "--out-dir", start]) == 0
        rankings[start] = [(workspace / start / name).read_bytes() for name in names]
    assert rankings["1.5"] == rankings["2"] != rankings["1"]
    assert json.loads((workspace / "1.5" / "reputation.json").read_text())["window"] == {"start": 1.5, "end": None}


def test_rank_negative_window_start_in_the_equals_form(workspace):
    # Every row is stamped at or after 0, so a start of -1e3 keeps what the default start of 0 keeps.
    assert main(["ingest", "--input", "tweets.jsonl"]) == 0
    rankings, names = {}, [f"ranking_{m}.csv" for m in ("mentions", "liquid", "product")]
    for out_dir, argv in (("default", []), ("negative", ["--window-start=-1e3"])):
        assert main(["rank", "--input", "out/interactions.csv", "--out-dir", out_dir, *argv]) == 0
        rankings[out_dir] = [(workspace / out_dir / name).read_bytes() for name in names]
    assert rankings["negative"] == rankings["default"]
    assert json.loads((workspace / "negative" / "reputation.json").read_text())["window"]["start"] == -1000.0


def test_rank_negative_window_start_after_a_space_is_a_usage_error(workspace, capsys):
    # argparse reads "-1e3" after a space as an option, not as the flag's value.
    assert main(["ingest", "--input", "tweets.jsonl"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main(["rank", "--window-start", "-1e3", "--out-dir", "fresh"])
    assert exit_info.value.code == 2
    assert "argument --window-start: expected one argument" in capsys.readouterr().err
    assert not (workspace / "fresh").exists()


@pytest.mark.parametrize("start", ["-inf", "nan", "inf"])
def test_rank_window_start_that_is_not_finite_exits_2(workspace, capsys, start):
    (workspace / "edges.csv").write_text("rater,ratee,timestamp\na,b,1\n", encoding="utf-8")
    assert main(["rank", "--input", "edges.csv", f"--window-start={start}", "--out-dir", "fresh"]) == 2
    assert capsys.readouterr().err == f"error: window start {float(start)} must be finite and < end inf\n"
    assert not (workspace / "fresh").exists()


def test_rank_nonconvergence_warns_but_exits_0(workspace, capsys):
    (workspace / "cycle.csv").write_text(
        "rater,ratee,timestamp\na,b,1\nb,a,1\nb,a,1\nb,a,1\n", encoding="utf-8"
    )
    code = main(["rank", "--input", "cycle.csv", "--alpha", "1.0"])
    assert code == 0
    captured = capsys.readouterr()
    assert "did not converge" in captured.err
    reputation = json.loads((workspace / "out" / "reputation.json").read_text())
    assert reputation["converged"] is False
    assert reputation["iterations"] == 1000


def test_rank_rejects_bad_params(workspace, capsys):
    assert main(["ingest", "--input", "tweets.jsonl"]) == 0
    assert main(["rank", "--alpha", "1.5"]) == 2
    assert main(["rank", "--epsilon", "0"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "epsilon",
    [
        # --epsilon reads a float: 10**400 and 1e999 both read as inf.
        pytest.param("1" + "0" * 400, id="int_past_float_range"),
        pytest.param("1e999", id="exp_past_float_range"),
        pytest.param("inf", id="flag_inf"),
    ],
)
def test_rank_rejects_an_epsilon_past_float_range(workspace, capsys, epsilon):
    (workspace / "i.csv").write_text("rater,ratee,timestamp\na,b,1\nb,a,2\n")
    assert main(["rank", "--input", "i.csv", "--epsilon", epsilon]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: epsilon must be ")
    assert "Traceback" not in err
    assert not (workspace / "out").exists()


def test_evaluate_writes_reports_and_prints_table(workspace, capsys):
    assert main(["ingest", "--input", "tweets.jsonl"]) == 0
    assert main(["rank"]) == 0
    code = main(
        [
            "evaluate",
            "out/ranking_mentions.csv",
            "out/ranking_liquid.csv",
            "--judgments",
            "judgments.csv",
            "--k",
            "2",
        ]
    )
    assert code == 0
    table = capsys.readouterr().out
    assert "mentions" in table and "liquid" in table

    report = json.loads((workspace / "out" / "report_liquid.json").read_text())
    assert report["k"] == 2
    assert report["relevant_total"] == 1
    assert 0.0 <= report["precision"] <= 1.0


def test_evaluate_bad_judgments_exits_2(workspace, capsys):
    assert main(["ingest", "--input", "tweets.jsonl"]) == 0
    assert main(["rank"]) == 0
    (workspace / "bad.csv").write_text("node,grade\na,7\n")
    assert main(["evaluate", "out/ranking_liquid.csv", "--judgments", "bad.csv"]) == 2
    assert "bad.csv:2" in capsys.readouterr().err


def test_evaluate_duplicate_judgment_exits_2(workspace, capsys):
    assert main(["ingest", "--input", "tweets.jsonl"]) == 0
    assert main(["rank"]) == 0
    (workspace / "dup.csv").write_text("node,grade\nalice,2\nalice,1\n")
    assert main(["evaluate", "out/ranking_liquid.csv", "--judgments", "dup.csv"]) == 2
    assert "duplicate" in capsys.readouterr().err


def test_evaluate_repeated_ranking_node_exits_2(workspace, capsys):
    (workspace / "r.csv").write_text("rank,node,score,method\n1,alice,0.6,m\n2,alice,0.4,m\n")
    assert main(["evaluate", "r.csv", "--judgments", "judgments.csv"]) == 2
    assert "error: r.csv:3: duplicate entry for node 'alice'" in capsys.readouterr().err
    assert not (workspace / "out").exists()


@pytest.mark.parametrize("method", ["x/../../../esc_target", "x\\..\\esc_target", "..", "."])
@pytest.mark.parametrize("command", [["evaluate", "--judgments", "judgments.csv"], ["report"]])
def test_ranking_method_that_is_not_a_file_name_exits_2(workspace, capsys, command, method):
    # The method names report_<method>.json or chart_<method>.txt: with an
    # out dir two levels down, "x/../../../esc_target" would land in workspace.
    (workspace / "w").mkdir()
    (workspace / "w" / "r.csv").write_text(f"rank,node,score,method\n1,alice,0.6,{method}\n2,bob,0.4,{method}\n")
    before = sorted(workspace.rglob("*"))
    assert main([*command, "w/r.csv", "--out-dir", "w/out"]) == 2
    assert f"error: w/r.csv: method {method!r} is not a file name" in capsys.readouterr().err
    assert sorted(workspace.rglob("*")) == before


@pytest.mark.parametrize("command", [["evaluate", "--judgments", "judgments.csv"], ["report"]])
def test_ranking_method_with_a_nul_byte_exits_2_naming_the_file(workspace, capsys, command):
    # Python 3.10's csv module rejects the NUL itself, later versions read
    # it into the method; either way the error names the ranking file.
    (workspace / "w").mkdir()
    (workspace / "w" / "r.csv").write_text("rank,node,score,method\n1,alice,0.6,x\0y\n")
    before = sorted(workspace.rglob("*"))
    assert main([*command, "w/r.csv", "--out-dir", "w/out"]) == 2
    assert "error: w/r.csv" in capsys.readouterr().err
    assert sorted(workspace.rglob("*")) == before


@pytest.mark.parametrize("char", ["x", "é"])
@pytest.mark.parametrize(
    "command, artifact",
    [(["evaluate", "--judgments", "judgments.csv"], "report_{}.json"), (["report"], "chart_{}.txt")],
)
def test_ranking_method_too_long_for_a_file_name_exits_2(workspace, capsys, command, artifact, char):
    # An artifact is first written to .<artifact>.<pid>.tmp, its pid padded to
    # 10 digits, which must fit in 255 bytes: the longest method that fits
    # works, one more character exits 2 naming the ranking file, before any
    # path is created.
    room = 255 - len(f".{artifact.format('')}.{os.getpid():010d}.tmp".encode())
    longest = char * (room // len(char.encode()))
    (workspace / "w").mkdir()
    rows = "rank,node,score,method\n1,alice,0.6,{0}\n2,bob,0.4,{0}\n"
    (workspace / "w" / "long.csv").write_text(rows.format(longest + char), encoding="utf-8")
    (workspace / "w" / "fits.csv").write_text(rows.format(longest), encoding="utf-8")
    before = sorted(workspace.rglob("*"))
    assert main([*command, "w/fits.csv", "w/long.csv", "--out-dir", "w/out"]) == 2
    assert f"error: w/long.csv: method {longest + char!r} is too long for a file name" in capsys.readouterr().err
    assert sorted(workspace.rglob("*")) == before
    assert main([*command, "w/fits.csv", "--out-dir", "w/out"]) == 0
    assert (workspace / "w" / "out" / artifact.format(longest)).exists()


def test_method_name_limit_is_the_same_under_any_pid(workspace, monkeypatch, capsys):
    # The pid in a temporary file's name is padded to 10 digits, so whether a
    # method fits in a file name does not depend on which process asks.
    (workspace / "w").mkdir()
    codes = {}
    for pid in (1, 4_194_304):
        monkeypatch.setattr(os, "getpid", lambda pid=pid: pid)
        codes[pid] = []
        for length in range(225, 240):
            path = workspace / "w" / f"m{length}.csv"
            path.write_text(f"rank,node,score,method\n1,alice,0.6,{'m' * length}\n", encoding="utf-8")
            codes[pid].append(main(["evaluate", str(path), "--judgments", "judgments.csv", "--out-dir", "w/out"]))
    capsys.readouterr()
    assert codes[1] == codes[4_194_304]
    assert {0, 2} == set(codes[1])


def test_evaluate_missing_judgments_exits_1(workspace):
    assert main(["ingest", "--input", "tweets.jsonl"]) == 0
    assert main(["rank"]) == 0
    assert main(["evaluate", "out/ranking_liquid.csv", "--judgments", "ghost.csv"]) == 1


def test_report_txt_chart(workspace):
    assert main(["ingest", "--input", "tweets.jsonl"]) == 0
    assert main(["rank"]) == 0
    assert main(["report", "out/ranking_liquid.csv", "--k", "2"]) == 0
    chart = (workspace / "out" / "chart_liquid.txt").read_text()
    lines = chart.splitlines()
    assert lines[0] == "liquid: top 2 of 3"
    assert len(lines) == 3
    assert "#" in lines[1]


def test_report_svg_chart(workspace):
    assert main(["ingest", "--input", "tweets.jsonl"]) == 0
    assert main(["rank"]) == 0
    assert main(["report", "out/ranking_liquid.csv", "--format", "svg"]) == 0
    svg = (workspace / "out" / "chart_liquid.svg").read_text()
    assert svg.startswith("<svg ")
    assert svg.count("<rect ") == 3
    assert svg.rstrip().endswith("</svg>")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    rows=st.lists(st.tuples(st.text(), st.floats(-10, 10)), max_size=4, unique_by=lambda row: row[0]),
    method=st.text(),
)
def test_svg_chart_is_well_formed_xml_with_bars_at_least_0_wide(rows, method):
    ranked = RankedList(method, [node for node, _ in rows], [score for _, score in rows])
    svg = ElementTree.fromstring(cli.render_svg_chart(ranked, k=5, title=method))
    widths = [float(rect.get("width")) for rect in svg.iter("{http://www.w3.org/2000/svg}rect")]
    assert len(widths) == len(rows) and all(width >= 0 for width in widths)


def test_svg_chart_escapes_node_and_method(workspace):
    (workspace / "r.csv").write_text("rank,node,score,method\n1,a&b,2,x<y\n2,c,-1,x<y\n")
    assert main(["report", "r.csv", "--format", "svg"]) == 0
    svg = ElementTree.parse(workspace / "out" / "chart_x<y.svg")
    texts = [text.text for text in svg.iter("{http://www.w3.org/2000/svg}text")]
    assert texts[:2] == ["x<y: top 2 of 2", "1. a&b"]


def test_manifest_lists_every_output_by_file_name(workspace):
    # Keyed by stem, the svg chart would replace the txt one, and the sidecar
    # would take the key "interactions.csv".
    assert main(["ingest", "--input", "tweets.jsonl"]) == 0
    assert main(["rank"]) == 0
    assert main(["report", "out/ranking_liquid.csv"]) == 0
    assert main(["report", "out/ranking_liquid.csv", "--format", "svg"]) == 0
    outputs = json.loads((workspace / "out" / "manifest.json").read_text())["outputs"]
    names = ["interactions.csv", "interactions.csv.cols", "chart_liquid.txt", "chart_liquid.svg"]
    assert {name: outputs.get(name) for name in names} == {name: f"out/{name}" for name in names}


def test_report_empty_ranking_gives_header_only_chart(workspace):
    (workspace / "empty.csv").write_text("rank,node,score,method\n")
    assert main(["report", "empty.csv"]) == 0
    chart = (workspace / "out" / "chart_empty.txt").read_text()
    assert chart == "empty: top 0 of 0\n"


def test_report_deduplicates_output_names(workspace):
    assert main(["ingest", "--input", "tweets.jsonl"]) == 0
    assert main(["rank"]) == 0
    assert main(["report", "out/ranking_liquid.csv", "out/ranking_liquid.csv"]) == 0
    out = workspace / "out"
    assert (out / "chart_liquid.txt").exists()
    assert (out / "chart_liquid_2.txt").exists()


def test_rank_vanishing_inflow_exits_3(workspace, capsys):
    (workspace / "dag.csv").write_text("rater,ratee,timestamp\na,b,1\n", encoding="utf-8")
    assert main(["rank", "--input", "dag.csv", "--alpha", "1"]) == 3
    assert "error: inflow vanished" in capsys.readouterr().err


def test_evaluate_empty_ranking_exits_3_naming_file(workspace, capsys):
    (workspace / "empty.csv").write_text("rank,node,score,method\n")
    assert main(["evaluate", "empty.csv", "--judgments", "judgments.csv"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: empty.csv:") and "no entries" in err


def test_domain_errors_exit_3(workspace, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise DomainError("no entries")

    monkeypatch.setattr(cli, "cmd_report", fail)
    assert main(["report", "any.csv"]) == 3
    assert capsys.readouterr().err == "error: no entries\n"


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["ingest", "--input", "bad.jsonl"], "bad.jsonl"),
        (["rank", "--input", "bad.csv"], "bad.csv"),
        (["evaluate", "ranking.csv", "--judgments", "bad.csv"], "bad.csv"),
        (["report", "bad.csv"], "bad.csv"),
    ],
)
def test_non_utf8_input_exits_2_naming_file(workspace, capsys, argv, bad):
    (workspace / "ranking.csv").write_text("rank,node,score,method\n1,alice,1,liquid\n")
    (workspace / bad).write_bytes(b"rater,ratee,timestamp\n\xff\xfe,b,1\n")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: not UTF-8 text")


@pytest.mark.parametrize(
    "name, text, argv",
    [
        ("p.jsonl", TWEETS + "\n", ["ingest", "--input", "p.jsonl"]),
        ("p.csv", "author,text,timestamp\nalice,hello @bob,5\n", ["ingest", "--input", "p.csv"]),
        ("i.csv", "rater,ratee,timestamp\na,b,1\nb,a,2\n", ["rank", "--input", "i.csv"]),
        ("j.csv", JUDGMENTS, ["evaluate", "r.csv", "--judgments", "j.csv"]),
        ("r.csv", "rank,node,score,method\n1,alice,2,liquid\n2,bob,1,liquid\n", ["report", "r.csv"]),
    ],
    ids=["posts_jsonl", "posts_csv", "interactions", "judgments", "ranking"],
)
def test_leading_utf8_bom_is_skipped(workspace, capsys, name, text, argv):
    # Spreadsheet "CSV UTF-8" exports start with the byte-order mark EF BB BF.
    (workspace / "r.csv").write_text("rank,node,score,method\n1,alice,2,liquid\n2,bob,1,liquid\n3,carol,0,liquid\n")
    artifacts = []
    for out, bom in [("plain", ""), ("bom", "\ufeff")]:
        (workspace / name).write_text(bom + text, encoding="utf-8")
        assert main([*argv, "--out-dir", out]) == 0
        assert capsys.readouterr().err == ""
        artifacts.append({path: data for path, data in tree(workspace / out).items() if path != cli.MANIFEST_NAME})
    assert artifacts[0] and artifacts[1] == artifacts[0]


# Nested past the interpreter's recursion limit, so json raises RecursionError.
DEEP_JSON = "[" * 200_000
# One more character than the csv module's default field size limit.
HUGE_FIELD = "x" * 131_073


@pytest.mark.parametrize("strict", [False, True])
def test_ingest_deeply_nested_line_is_malformed(workspace, capsys, strict):
    (workspace / "deep.jsonl").write_text(TWEETS.splitlines()[0] + "\n" + DEEP_JSON + "\n")
    code = main(["ingest", "--input", "deep.jsonl", *(["--strict"] if strict else [])])
    err = capsys.readouterr().err
    if strict:
        assert code == 2 and err.startswith("error: deep.jsonl:2: ")
    else:
        assert code == 0 and err.startswith("warning: deep.jsonl:2: skipped")
        assert (workspace / "out" / "interactions.csv").read_text() == "rater,ratee,timestamp\nalice,bob,100\n"


def test_deeply_nested_manifest_exits_2(workspace, capsys):
    (workspace / "out").mkdir()
    (workspace / "out" / "manifest.json").write_text(DEEP_JSON)
    assert main(["ingest", "--input", "tweets.jsonl"]) == 2
    assert capsys.readouterr().err == "error: out/manifest.json:1: invalid JSON (nested too deeply)\n"


@pytest.mark.parametrize(
    "argv, text",
    [
        (["rank", "--input", "big.csv"], f"rater,ratee,timestamp\na,b,1\na,{HUGE_FIELD},2\n"),
        (["rank", "--input", "big.csv"], f"rater,ratee,timestamp\na,b,1\na,c,{' ' * 131_072}2\n"),
        (["evaluate", "ranking.csv", "--judgments", "big.csv"], f"node,grade\na,2\n{HUGE_FIELD},1\n"),
        (["report", "big.csv"], f"rank,node,score,method\n1,a,1,m\n2,{HUGE_FIELD},0,m\n"),
        (["ingest", "--input", "big.csv", "--strict"], f'author,text,timestamp\na,x,1\nb,"{HUGE_FIELD}",2\n'),
    ],
    ids=["interactions", "interaction_timestamp", "judgments", "ranking", "posts"],
)
def test_oversized_csv_field_exits_2_naming_line(workspace, capsys, argv, text):
    (workspace / "ranking.csv").write_text("rank,node,score,method\n1,alice,1,liquid\n")
    (workspace / "big.csv").write_text(text)
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: big.csv:3: field larger than field limit (131072)\n"
    assert not (workspace / "out").exists()


def test_lenient_tweet_csv_skips_oversized_field(workspace, capsys):
    (workspace / "big.csv").write_text(f'author,text,timestamp\na,"{HUGE_FIELD} @c",1\nb,"hi @a",2\n')
    assert main(["ingest", "--input", "big.csv"]) == 0
    assert capsys.readouterr().err == "warning: big.csv:2: skipped (field larger than field limit (131072))\n"
    assert (workspace / "out" / "interactions.csv").read_text() == "rater,ratee,timestamp\nb,a,2\n"


@pytest.mark.parametrize(
    "scores, bars",
    [
        pytest.param(["1e308", "5e307", "-1e308"], [40, 20, 0], id="past_float_range_times_width"),
        pytest.param(["1e-300", "1e-310", "-1e300"], [40, 0, 0], id="huge_negative_under_tiny_max"),
    ],
)
def test_report_bars_span_0_to_full_width_for_any_finite_score(workspace, scores, bars):
    rows = "".join(f"{rank},n{rank},{score},m\n" for rank, score in enumerate(scores, 1))
    (workspace / "r.csv").write_text("rank,node,score,method\n" + rows)
    assert main(["report", "r.csv"]) == 0
    assert main(["report", "r.csv", "--format", "svg"]) == 0
    txt = (workspace / "out" / "chart_m.txt").read_text()
    svg = (workspace / "out" / "chart_m.svg").read_text()
    assert [line.count("#") for line in txt.splitlines()[1:]] == bars
    rects = ElementTree.fromstring(svg).iter("{http://www.w3.org/2000/svg}rect")
    assert [float(rect.get("width")) for rect in rects] == [10.0 * bar for bar in bars]
    assert "inf" not in txt + svg


def test_config_window_end_past_float_range_is_kept_exact(workspace):
    assert main(["ingest", "--input", "tweets.jsonl"]) == 0
    assert main(["rank", "--window-end", "1" + "0" * 400]) == 0
    reputation = json.loads((workspace / "out" / "reputation.json").read_text())
    assert reputation["window"] == {"start": 0, "end": 10**400}
    manifest = json.loads((workspace / "out" / "manifest.json").read_text())
    assert manifest["stages"]["rank"]["config"]["window_end"] == 10**400


def test_window_end_flag_keeps_the_rows_below_an_integer_past_float_precision(workspace):
    # 2**53 + 1 is the first integer a float cannot hold: read as a float,
    # the bound rounds down to 2**53 and drops the rows stamped 2**53.
    top = 2**53
    (workspace / "edges.csv").write_text(f"rater,ratee,timestamp\na,c,1\nc,a,2\nb,a,{top}\na,b,{top}\n")
    assert main(["rank", "--input", "edges.csv", "--window-end", str(top + 1)]) == 0
    assert sorted(read_ranking_csv(Path("out/ranking_mentions.csv")).nodes) == ["a", "b", "c"]
    assert json.loads((workspace / "out" / "reputation.json").read_text())["window"]["end"] == top + 1


@pytest.mark.parametrize(
    "argv, usage",
    [
        pytest.param(["ingest", "--input", "tweets.jsonl", "--k", "5"], "unrecognized arguments: --k 5", id="ingest"),
        pytest.param(["rank", "--input", "tweets.jsonl", "--k", "5"], "unrecognized arguments: --k 5", id="rank"),
        # rank computes every ranking; it takes no choice among them.
        pytest.param(["rank", "--method", "mentions"], "unrecognized arguments: --method mentions", id="rank_method"),
        # Settings come from flags alone.
        pytest.param(["rank", "--config", "c.json"], "unrecognized arguments: --config c.json", id="rank_config"),
        # --strict is off unless given: there is no setting for --no-strict to undo.
        pytest.param(
            ["ingest", "--input", "tweets.jsonl", "--no-strict"], "unrecognized arguments: --no-strict",
            id="ingest_no_strict",
        ),
        pytest.param(["ingest"], "the following arguments are required: --input", id="ingest_no_input"),
        # An empty --input, say from an unset variable, is no path: rank does
        # not fall back to <out-dir>/interactions.csv for it.
        pytest.param(["ingest", "--input", ""], "argument --input: invalid file_path value: ''", id="ingest_empty_input"),
        pytest.param(["rank", "--input", ""], "argument --input: invalid file_path value: ''", id="rank_empty_input"),
    ],
)
def test_k_is_a_usage_error_before_evaluate(workspace, capsys, argv, usage):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert usage in capsys.readouterr().err
    assert not (workspace / "out").exists()


@pytest.mark.parametrize("strict", [False, True])
def test_ingest_author_that_is_ascii_only_once_lowered_is_malformed(workspace, capsys, strict):
    # "\u212a" (KELVIN SIGN) lowers to "k": lowered, "\u212aelvin" is the handle "kelvin".
    (workspace / "k.jsonl").write_text('{"author": "\\u212aelvin", "text": "@bob", "timestamp": 1}\n' + TWEETS + "\n")
    code = main(["ingest", "--input", "k.jsonl", *(["--strict"] if strict else [])])
    err = capsys.readouterr().err
    fault = "author '\u212aelvin' is not a valid handle"
    if strict:
        assert (code, err) == (2, f"error: k.jsonl:1: {fault}\n")
    else:
        assert (code, err) == (0, f"warning: k.jsonl:1: skipped ({fault})\n")
        assert "kelvin" not in (workspace / "out" / "interactions.csv").read_text()


@pytest.mark.parametrize("content", ["{not json", "[]"])
def test_corrupt_manifest_exits_2_naming_it(workspace, capsys, content):
    assert main(["ingest", "--input", "tweets.jsonl"]) == 0
    (workspace / "out" / "manifest.json").write_text(content)
    assert main(["rank"]) == 2
    assert capsys.readouterr().err.startswith("error: out/manifest.json:1: ")


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_manifest_constant_json_lacks_exits_2_naming_its_line(workspace, capsys, constant):
    # Python's json reads these three beyond JSON; write_json would refuse them.
    out, before = _ranked_out_dir(workspace)
    (out / "manifest.json").write_text(f'{{"stages": {{}},\n "note": "NaN",\n "extra": {constant}}}\n')
    before["manifest.json"] = (out / "manifest.json").read_bytes()
    capsys.readouterr()
    assert main(["rank"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: out/manifest.json:3: invalid JSON ({constant} is not JSON)\n")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def tree(root: Path) -> dict[str, bytes | None]:
    """Every path under ``root``, with its bytes if it is a file."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


@pytest.mark.parametrize("section", ["stages", "outputs", "timings_ms", "peak_rss_mb"])
def test_manifest_section_that_is_not_an_object_exits_2(workspace, capsys, section):
    (workspace / "out").mkdir()
    (workspace / "out" / "manifest.json").write_text(json.dumps({section: []}))
    before = tree(workspace)
    assert main(["ingest", "--input", "tweets.jsonl"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: out/manifest.json:1: {section!r} must be a JSON object\n")
    assert tree(workspace) == before


def test_manifest_write_is_atomic(workspace, monkeypatch):
    assert main(["ingest", "--input", "tweets.jsonl"]) == 0
    assert main(["rank"]) == 0
    out = workspace / "out"
    before = (out / "manifest.json").read_bytes()
    names = {p.name for p in out.iterdir()}

    def dump_then_fail(obj, fh, **kwargs):
        fh.write('{"stages": ')
        raise OSError("disk full")

    # The report stage writes its chart, then fails half-way through writing
    # the manifest (every JSON file is written by ingest.write_json): the
    # stage replaces none of its files, so the chart is not there either.
    monkeypatch.setattr(ingest.json, "dump", dump_then_fail)
    assert main(["report", "out/ranking_liquid.csv"]) == 1
    assert (out / "manifest.json").read_bytes() == before
    assert {p.name for p in out.iterdir()} == names


def _ranked_out_dir(workspace):
    assert main(["ingest", "--input", "tweets.jsonl"]) == 0
    assert main(["rank"]) == 0
    out = workspace / "out"
    return out, {p.name: p.read_bytes() for p in out.iterdir()}


def test_failed_ranking_csv_write_keeps_previous_bytes(workspace, monkeypatch):
    out, before = _ranked_out_dir(workspace)
    real_write_atomic = rank.write_atomic

    @contextmanager
    def write_then_fail(path):
        with real_write_atomic(path) as fh:
            fh.write("rank,node,score,method\n1,")
            raise OSError("disk full")

    # ranking_mentions.csv is the first artifact rank writes; it fails at its
    # first row, which leaves every file as it was and no temporary file.
    monkeypatch.setattr(rank, "write_atomic", write_then_fail)
    assert main(["rank"]) == 1
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_failed_reputation_json_write_keeps_previous_bytes(workspace, monkeypatch, capsys):
    out, before = _ranked_out_dir(workspace)
    capsys.readouterr()
    written = []

    def write_then_fail(state, window, params, path):
        written.extend(sorted(p.name for p in out.glob(".*.tmp")))
        with ingest.write_atomic(path) as fh:
            fh.write('{"scores": ')
            raise OSError("disk full")

    # reputation.json is written after the three ranking CSVs, which this
    # alpha changes, and before the manifest: the stage fails with the new
    # CSVs written, and every file keeps its previous bytes.
    monkeypatch.setattr(cli, "write_reputation_json", write_then_fail)
    assert main(["rank", "--alpha", "0.9"]) == 1
    assert len(written) == 3
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert capsys.readouterr().out == ""


def test_cli_pipeline_equals_direct_library_calls(workspace):
    from liquidrank.graph import TimeWindow, build_graph
    from liquidrank.ingest import parse_tweets, read_interaction_columns, to_interactions
    from liquidrank.rank import (
        liquid_rank,
        mention_rank,
        product_rank,
        to_ranked_list,
        write_ranking_csv,
        write_reputation_json,
    )

    tweets = "\n".join(
        [
            '{"author": "alice", "text": "intro @bob @carol", "timestamp": 1}',
            '{"author": "bob", "text": "@alice thanks", "timestamp": 2}',
            '{"author": "carol", "text": "@alice again", "timestamp": 3}',
        ]
    )
    (workspace / "three.jsonl").write_text(tweets + "\n")
    assert main(["ingest", "--input", "three.jsonl"]) == 0
    assert main(["rank"]) == 0
    via_cli = read_ranking_csv(workspace / "out" / "ranking_mentions.csv")

    records = to_interactions(parse_tweets("three.jsonl", "jsonl").tweets)
    assert len(records) == 4
    via_library = mention_rank(build_graph(records))
    assert via_cli.entries == via_library.entries

    # Every artifact rank writes, byte for byte, from the library's own calls.
    graph = build_graph(read_interaction_columns(workspace / "out" / "interactions.csv"))
    params = RankParams()
    state = liquid_rank(graph, params)
    mentions, liquid = mention_rank(graph), to_ranked_list(state)
    library = workspace / "library"
    library.mkdir()
    for ranked in (mentions, liquid, product_rank(mentions, liquid)):
        write_ranking_csv(ranked, library / f"ranking_{ranked.method}.csv")
    write_reputation_json(state, TimeWindow(), params, library / "reputation.json")
    for name in ("ranking_mentions.csv", "ranking_liquid.csv", "ranking_product.csv", "reputation.json"):
        assert (workspace / "out" / name).read_bytes() == (library / name).read_bytes(), name


def test_pipeline_artifacts_are_deterministic(workspace):
    for out_dir in ("run1", "run2"):
        assert main(["ingest", "--input", "tweets.jsonl", "--out-dir", out_dir]) == 0
        assert main(["rank", "--out-dir", out_dir]) == 0
        assert (
            main(
                [
                    "evaluate",
                    f"{out_dir}/ranking_liquid.csv",
                    "--judgments",
                    "judgments.csv",
                    "--out-dir",
                    out_dir,
                ]
            )
            == 0
        )
        assert main(["report", f"{out_dir}/ranking_liquid.csv", "--out-dir", out_dir]) == 0
    names = [p.name for p in (workspace / "run1").iterdir() if p.name != "manifest.json"]
    assert sorted(names) == sorted(
        p.name for p in (workspace / "run2").iterdir() if p.name != "manifest.json"
    )
    for name in names:
        assert (workspace / "run1" / name).read_bytes() == (workspace / "run2" / name).read_bytes()


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_ingest_reproduces_golden_output(workspace, capsys, fmt, strict):
    name = f"posts.{fmt}"
    data = (INGEST_DATA / name).read_bytes()
    (workspace / name).write_bytes(data)
    golden = INGEST_DATA / f"golden_{fmt}"
    code = main(["ingest", "--input", name, *(["--strict"] if strict else [])])
    out, err = capsys.readouterr()
    if strict:
        assert (code, out, err) == (2, "", (golden / "strict.stderr").read_text(encoding="utf-8"))
        assert not (workspace / "out").exists()
        return
    assert code == 0
    assert out == (golden / "lenient.stdout").read_text(encoding="utf-8")
    assert err == (golden / "lenient.stderr").read_text(encoding="utf-8")
    for name in ("interactions.csv", "interactions.csv.cols"):
        assert (workspace / "out" / name).read_bytes() == (golden / name).read_bytes(), name
    stage = json.loads((workspace / "out" / "manifest.json").read_text())["stages"]["ingest"]
    assert stage["input_digest"] == "sha256:" + hashlib.sha256(data).hexdigest()


def test_ingest_memory_is_flat_in_the_input_size(workspace):
    # No mentions, so the output stays a header: what grows with the input
    # is only what the parser holds of it.
    line = json.dumps({"author": "alice", "text": "nothing to see here, " * 5, "timestamp": 1}) + "\n"
    peaks = []
    for lines in (15_000, 30_000):
        (workspace / f"{lines}.jsonl").write_text(line * lines, encoding="utf-8")
        tracemalloc.start()
        try:
            assert main(["ingest", "--input", f"{lines}.jsonl"]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0], peaks


def test_rank_holds_one_copy_of_its_columns(workspace):
    # 2x10^5 rows over 200 handles: the graph, at most 39,800 edges, is small
    # beside the columns, so the peak is what rank holds of them. The
    # sidecar's bytes are the columns; int64 copies of them beside those
    # bytes, as rank once made, would pass three times the sidecar's size.
    rng = random.Random(7)
    raters = array("i", (rng.randrange(200) for _ in range(200_000)))
    ratees = array("i", ((rater + rng.randrange(1, 200)) % 200 for rater in raters))
    handles = [f"h{i:03d}" for i in range(200)]
    ingest.write_interaction_columns(ingest.InteractionColumns(handles, raters, ratees, array("q", range(200_000))),
                                     "interactions.csv")
    assert main(["rank", "--input", "interactions.csv"]) == 0  # imports and first-call set-up, not traced
    tracemalloc.start()
    try:
        assert main(["rank", "--input", "interactions.csv"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * (workspace / "interactions.csv.cols").stat().st_size, peak


@pytest.mark.parametrize("sidecar", [True, False], ids=["sidecar", "csv"])
def test_manifest_records_each_stage_peak_rss_and_the_rank_inputs(workspace, sidecar):
    assert main(["ingest", "--input", "tweets.jsonl"]) == 0
    if not sidecar:
        (workspace / "out" / "interactions.csv.cols").unlink()
    assert main(["rank", "--window-start", "150", "--window-end", "350"]) == 0
    assert main(["evaluate", "out/ranking_liquid.csv", "--judgments", "judgments.csv"]) == 0
    assert main(["report", "out/ranking_liquid.csv"]) == 0
    manifest = json.loads((workspace / "out" / "manifest.json").read_text())
    # Each figure is this process's peak when its stage ended, in MB to 0.1.
    peaks = [manifest["peak_rss_mb"][stage] for stage in ("ingest", "rank", "evaluate", "report")]
    now = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    assert 0 < peaks[0] <= peaks[1] <= peaks[2] <= peaks[3] <= now
    assert all(peak == round(peak, 1) for peak in peaks)
    stage = manifest["stages"]["rank"]
    # Of the six rows, those at 200, 200 and 300 fall in [150, 350).
    assert (stage["columns"], stage["record_count"], stage["window_record_count"]) == (
        "sidecar" if sidecar else "csv", 6, 3
    )


@pytest.mark.skipif(sys.platform != "linux", reason="VmHWM and ru_maxrss's carry across exec are Linux's")
def test_manifest_peak_rss_is_the_commands_own_after_exec(workspace):
    # A parent that touched 200 MB execs ingest: its peak must not be the ingest's.
    src = str(Path(cli.__file__).parents[1])
    code = (
        "import os, sys; held = b'x' * (200 << 20); "
        "os.execv(sys.executable, [sys.executable, '-m', 'liquidrank.cli', 'ingest', '--input', 'tweets.jsonl'])"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, timeout=60)
    manifest = json.loads((workspace / "out" / "manifest.json").read_text())
    assert 0 < manifest["peak_rss_mb"]["ingest"] < 100


@pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["evaluate", "report"])
def test_non_finite_ranking_score_exits_2_naming_line(workspace, capsys, command, score):
    (workspace / "r.csv").write_text(f"rank,node,score,method\n1,alice,1,m\n2,bob,{score},m\n")
    argv = [command, "r.csv"] + (["--judgments", "judgments.csv"] if command == "evaluate" else [])
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: r.csv:3: score {score!r} is not a finite number\n"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit")
def test_overlong_json_integer_exits_2_naming_file(workspace, capsys):
    (workspace / "out").mkdir()
    (workspace / "out" / "manifest.json").write_text('{"k": 1' + "0" * 5000 + "}")
    assert main(["ingest", "--input", "tweets.jsonl"]) == 2
    assert capsys.readouterr().err.startswith("error: out/manifest.json: Exceeds the limit (4300 digits)")
