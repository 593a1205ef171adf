import json
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import brute_force_average_precision

from liquidrank.errors import DomainError, FormatError
from liquidrank.evaluation import (
    JudgmentSet,
    average_precision,
    evaluate,
    precision_at_k,
    read_judgments_csv,
    reciprocal_rank,
    write_report_json,
)
from liquidrank.rank import RankedList, read_ranking_csv


def ranking_from_flags(flags, method="test"):
    """Ranking x01..x0n with grades arranged so entry i is relevant iff flags[i]."""
    nodes = [f"x{i:03d}" for i in range(len(flags))]
    scores = [float(len(flags) - i) for i in range(len(flags))]
    grades = {f"x{i:03d}": (2 if flag else 0) for i, flag in enumerate(flags)}
    return RankedList(method, nodes, scores), JudgmentSet(grades=grades)


# --- judgment sets --------------------------------------------------------


def test_judgment_set_relevance_rules():
    judgments = JudgmentSet(grades={"a": 2, "b": 1, "c": 0})
    assert judgments.is_relevant("a")
    assert not judgments.is_relevant("b")
    assert not judgments.is_relevant("c")
    assert not judgments.is_relevant("unjudged")
    assert judgments.relevant_total() == 1


def test_judgment_set_rejects_out_of_scale_grades():
    with pytest.raises(ValueError):
        JudgmentSet(grades={"a": 3})
    with pytest.raises(ValueError):
        JudgmentSet(grades={"a": -1})


# --- precision@k ----------------------------------------------------------


def test_precision_at_k_basic():
    ranked, judgments = ranking_from_flags([True, False, True, False])
    assert precision_at_k(ranked, judgments, 1) == 1.0
    assert precision_at_k(ranked, judgments, 2) == 0.5
    assert precision_at_k(ranked, judgments, 4) == 0.5


def test_precision_at_k_clamps_to_list_length():
    ranked, judgments = ranking_from_flags([True, True])
    assert precision_at_k(ranked, judgments, 50) == 1.0


def test_precision_at_k_rejects_bad_k_and_empty_ranking():
    ranked, judgments = ranking_from_flags([True])
    with pytest.raises(ValueError):
        precision_at_k(ranked, judgments, 0)
    empty = RankedList(method="m")
    with pytest.raises(DomainError, match="ranking 'm' has no entries"):
        precision_at_k(empty, judgments, 5)


# --- average precision ----------------------------------------------------


def test_average_precision_known_pattern():
    ranked, judgments = ranking_from_flags([True, False, True, True])
    expected = (1 / 1 + 2 / 3 + 3 / 4) / 3
    assert average_precision(ranked, judgments, 4) == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(29 / 36, abs=1e-15)


def test_average_precision_nothing_relevant_is_zero():
    ranked, judgments = ranking_from_flags([False, False, False])
    assert average_precision(ranked, judgments, 3) == 0.0


def test_average_precision_counts_only_inside_cutoff():
    # relevant entry at rank 4 is invisible at k=3
    ranked, judgments = ranking_from_flags([True, False, False, True])
    assert average_precision(ranked, judgments, 3) == 1.0
    assert average_precision(ranked, judgments, 4) == pytest.approx((1 + 2 / 4) / 2)


def test_average_precision_perfect_prefix_is_one():
    ranked, judgments = ranking_from_flags([True, True, True, False, False])
    assert average_precision(ranked, judgments, 5) == 1.0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(flags=st.lists(st.booleans(), min_size=1, max_size=12))
def test_average_precision_matches_brute_force(flags):
    ranked, judgments = ranking_from_flags(flags)
    assert average_precision(ranked, judgments, len(flags)) == brute_force_average_precision(flags)


# --- reciprocal rank ------------------------------------------------------


def test_reciprocal_rank_first_hit_position():
    ranked, judgments = ranking_from_flags([False, False, True, True])
    assert reciprocal_rank(ranked, judgments) == 1 / 3


def test_reciprocal_rank_scans_past_any_cutoff():
    flags = [False] * 60 + [True]
    ranked, judgments = ranking_from_flags(flags)
    assert reciprocal_rank(ranked, judgments) == 1 / 61


def test_reciprocal_rank_no_relevant_is_zero():
    ranked, judgments = ranking_from_flags([False, False])
    assert reciprocal_rank(ranked, judgments) == 0.0


# --- evaluate bundle ------------------------------------------------------


def test_evaluate_builds_full_report():
    ranked, judgments = ranking_from_flags([True, False, True, False, True], method="liquid")
    report = evaluate(ranked, judgments, 3)
    assert report.method == "liquid"
    assert report.k == 3
    assert report.precision == pytest.approx(2 / 3)
    assert report.average_precision == pytest.approx((1 + 2 / 3) / 2)
    assert report.reciprocal_rank == 1.0
    assert report.relevant_found == 2
    assert report.relevant_total == 3


def test_evaluate_relevant_total_covers_unranked_nodes():
    ranked, _ = ranking_from_flags([True], method="m")
    judgments = JudgmentSet(grades={"x000": 2, "offlist": 2, "alsooff": 2})
    report = evaluate(ranked, judgments, 5)
    assert report.relevant_found == 1
    assert report.relevant_total == 3


def test_evaluate_takes_a_cutoff_past_any_ranking_length():
    # islice takes no stop above sys.maxsize; the report keeps the k asked for.
    ranked, judgments = ranking_from_flags([True, False, True, False, True])
    huge = evaluate(ranked, judgments, 10**30)
    assert asdict(huge) == {**asdict(evaluate(ranked, judgments, len(ranked.nodes))), "k": 10**30}


# --- serialization --------------------------------------------------------


def test_judgments_csv_roundtrip(tmp_path):
    judgments = JudgmentSet(grades={"alice": 2, "bob": 0, "carol": 1})
    path = tmp_path / "judgments.csv"
    path.write_text("node,grade\n" + "".join(f"{n},{g}\n" for n, g in judgments.grades.items()), encoding="utf-8")
    assert read_judgments_csv(path).grades == judgments.grades
    assert read_judgments_csv(str(path)).relevant_total() == 1


@pytest.mark.parametrize(
    "read, text",
    [
        (read_judgments_csv, "node,grade\nalice,2\nbob,0\n"),
        (read_ranking_csv, "rank,node,score,method\n1,alice,0.75,m\n2,bob,0.25,m\n"),
    ],
)
def test_readers_take_text_or_path_alike(tmp_path, read, text):
    # A str is a path, read as its Path is.
    path = tmp_path / "in.csv"
    path.write_text(text, encoding="utf-8")
    assert asdict(read(str(path))) == asdict(read(path))


def test_read_judgments_csv_empty_file(text_file):
    assert read_judgments_csv(text_file("")).grades == {}


@pytest.mark.parametrize(
    "text,line,reason_part",
    [
        ("who,grade\n", 1, "expected header"),
        ("node,grade\na,5\n", 2, "grade must be 0-2"),
        ("node,grade\na,x\n", 2, "not an integer"),
        ("node,grade\na,1\na,2\n", 3, "duplicate"),
        ("node,grade\na\n", 2, "2 columns"),
    ],
)
def test_read_judgments_csv_rejects_malformed(text_file, text, line, reason_part):
    with pytest.raises(FormatError) as exc_info:
        read_judgments_csv(text_file(text))
    assert exc_info.value.line == line
    assert reason_part in exc_info.value.reason


def test_report_json_shape(tmp_path):
    ranked, judgments = ranking_from_flags([True, False], method="mentions")
    report = evaluate(ranked, judgments, 2)
    path = tmp_path / "report.json"
    write_report_json(report, path)
    data = json.loads(path.read_text())
    assert data == asdict(report)
    assert set(data) == {
        "method",
        "k",
        "precision",
        "average_precision",
        "reciprocal_rank",
        "relevant_found",
        "relevant_total",
    }
    assert path.read_text().endswith("\n")
