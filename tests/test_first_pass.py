"""The first pass of read_ranking_csv and read_judgments_csv against frozen
copies of the row loops they had before it: on any text, at any chunk size,
each gives the same result or the same error."""

import csv
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liquidrank import evaluation, ingest, rank
from liquidrank.errors import FormatError
from liquidrank.evaluation import JudgmentSet, read_judgments_csv
from liquidrank.ingest import read_csv_rows
from liquidrank.rank import RankedList, read_ranking_csv


def reference_ranking(source):
    """read_ranking_csv as it was before its first pass: every check on every row."""
    nodes, scores, seen, method = [], [], set(), ""
    with read_csv_rows(source, rank.RANKING_CSV_HEADER) as rows:
        if rows is None:
            raise FormatError(1, "missing ranking CSV header")
        for line_no, row in rows:
            raw_rank, node, raw_score, row_method = row
            try:
                number = int(raw_rank)
                score = float(raw_score)
            except ValueError:
                raise FormatError(line_no, f"bad rank/score in row: {row!r}") from None
            if not math.isfinite(score):
                raise FormatError(line_no, f"score {raw_score!r} is not a finite number")
            if number != len(nodes) + 1:
                raise FormatError(line_no, f"ranks must be consecutive from 1; got {number}")
            if nodes and row_method != method:
                raise FormatError(line_no, f"mixed methods {method!r} and {row_method!r}")
            if node in seen:
                raise FormatError(line_no, f"duplicate entry for node {node!r}")
            seen.add(node)
            method = row_method
            nodes.append(node)
            scores.append(score)
    return RankedList(method, nodes, scores)


def reference_judgments(source):
    """read_judgments_csv as it was before its first pass: every check on every row."""
    grades = {}
    with read_csv_rows(source, evaluation.JUDGMENT_CSV_HEADER) as rows:
        for line_no, (node, raw_grade) in rows or ():
            if node in grades:
                raise FormatError(line_no, f"duplicate judgment for node {node!r}")
            try:
                grade = int(raw_grade)
            except ValueError:
                raise FormatError(line_no, f"grade {raw_grade!r} is not an integer") from None
            if grade not in evaluation.VALID_GRADES:
                raise FormatError(line_no, f"grade must be 0-2, got {grade}")
            grades[node] = grade
    return JudgmentSet(grades=grades)


def outcome(read, source):
    """What ``read`` gives: the result as plain lists, scores exact, or the error's type and message."""
    try:
        result = read(source)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, RankedList):
        return type(result.nodes), type(result.scores), result.method, result.nodes, [s.hex() for s in result.scores]
    return list(result.grades.items())


HUGE_FIELD = "x" * (csv.field_size_limit() + 1)
# Fields the csv module must read, or that split into another field count;
# "{}" stands for the row's number k.
ODD_FIELDS = ['"{}"', '"a,b"', '"a\nb"', 'a"b', "a,b", "a\rb", HUGE_FIELD]
NODES = ["n1", "n2", "n3", "n{}0", "a", "Q", "é", " a", "a b", "", *ODD_FIELDS]
RANKS = ["0", " {}", "+{}", "{} ", "{}_0", "1_0", "{}.0", "x", "", "١", "-{}", *ODD_FIELDS]
SCORES = ["0.5", "-1", "1e-300", "1e308", "1e400", "nan", "inf", "-inf", " 2", "1_0.5", "0x1", "", "NaN", *ODD_FIELDS]
PLAIN_METHODS = ["liquid", "mentions", "", "a b"]
METHODS = [*PLAIN_METHODS, *ODD_FIELDS]
GRADES = ["0", "1", "2", "3", "-1", " 2", "+1", "2 ", "0_1", "1.0", "", "x", "١", "2" * 30, *ODD_FIELDS]


def csv_text(draw, header, good, odd):
    """CSV text of ``good(k)`` rows, k = 1, 2, ..., with a drawn share of
    awkward ones: one field replaced by one of ``odd`` for its column, or a
    blank, short or long line. Lines end in "\\n", "\\r\\n" or a lone "\\r";
    at times the text starts with a byte-order mark, has a wrong header or
    none, or has no final newline. Choices come from a Random seeded by a
    draw, which picks evenly where hypothesis favours the ends of a range."""
    rnd = random.Random(draw(st.integers(0, 2**32)))
    percent = rnd.choice([0, 3, 5, 10, 30, 60])
    endings = ["\n", "\n", "\r\n", "\r"] if rnd.random() < 0.25 else ["\n"]
    lines = [header.rpartition(",")[0] if rnd.random() < 0.1 else header]
    for k in range(1, rnd.randint(0, 20) + 1):
        fields = good(k)
        if rnd.randrange(100) < percent:
            column = rnd.randrange(len(fields) + 1)
            if column == len(fields):
                fields = rnd.choice([[""], fields[:-1], [*fields, "x"]])
            else:
                fields[column] = rnd.choice(odd[column]).format(k)
        lines.append(",".join(fields))
    text = "".join(line + rnd.choice(endings) for line in lines)
    text = text.rstrip("\r\n") if rnd.random() < 0.5 else text
    text = "\ufeff" + text if rnd.random() < 0.2 else text
    return "" if rnd.random() < 0.05 else text


@st.composite
def ranking_texts(draw):
    """Ranking CSV text: ranks 1..N, distinct nodes and one method, with
    awkward ranks, nodes, scores and methods drawn in."""
    method = draw(st.sampled_from(PLAIN_METHODS))
    odd = [[*RANKS, "{}", "1"], NODES, SCORES, [*METHODS, method]]
    return csv_text(draw, "rank,node,score,method", lambda k: [str(k), f"n{k}", repr(1 / k), method], odd)


@st.composite
def judgment_texts(draw):
    """Judgment CSV text: distinct nodes graded 0-2, with awkward nodes and
    grades drawn in."""
    return csv_text(draw, "node,grade", lambda k: [f"n{k}", str(k % 3)], [NODES, GRADES])


# Each reader: its header, the reader, its frozen row loop, a strategy for
# its texts, and row k of a file as the pipeline writes it.
READERS = {
    "ranking": ("rank,node,score,method\n", read_ranking_csv, reference_ranking, ranking_texts(),
                lambda k: f"{k},n{k:06d},{1 / k!r},liquid\n"),
    "judgments": ("node,grade\n", read_judgments_csv, reference_judgments, judgment_texts(),
                  lambda k: f"n{k:06d},{k % 3}\n"),
}


@pytest.mark.parametrize("kind", READERS)
def test_first_pass_matches_the_row_loop(text_file, kind):
    _, read, reference, texts, _ = READERS[kind]

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(text=texts, chunk=st.integers(1, 80))
    def check(text, chunk):
        path = text_file(text, ".csv")
        expected = outcome(reference, path)
        # A chunk of a few characters puts chunk boundaries inside every case.
        with mock.patch.object(ingest, "_CHUNK_CHARS", chunk):
            for source in (path, str(path)):
                assert outcome(read, source) == expected

    check()


# Texts that pass every check of a first pass but one, by the check they fail.
ONE_FAULT = {
    "ranking": {
        "repeated_node": "1,a,0.5,m\n2,a,0.25,m\n",
        "two_methods": "1,a,0.5,m\n2,b,0.25,x\n",
        "nan_score": "1,a,0.5,m\n2,b,nan,m\n",
        "rank_gap": "1,a,0.5,m\n3,b,0.25,m\n",
        "oversized_field": f"1,a,0.5,m\n2,{HUGE_FIELD},0.25,m\n",
        "quoted_node": '1,"a",0.5,m\n2,b,0.25,m\n',
        "crlf_endings": "1,a,0.5,m\r\n2,b,0.25,m\r\n",
        "none_without_final_newline": "1,a,0.5,m\n2,b,0.25,m",
    },
    "judgments": {
        "repeated_node": "a,1\nb,2\na,0\n",
        "grade_3": "a,1\nb,3\n",
        "short_then_long_line": "a,1\n5\n1,b,2\n",  # the field count of the two lines holds
        "oversized_field": f"a,1\n{HUGE_FIELD},2\n",
        "quoted_node": '"a",1\nb,2\n',
        "none_without_final_newline": "a,1\nb,2",
    },
}


@pytest.mark.parametrize(
    "kind, text", [pytest.param(kind, text, id=f"{kind}-{name}") for kind, texts in ONE_FAULT.items()
                   for name, text in texts.items()]
)
def test_first_pass_with_one_fault_at_every_chunk_size(text_file, kind, text):
    header, read, reference, _, _ = READERS[kind]
    path = text_file(header + text, ".csv")
    expected = outcome(reference, path)
    for chunk in range(1, min(len(text), 40) + 2):
        with mock.patch.object(ingest, "_CHUNK_CHARS", chunk):
            assert outcome(read, path) == expected, chunk


@pytest.mark.parametrize("bad_at", [None, 1, 4_321, 20_000])
@pytest.mark.parametrize("kind, bad", [("ranking", "7,n7,0.5,liquid\n"), ("judgments", "n000001,1\n")])
def test_first_pass_at_its_own_chunk_size(text_file, kind, bad, bad_at):
    # 20,000 rows, as the graph benchmark's, and a faulty one at either end or in between.
    header, read, reference, _, row = READERS[kind]
    path = text_file(header + "".join(bad if k == bad_at else row(k) for k in range(1, 20_001)), ".csv")
    assert outcome(read, path) == outcome(reference, path)


@pytest.mark.parametrize(
    "kind, rows",
    [("ranking", 20_000), ("judgments", 20_000), ("judgments", 0)],
    ids=["ranking", "judgments", "no_judgments"],
)
def test_file_as_written_is_read_in_the_first_pass_alone(text_file, kind, rows):
    header, read, _, _, row = READERS[kind]
    path = text_file(header + "".join(map(row, range(1, rows + 1))), ".csv")
    expected = outcome(read, path)
    second_pass = AssertionError("the first pass was dropped")
    with mock.patch.object(rank, "read_csv_rows", side_effect=second_pass), \
            mock.patch.object(evaluation, "read_csv_rows", side_effect=second_pass):
        assert outcome(read, path) == expected
