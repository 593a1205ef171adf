"""One failure path: every reader opens a path, a str or a Path alike, and
names it in each format error, and the CLI maps every failure onto its exit
code through one row per code."""

from dataclasses import asdict
from pathlib import Path

import pytest

from liquidrank import cli
from liquidrank.errors import DomainError, FormatError
from liquidrank.evaluation import read_judgments_csv
from liquidrank.ingest import (
    parse_tweets,
    read_csv_rows,
    read_interaction_columns,
    read_interactions_csv,
    read_json_object,
    read_post_columns,
)
from liquidrank.rank import read_ranking_csv


def _post_columns(source):
    columns, posts, malformed = read_post_columns(source, "jsonl", strict=True)
    return [list(column) for column in columns], posts, malformed


def _csv_rows(source):
    with read_csv_rows(source, ["node", "grade"]) as rows:
        return list(rows)


POSTS = '{"author": "a", "text": "@b", "timestamp": 1}\n'
INTERACTIONS = "rater,ratee,timestamp\na,b,1\n"
# Each reader, as a function whose results compare with ==, a text it reads,
# a text it rejects and the line it names.
READERS = {
    "posts": (_post_columns, POSTS, POSTS + '{"author": "a"}\n', 2),
    "tweets": (parse_tweets, POSTS, POSTS + '{"author": "a"}\n', 2),
    "interactions": (
        lambda source: [list(column) for column in read_interaction_columns(source)],
        INTERACTIONS,
        INTERACTIONS + "a,a,2\n",
        3,
    ),
    "interaction-records": (read_interactions_csv, INTERACTIONS, INTERACTIONS + "a,b,-1\n", 3),
    "csv-rows": (_csv_rows, "node,grade\na,7\n", "node,grade\na\n", 2),
    "json": (read_json_object, '{"k": 5}\n', "{}\n[]\n", 2),
    "ranking": (
        lambda source: asdict(read_ranking_csv(source)),
        "rank,node,score,method\n1,a,2,m\n",
        "rank,node,score,method\n1,a,x,m\n",
        2,
    ),
    "judgments": (lambda source: asdict(read_judgments_csv(source)), "node,grade\na,2\n", "node,grade\na,7\n", 2),
}


def test_one_exit_code_row_per_failure_kind():
    assert cli._EXIT_CODES == {OSError: 1, ValueError: 2, DomainError: 3}
    assert issubclass(FormatError, ValueError)


@pytest.mark.parametrize("name", sorted(READERS))
def test_reader_reads_a_str_path_as_its_path(tmp_path, name):
    read, text, _, _ = READERS[name]
    path = tmp_path / f"{name}.txt"
    path.write_text(text, encoding="utf-8")
    assert read(str(path)) == read(path)


def test_reader_takes_no_file_descriptor():
    # open() would read the descriptor and close it on the way out.
    with pytest.raises(TypeError):
        read_json_object(0)


@pytest.mark.parametrize("name", sorted(READERS))
def test_reader_names_the_path_it_opens_once(tmp_path, name):
    read, _, text, line = READERS[name]
    path = tmp_path / f"{name}.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FormatError) as from_path:
        read(path)
    assert (from_path.value.source, from_path.value.line) == (str(path), line)
    message = str(from_path.value)
    assert message.startswith(f"{path}:{line}: ") and message.count(str(path)) == 1
    with pytest.raises(FormatError) as from_str:
        read(str(path))
    assert from_str.value.source == str(path)
    assert str(from_str.value) == message


@pytest.mark.parametrize("name", sorted(READERS))
def test_reader_names_the_path_it_cannot_decode(tmp_path, name):
    read, _, text, _ = READERS[name]
    path = tmp_path / f"{name}.txt"
    path.write_bytes(text.encode() + b"\xff\n")
    with pytest.raises(ValueError) as exc_info:
        read(path)
    assert str(exc_info.value) == f"{path}: not UTF-8 text (invalid start byte)"


@pytest.mark.parametrize(
    "content, line, reason",
    [
        (b"[]", 1, "expected a JSON object"),
        (b'{"a": 1,\n"b" 2}', 2, "invalid JSON (Expecting ':' delimiter)"),
        (b'{"a": 1,\r"b" 2}', 2, "invalid JSON (Expecting ':' delimiter)"),
        (b"[" * 100_000, 1, "invalid JSON (nested too deeply)"),
    ],
    ids=["array", "broken", "lone-cr", "too-deep"],
)
def test_json_object_reader_names_the_file_and_line(tmp_path, content, line, reason):
    path = tmp_path / "manifest.json"
    path.write_bytes(content)
    with pytest.raises(FormatError) as exc_info:
        read_json_object(path)
    assert (exc_info.value.source, exc_info.value.line, exc_info.value.reason) == (str(path), line, reason)


def test_json_object_reader_returns_the_object(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text('{"k": 5, "norm": "max"}\n', encoding="utf-8")
    assert read_json_object(Path(path)) == {"k": 5, "norm": "max"}
