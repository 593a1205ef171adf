"""One failure path: a reader given a path names it in each format error, and
the CLI maps every failure onto its exit code through one row per code."""

from pathlib import Path

import pytest

from liquidrank import cli
from liquidrank.errors import DomainError, FormatError
from liquidrank.evaluation import read_judgments_csv
from liquidrank.ingest import read_interaction_columns, read_json_object, read_post_columns
from liquidrank.rank import read_ranking_csv

# Each reader, a text it rejects, and the line it names.
FAULTY = {
    "posts": (
        lambda source: read_post_columns(source, "jsonl", strict=True),
        '{"author": "a", "text": "@b", "timestamp": 1}\n{"author": "a"}\n',
        2,
    ),
    "interactions": (read_interaction_columns, "rater,ratee,timestamp\na,b,1\na,a,2\n", 3),
    "ranking": (read_ranking_csv, "rank,node,score,method\n1,a,x,m\n", 2),
    "judgments": (read_judgments_csv, "node,grade\na,7\n", 2),
}


def test_one_exit_code_row_per_failure_kind():
    assert cli._EXIT_CODES == {OSError: cli.EXIT_IO, ValueError: cli.EXIT_FORMAT, DomainError: cli.EXIT_DOMAIN}
    assert issubclass(FormatError, ValueError)


@pytest.mark.parametrize("name", sorted(FAULTY))
def test_reader_names_the_path_it_opens_once(tmp_path, name):
    read, text, line = FAULTY[name]
    path = tmp_path / f"{name}.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FormatError) as from_path:
        read(path)
    assert (from_path.value.source, from_path.value.line) == (str(path), line)
    message = str(from_path.value)
    assert message.startswith(f"{path}:{line}: ") and message.count(str(path)) == 1
    with pytest.raises(FormatError) as from_text:
        read(text)
    assert from_text.value.source is None
    assert str(from_text.value) == f"line {line}: {from_path.value.reason}"


@pytest.mark.parametrize("name", sorted(FAULTY))
def test_reader_names_the_path_it_cannot_decode(tmp_path, name):
    read, text, _ = FAULTY[name]
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
