import json
from pathlib import Path

import pytest

from liquidrank.errors import FormatError
from liquidrank.ingest import (
    InteractionRecord,
    MalformedLine,
    TweetRecord,
    extract_mentions,
    parse_tweets,
    read_interaction_columns,
    read_interactions_csv,
    read_post_columns,
    to_interactions,
    valid_handle,
    write_interaction_columns,
    write_interactions_csv,
)

INGEST_DATA = Path(__file__).parent / "data" / "ingest"


def test_extract_mentions_basic_order_and_case():
    assert extract_mentions("hi @Alice, meet @bob") == ["alice", "bob"]


def test_extract_mentions_preserves_duplicates():
    assert extract_mentions("@bob @bob @bob") == ["bob", "bob", "bob"]


def test_extract_mentions_truncates_long_runs_at_fifteen():
    # sixteen word characters after the @: only the first fifteen count
    assert extract_mentions("@abcdefghijklmnopq") == ["abcdefghijklmno"]


@pytest.mark.parametrize(
    "text",
    [
        "mail me at alice@example.com",
        "foo@bar",
        "no mentions here",
        "@@doubled",
        "@",
        "@ spaced",
    ],
)
def test_extract_mentions_rejects_non_mentions(text):
    assert extract_mentions(text) == []


@pytest.mark.parametrize(
    "text,expected",
    [
        ("@alice", ["alice"]),
        ("(@alice)", ["alice"]),
        ("cc:@alice!", ["alice"]),
        ("@user_42 rocks", ["user_42"]),
        ("nested@alice", []),
        ("1@alice", []),
    ],
)
def test_extract_mentions_boundary_rules(text, expected):
    assert extract_mentions(text) == expected


def test_valid_handle():
    assert valid_handle("alice")
    assert valid_handle("a_1")
    assert valid_handle("x" * 15)
    assert not valid_handle("")
    assert not valid_handle("Alice")
    assert not valid_handle("x" * 16)
    assert not valid_handle("has space")
    assert not valid_handle("dash-ed")


def _jsonl(*objs):
    return "\n".join(json.dumps(o) for o in objs) + "\n"


def test_parse_jsonl_happy_path(text_file):
    text = _jsonl(
        {"author": "alice", "text": "hi @bob", "timestamp": 10},
        {"author": "Bob", "text": "yo", "timestamp": 20, "extra": "ignored"},
    )
    result = parse_tweets(text_file(text), "jsonl")
    assert result.tweets == [
        TweetRecord("alice", "hi @bob", 10),
        TweetRecord("bob", "yo", 20),
    ]
    assert result.malformed == []


def test_parse_jsonl_skips_blank_lines(text_file):
    text = '\n{"author": "a", "text": "", "timestamp": 0}\n\n \t \r\n\t\r'
    result = parse_tweets(text_file(text), "jsonl")
    assert len(result.tweets) == 1


@pytest.mark.parametrize("space", ["\u3000", "\u00a0", "\u2028", "\u0085", "\f", "\v", "\x1c", " \f\t"])
def test_parse_jsonl_line_of_other_whitespace_is_malformed(text_file, space):
    # Only spaces and tabs are JSON whitespace; str.isspace() holds for all of these.
    path = text_file(f'{{"author": "a", "text": "", "timestamp": 0}}\n{space}\n')
    result = parse_tweets(path, "jsonl", strict=False)
    assert (len(result.tweets), [m.line for m in result.malformed]) == (1, [2])
    assert result.malformed[0].reason.startswith("Expecting value")
    with pytest.raises(FormatError) as exc_info:
        parse_tweets(path, "jsonl")
    assert exc_info.value.line == 2


@pytest.mark.parametrize(
    "line,reason_part",
    [
        ("not json", "Expecting value"),
        ('["a", "b"]', "not a JSON object"),
        ('{"author": "a", "text": "t"}', "missing field(s): timestamp"),
        ('{"text": "t", "timestamp": 1}', "missing field(s): author"),
        ('{"author": "", "text": "t", "timestamp": 1}', "author"),
        ('{"author": "bad handle", "text": "t", "timestamp": 1}', "not a valid handle"),
        ('{"author": "a", "text": 5, "timestamp": 1}', "text must be a string"),
        ('{"author": "a", "text": "t", "timestamp": "1"}', "timestamp must be an integer"),
        ('{"author": "a", "text": "t", "timestamp": true}', "timestamp must be an integer"),
        ('{"author": "a", "text": "t", "timestamp": -3}', "timestamp must be >= 0"),
    ],
)
def test_parse_jsonl_strict_raises_with_line_number(text_file, line, reason_part):
    good = '{"author": "ok", "text": "fine", "timestamp": 1}'
    with pytest.raises(FormatError) as exc_info:
        parse_tweets(text_file(good + "\n" + line), "jsonl")
    assert exc_info.value.line == 2
    assert reason_part in exc_info.value.reason


def test_parse_jsonl_lenient_tallies_and_continues(text_file):
    text = "\n".join(
        [
            '{"author": "a", "text": "one", "timestamp": 1}',
            "garbage",
            '{"author": "b", "text": "two", "timestamp": 2}',
            '{"author": "c"}',
        ]
    )
    result = parse_tweets(text_file(text), "jsonl", strict=False)
    assert [t.text for t in result.tweets] == ["one", "two"]
    assert [m.line for m in result.malformed] == [2, 4]
    assert all(m.reason for m in result.malformed)


def test_parse_checks_an_author_on_every_line_until_it_passes(text_file):
    text = "\n".join(
        json.dumps({"author": author, "text": "@x", "timestamp": 1})
        for author in ["Bad One", "Bad One", "Alice", "alice", "ALICE", 7]
    )
    result = parse_tweets(text_file(text), "jsonl", strict=False)
    assert [t.author for t in result.tweets] == ["alice", "alice", "alice"]
    assert [(m.line, m.reason) for m in result.malformed] == [
        (1, "author 'Bad One' is not a valid handle"),
        (2, "author 'Bad One' is not a valid handle"),
        (6, "author must be a non-empty string"),
    ]


def test_parse_csv_happy_path(text_file):
    text = 'author,text,timestamp\nalice,"hi @bob, @carol",5\nbob,plain,6\n'
    result = parse_tweets(text_file(text), "csv")
    assert result.tweets == [
        TweetRecord("alice", "hi @bob, @carol", 5),
        TweetRecord("bob", "plain", 6),
    ]


def test_parse_csv_empty_file_is_zero_tweets(text_file):
    result = parse_tweets(text_file(""), "csv")
    assert result.tweets == []
    assert result.malformed == []


def test_parse_csv_header_mismatch_raises_even_lenient(text_file):
    with pytest.raises(FormatError) as exc_info:
        parse_tweets(text_file("rater,ratee,timestamp\n"), "csv", strict=False)
    assert exc_info.value.line == 1


def test_parse_csv_bad_row_strict_vs_lenient(text_file):
    path = text_file("author,text,timestamp\nalice,hi,notanumber\nbob,ok,7\n")
    with pytest.raises(FormatError) as exc_info:
        parse_tweets(path, "csv")
    assert exc_info.value.line == 2
    result = parse_tweets(path, "csv", strict=False)
    assert [t.author for t in result.tweets] == ["bob"]
    assert [m.line for m in result.malformed] == [2]


def test_parse_csv_wrong_column_count(text_file):
    with pytest.raises(FormatError) as exc_info:
        parse_tweets(text_file("author,text,timestamp\nalice,hi\n"), "csv")
    assert "expected 3 columns, got 2" in exc_info.value.reason


def test_parse_unknown_format():
    with pytest.raises(ValueError):
        parse_tweets("", "xml")


def test_tweets_csv_roundtrip_with_awkward_text(tmp_path):
    tweets = [
        TweetRecord("alice", 'she said "hi" to @bob, twice', 1),
        TweetRecord("bob", "line one\nline two @alice", 2),
        TweetRecord("carol", "", 3),
    ]
    path = tmp_path / "tweets.csv"
    path.write_text(
        'author,text,timestamp\nalice,"she said ""hi"" to @bob, twice",1\nbob,"line one\nline two @alice",2\ncarol,,3\n',
        encoding="utf-8",
    )
    result = parse_tweets(path, "csv")
    assert result.tweets == tweets
    columns, posts, _ = read_post_columns(path, "csv")
    assert posts == 3
    assert [columns.handles[i] for i in columns.ratees] == ["bob", "alice"]


def test_tweets_jsonl_roundtrip(tmp_path):
    tweets = [TweetRecord("alice", "hi @bob ☃", 1)]
    path = tmp_path / "tweets.jsonl"
    path.write_text("".join(json.dumps(vars(t)) + "\n" for t in tweets), encoding="utf-8")
    assert parse_tweets(path, "jsonl").tweets == tweets


def test_to_interactions_expands_per_occurrence():
    tweets = [
        TweetRecord("alice", "@bob @carol @bob", 7),
        TweetRecord("bob", "@alice", 9),
    ]
    assert to_interactions(tweets) == [
        InteractionRecord("alice", "bob", 7),
        InteractionRecord("alice", "carol", 7),
        InteractionRecord("alice", "bob", 7),
        InteractionRecord("bob", "alice", 9),
    ]


def test_to_interactions_drops_self_mentions():
    tweets = [TweetRecord("alice", "note to @alice and @bob", 1)]
    assert to_interactions(tweets) == [InteractionRecord("alice", "bob", 1)]


def test_to_interactions_no_mentions_yields_nothing():
    assert to_interactions([TweetRecord("alice", "quiet day", 1)]) == []


def test_interactions_csv_roundtrip(tmp_path):
    records = [
        InteractionRecord("alice", "bob", 5),
        InteractionRecord("alice", "bob", 5),
        InteractionRecord("carol", "alice", 9),
    ]
    path = tmp_path / "interactions.csv"
    write_interactions_csv(records, path)
    assert read_interactions_csv(path) == records


def test_interactions_csv_is_byte_stable(tmp_path):
    records = [InteractionRecord("a", "b", 1)]
    first = tmp_path / "one.csv"
    second = tmp_path / "two.csv"
    write_interactions_csv(records, first)
    write_interactions_csv(records, second)
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes() == b"rater,ratee,timestamp\na,b,1\n"


@pytest.mark.parametrize(
    "row,reason_part",
    [
        ("alice,alice,3", "must differ"),
        ("Alice,bob,3", "not a valid handle"),
        ("alice,bob,x", "not an integer"),
        ("alice,bob,-1", ">= 0"),
        ("alice,bob", "3 columns"),
    ],
)
def test_read_interactions_csv_rejects_bad_rows(text_file, row, reason_part):
    with pytest.raises(FormatError) as exc_info:
        read_interactions_csv(text_file(f"rater,ratee,timestamp\n{row}\n"))
    assert exc_info.value.line == 2
    assert reason_part in exc_info.value.reason


def test_read_interactions_csv_fails_at_first_bad_handle(text_file):
    text = "rater,ratee,timestamp\nalice,bob,1\nalice,Bad,2\ncarol,bob,3\nBad,alice,4\n"
    with pytest.raises(FormatError) as exc_info:
        read_interactions_csv(text_file(text))
    assert exc_info.value.line == 3
    assert exc_info.value.reason == "ratee 'Bad' is not a valid handle"


def test_read_interactions_csv_header_check(text_file):
    with pytest.raises(FormatError):
        read_interactions_csv(text_file("a,b,c\n"))
    assert read_interactions_csv(text_file("")) == []


# Raw U+2028, U+2029 and U+0085 are valid inside a JSON string, and
# json.dumps(..., ensure_ascii=False) writes them raw. A raw form feed is not,
# so its line is malformed, but it must not split the line in two.
SEPARATOR_POSTS = [
    json.dumps({"author": "a", "text": "one\u2028two @b", "timestamp": 1}, ensure_ascii=False),
    json.dumps({"author": "b", "text": "\u2029 @a \x85", "timestamp": 2}, ensure_ascii=False),
    '{"author": "c", "text": "form\x0cfeed @a", "timestamp": 3}',
    "not json",
    json.dumps({"author": "c", "text": "@a\x1c", "timestamp": 5}),
]


def _source(kind, text, tmp_path):
    """A file holding ``text``, named by a Path or by a str."""
    path = tmp_path / "posts.jsonl"
    path.write_bytes(text.encode("utf-8"))
    return path if kind == "path" else str(path)


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("kind", ["str", "path"])
def test_jsonl_lines_end_only_at_universal_newlines(tmp_path, kind, ending):
    text = ending.join(SEPARATOR_POSTS) + ending
    result = parse_tweets(_source(kind, text, tmp_path), "jsonl", strict=False)
    assert result.tweets == [
        TweetRecord("a", "one\u2028two @b", 1),
        TweetRecord("b", "\u2029 @a \x85", 2),
        TweetRecord("c", "@a\x1c", 5),
    ]
    assert [m.line for m in result.malformed] == [3, 4]
    assert "Invalid control character" in result.malformed[0].reason
    with pytest.raises(FormatError) as exc_info:
        parse_tweets(_source(kind, text, tmp_path), "jsonl")
    assert exc_info.value.line == 3


@pytest.mark.parametrize(
    "line",
    [
        '  {"author": "a", "text": "t", "timestamp": 1}\t ',
        '{"author": "a", "text": "t", "timestamp": 1} x',
        '\ufeff{"author": "a", "text": "t", "timestamp": 1}',
        '{"author": "a", "text": "t", "timestamp": 1',
        '{"author": "a", "text": "t", "timestamp": 1}\u2028',
    ],
    ids=["padded", "extra-data", "bom", "truncated", "separator-after"],
)
def test_jsonl_line_is_read_as_json_loads_reads_it(text_file, line):
    # Each line is decoded by json's scanner directly; anything but a bare
    # value must still get json.loads' result or error message. The file
    # starts with a byte-order mark of its own, which the reader skips, so
    # the line reaches the parser as given, its own mark included.
    try:
        expected = TweetRecord(**json.loads(line))
    except ValueError as exc:
        expected = MalformedLine(1, str(exc))
    result = parse_tweets(text_file("\ufeff" + line + "\r\n"), "jsonl", strict=False)
    assert result.tweets + result.malformed == [expected]


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_post_columns_round_trip_and_match_the_record_views(tmp_path, fmt):
    source = INGEST_DATA / f"posts.{fmt}"
    columns, posts, malformed = read_post_columns(source, fmt, strict=False)
    path = tmp_path / "interactions.csv"
    write_interaction_columns(columns, path)
    back = read_interaction_columns(path)

    def rows(c):
        return [(c.handles[i], c.handles[j], ts) for i, j, ts in zip(c.raters, c.ratees, c.timestamps)]

    assert rows(back) == rows(columns)
    assert sorted(back.handles) == sorted(columns.handles)
    parsed = parse_tweets(source, fmt, strict=False)
    records = to_interactions(parsed.tweets)
    assert rows(columns) == [(r.rater, r.ratee, r.timestamp) for r in records]
    assert (posts, malformed) == (len(parsed.tweets), parsed.malformed)
    write_interactions_csv(records, tmp_path / "records.csv")
    assert (tmp_path / "records.csv").read_bytes() == path.read_bytes()
