"""Parse raw post datasets into a canonical stream of rating interactions.

A post ("tweet") by channel A whose text @-mentions channel B is read as an
implicit positive rating of B by A. This module extracts those mention
occurrences and emits one interaction record per occurrence; counting happens
later, in the graph layer.

Handles are case-insensitive on the source platform, so everything is
lowercased here to avoid split identities.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, NamedTuple

from .errors import FormatError

# A mention is "@" plus 1-15 word characters, where the "@" sits at the start
# of the text or after a non-handle character (so emails and mid-word @ don't
# count). Runs longer than 15 are cut at 15; the tail is plain text.
MENTION_RE = re.compile(r"(?<![A-Za-z0-9_@])@([A-Za-z0-9_]{1,15})")

HANDLE_RE = re.compile(r"[a-z0-9_]{1,15}\Z")

TWEET_CSV_HEADER = ["author", "text", "timestamp"]
INTERACTION_CSV_HEADER = ["rater", "ratee", "timestamp"]


@dataclass(frozen=True)
class TweetRecord:
    """One public post: who wrote it, what it said, when."""

    author: str
    text: str
    timestamp: int


@dataclass(frozen=True)
class InteractionRecord:
    """One rater→ratee mention occurrence at a point in time."""

    rater: str
    ratee: str
    timestamp: int


@dataclass(frozen=True)
class MalformedLine:
    line: int
    reason: str


@dataclass
class ParseResult:
    """Parsed tweets plus a tally of lines that could not be parsed.

    In strict mode parsing raises on the first bad line, so ``malformed`` is
    only ever populated in lenient mode. Skipped lines are reported, never
    silently dropped.
    """

    tweets: list[TweetRecord] = field(default_factory=list)
    malformed: list[MalformedLine] = field(default_factory=list)


def extract_mentions(text: str) -> list[str]:
    """Return every @-mention in ``text``, lowercased, in order of appearance.

    Duplicates are preserved; aggregation is the graph module's job.
    """
    return [m.lower() for m in MENTION_RE.findall(text)]


def valid_handle(handle: str) -> bool:
    """True if ``handle`` is a canonical (lowercase) channel identifier."""
    return bool(HANDLE_RE.match(handle))


def _coerce_tweet(author: object, text: object, timestamp: object) -> TweetRecord:
    """Validate one row's fields; raises ValueError with the reason."""
    if not isinstance(author, str) or not author:
        raise ValueError("author must be a non-empty string")
    canonical = author.lower()
    if not valid_handle(canonical):
        raise ValueError(f"author {author!r} is not a valid handle")
    if not isinstance(text, str):
        raise ValueError("text must be a string")
    if isinstance(timestamp, bool) or not isinstance(timestamp, int):
        raise ValueError("timestamp must be an integer")
    if timestamp < 0:
        raise ValueError("timestamp must be >= 0")
    return TweetRecord(author=canonical, text=text, timestamp=timestamp)


def _text_of(source: str | bytes | Path | IO) -> str:
    if isinstance(source, Path):
        return source.read_text(encoding="utf-8")
    if isinstance(source, bytes):
        return source.decode("utf-8")
    if isinstance(source, str):
        return source
    data = source.read()
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    return data


def read_csv_rows(source: str | bytes | Path | IO, header: list[str], *, quoted_newlines: bool = False):
    """A csv reader over the rows after ``header``, or None for empty input.

    ``source`` is a path, the text itself (str or bytes) or an open file.
    The reader gets the text split into lines, or with ``quoted_newlines``
    the raw text, so that quoted fields may span lines. Raises FormatError
    at line 1 when the first row is not ``header``; the reader's
    ``line_num`` gives each later row's line number.
    """
    text = _text_of(source)
    reader = csv.reader(io.StringIO(text, newline="") if quoted_newlines else text.splitlines())
    first = next(reader, None)
    if first is not None and first != header:
        raise FormatError(1, f"expected header {','.join(header)!r}, got {','.join(first)!r}")
    return None if first is None else reader


def write_csv_rows(path: str | Path, header: list[str], rows: Iterable[Iterable]) -> None:
    """Write ``header`` and then ``rows`` as UTF-8 CSV, one row per line."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def parse_tweets(
    source: str | bytes | Path | IO,
    fmt: str = "jsonl",
    *,
    strict: bool = True,
) -> ParseResult:
    """Parse a tweet dataset in ``jsonl`` or ``csv`` format.

    jsonl: one object per line with "author", "text", "timestamp" fields;
    unknown fields are ignored. csv: header row exactly
    ``author,text,timestamp``, RFC-4180 quoting, UTF-8.

    Raises FormatError (with line number) on the first malformed line when
    ``strict`` is true; otherwise malformed lines are skipped and tallied in
    the result.
    """
    if fmt == "jsonl":
        return _parse_jsonl(_text_of(source).splitlines(), strict=strict)
    if fmt == "csv":
        return _parse_csv(source, strict=strict)
    raise ValueError(f"unknown tweet format {fmt!r} (expected 'jsonl' or 'csv')")


def _parse_jsonl(lines: Iterable[str], *, strict: bool) -> ParseResult:
    result = ParseResult()
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ValueError("line is not a JSON object")
            missing = [k for k in ("author", "text", "timestamp") if k not in obj]
            if missing:
                raise ValueError(f"missing field(s): {', '.join(missing)}")
            tweet = _coerce_tweet(obj["author"], obj["text"], obj["timestamp"])
        except (json.JSONDecodeError, ValueError) as exc:
            if strict:
                raise FormatError(line_no, str(exc)) from exc
            result.malformed.append(MalformedLine(line_no, str(exc)))
            continue
        result.tweets.append(tweet)
    return result


def _parse_csv(source: str | bytes | Path | IO, *, strict: bool) -> ParseResult:
    # Tweet text is the one field that may hold newlines inside its quotes.
    # An empty file has zero tweets, as an empty jsonl file has.
    result = ParseResult()
    reader = read_csv_rows(source, TWEET_CSV_HEADER, quoted_newlines=True)
    for row in reader or ():
        line_no = reader.line_num
        try:
            if len(row) != 3:
                raise ValueError(f"expected 3 columns, got {len(row)}")
            author, text, raw_ts = row
            try:
                ts = int(raw_ts)
            except ValueError:
                raise ValueError(f"timestamp {raw_ts!r} is not an integer") from None
            tweet = _coerce_tweet(author, text, ts)
        except ValueError as exc:
            if strict:
                raise FormatError(line_no, str(exc)) from exc
            result.malformed.append(MalformedLine(line_no, str(exc)))
            continue
        result.tweets.append(tweet)
    return result


def to_interactions(tweets: Iterable[TweetRecord]) -> list[InteractionRecord]:
    """Expand tweets into one interaction per mention occurrence.

    Self-mentions are dropped: a channel must not rate itself. Output order is
    input order, then mention order within each tweet.
    """
    records = []
    for tweet in tweets:
        for mention in extract_mentions(tweet.text):
            if mention == tweet.author:
                continue
            records.append(InteractionRecord(tweet.author, mention, tweet.timestamp))
    return records


def write_tweets_jsonl(tweets: Iterable[TweetRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for t in tweets:
            fh.write(json.dumps({"author": t.author, "text": t.text, "timestamp": t.timestamp}))
            fh.write("\n")


def write_tweets_csv(tweets: Iterable[TweetRecord], path: str | Path) -> None:
    write_csv_rows(path, TWEET_CSV_HEADER, ([t.author, t.text, t.timestamp] for t in tweets))


def write_interactions_csv(records: Iterable[InteractionRecord], path: str | Path) -> None:
    """Canonical interaction CSV: header ``rater,ratee,timestamp``, rows in
    the deterministic order produced by to_interactions."""
    write_csv_rows(path, INTERACTION_CSV_HEADER, ([r.rater, r.ratee, r.timestamp] for r in records))


class InteractionColumns(NamedTuple):
    """Interaction rows as parallel columns: ``raters[k]`` and ``ratees[k]``
    index ``handles``, which lists each handle once in order of first sight,
    and ``timestamps[k]`` is row k's time."""

    handles: list[str]
    raters: list[int]
    ratees: list[int]
    timestamps: list[int]


def read_interaction_columns(source: str | bytes | Path | IO) -> InteractionColumns:
    """Load a canonical interaction CSV into columns in one pass. Always
    strict: this is our own format. A handle is checked once, at its first
    occurrence; every other check runs on every row."""
    columns = InteractionColumns([], [], [], [])
    handles, raters, ratees, stamps = columns
    ids: dict[str, int] = {}
    reader = read_csv_rows(source, INTERACTION_CSV_HEADER)

    def intern(handle: str, role: str) -> int:
        if not valid_handle(handle):
            raise FormatError(reader.line_num, f"{role} {handle!r} is not a valid handle")
        ids[handle] = len(handles)
        handles.append(handle)
        return ids[handle]

    for row in reader or ():
        if len(row) != 3:
            raise FormatError(reader.line_num, f"expected 3 columns, got {len(row)}")
        rater, ratee, raw_ts = row
        i = ids[rater] if rater in ids else intern(rater, "rater")
        j = ids[ratee] if ratee in ids else intern(ratee, "ratee")
        if i == j:
            raise FormatError(reader.line_num, "rater and ratee must differ")
        try:
            ts = int(raw_ts)
        except ValueError:
            raise FormatError(reader.line_num, f"timestamp {raw_ts!r} is not an integer") from None
        if ts < 0:
            raise FormatError(reader.line_num, "timestamp must be >= 0")
        raters.append(i)
        ratees.append(j)
        stamps.append(ts)
    return columns


def read_interactions_csv(source: str | bytes | Path | IO) -> list[InteractionRecord]:
    """Load a canonical interaction CSV as records: a view of its columns."""
    handles, raters, ratees, stamps = read_interaction_columns(source)
    return [InteractionRecord(handles[i], handles[j], ts) for i, j, ts in zip(raters, ratees, stamps)]
