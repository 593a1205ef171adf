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
from typing import IO, Iterable

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


def _text_lines(source: str | bytes | Path | IO) -> list[str]:
    return _text_of(source).splitlines()


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
        return _parse_jsonl(_text_lines(source), strict=strict)
    if fmt == "csv":
        return _parse_csv(_text_of(source), strict=strict)
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


def _parse_csv(text: str, *, strict: bool) -> ParseResult:
    # The reader gets the raw text (not split lines) so quoted fields may
    # span physical lines; tweet text is the one field that can hold them.
    result = ParseResult()
    reader = csv.reader(io.StringIO(text, newline=""))
    rows = iter(reader)
    try:
        header = next(rows)
    except StopIteration:
        return result  # empty file: zero tweets, same as empty jsonl
    if header != TWEET_CSV_HEADER:
        raise FormatError(1, f"expected header {','.join(TWEET_CSV_HEADER)!r}, got {','.join(header)!r}")
    for row in rows:
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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TWEET_CSV_HEADER)
        for t in tweets:
            writer.writerow([t.author, t.text, t.timestamp])


def write_interactions_csv(records: Iterable[InteractionRecord], path: str | Path) -> None:
    """Canonical interaction CSV: header ``rater,ratee,timestamp``, rows in
    the deterministic order produced by to_interactions."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(INTERACTION_CSV_HEADER)
        for r in records:
            writer.writerow([r.rater, r.ratee, r.timestamp])


def read_interactions_csv(source: str | bytes | Path | IO) -> list[InteractionRecord]:
    """Load a canonical interaction CSV. Always strict: this is our own format."""
    lines = _text_lines(source)
    reader = csv.reader(lines)
    rows = iter(reader)
    try:
        header = next(rows)
    except StopIteration:
        return []
    if header != INTERACTION_CSV_HEADER:
        raise FormatError(1, f"expected header {','.join(INTERACTION_CSV_HEADER)!r}, got {','.join(header)!r}")
    records = []
    for row in rows:
        line_no = reader.line_num
        if len(row) != 3:
            raise FormatError(line_no, f"expected 3 columns, got {len(row)}")
        rater, ratee, raw_ts = row
        if not valid_handle(rater):
            raise FormatError(line_no, f"rater {rater!r} is not a valid handle")
        if not valid_handle(ratee):
            raise FormatError(line_no, f"ratee {ratee!r} is not a valid handle")
        if rater == ratee:
            raise FormatError(line_no, "rater and ratee must differ")
        try:
            ts = int(raw_ts)
        except ValueError:
            raise FormatError(line_no, f"timestamp {raw_ts!r} is not an integer") from None
        if ts < 0:
            raise FormatError(line_no, "timestamp must be >= 0")
        records.append(InteractionRecord(rater, ratee, ts))
    return records

