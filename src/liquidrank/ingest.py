"""Parse raw post datasets into a canonical stream of rating interactions.

A post ("tweet") by channel A whose text @-mentions channel B is read as an
implicit positive rating of B by A. This module extracts those mention
occurrences and emits one interaction per occurrence, as records or, in one
streaming pass, as columns; counting happens later, in the graph layer.

Handles are case-insensitive on the source platform, so everything is
lowercased here to avoid split identities.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import re
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple, Sequence

from .errors import FormatError

# A mention is "@" plus 1-15 word characters, where the "@" sits at the start
# of the text or after a non-handle character (so emails and mid-word @ don't
# count). Runs longer than 15 are cut at 15; the tail is plain text.
MENTION_RE = re.compile(r"(?<![A-Za-z0-9_@])@([A-Za-z0-9_]{1,15})")

_HANDLE = "[a-z0-9_]{1,15}"
HANDLE_RE = re.compile(_HANDLE + r"\Z")

POST_FORMATS = ("jsonl", "csv")

TWEET_CSV_HEADER = ["author", "text", "timestamp"]
INTERACTION_CSV_HEADER = ["rater", "ratee", "timestamp"]

MAX_TIMESTAMP = 2**63 - 1  # timestamps are epoch seconds in [0, 2**63 - 1]: rank holds int64 columns

# Characters read_csv_chunks reads at once: a larger chunk raised rank's peak RSS without making it
# faster, and one near the csv module's field size limit would send every file to the second pass.
_CHUNK_CHARS = 1 << 15

SIDECAR_TAG = "liquidrank-cols-1"  # the first field of an interaction CSV's column sidecar

_scan_json = json.JSONDecoder().scan_once


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
    return [m.lower() for m in MENTION_RE.findall(text)] if "@" in text else []


def valid_handle(handle: str) -> bool:
    """True if ``handle`` is a canonical (lowercase) channel identifier."""
    return bool(HANDLE_RE.match(handle))


def _range_fault(ts: int) -> str:
    """Why ``ts``, outside [0, MAX_TIMESTAMP], is not a timestamp."""
    return "timestamp must be >= 0" if ts < 0 else f"timestamp must be <= {MAX_TIMESTAMP}"


@contextmanager
def _text_lines(source: str | Path) -> Iterator[IO[str]]:
    """The file at path ``source`` as UTF-8 lines with their endings, read
    line by line. Lines end only at "\n", "\r\n" or a lone "\r", never at the
    other separators str.splitlines knows, such as U+2028, which JSON allows
    inside strings. A UTF-8 byte-order mark that starts the file is skipped.
    The path is named in each FormatError and decoding error raised while
    the file is open."""
    try:
        with open(Path(source), encoding="utf-8-sig", newline="") as fh:  # Path: never a file descriptor
            yield fh
    except FormatError as exc:
        raise FormatError(exc.line, exc.reason, str(source)) from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"{source}: not UTF-8 text ({exc.reason})") from exc
    except ValueError as exc:  # say, an integer past Python's digit limit
        raise ValueError(f"{source}: {exc}") from exc


@contextmanager
def read_csv_rows(
    source: str | Path, header: list[str], *, malformed: list[MalformedLine] | None = None
) -> Iterator[Iterator[tuple[int, list[str]]] | None]:
    """The rows after ``header`` as (line number, fields), or None for empty
    input, read as they are needed inside the ``with`` block.

    ``source`` is a file's path, a str or a Path; quoted fields may span lines.
    Raises FormatError at line 1 when the first row is not ``header``. A row
    the csv module cannot read (say, a field over its size limit) or one
    without a field per header column raises FormatError at its line, or,
    given a ``malformed`` list, is tallied there and skipped, and reading goes
    on at the next line.
    """
    with _text_lines(source) as lines:
        reader = csv.reader(lines)
        yield _numbered_rows(reader, len(header), malformed) if _read_header(reader, header) else None


def _read_header(reader, header: list[str]) -> bool:
    """Read the first row: False for empty input, FormatError at line 1
    unless the row is ``header``."""
    first = next(_numbered_rows(reader, None, None), None)
    if first is not None and first[1] != header:
        raise FormatError(1, f"expected header {','.join(header)!r}, got {','.join(first[1])!r}")
    return first is not None


def _numbered_rows(reader, width: int | None, malformed: list[MalformedLine] | None) -> Iterator[tuple[int, list[str]]]:
    while True:
        try:
            for row in reader:
                if width is not None and len(row) != width:
                    raise csv.Error(f"expected {width} columns, got {len(row)}")
                yield reader.line_num, row
            return
        except csv.Error as exc:  # the reader goes on at the next line
            if malformed is None:
                raise FormatError(reader.line_num, str(exc)) from None
            malformed.append(MalformedLine(reader.line_num, str(exc)))


def read_csv_chunks(source: str | Path, header: list[str]) -> Iterator[list[list[str]]]:
    """The first pass of the CSV readers: the rows after ``header`` as a list of fields per
    column, chunk by chunk, each _CHUNK_CHARS characters and the rest of their last line, split
    in one step; each line's last field keeps its "\n". Raises ValueError at a chunk the csv
    module must read (it holds '"' or "\r", or reaches the field size limit) or that has a line
    of another field count; the reader then reads its rows through read_csv_rows."""
    width = len(header)
    with _text_lines(source) as fh:
        if _read_header(csv.reader(fh), header):
            while text := fh.read(_CHUNK_CHARS):
                text += fh.readline()
                if '"' in text or "\r" in text or len(text) >= csv.field_size_limit():
                    raise ValueError("a line needs the csv module")
                text += "" if text.endswith("\n") else "\n"
                # With a "," after each "\n", every "\n" ends a field: each of the n lines holds
                # ``width`` fields if there are ``width`` * n and every "\n" is in the last column.
                fields = text.replace("\n", "\n,").split(",")[:-1]
                columns = [fields[i::width] for i in range(width)]
                if len(fields) != width * (n := text.count("\n")) or "".join(columns[-1]).count("\n") != n:
                    raise ValueError("a line has another field count")
                yield columns


# Inside write_together: each path written and its temporary file.
_held: ContextVar[dict[Path, Path] | None] = ContextVar("held", default=None)


@contextmanager
def write_together() -> Iterator[dict[Path, Path]]:
    """Hold back the renames of write_atomic inside the block, and yield the
    paths held, in the order first written, each mapped to its temporary file:
    a clean exit renames each temporary file over its path, in that order; an
    error removes them all. A nested block joins the outer one."""
    if (outer := _held.get()) is not None:
        yield outer
        return
    held: dict[Path, Path] = {}
    token = _held.set(held)
    try:
        yield held
        for path, temp in held.items():
            os.replace(temp, path)
    finally:
        _held.reset(token)
        for temp in held.values():
            temp.unlink(missing_ok=True)


def temp_path(path: Path) -> Path:
    """The temporary file beside ``path`` that write_atomic writes first."""
    return path.with_name(f".{path.name}.{os.getpid():010d}.tmp")


@contextmanager
def write_atomic(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """Write UTF-8 text, line endings as given, or bytes if ``binary``, to
    temp_path(path), making its directory if missing, and rename it over
    ``path`` on a clean exit, or at the end of the write_together block around
    it: a run that dies mid-write leaves the previous bytes and no temp file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with write_together() as held:
        held[path] = temp = temp_path(path)
        with open(temp, "wb") if binary else open(temp, "w", encoding="utf-8", newline="") as fh:
            yield fh


def sha256_digest(path: Path) -> str:
    """``sha256:`` and the hex digest of the file at ``path``, read in 256 KiB
    chunks as hashlib.file_digest does: a chunk of 1 MiB raised a rank's peak
    RSS on a 0.5 MB file, more than reading it whole."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 18), b""):
            digest.update(chunk)
    return "sha256:" + digest.hexdigest()


def write_json(path: str | Path, obj: object) -> None:
    """Write ``obj`` as JSON, indented with sorted keys, plus a newline; NaN or ±inf raises ValueError."""
    with write_atomic(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def read_json_object(path: Path) -> dict:
    """The JSON object held by the file at ``path``; FormatError if it holds
    anything else."""
    with _text_lines(path) as fh:
        text = fh.read().replace("\r\n", "\n").replace("\r", "\n")  # "\r\n" and "\r" end one line, as elsewhere
        try:  # parse_constant raises KeyError on the NaN, Infinity and -Infinity that JSON lacks
            obj = json.loads(text, parse_constant={}.__getitem__)
        except json.JSONDecodeError as exc:
            raise FormatError(exc.lineno, f"invalid JSON ({exc.msg})") from exc
        except KeyError as exc:  # the first constant outside a string is the one json met
            at = next(m.start(1) for m in re.finditer(r'"(?:[^"\\]|\\.)*"|(-?Infinity|NaN)', text) if m[1])
            raise FormatError(text.count("\n", 0, at) + 1, f"invalid JSON ({exc.args[0]} is not JSON)") from None
        except RecursionError:  # json, on a value nested past the recursion limit
            raise FormatError(1, "invalid JSON (nested too deeply)") from None
        if not isinstance(obj, dict):
            raise FormatError(1, "expected a JSON object")
    return obj


def _posts(
    source: str | Path, fmt: str, strict: bool, malformed: list[MalformedLine]
) -> Iterator[tuple[str, str, int]]:
    """Each valid post of ``source`` as (author handle, text, timestamp), read
    line by line. A malformed line raises FormatError when ``strict``, else it
    is tallied in ``malformed`` and skipped. A raw author is checked once, the
    first time it is seen."""
    if fmt == "jsonl":
        opened, decode = _text_lines(source), _jsonl_fields
    elif fmt == "csv":  # tweet text is the one field that may hold newlines inside its quotes
        opened, decode = read_csv_rows(source, TWEET_CSV_HEADER, malformed=None if strict else malformed), _csv_fields
    else:
        raise ValueError(f"unknown tweet format {fmt!r} (expected {' or '.join(map(repr, POST_FORMATS))})")
    authors: dict[str, str] = {}  # each raw author that passed, and its handle
    with opened as rows:
        # Blank jsonl lines are skipped; an empty csv file (None) has no rows.
        rows = ((n, line) for n, line in enumerate(rows, start=1) if not line.isspace()) if fmt == "jsonl" else rows
        for line_no, raw in rows or ():
            try:
                author, text, timestamp = decode(raw)
                handle = authors.get(author) if isinstance(author, str) else None
                if handle is None:
                    if not isinstance(author, str) or not author:
                        raise ValueError("author must be a non-empty string")
                    handle = author.lower()
                    if not (author.isascii() and valid_handle(handle)):  # "\u212a".lower() is "k"
                        raise ValueError(f"author {author!r} is not a valid handle")
                    authors[author] = handle
                if not isinstance(text, str):
                    raise ValueError("text must be a string")
                if isinstance(timestamp, bool) or not isinstance(timestamp, int):
                    raise ValueError("timestamp must be an integer")
                if not 0 <= timestamp <= MAX_TIMESTAMP:
                    raise ValueError(_range_fault(timestamp))
            # json raises RecursionError on a value nested past the recursion limit.
            except (ValueError, RecursionError) as exc:
                if strict:
                    raise FormatError(line_no, str(exc)) from exc
                malformed.append(MalformedLine(line_no, str(exc)))
                continue
            yield handle, text, timestamp


def _jsonl_fields(line: str) -> tuple[object, object, object]:
    # json.loads' own scanner without its Python wrapping halves the cost of
    # a line; anything but a bare value goes to json.loads for its result or
    # its error message.
    try:
        obj, end = _scan_json(line, 0)
    except (StopIteration, ValueError):
        end = -1
    if end < 0 or line[end:].strip(" \t\r\n"):
        obj = json.loads(line.rstrip("\r\n"))
    if not isinstance(obj, dict):
        raise ValueError("line is not a JSON object")
    try:
        return obj["author"], obj["text"], obj["timestamp"]
    except KeyError:
        raise ValueError(f"missing field(s): {', '.join(k for k in TWEET_CSV_HEADER if k not in obj)}") from None


def _csv_fields(row: list[str]) -> tuple[str, str, int]:
    author, text, raw_ts = row
    try:
        return author, text, int(raw_ts)
    except ValueError:
        raise ValueError(f"timestamp {raw_ts!r} is not an integer") from None


def parse_tweets(source: str | Path, fmt: str = "jsonl", *, strict: bool = True) -> ParseResult:
    """Parse a tweet dataset in ``jsonl`` or ``csv`` format.

    jsonl: one object per line with "author", "text", "timestamp" fields;
    unknown fields are ignored; lines end at "\n", "\r\n" or "\r". csv:
    header row exactly ``author,text,timestamp``, RFC-4180 quoting, UTF-8.

    Raises FormatError (with line number) on the first malformed line when
    ``strict`` is true; otherwise malformed lines are skipped and tallied in
    the result.
    """
    result = ParseResult()
    result.tweets = [TweetRecord(*post) for post in _posts(source, fmt, strict, result.malformed)]
    return result


def read_post_columns(
    source: str | Path, fmt: str = "jsonl", *, strict: bool = True
) -> tuple[InteractionColumns, int, list[MalformedLine]]:
    """Parse a post dataset as parse_tweets does, straight into the columns of
    its interactions as to_interactions expands them, in one pass with no
    per-post objects. Returns the columns, the count of valid posts and the
    malformed lines skipped. Handles are in order of first sight, as
    read_interaction_columns lists them; the ids are an int32 array("i"), the
    timestamps an int64 array("q"), the types every interaction reader returns."""
    columns = InteractionColumns([], array("i"), array("i"), array("q"))
    handles, raters, ratees, stamps = columns
    ids: dict[str, int] = {}
    malformed: list[MalformedLine] = []
    posts = 0
    for author, text, timestamp in _posts(source, fmt, strict, malformed):
        posts += 1
        for ratee in extract_mentions(text):
            if ratee != author:  # a channel must not rate itself
                raters.append(ids.setdefault(author, len(ids)))
                ratees.append(ids.setdefault(ratee, len(ids)))
                stamps.append(timestamp)
    handles.extend(ids)
    return columns, posts, malformed


def to_interactions(tweets: Iterable[TweetRecord]) -> list[InteractionRecord]:
    """Expand tweets into one interaction per mention occurrence.

    Self-mentions are dropped: a channel must not rate itself. Output order is
    input order, then mention order within each tweet.
    """
    return [
        InteractionRecord(t.author, m, t.timestamp) for t in tweets for m in extract_mentions(t.text) if m != t.author
    ]


def write_interaction_columns(columns: InteractionColumns, path: str | Path) -> None:
    """Canonical interaction CSV: header ``rater,ratee,timestamp``, then one
    row per interaction, in column order; with it, its column sidecar
    ``<path>.cols``: a header line (SIDECAR_TAG, the CSV's and the payload's
    sha256, the handle and row counts), then the payload: the handles a line
    each, rater and ratee ids as little-endian int32, timestamps as int64."""
    handles, raters, ratees, stamps = columns
    with write_together() as held:
        _write_interaction_rows(zip(map(handles.__getitem__, raters), map(handles.__getitem__, ratees), stamps), path)
        payload = ["".join(f"{handle}\n" for handle in handles).encode()]
        for code, column in zip("iiq", (raters, ratees, stamps)):
            payload.append(array(code, column))  # a copy: the caller's column is never swapped
            if sys.byteorder == "big":
                payload[-1].byteswap()
        digest = hashlib.sha256()
        for part in payload:
            digest.update(part)
        csv_digest = sha256_digest(held[Path(path)])
        with write_atomic(f"{path}.cols", binary=True) as fh:
            fh.write(f"{SIDECAR_TAG} {csv_digest} sha256:{digest.hexdigest()} {len(handles)} {len(raters)}\n".encode())
            fh.writelines(payload)


def write_interactions_csv(records: Iterable[InteractionRecord], path: str | Path) -> None:
    """Canonical interaction CSV from records, in the order to_interactions
    produces them."""
    _write_interaction_rows(((r.rater, r.ratee, r.timestamp) for r in records), path)


def _write_interaction_rows(rows: Iterable[tuple[str, str, int]], path: str | Path) -> None:
    with write_atomic(path) as fh:  # handles need no csv quoting: rows are joined text
        fh.write(",".join(INTERACTION_CSV_HEADER) + "\n")
        fh.writelines(f"{rater},{ratee},{timestamp}\n" for rater, ratee, timestamp in rows)


class InteractionColumns(NamedTuple):
    """Interaction rows as parallel columns: ``raters[k]`` and ``ratees[k]``
    index ``handles``, which lists each handle once in order of first sight,
    and ``timestamps[k]`` is row k's time. Every reader gives int32 ids and
    int64 timestamps: read_post_columns as stdlib arrays, read_interaction_columns
    as numpy arrays, read_interaction_sidecar as read-only numpy views of the file's bytes."""

    handles: list[str]
    raters: Sequence[int]
    ratees: Sequence[int]
    timestamps: Sequence[int]


def read_interaction_columns(source: str | Path) -> InteractionColumns:
    """Load a canonical interaction CSV into columns. Always strict: this is
    our own format. A first pass converts the columns of each chunk from
    read_csv_chunks whole; if it fails, or its columns fail _valid_columns,
    read_csv_rows reads the source again, to name its first faulty line."""
    import numpy as np

    ids: defaultdict[str, int] = defaultdict()
    ids.default_factory = ids.__len__  # a new handle gets the next id
    id_parts, stamp_parts = [np.zeros((2, 0), dtype=np.int32)], [np.zeros(0, dtype=np.int64)]
    try:
        for raters, ratees, stamps in read_csv_chunks(source, INTERACTION_CSV_HEADER):
            n = len(stamps)
            pairs = raters + ratees  # rater, ratee, rater, ...: ids in order of first sight
            pairs[::2], pairs[1::2] = raters, ratees
            id_parts.append(np.fromiter(map(ids.__getitem__, pairs), np.int32, 2 * n).reshape(n, 2).T)
            stamp_parts.append(np.array(stamps, dtype=np.int64))  # each stamp read by int()
        columns = InteractionColumns(list(ids), *np.concatenate(id_parts, axis=1), np.concatenate(stamp_parts))
        if _valid_columns(columns):
            return columns
    except (ValueError, OverflowError):  # a stamp int() cannot read, or one past int64
        pass
    with read_csv_rows(source, INTERACTION_CSV_HEADER) as rows:  # to name the first faulty line
        return _read_rows(rows or ())


def read_interaction_sidecar(path: Path, digest: str) -> InteractionColumns | None:
    """read_interaction_columns(path), loaded from the sidecar of the CSV at
    ``path``, whose sha256 is ``digest``; None if it is missing or not that
    CSV's: a tag, digest or count differs, or the columns fail _valid_columns.
    The id and timestamp columns are read-only views of the file's bytes, not copies."""
    import numpy as np

    try:
        data = Path(f"{path}.cols").read_bytes()
        start = data.index(b"\n") + 1
        tag, csv_digest, payload_digest, count, rows = data[:start].decode().split()
        count, rows = int(count), int(rows)
        end = len(data) - 16 * rows  # the handle table is data[start:end]
        *handles, last = data[start:end].decode().split("\n")  # each handle ends in "\n": last is ""
        ids = np.frombuffer(data, "<i4", 2 * rows, end)
        stamps = np.frombuffer(data, "<i8", rows, end + 8 * rows)
    except (OSError, ValueError, OverflowError):
        return None
    columns = InteractionColumns(handles, ids[:rows], ids[rows:], stamps)
    fits = (tag, csv_digest, last, len(handles)) == (SIDECAR_TAG, digest, "", count)
    fits = fits and payload_digest == "sha256:" + hashlib.sha256(memoryview(data)[start:]).hexdigest()
    return columns if fits and _valid_columns(columns) else None


def _valid_columns(columns: InteractionColumns) -> bool:
    """The one validity test of both bulk readers: distinct handles that follow the
    handle rule, ids inside the table, no self-rating row, no timestamp below 0."""
    handles, raters, ratees, stamps = columns
    return bool(
        len(set(handles)) == len(handles) and re.fullmatch(f"(?:{_HANDLE}\n)*", "\n".join([*handles, ""]))
        and all(0 <= ids.min(initial=0) and ids.max(initial=-1) < len(handles) for ids in (raters, ratees))
        and not (raters == ratees).any() and stamps.min(initial=0) >= 0
    )


def _read_rows(rows: Iterator[tuple[int, list[str]]]) -> InteractionColumns:
    """The numbered rows of read_csv_rows as columns; raises FormatError at
    the first faulty row."""
    import numpy as np

    ids: dict[str, int] = {}
    columns: list[list[int]] = [[], [], []]
    for line_no, row in rows:
        for column, role, handle in zip(columns, ("rater", "ratee"), row):
            if handle not in ids and not valid_handle(handle):
                raise FormatError(line_no, f"{role} {handle!r} is not a valid handle")
            column.append(ids.setdefault(handle, len(ids)))
        if row[0] == row[1]:
            raise FormatError(line_no, "rater and ratee must differ")
        try:
            ts = int(row[2])
        except ValueError:
            raise FormatError(line_no, f"timestamp {row[2]!r} is not an integer") from None
        if not 0 <= ts <= MAX_TIMESTAMP:
            raise FormatError(line_no, _range_fault(ts))
        columns[2].append(ts)
    return InteractionColumns(list(ids), *np.array(columns[:2], np.int32).reshape(2, -1), np.array(columns[2], np.int64))


def read_interactions_csv(source: str | Path) -> list[InteractionRecord]:
    """Load a canonical interaction CSV as records: a view of its columns."""
    handles, raters, ratees, stamps = read_interaction_columns(source)
    rows = zip(raters.tolist(), ratees.tolist(), stamps.tolist())
    return [InteractionRecord(handles[i], handles[j], ts) for i, j, ts in rows]
