"""The rank stage's bulk readers and joined-text writers against the csv and
json modules: read_interaction_columns against a frozen copy of the row loop
it replaced, and the ranking CSV and reputation.json bytes against
csv.writer and json.dump."""

import csv
import io
import json
import math
import os
import re
import tempfile
from itertools import repeat, starmap
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liquidrank import ingest, rank
from liquidrank.errors import FormatError
from liquidrank.graph import TimeWindow
from liquidrank.ingest import HANDLE_RE, MAX_TIMESTAMP, read_interaction_columns, write_atomic, write_together
from liquidrank.rank import (
    RANKING_CSV_HEADER,
    RankParams,
    format_score,
    reputation_snapshot,
    write_ranking_csv,
    write_reputation_json,
)

from test_rank import ranked_list_from_scores, state_from_scores

HEADER = ["rater", "ratee", "timestamp"]


def reference_columns(text: str):
    """read_interaction_columns as it was before chunks were split in bulk:
    csv.reader over the whole text, every check on every row. The range
    check on large timestamps is the one addition: the old loop accepted a
    timestamp past 2**63 - 1, which an int64 column cannot hold."""
    handles, raters, ratees, stamps = [], [], [], []
    ids = {}
    reader = csv.reader(io.StringIO(text, newline=""))

    def rows():
        try:
            for row in reader:
                yield reader.line_num, row
        except csv.Error as exc:
            raise FormatError(reader.line_num, str(exc)) from None

    def intern(handle, role, line_no):
        if not HANDLE_RE.match(handle):
            raise FormatError(line_no, f"{role} {handle!r} is not a valid handle")
        ids[handle] = len(handles)
        handles.append(handle)
        return ids[handle]

    numbered = rows()
    first = next(numbered, None)
    if first is None:
        return handles, raters, ratees, stamps
    if first[1] != HEADER:
        raise FormatError(1, f"expected header {','.join(HEADER)!r}, got {','.join(first[1])!r}")
    for line_no, row in numbered:
        if len(row) != 3:
            raise FormatError(line_no, f"expected 3 columns, got {len(row)}")
        rater, ratee, raw_ts = row
        i = ids[rater] if rater in ids else intern(rater, "rater", line_no)
        j = ids[ratee] if ratee in ids else intern(ratee, "ratee", line_no)
        if i == j:
            raise FormatError(line_no, "rater and ratee must differ")
        try:
            ts = int(raw_ts)
        except ValueError:
            raise FormatError(line_no, f"timestamp {raw_ts!r} is not an integer") from None
        if ts < 0:
            raise FormatError(line_no, "timestamp must be >= 0")
        if ts > MAX_TIMESTAMP:  # the declared difference
            raise FormatError(line_no, f"timestamp must be <= {MAX_TIMESTAMP}")
        raters.append(i)
        ratees.append(j)
        stamps.append(ts)
    return handles, raters, ratees, stamps


GOOD_HANDLES = ["a", "b", "c_1", "zz9", "q"]
BAD_HANDLES = ["A", "a-b", "", "x" * 16, "é", " a"]
STAMPS = ["0", "12", "1600000000", " 12", "12 ", "+5", "1_000", "-1", "1.5", "", "x", "١٢",
          str(MAX_TIMESTAMP), str(MAX_TIMESTAMP + 1), "9" * 20]
ODD_LINES = ['"a",b,1', 'a,"b",2', '"a\nb",c,3', 'a,b,"1\r\n2"', "a,b", "a,b,1,x", "", "a,a,1", 'a,b"c,1', "a,b,1\r,c,d,2"]


@st.composite
def interaction_texts(draw):
    """Interaction CSV text of good rows with a drawn share of awkward ones:
    quoted fields (some holding a line break), bad or upper-case handles,
    self-loops, odd timestamps, missing or extra fields, blank lines, and
    "\\r\\n" or lone "\\r" line endings."""
    pair = st.tuples(st.sampled_from(GOOD_HANDLES), st.sampled_from(GOOD_HANDLES)).filter(lambda p: p[0] != p[1])
    good = st.tuples(pair, st.sampled_from(STAMPS[:3])).map(lambda r: f"{r[0][0]},{r[0][1]},{r[1]}")
    anything = st.sampled_from(GOOD_HANDLES + BAD_HANDLES)
    awkward = st.one_of(st.tuples(anything, anything, st.sampled_from(STAMPS)).map(",".join), st.sampled_from(ODD_LINES))
    percent = draw(st.sampled_from([0, 0, 1, 5, 20, 60]))
    endings = st.sampled_from(["\n"] if draw(st.booleans()) else ["\n", "\n", "\r\n", "\r"])
    lines = ["rater,ratee,timestamp" if draw(st.integers(0, 9)) else "rater,ratee"]
    for _ in range(draw(st.integers(0, 40))):
        lines.append(draw(awkward if draw(st.integers(0, 99)) < percent else good))
    text = "".join(line + draw(endings) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def outcome(read, source):
    try:
        handles, raters, ratees, stamps = read(source)
    except FormatError as exc:
        return "error", exc.line, exc.reason
    return list(handles), list(raters), list(ratees), list(stamps)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(text=interaction_texts(), chunk=st.integers(1, 80))
def test_bulk_reader_matches_the_row_loop(text, chunk):
    def bulk(source):
        handles, raters, ratees, stamps = read_interaction_columns(source)
        return handles, raters.tolist(), ratees.tolist(), stamps.tolist()

    expected = outcome(reference_columns, text)
    # A chunk of a few characters puts chunk boundaries inside every case.
    with mock.patch.object(ingest, "_CHUNK_CHARS", chunk), tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "interactions.csv"
        path.write_bytes(text.encode("utf-8"))
        for source in (str(path), path):
            assert outcome(bulk, source) == expected


AWKWARD_LINES = ODD_LINES + [f"a,b,{t}" for t in STAMPS] + [f"{h},b,1" for h in BAD_HANDLES] + [f"a,{h},1" for h in BAD_HANDLES]


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("awkward", AWKWARD_LINES)
def test_each_awkward_line_at_every_chunk_boundary(text_file, awkward, ending):
    lines = ["rater,ratee,timestamp", "c_1,zz9,5", "zz9,q,6", awkward, "q,a,7", "a,c_1,8"]
    text = "".join(line + ending for line in lines)
    expected = outcome(reference_columns, text)
    path = text_file(text)
    for chunk in range(1, len(text) + 2):
        with mock.patch.object(ingest, "_CHUNK_CHARS", chunk):
            assert outcome(lambda s: [list(c) for c in read_interaction_columns(s)], path) == expected, chunk


def test_bulk_reader_at_its_own_chunk_size(text_file):
    rows = [f"{'ab'[k % 2]}{k % 97},c{k % 89},{k}\n" for k in range(20_000)]
    for bad_at in (None, 4_321, 19_999):
        lines = list(rows)
        if bad_at is not None:
            lines[bad_at] = "a,b,-7\n"
        text = "rater,ratee,timestamp\n" + "".join(lines)
        expected = outcome(reference_columns, text)
        assert outcome(lambda s: [list(c) for c in read_interaction_columns(s)], text_file(text)) == expected


SCORES = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, 3.0, 1e-300, 5e-324, 2.5e-310, 1e16, 1e16 + 2, 0.1, 1 / 3]),
    st.floats(min_value=0, max_value=1e300, allow_nan=False, allow_infinity=False),
)
NODES = st.one_of(st.from_regex(r"[a-z0-9_]{1,15}", fullmatch=True), st.text(max_size=4))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(scores=st.dictionaries(NODES, SCORES, max_size=40), method=st.sampled_from(["mentions", "liquid", "m,x"]))
def test_ranking_csv_bytes_equal_csv_writer(scores, method):
    ranked = ranked_list_from_scores(method, scores)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(RANKING_CSV_HEADER)
    writer.writerows([e.rank, e.node, format_score(e.score), method] for e in ranked.entries)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ranking.csv"
        write_ranking_csv(ranked, path)
        assert path.read_bytes() == expected.getvalue().encode("utf-8")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    scores=st.dictionaries(NODES, SCORES, max_size=40),
    end=st.sampled_from([math.inf, 1.5, 10**30, 99]),
    delta=SCORES,
)
def test_reputation_json_bytes_equal_json_dump(scores, end, delta):
    state = state_from_scores(scores, final_delta=delta)
    window, params = TimeWindow(start=-5, end=end), RankParams(alpha=0.85)
    snapshot = {**reputation_snapshot(state, window, params), "scores": dict(state.scores)}
    expected = json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "reputation.json"
        write_reputation_json(state, window, params, path)
        assert path.read_bytes() == expected.encode("utf-8")


def one_string_ranking_csv(ranked) -> str:
    """write_ranking_csv as it was before it wrote in chunks: the whole file
    as one string, through csv.writer if any node or the method needs quoting."""
    rows = zip(range(1, len(ranked.nodes) + 1), ranked.nodes, ranked.scores, repeat(ranked.method))
    fh = io.StringIO(newline="")
    fh.write(",".join(RANKING_CSV_HEADER) + "\n")
    if re.search(r'[,"\r\n]', "".join([ranked.method, *ranked.nodes])):
        csv.writer(fh, lineterminator="\n").writerows((r, n, format_score(s), m) for r, n, s, m in rows)
    else:
        fh.write("".join(starmap("{},{},{:.12g},{}\n".format, rows)))
    return fh.getvalue()


# Seven nodes, so that the chunk sizes below are 1, 2, 3, n - 1, n and n + 1.
SEVEN = {"a": 0.5, "b_2": 1 / 3, "c": 0.5, "d": 1e-300, "e": 2.0, "f": 0.0, "g": 1e16 + 2}
CHUNKS = [1, 2, 3, 6, 7, 8]


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("quoted", ["", "c,x", 'c"x'], ids=["joined", "comma", "quote"])
def test_ranking_csv_in_chunks_equals_the_one_string_writer(tmp_path, monkeypatch, chunk, quoted):
    # A node that needs quoting sends its chunk, and only that chunk, to csv.writer.
    monkeypatch.setattr(rank, "_CHUNK_ROWS", chunk)
    scores = dict(SEVEN)
    if quoted:  # in place of "c", tied with "a"
        scores[quoted] = scores.pop("c")
    ranked = ranked_list_from_scores("liquid", scores)
    write_ranking_csv(ranked, tmp_path / "ranking.csv")
    assert (tmp_path / "ranking.csv").read_text(encoding="utf-8") == one_string_ranking_csv(ranked)


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("scores", [SEVEN, {}], ids=["seven", "empty"])
def test_reputation_json_in_chunks_equals_json_dumps(tmp_path, monkeypatch, chunk, scores):
    monkeypatch.setattr(rank, "_CHUNK_ROWS", chunk)
    state = state_from_scores(scores)
    window, params = TimeWindow(start=3, end=10**30), RankParams(norm_mode="max")
    write_reputation_json(state, window, params, tmp_path / "reputation.json")
    snapshot = {**reputation_snapshot(state, window, params), "scores": dict(state.scores)}
    expected = json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "reputation.json").read_text(encoding="utf-8") == expected


@pytest.mark.parametrize("chunk", CHUNKS)
def test_reputation_json_with_nan_in_its_last_chunk_leaves_no_file(tmp_path, monkeypatch, chunk):
    # "g" sorts last, so every chunk before its own is written when it raises.
    monkeypatch.setattr(rank, "_CHUNK_ROWS", chunk)
    state = state_from_scores({**SEVEN, "g": math.nan})
    with pytest.raises(ValueError):
        write_reputation_json(state, TimeWindow(), RankParams(), tmp_path / "reputation.json")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_json_writers_refuse_a_number_json_cannot_hold(tmp_path, value):
    # json writes these as Infinity, -Infinity and NaN, which no JSON parser need accept.
    with pytest.raises(ValueError):
        ingest.write_json(tmp_path / "x.json", {"x": value})
    for scores, delta in (({"a": value}, 0.0), ({"a": 1.0}, value)):
        state = state_from_scores(scores, final_delta=delta)
        with pytest.raises(ValueError):
            write_reputation_json(state, TimeWindow(), RankParams(), tmp_path / "r.json")
    assert list(tmp_path.iterdir()) == []


def test_write_atomic_renames_at_once_outside_write_together(tmp_path):
    with write_atomic(tmp_path / "a.txt") as fh:
        fh.write("a")
    assert (tmp_path / "a.txt").read_text() == "a"


def test_write_together_renames_every_file_at_its_end_or_none(tmp_path):
    with write_together():
        for name in ("a.txt", "b.txt"):
            with write_atomic(tmp_path / name) as fh:
                fh.write("new " + name)
        with write_together():  # a nested block joins the outer one
            with write_atomic(tmp_path / "a.txt") as fh:
                fh.write("newer a.txt")
        assert sorted(p.name for p in tmp_path.iterdir()) == [f".{n}.{os.getpid():010d}.tmp" for n in ("a.txt", "b.txt")]
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == {"a.txt": "newer a.txt", "b.txt": "new b.txt"}

    with pytest.raises(OSError):
        with write_together():
            with write_atomic(tmp_path / "a.txt") as fh:
                fh.write("lost")
            with write_atomic(tmp_path / "c.txt") as fh:
                raise OSError("disk full")
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == {"a.txt": "newer a.txt", "b.txt": "new b.txt"}
