"""The column sidecar that ingest writes beside interactions.csv: rank loads
from it the very columns the CSV reader returns, and passes over a sidecar
that is stale, truncated, foreign or corrupt for the CSV, or whose columns
fail the CSV's own checks, with the same artifacts and never a traceback."""

import hashlib
import json
import shutil
import struct
import tempfile
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liquidrank.cli import main
from liquidrank.ingest import (
    MAX_TIMESTAMP,
    SIDECAR_TAG,
    read_interaction_columns,
    read_interaction_sidecar,
    read_post_columns,
    sha256_digest,
    write_interaction_columns,
)

from test_acceptance import corpus_path  # noqa: F401  (the 37,615-post criterion-7 corpus)

ARTIFACTS = ("ranking_mentions.csv", "ranking_liquid.csv", "ranking_product.csv", "reputation.json")

POSTS = [
    {"author": "alice", "text": "great take @bob", "timestamp": 100},
    {"author": "bob", "text": "@alice @Alice always on point", "timestamp": 200},
    {"author": "carol", "text": "reading @alice and @bob", "timestamp": 400},
    {"author": "dave", "text": "@carol @bob", "timestamp": 500},
]


def sidecar_columns(path: Path):
    return read_interaction_sidecar(path, sha256_digest(path))


def assert_same_columns(got, want):
    assert got is not None
    assert got.handles == want.handles
    for column, expected, dtype in zip(got[1:], want[1:], (np.int32, np.int32, np.int64)):
        assert column.dtype == expected.dtype == dtype
        assert np.array_equal(column, expected)


def test_sidecar_equals_the_csv_on_the_acceptance_corpus(corpus_path, tmp_path):  # noqa: F811
    assert main(["ingest", "--input", str(corpus_path), "--out-dir", str(tmp_path)]) == 0
    path = tmp_path / "interactions.csv"
    assert_same_columns(sidecar_columns(path), read_interaction_columns(path))


def test_rank_with_and_without_the_sidecar_writes_the_same_artifacts(corpus_path, tmp_path):  # noqa: F811
    # The unbounded run keeps every row either way, so only the windowed one
    # compares the timestamps.
    csv = str(tmp_path / "in" / "interactions.csv")
    assert main(["ingest", "--input", str(corpus_path), "--out-dir", str(tmp_path / "in")]) == 0
    window = ["--window-start", "1600010000", "--window-end", "1600020000"]
    with_sidecar = [ranked(csv, str(tmp_path / "all")), ranked(csv, str(tmp_path / "window"), *window)]
    Path(f"{csv}.cols").unlink()
    assert [ranked(csv, str(tmp_path / "all")), ranked(csv, str(tmp_path / "window"), *window)] == with_sidecar


WORDS = ["@a", "@B", "@c_1", "@zz9", "x@y", "hi", "@" + "q" * 20]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    posts=st.lists(
        st.tuples(st.sampled_from(["a", "B", "c_1"]), st.lists(st.sampled_from(WORDS), max_size=4),
                  st.integers(0, MAX_TIMESTAMP)),
        max_size=12,
    )
)
def test_sidecar_equals_the_csv_on_generated_posts(posts):
    # Posts without mentions, or with self-mentions only, give zero interactions.
    text = "".join(json.dumps({"author": a, "text": " ".join(words), "timestamp": ts}) + "\n" for a, words, ts in posts)
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "posts.jsonl").write_text(text, encoding="utf-8")
        columns, _, _ = read_post_columns(Path(tmp) / "posts.jsonl", "jsonl")
        path = Path(tmp) / "interactions.csv"
        write_interaction_columns(columns, path)
        assert_same_columns(sidecar_columns(path), read_interaction_columns(path))


def test_post_columns_are_arrays_of_the_sidecar_widths(text_file):
    # The sidecar is written from copies of these columns, so "i" must be
    # int32 and "q" int64 on every host that runs ingest.
    assert (array("i").itemsize, array("q").itemsize) == (4, 8)
    columns, _, _ = read_post_columns(text_file("".join(json.dumps(post) + "\n" for post in POSTS)), "jsonl")
    assert [column.typecode for column in columns[1:]] == ["i", "i", "q"]


@pytest.fixture
def ingested(tmp_path, monkeypatch):
    """out/ and other/ each hold an ingest's CSV and sidecar, of different posts."""
    monkeypatch.chdir(tmp_path)
    for name, posts in (("out", POSTS), ("other", POSTS[1:])):
        Path(f"{name}.jsonl").write_text("".join(json.dumps(p) + "\n" for p in posts), encoding="utf-8")
        assert main(["ingest", "--input", f"{name}.jsonl", "--out-dir", name]) == 0
    return tmp_path


def ranked(input_path: str, out_dir: str, *flags: str) -> dict[str, bytes]:
    assert main(["rank", "--input", input_path, "--out-dir", out_dir, *flags]) == 0
    return {name: (Path(out_dir) / name).read_bytes() for name in ARTIFACTS}


def csv_path_bytes(input_path: str) -> dict[str, bytes]:
    """The artifacts of the CSV alone: a copy of it without a sidecar."""
    shutil.copyfile(input_path, "plain.csv")
    return ranked("plain.csv", "plain")


def flip_payload_byte(sidecar: Path) -> None:
    data = bytearray(sidecar.read_bytes())
    data[-1] ^= 0x01
    sidecar.write_bytes(bytes(data))


def miscount_rows(sidecar: Path) -> None:
    """One row fewer in the header's last field, the row count: the payload
    and its digest still match, but the handle table would take 16 bytes of ids."""
    header, payload = sidecar.read_bytes().split(b"\n", 1)
    *fields, rows = header.split(b" ")
    sidecar.write_bytes(b" ".join([*fields, b"%d" % (int(rows) - 1)]) + b"\n" + payload)


def reseal(csv: Path, change) -> None:
    """Write the sidecar of ``csv`` again, holding the CSV's columns as
    ``change`` returns them, with its tag, digests and counts all correct."""
    handles, *numbers = read_interaction_columns(csv)
    handles, raters, ratees, stamps = change(handles, *(column.tolist() for column in numbers))
    payload = "".join(f"{handle}\n" for handle in handles).encode()
    payload += struct.pack(f"<{len(raters) + len(ratees)}i{len(stamps)}q", *raters, *ratees, *stamps)
    digests = f"{sha256_digest(csv)} sha256:{hashlib.sha256(payload).hexdigest()}"
    Path(f"{csv}.cols").write_bytes(f"{SIDECAR_TAG} {digests} {len(handles)} {len(raters)}\n".encode() + payload)


def test_reseal_writes_what_ingest_does(ingested):
    cols = Path("out/interactions.csv.cols")
    written = cols.read_bytes()
    reseal(Path("out/interactions.csv"), lambda *columns: columns)
    assert cols.read_bytes() == written


BREAKS = {
    "stale": lambda csv, cols: csv.write_text(csv.read_text() + "dave,alice,600\n"),
    "truncated": lambda csv, cols: cols.write_bytes(cols.read_bytes()[:-5]),
    "foreign": lambda csv, cols: shutil.copyfile("other/interactions.csv.cols", cols),
    "flipped": lambda csv, cols: flip_payload_byte(cols),
    "miscounted": lambda csv, cols: miscount_rows(cols),
    # Resealed, with the right digests and counts, over columns no CSV row
    # gives: the first row's rater named by a second copy of its handle, the
    # first row rating its own rater, the first row's timestamp below 0.
    "repeated_handle": lambda csv, cols: reseal(csv, lambda h, r, e, t: ([*h, h[r[0]]], [len(h), *r[1:]], e, t)),
    "self_rating": lambda csv, cols: reseal(csv, lambda h, r, e, t: (h, r, [r[0], *e[1:]], t)),
    "negative_timestamp": lambda csv, cols: reseal(csv, lambda h, r, e, t: (h, r, e, [-2, *t[1:]])),
}


@pytest.mark.parametrize("kind", BREAKS)
def test_rank_passes_over_a_broken_sidecar_for_the_csv(ingested, capsys, kind):
    csv, cols = Path("out/interactions.csv"), Path("out/interactions.csv.cols")
    assert_same_columns(sidecar_columns(csv), read_interaction_columns(csv))
    BREAKS[kind](csv, cols)
    assert sidecar_columns(csv) is None
    assert ranked(str(csv), "got") == csv_path_bytes(str(csv))
    assert capsys.readouterr().err == ""


def test_a_csv_copied_without_its_sidecar_ranks_the_same(ingested):
    assert ranked("out/interactions.csv", "got") == csv_path_bytes("out/interactions.csv")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    cut=st.one_of(st.none(), st.integers(0, 400)),
    flips=st.lists(st.tuples(st.integers(0, 400), st.integers(1, 255)), max_size=3),
    junk=st.binary(max_size=8),
)
def test_a_corrupt_sidecar_never_ends_in_a_traceback(cut, flips, junk):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "posts.jsonl").write_text("".join(json.dumps(p) + "\n" for p in POSTS), encoding="utf-8")
        assert main(["ingest", "--input", str(root / "posts.jsonl"), "--out-dir", str(root / "out")]) == 0
        csv, cols = root / "out" / "interactions.csv", root / "out" / "interactions.csv.cols"
        shutil.copyfile(csv, root / "plain.csv")
        data = bytearray(cols.read_bytes())
        for at, mask in flips:
            data[at % len(data)] ^= mask
        cols.write_bytes(bytes(data[:cut]) + junk)
        # A corruption that leaves the header's values, such as a space made
        # a tab, may leave the sidecar valid; then it holds the same columns.
        loaded = sidecar_columns(csv)
        if loaded is not None:
            assert_same_columns(loaded, read_interaction_columns(csv))
        outputs = {}
        for name in ("plain.csv", "out/interactions.csv"):
            out = root / f"ranked_{len(outputs)}"
            assert main(["rank", "--input", str(root / name), "--out-dir", str(out)]) == 0
            outputs[name] = [(out / artifact).read_bytes() for artifact in ARTIFACTS]
        assert outputs["plain.csv"] == outputs["out/interactions.csv"]
