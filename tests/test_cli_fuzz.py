"""Fuzz the CLI in-process: whatever bytes its input files hold and whatever
JSON its config file and an earlier run's manifest hold, every command ends
in one of the four exit codes, never in a traceback, and leaves no temporary
file behind."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from liquidrank.cli import _CONFIG_KEYS, main


def mostly(valid: st.SearchStrategy, invalid: st.SearchStrategy) -> st.SearchStrategy:
    """``valid`` about seven times in eight, else ``invalid``."""
    return st.integers(0, 7).flatmap(lambda roll: invalid if roll == 7 else valid)


bad_handles = st.sampled_from(["D", "a b", "", "x" * 16])
handles = mostly(st.sampled_from(["a", "b", "c"]), bad_handles)
numbers = mostly(st.integers(0, 9), st.one_of(st.integers(), st.floats(), st.sampled_from(["", "x", "1e3", "-inf"])))
noise = st.one_of(st.binary(max_size=12), st.sampled_from([b'"', b"\r", b"\xff", b",,", b"\n\n"]))


def csv_file(header: str, *columns: st.SearchStrategy) -> st.SearchStrategy:
    """Bytes of a CSV file: mostly the right header and rows of plausible
    cells, with now and then a cell too many or too few, or raw bytes."""
    row = st.tuples(*columns).map(lambda cells: ",".join(map(str, cells)).encode())
    lines = st.lists(mostly(row, noise), min_size=1, max_size=6)
    first = mostly(st.just(header.encode()), noise)
    return st.builds(lambda head, body: b"\n".join([head, *body]) + b"\n", first, lines)


def consecutive_ranks(data: bytes) -> bytes:
    """Number a ranking's rows 1, 2, ... so that more of them parse."""
    head, *rows = data.split(b"\n")
    return b"\n".join([head] + [b"%d," % i + row.partition(b",")[2] if row else row for i, row in enumerate(rows, 1)])


# Raters and ratees overlap in "a" alone, so that most rows have rater != ratee.
raters = mostly(st.sampled_from(["a", "b"]), bad_handles)
ratees = mostly(st.sampled_from(["c", "a", "d"]), bad_handles)
interactions = csv_file("rater,ratee,timestamp", raters, ratees, numbers)
rankings = csv_file("rank,node,score,method", numbers, handles, numbers, st.sampled_from(["liquid", "m", ""]))
graded = st.dictionaries(st.sampled_from(["a", "b", "c", "d"]), st.integers(0, 2), min_size=1)
judgments = mostly(
    graded.map(lambda grades: ("node,grade\n" + "".join(f"{n},{g}\n" for n, g in grades.items())).encode()),
    csv_file("node,grade", handles, numbers),
)
post = st.fixed_dictionaries(
    {},
    optional={
        "author": handles,
        "text": st.one_of(st.sampled_from(["@a @b", "@c hi", "x@y", "@" + "z" * 20]), st.text(max_size=8)),
        "timestamp": numbers,
    },
)
post_lines = st.lists(st.one_of(post.map(json.dumps), st.text(max_size=6)), max_size=6)
posts_jsonl = st.one_of(post_lines.map(lambda lines: "\n".join(lines).encode()), noise)
texts = st.sampled_from(["@a @b", '"@c, hi"', "x@y", '"a\nb @a"'])
posts_csv = csv_file("author,text,timestamp", handles, texts, numbers)
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6)),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8,
)
# 10**400 is an integer that no float can hold.
config_values = st.one_of(
    json_values, st.integers(-1, 3), st.floats(0, 2), st.sampled_from(["l1", "max", "csv", 10**400])
)
configs = st.one_of(
    st.none(),
    st.just({}),
    json_values,
    st.dictionaries(st.sampled_from(sorted(_CONFIG_KEYS)), config_values, max_size=3),
    st.dictionaries(st.text(max_size=4), json_values, max_size=2),
)

# The manifest.json an earlier run left in the out dir, if any: an object
# whose sections may each be of any JSON type.
sections = st.fixed_dictionaries({}, optional=dict.fromkeys(["stages", "outputs", "timings_ms"], json_values))
manifests = st.one_of(st.none(), sections)


def _run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=60, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    jsonl=posts_jsonl,
    csv=posts_csv,
    interactions=interactions,
    ranking=mostly(rankings.map(consecutive_ranks), rankings),
    judgments=judgments,
    config=configs,
    manifest=manifests,
)
def test_cli_never_ends_in_a_traceback(jsonl, csv, interactions, ranking, judgments, config, manifest):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, data in [
            ("posts.jsonl", jsonl),
            ("posts.csv", csv),
            ("interactions.csv", interactions),
            ("ranking.csv", ranking),
            ("judgments.csv", judgments),
        ]:
            (root / name).write_bytes(data)
        (root / "config.json").write_text(json.dumps(config))
        if manifest is not None:
            (root / "out").mkdir()
            (root / "out" / "manifest.json").write_text(json.dumps(manifest))
        # Flags win over the config file: the out dir and the inputs stay
        # inside the temporary directory, and the iteration cap stays small.
        shared = ["--out-dir", str(root / "out")]
        if config is not None:
            shared += ["--config", str(root / "config.json")]
        commands = [
            ["ingest", "--input", str(root / "posts.jsonl")],
            ["ingest", "--input", str(root / "posts.csv"), "--strict"],
            ["ingest", "--input", str(root / "posts.csv"), "--no-strict"],
            ["rank", "--input", str(root / "interactions.csv"), "--max-iters", "50"],
            ["evaluate", str(root / "ranking.csv"), "--judgments", str(root / "judgments.csv")],
            ["report", str(root / "ranking.csv")],
        ]
        for command in commands:
            code, err = _run(command + shared)
            assert code in (0, 1, 2, 3), (command, code, err)
            assert "Traceback" not in err, (command, err)
        leftovers = list((root / "out").glob(".*.tmp")) if (root / "out").exists() else []
        assert not leftovers
