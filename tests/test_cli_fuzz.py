"""Fuzz the CLI in-process: whatever bytes its input files hold, whatever
values its flags take and whatever JSON an earlier run's manifest holds,
every command ends in one of the four exit codes, never in a traceback, and
leaves no temporary file behind."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from liquidrank.cli import main


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
# Values most flags reject, or that overflow a float; 10**400 is an integer
# that no float can hold.
bad_values = st.sampled_from(["-1", "nan", "inf", "1e999", "x", "1" + "0" * 400])


def option(flag: str, valid: st.SearchStrategy) -> st.SearchStrategy:
    """``flag`` and its value, mostly drawn from ``valid``."""
    return mostly(valid.map(str), bad_values).map(lambda value: [flag, value])


def flag_lists(*options: st.SearchStrategy) -> st.SearchStrategy:
    """Up to three of a command's own flags, in any order."""
    return st.lists(st.one_of(*options), max_size=3).map(lambda drawn: [arg for flag in drawn for arg in flag])


ingest_flags = flag_lists(st.just(["--strict"]), option("--format", st.sampled_from(["jsonl", "csv"])))
rank_flags = flag_lists(
    option("--window-start", st.integers(-1, 10)),
    option("--window-end", st.one_of(st.integers(0, 10), st.floats(0, 10), st.just(10**400))),
    option("--epsilon", st.floats(1e-9, 1)),
    option("--alpha", st.floats(0, 1)),
    option("--norm", st.sampled_from(["l1", "max"])),
)
k_flag = option("--k", st.integers(1, 5))
evaluate_flags = flag_lists(k_flag)
report_flags = flag_lists(k_flag, option("--format", st.sampled_from(["txt", "svg"])))

# The manifest.json an earlier run left in the out dir, if any: an object
# whose sections may each be of any JSON type.
sections = st.fixed_dictionaries({}, optional=dict.fromkeys(["stages", "outputs", "timings_ms"], json_values))
manifests = st.one_of(st.none(), sections)


def _run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stderr of one command; an argparse usage error is its
    SystemExit's code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


# No shrink phase: each example runs six commands, and shrinking a failing
# one took minutes, so a failure is reported as it was found.
@settings(
    max_examples=60,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
)
@given(
    jsonl=posts_jsonl,
    csv=posts_csv,
    interactions=interactions,
    ranking=mostly(rankings.map(consecutive_ranks), rankings),
    judgments=judgments,
    flags=st.tuples(ingest_flags, ingest_flags, ingest_flags, rank_flags, evaluate_flags, report_flags),
    manifest=manifests,
)
def test_cli_never_ends_in_a_traceback(jsonl, csv, interactions, ranking, judgments, flags, manifest):
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
        if manifest is not None:
            (root / "out").mkdir()
            (root / "out" / "manifest.json").write_text(json.dumps(manifest))
        # The fixed flags come last, so they win over the drawn ones: the
        # out dir stays inside the temporary directory, and the iteration
        # cap stays small.
        out = ["--out-dir", str(root / "out")]
        commands = [
            (["ingest", "--input", str(root / "posts.jsonl")], out),
            (["ingest", "--input", str(root / "posts.csv"), "--strict"], out),
            (["ingest", "--input", str(root / "posts.csv")], out),
            (["rank", "--input", str(root / "interactions.csv")], out + ["--max-iters", "50"]),
            (["evaluate", str(root / "ranking.csv"), "--judgments", str(root / "judgments.csv")], out),
            (["report", str(root / "ranking.csv")], out),
        ]
        for (command, fixed), drawn in zip(commands, flags):
            command = command + drawn + fixed
            code, err = _run(command)
            assert code in (0, 1, 2, 3), (command, code, err)
            assert "Traceback" not in err, (command, err)
        leftovers = list((root / "out").glob(".*.tmp")) if (root / "out").exists() else []
        assert not leftovers
