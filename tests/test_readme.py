"""The README's Quick start and library example run as written and its Knobs
table gives the parser's defaults, so none of them can drift from the package."""

import re
import shlex
from pathlib import Path

import pytest

from liquidrank.cli import build_parser, main
from liquidrank.graph import TimeWindow
from liquidrank.rank import RankParams

README = Path(__file__).resolve().parents[1] / "README.md"

TWEETS = (
    '{"author": "alice", "text": "great take @bob", "timestamp": 100}\n'
    '{"author": "bob", "text": "@alice always on point", "timestamp": 200}\n'
)


def test_library_example_runs(tmp_path, monkeypatch):
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tweets.jsonl").write_text(TWEETS, encoding="utf-8")
    namespace: dict = {}
    exec(compile(code, f"{README}:Library", "exec"), namespace)
    assert namespace["post_count"] == 2
    assert sorted(namespace["ranking"].nodes) == ["alice", "bob"]
    assert namespace["report"].relevant_total == 1


def test_quick_start_runs(tmp_path, monkeypatch):
    quick = README.read_text(encoding="utf-8").split("\n## Quick start (CLI)\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", quick, re.S).group(1)
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line and not line.startswith("#")]
    assert [line.split()[:2] for line in lines] == [["liquidrank", c] for c in ("ingest", "rank", "evaluate", "report")]
    monkeypatch.chdir(tmp_path)
    three = TWEETS + '{"author": "carol", "text": "@alice and @bob", "timestamp": 300}\n'
    (tmp_path / "tweets.jsonl").write_text(three, encoding="utf-8")
    (tmp_path / "judgments.csv").write_text("node,grade\nalice,2\nbob,1\ncarol,0\n", encoding="utf-8")
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
    assert (tmp_path / "out" / "chart_liquid.svg").exists()


# The Knobs table's defaults that are words, as the values argparse holds.
DEFAULT_WORDS = {"off": False}
# What each command needs besides its options.
OPERANDS = {"ingest": ["--input", "t.jsonl"], "rank": [], "evaluate": ["r.csv", "--judgments", "j.csv"], "report": ["r.csv"]}


def _help(parser, command: str, capsys) -> str:
    """``command``'s --help text, its whitespace runs made single spaces."""
    with pytest.raises(SystemExit):
        parser.parse_args([command, "--help"])
    return " ".join(capsys.readouterr().out.split())


def test_knobs_table_gives_each_flags_default(capsys):
    knobs = README.read_text(encoding="utf-8").split("\n### Knobs\n\n", 1)[1].split("\n\n", 1)[0]
    parser = build_parser()
    # %(default)s in a help text is only formatted here.
    helps = {command: _help(parser, command, capsys) for command in OPERANDS}
    rows = [[cell.strip().strip("`") for cell in row.strip("|").split(" | ")] for row in knobs.splitlines()[2:]]
    assert rows
    for flag, commands, default, _ in rows:
        for command in OPERANDS if commands == "all" else commands.replace("`", "").split(", "):
            parsed = parser.parse_args([command, *OPERANDS[command]])
            if default in DEFAULT_WORDS:
                assert getattr(parsed, flag[2:].replace("-", "_")) is DEFAULT_WORDS[default], (command, flag)
            else:
                # Giving the documented default parses the same as giving nothing.
                assert parser.parse_args([command, *OPERANDS[command], flag, default]) == parsed, (command, flag)
            if default != "off":
                assert f"(default: {default})" in helps[command], (command, flag)
    # rank without flags runs the library's defaults.
    args = parser.parse_args(["rank"])
    assert RankParams(args.epsilon, args.max_iters, args.alpha, args.norm) == RankParams()
    assert TimeWindow(args.window_start, args.window_end) == TimeWindow()
