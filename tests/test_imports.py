"""The package imports only the stdlib; numpy loads inside the reputation
loop alone, so ingest, evaluate and report run without it, and nothing needs
scipy. Each check runs in a fresh interpreter, since this test process has
long since imported numpy. The same way, `python -m liquidrank.cli` exits
with main's return."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from liquidrank.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

PAIRS = "rater,ratee,timestamp\na,b,1\nb,c,2\nc,a,3\na,c,4\n"

NO_SCIPY = "import sys; sys.modules['scipy'] = None; from liquidrank.cli import main; sys.exit(main())"
NO_NUMPY = "import sys; sys.modules['numpy'] = None; from liquidrank.cli import main; sys.exit(main())"


def _python(*args: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )


def test_import_loads_neither_numpy_nor_scipy():
    probe = (
        "import sys, liquidrank, liquidrank.cli; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] in ('numpy', 'scipy')))"
    )
    result = _python("-c", probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [["--help"], ["rank", "--input", "pairs.csv"]])
def test_cli_runs_without_scipy(tmp_path, argv):
    (tmp_path / "pairs.csv").write_text(PAIRS, encoding="utf-8")
    result = _python("-c", NO_SCIPY, *argv, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    if argv[0] == "rank":
        assert (tmp_path / "out" / "ranking_liquid.csv").read_text().startswith("rank,node,score,method\n")


@pytest.mark.parametrize(
    "name, text",
    [
        ("posts.jsonl", '{"author": "a", "text": "@b @A", "timestamp": 1}\n'),
        ("posts.csv", "author,text,timestamp\na,@b @A,1\n"),
    ],
)
def test_ingest_runs_without_numpy(tmp_path, name, text):
    (tmp_path / name).write_text(text, encoding="utf-8")
    result = _python("-c", NO_NUMPY, "ingest", "--input", name, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "out" / "interactions.csv").read_text() == "rater,ratee,timestamp\na,b,1\n"


def test_evaluate_and_report_run_without_numpy(tmp_path):
    (tmp_path / "ranking.csv").write_text("rank,node,score,method\n1,a,2,liquid\n2,b,1,liquid\n", encoding="utf-8")
    (tmp_path / "judgments.csv").write_text("node,grade\na,1\nb,0\n", encoding="utf-8")
    for argv in (
        ["evaluate", "ranking.csv", "--judgments", "judgments.csv"],
        ["report", "ranking.csv"],
        ["report", "ranking.csv", "--format", "svg"],
    ):
        result = _python("-c", NO_NUMPY, *argv, cwd=tmp_path)
        assert result.returncode == 0, (argv, result.stderr)
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "chart_liquid.svg", "chart_liquid.txt", "manifest.json", "report_liquid.json"
    ]


@pytest.mark.parametrize("name, code", [("pairs.csv", 0), ("missing.csv", 1)])
def test_module_exits_with_mains_return(tmp_path, monkeypatch, name, code):
    (tmp_path / "pairs.csv").write_text(PAIRS, encoding="utf-8")
    result = _python("-m", "liquidrank.cli", "rank", "--input", name, "--out-dir", "module", cwd=tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["rank", "--input", name, "--out-dir", "main"]) == code
    assert result.returncode == code, result.stderr
