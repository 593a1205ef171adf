"""The benchmark's traced pass, on tiny workloads: perfbench/tracing.py calls
the library the way the CLI does, and the benchmark's default run never does,
so a call that breaks it would otherwise show only in a traced benchmark run.
Each file it writes must hold the bytes the CLI writes at the same place.
perfbench/ is imported, never written to."""

import sys
from pathlib import Path

import pytest

from liquidrank.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ in perfbench/
    import tracing
    import workloads

    # The rerank generator reads its sizes from the module.
    monkeypatch.setattr(workloads, "RERANK_LINES", 600)
    monkeypatch.setattr(workloads, "RERANK_CHANNELS", 100)
    return workloads, tracing


@pytest.mark.parametrize(
    "name, sizes",
    [("posts", {"lines_total": 600, "channels": 100}), ("graph", {"nodes": 200, "edges": 800}), ("rerank", {})],
)
def test_traced_pass_records_every_command(perfbench, tmp_path, name, sizes):
    workloads, tracing = perfbench
    (tmp_path / "input").mkdir()
    w = workloads.GENERATORS[name](1, tmp_path / "input", **sizes)
    tracer = tracing.Tracer()
    tracing.traced_pass(w, tmp_path / "traced", tracer)
    commands = [span[0] for span in tracer.spans if span[0].startswith("cmd.")]
    assert commands == ["cmd.ingest", *["cmd.rank"] * len(w.ranks), "cmd.evaluate", "cmd.report"]

    # The CLI sequence in perfbench/run.py's pipeline order, in-process.
    out = tmp_path / "cli"
    evaluated = out / w.evaluated
    rankings = [evaluated / f"ranking_{m}.csv" for m in ("mentions", "liquid", "product")]
    argvs = [
        ["ingest", "--input", w.input_path, "--out-dir", out],
        *(["rank", "--input", out / "interactions.csv", "--out-dir", out / run.name, *run.flags] for run in w.ranks),
        ["evaluate", *rankings, "--judgments", w.judgments_path, "--k", workloads.K, "--out-dir", evaluated],
        ["report", *rankings, "--k", workloads.K, "--out-dir", evaluated],
    ]
    for argv in argvs:
        assert main([str(arg) for arg in argv]) == 0, argv[0]
    traced = sorted(p.relative_to(tmp_path / "traced") for p in (tmp_path / "traced").rglob("*") if p.is_file())
    # interactions.csv; three rankings and reputation.json per rank run; three reports and three charts
    assert len(traced) == 7 + 4 * len(w.ranks)
    for path in traced:
        assert (tmp_path / "traced" / path).read_bytes() == (out / path).read_bytes(), str(path)
