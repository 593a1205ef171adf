"""Seeded end-to-end and per-layer benchmark of the liquidrank CLI pipeline.

    python3 perfbench/run.py --workload posts --seed 1 --seconds 36 --trace 0

Run from the repository root. The program is run from `src/` as separate CLI
processes, one command at a time, by a single client in a closed loop: each
command starts when the previous one has ended. One round times one
`--help` start and then runs every command of the workload once; rounds
repeat until `--seconds` have passed, and each metric is the median over
rounds. Every output is checked against the generator's tallies (checks.py). The last line of stdout is one JSON
object: end-to-end metrics with `--trace 0`, per-layer metrics with
`--trace 1`. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import workloads
from tracing import CLI_LAYERS, Tracer, traced_pass

ENTRY = "import sys; from liquidrank.cli import main; sys.exit(main())"
# Each command is started by a minimal launcher that forks it, waits and
# writes back its exit code, wall time and rusage. Linux carries a process's
# peak RSS across exec, so a command spawned straight from this process
# would report at least this process's own peak; the launcher's is ~10 MB.
LAUNCHER = """
import os, sys, time
result, argv = sys.argv[1], sys.argv[2:]
start = time.perf_counter()
pid = os.fork()
if pid == 0:
    try:
        os.execv(argv[0], argv)
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
with open(result, "w") as fh:
    fh.write(f"{os.waitstatus_to_exitcode(status)} {wall!r} {usage.ru_maxrss}")
"""
# Raised by a check that cannot read an output; the output is then wrong.
UNREADABLE = (OSError, ValueError, KeyError, IndexError)
LAYER_SECONDS = ("rank.first_cycle",) + CLI_LAYERS
LAYER_COUNTS = {
    "ingest.posts": "count", "ingest.malformed": "count", "ingest.records": "count",
    "ingest.bytes_in": "bytes", "ingest.bytes_out": "bytes",
    "graph.nodes": "count", "graph.edges": "count", "rank.iterations": "count",
}


@dataclass
class Op:
    kind: str
    wall_s: float
    rss_mb: float
    failed: bool = False
    problems: list[str] = field(default_factory=list)


class Cli:
    """Runs `liquidrank` commands from the checkout's `src/` as child processes."""

    def __init__(self, root: Path, logs: Path):
        self.root = root
        self.logs = logs
        paths = [str(root / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))

    def run(self, *args: object) -> tuple[int, float, float, str, str]:
        """(exit code, wall seconds, peak RSS in MB, stdout, stderr) of one command."""
        out_path, err_path, result = self.logs / "stdout.txt", self.logs / "stderr.txt", self.logs / "rusage.txt"
        argv = [sys.executable, "-S", "-c", LAUNCHER, result, sys.executable, "-c", ENTRY, *map(str, args)]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root,
                                    start_new_session=True)
            try:
                proc.wait()
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
        if proc.returncode != 0:
            raise RuntimeError(f"launcher exited {proc.returncode}")
        code, wall, maxrss_kb = result.read_text().split()
        return (int(code), float(wall), int(maxrss_kb) / 1024,
                out_path.read_text(encoding="utf-8", errors="replace"),
                err_path.read_text(encoding="utf-8", errors="replace"))


def start_cli(cli: Cli) -> float:
    """Wall time of one cold `liquidrank --help`: the start every command pays."""
    code, wall, _, stdout, _ = cli.run("--help")
    if code != 0 or "usage:" not in stdout:
        raise RuntimeError(f"`liquidrank --help` exited {code}")
    return wall


def command(cli: Cli, kind: str, args: list, check) -> Op:
    """Run one command and check its outputs; `check(stderr)` returns
    (problems, fault) where a fault marks the operation as failed."""
    code, wall, rss, _, stderr = cli.run(*args)
    op = Op(kind, wall, rss)
    if code != 0:
        op.failed = True
        print(f"{kind}: exit {code}: {stderr.strip()[-300:]}", file=sys.stderr)
        return op
    try:
        op.problems, fault = check(stderr)
    except UNREADABLE as exc:
        op.problems, fault = [f"{kind}: unreadable output ({exc!r})"], None
    if fault:
        op.failed = True
        print(f"failed: {fault}", file=sys.stderr)
    return op


def pipeline(cli: Cli, w: workloads.Workload, out: Path, expected: list, digest: str) -> list[Op]:
    """One round: ingest, every rank run, then evaluate and report."""
    out.mkdir(parents=True)
    ops = [command(cli, "ingest", ["ingest", "--input", w.input_path, "--out-dir", out],
                   lambda err: (checks.check_ingest(w, out, err, digest), None))]
    for exp in expected:
        run_out = out / exp.run.name
        ops.append(command(cli, "rank", ["rank", "--input", out / "interactions.csv", "--out-dir", run_out,
                                         *exp.run.flags],
                           lambda err, exp=exp, run_out=run_out: checks.check_rank(w, exp, run_out)))
    evaluated = out / w.evaluated
    rankings = [evaluated / f"ranking_{m}.csv" for m in checks.METHODS]
    ops.append(command(cli, "evaluate", ["evaluate", *rankings, "--judgments", w.judgments_path,
                                         "--k", workloads.K, "--out-dir", evaluated],
                       lambda err: (checks.check_evaluate(w, evaluated), None)))
    ops.append(command(cli, "report", ["report", *rankings, "--k", workloads.K, "--out-dir", evaluated],
                       lambda err: (checks.check_report(evaluated), None)))
    return ops


def end_to_end(ops: list[Op]) -> dict[str, float]:
    """Wall times of one round, summed per kind of command, and peak RSS."""
    metrics = {"pipeline_s": sum(op.wall_s for op in ops)}
    for kind in ("ingest", "rank", "evaluate", "report"):
        metrics[f"{kind}_s"] = sum(op.wall_s for op in ops if op.kind == kind)
    metrics["ingest_rss_mb"] = max(op.rss_mb for op in ops if op.kind == "ingest")
    metrics["rank_rss_mb"] = max(op.rss_mb for op in ops if op.kind == "rank")
    return metrics


def per_layer(tracer: Tracer, ops: list[Op], setup_s: float) -> dict[str, float]:
    metrics = {f"{name}_s": tracer.total(name) for name in LAYER_SECONDS}
    metrics.update({name: float(tracer.counts.get(name, 0)) for name in LAYER_COUNTS})
    metrics["graph.records_kept"] = tracer.counts["graph.kept"] / tracer.counts["graph.read"]
    metrics["cli.overhead_s"] = (sum(op.wall_s for op in ops) - len(ops) * setup_s
                                 - sum(tracer.total(name) for name in CLI_LAYERS))
    return metrics


def units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name == "graph.records_kept":
        return "ratio"
    return LAYER_COUNTS[name]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "liquidrank" / "cli.py").is_file():
        print(f"error: no liquidrank sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.trace:
        sys.path.insert(0, str(root / "src"))

    work = Path(__file__).resolve().parent / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        (work / "in").mkdir(parents=True)
        w = workloads.GENERATORS[args.workload](args.seed, work / "in")
        expected = [checks.expected_rank(w, run) for run in w.ranks]
        digest = checks.expected_interactions_digest(w)
        cli = Cli(root, work)

        start_cli(cli)  # the first start compiles the sources and is not timed
        setup: list[float] = []

        rounds: list[dict[str, float]] = []
        attempted = failed = 0
        problems: list[str] = []
        deadline = time.perf_counter() + args.seconds
        while True:
            setup.append(start_cli(cli))
            setup_s = statistics.median(setup)
            out = work / f"round{len(rounds)}"
            ops = pipeline(cli, w, out / "cli", expected, digest)
            print(" ".join(f"{op.kind}={op.wall_s:.3f}" for op in ops), file=sys.stderr)
            attempted += len(ops)
            failed += sum(op.failed for op in ops)
            problems += [p for op in ops for p in op.problems]
            if args.trace:
                # Leave this process's own objects out of the traced pass's
                # garbage collections, as in a fresh CLI process.
                gc.freeze()
                tracer = Tracer()
                traced_pass(w, out / "traced", tracer)
                rounds.append(per_layer(tracer, ops, setup_s))
                # Tracing overhead: the traced pass against the untraced one,
                # both without process starts and the extra first-cycle call.
                traced = sum(tracer.total(f"cmd.{kind}") for kind in ("ingest", "rank", "evaluate", "report"))
                print(f"untraced pass {sum(op.wall_s for op in ops) - len(ops) * setup_s:.3f} s, "
                      f"traced pass {traced - tracer.total('rank.first_cycle'):.3f} s", file=sys.stderr)
            else:
                rounds.append(end_to_end(ops))
                rounds[-1]["setup_s"] = setup[-1]
            shutil.rmtree(out)
            if time.perf_counter() >= deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in dict.fromkeys(problems):
        print(f"incorrect: {problem}", file=sys.stderr)
    metrics = {name: {"value": statistics.median(r[name] for r in rounds), "unit": units(name)}
               for name in rounds[0]}
    print(f"{len(rounds)} round(s), {attempted} operations, {failed} failed", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
