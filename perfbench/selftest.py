"""Self-test of the reference checks: they pass the program's real outputs
and reject each planted corruption of them.

    python3 perfbench/selftest.py

Run from the repository root. It runs the CLI on a small posts workload, so
it needs the program under `src/`. Exits 0 when every check behaves.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import checks
import workloads
from run import UNREADABLE, Cli, pipeline


def _swap_rows(path: Path, a: int, b: int, keep_rank: bool) -> None:
    """Swap data rows a and b (1-based) of a ranking CSV, whole or under fixed ranks."""
    lines = path.read_text(encoding="utf-8").splitlines()
    la, lb = lines[a].split(","), lines[b].split(",")
    if keep_rank:
        la[0], lb[0] = lb[0], la[0]
    lines[a], lines[b] = ",".join(lb), ",".join(la)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _scale_liquid(out: Path, factor: float, csv_too: bool) -> None:
    rep = out / "reputation.json"
    state = json.loads(rep.read_text(encoding="utf-8"))
    state["scores"] = {n: s * factor for n, s in state["scores"].items()}
    rep.write_text(json.dumps(state), encoding="utf-8")
    if csv_too:
        path = out / "ranking_liquid.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        rows = [line.split(",") for line in lines[1:]]
        body = [f"{r[0]},{r[1]},{float(r[2]) * factor!r},{r[3]}" for r in rows]
        path.write_text("\n".join(lines[:1] + body) + "\n", encoding="utf-8")


def _permute_liquid(out: Path) -> None:
    """Exchange the 1st and 10th reputation scores in both liquid artifacts:
    the norm and the order still hold, only the fixed-point residual can notice."""
    rep = out / "reputation.json"
    state = json.loads(rep.read_text(encoding="utf-8"))
    ranked = sorted(state["scores"].items(), key=lambda kv: (-kv[1], kv[0]))
    (a, sa), (b, sb) = ranked[0], ranked[9]
    state["scores"][a], state["scores"][b] = sb, sa
    rep.write_text(json.dumps(state), encoding="utf-8")
    path = out / "ranking_liquid.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    for i in (1, 10):
        rank, node, score, method = lines[i].split(",")
        lines[i] = f"{rank},{b if node == a else a},{score},{method}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _shift_ap(out: Path, delta: float) -> None:
    path = out / "report_liquid.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    report["average_precision"] += delta
    path.write_text(json.dumps(report), encoding="utf-8")


def _verdict(check) -> tuple[list[str], str | None]:
    try:
        return check()
    except UNREADABLE as exc:
        return [f"unreadable output ({exc!r})"], None


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "liquidrank" / "cli.py").is_file():
        print("error: run from the repository root", file=sys.stderr)
        return 2
    work = Path(__file__).resolve().parent / "_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    (work / "in").mkdir(parents=True)
    try:
        w = workloads.posts(7, work / "in", lines_total=4000, channels=300)
        expected = [checks.expected_rank(w, run) for run in w.ranks]
        ops = pipeline(Cli(root, work), w, work / "out", expected, checks.expected_interactions_digest(w))
        out = work / "out" / w.evaluated
        bad = [p for op in ops for p in op.problems] + [op.kind for op in ops if op.failed]
        print(f"{'ok  ' if not bad else 'FAIL'} real outputs pass every check {bad or ''}")
        failures = int(bool(bad))

        rank_check = lambda d: checks.check_rank(w, expected[0], d)
        cases = [
            ("two mention rows swapped", lambda d: _swap_rows(d / "ranking_mentions.csv", 2, 5, False), rank_check),
            ("two mention entries swapped under fixed ranks",
             lambda d: _swap_rows(d / "ranking_mentions.csv", 2, 5, True), rank_check),
            ("liquid scores scaled by 2", lambda d: _scale_liquid(d, 2.0, True), rank_check),
            ("reputation.json scores scaled by 2", lambda d: _scale_liquid(d, 2.0, False), rank_check),
            ("1st and 10th liquid scores exchanged", _permute_liquid,
             lambda d: ([], checks.check_rank(w, expected[0], d)[1])),
            ("report with AP off by 0.01", lambda d: _shift_ap(d, 0.01), lambda d: (checks.check_evaluate(w, d), None)),
        ]
        for name, corrupt, check in cases:
            copy = work / "mutant"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(out, copy)
            corrupt(copy)
            problems, fault = _verdict(lambda: check(copy))
            rejected = bool(problems or fault)
            failures += not rejected
            print(f"{'ok  ' if rejected else 'FAIL'} rejects {name}: {(problems or [fault])[0] if rejected else 'accepted'}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
