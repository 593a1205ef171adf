"""Reference checks of the CLI's outputs against the generator's tallies.

Nothing here imports the program: every expected value is computed from the
mentions the generator planted (`workloads.Workload`), with numpy and scipy,
or from the definitions of the metrics. Each check returns a list of problems;
an empty list means the output passed.

`check_rank` also returns the fixed-point residual problem on its own,
because it is the one property the program is known to miss today; the
benchmark counts it as a failed operation (see README.md).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix

from workloads import K, RankRun, Workload

METHODS = ("mentions", "liquid", "product")
# A converged run at an absolute stop rule epsilon has an absolute residual
# below epsilon/alpha (README.md, "Residual tolerance"); the relative check
# accepts that rule wherever the top score holds at least 1% of the mass.
RESIDUAL_FACTOR = 100.0
REL_TOL = 1e-9


@dataclass
class Expected:
    """What one `rank` command must produce, from the generator's mentions."""

    run: RankRun
    node_ids: np.ndarray          # sorted ids of the nodes in the window
    inflow: np.ndarray            # mentions received, indexed by node id
    edges: int
    operator: csr_matrix          # inflow[j] = sum_i R_i * count(i -> j)


def expected_rank(w: Workload, run: RankRun) -> Expected:
    keep = (w.ts >= run.start) & (w.ts < run.end)
    rater, ratee = w.rater[keep], w.ratee[keep]
    n = len(w.names)
    pairs = np.unique(rater * n + ratee)
    op = csr_matrix((np.ones(rater.size), (ratee, rater)), shape=(n, n))
    return Expected(
        run=run,
        node_ids=np.union1d(rater, ratee),
        inflow=np.bincount(ratee, minlength=n),
        edges=int(pairs.size),
        operator=op,
    )


def expected_interactions_digest(w: Workload) -> str:
    """sha256 of the interaction CSV the planted mentions must produce: one
    row per non-self mention, in post order, then mention order."""
    names = w.names
    body = "".join(
        f"{names[a]},{names[b]},{t}\n"
        for a, b, t in zip(w.rater.tolist(), w.ratee.tolist(), w.ts.tolist())
    )
    return hashlib.sha256(("rater,ratee,timestamp\n" + body).encode("utf-8")).hexdigest()


def _manifest(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text(encoding="utf-8"))


def _ranking(path: Path) -> tuple[list[str], np.ndarray, list[str]]:
    """(nodes, scores, raw score strings) of a ranking CSV; checks its framing."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["rank", "node", "score", "method"]:
        raise ValueError(f"{path.name}: header {rows[0]}")
    body = rows[1:]
    method = path.stem.removeprefix("ranking_")
    for pos, row in enumerate(body, start=1):
        if len(row) != 4 or row[0] != str(pos) or row[3] != method:
            raise ValueError(f"{path.name}: row {pos} is {row}")
    return [r[1] for r in body], np.array([float(r[2]) for r in body]), [r[2] for r in body]


def _ordered(nodes: list[str], scores: np.ndarray, full: np.ndarray | None = None, slack: float = 0.0) -> bool:
    """Scores never rise down the list, and equal scores list nodes ascending.

    The CSV prints 12 significant digits, so two scores a few ulps apart can
    print alike while the program rightly orders them by their full values.
    `full` holds those values (or a recomputation within `slack`, relative);
    a printed tie out of name order passes where they strictly descend.
    """
    drops = scores[1:] < scores[:-1]
    ties = scores[1:] == scores[:-1]
    names_up = np.array([a < b for a, b in zip(nodes, nodes[1:])], dtype=bool)
    ok = drops | (ties & names_up)
    if full is not None:
        ok |= ties & (full[:-1] * (1 + slack) > full[1:])
    return bool(np.all(ok))


def _close(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= REL_TOL * np.abs(want) + 1e-300))


def check_ingest(w: Workload, out: Path, stderr: str, digest: str) -> list[str]:
    problems = []
    stage = _manifest(out)["stages"]["ingest"]
    for key, want in (("tweet_count", w.posts), ("malformed_count", w.malformed), ("record_count", len(w.rater))):
        if stage.get(key) != want:
            problems.append(f"ingest: manifest {key} {stage.get(key)} != {want}")
    skipped = sum(1 for line in stderr.splitlines() if line.startswith("warning:") and "skipped" in line)
    if skipped != w.malformed:
        problems.append(f"ingest: {skipped} skip warnings for {w.malformed} planted malformed lines")
    got = hashlib.sha256((out / "interactions.csv").read_bytes()).hexdigest()
    if got != digest:
        problems.append("ingest: interactions.csv differs from the planted mentions")
    return problems


def check_rank(w: Workload, exp: Expected, out: Path) -> tuple[list[str], str | None]:
    """Returns (problems, residual problem or None)."""
    problems: list[str] = []
    names = w.names
    window_nodes = [names[i] for i in exp.node_ids.tolist()]
    stage = _manifest(out)["stages"]["rank"]
    for key, want in (("record_count", len(w.rater)), ("node_count", len(window_nodes)), ("edge_count", exp.edges)):
        if stage.get(key) != want:
            problems.append(f"rank {exp.run.name}: manifest {key} {stage.get(key)} != {want}")

    rankings = {m: _ranking(out / f"ranking_{m}.csv") for m in METHODS}
    for method, (nodes, scores, _) in rankings.items():
        if sorted(nodes) != sorted(window_nodes):
            problems.append(f"rank {exp.run.name}: {method} ranking covers other nodes than the window")
            return problems, None

    index = {name: i for i, name in enumerate(names)}
    nodes, scores, _ = rankings["mentions"]
    ids = np.array([index[n] for n in nodes])
    if not _ordered(nodes, scores):
        problems.append(f"rank {exp.run.name}: mentions ranking is out of order")
    if not np.array_equal(scores, exp.inflow[ids].astype(float)):
        problems.append(f"rank {exp.run.name}: mention scores differ from planted in-degrees")

    state = json.loads((out / "reputation.json").read_text(encoding="utf-8"))
    if sorted(state["scores"]) != sorted(window_nodes):
        problems.append(f"rank {exp.run.name}: reputation.json covers other nodes than the window")
        return problems, None
    rep = np.zeros(len(names))
    rep[[index[n] for n in state["scores"]]] = list(state["scores"].values())
    top = float(rep.max())
    norm = float(rep.sum()) if exp.run.norm == "l1" else top
    if abs(norm - 1.0) > 1e-9:
        problems.append(f"rank {exp.run.name}: liquid {exp.run.norm} norm is {norm!r}, not 1")
    nodes, scores, _ = rankings["liquid"]
    ids = np.array([index[n] for n in nodes])
    if not _ordered(nodes, scores, rep[ids]):
        problems.append(f"rank {exp.run.name}: liquid ranking is out of order")
    if not _close(scores, rep[ids]):
        problems.append(f"rank {exp.run.name}: ranking_liquid.csv disagrees with reputation.json")

    share = exp.inflow / exp.inflow.sum()
    nodes, scores, _ = rankings["product"]
    ids = np.array([index[n] for n in nodes])
    product = share[ids] * rep[ids]
    if not _ordered(nodes, scores, product, slack=1e-12):
        problems.append(f"rank {exp.run.name}: product ranking is out of order")
    if not _close(scores, product):
        problems.append(f"rank {exp.run.name}: product scores differ from mention share x liquid score")

    if w.spam_targets:
        top_mentions = set(rankings["mentions"][0][:K])
        top_liquid = set(rankings["liquid"][0][:K])
        for target in w.spam_targets:
            if target not in top_mentions or target in top_liquid:
                problems.append(f"rank {exp.run.name}: spam target {target} not promoted by mentions and demoted by liquid")

    flow = exp.operator @ rep
    flow = flow / (flow.sum() if exp.run.norm == "l1" else flow.max())
    residual = float(np.max(np.abs(flow - rep)[exp.node_ids]) / top)
    tolerance = RESIDUAL_FACTOR * exp.run.epsilon / exp.run.alpha
    fault = None
    if not state["converged"]:
        problems.append(f"rank {exp.run.name}: liquid loop did not converge")
    elif residual > tolerance:
        fault = (f"rank {exp.run.name}: converged after {state['iterations']} iteration(s) but the "
                 f"relative fixed-point residual is {residual:.3g} > {tolerance:.3g}")
    return problems, fault


def _reference_metrics(flags: list[bool], k: int) -> tuple[float, float, float, int]:
    """P@k, AP@k and RR from their definitions, over relevance flags in rank order."""
    cut = flags[: min(k, len(flags))]
    hits = [pos for pos, rel in enumerate(cut, start=1) if rel]
    precision = len(hits) / len(cut)
    ap = sum(n / pos for n, pos in enumerate(hits, start=1)) / len(hits) if hits else 0.0
    first = next((pos for pos, rel in enumerate(flags, start=1) if rel), None)
    return precision, ap, (1.0 / first if first else 0.0), len(hits)


def check_evaluate(w: Workload, out: Path) -> list[str]:
    problems = []
    relevant_total = sum(1 for g in w.grades.values() if g >= 2)
    for method in METHODS:
        nodes, _, _ = _ranking(out / f"ranking_{method}.csv")
        flags = [w.grades.get(n, 0) >= 2 for n in nodes]
        p, ap, rr, found = _reference_metrics(flags, K)
        report = json.loads((out / f"report_{method}.json").read_text(encoding="utf-8"))
        want = {"method": method, "k": K, "relevant_found": found, "relevant_total": relevant_total}
        for key, value in want.items():
            if report.get(key) != value:
                problems.append(f"evaluate: {method} {key} {report.get(key)!r} != {value!r}")
        for key, value in (("precision", p), ("average_precision", ap), ("reciprocal_rank", rr)):
            if not math.isclose(report.get(key, math.nan), value, rel_tol=1e-12, abs_tol=1e-12):
                problems.append(f"evaluate: {method} {key} {report.get(key)!r} != {value!r}")
    return problems


def check_report(out: Path) -> list[str]:
    problems = []
    for method in METHODS:
        nodes, scores, raw = _ranking(out / f"ranking_{method}.csv")
        chart = out / f"chart_{method}.txt"
        if not chart.is_file():
            problems.append(f"report: no chart for {method}")
            continue
        lines = chart.read_text(encoding="utf-8").splitlines()
        shown = min(K, len(nodes))
        if lines[0] != f"{method}: top {shown} of {len(nodes)}" or len(lines) != shown + 1:
            problems.append(f"report: chart_{method}.txt heading {lines[0]!r} or length {len(lines)}")
            continue
        peak = scores[:shown].max()
        for pos, line in enumerate(lines[1:], start=1):
            parts = line.split()
            bar = parts[2] if len(parts) == 4 else ""
            want_bar = 40 * scores[pos - 1] / peak if peak > 0 else 0
            if (parts[0], parts[1], parts[-1]) != (str(pos), nodes[pos - 1], raw[pos - 1]) \
                    or set(bar) - {"#"} or abs(len(bar) - want_bar) > 0.5 + 1e-9:
                problems.append(f"report: chart_{method}.txt line {pos} is {line!r}")
                break
    return problems
