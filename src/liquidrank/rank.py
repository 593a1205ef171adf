"""The three rankings: raw mention counts, the reputation fixed point, and
their product, plus convergence control and ranking serialization.

The reputation score solves R_j = sum_i R_i * V_ij up to normalization: each
cycle pushes every node's current reputation along its outgoing mention
edges, normalizes the result, and blends it with the previous scores. The
blend (damping) is what makes the loop terminate on periodic graphs; with
alpha = 1 the loop degenerates to the bare propagate-and-normalize recipe,
which oscillates forever on e.g. asymmetric 2-cycles.

Update per cycle, with 0 < alpha <= 1:

    U_j  = sum_i R_i * T_ij      (T = V scaled by total weight; scale-free)
    W    = (1 - alpha) * R + alpha * (U / norm(U))
    R'   = W / norm(W)

norm is the L1 sum (norm_mode="l1") or the max entry (norm_mode="max"). The
trailing division keeps the chosen norm of the iterate at exactly 1; under
l1 it is a numerical no-op since W already sums to one. Fixed points are
exactly the normalized dominant eigenvectors of the inflow matrix, for any
alpha. Nodes nobody mentions lose reputation geometrically at rate
(1 - alpha) per cycle, which is what demotes spam raters and their targets.

The inflow U is computed without a matrix: edges are numbered by the
position of their endpoints in the sorted node table and ordered by
(rater, ratee) id, and each cycle is one ``np.bincount`` over the ratee ids
weighted by T_ij * R_i. Every node's inflow is therefore summed in ascending
rater order, the same order a CSR matrix-vector product uses.

numpy is imported inside the reputation loop only, so importing the package
(and starting the CLI for ingest, evaluate or report) loads the stdlib alone.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, TYPE_CHECKING, Mapping, NamedTuple

from .errors import DegenerateUpdate, EmptyGraph, FormatError, NodeSetMismatch
from .graph import RatingGraph, TimeWindow, in_weights

if TYPE_CHECKING:
    import numpy as np

METHOD_MENTIONS = "mentions"
METHOD_LIQUID = "liquid"
METHOD_PRODUCT = "product"

NORM_MODES = ("l1", "max")

RANKING_CSV_HEADER = ["rank", "node", "score", "method"]


@dataclass(frozen=True)
class RankParams:
    """Convergence knobs for the reputation loop.

    epsilon is the negligible-change threshold on the max componentwise
    score change per cycle; iteration stops below it (default 0.0001).
    """

    epsilon: float = 0.0001
    max_iters: int = 1000
    alpha: float = 0.5
    norm_mode: str = "l1"

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not 0 < self.alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.norm_mode not in NORM_MODES:
            raise ValueError(f"norm_mode must be one of {NORM_MODES}, got {self.norm_mode!r}")


@dataclass(frozen=True)
class ReputationState:
    """Final score vector plus convergence diagnostics."""

    scores: dict[str, float]
    iterations: int
    final_delta: float
    converged: bool


class RankEntry(NamedTuple):
    node: str
    score: float
    rank: int


@dataclass(frozen=True)
class RankedList:
    """Entries sorted by score descending, ties broken by node id ascending.

    Ranks run 1..N with no gaps; tied scores still get distinct consecutive
    ranks, so every list is totally ordered and deterministic.
    """

    method: str
    entries: tuple[RankEntry, ...] = field(default=())

    def __len__(self) -> int:
        return len(self.entries)

    def node_set(self) -> frozenset[str]:
        return frozenset(e.node for e in self.entries)

    def score_of(self, node: str) -> float:
        for e in self.entries:
            if e.node == node:
                return e.score
        raise KeyError(node)


def ranked_list_from_scores(method: str, scores: Mapping[str, float]) -> RankedList:
    ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    entries = tuple(RankEntry(node, float(score), rank) for rank, (node, score) in enumerate(ordered, start=1))
    return RankedList(method=method, entries=entries)


def mention_rank(graph: RatingGraph) -> RankedList:
    """Rank nodes by raw inbound mention count."""
    if graph.node_count == 0:
        raise EmptyGraph("mention ranking needs at least one node")
    return ranked_list_from_scores(METHOD_MENTIONS, {n: float(w) for n, w in in_weights(graph).items()})


def _norm(vec: np.ndarray, mode: str) -> float:
    return float(vec.sum()) if mode == "l1" else float(vec.max())


def _initial_vector(
    graph: RatingGraph,
    mode: str,
    initial: Mapping[str, float] | None,
) -> np.ndarray:
    import numpy as np

    n = graph.node_count
    if initial is None:
        return np.full(n, 1.0 / n) if mode == "l1" else np.ones(n)
    missing = [node for node in graph.nodes if node not in initial]
    if missing:
        raise ValueError(f"initial scores missing for node(s): {missing}")
    vec = np.array([float(initial[node]) for node in graph.nodes])
    if np.any(vec < 0) or not np.all(np.isfinite(vec)):
        raise ValueError("initial scores must be finite and non-negative")
    total = _norm(vec, mode)
    if total <= 0:
        raise ValueError("initial scores must not all be zero")
    return vec / total


def _inflow_edges(graph: RatingGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edges as (rater ids, ratee ids, T_ij), ordered by (rater id, ratee id).

    An id is the node's position in the sorted ``graph.nodes``. Weights are
    pre-divided by the total so the operator, and with it the whole iterate
    sequence, is untouched by any uniform rescaling of the edge counts.
    """
    import numpy as np

    index = {node: i for i, node in enumerate(graph.nodes)}
    m = graph.edge_count
    raters = np.fromiter((index[rater] for rater, _ in graph.edges), dtype=np.intp, count=m)
    ratees = np.fromiter((index[ratee] for _, ratee in graph.edges), dtype=np.intp, count=m)
    weights = np.fromiter(graph.edges.values(), dtype=np.float64, count=m)
    order = np.argsort(raters * graph.node_count + ratees, kind="stable")
    return raters[order], ratees[order], weights[order] / graph.total_weight()


def liquid_rank(
    graph: RatingGraph,
    params: RankParams = RankParams(),
    initial: Mapping[str, float] | None = None,
) -> ReputationState:
    """Iterate the damped propagate-and-normalize cycle to its fixed point.

    Starts uniform (1/N under l1, all-ones under max) unless ``initial`` is
    given; a caller-supplied vector is normalized first. Stops when the max
    componentwise change drops below epsilon, or at max_iters with
    converged=False; non-convergence is reported, not raised.
    """
    if graph.edge_count == 0:
        raise EmptyGraph("reputation ranking needs at least one edge")
    import numpy as np

    mode = params.norm_mode
    alpha = params.alpha
    n = graph.node_count
    raters, ratees, flow = _inflow_edges(graph)
    scores = _initial_vector(graph, mode, initial)

    iterations = 0
    delta = math.inf
    while iterations < params.max_iters:
        update = np.bincount(ratees, weights=flow * scores[raters], minlength=n)
        update_norm = _norm(update, mode)
        if update_norm <= 0:
            raise DegenerateUpdate(
                f"inflow vanished at iteration {iterations + 1}: no rater holds any reputation"
            )
        blended = (1.0 - alpha) * scores + alpha * (update / update_norm)
        new_scores = blended / _norm(blended, mode)
        delta = float(np.max(np.abs(new_scores - scores)))
        scores = new_scores
        iterations += 1
        if delta < params.epsilon:
            break

    return ReputationState(
        scores={node: float(scores[i]) for i, node in enumerate(graph.nodes)},
        iterations=iterations,
        final_delta=delta,
        converged=delta < params.epsilon,
    )


def to_ranked_list(state: ReputationState) -> RankedList:
    return ranked_list_from_scores(METHOD_LIQUID, state.scores)


def product_rank(mentions: RankedList, liquid: RankedList) -> RankedList:
    """Combine both signals: normalized mention share times reputation score."""
    mention_nodes = mentions.node_set()
    liquid_nodes = liquid.node_set()
    if mention_nodes != liquid_nodes:
        raise NodeSetMismatch(mention_nodes - liquid_nodes, liquid_nodes - mention_nodes)
    total = sum(e.score for e in mentions.entries)
    shares = {e.node: (e.score / total if total > 0 else 0.0) for e in mentions.entries}
    liquid_scores = {e.node: e.score for e in liquid.entries}
    return ranked_list_from_scores(
        METHOD_PRODUCT, {node: shares[node] * liquid_scores[node] for node in shares}
    )


def top_k(ranked: RankedList, k: int) -> RankedList:
    """First min(k, N) entries, ranks preserved."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return RankedList(method=ranked.method, entries=ranked.entries[: min(k, len(ranked.entries))])


def format_score(score: float) -> str:
    """Scores travel through CSV with 12 significant digits."""
    return format(score, ".12g")


def write_ranking_csv(ranked: RankedList, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RANKING_CSV_HEADER)
        for entry in ranked.entries:
            writer.writerow([entry.rank, entry.node, format_score(entry.score), ranked.method])


def read_ranking_csv(source: str | Path | IO) -> RankedList:
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            lines = fh.read().splitlines()
    else:
        data = source.read()
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        lines = data.splitlines()
    reader = csv.reader(lines)
    rows = iter(reader)
    try:
        header = next(rows)
    except StopIteration:
        raise FormatError(1, "missing ranking CSV header") from None
    if header != RANKING_CSV_HEADER:
        raise FormatError(1, f"expected header {','.join(RANKING_CSV_HEADER)!r}, got {','.join(header)!r}")
    entries: list[RankEntry] = []
    method = ""
    for row in rows:
        line_no = reader.line_num
        if len(row) != 4:
            raise FormatError(line_no, f"expected 4 columns, got {len(row)}")
        raw_rank, node, raw_score, row_method = row
        try:
            rank = int(raw_rank)
            score = float(raw_score)
        except ValueError:
            raise FormatError(line_no, f"bad rank/score in row: {row!r}") from None
        if rank != len(entries) + 1:
            raise FormatError(line_no, f"ranks must be consecutive from 1; got {rank}")
        if method and row_method != method:
            raise FormatError(line_no, f"mixed methods {method!r} and {row_method!r}")
        method = row_method
        entries.append(RankEntry(node, score, rank))
    return RankedList(method=method, entries=tuple(entries))


def _window_json(window: TimeWindow) -> dict:
    return {"start": window.start, "end": None if math.isinf(window.end) else window.end}


def reputation_snapshot(state: ReputationState, window: TimeWindow, params: RankParams) -> dict:
    return {
        "window": _window_json(window),
        "params": {
            "epsilon": params.epsilon,
            "max_iters": params.max_iters,
            "alpha": params.alpha,
            "norm_mode": params.norm_mode,
        },
        "iterations": state.iterations,
        "final_delta": state.final_delta,
        "converged": state.converged,
        "scores": {node: state.scores[node] for node in sorted(state.scores)},
    }


def write_reputation_json(
    state: ReputationState, window: TimeWindow, params: RankParams, path: str | Path
) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(reputation_snapshot(state, window, params), fh, indent=2, sort_keys=True)
        fh.write("\n")
