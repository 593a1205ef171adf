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

The inflow U is computed without a matrix, from the graph's own edge
arrays, which are ordered by (rater id, ratee id): each cycle is one
``np.bincount`` over the ratee ids weighted by T_ij * R_i. Every node's
inflow is therefore summed in ascending rater order, the same order a CSR
matrix-vector product uses. Rankings are stable argsorts of -score over the
sorted node table, kept as arrays; the artifacts are written as joined text.

numpy is imported inside the functions that rank, so importing the package
(and starting the CLI for ingest, evaluate or report) loads the stdlib alone.
"""

from __future__ import annotations

import csv
import json
import math
import re
import sys
from dataclasses import asdict, dataclass, field
from functools import cached_property
from itertools import repeat, starmap
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .errors import DomainError, FormatError
from .graph import RatingGraph, TimeWindow
from .ingest import read_csv_chunks, read_csv_rows, write_atomic

if TYPE_CHECKING:
    import numpy as np

METHOD_MENTIONS = "mentions"
METHOD_LIQUID = "liquid"
METHOD_PRODUCT = "product"

NORM_MODES = ("l1", "max")

RANKING_CSV_HEADER = ["rank", "node", "score", "method"]

# A ranking CSV row as joined text, its score as format_score writes it.
_RANKING_ROW = "{},{},{:.12g},{}\n".format
_CHUNK_ROWS = 4096  # ranking rows, or reputation scores, that a writer turns into text at once


@dataclass(frozen=True)
class RankParams:
    """Convergence knobs for the reputation loop.

    epsilon is the negligible-change threshold on the max componentwise
    score change per cycle, relative to the largest new score; iteration
    stops below it. Relative, so that it means the same at any graph size:
    under l1 a score is about 1/N, under max the top score is 1.
    """

    epsilon: float = 0.0001
    max_iters: int = 1000
    alpha: float = 0.5
    norm_mode: str = "l1"

    def __post_init__(self):
        # Compared, not converted: an int past float range fails, as do inf and nan.
        if not 0 < self.epsilon <= sys.float_info.max:
            raise ValueError(f"epsilon must be a finite number > 0, got {self.epsilon}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not 0 < self.alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.norm_mode not in NORM_MODES:
            raise ValueError(f"norm_mode must be one of {NORM_MODES}, got {self.norm_mode!r}")


@dataclass(frozen=True, eq=False)
class ReputationState:
    """The graph's sorted ``nodes``, their float64 scores ``values`` and convergence diagnostics."""

    nodes: tuple[str, ...]
    values: np.ndarray
    iterations: int
    final_delta: float
    converged: bool

    @cached_property
    def scores(self) -> Mapping[str, float]:
        """Each node's score, in node order: a read-only view built on first read."""
        return MappingProxyType(dict(zip(self.nodes, self.values.tolist())))


class RankEntry(NamedTuple):
    node: str
    score: float
    rank: int


@dataclass(frozen=True)
class RankedList:
    """Nodes and their scores in rank order: score descending, ties broken by
    node id ascending. Ranks run 1..N with no gaps; tied scores still get
    distinct consecutive ranks, so every list is totally ordered and
    deterministic. ``ids``, when known, places each node in the sorted node
    table it was ranked over."""

    method: str
    nodes: Sequence[str] = ()
    scores: Sequence[float] = ()
    ids: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def entries(self) -> tuple[RankEntry, ...]:
        return tuple(map(RankEntry, self.nodes, self.scores, range(1, len(self.nodes) + 1)))


def _ranked_list(method: str, nodes: Sequence[str], scores: np.ndarray) -> RankedList:
    """Rank ``nodes``, which must be sorted, by their aligned float64 ``scores``.

    A stable argsort of -score over the sorted nodes breaks ties by node,
    the same order as sorting on the key (-score, node).
    """
    import numpy as np

    order = np.argsort(-scores, kind="stable")
    return RankedList(method, list(map(nodes.__getitem__, order.tolist())), scores[order].tolist(), order)


def _by_node(ranked: RankedList) -> tuple[list[str], np.ndarray]:
    """The list's nodes in ascending order, and their scores in that order."""
    import numpy as np

    nodes = ranked.nodes
    order = sorted(range(len(nodes)), key=nodes.__getitem__) if ranked.ids is None else np.argsort(ranked.ids).tolist()
    return list(map(nodes.__getitem__, order)), np.asarray(ranked.scores, dtype=np.float64)[order]


def mention_rank(graph: RatingGraph) -> RankedList:
    """Rank nodes by raw inbound mention count."""
    import numpy as np

    if graph.node_count == 0:
        raise DomainError("mention ranking needs at least one node")
    return _ranked_list(METHOD_MENTIONS, graph.nodes, np.bincount(graph.ratees, graph.weights, graph.node_count))


def _norm(vec: np.ndarray, mode: str) -> float:
    return float(vec.sum()) if mode == "l1" else float(vec.max())


def liquid_rank(graph: RatingGraph, params: RankParams = RankParams()) -> ReputationState:
    """Iterate the damped propagate-and-normalize cycle to its fixed point.

    Starts uniform (1/N under l1, all-ones under max). Stops when the max
    componentwise change drops below epsilon times the largest new score,
    or at max_iters with converged=False; non-convergence is reported, not
    raised. final_delta is the last absolute max change.
    """
    if graph.edge_count == 0:
        raise DomainError("reputation ranking needs at least one edge")
    import numpy as np

    mode = params.norm_mode
    alpha = params.alpha
    n = graph.node_count
    raters, ratees = graph.raters, graph.ratees
    # T_ij: weights pre-divided by the total, so that no uniform rescaling
    # of the edge counts moves the operator or the iterate sequence.
    flow = graph.weights / graph.total_weight()
    scores = np.full(n, 1.0 / n if mode == "l1" else 1.0)

    iterations = 0
    delta = math.inf
    converged = False
    while not converged and iterations < params.max_iters:
        update = np.bincount(ratees, weights=flow * scores[raters], minlength=n)
        update_norm = _norm(update, mode)
        if update_norm <= 0:
            raise DomainError(f"inflow vanished at iteration {iterations + 1}: no rater holds any reputation")
        blended = (1.0 - alpha) * scores + alpha * (update / update_norm)
        new_scores = blended / _norm(blended, mode)
        delta = float(np.max(np.abs(new_scores - scores)))
        converged = delta < params.epsilon * float(new_scores.max())
        scores = new_scores
        iterations += 1

    return ReputationState(graph.nodes, scores, iterations, delta, converged)


def to_ranked_list(state: ReputationState) -> RankedList:
    return _ranked_list(METHOD_LIQUID, state.nodes, state.values)


def product_rank(mentions: RankedList, liquid: RankedList) -> RankedList:
    """Combine both signals: normalized mention share times reputation score."""
    import numpy as np

    (nodes, inflow), (others, reputation) = _by_node(mentions), _by_node(liquid)
    if nodes != others:
        raise DomainError(
            "rankings cover different node sets; "
            f"only in first: {sorted(set(nodes) - set(others))}, "
            f"only in second: {sorted(set(others) - set(nodes))}"
        )
    total = sum(mentions.scores)
    shares = inflow / total if total > 0 else np.zeros(len(nodes))
    return _ranked_list(METHOD_PRODUCT, nodes, shares * reputation)


def top_k(ranked: RankedList, k: int) -> RankedList:
    """First min(k, N) entries, ranks preserved."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return RankedList(ranked.method, ranked.nodes[:k], ranked.scores[:k])


def format_score(score: float) -> str:
    """Scores travel through CSV with 12 significant digits."""
    return format(score, ".12g")


def write_ranking_csv(ranked: RankedList, path: str | Path) -> None:
    """One row per entry, _CHUNK_ROWS rows at a time, each chunk as joined
    text unless one of its nodes or the method needs csv quoting."""
    with write_atomic(path) as fh:
        fh.write(",".join(RANKING_CSV_HEADER) + "\n")
        for start in range(0, len(ranked.nodes), _CHUNK_ROWS):
            stop = start + _CHUNK_ROWS
            nodes = ranked.nodes[start:stop]
            rows = zip(range(start + 1, stop + 1), nodes, ranked.scores[start:stop], repeat(ranked.method))
            if re.search(r'[,"\r\n]', "".join([ranked.method, *nodes])):  # csv.writer would quote
                csv.writer(fh, lineterminator="\n").writerows((r, n, format_score(s), m) for r, n, s, m in rows)
            else:
                fh.write("".join(starmap(_RANKING_ROW, rows)))


def read_ranking_csv(source: str | Path) -> RankedList:
    """Load a ranking CSV. A first pass converts the columns of each chunk
    from read_csv_chunks whole and checks them; if it fails, read_csv_rows
    reads the source again, to name its first faulty line."""
    nodes, scores, methods = [], [], set()
    try:
        for ranks, chunk_nodes, chunk_scores, chunk_methods in read_csv_chunks(source, RANKING_CSV_HEADER):
            if list(map(int, ranks)) != list(range(len(nodes) + 1, len(nodes) + len(ranks) + 1)):
                raise ValueError("ranks must be consecutive from 1")
            nodes += chunk_nodes
            scores += map(float, chunk_scores)
            methods.update(chunk_methods)
        if len(methods) == 1 and len(set(nodes)) == len(nodes) and all(map(math.isfinite, scores)):
            return RankedList(methods.pop()[:-1], nodes, scores)  # each method keeps its line's "\n"
    except ValueError:
        pass
    nodes, scores, seen, method = [], [], set(), ""
    with read_csv_rows(source, RANKING_CSV_HEADER) as rows:
        if rows is None:
            raise FormatError(1, "missing ranking CSV header")
        for line_no, row in rows:
            raw_rank, node, raw_score, row_method = row
            try:
                rank = int(raw_rank)
                score = float(raw_score)
            except ValueError:
                raise FormatError(line_no, f"bad rank/score in row: {row!r}") from None
            if not math.isfinite(score):
                raise FormatError(line_no, f"score {raw_score!r} is not a finite number")
            if rank != len(nodes) + 1:
                raise FormatError(line_no, f"ranks must be consecutive from 1; got {rank}")
            if nodes and row_method != method:  # every row has the first row's method
                raise FormatError(line_no, f"mixed methods {method!r} and {row_method!r}")
            if node in seen:
                raise FormatError(line_no, f"duplicate entry for node {node!r}")
            seen.add(node)
            method = row_method
            nodes.append(node)
            scores.append(score)
    return RankedList(method, nodes, scores)


def reputation_snapshot(state: ReputationState, window: TimeWindow, params: RankParams) -> dict:
    """The run record of reputation.json: its content but the score map."""
    # Compared, not math.isinf: an integer end past float range is finite.
    end = None if window.end == math.inf else window.end
    return {
        "window": {"start": window.start, "end": end},
        "params": asdict(params),
        "iterations": state.iterations,
        "final_delta": state.final_delta,
        "converged": state.converged,
    }


def write_reputation_json(state: ReputationState, window: TimeWindow, params: RankParams, path: str | Path) -> None:
    """The bytes write_json gives reputation_snapshot plus its score map, never built whole: the scores,
    in node order and so in key order, go through json's C encoder _CHUNK_ROWS at a time, with
    the newline and indent carried by the separator. NaN or ±inf raises ValueError, leaving no file."""
    snapshot = {**reputation_snapshot(state, window, params), "scores": None}
    head, tail = json.dumps(snapshot, indent=2, sort_keys=True, allow_nan=False).split('"scores": null')
    nodes, values = state.nodes, state.values
    with write_atomic(path) as fh:
        fh.write(head + '"scores": {')
        for start in range(0, len(nodes), _CHUNK_ROWS):
            chunk = dict(zip(nodes[start : start + _CHUNK_ROWS], values[start : start + _CHUNK_ROWS].tolist()))
            fh.write(",\n    " if start else "\n    ")
            fh.write(json.dumps(chunk, separators=(",\n    ", ": "), allow_nan=False)[1:-1])
        fh.write(("\n  }" if nodes else "}") + tail + "\n")
