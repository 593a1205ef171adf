"""Aggregate interaction records into a weighted directed rating graph.

Edge weight = number of times rater i mentioned ratee j inside the time
window. The graph keeps its nodes in a sorted table and its edges in three
integer arrays (rater id, ratee id, weight) ordered by (rater id, ratee id),
where an id is a position in the node table. It stays immutable after
construction so rankings can share it freely.

numpy is imported when a graph is built, not when the module is imported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

from .ingest import MAX_TIMESTAMP, InteractionColumns, InteractionRecord

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class TimeWindow:
    """Half-open interval [start, end) in UTC epoch seconds.

    Half-open so consecutive windows partition time without double counting.
    The start is finite; the default window is unbounded (end = +inf).
    """

    start: float = 0
    end: float = math.inf

    def __post_init__(self):
        if not -math.inf < self.start < self.end:
            raise ValueError(f"window start {self.start} must be finite and < end {self.end}")


@dataclass(frozen=True, eq=False)
class RatingGraph:
    """Weighted directed mention graph.

    ``nodes`` is lexicographically sorted; that ordering anchors every
    deterministic downstream artifact. Edge k runs from node ``raters[k]``
    to node ``ratees[k]`` (positions in ``nodes``) with weight
    ``weights[k]``; the three int64 arrays are ordered by (rater id, ratee
    id), which is also (rater, ratee) order. Absent edge means weight 0;
    stored edges always have weight >= 1 and never form self-loops. Graphs
    compare by identity; equal graphs have equal ``nodes`` and ``sorted_edges()``.
    """

    nodes: tuple[str, ...]
    raters: np.ndarray
    ratees: np.ndarray
    weights: np.ndarray

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.weights)

    def total_weight(self) -> int:
        return int(self.weights.sum())

    def sorted_edges(self) -> list[tuple[str, str, int]]:
        """Edges as (rater, ratee, weight) sorted by (rater, ratee)."""
        nodes = self.nodes
        return [
            (nodes[i], nodes[j], w)
            for i, j, w in zip(self.raters.tolist(), self.ratees.tolist(), self.weights.tolist())
        ]


def _rating_graph(handles: list[str], raters, ratees, weights) -> RatingGraph:
    """Relabel edges over ``handles`` to the sorted table of the handles they
    use and order them by (rater id, ratee id). With weights=None, repeated
    (rater, ratee) pairs are counted; otherwise every pair is distinct."""
    import numpy as np

    used = np.zeros(len(handles), dtype=bool)
    used[raters] = used[ratees] = True
    order = sorted(np.flatnonzero(used).tolist(), key=handles.__getitem__)
    n = len(order)
    relabel = np.zeros(len(handles), dtype=np.int64)
    relabel[order] = np.arange(n)
    keys = relabel[raters] * n + relabel[ratees]
    if weights is None:
        keys, weights = np.unique(keys, return_counts=True)
    else:
        by_key = np.argsort(keys)
        keys, weights = keys[by_key], weights[by_key]
    return RatingGraph(tuple(handles[i] for i in order), *np.divmod(keys, max(n, 1)), weights.astype(np.int64))


def build_graph(
    records: Iterable[InteractionRecord] | InteractionColumns,
    window: TimeWindow = TimeWindow(),
) -> RatingGraph:
    """Count mentions per (rater, ratee) pair among records inside the window.

    The node set is every identifier appearing as rater or ratee in a
    retained record; pure raters are kept (they supply reputation even with
    zero inflow). Record order does not matter.
    """
    import numpy as np

    if not isinstance(records, InteractionColumns):
        ids: dict[str, int] = {}
        rows = [(ids.setdefault(r.rater, len(ids)), ids.setdefault(r.ratee, len(ids)), r.timestamp) for r in records]
        records = InteractionColumns(list(ids), *(zip(*rows) if rows else ([], [], [])))
    handles, raters, ratees, stamps = records
    stamps = np.asarray(stamps, dtype=np.int64)
    kept = (stamps > _last_before(window.start)) & (stamps <= _last_before(window.end))
    raters, ratees = np.asarray(raters, dtype=np.int64)[kept], np.asarray(ratees, dtype=np.int64)[kept]
    return _rating_graph(handles, raters, ratees, None)


def _last_before(bound: float) -> int:
    """The last int64 before ``bound``, or -2**63 if none is: an exact integer
    for any int, float or +inf bound, so that comparing int64 timestamps with
    it is exact for every timestamp in [0, MAX_TIMESTAMP]."""
    if bound == math.inf:
        return MAX_TIMESTAMP
    return min(max(math.ceil(bound) - 1, -MAX_TIMESTAMP - 1), MAX_TIMESTAMP)


def from_edge_counts(counts: Mapping[tuple[str, str], int]) -> RatingGraph:
    """Build a graph from pre-aggregated (rater, ratee) -> weight counts.

    Equivalent to build_graph on a record stream that repeats each pair
    ``weight`` times.
    """
    import numpy as np

    ids: dict[str, int] = {}
    edges = []
    for (rater, ratee), weight in counts.items():
        if rater == ratee:
            raise ValueError(f"self-loop edge {rater!r} is not allowed")
        if weight < 1:
            raise ValueError(f"edge weight must be >= 1, got {weight} for {(rater, ratee)}")
        edges.append((ids.setdefault(rater, len(ids)), ids.setdefault(ratee, len(ids)), weight))
    raters, ratees, weights = np.array(edges, dtype=np.int64).reshape(-1, 3).T
    return _rating_graph(list(ids), raters, ratees, weights)
