import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liquidrank.graph import (
    RatingGraph,
    TimeWindow,
    build_graph,
    from_edge_counts,
)
from liquidrank.ingest import InteractionColumns, InteractionRecord, read_interaction_columns
from liquidrank.rank import mention_rank

from test_rank_properties import weight_maps


def records(*triples):
    return [InteractionRecord(r, e, t) for r, e, t in triples]


def inflow(graph):
    """Each node's total inbound weight, read off its mention-ranking score."""
    ranked = mention_rank(graph)
    return dict(zip(ranked.nodes, ranked.scores))


def test_build_graph_counts_repeat_mentions():
    graph = build_graph(records(("a", "b", 1), ("a", "b", 2), ("b", "a", 3)))
    assert graph.nodes == ("a", "b")
    assert graph.sorted_edges() == [("a", "b", 2), ("b", "a", 1)]
    assert graph.total_weight() == 3
    assert graph.edge_count == 2
    assert graph.node_count == 2


def test_build_graph_keeps_pure_raters_and_pure_ratees():
    graph = build_graph(records(("rater", "star", 1)))
    assert graph.nodes == ("rater", "star")
    assert inflow(graph) == {"rater": 0, "star": 1}


def test_build_graph_order_independent():
    fwd = build_graph(records(("a", "b", 1), ("c", "b", 2), ("b", "a", 3)))
    rev = build_graph(records(("b", "a", 3), ("c", "b", 2), ("a", "b", 1)))
    assert (fwd.nodes, fwd.sorted_edges()) == (rev.nodes, rev.sorted_edges())


def test_build_graph_empty():
    graph = build_graph([])
    assert graph.nodes == ()
    assert graph.sorted_edges() == []
    assert graph.total_weight() == 0


def test_window_is_half_open():
    window = TimeWindow(start=10, end=20)
    recs = records(("a", "b", 9), ("a", "b", 10), ("a", "b", 19), ("a", "b", 20))
    graph = build_graph(recs, window)
    assert graph.sorted_edges() == [("a", "b", 2)]


def test_window_filters_out_everything():
    graph = build_graph(records(("a", "b", 5)), TimeWindow(start=100, end=200))
    assert graph.node_count == 0


def test_window_validation_and_unbounded_window():
    with pytest.raises(ValueError):
        TimeWindow(start=5, end=5)
    with pytest.raises(ValueError):
        TimeWindow(start=9, end=2)
    assert math.isinf(TimeWindow().end)
    graph = build_graph(records(("a", "b", 0), ("c", "b", 10**12)), TimeWindow())
    assert inflow(graph) == {"a": 0, "b": 2, "c": 0}


@pytest.mark.parametrize("start", [-math.inf, math.nan, math.inf])
def test_window_start_must_be_finite(start):
    # A start of -inf would be written to reputation.json as -Infinity, which is not JSON.
    with pytest.raises(ValueError, match=f"window start {start} must be finite and < end inf"):
        TimeWindow(start=start)
    assert TimeWindow(start=1.5).start == 1.5


@settings(max_examples=200, deadline=None, derandomize=True)
@given(counts=st.one_of(st.just({}), weight_maps()), data=st.data())
def test_from_edge_counts_matches_build_graph(counts, data):
    # The pairs in any order, so that neither builder can lean on sorted input.
    counts = dict(data.draw(st.permutations(list(counts.items()))))
    stream = [InteractionRecord(rater, ratee, 0) for (rater, ratee), w in counts.items() for _ in range(w)]
    built, counted = build_graph(stream), from_edge_counts(counts)
    assert counted.nodes == built.nodes
    for column in ("raters", "ratees", "weights"):
        got, want = getattr(counted, column), getattr(built, column)
        assert got.dtype == want.dtype == np.int64
        assert got.tolist() == want.tolist()


def test_from_edge_counts_rejects_self_loops_and_bad_weights():
    with pytest.raises(ValueError):
        from_edge_counts({("a", "a"): 1})
    with pytest.raises(ValueError):
        from_edge_counts({("a", "b"): 0})
    with pytest.raises(ValueError):
        from_edge_counts({("a", "b"): -2})


def test_sorted_edges_orders_by_rater_then_ratee():
    graph = from_edge_counts({("b", "a"): 1, ("a", "c"): 2, ("a", "b"): 3})
    assert graph.sorted_edges() == [("a", "b", 3), ("a", "c", 2), ("b", "a", 1)]


def test_inflow_counts_per_node():
    graph = from_edge_counts({("a", "b"): 2, ("c", "b"): 5, ("b", "a"): 1})
    assert inflow(graph) == {"a": 1, "b": 7, "c": 0}


def test_graph_is_immutable():
    graph = from_edge_counts({("a", "b"): 1})
    with pytest.raises(AttributeError):
        graph.nodes = ()
    assert isinstance(graph, RatingGraph)


EDGE_STAMPS = [0, 1, 2, 10**18, 2**63 - 2, 2**63 - 1]


@pytest.mark.parametrize(
    "start, end",
    [(-5, 1.5), (-5, 1e19), (0, 1.0), (1, 2.5), (2, 2**63 - 1), (2**63 - 1, math.inf), (0, 9.223372036854775e18),
     (0, 2.0**63), (2**63, 2**64), (2**63 - 1, 2**63), (-(2**70), -(2**65))],
)
def test_window_mask_is_exact_at_the_int64_edges(text_file, start, end):
    window = TimeWindow(start=start, end=end)
    kept = [ts for ts in EDGE_STAMPS if start <= ts < end]
    text = "rater,ratee,timestamp\n" + "".join(f"a,b{k},{ts}\n" for k, ts in enumerate(EDGE_STAMPS))
    as_lists = InteractionColumns(["a", *(f"b{k}" for k in range(len(EDGE_STAMPS)))],
                                  [0] * len(EDGE_STAMPS), list(range(1, len(EDGE_STAMPS) + 1)), EDGE_STAMPS)
    for columns in (read_interaction_columns(text_file(text)), as_lists):
        graph = build_graph(columns, window)
        assert [int(ratee.removeprefix("b")) for _, ratee, _ in graph.sorted_edges()] == [
            EDGE_STAMPS.index(ts) for ts in kept
        ]
