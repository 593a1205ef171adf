import dataclasses
import json
import math
import random

import numpy as np
import pytest

from oracle import dense_liquid, two_node_fixed_point

from liquidrank.errors import DomainError, FormatError
from liquidrank.graph import RatingGraph, TimeWindow, from_edge_counts
from liquidrank.rank import (
    METHOD_LIQUID,
    METHOD_MENTIONS,
    METHOD_PRODUCT,
    RankParams,
    RankedList,
    ReputationState,
    format_score,
    liquid_rank,
    mention_rank,
    product_rank,
    read_ranking_csv,
    reputation_snapshot,
    to_ranked_list,
    top_k,
    write_ranking_csv,
)

TWO_CYCLE = {("a", "b"): 1, ("b", "a"): 3}


def ranked_list_from_scores(method, scores):
    """The reference ranking of a score map: its nodes sorted on (-score, node)."""
    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    return RankedList(method, [node for node, _ in ranked], [score for _, score in ranked])


def state_from_scores(scores, iterations=7, final_delta=0.0, converged=True):
    """A ReputationState holding ``scores``, its nodes sorted as a graph's are."""
    nodes = tuple(sorted(scores))
    values = np.array([scores[node] for node in nodes], dtype=np.float64)
    return ReputationState(nodes, values, iterations, final_delta, converged)


def edgeless(*nodes):
    """A graph with these nodes and no edges, which no graph builder makes."""
    no_edges = np.zeros(0, dtype=np.int64)
    return RatingGraph(nodes=nodes, raters=no_edges, ratees=no_edges, weights=no_edges)


# --- parameters ---------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"epsilon": 0.0},
        {"epsilon": -1e-9},
        {"max_iters": 0},
        {"alpha": 0.0},
        {"alpha": 1.2},
        {"alpha": -0.5},
        {"norm_mode": "l2"},
    ],
)
def test_rank_params_validation(kwargs):
    with pytest.raises(ValueError):
        RankParams(**kwargs)


def test_rank_params_defaults():
    params = RankParams()
    assert params.epsilon == 0.0001
    assert params.max_iters == 1000
    assert params.alpha == 0.5
    assert params.norm_mode == "l1"


# --- mention ranking -----------------------------------------------------


def test_mention_rank_scores_and_tiebreak():
    graph = from_edge_counts({("a", "b"): 2, ("c", "b"): 2, ("b", "a"): 2, ("b", "c"): 2})
    ranked = mention_rank(graph)
    assert ranked.method == METHOD_MENTIONS
    # a and c tie at 2; lexicographic order breaks the tie
    assert [(e.node, e.score, e.rank) for e in ranked.entries] == [
        ("b", 4.0, 1),
        ("a", 2.0, 2),
        ("c", 2.0, 3),
    ]


def test_mention_rank_empty_graph():
    with pytest.raises(DomainError, match="mention ranking needs at least one node"):
        mention_rank(edgeless())


def test_mention_rank_edgeless_nodes_score_zero():
    graph = edgeless("a", "b")
    ranked = mention_rank(graph)
    assert [e.score for e in ranked.entries] == [0.0, 0.0]


# --- liquid ranking ------------------------------------------------------


def test_liquid_rank_two_node_closed_form():
    graph = from_edge_counts(TWO_CYCLE)
    state = liquid_rank(graph, RankParams(epsilon=1e-12, max_iters=10000))
    expect_a, expect_b = two_node_fixed_point(1, 3)
    assert state.converged
    assert state.scores["a"] == pytest.approx(expect_a, abs=1e-11)
    assert state.scores["b"] == pytest.approx(expect_b, abs=1e-11)
    assert state.final_delta < 1e-12
    assert state.iterations > 0


def test_liquid_rank_matches_dense_oracle_on_fixed_graph():
    weights = {("a", "b"): 2, ("b", "c"): 1, ("c", "a"): 4, ("a", "c"): 1}
    graph = from_edge_counts(weights)
    state = liquid_rank(graph, RankParams(epsilon=1e-12, max_iters=10000))
    oracle_scores, _, _, oracle_converged = dense_liquid(
        weights, alpha=0.5, epsilon=1e-12, max_iters=10000
    )
    assert oracle_converged
    for node in graph.nodes:
        assert state.scores[node] == pytest.approx(oracle_scores[node], abs=1e-9)


def test_liquid_rank_l1_scores_sum_to_one():
    graph = from_edge_counts({("a", "b"): 1, ("b", "c"): 2, ("c", "a"): 3})
    state = liquid_rank(graph)
    assert abs(sum(state.scores.values()) - 1.0) <= 1e-12


def test_liquid_rank_max_mode_peak_is_one():
    graph = from_edge_counts({("a", "b"): 1, ("b", "c"): 2, ("c", "a"): 3})
    state = liquid_rank(graph, RankParams(norm_mode="max"))
    assert abs(max(state.scores.values()) - 1.0) <= 1e-12


def test_liquid_rank_norm_modes_agree_on_ordering():
    graph = from_edge_counts({("a", "b"): 2, ("b", "c"): 1, ("c", "a"): 4, ("a", "c"): 1})
    by_l1 = to_ranked_list(liquid_rank(graph, RankParams(epsilon=1e-10, norm_mode="l1")))
    by_max = to_ranked_list(liquid_rank(graph, RankParams(epsilon=1e-10, norm_mode="max")))
    assert [e.node for e in by_l1.entries] == [e.node for e in by_max.entries]


def test_liquid_rank_requires_an_edge():
    with pytest.raises(DomainError, match="reputation ranking needs at least one edge"):
        liquid_rank(edgeless("a"))
    with pytest.raises(DomainError, match="reputation ranking needs at least one edge"):
        liquid_rank(edgeless())


def test_liquid_rank_undamped_two_cycle_oscillates():
    graph = from_edge_counts(TWO_CYCLE)
    state = liquid_rank(graph, RankParams(alpha=1.0, max_iters=1000))
    assert not state.converged
    assert state.iterations == 1000
    assert state.final_delta == 0.25
    # even iteration count lands back on the uniform phase of the 2-cycle
    assert state.scores == {"a": 0.5, "b": 0.5}


def test_liquid_rank_undamped_trajectory_period_two():
    graph = from_edge_counts(TWO_CYCLE)
    one = liquid_rank(graph, RankParams(alpha=1.0, max_iters=1))
    two = liquid_rank(graph, RankParams(alpha=1.0, max_iters=2))
    three = liquid_rank(graph, RankParams(alpha=1.0, max_iters=3))
    assert one.scores == {"a": 0.75, "b": 0.25}
    assert two.scores == {"a": 0.5, "b": 0.5}
    assert three.scores == one.scores


def test_liquid_rank_damping_converges_where_undamped_cannot():
    graph = from_edge_counts(TWO_CYCLE)
    state = liquid_rank(graph, RankParams(alpha=0.5))
    assert state.converged
    assert state.iterations < 1000


def test_liquid_rank_degenerate_update_on_undamped_path():
    # a -> b -> c: with alpha=1 all reputation drains to c, then the next
    # propagation step has nothing left to push and no meaningful update.
    graph = from_edge_counts({("a", "b"): 1, ("b", "c"): 1})
    with pytest.raises(DomainError) as exc_info:
        liquid_rank(graph, RankParams(alpha=1.0, epsilon=1e-9))
    assert str(exc_info.value) == "inflow vanished at iteration 3: no rater holds any reputation"


def test_liquid_rank_damped_path_graph_is_fine():
    graph = from_edge_counts({("a", "b"): 1, ("b", "c"): 1})
    state = liquid_rank(graph, RankParams(alpha=0.5))
    assert state.converged
    assert state.scores["c"] > state.scores["b"] > state.scores["a"]


def test_liquid_rank_zero_inflow_node_decays_below_threshold():
    graph = from_edge_counts({("s", "t"): 100, ("a", "b"): 1, ("b", "a"): 1})
    params = RankParams(epsilon=1e-6)
    state = liquid_rank(graph, params)
    assert state.converged
    assert state.scores["s"] < params.epsilon * 10


def test_liquid_rank_scale_invariance_exact():
    graph1 = from_edge_counts({("a", "b"): 1, ("b", "c"): 2, ("c", "a"): 3})
    graph7 = from_edge_counts({("a", "b"): 7, ("b", "c"): 14, ("c", "a"): 21})
    s1 = liquid_rank(graph1)
    s7 = liquid_rank(graph7)
    assert s1.scores == s7.scores
    assert s1.iterations == s7.iterations
    assert s1.final_delta == s7.final_delta


def test_liquid_rank_epsilon_controls_stopping():
    graph = from_edge_counts({("a", "b"): 2, ("b", "c"): 1, ("c", "a"): 4})
    loose = liquid_rank(graph, RankParams(epsilon=1e-2))
    tight = liquid_rank(graph, RankParams(epsilon=1e-10))
    assert loose.iterations < tight.iterations
    assert loose.final_delta < 1e-2
    assert tight.final_delta < 1e-10


def test_converged_means_fixed_point_at_scale():
    # Under l1 a score is about 1/N = 1e-4 here, so an absolute threshold of
    # 1e-4 stops within a couple of cycles, far from the fixed point.
    rng = random.Random(1)
    n = 10**4
    counts = {}
    while len(counts) < 4 * n:
        rater, ratee = rng.randrange(n), rng.randrange(n)
        if rater != ratee:
            counts[(f"n{rater}", f"n{ratee}")] = rng.randint(1, 9)
    graph = from_edge_counts(counts)
    state = liquid_rank(graph)
    fixed = liquid_rank(graph, RankParams(epsilon=1e-12))
    assert state.converged and fixed.converged
    top = {e.node for e in to_ranked_list(state).entries[:50]}
    assert top == {e.node for e in to_ranked_list(fixed).entries[:50]}
    error = max(abs(state.scores[node] - fixed.scores[node]) for node in graph.nodes)
    assert error <= 1e-3 * max(fixed.scores.values())


def test_reputation_state_is_plain_data():
    state = state_from_scores({"a": 1.0}, iterations=3)
    assert state.scores["a"] == 1.0


def test_reputation_scores_are_a_read_only_view_in_node_order():
    # Nodes first seen out of order: the graph sorts them, and the view follows.
    graph = from_edge_counts({("d", "b"): 1, ("c", "a"): 1, ("b", "a"): 2, ("a", "c"): 3})
    state = liquid_rank(graph)
    assert list(state.scores) == list(graph.nodes) == ["a", "b", "c", "d"]
    # The dict liquid_rank returned before its scores became an array.
    assert state.scores == dict(zip(graph.nodes, state.values.tolist()))
    assert all(type(score) is float for score in state.scores.values())
    assert state.scores is state.scores
    with pytest.raises(TypeError):
        state.scores["a"] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.scores = {}


def _csr_liquid(counts, params):
    """The damped loop driven by a scipy CSR operator, the way liquid_rank
    computed it before its inflow kernel replaced the matrix."""
    import numpy as np

    sparse = pytest.importorskip("scipy.sparse")
    nodes = sorted({node for pair in counts for node in pair})
    index = {node: i for i, node in enumerate(nodes)}
    total = sum(counts.values())
    rows, cols, data = [], [], []
    for (rater, ratee), weight in sorted(counts.items()):
        rows.append(index[ratee])
        cols.append(index[rater])
        data.append(weight / total)
    n = len(nodes)
    inflow = sparse.csr_matrix((data, (rows, cols)), shape=(n, n))

    def norm(vec):
        return float(vec.sum()) if params.norm_mode == "l1" else float(vec.max())

    scores = np.full(n, 1.0 / n) if params.norm_mode == "l1" else np.ones(n)
    iterations, delta = 0, math.inf
    while iterations < params.max_iters:
        update = inflow @ scores
        blended = (1.0 - params.alpha) * scores + params.alpha * (update / norm(update))
        new_scores = blended / norm(blended)
        delta = float(np.max(np.abs(new_scores - scores)))
        scores = new_scores
        iterations += 1
        if delta < params.epsilon * float(np.max(scores)):
            break
    return {node: float(scores[i]) for i, node in enumerate(nodes)}, iterations, delta


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("norm_mode", ["l1", "max"])
def test_liquid_rank_equals_csr_product_bit_for_bit(seed, norm_mode):
    rng = random.Random(seed)
    n = rng.randint(50, 300)
    counts = {}
    while len(counts) < 6 * n:
        rater, ratee = rng.randrange(n), rng.randrange(n)
        if rater != ratee:
            counts[(f"n{rater}", f"n{ratee}")] = rng.randint(1, 9)
    params = RankParams(epsilon=1e-13, max_iters=300, alpha=rng.uniform(0.2, 0.9), norm_mode=norm_mode)
    state = liquid_rank(from_edge_counts(counts), params)
    scores, iterations, delta = _csr_liquid(counts, params)
    assert state.scores == scores
    assert (state.iterations, state.final_delta) == (iterations, delta)


# --- ranked lists and the product method ---------------------------------


def test_to_ranked_list_sorts_and_ranks():
    ranked = to_ranked_list(state_from_scores({"x": 0.2, "y": 0.5, "z": 0.2}))
    assert ranked.method == METHOD_LIQUID
    assert [e.node for e in ranked.entries] == ["y", "x", "z"]
    assert [e.rank for e in ranked.entries] == [1, 2, 3]
    assert [e.score for e in ranked.entries] == [0.5, 0.2, 0.2]
    assert len(ranked.entries) == 3


def test_product_rank_combines_share_and_reputation():
    mentions = ranked_list_from_scores(METHOD_MENTIONS, {"a": 3.0, "b": 1.0})
    liquid = ranked_list_from_scores(METHOD_LIQUID, {"a": 0.25, "b": 0.75})
    product = product_rank(mentions, liquid)
    assert product.method == METHOD_PRODUCT
    # shares: a=0.75, b=0.25; products: a=0.1875, b=0.1875 -> tie, lexicographic
    assert [e.node for e in product.entries] == ["a", "b"]
    assert [e.score for e in product.entries] == pytest.approx([0.1875, 0.1875])


def test_product_rank_node_set_mismatch():
    mentions = ranked_list_from_scores(METHOD_MENTIONS, {"a": 1.0, "b": 2.0})
    liquid = ranked_list_from_scores(METHOD_LIQUID, {"a": 1.0, "c": 2.0})
    with pytest.raises(DomainError) as exc_info:
        product_rank(mentions, liquid)
    assert str(exc_info.value) == "rankings cover different node sets; only in first: ['b'], only in second: ['c']"


def test_top_k_clamps_to_length():
    ranked = ranked_list_from_scores("m", {"a": 3.0, "b": 2.0, "c": 1.0})
    top2 = top_k(ranked, 2)
    assert [e.node for e in top2.entries] == ["a", "b"]
    assert [e.rank for e in top2.entries] == [1, 2]
    assert top_k(ranked, 10).entries == ranked.entries
    with pytest.raises(ValueError):
        top_k(ranked, 0)


# --- serialization -------------------------------------------------------


def test_ranking_csv_roundtrip(tmp_path):
    graph = from_edge_counts({("a", "b"): 2, ("b", "c"): 1, ("c", "a"): 4})
    ranked = to_ranked_list(liquid_rank(graph, RankParams(epsilon=1e-10)))
    path = tmp_path / "ranking.csv"
    write_ranking_csv(ranked, path)
    loaded = read_ranking_csv(path)
    assert loaded.method == ranked.method
    assert [e.node for e in loaded.entries] == [e.node for e in ranked.entries]
    assert [e.rank for e in loaded.entries] == [e.rank for e in ranked.entries]
    for ours, theirs in zip(ranked.entries, loaded.entries):
        assert theirs.score == pytest.approx(ours.score, rel=1e-11)


def test_ranking_csv_format(tmp_path):
    ranked = RankedList("mentions", ["a", "b"], [3.0, 1.0])
    path = tmp_path / "r.csv"
    write_ranking_csv(ranked, path)
    assert path.read_bytes() == b"rank,node,score,method\n1,a,3,mentions\n2,b,1,mentions\n"


def test_format_score_twelve_significant_digits():
    assert format_score(1 / 3) == "0.333333333333"
    assert format_score(3.0) == "3"
    assert format_score(0.25) == "0.25"
    assert format_score(1.5e-11) == "1.5e-11"


@pytest.mark.parametrize(
    "text,line,reason_part",
    [
        ("", 1, "missing ranking CSV header"),
        ("rank,node,score\n", 1, "expected header"),
        ("rank,node,score,method\n2,a,1.0,m\n", 2, "consecutive"),
        ("rank,node,score,method\n1,a,1.0,m\n3,b,0.5,m\n", 3, "consecutive"),
        ("rank,node,score,method\n1,a,xx,m\n", 2, "bad rank/score"),
        ("rank,node,score,method\n1,a,1.0,m,extra\n", 2, "4 columns"),
        ("rank,node,score,method\n1,a,1.0,m\n2,b,0.5,other\n", 3, "mixed methods"),
        ("rank,node,score,method\n1,a,2,\n2,b,1,x\n", 3, "mixed methods '' and 'x'"),
        ("rank,node,score,method\n1,a,2,x\n2,b,1,\n", 3, "mixed methods 'x' and ''"),
    ],
)
def test_read_ranking_csv_rejects_malformed(text_file, text, line, reason_part):
    with pytest.raises(FormatError) as exc_info:
        read_ranking_csv(text_file(text))
    assert exc_info.value.line == line
    assert reason_part in exc_info.value.reason


def test_reputation_snapshot_shape():
    graph = from_edge_counts(TWO_CYCLE)
    params = RankParams(epsilon=1e-8)
    state = liquid_rank(graph, params)
    snap = reputation_snapshot(state, TimeWindow(start=10, end=99), params)
    assert snap["window"] == {"start": 10, "end": 99}
    assert snap["params"] == {
        "epsilon": 1e-8,
        "max_iters": 1000,
        "alpha": 0.5,
        "norm_mode": "l1",
    }
    assert snap["converged"] is True
    assert "scores" not in snap  # write_reputation_json adds the score map
    assert json.dumps(snap)  # JSON-serializable


def test_reputation_snapshot_unbounded_window_end_is_null():
    graph = from_edge_counts(TWO_CYCLE)
    params = RankParams()
    state = liquid_rank(graph, params)
    snap = reputation_snapshot(state, TimeWindow(), params)
    assert snap["window"] == {"start": 0, "end": None}
