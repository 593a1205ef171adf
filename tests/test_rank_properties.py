"""Property checks for the reputation iteration on small random graphs."""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracle import dense_liquid

from liquidrank.graph import from_edge_counts
from liquidrank.rank import METHOD_LIQUID, RankParams, liquid_rank, mention_rank, to_ranked_list

from test_rank import ranked_list_from_scores

COMMON = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def weight_maps(draw, max_nodes=6, max_weight=5):
    """Every ordered pair independently gets a weight in 0..max_weight
    (zero = absent); at least one edge overall."""
    n = draw(st.integers(2, max_nodes))
    names = [f"n{i:02d}" for i in range(n)]
    weights = {}
    for a in names:
        for b in names:
            if a == b:
                continue
            w = draw(st.integers(0, max_weight))
            if w:
                weights[(a, b)] = w
    assume(weights)
    return weights


@st.composite
def strongly_connected_weight_maps(draw, max_nodes=6, max_weight=5):
    """A cycle through every node, plus arbitrary extra edges."""
    n = draw(st.integers(2, max_nodes))
    names = [f"n{i:02d}" for i in range(n)]
    order = draw(st.permutations(names))
    weights = {}
    for i, a in enumerate(order):
        weights[(a, order[(i + 1) % n])] = draw(st.integers(1, max_weight))
    for a in names:
        for b in names:
            if a == b or (a, b) in weights:
                continue
            w = draw(st.integers(0, max_weight))
            if w:
                weights[(a, b)] = w
    return weights


@COMMON
@given(
    weights=weight_maps(),
    mode=st.sampled_from(["l1", "max"]),
    alpha=st.floats(0.1, 0.99),
    max_iters=st.integers(1, 60),
)
def test_chosen_norm_is_one_after_any_iteration(weights, mode, alpha, max_iters):
    graph = from_edge_counts(weights)
    state = liquid_rank(graph, RankParams(epsilon=1e-15, max_iters=max_iters, alpha=alpha, norm_mode=mode))
    values = list(state.scores.values())
    norm = sum(values) if mode == "l1" else max(values)
    assert abs(norm - 1.0) <= 1e-12


@COMMON
@given(weights=weight_maps(), factor=st.integers(2, 9), mode=st.sampled_from(["l1", "max"]))
def test_uniform_weight_scaling_changes_nothing(weights, factor, mode):
    scaled = {pair: w * factor for pair, w in weights.items()}
    base = liquid_rank(from_edge_counts(weights), RankParams(norm_mode=mode))
    same = liquid_rank(from_edge_counts(scaled), RankParams(norm_mode=mode))
    assert base.scores == same.scores
    assert base.iterations == same.iterations
    assert base.final_delta == same.final_delta


@st.composite
def weight_maps_with_relabeling(draw):
    weights = draw(weight_maps())
    names = sorted({n for pair in weights for n in pair})
    shuffled = draw(st.permutations(range(len(names))))
    mapping = {name: f"m{idx:02d}" for name, idx in zip(names, shuffled)}
    relabeled = {(mapping[a], mapping[b]): w for (a, b), w in weights.items()}
    return weights, relabeled, mapping


@COMMON
@given(data=weight_maps_with_relabeling())
def test_mention_rank_is_permutation_equivariant(data):
    weights, relabeled, mapping = data
    base = mention_rank(from_edge_counts(weights))
    moved = mention_rank(from_edge_counts(relabeled))
    assert {mapping[e.node]: e.score for e in base.entries} == {
        e.node: e.score for e in moved.entries
    }


@COMMON
@given(data=weight_maps_with_relabeling())
def test_liquid_rank_is_permutation_equivariant(data):
    weights, relabeled, mapping = data
    params = RankParams(epsilon=1e-10, max_iters=5000)
    base = liquid_rank(from_edge_counts(weights), params)
    moved = liquid_rank(from_edge_counts(relabeled), params)
    for node, score in base.scores.items():
        assert abs(moved.scores[mapping[node]] - score) <= 1e-12


@COMMON
@given(weights=weight_maps(), mode=st.sampled_from(["l1", "max"]), max_iters=st.integers(1, 30))
def test_to_ranked_list_equals_the_sorted_reference(weights, mode, max_iters):
    # Few iterations leave many exact ties, which the node order must break.
    state = liquid_rank(from_edge_counts(weights), RankParams(max_iters=max_iters, norm_mode=mode))
    assert to_ranked_list(state) == ranked_list_from_scores(METHOD_LIQUID, state.scores)


@COMMON
@given(weights=strongly_connected_weight_maps())
def test_norm_modes_agree_up_to_exact_ties(weights):
    # Both modes chase the same dominant direction; only pairs that are
    # exactly tied in the limit (gap within convergence residual) may come
    # out either way, so those carry no ordering information.
    graph = from_edge_counts(weights)
    by_l1 = liquid_rank(graph, RankParams(epsilon=1e-10, max_iters=20000, norm_mode="l1"))
    by_max = liquid_rank(graph, RankParams(epsilon=1e-10, max_iters=20000, norm_mode="max"))
    total = sum(by_max.scores.values())
    for node, score in by_l1.scores.items():
        assert abs(by_max.scores[node] / total - score) <= 1e-6
    order_l1 = [e.node for e in to_ranked_list(by_l1).entries]
    order_max = [e.node for e in to_ranked_list(by_max).entries]
    pos_l1 = {n: i for i, n in enumerate(order_l1)}
    pos_max = {n: i for i, n in enumerate(order_max)}
    nodes = order_l1
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            a, b = nodes[i], nodes[j]
            if abs(by_l1.scores[a] - by_l1.scores[b]) > 2e-6:
                assert (pos_l1[a] < pos_l1[b]) == (pos_max[a] < pos_max[b])


@COMMON
@given(weights=weight_maps(), alpha=st.floats(0.1, 0.95))
def test_zero_inflow_node_ends_below_ten_epsilon(weights, alpha):
    # graft on a node nobody mentions; it only rates others
    target = sorted({n for pair in weights for n in pair})[0]
    weights = dict(weights)
    weights[("zz_outsider", target)] = 1
    params = RankParams(epsilon=1e-6, max_iters=5000, alpha=alpha)
    state = liquid_rank(from_edge_counts(weights), params)
    assume(state.converged)
    assert state.scores["zz_outsider"] < params.epsilon * 10


@COMMON
@given(weights=weight_maps(), extra=st.integers(1, 5))
def test_mention_score_strictly_increases_with_new_inflow(weights, extra):
    names = sorted({n for pair in weights for n in pair})
    target, source = names[0], names[-1]
    assume(source != target)
    before = mention_rank(from_edge_counts(weights))
    bumped = dict(weights)
    bumped[(source, target)] = bumped.get((source, target), 0) + extra
    after = mention_rank(from_edge_counts(bumped))
    before, after = dict(zip(before.nodes, before.scores)), dict(zip(after.nodes, after.scores))
    assert after[target] == before[target] + extra
    for node in names:
        if node != target:
            assert after[node] == before[node]


@COMMON
@given(weights=weight_maps(), alpha=st.floats(0.1, 0.99))
def test_sparse_path_tracks_dense_oracle(weights, alpha):
    params = RankParams(epsilon=1e-12, max_iters=20000, alpha=alpha)
    state = liquid_rank(from_edge_counts(weights), params)
    expected, _, _, _ = dense_liquid(weights, alpha=alpha, epsilon=1e-12, max_iters=20000)
    for node, score in expected.items():
        assert math.isclose(state.scores[node], score, rel_tol=0.0, abs_tol=1e-9)
