"""The columnar rank path against plain-Python references: a Counter for the
graph, sorted(key=(-score, node)) for the rankings, and golden artifacts for
the CLI."""

import math
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liquidrank.cli import main
from liquidrank.errors import EmptyGraph
from liquidrank.graph import TimeWindow, build_graph
from liquidrank.ingest import InteractionRecord, read_interaction_columns
from liquidrank.rank import liquid_rank, mention_rank, product_rank, to_ranked_list

# Rankings and reputation.json for three consecutive windows, one directory
# per window: golden_<start>_<end>. The mention rankings are those the
# dict-and-sort implementation the columnar path replaced wrote; the liquid and
# product rankings and reputation.json were rewritten when the stopping rule
# became relative to the top score.
WINDOWS = Path(__file__).parent / "data" / "windows"

HANDLES = ["b", "a", "a_", "aa", "z9", "c"]
LAST_TS = 12


@st.composite
def record_lists(draw):
    pairs = st.tuples(st.sampled_from(HANDLES), st.sampled_from(HANDLES)).filter(lambda p: p[0] != p[1])
    rows = draw(st.lists(st.tuples(pairs, st.integers(0, LAST_TS)), max_size=40))
    return [InteractionRecord(rater, ratee, ts) for (rater, ratee), ts in rows]


@st.composite
def windows(draw):
    # Timestamps and bounds share one small range, so records often sit
    # exactly on a window's start or end.
    start = draw(st.integers(0, LAST_TS))
    end = draw(st.one_of(st.just(math.inf), st.integers(start + 1, LAST_TS + 1)))
    return TimeWindow(start=start, end=end)


def reference_order(scores):
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))


def entries(ranked):
    assert [e.rank for e in ranked.entries] == list(range(1, len(ranked.entries) + 1))
    return [(e.node, e.score) for e in ranked.entries]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(records=record_lists(), window=windows())
def test_columnar_graph_and_rankings_match_counter_reference(records, window):
    kept = [r for r in records if window.start <= r.timestamp < window.end]
    counts = Counter((r.rater, r.ratee) for r in kept)
    nodes = tuple(sorted({handle for pair in counts for handle in pair}))
    inflow = dict.fromkeys(nodes, 0)
    for (_, ratee), weight in counts.items():
        inflow[ratee] += weight

    text = "rater,ratee,timestamp\n" + "".join(f"{r.rater},{r.ratee},{r.timestamp}\n" for r in records)
    for graph in (build_graph(records, window), build_graph(read_interaction_columns(text), window)):
        assert graph.nodes == nodes
        assert graph.sorted_edges() == sorted((i, j, w) for (i, j), w in counts.items())
        assert graph.total_weight() == len(kept)
        if not nodes:
            with pytest.raises(EmptyGraph):
                mention_rank(graph)
            continue

        mentions = mention_rank(graph)
        assert entries(mentions) == reference_order({n: float(w) for n, w in inflow.items()})
        state = liquid_rank(graph)
        liquid = to_ranked_list(state)
        assert entries(liquid) == reference_order(state.scores)
        total = sum(inflow.values())
        expected = {n: inflow[n] / total * state.scores[n] for n in nodes}
        assert entries(product_rank(mentions, liquid)) == reference_order(expected)


def test_rank_window_sequence_writes_golden_artifacts(tmp_path):
    goldens = sorted(WINDOWS.glob("golden_*"), key=lambda p: int(p.name.split("_")[1]))
    assert len(goldens) == 3
    for golden in goldens:
        _, start, end = golden.name.split("_")
        out = tmp_path / golden.name
        argv = ["rank", "--input", str(WINDOWS / "interactions.csv"), "--out-dir", str(out),
                "--window-start", start, "--window-end", end]
        assert main(argv) == 0
        written = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert written == sorted(p.name for p in golden.iterdir())
        for name in written:
            assert (out / name).read_bytes() == (golden / name).read_bytes(), f"{golden.name}/{name}"
