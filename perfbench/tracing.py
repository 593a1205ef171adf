"""The traced pass: the program's public functions, called in-process in the
order the CLI calls them, each inside a span.

Spans are kept in memory as (name, start, end, parent) and summed per name
into the per-layer metrics. One extra call has no CLI counterpart:
`rank.first_cycle` runs `liquid_rank` with `max_iters=1`, which isolates the
operator build plus one cycle.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

from workloads import K, Workload

# Spans of work the CLI itself does; cli.overhead_s is what is left of the
# commands' wall time once these and the process start are taken away.
CLI_LAYERS = (
    "ingest.parse", "ingest.extract", "ingest.write", "ingest.read", "graph.build",
    "rank.mention", "rank.liquid", "rank.order", "rank.product", "rank.write", "rank.read",
    "evaluation.read_judgments", "evaluation.evaluate", "cli.render",
)


@dataclass
class Tracer:
    spans: list[tuple[str, float, float, int]] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            name, start, _, parent = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter(), parent)

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)


def traced_pass(w: Workload, out: Path, tracer: Tracer) -> None:
    """Run the workload's commands through the library API under `tracer`."""
    from liquidrank import cli, evaluation, graph, ingest, rank

    span = tracer.span
    out.mkdir(parents=True)
    interactions = out / "interactions.csv"
    with span("cmd.ingest"):
        with span("ingest.parse"):
            parsed = ingest.parse_tweets(w.input_path, "jsonl", strict=False)
        with span("ingest.extract"):
            records = ingest.to_interactions(parsed.tweets)
        with span("ingest.write"):
            ingest.write_interactions_csv(records, interactions)
    tracer.count("ingest.posts", len(parsed.tweets))
    tracer.count("ingest.malformed", len(parsed.malformed))
    tracer.count("ingest.records", len(records))
    tracer.count("ingest.bytes_in", w.input_path.stat().st_size)
    tracer.count("ingest.bytes_out", interactions.stat().st_size)
    del parsed, records

    for run in w.ranks:
        run_out = out / run.name
        run_out.mkdir()
        params = rank.RankParams(epsilon=run.epsilon, alpha=run.alpha, norm_mode=run.norm)
        window = graph.TimeWindow(start=run.start, end=run.end)
        with span("cmd.rank"):
            with span("ingest.read"):
                records = ingest.read_interactions_csv(interactions)
            with span("graph.build"):
                g = graph.build_graph(records, window)
            tracer.count("graph.read", len(records))
            del records
            with span("rank.mention"):
                mentions = rank.mention_rank(g)
            with span("rank.first_cycle"):
                rank.liquid_rank(g, replace(params, max_iters=1))
            with span("rank.liquid"):
                state = rank.liquid_rank(g, params)
            with span("rank.order"):
                liquid = rank.to_ranked_list(state)
            with span("rank.product"):
                product = rank.product_rank(mentions, liquid)
            with span("rank.write"):
                for ranked in (mentions, liquid, product):
                    rank.write_ranking_csv(ranked, run_out / f"ranking_{ranked.method}.csv")
                rank.write_reputation_json(state, window, params, run_out / "reputation.json")
        tracer.count("graph.nodes", g.node_count)
        tracer.count("graph.edges", g.edge_count)
        tracer.count("graph.kept", g.total_weight())
        tracer.count("rank.iterations", state.iterations)
        del g, mentions, state, liquid, product

    evaluated = out / w.evaluated
    paths = [evaluated / f"ranking_{m}.csv" for m in ("mentions", "liquid", "product")]
    with span("cmd.evaluate"):
        with span("evaluation.read_judgments"):
            judgments = evaluation.read_judgments_csv(w.judgments_path)
        for path in paths:
            with span("rank.read"):
                ranked = rank.read_ranking_csv(path)
            with span("evaluation.evaluate"):
                report = evaluation.evaluate(ranked, judgments, K)
                evaluation.write_report_json(report, evaluated / f"report_{ranked.method}.json")
    with span("cmd.report"):
        for path in paths:
            with span("rank.read"):
                ranked = rank.read_ranking_csv(path)
            with span("cli.render"):
                chart = cli.render_txt_chart(ranked, K, title=ranked.method)
                (evaluated / f"chart_{ranked.method}.txt").write_text(chart, encoding="utf-8")
