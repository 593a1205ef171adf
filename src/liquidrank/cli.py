"""Command-line front end: ingest -> rank -> evaluate/report.

Each subcommand reads and writes stage artifacts on disk, so rankings can be
recomputed under new parameters without re-parsing the raw dataset. Data
artifacts are byte-deterministic given identical inputs and config; wall
clock timings live only in the manifest.

Exit codes: 0 success, 1 I/O failure, 2 input-format/validation error,
3 domain error (empty graph, vanished inflow, empty ranking); `_EXIT_CODES`
is the one table that maps exceptions onto them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, asdict
from pathlib import Path

from . import ingest as ingest_mod
from .errors import DegenerateUpdate, EmptyGraph, EmptyInput, EmptyRanking, FormatError, NodeSetMismatch
from .graph import TimeWindow, build_graph
from .evaluation import evaluate, read_judgments_csv, write_report_json
from .rank import (
    METHOD_LIQUID,
    METHOD_MENTIONS,
    METHOD_PRODUCT,
    RankedList,
    RankParams,
    format_score,
    liquid_rank,
    mention_rank,
    product_rank,
    read_ranking_csv,
    to_ranked_list,
    top_k,
    write_ranking_csv,
    write_reputation_json,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_FORMAT = 2
EXIT_DOMAIN = 3

# Every exception the CLI turns into a one-line error, with its exit code.
# UnicodeDecodeError is a ValueError, so undecodable input exits 2.
_EXIT_CODES = {
    OSError: EXIT_IO,
    FormatError: EXIT_FORMAT,
    ValueError: EXIT_FORMAT,
    EmptyGraph: EXIT_DOMAIN,
    DegenerateUpdate: EXIT_DOMAIN,
    EmptyRanking: EXIT_DOMAIN,
    EmptyInput: EXIT_DOMAIN,
    NodeSetMismatch: EXIT_DOMAIN,
}

MANIFEST_SCHEMA_VERSION = 1
MANIFEST_NAME = "manifest.json"

TXT_BAR_WIDTH = 40

# The JSON type each config-file key accepts; an integer is also a number.
_CONFIG_KEYS = {
    "input": "string",
    "format": "string",
    "window_start": "integer",
    "window_end": "number or null",
    "epsilon": "number",
    "max_iters": "integer",
    "alpha": "number",
    "norm": "string",
    "k": "integer",
    "out_dir": "string",
    "strict": "boolean",
}


def _json_type(value: object) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "integer"
    if isinstance(value, float):
        return "number"
    if isinstance(value, str):
        return "string"
    return "array" if isinstance(value, list) else "object"


@dataclass
class RunConfig:
    """Effective settings for one subcommand run (defaults < file < flags)."""

    input: str | None = None
    format: str | None = None
    window_start: int = 0
    window_end: float = math.inf
    epsilon: float = 0.0001
    max_iters: int = 1000
    alpha: float = 0.5
    norm: str = "l1"
    k: int = 50
    out_dir: str = "out"
    strict: bool = False

    def validate(self) -> None:
        self.rank_params()  # RankParams enforces epsilon/max_iters/alpha/norm
        self.window()
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.format is not None and self.format not in ("jsonl", "csv"):
            raise ValueError(f"format must be jsonl or csv, got {self.format!r}")

    def rank_params(self) -> RankParams:
        return RankParams(
            epsilon=self.epsilon,
            max_iters=self.max_iters,
            alpha=self.alpha,
            norm_mode=self.norm,
        )

    def window(self) -> TimeWindow:
        return TimeWindow(start=self.window_start, end=self.window_end)

    def echo(self) -> dict:
        data = asdict(self)
        if math.isinf(data["window_end"]):
            data["window_end"] = None
        return data


def load_config(args: argparse.Namespace) -> RunConfig:
    """Merge precedence: built-in defaults, then config file, then flags."""
    config = RunConfig()
    if getattr(args, "config", None):
        path = Path(args.config)
        with _reading(path):
            raw = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(raw, dict):
            raise ValueError(f"config file {path}: expected a JSON object")
        for key, value in raw.items():
            if key not in _CONFIG_KEYS:
                raise ValueError(f"config file {path}: unknown key {key!r}")
            expected = _CONFIG_KEYS[key]
            found = _json_type(value)
            accepted = expected.split(" or ")
            if found not in accepted and not (found == "integer" and "number" in accepted):
                raise ValueError(
                    f"config file {path}: {key!r} must be {expected}, got {found} {json.dumps(value)}"
                )
            setattr(config, key, value)
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            setattr(config, key, value)
    if config.window_end is None:
        config.window_end = math.inf
    config.validate()
    return config


@contextmanager
def _reading(path: str | Path):
    """Name ``path`` in every format error raised while reading it."""
    try:
        yield
    except FormatError as exc:
        raise FormatError(exc.line, exc.reason, source=str(path)) from exc
    except json.JSONDecodeError as exc:
        raise FormatError(exc.lineno, f"invalid JSON ({exc.msg})", source=str(path)) from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _sha256_digest(path: Path) -> str:
    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


def _load_manifest(out_dir: Path) -> dict:
    path = out_dir / MANIFEST_NAME
    if path.exists():
        with _reading(path):
            manifest = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(manifest, dict):
            raise FormatError(1, "expected a JSON object", source=str(path))
    else:
        manifest = {}
    manifest["schema_version"] = MANIFEST_SCHEMA_VERSION
    manifest.setdefault("stages", {})
    manifest.setdefault("outputs", {})
    manifest.setdefault("timings_ms", {})
    return manifest


def _write_manifest(out_dir: Path, manifest: dict) -> None:
    """Write a temporary file beside the manifest, then rename it over the
    manifest, so a run that dies mid-write leaves the previous one intact."""
    temp = out_dir / f".{MANIFEST_NAME}.{os.getpid()}.tmp"
    try:
        with open(temp, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(temp, out_dir / MANIFEST_NAME)
    finally:
        temp.unlink(missing_ok=True)


def cmd_ingest(config: RunConfig) -> int:
    """Parse the raw dataset and write the canonical interaction CSV."""
    if not config.input:
        raise ValueError("ingest needs --input")
    start = time.perf_counter()
    input_path = Path(config.input)
    fmt = config.format
    if fmt is None:
        fmt = "csv" if input_path.suffix == ".csv" else "jsonl"
    with _reading(input_path):
        result = ingest_mod.parse_tweets(input_path, fmt, strict=config.strict)
    records = ingest_mod.to_interactions(result.tweets)

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    interactions_path = out_dir / "interactions.csv"
    ingest_mod.write_interactions_csv(records, interactions_path)

    for bad in result.malformed:
        print(f"warning: {input_path}:{bad.line}: skipped ({bad.reason})", file=sys.stderr)

    manifest = _load_manifest(out_dir)
    manifest["stages"]["ingest"] = {
        "config": config.echo(),
        "input_digest": _sha256_digest(input_path),
        "tweet_count": len(result.tweets),
        "record_count": len(records),
        "malformed_count": len(result.malformed),
    }
    manifest["outputs"]["interactions"] = str(interactions_path)
    manifest["timings_ms"]["ingest"] = round((time.perf_counter() - start) * 1000, 3)
    _write_manifest(out_dir, manifest)

    print(f"wrote {interactions_path} ({len(records)} interactions from {len(result.tweets)} tweets)")
    return EXIT_OK


def cmd_rank(config: RunConfig, method: str = "all") -> int:
    """Compute the requested rankings from the interaction CSV."""
    start = time.perf_counter()
    out_dir = Path(config.out_dir)
    input_path = Path(config.input) if config.input else out_dir / "interactions.csv"
    with _reading(input_path):
        columns = ingest_mod.read_interaction_columns(input_path)

    window = config.window()
    params = config.rank_params()
    graph = build_graph(columns, window)

    wanted = [METHOD_MENTIONS, METHOD_LIQUID, METHOD_PRODUCT] if method == "all" else [method]
    need_liquid = METHOD_LIQUID in wanted or METHOD_PRODUCT in wanted
    need_mentions = METHOD_MENTIONS in wanted or METHOD_PRODUCT in wanted

    rankings: dict[str, RankedList] = {}
    state = None
    if need_mentions:
        rankings[METHOD_MENTIONS] = mention_rank(graph)
    if need_liquid:
        state = liquid_rank(graph, params)
        if not state.converged:
            print(
                f"warning: reputation loop did not converge after {state.iterations} "
                f"iterations (last change {format_score(state.final_delta)})",
                file=sys.stderr,
            )
        rankings[METHOD_LIQUID] = to_ranked_list(state)
    if METHOD_PRODUCT in wanted:
        rankings[METHOD_PRODUCT] = product_rank(rankings[METHOD_MENTIONS], rankings[METHOD_LIQUID])

    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = _load_manifest(out_dir)
    for name in wanted:
        path = out_dir / f"ranking_{name}.csv"
        write_ranking_csv(rankings[name], path)
        manifest["outputs"][f"ranking_{name}"] = str(path)
        print(f"wrote {path}")
    if state is not None:
        reputation_path = out_dir / "reputation.json"
        write_reputation_json(state, window, params, reputation_path)
        manifest["outputs"]["reputation"] = str(reputation_path)
        print(f"wrote {reputation_path}")

    manifest["stages"]["rank"] = {
        "config": config.echo(),
        "input_digest": _sha256_digest(input_path),
        "record_count": len(columns.raters),
        "node_count": graph.node_count,
        "edge_count": graph.edge_count,
    }
    manifest["timings_ms"]["rank"] = round((time.perf_counter() - start) * 1000, 3)
    _write_manifest(out_dir, manifest)
    return EXIT_OK


def _report_table(reports: list) -> str:
    header = f"{'method':<10} {'k':>4} {'precision':>10} {'avg_prec':>10} {'rr':>8} {'found':>6} {'total':>6}"
    lines = [header, "-" * len(header)]
    for r in reports:
        lines.append(
            f"{r.method:<10} {r.k:>4} {r.precision:>10.4f} {r.average_precision:>10.4f} "
            f"{r.reciprocal_rank:>8.4f} {r.relevant_found:>6} {r.relevant_total:>6}"
        )
    return "\n".join(lines)


def _unique_name(base: str, used: set[str]) -> str:
    name = base
    counter = 2
    while name in used:
        name = f"{base}_{counter}"
        counter += 1
    used.add(name)
    return name


def cmd_evaluate(config: RunConfig, ranking_paths: list[str], judgments_path: str) -> int:
    """Score each ranking against the judgments; print a comparison table."""
    start = time.perf_counter()
    with _reading(judgments_path):
        judgments = read_judgments_csv(judgments_path)

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = _load_manifest(out_dir)
    reports = []
    used_names: set[str] = set()
    for ranking_path in ranking_paths:
        with _reading(ranking_path):
            ranked = read_ranking_csv(ranking_path)
        try:
            report = evaluate(ranked, judgments, config.k)
        except EmptyRanking as exc:
            raise EmptyRanking(f"{ranking_path}: {exc}") from exc
        reports.append(report)
        name = _unique_name(report.method or Path(ranking_path).stem, used_names)
        report_path = out_dir / f"report_{name}.json"
        write_report_json(report, report_path)
        manifest["outputs"][f"report_{name}"] = str(report_path)

    print(_report_table(reports))
    manifest["timings_ms"]["evaluate"] = round((time.perf_counter() - start) * 1000, 3)
    _write_manifest(out_dir, manifest)
    return EXIT_OK


def render_txt_chart(ranked: RankedList, k: int, title: str | None = None) -> str:
    """Horizontal bar chart in plain text, widths proportional to score."""
    rows = top_k(ranked, k).entries if ranked.entries else ()
    name = title or ranked.method or "ranking"
    lines = [f"{name}: top {len(rows)} of {len(ranked.entries)}"]
    if rows:
        max_score = max(e.score for e in rows)
        label_width = max(len(e.node) for e in rows)
        for e in rows:
            width = round(TXT_BAR_WIDTH * e.score / max_score) if max_score > 0 else 0
            bar = "#" * width
            lines.append(f"{e.rank:>4}  {e.node:<{label_width}}  {bar:<{TXT_BAR_WIDTH}}  {format_score(e.score)}")
    return "\n".join(lines) + "\n"


def render_svg_chart(ranked: RankedList, k: int, title: str | None = None) -> str:
    """Self-contained SVG bar chart; no rendering dependencies."""
    rows = top_k(ranked, k).entries if ranked.entries else ()
    name = title or ranked.method or "ranking"
    bar_h, gap, label_w, chart_w, value_w = 16, 6, 170, 400, 120
    width = label_w + chart_w + value_w + 30
    height = 40 + len(rows) * (bar_h + gap)
    max_score = max((e.score for e in rows), default=0.0)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="monospace" font-size="12">',
        f'<text x="10" y="20">{name}: top {len(rows)} of {len(ranked.entries)}</text>',
    ]
    for idx, e in enumerate(rows):
        y = 34 + idx * (bar_h + gap)
        bar = chart_w * e.score / max_score if max_score > 0 else 0.0
        parts.append(f'<text x="10" y="{y + 12}">{e.rank}. {e.node}</text>')
        parts.append(f'<rect x="{label_w}" y="{y}" width="{bar:.2f}" height="{bar_h}" fill="#4878a8"/>')
        parts.append(f'<text x="{label_w + chart_w + 10}" y="{y + 12}">{format_score(e.score)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_report(config: RunConfig, ranking_paths: list[str], fmt: str = "txt") -> int:
    """Emit a bar-chart file per ranking CSV."""
    start = time.perf_counter()
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = _load_manifest(out_dir)
    render = render_txt_chart if fmt == "txt" else render_svg_chart
    used_names: set[str] = set()
    for ranking_path in ranking_paths:
        with _reading(ranking_path):
            ranked = read_ranking_csv(ranking_path)
        name = _unique_name(ranked.method or Path(ranking_path).stem, used_names)
        chart = render(ranked, config.k, title=name)
        chart_path = out_dir / f"chart_{name}.{fmt}"
        with open(chart_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(chart)
        manifest["outputs"][f"chart_{name}"] = str(chart_path)
        print(f"wrote {chart_path}")
    manifest["timings_ms"]["report"] = round((time.perf_counter() - start) * 1000, 3)
    _write_manifest(out_dir, manifest)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liquidrank",
        description="Mention-graph reputation ranking and evaluation pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shared(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file; explicit flags win over file values")
        p.add_argument("--out-dir", dest="out_dir", help="directory for stage artifacts (default: out)")
        p.add_argument("--k", type=int, help="ranking cutoff (default: 50)")

    p_ingest = sub.add_parser("ingest", help="parse a tweet dataset into interactions.csv")
    add_shared(p_ingest)
    p_ingest.add_argument("--input", help="path to the raw dataset")
    p_ingest.add_argument("--format", choices=["jsonl", "csv"], help="input format (default: by file suffix)")
    p_ingest.add_argument(
        "--strict",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="fail on the first malformed line instead of skipping it",
    )

    p_rank = sub.add_parser("rank", help="compute rankings from interactions.csv")
    add_shared(p_rank)
    p_rank.add_argument("--input", help="interaction CSV (default: <out-dir>/interactions.csv)")
    p_rank.add_argument(
        "--method",
        choices=[METHOD_MENTIONS, METHOD_LIQUID, METHOD_PRODUCT, "all"],
        default="all",
        help="which ranking(s) to compute",
    )
    p_rank.add_argument("--window-start", dest="window_start", type=int, help="window start, epoch seconds (inclusive)")
    p_rank.add_argument("--window-end", dest="window_end", type=float, help="window end, epoch seconds (exclusive)")
    p_rank.add_argument("--epsilon", type=float, help="convergence threshold (default: 0.0001)")
    p_rank.add_argument("--max-iters", dest="max_iters", type=int, help="iteration cap (default: 1000)")
    p_rank.add_argument("--alpha", type=float, help="damping blend in (0, 1] (default: 0.5)")
    p_rank.add_argument("--norm", choices=["l1", "max"], help="per-cycle normalization (default: l1)")

    p_eval = sub.add_parser("evaluate", help="score rankings against graded judgments")
    add_shared(p_eval)
    p_eval.add_argument("rankings", nargs="+", help="ranking CSV path(s)")
    p_eval.add_argument("--judgments", required=True, help="judgment CSV (node,grade)")

    p_report = sub.add_parser("report", help="emit bar charts for rankings")
    add_shared(p_report)
    p_report.add_argument("rankings", nargs="+", help="ranking CSV path(s)")
    p_report.add_argument(
        "--format", dest="chart_format", choices=["txt", "svg"], help="chart format (default: txt)"
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args)
        if args.command == "ingest":
            return cmd_ingest(config)
        if args.command == "rank":
            return cmd_rank(config, method=args.method)
        if args.command == "evaluate":
            return cmd_evaluate(config, args.rankings, args.judgments)
        if args.command == "report":
            return cmd_report(config, args.rankings, fmt=args.chart_format or "txt")
        parser.error(f"unknown command {args.command!r}")
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
    return EXIT_OK


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
