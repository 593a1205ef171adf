"""Command-line front end: ingest -> rank -> evaluate/report.

Each subcommand reads and writes stage artifacts on disk, so rankings can be
recomputed under new parameters without re-parsing the raw dataset. Data
artifacts are byte-deterministic given identical inputs and config; wall
clock timings live only in the manifest.

Exit code 0 is success; `_EXIT_CODES` is the one table that maps each
failure onto its code.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from . import ingest as ingest_mod
from .errors import DomainError, FormatError
from .graph import TimeWindow, build_graph
from .evaluation import evaluate, read_judgments_csv, write_report_json
from .ingest import POST_FORMATS
from .rank import (
    NORM_MODES,
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
# FormatError and UnicodeDecodeError are ValueErrors, so they exit 2.
_EXIT_CODES = {OSError: EXIT_IO, ValueError: EXIT_FORMAT, DomainError: EXIT_DOMAIN}

MANIFEST_SCHEMA_VERSION = 1
MANIFEST_NAME = "manifest.json"

TXT_BAR_WIDTH = 40

# Text as SVG character data: "&", "<" and ">" escaped, and each code point
# XML 1.0 forbids replaced by U+FFFD. A table, not xml.sax.saxutils.escape:
# that module imports urllib.request, which added 3 MB to every command's RSS.
_XML_TEXT = {
    **dict.fromkeys([*range(9), 11, 12, *range(14, 32), 0xFFFE, 0xFFFF], "\ufffd"),
    **str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"}),
}

NAME_MAX = 255  # the longest file name, in bytes, on Linux's common file systems


@dataclass
class RunConfig:
    """Effective settings for one subcommand run: each given flag, else its default."""

    input: str | None = None
    format: str | None = None
    window_start: int = 0
    window_end: float = math.inf
    epsilon: float = RankParams.epsilon
    max_iters: int = RankParams.max_iters
    alpha: float = RankParams.alpha
    norm: str = RankParams.norm_mode
    k: int = 50
    out_dir: str = "out"
    strict: bool = False

    def validate(self) -> None:
        self.rank_params()  # RankParams enforces epsilon/max_iters/alpha/norm
        self.window()
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")

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
        # Compared, not math.isinf: an integer end past float range is finite.
        if data["window_end"] == math.inf:
            data["window_end"] = None
        return data


def load_config(args: argparse.Namespace) -> RunConfig:
    """The defaults, overridden by each flag given."""
    config = RunConfig(
        **{f.name: getattr(args, f.name) for f in fields(RunConfig) if getattr(args, f.name, None) is not None}
    )
    config.validate()
    return config


def _load_manifest(out_dir: Path) -> dict:
    path = out_dir / MANIFEST_NAME
    manifest = ingest_mod.read_json_object(path) if path.exists() else {}
    manifest["schema_version"] = MANIFEST_SCHEMA_VERSION
    for section in ("stages", "outputs", "timings_ms"):
        if not isinstance(manifest.setdefault(section, {}), dict):
            raise FormatError(1, f"{section!r} must be a JSON object", str(path))
    return manifest


def _stage(command):
    """Run ``command(config, manifest, ...)`` as the stage named after it
    (``cmd_rank`` is ``rank``): load the out dir's manifest, let the command
    write its artifacts and fill its stage in, then list each artifact under
    ``outputs`` by its file name, record the command's wall time and write the
    manifest. The stage's files replace the old ones together when it ends,
    the manifest last; a failed stage replaces none and prints nothing. Once
    they are in place it prints ``wrote <path>`` per artifact, in write order,
    then the text the command returned, if any."""
    name = command.__name__.removeprefix("cmd_")

    @functools.wraps(command)
    def run(config: RunConfig, *args, **kwargs) -> int:
        start = time.perf_counter()
        manifest = _load_manifest(Path(config.out_dir))
        with ingest_mod.write_together() as held:
            summary = command(config, manifest, *args, **kwargs)
            artifacts = list(held)
            for path in artifacts:
                manifest["outputs"][path.name] = str(path)
            manifest["timings_ms"][name] = round((time.perf_counter() - start) * 1000, 3)
            ingest_mod.write_json(Path(config.out_dir) / MANIFEST_NAME, manifest)
        for path in artifacts:
            print(f"wrote {path}")
        if summary is not None:
            print(summary)
        return EXIT_OK

    return run


@_stage
def cmd_ingest(config: RunConfig, manifest: dict) -> str:
    """Parse the raw dataset and write the canonical interaction CSV."""
    if not config.input:
        raise ValueError("ingest needs --input")
    input_path = Path(config.input)
    fmt = config.format
    if fmt is None:
        fmt = "csv" if input_path.suffix.lower() == ".csv" else "jsonl"
    columns, posts, malformed = ingest_mod.read_post_columns(input_path, fmt, strict=config.strict)

    ingest_mod.write_interaction_columns(columns, Path(config.out_dir) / "interactions.csv")

    for bad in malformed:
        print(f"warning: {input_path}:{bad.line}: skipped ({bad.reason})", file=sys.stderr)

    manifest["stages"]["ingest"] = {
        "config": config.echo(),
        "input_digest": ingest_mod.sha256_digest(input_path),
        "tweet_count": posts,
        "record_count": len(columns.raters),
        "malformed_count": len(malformed),
    }
    return f"{len(columns.raters)} interactions from {posts} tweets"


@_stage
def cmd_rank(config: RunConfig, manifest: dict) -> None:
    """Write the mention, liquid and product rankings, then reputation.json."""
    out_dir = Path(config.out_dir)
    input_path = Path(config.input) if config.input else out_dir / "interactions.csv"
    digest = ingest_mod.sha256_digest(input_path)
    columns = ingest_mod.read_interaction_sidecar(input_path, digest)
    if columns is None:
        columns = ingest_mod.read_interaction_columns(input_path)

    window = config.window()
    params = config.rank_params()
    graph = build_graph(columns, window)
    mentions = mention_rank(graph)
    state = liquid_rank(graph, params)
    if not state.converged:
        print(
            f"warning: reputation loop did not converge after {state.iterations} "
            f"iterations (last change {format_score(state.final_delta)})",
            file=sys.stderr,
        )
    liquid = to_ranked_list(state)
    for ranked in (mentions, liquid, product_rank(mentions, liquid)):
        write_ranking_csv(ranked, out_dir / f"ranking_{ranked.method}.csv")
    write_reputation_json(state, window, params, out_dir / "reputation.json")

    manifest["stages"]["rank"] = {
        "config": config.echo(),
        "input_digest": digest,
        "record_count": len(columns.raters),
        "node_count": graph.node_count,
        "edge_count": graph.edge_count,
    }


def _report_table(reports: list) -> str:
    header = f"{'method':<10} {'k':>4} {'precision':>10} {'avg_prec':>10} {'rr':>8} {'found':>6} {'total':>6}"
    lines = [header, "-" * len(header)]
    for r in reports:
        lines.append(
            f"{r.method:<10} {r.k:>4} {r.precision:>10.4f} {r.average_precision:>10.4f} "
            f"{r.reciprocal_rank:>8.4f} {r.relevant_found:>6} {r.relevant_total:>6}"
        )
    return "\n".join(lines)


def _named_rankings(ranking_paths: list[str], out_dir: str, artifact: str) -> list[tuple[str, str, RankedList, Path]]:
    """Read every ranking CSV, named by its method (else its file stem) with
    a _2, _3, ... suffix where the name is already taken, and give each the
    path of its artifact, ``artifact.format(name)`` in ``out_dir``. A method
    that is not one path component, or makes that file's name or its
    temporary file's too long, is a format error."""
    named, used = [], set()
    for path in ranking_paths:
        ranked = read_ranking_csv(Path(path))
        if ranked.method in (".", "..") or any(c in ranked.method for c in "/\\\0"):
            raise ValueError(f"{path}: method {ranked.method!r} is not a file name")
        base = name = ranked.method or Path(path).stem
        counter = 2
        while name in used:
            name = f"{base}_{counter}"
            counter += 1
        used.add(name)
        target = Path(out_dir) / artifact.format(name)
        if len(os.fsencode(ingest_mod.temp_path(target).name)) > NAME_MAX:
            raise ValueError(f"{path}: method {name!r} is too long for a file name")
        named.append((name, path, ranked, target))
    return named


@_stage
def cmd_evaluate(config: RunConfig, manifest: dict, ranking_paths: list[str], judgments_path: str) -> str:
    """Score each ranking against the judgments; return a comparison table."""
    judgments = read_judgments_csv(Path(judgments_path))

    reports = []
    for _, ranking_path, ranked, target in _named_rankings(ranking_paths, config.out_dir, "report_{}.json"):
        try:
            report = evaluate(ranked, judgments, config.k)
        except DomainError as exc:
            raise DomainError(f"{ranking_path}: {exc}") from exc
        reports.append(report)
        write_report_json(report, target)
    return _report_table(reports)


def render_txt_chart(ranked: RankedList, k: int, title: str | None = None) -> str:
    """Horizontal bar chart in plain text, widths proportional to score."""
    rows = top_k(ranked, k).entries
    name = title or ranked.method or "ranking"
    lines = [f"{name}: top {len(rows)} of {len(ranked.nodes)}"]
    if rows:
        max_score = max(e.score for e in rows)
        label_width = max(len(e.node) for e in rows)
        for e in rows:
            width = round(TXT_BAR_WIDTH * e.score / max_score) if max_score > 0 else 0
            bar = "#" * width
            lines.append(f"{e.rank:>4}  {e.node:<{label_width}}  {bar:<{TXT_BAR_WIDTH}}  {format_score(e.score)}")
    return "\n".join(lines) + "\n"


def render_svg_chart(ranked: RankedList, k: int, title: str | None = None) -> str:
    """Self-contained SVG bar chart; no rendering dependencies. Text is
    escaped, so any node name or title gives well-formed XML; a bar is at
    least 0 wide."""
    rows = top_k(ranked, k).entries
    name = (title or ranked.method or "ranking").translate(_XML_TEXT)
    bar_h, gap, label_w, chart_w, value_w = 16, 6, 170, 400, 120
    width = label_w + chart_w + value_w + 30
    height = 40 + len(rows) * (bar_h + gap)
    max_score = max((e.score for e in rows), default=0.0)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="monospace" font-size="12">',
        f'<text x="10" y="20">{name}: top {len(rows)} of {len(ranked.nodes)}</text>',
    ]
    for idx, e in enumerate(rows):
        y = 34 + idx * (bar_h + gap)
        bar = max(0.0, chart_w * e.score / max_score) if max_score > 0 else 0.0
        parts.append(f'<text x="10" y="{y + 12}">{e.rank}. {e.node.translate(_XML_TEXT)}</text>')
        parts.append(f'<rect x="{label_w}" y="{y}" width="{bar:.2f}" height="{bar_h}" fill="#4878a8"/>')
        parts.append(f'<text x="{label_w + chart_w + 10}" y="{y + 12}">{format_score(e.score)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


@_stage
def cmd_report(config: RunConfig, manifest: dict, ranking_paths: list[str], fmt: str = "txt") -> None:
    """Emit a bar-chart file per ranking CSV."""
    render = render_txt_chart if fmt == "txt" else render_svg_chart
    for name, _, ranked, target in _named_rankings(ranking_paths, config.out_dir, f"chart_{{}}.{fmt}"):
        with ingest_mod.write_atomic(target) as fh:
            fh.write(render(ranked, config.k, title=name))


def number(text: str) -> int | float:
    """An integral literal as an exact int, else a float: ``--window-end``
    keeps an integer bound past float range exact."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liquidrank",
        description="Mention-graph reputation ranking and evaluation pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shared(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--out-dir", dest="out_dir", help=f"directory for stage artifacts (default: {RunConfig.out_dir})"
        )

    p_ingest = sub.add_parser("ingest", help="parse a tweet dataset into interactions.csv")
    add_shared(p_ingest)
    p_ingest.add_argument("--input", help="path to the raw dataset")
    p_ingest.add_argument("--format", choices=POST_FORMATS, help="input format (default: by file suffix)")
    p_ingest.add_argument(
        "--strict",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="fail on the first malformed line instead of skipping it",
    )

    p_rank = sub.add_parser("rank", help="compute rankings from interactions.csv")
    add_shared(p_rank)
    p_rank.add_argument("--input", help="interaction CSV (default: <out-dir>/interactions.csv)")
    p_rank.add_argument("--window-start", dest="window_start", type=int, help="window start, epoch seconds (inclusive)")
    p_rank.add_argument("--window-end", dest="window_end", type=number, help="window end, epoch seconds (exclusive)")
    p_rank.add_argument("--epsilon", type=float, help=f"convergence threshold (default: {RunConfig.epsilon})")
    p_rank.add_argument(
        "--max-iters", dest="max_iters", type=int, help=f"iteration cap (default: {RunConfig.max_iters})"
    )
    p_rank.add_argument("--alpha", type=float, help=f"damping blend in (0, 1] (default: {RunConfig.alpha})")
    p_rank.add_argument("--norm", choices=NORM_MODES, help=f"per-cycle normalization (default: {RunConfig.norm})")

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
    for p in (p_eval, p_report):
        p.add_argument("--k", type=int, help=f"ranking cutoff (default: {RunConfig.k})")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args)
        if args.command == "ingest":
            return cmd_ingest(config)
        if args.command == "rank":
            return cmd_rank(config)
        if args.command == "evaluate":
            return cmd_evaluate(config, args.rankings, args.judgments)
        return cmd_report(config, args.rankings, fmt=args.chart_format or "txt")
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
