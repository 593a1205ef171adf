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
import math
import os
import sys
import time
from pathlib import Path

from . import ingest as ingest_mod
from .errors import DomainError, FormatError
from .graph import TimeWindow, build_graph
from .evaluation import evaluate, read_judgments_csv, write_report_json
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

# Every exception the CLI turns into a one-line error, with its exit code.
# FormatError and UnicodeDecodeError are ValueErrors, so they exit 2.
_EXIT_CODES = {OSError: 1, ValueError: 2, DomainError: 3}

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


def _echo(args: argparse.Namespace) -> dict:
    """The command's settings, given or default, as its manifest stage records them."""
    config = {key: value for key, value in vars(args).items() if key not in ("command", "run")}
    # Compared, not math.isinf: an integer end past float range is finite.
    if config.get("window_end") == math.inf:
        config["window_end"] = None
    return config


def _load_manifest(out_dir: Path) -> dict:
    path = out_dir / MANIFEST_NAME
    manifest = ingest_mod.read_json_object(path) if path.exists() else {}
    manifest["schema_version"] = MANIFEST_SCHEMA_VERSION
    for section in ("stages", "outputs", "timings_ms", "peak_rss_mb"):
        if not isinstance(manifest.setdefault(section, {}), dict):
            raise FormatError(1, f"{section!r} must be a JSON object", str(path))
    return manifest


def _run_stage(args: argparse.Namespace) -> int:
    """Run ``args.run(args, manifest)`` as the stage ``args.command``: load
    the out dir's manifest, let the command write its artifacts and fill its
    stage in, then list each artifact under ``outputs`` by its file name,
    record the command's wall time and the process's peak RSS, and write the
    manifest. The stage's files replace the old ones together when it ends,
    the manifest last; a failed stage replaces none and prints nothing. Once
    they are in place it prints ``wrote <path>`` per artifact, in write
    order, then any text it returned."""
    start = time.perf_counter()
    manifest = _load_manifest(Path(args.out_dir))
    with ingest_mod.write_together() as held:
        summary = args.run(args, manifest)
        artifacts = list(held)
        for path in artifacts:
            manifest["outputs"][path.name] = str(path)
        manifest["timings_ms"][args.command] = round((time.perf_counter() - start) * 1000, 3)
        status = Path("/proc/self/status")
        if status.exists():  # Linux: VmHWM, which exec resets and ru_maxrss does not
            kib = int(status.read_text().split("VmHWM:")[1].split()[0])
        else:
            import resource  # loaded once the stage has run, so that its pages cannot raise the peak it reads
            kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        manifest["peak_rss_mb"][args.command] = round(kib / 1024, 1)
        ingest_mod.write_json(Path(args.out_dir) / MANIFEST_NAME, manifest)
    for path in artifacts:
        print(f"wrote {path}")
    if summary is not None:
        print(summary)
    return 0


def cmd_ingest(args: argparse.Namespace, manifest: dict) -> str:
    """Parse the raw dataset and write the canonical interaction CSV."""
    input_path = Path(args.input)
    fmt = "csv" if input_path.suffix.lower() == ".csv" else "jsonl"
    columns, posts, malformed = ingest_mod.read_post_columns(input_path, fmt, strict=args.strict)

    ingest_mod.write_interaction_columns(columns, Path(args.out_dir) / "interactions.csv")

    for bad in malformed:
        print(f"warning: {input_path}:{bad.line}: skipped ({bad.reason})", file=sys.stderr)

    manifest["stages"]["ingest"] = {
        "config": _echo(args),
        "input_digest": ingest_mod.sha256_digest(input_path),
        "tweet_count": posts,
        "record_count": len(columns.raters),
        "malformed_count": len(malformed),
    }
    return f"{len(columns.raters)} interactions from {posts} tweets"


def cmd_rank(args: argparse.Namespace, manifest: dict) -> None:
    """Write the mention, liquid and product rankings, then reputation.json."""
    params = RankParams(epsilon=args.epsilon, max_iters=args.max_iters, alpha=args.alpha, norm_mode=args.norm)
    window = TimeWindow(start=args.window_start, end=args.window_end)
    out_dir = Path(args.out_dir)
    input_path = Path(args.input) if args.input else out_dir / "interactions.csv"
    digest = ingest_mod.sha256_digest(input_path)
    columns = ingest_mod.read_interaction_sidecar(input_path, digest)
    source = "csv" if columns is None else "sidecar"
    columns = columns or ingest_mod.read_interaction_columns(input_path)

    record_count = len(columns.raters)
    graph = build_graph(columns, window)
    del columns  # the graph holds all rank needs: one copy of the data from here on
    mentions = mention_rank(graph)
    state = liquid_rank(graph, params)
    if not state.converged:
        print(f"warning: reputation loop did not converge after {state.iterations} iterations "
              f"(last change {format_score(state.final_delta)})", file=sys.stderr)
    liquid = to_ranked_list(state)
    for ranked in (mentions, liquid, product_rank(mentions, liquid)):
        write_ranking_csv(ranked, out_dir / f"ranking_{ranked.method}.csv")
    write_reputation_json(state, window, params, out_dir / "reputation.json")

    manifest["stages"]["rank"] = {
        "config": _echo(args),
        "input_digest": digest,
        "columns": source,
        "record_count": record_count,
        "window_record_count": graph.total_weight(),
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


def cmd_evaluate(args: argparse.Namespace, manifest: dict) -> str:
    """Score each ranking against the judgments; return a comparison table."""
    judgments = read_judgments_csv(Path(args.judgments))

    reports = []
    for _, ranking_path, ranked, target in _named_rankings(args.rankings, args.out_dir, "report_{}.json"):
        try:
            report = evaluate(ranked, judgments, args.k)
        except DomainError as exc:
            raise DomainError(f"{ranking_path}: {exc}") from exc
        reports.append(report)
        write_report_json(report, target)
    return _report_table(reports)


def _bar_length(score: float, max_score: float, full: int) -> float:
    """``score``'s share of ``max_score`` times ``full``, clamped to [0, full]."""
    length = full * score / max_score if max_score > 0 else 0.0
    if length == math.inf:  # full * score overflowed; score / max_score is at most 1
        length = full * (score / max_score)
    return min(max(0.0, length), full)


def render_txt_chart(ranked: RankedList, k: int, title: str) -> str:
    """Horizontal bar chart in plain text under ``title``, widths proportional to score."""
    rows = top_k(ranked, k).entries
    lines = [f"{title}: top {len(rows)} of {len(ranked.nodes)}"]
    if rows:
        max_score = max(e.score for e in rows)
        label_width = max(len(e.node) for e in rows)
        for e in rows:
            bar = "#" * round(_bar_length(e.score, max_score, TXT_BAR_WIDTH))
            lines.append(f"{e.rank:>4}  {e.node:<{label_width}}  {bar:<{TXT_BAR_WIDTH}}  {format_score(e.score)}")
    return "\n".join(lines) + "\n"


def render_svg_chart(ranked: RankedList, k: int, title: str) -> str:
    """Self-contained SVG bar chart under ``title``; no rendering dependencies. Text is
    escaped, so any node name or title gives well-formed XML; a bar is 0 to
    ``chart_w`` wide."""
    rows = top_k(ranked, k).entries
    bar_h, gap, label_w, chart_w, value_w = 16, 6, 170, 400, 120
    width = label_w + chart_w + value_w + 30
    height = 40 + len(rows) * (bar_h + gap)
    max_score = max((e.score for e in rows), default=0.0)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="monospace" font-size="12">',
        f'<text x="10" y="20">{title.translate(_XML_TEXT)}: top {len(rows)} of {len(ranked.nodes)}</text>',
    ]
    for idx, e in enumerate(rows):
        y = 34 + idx * (bar_h + gap)
        bar = _bar_length(e.score, max_score, chart_w)
        parts.append(f'<text x="10" y="{y + 12}">{e.rank}. {e.node.translate(_XML_TEXT)}</text>')
        parts.append(f'<rect x="{label_w}" y="{y}" width="{bar:.2f}" height="{bar_h}" fill="#4878a8"/>')
        parts.append(f'<text x="{label_w + chart_w + 10}" y="{y + 12}">{format_score(e.score)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_report(args: argparse.Namespace, manifest: dict) -> None:
    """Emit a bar-chart file per ranking CSV."""
    render = render_txt_chart if args.chart_format == "txt" else render_svg_chart
    for name, _, ranked, target in _named_rankings(args.rankings, args.out_dir, f"chart_{{}}.{args.chart_format}"):
        with ingest_mod.write_atomic(target) as fh:
            fh.write(render(ranked, args.k, title=name))


def number(text: str) -> int | float:
    """An integral literal as an exact int, else a float: a window bound
    past float range stays exact."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def file_path(text: str) -> str:
    """An ``--input`` value: any path but the empty one, which argparse reports as a usage error."""
    if not text:
        raise ValueError(text)
    return text


def cutoff(text: str) -> int:
    """A ``--k`` value: an integer >= 1; argparse reports any other text as a usage error."""
    k = int(text)
    if k < 1:
        raise ValueError(text)
    return k


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liquidrank",
        description="Mention-graph reputation ranking and evaluation pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_stage(name: str, run, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--out-dir", default="out", help="directory for stage artifacts (default: %(default)s)")
        return p

    p_ingest = add_stage("ingest", cmd_ingest, "parse a tweet dataset into interactions.csv")
    p_ingest.add_argument("--input", type=file_path, required=True, help="path to the raw dataset")
    p_ingest.add_argument(
        "--strict", action="store_true", help="fail on the first malformed line instead of skipping it"
    )

    p_rank = add_stage("rank", cmd_rank, "compute rankings from interactions.csv")
    p_rank.add_argument("--input", type=file_path, help="interaction CSV (default: <out-dir>/interactions.csv)")
    for flag, kind, default, text in [
        ("--window-start", number, TimeWindow.start, "window start, epoch seconds (inclusive)"),
        ("--window-end", number, TimeWindow.end, "window end, epoch seconds (exclusive)"),
        ("--epsilon", float, RankParams.epsilon, "convergence threshold"),
        ("--max-iters", int, RankParams.max_iters, "iteration cap"),
        ("--alpha", float, RankParams.alpha, "damping blend in (0, 1]"),
    ]:
        p_rank.add_argument(flag, type=kind, default=default, help=f"{text} (default: %(default)s)")
    p_rank.add_argument(
        "--norm",
        choices=NORM_MODES,
        default=RankParams.norm_mode,
        help="per-cycle normalization (default: %(default)s)",
    )

    p_eval = add_stage("evaluate", cmd_evaluate, "score rankings against graded judgments")
    p_eval.add_argument("rankings", nargs="+", help="ranking CSV path(s)")
    p_eval.add_argument("--judgments", required=True, help="judgment CSV (node,grade)")

    p_report = add_stage("report", cmd_report, "emit bar charts for rankings")
    p_report.add_argument("rankings", nargs="+", help="ranking CSV path(s)")
    p_report.add_argument(
        "--format",
        dest="chart_format",
        choices=["txt", "svg"],
        default="txt",
        help="chart format (default: %(default)s)",
    )
    for p in (p_eval, p_report):
        p.add_argument("--k", type=cutoff, default=50, help="ranking cutoff, an integer >= 1 (default: %(default)s)")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run_stage(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
