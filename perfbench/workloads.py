"""Seeded input generators for the three benchmark workloads.

Each generator writes the files the program reads (posts JSONL, judgments
CSV) and returns a `Workload` that also carries the generator's own tallies:
every non-self mention it planted, as integer id arrays, plus the counts of
valid posts and planted malformed lines. The reference checks work from these
tallies only, never from the program's code.

Only the stdlib and numpy are used here. The same seed gives the same bytes.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# A fifth of a 376,150-post corpus, and a fifth of the nodes and a tenth of
# the edges of a 10^5-node / 10^6-edge graph: small enough that a run holds
# about eight rounds, so that every metric is a median over rounds
# (README.md, "Noise on this machine").
POSTS_LINES = 60_000
POSTS_CHANNELS = 5_000
POSTS_SPAMMERS = 8
GRAPH_NODES = 20_000
GRAPH_EDGES = 80_000
RERANK_LINES = 15_000
RERANK_CHANNELS = 600
RERANK_WINDOWS = 3

K = 50
T0 = 1_600_000_000
WEEK = 7 * 24 * 3600

FILLERS = (
    "market update", "new video out", "thread:", "daily recap", "hot take",
    "q&a soon", "café chat ☕", "listen to this", "long read", "ok",
)
# Texts that hold an "@" which is not a mention: it follows a word character.
DECOYS = ("write to team@example.org", "price 3@5 each", "see x@y")
MALFORMED_KINDS = (
    "{not json",
    '["a", "list"]',
    '{"author": "x", "text": "missing timestamp"}',
    '{"author": "x", "text": "t", "timestamp": "1600000000"}',
    '{"author": "x", "text": "t", "timestamp": -5}',
    '{"author": "not a handle!", "text": "t", "timestamp": 1}',
    '{"author": "x", "text": 7, "timestamp": 1}',
    '{"author": "", "text": "t", "timestamp": 1}',
)
POSTS_MALFORMED = 40


@dataclass
class RankRun:
    """One `rank` command: its window, its extra flags and the parameters they set."""

    name: str
    start: int = 0
    end: float = math.inf
    flags: tuple[str, ...] = ()
    epsilon: float = 1e-4         # the CLI's default; no run sets --epsilon
    alpha: float = 0.5
    norm: str = "l1"


@dataclass
class Workload:
    name: str
    names: list[str]              # canonical handle of each node id
    rater: np.ndarray             # one entry per planted non-self mention
    ratee: np.ndarray
    ts: np.ndarray
    posts: int                    # valid posts in the input
    malformed: int                # planted malformed lines
    input_path: Path
    judgments_path: Path
    grades: dict[str, int]
    ranks: list[RankRun]
    evaluated: str                # name of the rank run evaluated and charted
    spam_targets: list[str] = field(default_factory=list)


def _handles(rng: np.random.Generator, count: int) -> list[str]:
    """`count` distinct lowercase handles of 4 to 12 characters."""
    letters = np.array(list(string.ascii_lowercase))
    tail = np.array(list(string.ascii_lowercase + string.digits + "_"))
    seen: set[str] = set()
    out: list[str] = []
    while len(out) < count:
        length = int(rng.integers(4, 13))
        name = str(rng.choice(letters)) + "".join(rng.choice(tail, length - 1))
        if name not in seen:
            seen.add(name)
            out.append(name)
    return out


def _zipf(rng: np.random.Generator, n: int, size: int, s: float, shift: float) -> np.ndarray:
    """Heavy-tailed draws of ids 0..n-1; id order is shuffled so rank does not follow id."""
    weights = 1.0 / (np.arange(n) + shift) ** s
    ids = rng.choice(n, size=size, p=weights / weights.sum())
    return rng.permutation(n)[ids]


def _post_line(author: str, text: str, ts: int) -> str:
    # Texts and handles hold no quote or backslash, so no escaping is needed.
    return f'{{"author": "{author}", "text": "{text}", "timestamp": {ts}}}'


def _corpus(
    rng: np.random.Generator,
    names: list[str],
    authors: np.ndarray,
    mentions: list[list[int]],
    stamps: np.ndarray,
) -> tuple[list[str], list[int], list[int], list[int]]:
    """Render posts as JSONL lines; returns lines and the non-self mention tally.

    Handles are case-insensitive, so about one in eight is written in upper case.
    """
    upper = [name.upper() for name in names]
    lines: list[str] = []
    raters: list[int] = []
    ratees: list[int] = []
    times: list[int] = []
    fill = rng.integers(0, len(FILLERS), size=len(authors)).tolist()
    decoy = (rng.random(len(authors)) < 0.02).tolist()
    shout = iter((rng.random(len(authors) + sum(map(len, mentions))) < 0.125).tolist())
    for i, author in enumerate(authors.tolist()):
        ts = int(stamps[i])
        parts = [FILLERS[fill[i]]]
        if decoy[i]:
            parts.append(DECOYS[i % len(DECOYS)])
        for target in mentions[i]:
            parts.append("@" + (upper if next(shout) else names)[target])
            if target != author:
                raters.append(author)
                ratees.append(target)
                times.append(ts)
        lines.append(_post_line((upper if next(shout) else names)[author], " ".join(parts), ts))
    return lines, raters, ratees, times


def _plant_malformed(rng: np.random.Generator, lines: list[str], count: int) -> list[str]:
    spots = set(rng.choice(len(lines) + count, size=count, replace=False).tolist())
    out: list[str] = []
    it = iter(lines)
    for pos in range(len(lines) + count):
        out.append(MALFORMED_KINDS[len(out) % len(MALFORMED_KINDS)] if pos in spots else next(it))
    return out


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_judgments(path: Path, grades: dict[str, int]) -> None:
    rows = [f"{node},{grade}" for node, grade in sorted(grades.items())]
    path.write_text("node,grade\n" + "\n".join(rows) + "\n", encoding="utf-8")


def _organic(rng, n_channels, n_posts, t_span):
    """Heavy-tailed authors and targets, 0 to 3 mentions per post."""
    authors = _zipf(rng, n_channels, n_posts, 1.0, 5.0)
    counts = rng.choice(4, size=n_posts, p=[0.25, 0.4, 0.25, 0.1])
    flat = _zipf(rng, n_channels, int(counts.sum()), 1.1, 3.0)
    splits = np.cumsum(counts)[:-1]
    mentions = [m.tolist() for m in np.split(flat, splits)]
    stamps = T0 + np.sort(rng.integers(0, t_span, size=n_posts))
    return authors, mentions, stamps


def _grades_by_inflow(names, ratee, top_relevant, top_partial, zero=()):
    inflow = np.bincount(ratee, minlength=len(names))
    order = np.argsort(-inflow, kind="stable")
    grades = {}
    for pos, node in enumerate(order[: top_relevant + top_partial].tolist()):
        grades[names[node]] = 2 if pos < top_relevant else 1
    for node in zero:
        grades[node] = 0
    return grades


def posts(seed: int, out: Path, lines_total: int = POSTS_LINES, channels: int = POSTS_CHANNELS) -> Workload:
    """Large real-looking corpus with planted spam and malformed lines.

    Each spam rater posts about one fresh target that nobody else mentions,
    often enough to lift it into the mentions top K; since nobody mentions
    the spam raters, reputation drains from them and from their targets.
    """
    rng = np.random.default_rng([seed, 1])
    spam_posts_each = max(4, lines_total // 1000)
    n_valid = lines_total - POSTS_MALFORMED
    n_organic = n_valid - POSTS_SPAMMERS * spam_posts_each
    names = _handles(rng, channels + 2 * POSTS_SPAMMERS)
    authors, mentions, stamps = _organic(rng, channels, n_organic, 4 * WEEK)
    # The organic inflow of the K-th most mentioned channel bounds what a
    # spam target needs; give each target four times that, spread over posts.
    organic_in = np.sort(np.bincount(np.concatenate([np.asarray(m, dtype=np.int64) for m in mentions if m]),
                                     minlength=channels))[::-1]
    per_post = max(1, math.ceil(4 * organic_in[min(K, channels) - 1] / spam_posts_each))
    spam_authors, spam_mentions = [], []
    for s in range(POSTS_SPAMMERS):
        spammer, target = channels + 2 * s, channels + 2 * s + 1
        spam_authors += [spammer] * spam_posts_each
        spam_mentions += [[target] * per_post] * spam_posts_each
    spam_stamps = T0 + rng.integers(0, 4 * WEEK, size=len(spam_authors))
    order = rng.permutation(n_organic + len(spam_authors))
    all_authors = np.concatenate([authors, np.array(spam_authors)])[order]
    joined = mentions + spam_mentions
    all_mentions = [joined[i] for i in order.tolist()]
    all_stamps = np.concatenate([stamps, spam_stamps])[order]
    lines, raters, ratees, times = _corpus(rng, names, all_authors, all_mentions, all_stamps)
    lines = _plant_malformed(rng, lines, POSTS_MALFORMED)
    input_path = out / "posts.jsonl"
    _write_lines(input_path, lines)
    ratee_arr = np.array(ratees, dtype=np.int64)
    spam_targets = [names[channels + 2 * s + 1] for s in range(POSTS_SPAMMERS)]
    grades = _grades_by_inflow(names, ratee_arr[ratee_arr < channels], 100, 200, zero=spam_targets)
    judgments_path = out / "judgments.csv"
    _write_judgments(judgments_path, grades)
    return Workload(
        name="posts", names=names,
        rater=np.array(raters, dtype=np.int64), ratee=ratee_arr, ts=np.array(times, dtype=np.int64),
        posts=n_valid, malformed=POSTS_MALFORMED, input_path=input_path, judgments_path=judgments_path,
        grades=grades, ranks=[RankRun("full")], evaluated="full", spam_targets=spam_targets,
    )


def graph(seed: int, out: Path, nodes: int = GRAPH_NODES, edges: int = GRAPH_EDGES) -> Workload:
    """A random mention graph: a cycle through every node plus uniform edges.

    Every edge is mentioned once; each channel's out-edges are spread over
    posts of at most eight mentions.
    """
    rng = np.random.default_rng([seed, 2])
    names = [f"n{i:06d}" for i in range(nodes)]
    cycle = rng.permutation(nodes)
    src = [cycle]
    dst = [np.roll(cycle, -1)]
    keys = np.unique(cycle.astype(np.int64) * nodes + np.roll(cycle, -1))
    while len(keys) < edges:
        need = edges - len(keys)
        a = rng.integers(0, nodes, size=need + need // 10 + 16)
        b = rng.integers(0, nodes, size=a.size)
        cand = np.unique((a * nodes + b)[a != b])
        cand = cand[~np.isin(cand, keys, assume_unique=True)]
        cand = rng.permutation(cand)[:need]
        keys = np.union1d(keys, cand)
        src.append(cand // nodes)
        dst.append(cand % nodes)
    rater = np.concatenate(src)
    ratee = np.concatenate(dst)
    order = np.lexsort((rng.random(rater.size), rater))  # group by rater, shuffled within
    rater, ratee = rater[order], ratee[order]
    starts = np.flatnonzero(np.r_[True, rater[1:] != rater[:-1]])
    ends = np.r_[starts[1:], rater.size]
    authors, mentions = [], []
    ratee_list = ratee.tolist()
    for lo, hi in zip(starts.tolist(), ends.tolist()):
        for chunk in range(lo, hi, 8):
            authors.append(int(rater[lo]))
            mentions.append(ratee_list[chunk: min(hi, chunk + 8)])
    post_order = rng.permutation(len(authors))
    authors_arr = np.array(authors)[post_order]
    mentions = [mentions[i] for i in post_order.tolist()]
    stamps = T0 + np.arange(len(authors_arr))
    lines, raters, ratees, times = _corpus(rng, names, authors_arr, mentions, stamps)
    input_path = out / "graph.jsonl"
    _write_lines(input_path, lines)
    grade_draw = rng.choice(3, size=nodes, p=[0.7, 0.2, 0.1])
    grades = {names[i]: int(g) for i, g in enumerate(grade_draw.tolist())}
    judgments_path = out / "judgments.csv"
    _write_judgments(judgments_path, grades)
    return Workload(
        name="graph", names=names,
        rater=np.array(raters, dtype=np.int64), ratee=np.array(ratees, dtype=np.int64),
        ts=np.array(times, dtype=np.int64), posts=len(lines), malformed=0,
        input_path=input_path, judgments_path=judgments_path, grades=grades,
        ranks=[RankRun("full")], evaluated="full",
    )


def rerank(seed: int, out: Path) -> Workload:
    """A smaller corpus over several weeks, ranked once per week and twice
    over the full range with non-default parameters."""
    rng = np.random.default_rng([seed, 3])
    names = _handles(rng, RERANK_CHANNELS)
    authors, mentions, stamps = _organic(rng, RERANK_CHANNELS, RERANK_LINES, RERANK_WINDOWS * WEEK)
    lines, raters, ratees, times = _corpus(rng, names, authors, mentions, stamps)
    input_path = out / "rerank.jsonl"
    _write_lines(input_path, lines)
    ratee_arr = np.array(ratees, dtype=np.int64)
    grades = _grades_by_inflow(names, ratee_arr, 30, 60)
    judgments_path = out / "judgments.csv"
    _write_judgments(judgments_path, grades)
    ranks = [RankRun(f"week{w}", T0 + w * WEEK, T0 + (w + 1) * WEEK,
                     ("--window-start", str(T0 + w * WEEK), "--window-end", str(T0 + (w + 1) * WEEK)))
             for w in range(RERANK_WINDOWS)]
    ranks.append(RankRun("norm_max", flags=("--norm", "max"), norm="max"))
    ranks.append(RankRun("alpha_085", flags=("--alpha", "0.85"), alpha=0.85))
    return Workload(
        name="rerank", names=names,
        rater=np.array(raters, dtype=np.int64), ratee=ratee_arr, ts=np.array(times, dtype=np.int64),
        posts=len(lines), malformed=0, input_path=input_path, judgments_path=judgments_path,
        grades=grades, ranks=ranks, evaluated="norm_max",
    )


GENERATORS = {"posts": posts, "graph": graph, "rerank": rerank}
