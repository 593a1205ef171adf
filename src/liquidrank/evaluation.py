"""Score rankings against graded relevance judgments.

Judgments grade each channel 0-2; grade 2 (RELEVANT_GRADE) counts as relevant,
everything else - including channels nobody judged - as irrelevant. Three
metrics: precision at a cutoff, average precision within the cutoff, and
reciprocal rank of the first relevant entry. All of them depend only on the
sequence of relevance booleans down the ranking.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import chain, islice
from pathlib import Path
from typing import IO, Iterable, Iterator

from .errors import EmptyRanking, FormatError
from .ingest import read_csv_rows, write_json
from .rank import RankedList

VALID_GRADES = (0, 1, 2)
RELEVANT_GRADE = 2

JUDGMENT_CSV_HEADER = ["node", "grade"]


@dataclass(frozen=True)
class JudgmentSet:
    """node -> grade map on the 0-2 scale; RELEVANT_GRADE is relevant."""

    grades: dict[str, int]

    def __post_init__(self):
        for node, grade in self.grades.items():
            if grade not in VALID_GRADES:
                raise ValueError(f"grade for {node!r} must be one of {VALID_GRADES}, got {grade}")

    def is_relevant(self, node: str) -> bool:
        grade = self.grades.get(node)
        return grade == RELEVANT_GRADE

    def relevant_total(self) -> int:
        return sum(1 for g in self.grades.values() if g == RELEVANT_GRADE)


@dataclass(frozen=True)
class MetricReport:
    method: str
    k: int
    precision: float
    average_precision: float
    reciprocal_rank: float
    relevant_found: int
    relevant_total: int


def _check_nonempty(ranked: RankedList) -> None:
    if not ranked.nodes:
        raise EmptyRanking(f"ranking {ranked.method!r} has no entries")


def _relevance_flags(ranked: RankedList, judgments: JudgmentSet) -> Iterator[bool]:
    """Relevance of each entry down the ranking, judged only as far as read."""
    return map(judgments.is_relevant, ranked.nodes)


def _top_flags(ranked: RankedList, judgments: JudgmentSet, k: int) -> tuple[list[bool], Iterator[bool]]:
    """Relevance of the first min(k, N) entries, and of the rest as read."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _check_nonempty(ranked)
    flags = _relevance_flags(ranked, judgments)
    return list(islice(flags, k)), flags


def _average_precision(flags: list[bool]) -> float:
    hits = 0
    total = 0.0
    for rank, relevant in enumerate(flags, start=1):
        if relevant:
            hits += 1
            total += hits / rank
    if hits == 0:
        return 0.0
    return total / hits


def _reciprocal_rank(flags: Iterable[bool]) -> float:
    for rank, relevant in enumerate(flags, start=1):
        if relevant:
            return 1.0 / rank
    return 0.0


def precision_at_k(ranked: RankedList, judgments: JudgmentSet, k: int) -> float:
    """Fraction of the first min(k, N) entries that are relevant."""
    top, _ = _top_flags(ranked, judgments, k)
    return sum(top) / len(top)


def average_precision(ranked: RankedList, judgments: JudgmentSet, k: int) -> float:
    """Mean of precision-at-r over the relevant ranks r within the cutoff.

    Normalized by the number of relevant entries inside the cutoff, so a
    cutoff list with relevance packed at the top scores 1.0; returns 0 when
    nothing inside the cutoff is relevant.
    """
    top, _ = _top_flags(ranked, judgments, k)
    return _average_precision(top)


def reciprocal_rank(ranked: RankedList, judgments: JudgmentSet) -> float:
    """1/r for the first relevant rank r; 0 when nothing is relevant."""
    _check_nonempty(ranked)
    return _reciprocal_rank(_relevance_flags(ranked, judgments))


def evaluate(ranked: RankedList, judgments: JudgmentSet, k: int) -> MetricReport:
    """Bundle all three metrics plus relevance counts into one report.

    The relevance flags are judged once: the first min(k, N) for the cutoff
    metrics, and past the cutoff only as far as the first relevant entry.
    """
    top, rest = _top_flags(ranked, judgments, k)
    found = sum(top)
    return MetricReport(
        method=ranked.method,
        k=k,
        precision=found / len(top),
        average_precision=_average_precision(top),
        reciprocal_rank=_reciprocal_rank(chain(top, rest)),
        relevant_found=found,
        relevant_total=judgments.relevant_total(),
    )


def read_judgments_csv(source: str | Path | IO) -> JudgmentSet:
    """Load a ``node,grade`` CSV. Duplicate node rows are an error."""
    grades: dict[str, int] = {}
    with read_csv_rows(Path(source) if isinstance(source, str) else source, JUDGMENT_CSV_HEADER) as rows:
        for line_no, row in rows or ():
            if len(row) != 2:
                raise FormatError(line_no, f"expected 2 columns, got {len(row)}")
            node, raw_grade = row
            if node in grades:
                raise FormatError(line_no, f"duplicate judgment for node {node!r}")
            try:
                grade = int(raw_grade)
            except ValueError:
                raise FormatError(line_no, f"grade {raw_grade!r} is not an integer") from None
            if grade not in VALID_GRADES:
                raise FormatError(line_no, f"grade must be 0-2, got {grade}")
            grades[node] = grade
    return JudgmentSet(grades=grades)


def write_report_json(report: MetricReport, path: str | Path) -> None:
    write_json(path, asdict(report))
