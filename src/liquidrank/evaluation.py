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

from .errors import DomainError, FormatError
from .ingest import read_csv_chunks, read_csv_rows, write_json
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
        return list(self.grades.values()).count(RELEVANT_GRADE)


@dataclass(frozen=True)
class MetricReport:
    method: str
    k: int
    precision: float
    average_precision: float
    reciprocal_rank: float
    relevant_found: int
    relevant_total: int


def evaluate(ranked: RankedList, judgments: JudgmentSet, k: int) -> MetricReport:
    """All three metrics plus relevance counts, from one pass down the ranking.

    Precision and average precision read the first min(k, N) entries; the
    reciprocal rank reads on past the cutoff only as far as the first
    relevant entry. Average precision is normalized by the number of
    relevant entries inside the cutoff, so a cutoff list with relevance
    packed at the top scores 1.0; it is 0 when nothing there is relevant.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not ranked.nodes:
        raise DomainError(f"ranking {ranked.method!r} has no entries")
    flags = map(judgments.is_relevant, ranked.nodes)
    top = list(islice(flags, min(k, len(ranked.nodes))))
    hits = 0
    total = 0.0
    for rank, relevant in enumerate(top, start=1):
        if relevant:
            hits += 1
            total += hits / rank
    first = next((rank for rank, relevant in enumerate(chain(top, flags), start=1) if relevant), 0)
    return MetricReport(
        method=ranked.method,
        k=k,
        precision=hits / len(top),
        average_precision=total / hits if hits else 0.0,
        reciprocal_rank=1.0 / first if first else 0.0,
        relevant_found=hits,
        relevant_total=judgments.relevant_total(),
    )


def precision_at_k(ranked: RankedList, judgments: JudgmentSet, k: int) -> float:
    """Fraction of the first min(k, N) entries that are relevant."""
    return evaluate(ranked, judgments, k).precision


def average_precision(ranked: RankedList, judgments: JudgmentSet, k: int) -> float:
    """Mean of precision-at-r over the relevant ranks r within the cutoff."""
    return evaluate(ranked, judgments, k).average_precision


def reciprocal_rank(ranked: RankedList, judgments: JudgmentSet) -> float:
    """1/r for the first relevant rank r; 0 when nothing is relevant."""
    return evaluate(ranked, judgments, 1).reciprocal_rank


def read_judgments_csv(source: str | Path) -> JudgmentSet:
    """Load a ``node,grade`` CSV. Duplicate node rows are an error. A first
    pass converts the columns of each chunk from read_csv_chunks whole; if it
    fails, read_csv_rows reads the source again, to name its first faulty line."""
    grades, count = {}, 0
    try:
        for nodes, raw_grades in read_csv_chunks(source, JUDGMENT_CSV_HEADER):
            grades.update(zip(nodes, map(int, raw_grades)))
            count += len(nodes)
        if len(grades) == count:  # no node repeats
            return JudgmentSet(grades=grades)  # ValueError for a grade outside 0-2
    except ValueError:
        pass
    grades = {}
    with read_csv_rows(source, JUDGMENT_CSV_HEADER) as rows:
        for line_no, (node, raw_grade) in rows or ():
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
