"""Exception types shared across the package.

The CLI maps each onto an exit code through one table, `cli._EXIT_CODES`:
a FormatError is a ValueError, and every domain error is a DomainError.
"""

from __future__ import annotations


class FormatError(ValueError):
    """Malformed input file content. Carries the offending line number, and
    the file's name when the reader opened it."""

    def __init__(self, line: int, reason: str, source: str | None = None):
        self.line = line
        self.reason = reason
        self.source = source
        where = f"{source}:{line}" if source else f"line {line}"
        super().__init__(f"{where}: {reason}")


class DomainError(Exception):
    """Well-formed input that has no meaningful result."""


class EmptyGraph(DomainError):
    """Ranking requested on a graph without the required nodes/edges."""


class DegenerateUpdate(DomainError):
    """Reputation inflow vanished entirely, so no meaningful update exists."""


class NodeSetMismatch(DomainError):
    """Two rankings that must cover the same nodes do not."""

    def __init__(self, only_in_first: set[str], only_in_second: set[str]):
        self.only_in_first = frozenset(only_in_first)
        self.only_in_second = frozenset(only_in_second)
        super().__init__(
            "rankings cover different node sets; "
            f"only in first: {sorted(only_in_first)}, "
            f"only in second: {sorted(only_in_second)}"
        )


class EmptyRanking(DomainError):
    """Metric requested on a ranking with no entries."""
