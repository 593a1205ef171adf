"""Exception types shared across the package.

The CLI maps these onto exit codes (`cli._EXIT_CODES`): format/validation
problems exit 2, domain errors (empty graph, vanished inflow, empty ranking,
mismatched node sets) exit 3, I/O failures exit 1.
"""

from __future__ import annotations


class FormatError(Exception):
    """Malformed input file content. Carries the offending line number."""

    def __init__(self, line: int, reason: str, source: str | None = None):
        self.line = line
        self.reason = reason
        self.source = source
        where = f"{source}:{line}" if source else f"line {line}"
        super().__init__(f"{where}: {reason}")


class EmptyGraph(Exception):
    """Ranking requested on a graph without the required nodes/edges."""


class DegenerateUpdate(Exception):
    """Reputation inflow vanished entirely, so no meaningful update exists."""


class NodeSetMismatch(Exception):
    """Two rankings that must cover the same nodes do not."""

    def __init__(self, only_in_first: set[str], only_in_second: set[str]):
        self.only_in_first = frozenset(only_in_first)
        self.only_in_second = frozenset(only_in_second)
        super().__init__(
            "rankings cover different node sets; "
            f"only in first: {sorted(only_in_first)}, "
            f"only in second: {sorted(only_in_second)}"
        )


class EmptyRanking(Exception):
    """Metric requested on a ranking with no entries."""
