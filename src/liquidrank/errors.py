"""Exception types shared across the package.

The CLI maps each onto an exit code through one table, `cli._EXIT_CODES`:
a FormatError is a ValueError, and a DomainError's message names its case.
"""

from __future__ import annotations


class FormatError(ValueError):
    """Malformed input file content. Carries the offending line number and
    the file's name, which the reader that opened the file adds on the way out."""

    def __init__(self, line: int, reason: str, source: str | None = None):
        self.line = line
        self.reason = reason
        self.source = source
        where = f"{source}:{line}" if source else f"line {line}"
        super().__init__(f"{where}: {reason}")


class DomainError(Exception):
    """Well-formed input that has no meaningful result: an empty graph or
    ranking, a vanished reputation inflow, or rankings over different nodes."""
