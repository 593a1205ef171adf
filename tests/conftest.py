"""Fixtures shared by the test modules."""

import itertools
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def text_file(tmp_path_factory):
    """``text_file(text)``: the path of a new file that holds ``text`` as
    UTF-8, its line endings as given. Every reader opens a path, so a test
    writes its input first. Session-scoped, so a hypothesis test can use it."""
    directory = tmp_path_factory.mktemp("text")
    names = itertools.count()

    def write(text: str, suffix: str = ".txt") -> Path:
        path = directory / f"{next(names)}{suffix}"
        path.write_text(text, encoding="utf-8", newline="")
        return path

    return write
