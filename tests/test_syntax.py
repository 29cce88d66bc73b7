"""The package's sources parse with the grammar of the oldest Python that
``pyproject.toml`` admits, which the interpreter running the tests may
be newer than."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "radsum").glob("*.py"))


def oldest_python() -> tuple[int, int]:
    """``(major, minor)`` of ``requires-python = ">=X.Y"``."""
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups()
    return int(major), int(minor)


def test_oldest_python_is_3_10():
    assert oldest_python() == (3, 10)
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_parses_with_the_oldest_grammar(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=oldest_python())
