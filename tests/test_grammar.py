"""Every Python file of the repo parses with the grammar of Python 3.10, the
oldest version that pyproject.toml and CI name."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(path for part in ("src", "tests", "perfbench", "scripts") for path in (ROOT / part).rglob("*.py"))


def test_the_sources_are_found():
    assert {path.relative_to(ROOT).parts[0] for path in SOURCES} == {"src", "tests", "perfbench", "scripts"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_parses_with_the_python_3_10_grammar(path):
    ast.parse(path.read_bytes(), filename=str(path), feature_version=(3, 10))
