"""Everything the Python 3.10 CI job runs parses as Python 3.10, the oldest
version pyproject.toml admits: the package, the tests, the benchmark harness
and the demos."""

import ast
from pathlib import Path

import pytest

import mtlsem

PACKAGE = Path(mtlsem.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted(
    p for folder in ("tests", "bench", "demos") for p in (ROOT / folder).glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[
    p.name if p.parent == PACKAGE else p.relative_to(ROOT).as_posix() for p in SOURCES])
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
