"""The package parses as Python 3.10, the oldest version pyproject.toml admits."""

import ast
from pathlib import Path

import pytest

import mtlsem

SOURCES = sorted(Path(mtlsem.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
