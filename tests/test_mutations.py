"""The committed mutation list (`mutations/mutants.py`) still fits the code:
each old text occurs exactly once in its file."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "mutations" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_names_are_distinct():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("m", mutants.MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_once(m):
    text = (ROOT / "src" / "mtlsem" / m.file).read_text(encoding="utf-8")
    assert text.count(m.old) == 1
    assert m.new != m.old
