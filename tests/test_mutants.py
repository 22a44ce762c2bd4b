"""tools/mutants.py: every mutant on its list still applies to the current source."""

import importlib.util
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("mutants", _ROOT / "tools" / "mutants.py")
mutants = sys.modules["mutants"] = importlib.util.module_from_spec(_SPEC)  # dataclasses look their module up there
_SPEC.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_once(mutant):
    # A refactor that moves the mutated code must fail here, not skip the mutant.
    source = (_ROOT / "src" / "qtvd" / mutant.path).read_text(encoding="utf-8")
    assert source.count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.reason
    assert all((_ROOT / test).is_file() for test in mutant.tests)


def test_names_are_unique():
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
