"""The benchmark tracer's targets: each names a function that its module or class defines itself."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("bench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


@pytest.mark.parametrize("module_name, attr", [(module, attr) for _, module, attr, _, _ in tracing.TARGETS])
def test_target_is_defined_by_its_owner(module_name, attr):
    # The tracer wraps owner.__dict__[leaf]: a method inherited from a base class would not be there.
    owner = importlib.import_module(module_name)
    *cls_path, leaf = attr.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    assert leaf in vars(owner)
