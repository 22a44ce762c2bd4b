"""The package ships what its CLI, benchmark and criteria call; test oracles live in helpers.py."""

import ast
import importlib
from pathlib import Path

import pytest

from qtvd.envelope import Envelope
from qtvd.intervals import ExtendedValue
from qtvd.risk import Cauchy, Gaussian, Laplace, RiskConstants

MODULES = ["qtvd", "qtvd.cli", "qtvd.envelope", "qtvd.intervals", "qtvd.penalties", "qtvd.risk", "qtvd.solver"]

#: Test-only reference code that left the package, or was deleted with no caller left.
REMOVED = [
    "OrderStatisticCache", "order_stat", "AdjustedLevel", "adjusted_levels", "BOUNDARY_CONSTANT_VALUES",
    "grid_oracle", "GridOracleResult", "GRID_ORACLE_CAP",
    "BoundComponents", "bound_components", "bias_terms", "smallest_admissible_n",
    "ValidationError", "penalty_value", "floor_index", "ceil_index", "_trim", "_peek",
    "DiscreteInterval", "boundary_constant", "dist_boundary", "sd_bound",
]


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve_and_removed_names_are_gone(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
    assert [attr for attr in REMOVED if hasattr(module, attr)] == []


def test_risk_constants_dropped_as_dict():
    assert not hasattr(RiskConstants, "as_dict")


@pytest.mark.parametrize("owner, attr", [
    (ExtendedValue, "finite"), (ExtendedValue, "is_finite"), (Envelope, "__len__"),
    (RiskConstants, "lambda_coefficient"), (Cauchy, "cdf"), (Gaussian, "cdf"), (Laplace, "cdf"),
])
def test_methods_without_callers_are_gone(owner, attr):
    assert not hasattr(owner, attr)


def test_boundary_constant_kernel_lives_in_envelope():
    assert not hasattr(importlib.import_module("qtvd.intervals"), "_c2")


def test_helpers_import_only_instance_from_qtvd():
    tree = ast.parse((Path(__file__).parent / "helpers.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(alias.name, None) for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {(node.module, alias.name) for alias in node.names}
    assert {(mod, name) for mod, name in imported if mod.split(".")[0] == "qtvd"} == {("qtvd.solver", "Instance")}
