"""The package ships what its CLI, benchmark and criteria call; test oracles live in helpers.py."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from qtvd.envelope import Envelope, _RankTables
from qtvd.intervals import ExtendedValue
from qtvd.penalties import PairwisePenalty
from qtvd.risk import (
    Cauchy, ConstantSignal, Gaussian, HolderCusp, Laplace, PiecewiseConstantSignal, RiskConstants, simulate,
)
from qtvd.solver import Instance

MODULES = ["qtvd", "qtvd.cli", "qtvd.envelope", "qtvd.intervals", "qtvd.penalties", "qtvd.risk", "qtvd.solver"]

#: Test-only reference code that left the package, or was deleted with no caller left.
REMOVED = [
    "OrderStatisticCache", "order_stat", "AdjustedLevel", "adjusted_levels", "BOUNDARY_CONSTANT_VALUES",
    "grid_oracle", "GridOracleResult", "GRID_ORACLE_CAP",
    "BoundComponents", "bound_components", "bias_terms", "smallest_admissible_n",
    "ValidationError", "penalty_value", "floor_index", "ceil_index", "_trim", "_peek",
    "DiscreteInterval", "boundary_constant", "dist_boundary", "sd_bound",
    "growth_constants", "resolve_lambda", "_check_nonempty", "_check_scale", "_ranks", "_fit_ranks",
    "_prefer_high",
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
    (ConstantSignal, "holder"), (ConstantSignal, "local_radius"), (HolderCusp, "holder"),
    (PiecewiseConstantSignal, "holder"), (PiecewiseConstantSignal, "local_radius"), (PairwisePenalty, "value"),
    (Gaussian, "sigma"), (_RankTables, "check_location"), (_RankTables, "to_extended"), (Instance, "_ranked_y"),
])
def test_methods_without_callers_are_gone(owner, attr):
    assert not hasattr(owner, attr)


def test_simulate_reads_bounds_from_constants():
    assert "compute_bounds" not in inspect.signature(simulate).parameters


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
