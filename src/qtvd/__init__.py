"""Exact toolkit for univariate quantile total variation denoising.

Fits the estimator exactly on a chain, computes the exact pointwise
solution-set envelopes, certifies optimality through dual interval
identities, audits lattice/non-crossing structure of the solution set,
and runs pointwise risk-rate simulations under heavy-tailed noise.
"""

from .envelope import Envelope, envelope, lower_envelope_at, reflection_check, upper_envelope_at
from .intervals import (
    AdjustedLevel,
    DiscreteInterval,
    ExtendedValue,
    NEG_INF,
    POS_INF,
    OrderStatisticCache,
    adjusted_levels,
    boundary_constant,
    ceil_index,
    floor_index,
    order_stat,
)
from .solver import (
    DualCertificate,
    Fit,
    GridOracleResult,
    Instance,
    certify,
    certify_float,
    fit,
    fit_float,
    grid_oracle,
    lattice_join,
    lattice_meet,
    objective_value,
)

__version__ = "0.1.0"

__all__ = [
    "AdjustedLevel",
    "DiscreteInterval",
    "DualCertificate",
    "Envelope",
    "ExtendedValue",
    "Fit",
    "GridOracleResult",
    "Instance",
    "NEG_INF",
    "OrderStatisticCache",
    "POS_INF",
    "adjusted_levels",
    "boundary_constant",
    "ceil_index",
    "certify",
    "certify_float",
    "envelope",
    "fit",
    "fit_float",
    "floor_index",
    "grid_oracle",
    "lattice_join",
    "lattice_meet",
    "lower_envelope_at",
    "objective_value",
    "order_stat",
    "reflection_check",
    "upper_envelope_at",
]
