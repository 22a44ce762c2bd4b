"""Exact toolkit for univariate quantile total variation denoising.

Fits the estimator exactly on a chain, computes the exact pointwise
solution-set envelopes, certifies optimality through dual interval
identities, audits lattice/non-crossing structure of the solution set,
and runs pointwise risk-rate simulations under heavy-tailed noise.
"""

from .envelope import Envelope, envelope, lower_envelope_at, reflection_check, upper_envelope_at
from .intervals import ExtendedValue, NEG_INF, POS_INF
from .solver import (
    DualCertificate,
    Fit,
    Instance,
    certify,
    certify_float,
    fit,
    fit_float,
    lattice_join,
    lattice_meet,
    objective_value,
)

__version__ = "0.1.0"

__all__ = [
    "DualCertificate",
    "Envelope",
    "ExtendedValue",
    "Fit",
    "Instance",
    "NEG_INF",
    "POS_INF",
    "certify",
    "certify_float",
    "envelope",
    "fit",
    "fit_float",
    "lattice_join",
    "lattice_meet",
    "lower_envelope_at",
    "objective_value",
    "reflection_check",
    "upper_envelope_at",
]
