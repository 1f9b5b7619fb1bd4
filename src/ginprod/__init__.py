"""Exact moments and edge behaviour of Ginibre-product spectra.

The package computes exact finite-n moments of the squared-singular-value
distribution of a product of m independent n x n Gaussian matrices
(entry variance 1/n), verifies the identity chain connecting those
moments to the spectral-edge constant u_m = (m+1)^(m+1) / m^m, and
estimates the largest squared singular value by Monte Carlo.
"""

from .beta_poly import BetaBoundsReport, BetaVector, beta_bounds_check, beta_ratio, beta_vectors, compute_beta
from .combinatorics import (
    binomial,
    factorial,
    falling_factorial,
    fuss_catalan,
    stirling2,
    stirling2_alternating,
    stirling2_column,
)
from .edge_analysis import (
    AsymptoticCheck,
    DominanceReport,
    EdgeConstant,
    TailSchedule,
    TailSummand,
    beta_leading_asymptotic,
    dominance_report,
    edge_constant,
    markov_chain_bound,
    schedule,
    tail_summand,
    w_threshold,
)
from .moment_engine import (
    CrossCheckReport,
    MomentQuery,
    MomentValue,
    moment_cross_check,
    moment_falling_sum,
    moment_gamma_sum,
    moment_limit_gap,
    moment_stirling_beta,
)
from .montecarlo import (
    ConvergenceRow,
    EdgeEstimate,
    EmpiricalMoments,
    GinibreSpec,
    RunConfig,
    collect_spectra,
    convergence_table,
    edge_from_values,
    moments_from_spectra,
)
from .verify import VerifyReport, run_verify

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # combinatorics
    "binomial",
    "factorial",
    "falling_factorial",
    "stirling2",
    "stirling2_column",
    "stirling2_alternating",
    "fuss_catalan",
    # beta_poly
    "BetaVector",
    "BetaBoundsReport",
    "beta_vectors",
    "compute_beta",
    "beta_bounds_check",
    "beta_ratio",
    # moment_engine
    "MomentQuery",
    "MomentValue",
    "CrossCheckReport",
    "moment_gamma_sum",
    "moment_falling_sum",
    "moment_stirling_beta",
    "moment_cross_check",
    "moment_limit_gap",
    # edge_analysis
    "EdgeConstant",
    "TailSchedule",
    "TailSummand",
    "DominanceReport",
    "AsymptoticCheck",
    "edge_constant",
    "w_threshold",
    "schedule",
    "dominance_report",
    "beta_leading_asymptotic",
    "markov_chain_bound",
    "tail_summand",
    # montecarlo
    "GinibreSpec",
    "RunConfig",
    "EmpiricalMoments",
    "EdgeEstimate",
    "ConvergenceRow",
    "collect_spectra",
    "moments_from_spectra",
    "edge_from_values",
    "convergence_table",
    # verify
    "VerifyReport",
    "run_verify",
]
