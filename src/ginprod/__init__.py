"""Exact moments and edge behaviour of Ginibre-product spectra.

The package computes exact finite-n moments of the squared-singular-value
distribution of a product of m independent n x n Gaussian matrices
(entry variance 1/n), verifies the identity chain connecting those
moments to the spectral-edge constant u_m = (m+1)^(m+1) / m^m, and
estimates the largest squared singular value by Monte Carlo.

Each module's ``__all__`` is its public interface; the package exports
their union, in the order of the chain, under the same names.
"""

from . import beta_poly, combinatorics, edge_analysis, moment_engine, montecarlo, verify
from .combinatorics import *  # noqa: F403
from .beta_poly import *  # noqa: F403
from .moment_engine import *  # noqa: F403
from .edge_analysis import *  # noqa: F403
from .montecarlo import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *combinatorics.__all__,
    *beta_poly.__all__,
    *moment_engine.__all__,
    *edge_analysis.__all__,
    *montecarlo.__all__,
    *verify.__all__,
]
