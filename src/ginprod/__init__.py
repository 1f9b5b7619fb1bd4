"""Exact moments and edge behaviour of Ginibre-product spectra.

The package computes exact finite-n moments of the squared-singular-value
distribution of a product of m independent n x n Gaussian matrices
(entry variance 1/n), verifies the identity chain connecting those
moments to the spectral-edge constant u_m = (m+1)^(m+1) / m^m, and
estimates the largest squared singular value by Monte Carlo.

Each module's ``__all__`` is its public interface; the package exports
their union, in the order of the chain, under the same names.

``import ginprod`` imports neither numpy nor the identity suites. The
four exact modules are imported here. The suites (``verify``) and the
sampler (``montecarlo``, the one exported module that needs numpy) are
imported on first access to them, to one of their names or to
``__all__``, by the module ``__getattr__`` below (PEP 562). It tries the
suites first, so reading one of their names never imports numpy. So
``ginprod.cli``, which imports numpy itself, can first start its BLAS at
one thread, and it can register both modules to be executed only by the
commands that use them (see its docstring).
"""

import importlib

from . import beta_poly, combinatorics, edge_analysis, moment_engine
from .combinatorics import *  # noqa: F403
from .beta_poly import *  # noqa: F403
from .moment_engine import *  # noqa: F403
from .edge_analysis import *  # noqa: F403

__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    """Import the suites, then the sampler and with it numpy, for a name the package does not hold yet.

    Binds each module's exports here as it is imported, and ``__all__``
    once both are, as the star imports above bind the other modules', so
    later reads find them directly. ``importlib`` imports each submodule,
    as ``from . import montecarlo`` would first ask this function for it,
    without end.
    """
    namespace = globals()
    deferred = []
    for module_name in ("verify", "montecarlo"):
        module = importlib.import_module(f".{module_name}", __name__)
        namespace.update((export, getattr(module, export)) for export in module.__all__)
        if name in namespace:
            return namespace[name]
        deferred.append(module)
    verify, montecarlo = deferred
    namespace["__all__"] = [
        "__version__",
        *combinatorics.__all__,
        *beta_poly.__all__,
        *moment_engine.__all__,
        *edge_analysis.__all__,
        *montecarlo.__all__,
        *verify.__all__,
    ]
    if name not in namespace:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return namespace[name]
