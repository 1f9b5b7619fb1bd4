"""Exact expansion of P(x) = prod_{i=0}^{k-1} (1 - i/n + x)^(m+1).

The coefficient of x^r is written beta_r throughout the package. Provided
k <= n all roots of P are negative with magnitude in [1 - (k-1)/n, 1],
which pins each beta_r between C(k(m+1), r) (1 - (k-1)/n)^(k(m+1)-r) and
C(k(m+1), r); :func:`beta_bounds_check` verifies the sandwich exactly.

The stored form is the cleared integers q_r = beta_r n^(k(m+1)-r), the
coefficients of Q(y) = prod (n - i + y)^(m+1). The bound check and the
moment sums work on them directly. The ``Fraction`` values beta_r are
built on first read, and so are the bound table's rows, from the Fraction
sandwich itself: a second route to the check's verdict.

Q is grown along k: :func:`beta_vectors` yields the vectors for k = 1, 2,
... at a fixed (m, n), each one the last extended by m + 1 linear factors,
so a caller that reads every k expands Q once. :func:`compute_beta` is the
last vector of that walk.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb

from .combinatorics import _k_within_n

__all__ = [
    "BetaVector",
    "BetaBoundRow",
    "BetaBoundsReport",
    "beta_vectors",
    "compute_beta",
    "beta_bounds_check",
    "beta_ratio",
]


@dataclass(frozen=True)
class BetaVector:
    """Coefficients beta_0 .. beta_{k(m+1)} of P, exact and monic.

    ``cleared`` holds q_r = beta_r n^(k(m+1)-r), all integers;
    ``coeffs`` holds the beta_r themselves, built from them on first read.
    """

    m: int
    n: int
    k: int
    cleared: tuple[int, ...]

    @property
    def degree(self) -> int:
        return self.k * (self.m + 1)

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        degree = self.degree
        return tuple(Fraction(q, self.n ** (degree - r)) for r, q in enumerate(self.cleared))


@dataclass(frozen=True)
class BetaBoundRow:
    r: int
    lower: Fraction
    beta: Fraction
    upper: Fraction
    ok: bool


@dataclass(frozen=True)
class BetaBoundsReport:
    """Outcome of :func:`beta_bounds_check`; ``rows`` are built on first read."""

    m: int
    n: int
    k: int
    all_ok: bool
    vector: BetaVector = field(repr=False)

    @cached_property
    def rows(self) -> tuple[BetaBoundRow, ...]:
        """One row per r with the exact Fraction bounds and coefficient.

        Built from the Fraction sandwich, not the check's integers: the rows
        and ``all_ok`` decide the bounds by two independent routes.
        """
        bv = self.vector
        degree = bv.degree
        rho = Fraction(bv.n - bv.k + 1, bv.n)
        rows = []
        for r, beta in enumerate(bv.coeffs):
            upper = Fraction(comb(degree, r))
            lower = upper * rho ** (degree - r)
            rows.append(BetaBoundRow(r=r, lower=lower, beta=beta, upper=upper, ok=lower <= beta <= upper))
        return tuple(rows)


def beta_vectors(m: int, n: int, k_max: int) -> Iterator[BetaVector]:
    """The vectors for k = 1 .. k_max at a fixed (m, n), each grown from the last.

    Q_k(y) = Q_{k-1}(y) (n - k + 1 + y)^(m+1), so the vector for k extends the
    one for k - 1 by convolution with m + 1 linear factors: the plain
    iterated polynomial multiplication, over integers. The arguments are
    checked here, when called, not on the first ``next()``.
    """
    _k_within_n("beta_vectors", m, n, k_max)
    return _grow_beta(m, n, k_max)


def _grow_beta(m: int, n: int, k_max: int) -> Iterator[BetaVector]:
    q = [1]
    for k in range(1, k_max + 1):
        c = n - k + 1
        for _ in range(m + 1):
            q = [c * a + b for a, b in zip(q + [0], [0] + q)]
        yield BetaVector(m=m, n=n, k=k, cleared=tuple(q))


def compute_beta(m: int, n: int, k: int) -> BetaVector:
    """Expand Q(y) = prod (n - i + y)^(m+1): the last vector of :func:`beta_vectors`.

    Q has integer coefficients q_r, and beta_r = q_r / n^(k(m+1)-r).
    """
    _k_within_n("compute_beta", m, n, k)
    # Keep only the newest vector while walking, not every k below it.
    (last,) = deque(beta_vectors(m, n, k), maxlen=1)
    return last


def beta_bounds_check(bv: BetaVector) -> BetaBoundsReport:
    """Exact two-sided check C(N,r) rho^(N-r) <= beta_r <= C(N,r), rho = 1 - (k-1)/n.

    Decided on the cleared integers, the same sandwich multiplied through
    by n^(N-r) > 0: C(N,r) (n-k+1)^(N-r) <= q_r <= C(N,r) n^(N-r). Walking
    r downward accumulates both powers one multiply at a time.
    """
    degree, n, cleared = bv.degree, bv.n, bv.cleared
    base = n - bv.k + 1
    lower_power = scale = 1
    all_ok = True
    for r in range(degree, -1, -1):
        c = comb(degree, r)
        if not c * lower_power <= cleared[r] <= c * scale:
            all_ok = False
            break
        lower_power *= base
        scale *= n
    return BetaBoundsReport(m=bv.m, n=bv.n, k=bv.k, all_ok=all_ok, vector=bv)


def beta_ratio(bv: BetaVector, r: int) -> Fraction:
    """Exact ratio beta_{r+1} / beta_r = n q_{r+1} / q_r for 0 <= r < k(m+1)."""
    if not 0 <= r < bv.degree:
        raise IndexError(f"r must be in [0, {bv.degree - 1}], got {r}")
    return Fraction(bv.n * bv.cleared[r + 1], bv.cleared[r])
