"""Exact expansion of P(x) = prod_{i=0}^{k-1} (1 - i/n + x)^(m+1).

The coefficient of x^r is written beta_r throughout the package. Provided
k <= n all roots of P are negative with magnitude in [1 - (k-1)/n, 1],
which pins each beta_r between C(k(m+1), r) (1 - (k-1)/n)^(k(m+1)-r) and
C(k(m+1), r); :func:`beta_bounds_check` verifies the sandwich exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import _k_within_n, binomial

__all__ = ["BetaVector", "BetaBoundRow", "BetaBoundsReport", "compute_beta", "beta_bounds_check", "beta_ratio"]


@dataclass(frozen=True)
class BetaVector:
    """Coefficients beta_0 .. beta_{k(m+1)} of P, exact and monic."""

    m: int
    n: int
    k: int
    coeffs: tuple[Fraction, ...]

    @property
    def degree(self) -> int:
        return self.k * (self.m + 1)


@dataclass(frozen=True)
class BetaBoundRow:
    r: int
    lower: Fraction
    beta: Fraction
    upper: Fraction
    ok: bool


@dataclass(frozen=True)
class BetaBoundsReport:
    m: int
    n: int
    k: int
    rows: tuple[BetaBoundRow, ...]
    all_ok: bool


def compute_beta(m: int, n: int, k: int) -> BetaVector:
    """Expand P by repeated convolution with its linear factors.

    Internally works with the denominator cleared: Q(y) = prod (n - i + y)^(m+1)
    has integer coefficients q_r, and beta_r = q_r / n^(k(m+1)-r). Each linear
    factor (n - i + y) is applied m+1 times, so this is the plain iterated
    polynomial multiplication, just over integers.
    """
    _k_within_n("compute_beta", m, n, k)
    q = [1]
    for i in range(k):
        c = n - i
        for _ in range(m + 1):
            nxt = [0] * (len(q) + 1)
            for j, coeff in enumerate(q):
                nxt[j] += c * coeff
                nxt[j + 1] += coeff
            q = nxt
    degree = k * (m + 1)
    coeffs = tuple(Fraction(q[r], n ** (degree - r)) for r in range(degree + 1))
    return BetaVector(m=m, n=n, k=k, coeffs=coeffs)


def beta_bounds_check(bv: BetaVector) -> BetaBoundsReport:
    """Exact two-sided check C(N,r) rho^(N-r) <= beta_r <= C(N,r), rho = 1 - (k-1)/n."""
    degree = bv.degree
    rho = Fraction(bv.n - bv.k + 1, bv.n)
    rows = []
    all_ok = True
    # Walk r downward so rho^(N-r) can be accumulated one multiply at a time.
    power = Fraction(1)
    for r in range(degree, -1, -1):
        upper = Fraction(binomial(degree, r))
        lower = upper * power
        beta = bv.coeffs[r]
        ok = lower <= beta <= upper
        all_ok = all_ok and ok
        rows.append(BetaBoundRow(r=r, lower=lower, beta=beta, upper=upper, ok=ok))
        power *= rho
    rows.reverse()
    return BetaBoundsReport(m=bv.m, n=bv.n, k=bv.k, rows=tuple(rows), all_ok=all_ok)


def beta_ratio(bv: BetaVector, r: int) -> Fraction:
    """Exact ratio beta_{r+1} / beta_r for 0 <= r < k(m+1)."""
    if not 0 <= r < bv.degree:
        raise IndexError(f"r must be in [0, {bv.degree - 1}], got {r}")
    return bv.coeffs[r + 1] / bv.coeffs[r]
