"""Exact k-th moments of the squared-singular-value distribution of a
product of m independent n x n Ginibre matrices.

Three independent formulations of the same quantity G(m, n, k) are
implemented and cross-checked for exact rational equality:

* :func:`moment_gamma_sum` -- the factorial-ratio sum over i = 0 .. n-1
  (its terms below i = n - k vanish and are skipped) with the sign
  carried by a literal product of (possibly negative) integer factors;
* :func:`moment_falling_sum` -- the simplified alternating sum over
  j = 0 .. k-1 in terms of falling factorials (n+j)(n+j-1)...(n+j-k+1);
* :func:`moment_stirling_beta` -- the Stirling-number form built from the
  coefficients of P(x) = prod (1 - i/n + x)^(m+1). Its integer summands
  come from :func:`_stirling_summands`, which the dominance report in
  ``edge_analysis`` reads too.

All three agree for 1 <= k <= n. For k > n only the falling-factorial sum
is offered (it stays valid through the zero-factor convention); the other
two refuse, since their derivations assume k <= n.
:func:`moment_cross_check` evaluates all three; the fields of
:class:`CrossCheckReport` name the routes, once and in order.

The matrix-entry convention matching these values is mean 0, variance 1/n
per entry, complex Gaussian. For the real ensemble finite-n moments differ
(e.g. the second moment gains 1/n at m = 1) although the n -> infinity
limits coincide; see the montecarlo module.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction

from . import beta_poly
from .combinatorics import (
    _k_within_n,
    _natural,
    binomial,
    factorial,
    falling_factorial,
    stirling2_column,
)

__all__ = [
    "MomentQuery",
    "MomentValue",
    "CrossCheckReport",
    "moment_gamma_sum",
    "moment_falling_sum",
    "moment_stirling_beta",
    "moment_cross_check",
]


@dataclass(frozen=True)
class MomentQuery:
    """A (number of factors, matrix size, moment order) triple, all >= 1."""

    m: int
    n: int
    k: int

    def __post_init__(self) -> None:
        for name, value in (("m", self.m), ("n", self.n), ("k", self.k)):
            _natural(name, value, 1)


@dataclass(frozen=True)
class MomentValue:
    """G(m, n, k) together with the scaled quantity n^(mk+1) G(m, n, k)."""

    value: Fraction
    scaled: Fraction


def _as_moment_value(scaled: Fraction, q: MomentQuery) -> MomentValue:
    # Divide by n^(mk+1) exactly once, at the end.
    return MomentValue(value=scaled / Fraction(q.n) ** (q.m * q.k + 1), scaled=scaled)


def _pairwise_product(factors: list[int]) -> int:
    """The product of ``factors``, 1 for none, multiplied pairwise as a product tree.

    Each round multiplies neighbours, so the operands of a multiply grow
    together; one after another, every multiply would take the whole
    running product times one small factor.
    """
    while len(factors) > 1:
        odd = factors[len(factors) & ~1 :]  # the unpaired last factor, if any
        factors = [a * b for a, b in zip(factors[::2], factors[1::2])] + odd
    return factors[0] if factors else 1


def moment_gamma_sum(q: MomentQuery) -> MomentValue:
    """Factorial-ratio form of n^(mk+1) G(m, n, k).

    Evaluates sum_{i=0}^{n-1} (-1)^(1+i) prod_{j=0}^{n-1} (j-k-i)
    / (i! (n-1-i)! k) * ((k+i)!/i!)^m. Terms with i < n - k contain the
    zero factor j = k + i and vanish, so the loop starts at i = n - k: k
    terms, each with a product of n integers. That product is still taken
    literally, factor by factor (as a product tree), so its sign comes out
    of the arithmetic rather than a separate parity argument. Every term
    is put over the one denominator (n-1)! k, as 1/(i! (n-1-i)!) =
    C(n-1, i)/(n-1)!, and the sum is divided once.
    """
    _k_within_n("moment_gamma_sum", q.m, q.n, q.k)
    m, n, k = q.m, q.n, q.k
    total = 0
    for i in range(n - k, n):
        signed_product = _pairwise_product([j - k - i for j in range(n)])
        total += (-1) ** (1 + i) * signed_product * falling_factorial(k + i, k) ** m * binomial(n - 1, i)
    return _as_moment_value(Fraction(total, factorial(n - 1) * k), q)


def moment_falling_sum(q: MomentQuery) -> MomentValue:
    """Simplified form: (1/k!) sum_j (-1)^(k+1-j) ((n+j)...(n+j-k+1))^(m+1) C(k-1, j).

    Total for every valid query: when k > n + j the falling factorial hits a
    zero factor and the term drops out, so no domain restriction is needed.
    """
    m, n, k = q.m, q.n, q.k
    total = sum(
        (-1) ** (k + 1 - j) * falling_factorial(n + j, k) ** (m + 1) * binomial(k - 1, j)
        for j in range(k)
    )
    return _as_moment_value(Fraction(total, factorial(k)), q)


def _stirling_summands(m: int, n: int, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The orders r and integer summands q_r {r brace k-1} of the Stirling-form sum.

    q_r = beta_r n^(k(m+1)-r) are the cleared coefficients of one expansion
    and the weights {r brace k-1}, r = k-1 .. k(m+1), one Stirling column;
    the summands add up to k n^(mk+1) G(m, n, k). Orders whose weight is
    zero (every r > 0 when k = 1) are left out. ``compute_beta`` is called
    through its module, so the verify suites see a patched expansion. The
    caller checks the arguments.
    """
    cleared = beta_poly.compute_beta(m, n, k).cleared
    weights = stirling2_column(k - 1, len(cleared) - k)
    r_values, summands = zip(*((r, cleared[r] * w) for r, w in enumerate(weights, start=k - 1) if w))
    return r_values, summands


def moment_stirling_beta(q: MomentQuery) -> MomentValue:
    """Stirling-number form: (n^(k(m+1))/k) sum_r n^(-r) beta_r {r brace k-1}.

    With the integer coefficients q_r = beta_r n^(k(m+1)-r) of the
    denominator-cleared polynomial, the scaled moment collapses to
    (1/k) sum_r q_r {r brace k-1}, the sum of :func:`_stirling_summands`
    over k; it starts at r = k-1 because {r brace k-1} = 0 below that.
    """
    _k_within_n("moment_stirling_beta", q.m, q.n, q.k)
    _, summands = _stirling_summands(q.m, q.n, q.k)
    return _as_moment_value(Fraction(sum(summands), q.k), q)


@dataclass(frozen=True)
class CrossCheckReport:
    """The three formulations at one query.

    Each field after ``query`` is a route, named for the function
    ``moment_<field>`` that computes it; their order is the order of
    ``values``.
    """

    query: MomentQuery
    gamma_sum: MomentValue
    falling_sum: MomentValue
    stirling_beta: MomentValue

    @property
    def values(self) -> dict[str, Fraction]:
        """Route name -> G(m, n, k), in field order."""
        return {f.name: getattr(self, f.name).value for f in fields(self)[1:]}

    @property
    def agree(self) -> bool:
        return len(set(self.values.values())) == 1


def moment_cross_check(q: MomentQuery) -> CrossCheckReport:
    """Evaluate all three formulations and compare as canonical rationals.

    Each route is called by its module-level name when the check runs, so a
    patched or wrapped formulation is the one evaluated.
    """
    _k_within_n("moment_cross_check", q.m, q.n, q.k)
    return CrossCheckReport(
        query=q,
        gamma_sum=moment_gamma_sum(q),
        falling_sum=moment_falling_sum(q),
        stirling_beta=moment_stirling_beta(q),
    )
