"""Soft-edge constant and the quantitative tail-bound chain.

The right endpoint of the limiting squared-singular-value support for a
product of m square Ginibre factors is u_m = (m+1)^(m+1) / m^m. The
largest squared singular value is controlled through high moments: for
z > u_m the probability P(s_1^2 >= z) is at most n G(m, n, k) / z^k for
every k >= 1, and with moment order k_n = ceil(w log n), w > 3/log(z/u_m),
the bounds sum to a convergent series. This module provides the exact
ingredients of that chain plus the asymptotic surrogates used to argue it:

* :func:`edge_constant`        -- u_m as an exact rational;
* :func:`schedule`             -- the (z, w, k_n) exponent schedule;
* :func:`markov_chain_bound`   -- the explicit bound n G / z^k, z > 0;
* :func:`tail_summand`         -- one series term, exact and in log form;
* :func:`dominance_report`     -- the terms of the Stirling-form moment sum
  G = (1/k) sum_r q_r {r brace k-1} / n^(mk+1), read as integer numerators
  from the summands ``moment_engine`` sums, with each consecutive ratio
  checked against ((m+1)/2)(r+1)^2 / n on those integers, and each term
  reduced to lowest terms by gcds with n for ``ginprod dominance`` to write;
* :func:`beta_leading_asymptotic` -- the leading coefficient beta_{k-1}/k
  against (1/k) C(k(m+1), k-1) and its closed-form Stirling approximation.

Exact values are Fractions, except where a report keeps integers over a
known denominator and builds its Fractions when they are read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import moment_engine
from .beta_poly import compute_beta
from .combinatorics import _k_within_n, _natural, binomial

__all__ = [
    "EdgeConstant",
    "TailSchedule",
    "DominanceReport",
    "AsymptoticCheck",
    "TailSummand",
    "edge_constant",
    "w_threshold",
    "schedule",
    "dominance_report",
    "beta_leading_asymptotic",
    "tail_summand",
    "markov_chain_bound",
    "log_fraction",
]

#: Relative safety margin applied to the threshold 3/log(z/u_m) when no
#: explicit w is given; the schedule needs strict inequality and 1% keeps
#: k_n small at desk scale.
DEFAULT_W_MARGIN = 0.01


def _rational(name: str, x) -> Fraction:
    """``x`` as an exact Fraction; a finite float is one. inf and nan raise ValueError."""
    try:
        return Fraction(x)
    except (OverflowError, ValueError):
        raise ValueError(f"{name} must be a finite rational, got {x}") from None


def log_fraction(x: Fraction | float) -> float:
    """Natural log of a positive rational, or of a float read as one.

    Computed as log(numerator) - log(denominator); Python's math.log scales
    big integers internally, so values far outside the float range are fine.
    """
    x = _rational("x", x)
    if x <= 0:
        raise ValueError(f"log requires a positive value, got {x}")
    return math.log(x.numerator) - math.log(x.denominator)


@dataclass(frozen=True)
class EdgeConstant:
    m: int
    u: Fraction


def edge_constant(m: int) -> EdgeConstant:
    """u_m = (m+1)^(m+1) / m^m; equals 4 at m = 1."""
    _natural("m", m, 1)
    return EdgeConstant(m=m, u=Fraction((m + 1) ** (m + 1), m**m))


@dataclass(frozen=True)
class TailSchedule:
    """Exponent schedule k_n = ceil(w log n) for a fixed z > u_m."""

    m: int
    z: Fraction
    w: float
    u: Fraction

    def k_of(self, n: float) -> int:
        """Moment order at size n; n = 1 is clamped to k = 1.

        Raises ValueError where w log n leaves the float range.
        """
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        order = self.w * math.log(n)
        if not math.isfinite(order):
            raise ValueError(f"w log n = {self.w} * log({n}) is beyond the float range")
        return max(1, math.ceil(order))


def w_threshold(m: int, z: Fraction) -> float:
    """The infimum 3 / log(z / u_m) of admissible growth rates w.

    Raises ValueError unless z > u_m and z / u_m is a float above 1, which
    keeps the threshold finite and positive.
    """
    u = edge_constant(m).u
    z = _rational("z", z)
    if z <= u:
        raise ValueError(
            f"z = {z} must exceed the edge constant u_{m} = {u}; "
            "the moment bound is vacuous otherwise"
        )
    try:
        ratio = float(z / u)
    except OverflowError:
        raise ValueError(f"z / u_{m} is beyond the float range") from None
    if ratio == 1.0:
        raise ValueError(f"z / u_{m} rounds to 1 as a float, so no finite w is admissible")
    return 3.0 / math.log(ratio)


def schedule(m: int, z, w_override: float | None = None) -> TailSchedule:
    """Build the exponent schedule for a given m and threshold z > u_m.

    By default w = (1 + margin) * 3/log(z/u_m); an explicit ``w_override``
    must be finite and exceed the threshold strictly.
    """
    z = _rational("z", z)
    threshold = w_threshold(m, z)
    if w_override is None:
        w = threshold * (1.0 + DEFAULT_W_MARGIN)
    else:
        w = float(w_override)
        if not math.isfinite(w):
            raise ValueError(f"w must be finite, got {w}")
        if w <= threshold:
            raise ValueError(
                f"w = {w} does not exceed the required threshold {threshold}"
            )
    return TailSchedule(m=m, z=z, w=w, u=edge_constant(m).u)


@dataclass(frozen=True)
class DominanceReport:
    """Term-by-term behaviour of the Stirling-form moment sum.

    The terms are t_r = n^(-r) beta_r {r brace k-1} for the orders r in
    ``r_values``, k-1 .. k(m+1) less those of weight zero. They share the
    denominator n^(k(m+1)), and the report keeps their integer numerators,
    the summands of :func:`moment_engine._stirling_summands`. Each flag in
    ``ratio_ok`` compares a consecutive ratio t_{r+1}/t_r with the bound
    ((m+1)/2)(r+1)^2 / n, decided on the integers by cross-multiplication:
    2n t_{r+1} < (m+1)(r+1)^2 t_r. ``terms``, ``ratios`` and ``ratio_bounds``
    are Fractions built on first read, a second route to the flags.

    ``reduced_terms`` holds the terms in lowest form as integer pairs, found
    by gcds with n alone; it is what ``ginprod dominance`` writes, and
    ``terms`` is the gcd-normalised second route to the same values.

    The flags are meaningful deep in the k^2 << n regime; outside it the
    report is still exact but the bound may fail, which is why assertion
    is left to the caller.
    """

    m: int
    n: int
    k: int
    r_values: tuple[int, ...]
    numerators: tuple[int, ...]
    ratio_ok: tuple[bool, ...]

    @property
    def all_ratios_ok(self) -> bool:
        return all(self.ratio_ok)

    @property
    def first_term_share(self) -> float:
        """t_{k-1} / sum_r t_r, correctly rounded: int true division rounds once."""
        return self.numerators[0] / sum(self.numerators)

    @property
    def scaled_moment(self) -> Fraction:
        """The numerators' sum over k; equals n^(mk+1) G(m, n, k)."""
        return Fraction(sum(self.numerators), self.k)

    @cached_property
    def terms(self) -> tuple[Fraction, ...]:
        denominator = self.n ** (self.k * (self.m + 1))
        return tuple(Fraction(num, denominator) for num in self.numerators)

    @cached_property
    def reduced_terms(self) -> tuple[tuple[int, int], ...]:
        """Each term as a (numerator, denominator) pair in lowest terms.

        Every denominator is n^N, N = k(m+1), so a numerator's gcd with it is
        built from gcds with n: each round divides the numerator by g =
        gcd(numerator, n) and multiplies g into an accumulator, which after j
        rounds is gcd(numerator, n^j). At most N rounds, stopping at g = 1;
        each costs time linear in the digits and needs no factorisation of n.
        """
        n, rounds = self.n, self.k * (self.m + 1)
        full = n**rounds
        pairs = []
        for num in self.numerators:
            common = 1
            for _ in range(rounds):
                g = math.gcd(num, n)
                if g == 1:
                    break
                num //= g
                common *= g
            pairs.append((num, full // common))
        return tuple(pairs)

    @cached_property
    def ratios(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(b, a) for a, b in zip(self.numerators, self.numerators[1:]))

    @cached_property
    def ratio_bounds(self) -> tuple[Fraction, ...]:
        return tuple(Fraction((self.m + 1) * (r + 1) ** 2, 2 * self.n) for r in self.r_values[:-1])


def dominance_report(m: int, n: int, k: int) -> DominanceReport:
    """The terms of the Stirling-form sum at (m, n, k <= n), with their ratio flags."""
    _k_within_n("dominance_report", m, n, k)
    r_values, nums = moment_engine._stirling_summands(m, n, k)
    ok = tuple(2 * n * b < (m + 1) * (r + 1) ** 2 * a for r, a, b in zip(r_values, nums, nums[1:]))
    return DominanceReport(m=m, n=n, k=k, r_values=r_values, numerators=nums, ratio_ok=ok)


@dataclass(frozen=True)
class AsymptoticCheck:
    """Links of the chain beta_{k-1}/k ~ (1/k) C(k(m+1), k-1) ~ closed form.

    ``exact`` is beta_{k-1}/k evaluated at n = k^3 (safely inside the
    k^2 = o(n) regime), ``mid_form`` the binomial expression, and
    ``closed_form`` sqrt((m+1)/(2 pi m^3)) u_m^k / k^(3/2).
    """

    m: int
    k: int
    n_ref: int
    exact: Fraction
    mid_form: Fraction
    closed_form: float
    rel_err_mid_closed: float


def beta_leading_asymptotic(m: int, k: int) -> AsymptoticCheck:
    _natural("k", k, 2)
    n_ref = k**3
    bv = compute_beta(m, n_ref, k)
    exact = Fraction(bv.cleared[k - 1], k * n_ref ** (bv.degree - (k - 1)))
    mid = Fraction(binomial(k * (m + 1), k - 1), k)
    u = float(edge_constant(m).u)
    closed = math.sqrt((m + 1) / (2.0 * math.pi * m**3)) * u**k / k**1.5
    return AsymptoticCheck(
        m=m,
        k=k,
        n_ref=n_ref,
        exact=exact,
        mid_form=mid,
        closed_form=closed,
        rel_err_mid_closed=abs(float(mid) / closed - 1.0),
    )


def markov_chain_bound(m: int, n: int, z, k: int) -> Fraction:
    """Explicit probability bound n G(m, n, k) / z^k for P(s_1^2 >= z).

    Markov's inequality needs z > 0; any other z raises ValueError.
    """
    _k_within_n("markov_chain_bound", m, n, k)
    z = _rational("z", z)
    if z <= 0:
        raise ValueError(f"z must be > 0 for Markov's inequality, got {z}")
    g = moment_engine.moment_falling_sum(moment_engine.MomentQuery(m=m, n=n, k=k)).value
    return n * g / z**k


@dataclass(frozen=True)
class TailSummand:
    """One term of the tail series at size n, exact and in log form.

    ``log_surrogate`` is log n - (3/2) log k_n + k_n log(u_m/z), the
    asymptotic stand-in for log of the exact bound; with the default
    schedule it is at most -2 log n.
    """

    m: int
    n: int
    z: Fraction
    w: float
    k_n: int
    exact_bound: Fraction
    log_exact: float
    log_surrogate: float


def _min_admissible_n(sched: TailSchedule) -> int:
    """The smallest n >= 2 with k_n <= n.

    For an integer n, ceil(w log n) <= n exactly when w log n <= n, and
    n - w log n falls until n = w and rises after it. So if n = 2 fails,
    every n up to w fails and every n past the first success succeeds:
    the answer is found by doubling, then bisecting.
    """
    failing, admissible = 1, 2
    while sched.k_of(admissible) > admissible:
        failing, admissible = admissible, 2 * admissible
    while admissible - failing > 1:
        mid = (failing + admissible) // 2
        if sched.k_of(mid) > mid:
            failing = mid
        else:
            admissible = mid
    return admissible


def tail_summand(m: int, n: int, z, w: float | None = None) -> TailSummand:
    """Evaluate the series term n G(m, n, k_n) / z^(k_n) at one size n.

    Sizes with k_n > n are refused (the exact-moment equivalence is only
    verified for k <= n); the error names the smallest admissible n.
    """
    sched = schedule(m, z, w_override=w)
    k_n = sched.k_of(n)
    if k_n > n:
        raise ValueError(
            f"k_n = {k_n} exceeds n = {n}; smallest admissible n for this "
            f"schedule is {_min_admissible_n(sched)}"
        )
    bound = markov_chain_bound(m, n, sched.z, k_n)
    log_surrogate = (
        math.log(n)
        - 1.5 * math.log(k_n)
        - k_n * math.log(float(sched.z / sched.u))
    )
    return TailSummand(
        m=m,
        n=n,
        z=sched.z,
        w=sched.w,
        k_n=k_n,
        exact_bound=bound,
        log_exact=log_fraction(bound),
        log_surrogate=log_surrogate,
    )
