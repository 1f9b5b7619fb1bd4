"""Self-verification suites for the exact identities behind the package.

Five suites, each checking one layer of the computation chain:

- cross_formula: the three independent exact-moment formulations agree,
  hand-derived closed forms hold, and the moments approach Fuss-Catalan
  numbers at large n.
- beta_bounds: the two-sided binomial bounds on the polynomial
  coefficients hold exactly on a grid, walked by (m, n) so that each
  pair's coefficients are grown along k from one expansion.
- stirling: the two independent Stirling-number routes agree (the
  recurrence as the rolled columns the moment layers read), plus
  log-concavity and the growth bound on consecutive ratios.
- dominance: consecutive terms of the Stirling-form moment sum shrink at
  the predicted rate, the first term dominates, and the terms add up to
  the falling-factorial moment, a route that shares none of their inputs.
- asymptotic: the leading coefficient matches its binomial midpoint form
  exactly (sandwich bound) and the midpoint matches the closed-form
  approximation within a decreasing relative error.

Two grid profiles: "quick" (sub-minute on one core) and "full" (the
acceptance-scale grids, including n = 10^5 dominance points and the
k = 40 asymptotic checks). Every failure is recorded with the offending
(m, n, k, r) coordinates so a report is machine-actionable.

Suites call the engine modules through their module namespaces, so a
corrupted table or patched function is observed rather than a stale
import-time binding.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from . import beta_poly, combinatorics, edge_analysis, moment_engine

__all__ = [
    "CheckFailure",
    "SuiteResult",
    "VerifyReport",
    "run_verify",
    "PROFILES",
]

PROFILES = ("quick", "full")


@dataclass(frozen=True)
class CheckFailure:
    """One failed check: which suite, at which grid point, and why."""

    suite: str
    point: tuple
    message: str

    def as_dict(self) -> dict:
        return {"suite": self.suite, "point": list(self.point), "message": self.message}


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: list[CheckFailure] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, point: tuple, ok: bool, message: Callable[[], str]) -> None:
        """Count one check; if it failed, record ``message()`` at ``point``.

        The message is built only for a failure: formatting the big ints and
        Fractions of every passing check took a third of the stirling suite.
        """
        self.checks += 1
        if not ok:
            self.failures.append(CheckFailure(self.name, point, message()))


@dataclass
class VerifyReport:
    profile: str
    suites: list[SuiteResult]

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.suites)

    @property
    def checks(self) -> int:
        return sum(s.checks for s in self.suites)

    @property
    def failures(self) -> list[CheckFailure]:
        return [f for s in self.suites for f in s.failures]

    def as_dict(self) -> dict:
        return {
            "profile": self.profile,
            "ok": self.ok,
            "checks": self.checks,
            "suites": [
                {
                    "name": s.name,
                    "ok": s.ok,
                    "checks": s.checks,
                    "seconds": s.seconds,
                    "failures": [f.as_dict() for f in s.failures],
                }
                for s in self.suites
            ],
        }


def _suite_cross_formula(profile: str) -> SuiteResult:
    suite = SuiteResult("cross_formula")

    if profile == "quick":
        grid = [
            (m, n, k)
            for m in (1, 2)
            for k in range(1, 5)
            for n in range(k, 9)
        ]
        spot = [(1, 20, 5)]
        anchor_n_max, anchor2_n_max = 10, 12
        limit_points = [(m, 200, k) for m in (1, 2) for k in range(1, 5)]
    else:
        grid = [
            (m, n, k)
            for m in (1, 2, 3)
            for k in range(1, 7)
            for n in range(k, 13)
        ]
        spot = [(1, 50, 10), (2, 40, 8)]
        anchor_n_max, anchor2_n_max = 20, 50
        limit_points = [(m, 1000, k) for m in (1, 2, 3) for k in range(1, 6)]

    for m, n, k in grid + spot:
        report = moment_engine.moment_cross_check(moment_engine.MomentQuery(m=m, n=n, k=k))
        suite.check(
            (m, n, k),
            report.agree,
            lambda: "formulations disagree: " + " ".join(f"{name}={value}" for name, value in report.values.items()),
        )

    # Hand-derived closed forms: first moment is 1; second moment at one
    # and two factors is 2 and 3 + 1/n^2.
    for m in range(1, 5):
        for n in range(1, anchor_n_max + 1):
            got = moment_engine.moment_falling_sum(moment_engine.MomentQuery(m=m, n=n, k=1)).value
            suite.check((m, n, 1), got == 1, lambda: f"first moment should be 1, got {got}")
    for n in range(2, anchor2_n_max + 1):
        got = moment_engine.moment_falling_sum(moment_engine.MomentQuery(m=1, n=n, k=2)).value
        suite.check((1, n, 2), got == 2, lambda: f"second moment (one factor) should be 2, got {got}")
        got = moment_engine.moment_falling_sum(moment_engine.MomentQuery(m=2, n=n, k=2)).value
        want = 3 + Fraction(1, n**2)
        suite.check((2, n, 2), got == want, lambda: f"second moment (two factors) should be {want}, got {got}")

    # Large-n moments sit within 5% of their Fuss-Catalan limits.
    tol = Fraction(1, 20)
    for m, n, k in limit_points:
        value = moment_engine.moment_falling_sum(moment_engine.MomentQuery(m=m, n=n, k=k)).value
        fc = combinatorics.fuss_catalan(m, k)
        rel = abs(value / fc - 1)
        suite.check((m, n, k), rel <= tol, lambda: f"relative gap to limit {float(rel):.4g} > {float(tol)}")
    return suite


def _suite_beta_bounds(profile: str) -> SuiteResult:
    suite = SuiteResult("beta_bounds")
    # Every (m, n, k) with k <= min(k_max, n), walked by (m, n) so that one
    # expansion grown along k serves each pair.
    if profile == "quick":
        ms, k_max, n_max = (1, 2), 6, 30
    else:
        ms, k_max, n_max = (1, 2, 3), 12, 100
    for m in ms:
        for n in range(1, n_max + 1):
            for bv in beta_poly.beta_vectors(m, n, min(k_max, n)):
                report = beta_poly.beta_bounds_check(bv)
                point = (m, n, bv.k)
                if report.all_ok:
                    suite.check(point, True, lambda: "")
                    continue
                # The rows decide the bounds again in Fractions and name each r
                # outside them; a failed check they do not confirm still fails.
                bad = [row for row in report.rows if not row.ok]
                for row in bad:
                    suite.check(
                        point + (row.r,),
                        False,
                        lambda: f"coefficient {row.beta} outside [{row.lower}, {row.upper}]",
                    )
                if not bad:
                    suite.check(point, False, lambda: "integer bound check failed where every Fraction row holds")
    return suite


def _suite_stirling(profile: str) -> SuiteResult:
    suite = SuiteResult("stirling")
    if profile == "quick":
        eq_n, concave_n, ratio_r = 20, 30, 20
    else:
        eq_n, concave_n, ratio_r = 40, 60, 40

    # Every value is read from the rolled columns that dominance_report and
    # moment_stirling_beta use: {n brace k} = columns[k][n - k] for n <= top.
    top = max(eq_n, concave_n, ratio_r + 1)
    columns = [combinatorics.stirling2_column(k, top - k) for k in range(top + 1)]

    def s2(n: int, k: int) -> int:
        return columns[k][n - k]

    # Route agreement: triangular recurrence vs alternating binomial sum.
    for n in range(0, eq_n + 1):
        for k in range(0, n + 1):
            rec = s2(n, k)
            alt = combinatorics.stirling2_alternating(n, k)
            suite.check((n, k), rec == alt, lambda: f"recurrence {rec} != alternating sum {alt}")

    # Log-concavity along k at fixed n.
    for n in range(1, concave_n + 1):
        for k in range(1, n):
            s = s2(n, k)
            lo = s2(n, k - 1)
            hi = s2(n, k + 1)
            suite.check((n, k), s * s >= lo * hi, lambda: f"log-concavity fails: {s}^2 < {lo}*{hi}")

    # Consecutive-ratio identity {r+1 brace j}/{r brace j} = j + {r brace j-1}/{r brace j}
    # and its bound r(r+1)/2, decided on integers: {r brace j} > 0 on this grid.
    # The messages build the ratios only for a failure, where {r brace j} may be 0.
    for r in range(2, ratio_r + 1):
        for km1 in range(2, r + 1):
            cur = s2(r, km1)
            nxt = s2(r + 1, km1)
            prev_col = s2(r, km1 - 1)
            suite.check(
                (r, km1),
                nxt == km1 * cur + prev_col,
                lambda: f"ratio identity fails: {_ratio(nxt, cur)} != {_ratio(km1 * cur + prev_col, cur)}",
            )
            suite.check(
                (r, km1),
                2 * nxt <= r * (r + 1) * cur,
                lambda: f"ratio {_ratio(nxt, cur)} exceeds {Fraction(r * (r + 1), 2)}",
            )
    return suite


def _ratio(num: int, den: int) -> Fraction | str:
    """num/den for a failure message: the reduced Fraction, or the text "num/0"."""
    return Fraction(num, den) if den else f"{num}/0"


def _suite_dominance(profile: str) -> SuiteResult:
    suite = SuiteResult("dominance")
    if profile == "quick":
        points = [(m, 10**3, k) for m in (1, 2) for k in range(2, 6)]
    else:
        points = [(m, 10**5, k) for m in (1, 2) for k in range(2, 7)]
    for m, n, k in points:
        report = edge_analysis.dominance_report(m=m, n=n, k=k)
        for r, ratio, bound, ok in zip(
            report.r_values, report.ratios, report.ratio_bounds, report.ratio_ok
        ):
            suite.check((m, n, k, r), ok, lambda: f"term ratio {float(ratio):.4g} not below {float(bound):.4g}")
        suite.check(
            (m, n, k),
            10 * report.numerators[0] >= 9 * sum(report.numerators),  # a share of 9/10, exactly
            lambda: f"first-term share {report.first_term_share:.4g} below 0.9",
        )
        # The terms must sum to the scaled moment of the falling-factorial
        # route, which shares neither the expansion nor the Stirling column.
        falling = moment_engine.moment_falling_sum(moment_engine.MomentQuery(m=m, n=n, k=k))
        suite.check(
            (m, n, k),
            report.scaled_moment == falling.scaled,
            lambda: "dominance terms do not reconstruct the scaled moment",
        )
    return suite


def _suite_asymptotic(profile: str) -> SuiteResult:
    suite = SuiteResult("asymptotic")
    ks = (10, 20) if profile == "quick" else (10, 20, 40)
    for m in (1, 2):
        errs = []
        for k in ks:
            chk = edge_analysis.beta_leading_asymptotic(m=m, k=k)
            # Exact sandwich: the n_ref coefficient lies between the
            # binomial midpoint scaled down by rho^(N-k+1) and the
            # midpoint itself.
            big_n = k * (m + 1)
            rho = Fraction(chk.n_ref - k + 1, chk.n_ref)
            lower = chk.mid_form * rho ** (big_n - (k - 1))
            suite.check(
                (m, k),
                lower <= chk.exact <= chk.mid_form,
                lambda: f"leading coefficient {chk.exact} outside [{lower}, {chk.mid_form}]",
            )
            errs.append(chk.rel_err_mid_closed)
        for i in range(1, len(errs)):
            suite.check(
                (m, ks[i]),
                errs[i] < errs[i - 1],
                lambda: f"relative error grew: {errs[i - 1]:.4g} -> {errs[i]:.4g}",
            )
        suite.check((m, ks[-1]), errs[-1] <= 0.10, lambda: f"relative error {errs[-1]:.4g} > 0.10 at k={ks[-1]}")
    return suite


_SUITES = (
    _suite_cross_formula,
    _suite_beta_bounds,
    _suite_stirling,
    _suite_dominance,
    _suite_asymptotic,
)


def run_verify(profile: str = "quick") -> VerifyReport:
    """Run all five identity suites at the chosen grid size."""
    if profile not in PROFILES:
        raise ValueError(f"profile must be one of {PROFILES}, got {profile!r}")
    suites = []
    for suite_fn in _SUITES:
        start = time.perf_counter()
        result = suite_fn(profile)
        result.seconds = time.perf_counter() - start
        suites.append(result)
    return VerifyReport(profile=profile, suites=suites)
