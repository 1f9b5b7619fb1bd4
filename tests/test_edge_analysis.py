"""Unit tests for edge constants, tail schedules, dominance, asymptotics."""

import dataclasses
import math
from fractions import Fraction

import pytest

import ginprod.moment_engine
from ginprod.beta_poly import compute_beta
from ginprod.combinatorics import binomial
from ginprod.edge_analysis import (
    DominanceReport,
    _min_admissible_n,
    beta_leading_asymptotic,
    dominance_report,
    edge_constant,
    log_fraction,
    markov_chain_bound,
    schedule,
    tail_summand,
    w_threshold,
)
from ginprod.moment_engine import MomentQuery, moment_falling_sum, moment_stirling_beta


class TestEdgeConstant:
    def test_frozen_values(self):
        wants = {
            1: Fraction(4),
            2: Fraction(27, 4),
            3: Fraction(256, 27),
            4: Fraction(3125, 256),
            5: Fraction(46656, 3125),
            6: Fraction(823543, 46656),
        }
        for m, want in wants.items():
            assert edge_constant(m).u == want

    def test_monotone_in_m(self):
        values = [edge_constant(m).u for m in range(1, 10)]
        assert all(a < b for a, b in zip(values, values[1:]))
        # u_m / (m + 1) -> e from below; crude growth sanity check.
        assert values[-1] < 10 * math.e

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            edge_constant(0)
        with pytest.raises(TypeError):
            edge_constant(2.0)


class TestLogFraction:
    def test_matches_math_log(self):
        for x in (Fraction(1, 3), Fraction(7, 2), Fraction(123, 7)):
            assert log_fraction(x) == pytest.approx(math.log(float(x)), rel=1e-14)

    def test_handles_huge_rationals(self):
        x = Fraction(10**400, 3)
        assert log_fraction(x) == pytest.approx(400 * math.log(10) - math.log(3), rel=1e-13)
        y = Fraction(3, 10**400)
        assert log_fraction(y) == pytest.approx(math.log(3) - 400 * math.log(10), rel=1e-13)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            log_fraction(Fraction(0))
        with pytest.raises(ValueError):
            log_fraction(Fraction(-1, 2))

    def test_reads_a_float_as_the_rational_it_is(self):
        assert log_fraction(2.5) == log_fraction(Fraction(5, 2))
        assert log_fraction(1e-300) == log_fraction(Fraction(1e-300))
        with pytest.raises(ValueError, match="^x must be a finite rational, got inf$"):
            log_fraction(math.inf)


_NON_FINITE = [math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("z", _NON_FINITE, ids=str)
@pytest.mark.parametrize("call", [
    lambda z: schedule(1, z),
    lambda z: w_threshold(1, z),
    lambda z: markov_chain_bound(1, 4, z, 2),
    lambda z: tail_summand(1, 100, z),
], ids=["schedule", "w_threshold", "markov_chain_bound", "tail_summand"])
def test_a_threshold_that_is_not_finite_is_refused_by_name(call, z):
    # A float is an exact rational, but inf and nan are not: each is a
    # ValueError naming z, not an OverflowError read as a numerical failure.
    with pytest.raises(ValueError, match=f"^z must be a finite rational, got {z}$"):
        call(z)


class TestSchedule:
    def test_threshold_example(self):
        # m=1, z=6: slope threshold 3/log(3/2).
        assert w_threshold(1, 6) == pytest.approx(3 / math.log(1.5), rel=1e-12)

    def test_default_slope_sits_above_threshold(self):
        sched = schedule(1, 6)
        assert sched.w == pytest.approx(1.01 * w_threshold(1, 6), rel=1e-12)
        # At n ~ e^4 the schedule asks for the 30th moment.
        assert sched.k_of(55) == 30

    def test_k_clamps_to_one_at_n_one(self):
        assert schedule(1, 6).k_of(1) == 1

    def test_k_is_nondecreasing(self):
        sched = schedule(2, Fraction(3, 2) * edge_constant(2).u)
        ks = [sched.k_of(n) for n in range(1, 200)]
        assert all(a <= b for a, b in zip(ks, ks[1:]))

    def test_rejects_z_at_or_below_edge(self):
        with pytest.raises(ValueError):
            schedule(1, 4)
        with pytest.raises(ValueError):
            w_threshold(2, Fraction(27, 4))
        with pytest.raises(ValueError):
            schedule(1, 3)

    def test_rejects_override_not_above_threshold(self):
        th = w_threshold(1, 6)
        with pytest.raises(ValueError):
            schedule(1, 6, w_override=th)
        with pytest.raises(ValueError):
            schedule(1, 6, w_override=th * 0.5)
        assert schedule(1, 6, w_override=th * 1.5).w == pytest.approx(th * 1.5)


class TestMarkovBound:
    def test_matches_definition(self):
        m, n, k = 2, 10, 4
        z = Fraction(7)
        want = n * moment_falling_sum(MomentQuery(m=m, n=n, k=k)).value / z**k
        assert markov_chain_bound(m, n, z, k) == want

    def test_rejects_k_above_n(self):
        with pytest.raises(ValueError):
            markov_chain_bound(1, 3, Fraction(5), 4)

    @pytest.mark.parametrize("z", [-1, 0, Fraction(-1, 2)])
    def test_rejects_a_threshold_that_is_not_positive(self, z, monkeypatch):
        # Markov's inequality needs z > 0: a negative z gave a "bound" and z = 0
        # divided by zero. It is refused before the moment is computed.
        def never(query):
            raise AssertionError("the moment was computed before z was checked")

        monkeypatch.setattr(ginprod.moment_engine, "moment_falling_sum", never)
        with pytest.raises(ValueError, match=r"^z must be > 0 for Markov's inequality, got -?[0-9/]+$"):
            markov_chain_bound(1, 4, z, 2)


class TestDominance:
    def test_terms_reconstruct_engine_moment(self):
        for m, n, k in [(1, 50, 3), (2, 200, 4), (1, 1000, 5)]:
            report = dominance_report(m, n, k)
            engine = moment_stirling_beta(MomentQuery(m=m, n=n, k=k))
            assert report.scaled_moment == engine.scaled

    def test_ratios_below_bound_at_large_n(self):
        for m in (1, 2):
            for k in (2, 3, 4, 5):
                report = dominance_report(m, 10**3, k)
                assert report.all_ratios_ok
                for ratio, bound in zip(report.ratios, report.ratio_bounds):
                    assert ratio < bound

    def test_first_term_share_bounded_by_geometric_tail(self):
        # If every ratio is below q < 1, the share is at least 1 - q/(1-q)
        # by geometric comparison.
        report = dominance_report(2, 10**4, 4)
        q = max(report.ratios)
        assert q < 1
        assert report.first_term_share >= 1 - q / (1 - q)

    def test_rejects_k_above_n(self):
        with pytest.raises(ValueError):
            dominance_report(1, 3, 4)


# m = 1..3 at n = 10, 10^3 and 10^5, with every k in (1, 2, 5, 10) up to n; at
# n = 10 and k >= 5 some ratio flags fail.
_DOMINANCE_GRID = [(m, n, k) for m in (1, 2, 3) for n in (10, 10**3, 10**5) for k in (1, 2, 5, 10) if k <= n]


class TestDominanceIntegers:
    @pytest.mark.parametrize("m, n, k", _DOMINANCE_GRID)
    def test_integer_flags_match_the_fraction_route(self, m, n, k):
        # The flags are decided on the integer numerators; the Fraction ratios
        # and bounds, built when read, decide them again.
        report = dominance_report(m, n, k)
        assert len(report.ratio_ok) == len(report.ratios) == len(report.ratio_bounds) == len(report.r_values) - 1
        assert list(report.ratio_ok) == [ratio < bound for ratio, bound in zip(report.ratios, report.ratio_bounds)]
        assert report.all_ratios_ok == all(report.ratio_ok)

    @pytest.mark.parametrize("m, n, k", _DOMINANCE_GRID)
    def test_scaled_moment_matches_the_falling_sum(self, m, n, k):
        report = dominance_report(m, n, k)
        assert report.scaled_moment == moment_falling_sum(MomentQuery(m=m, n=n, k=k)).scaled
        assert sum(report.terms) * Fraction(n) ** (k * (m + 1)) / k == report.scaled_moment

    def test_grid_has_failing_flags(self):
        assert not all(dominance_report(m, n, k).all_ratios_ok for m, n, k in _DOMINANCE_GRID)

    def test_stores_integers_and_builds_fractions_when_read(self):
        report = dominance_report(2, 10**3, 5)
        stored = [getattr(report, field.name) for field in dataclasses.fields(report)]
        assert not any(isinstance(value, Fraction) for value in stored)
        assert all(type(num) is int for num in report.numerators)
        assert not {"terms", "ratios", "ratio_bounds"} & set(vars(report))
        denominator = 10 ** (3 * 5 * 3)
        assert report.terms == tuple(Fraction(num, denominator) for num in report.numerators)
        assert report.terms is report.terms  # built once


class TestReducedTerms:
    @pytest.mark.parametrize("m, n, k", [
        (3, 1, 1), (2, 101, 12), (2, 2**10, 8), (2, 462, 40), (3, 720720, 10), (1, 10**5, 30), (2, 10**18, 6),
    ])
    def test_pairs_equal_the_fraction_terms(self, m, n, k):
        report = dominance_report(m, n, k)
        assert report.reduced_terms == tuple((t.numerator, t.denominator) for t in report.terms)
        assert report.reduced_terms is report.reduced_terms  # built once

    @pytest.mark.parametrize("n", [1, 12, 101, 2**10, 10**18])
    def test_synthetic_numerators(self, n):
        # Zero, units, and valuations past the k(m+1) v_p(n) that n^(k(m+1))
        # can absorb: the rounds stop at the cap and leave the rest upstairs.
        m, k = 1, 2
        cap = k * (m + 1)
        nums = (0, 1, 7, n**cap, 5 * n ** (cap + 3), 2 ** (64 * cap), 3 ** (40 * cap) * 11, n ** (cap - 1) * 2**9)
        report = DominanceReport(
            m=m, n=n, k=k, r_values=tuple(range(len(nums))), numerators=nums, ratio_ok=(True,) * (len(nums) - 1)
        )
        want = [Fraction(num, n**cap) for num in nums]
        assert report.reduced_terms == tuple((t.numerator, t.denominator) for t in want)
        assert report.terms == tuple(want)

    @pytest.mark.parametrize("m, n, k", _DOMINANCE_GRID)
    def test_first_term_share_is_the_rounded_fraction(self, m, n, k):
        report = dominance_report(m, n, k)
        assert report.first_term_share == float(Fraction(report.numerators[0], sum(report.numerators)))


class TestAsymptotic:
    def test_reference_point_is_cubed(self):
        chk = beta_leading_asymptotic(1, 5)
        assert chk.n_ref == 125

    def test_exact_between_sandwich_bounds(self):
        for m in (1, 2):
            for k in (4, 8, 12):
                chk = beta_leading_asymptotic(m, k)
                degree = k * (m + 1)
                assert chk.mid_form == Fraction(binomial(degree, k - 1), k)
                rho = Fraction(chk.n_ref - k + 1, chk.n_ref)
                assert chk.mid_form * rho ** (degree - k + 1) <= chk.exact <= chk.mid_form

    def test_relative_errors_shrink_with_k(self):
        for m in (1, 2):
            errs = [beta_leading_asymptotic(m, k).rel_err_mid_closed for k in (6, 12, 24)]
            assert errs[0] > errs[1] > errs[2]

    def test_exact_matches_coefficient(self):
        m, k = 2, 6
        chk = beta_leading_asymptotic(m, k)
        assert chk.exact == compute_beta(m, k**3, k).coeffs[k - 1] / k

    def test_rejects_tiny_k(self):
        with pytest.raises(ValueError):
            beta_leading_asymptotic(1, 1)


class TestTailSummand:
    def test_exact_bound_matches_markov_at_schedule_order(self):
        for m in (1, 2):
            z = Fraction(3, 2) * edge_constant(m).u
            for n in (60, 120):
                ts = tail_summand(m, n, z)
                assert ts.exact_bound == markov_chain_bound(m, n, z, ts.k_n)
                assert ts.log_exact == pytest.approx(log_fraction(ts.exact_bound), rel=1e-12)

    def test_surrogate_below_target_line(self):
        for m in (1, 2, 3):
            z = Fraction(3, 2) * edge_constant(m).u
            for n in (60, 120, 240, 480):
                ts = tail_summand(m, n, z)
                assert ts.log_surrogate <= -2.0 * math.log(n)

    def test_small_n_refused_with_admissible_hint(self):
        with pytest.raises(ValueError) as err:
            tail_summand(1, 20, 6)
        assert "smallest admissible n" in str(err.value)
        assert "24" in str(err.value)
        # The reported minimum really is admissible.
        assert tail_summand(1, 24, 6).k_n <= 24

    @pytest.mark.parametrize("m, z", [(1, 6), (1, 100), (2, 9), (2, 1000)])
    def test_admissible_hint_equals_the_linear_scan(self, m, z):
        threshold = w_threshold(m, Fraction(z))
        ws = [threshold * (1 + 1e-9), *(threshold * (1e3 / threshold) ** (i / 24) for i in range(1, 25))]
        for w in ws:
            sched = schedule(m, z, w_override=w)
            n = 2
            while sched.k_of(n) > n:
                n += 1
            assert _min_admissible_n(sched) == n, w

    def test_n_one_runs_with_clamped_order(self):
        ts = tail_summand(1, 1, 6)
        assert ts.k_n == 1
        # First moment is 1, so the bound is n * 1 / z.
        assert ts.exact_bound == Fraction(1, 6)
