"""Unit tests for the three exact moment formulations.

Anchors were derived by hand before freezing: the first moment is 1 for
every (m, n); the second moment is 2 for one factor, 3 + 1/n^2  for two
factors, 4 + 4/n^2 for three; at n = 1 the k-th moment collapses to
(k!)^m. All exact values refer to the complex-entry ensemble.
"""

from fractions import Fraction
from math import factorial, perm, prod

import pytest

from ginprod.combinatorics import fuss_catalan
from ginprod.moment_engine import (
    MomentQuery,
    _pairwise_product,
    moment_cross_check,
    moment_falling_sum,
    moment_gamma_sum,
    moment_stirling_beta,
)


def _value(m, n, k):
    return moment_falling_sum(MomentQuery(m=m, n=n, k=k)).value


def _limit_gap(m, k, n):
    """G(m, n, k) minus its n -> infinity limit, the Fuss-Catalan number."""
    return _value(m, n, k) - fuss_catalan(m, k)


class TestClosedForms:
    def test_first_moment_is_one(self):
        for m in range(1, 5):
            for n in range(1, 13):
                assert _value(m, n, 1) == 1

    def test_second_moment_one_factor(self):
        for n in range(2, 21):
            assert _value(1, n, 2) == 2

    def test_second_moment_two_factors(self):
        for n in range(2, 21):
            assert _value(2, n, 2) == 3 + Fraction(1, n**2)

    def test_second_moment_three_factors(self):
        for n in range(2, 21):
            assert _value(3, n, 2) == 4 + Fraction(4, n**2)

    def test_size_one_collapses_to_factorial_powers(self):
        for m in range(1, 4):
            for k in range(1, 6):
                assert _value(m, 1, k) == factorial(k) ** m

    def test_frozen_spot_values(self):
        assert _value(1, 2, 2) == 2
        assert _value(2, 2, 2) == Fraction(13, 4)
        assert _value(1, 2, 3) == Fraction(21, 4)


class TestFormulationAgreement:
    def test_three_way_cross_check_grid(self):
        for m in (1, 2):
            for k in range(1, 5):
                for n in range(k, 9):
                    report = moment_cross_check(MomentQuery(m=m, n=n, k=k))
                    assert report.agree, (m, n, k)
                    assert (
                        report.gamma_sum.value
                        == report.falling_sum.value
                        == report.stirling_beta.value
                    )
                    assert list(report.values.items()) == [
                        ("gamma_sum", report.gamma_sum.value),
                        ("falling_sum", report.falling_sum.value),
                        ("stirling_beta", report.stirling_beta.value),
                    ]

    def test_gamma_sum_matches_falling_sum(self):
        # The gamma sum's sign comes out of a literal product; the falling sum
        # states it as (-1)^(k+1-j). The two must agree over the whole grid.
        for m in (1, 2, 3):
            for k in range(1, 5):
                for n in range(k, 9):
                    q = MomentQuery(m=m, n=n, k=k)
                    assert moment_gamma_sum(q).value == moment_falling_sum(q).value

    def test_gamma_sum_skips_only_vanishing_terms(self):
        # moment_gamma_sum starts at i = n - k; every earlier term carries
        # the zero factor j = k + i, so the full literal sum is unchanged.
        for m in (1, 2, 3):
            for n in range(1, 13):
                for k in range(1, n + 1):
                    full = Fraction(0)
                    for i in range(n):
                        signed_product = prod(j - k - i for j in range(n))
                        if i < n - k:
                            assert signed_product == 0, (n, k, i)
                        full += Fraction(
                            (-1) ** (1 + i) * signed_product * perm(k + i, k) ** m,
                            factorial(i) * factorial(n - 1 - i) * k,
                        )
                    q = MomentQuery(m=m, n=n, k=k)
                    assert moment_gamma_sum(q).scaled == full, (m, n, k)

    @pytest.mark.parametrize("m, n, k", [(2, 2000, 10), (1, 1, 1), (3, 9, 9), (2, 40, 40)])
    def test_gamma_sum_at_benchmark_size_and_k_equal_n(self, m, n, k):
        # The product tree and the one common denominator (n-1)! k change
        # how the sum is evaluated, never its exact value.
        q = MomentQuery(m=m, n=n, k=k)
        value = moment_gamma_sum(q).value
        assert value == moment_falling_sum(q).value

    @pytest.mark.parametrize("factors", [
        [], [7], [-3], [0], [2, 3], [2, -3, 5], [1, 2, 3, 4, 5, 6, 7],
        [-(j + 1) for j in range(9)], list(range(-20, 0)) + [10**30],
    ])
    def test_pairwise_product_matches_prod(self, factors):
        assert _pairwise_product(list(factors)) == prod(factors)

    def test_scaled_and_value_are_consistent(self):
        q = MomentQuery(m=2, n=5, k=3)
        mv = moment_stirling_beta(q)
        assert mv.value == mv.scaled / Fraction(5) ** (2 * 3 + 1)


class TestMomentShape:
    def test_log_convexity_in_k(self):
        # Moments of a positive measure are log-convex in the order.
        for m in (1, 2, 3):
            for n in (2, 5, 9):
                values = [_value(m, n, k) for k in range(1, 7)]
                for i in range(1, len(values) - 1):
                    assert values[i] ** 2 <= values[i - 1] * values[i + 1]

    def test_moments_increase_with_factor_count(self):
        for n in (2, 6):
            for k in (2, 3, 4):
                assert _value(1, n, k) < _value(2, n, k) < _value(3, n, k)

    def test_finite_size_moment_exceeds_limit(self):
        # The finite-n moment approaches its limit from above.
        for m in (1, 2, 3):
            for k in (2, 3, 4):
                for n in (max(k, 2), 8, 20):
                    assert _value(m, n, k) >= fuss_catalan(m, k)


class TestLimitGap:
    def test_exact_gaps(self):
        for n in (2, 7, 30):
            assert _limit_gap(1, 2, n) == 0
            assert _limit_gap(2, 2, n) == Fraction(1, n**2)
            assert _limit_gap(1, 1, n) == 0

    def test_gap_shrinks_with_n(self):
        gaps = [_limit_gap(2, 4, n) for n in (4, 8, 16, 32)]
        assert all(g > 0 for g in gaps)
        assert gaps[0] > gaps[1] > gaps[2] > gaps[3]


class TestDomain:
    def test_query_validation(self):
        with pytest.raises(ValueError):
            MomentQuery(m=0, n=3, k=1)
        with pytest.raises(ValueError):
            MomentQuery(m=1, n=0, k=1)
        with pytest.raises(ValueError):
            MomentQuery(m=1, n=3, k=0)
        with pytest.raises(TypeError):
            MomentQuery(m=1.0, n=3, k=1)

    def test_restricted_formulations_reject_k_above_n(self):
        q = MomentQuery(m=1, n=2, k=3)
        with pytest.raises(ValueError):
            moment_gamma_sum(q)
        with pytest.raises(ValueError):
            moment_stirling_beta(q)
        with pytest.raises(ValueError):
            moment_cross_check(q)
        # The falling-sum form covers the whole domain.
        assert moment_falling_sum(q).value == Fraction(21, 4)
