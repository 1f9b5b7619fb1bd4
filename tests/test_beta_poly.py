"""Unit tests for the coefficient vector of prod_{i<k} (1 - i/n + x)^(m+1).

The oracle multiplies the linear factors directly with Fraction
arithmetic, independently of the cleared-denominator convolution used by
the implementation.
"""

from fractions import Fraction
from math import comb, factorial, prod

import pytest

from ginprod.beta_poly import BetaBoundRow, BetaVector, beta_bounds_check, beta_vectors, compute_beta


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _beta_oracle(m: int, n: int, k: int) -> tuple[Fraction, ...]:
    poly = [Fraction(1)]
    for i in range(k):
        factor = [1 - Fraction(i, n), Fraction(1)]
        for _ in range(m + 1):
            poly = _poly_mul(poly, factor)
    return tuple(poly)


class TestComputeBeta:
    def test_frozen_anchor(self):
        # m=1, n=2, k=2: (1 + x)^2 (1/2 + x)^2 expanded.
        bv = compute_beta(1, 2, 2)
        assert bv.coeffs == (
            Fraction(1, 4),
            Fraction(3, 2),
            Fraction(13, 4),
            Fraction(3),
            Fraction(1),
        )

    def test_matches_direct_expansion(self):
        for m in range(1, 4):
            for k in range(1, 6):
                for n in list(range(k, 11)) + [37]:
                    bv = compute_beta(m, n, k)
                    assert bv.coeffs == _beta_oracle(m, n, k)

    def test_shape_and_endpoints(self):
        for m, n, k in [(1, 5, 3), (2, 9, 4), (3, 12, 2)]:
            bv = compute_beta(m, n, k)
            degree = k * (m + 1)
            assert bv.degree == degree
            assert len(bv.coeffs) == degree + 1
            # Monic: leading coefficient 1.
            assert bv.coeffs[-1] == 1
            # Constant term: product of the roots' magnitudes.
            want = Fraction(factorial(n), factorial(n - k) * n**k) ** (m + 1)
            assert bv.coeffs[0] == want
            assert all(c > 0 for c in bv.coeffs)

    def test_coefficient_sum_is_value_at_one(self):
        for m, n, k in [(1, 4, 2), (2, 7, 3), (3, 10, 4)]:
            bv = compute_beta(m, n, k)
            value_at_one = Fraction(1)
            for i in range(k):
                value_at_one *= (2 - Fraction(i, n)) ** (m + 1)
            assert sum(bv.coeffs) == value_at_one

    def test_rejects_k_above_n(self):
        with pytest.raises(ValueError):
            compute_beta(1, 3, 4)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            compute_beta(0, 3, 2)
        with pytest.raises(ValueError):
            compute_beta(1, 0, 1)
        with pytest.raises(TypeError):
            compute_beta(1, 3.5, 2)


class TestBetaVectors:
    def test_each_vector_is_the_direct_expansion(self):
        for m in (1, 2, 3):
            for n in range(1, 31):
                vectors = list(beta_vectors(m, n, n))
                assert [bv.k for bv in vectors] == list(range(1, n + 1))
                assert vectors == [compute_beta(m, n, k) for k in range(1, n + 1)]

    @pytest.mark.parametrize("k_max, error", [(7, ValueError), (True, TypeError), (3.0, TypeError)])
    def test_rejects_bad_input_when_called(self, k_max, error):
        # Refused at the call, before any iteration.
        with pytest.raises(error):
            beta_vectors(1, 6, k_max)


class TestBounds:
    def test_bounds_hold_on_grid(self):
        for m in range(1, 4):
            for k in range(1, 7):
                for n in range(k, 31):
                    report = beta_bounds_check(compute_beta(m, n, k))
                    assert report.all_ok, (m, n, k)

    def test_rows_carry_exact_bounds(self):
        m, n, k = 2, 5, 3
        report = beta_bounds_check(compute_beta(m, n, k))
        degree = k * (m + 1)
        rho = Fraction(n - k + 1, n)
        for row in report.rows:
            assert row.upper == comb(degree, row.r)
            assert row.lower == comb(degree, row.r) * rho ** (degree - row.r)
            assert row.lower <= row.beta <= row.upper

    def test_bounds_tight_at_k_equals_one(self):
        # With a single root at zero the polynomial is exactly (1 + x)^(m+1).
        for m in range(1, 4):
            report = beta_bounds_check(compute_beta(m, 6, 1))
            for row in report.rows:
                assert row.beta == row.upper == row.lower


class TestClearedIntegers:
    # Identities of Q(y) = prod_{i<k} (n - i + y)^(m+1) that need no
    # convolution, at the size of the dominance table's largest point.
    M, N, K = 3, 10**5, 100

    def test_sum_is_value_at_one(self):
        bv = compute_beta(self.M, self.N, self.K)
        want = 1
        for i in range(self.K):
            want *= (self.N - i + 1) ** (self.M + 1)
        assert sum(bv.cleared) == want

    def test_endpoints(self):
        bv = compute_beta(self.M, self.N, self.K)
        assert len(bv.cleared) == bv.degree + 1
        # q_0 = (n! / (n-k)!)^(m+1), the product of the roots' magnitudes.
        assert bv.cleared[0] == prod(range(self.N - self.K + 1, self.N + 1)) ** (self.M + 1)
        assert bv.cleared[-1] == 1

    @pytest.mark.parametrize("m, n, k", [(2, 5, 3), (2, 6, 6), (1, 12, 12)])
    def test_lazy_fractions_equal_eager_ones(self, m, n, k):
        # The Fractions a reader sees, built on first read from the cleared
        # integers, equal the direct Fraction expansion and the bounds built
        # from rho = 1 - (k-1)/n.
        bv = compute_beta(m, n, k)
        coeffs = _beta_oracle(m, n, k)
        assert bv.coeffs == coeffs
        assert bv.cleared == tuple(c * n ** (bv.degree - r) for r, c in enumerate(coeffs))
        report = beta_bounds_check(bv)
        rho = Fraction(n - k + 1, n)
        want = []
        for r, beta in enumerate(coeffs):
            upper = Fraction(comb(bv.degree, r))
            lower = upper * rho ** (bv.degree - r)
            want.append(BetaBoundRow(r=r, lower=lower, beta=beta, upper=upper, ok=lower <= beta <= upper))
        assert report.rows == tuple(want)
        assert report.all_ok and all(row.ok for row in report.rows)

    @pytest.mark.parametrize("step", [1, -1])
    def test_integer_check_sees_one_unit_past_a_bound(self, step):
        # q_r one past C(N,r) n^(N-r) (step 1) or one short of
        # C(N,r) (n-k+1)^(N-r) (step -1) fails; exactly at the bound passes.
        m, n, k, r = 2, 5, 3, 4
        bv = compute_beta(m, n, k)
        edge = comb(bv.degree, r) * (n if step > 0 else n - k + 1) ** (bv.degree - r)
        for value, ok in ((edge, True), (edge + step, False)):
            cleared = bv.cleared[:r] + (value,) + bv.cleared[r + 1 :]
            report = beta_bounds_check(BetaVector(m=m, n=n, k=k, cleared=cleared))
            assert report.all_ok is ok
            assert [row.r for row in report.rows if not row.ok] == ([] if ok else [r])


    @pytest.mark.parametrize("r", [0, 1, 8, 9])
    @pytest.mark.parametrize("step", [1, -1])
    def test_check_agrees_with_its_rows_at_every_end(self, r, step):
        # The check walks r from N down and stops at the first failure; one
        # unit past either bound at the first or last r it walks is seen.
        m, n, k = 2, 5, 3
        bv = compute_beta(m, n, k)
        edge = comb(bv.degree, r) * (n if step > 0 else n - k + 1) ** (bv.degree - r)
        cleared = bv.cleared[:r] + (edge + step,) + bv.cleared[r + 1 :]
        report = beta_bounds_check(BetaVector(m=m, n=n, k=k, cleared=cleared))
        assert report.all_ok is False
        assert [row.r for row in report.rows if not row.ok] == [r]

class TestRatio:
    def test_large_n_ratio_near_binomial_ratio(self):
        # For n >> k^2 the coefficients track binomial(k(m+1), r), whose
        # consecutive ratio is (N - r)/(r + 1).
        for m in (1, 2, 3):
            for k in (2, 3):
                n = 1000
                bv = compute_beta(m, n, k)
                degree = k * (m + 1)
                for r in range(degree):
                    want = Fraction(degree - r, r + 1)
                    assert abs(bv.coeffs[r + 1] / bv.coeffs[r] / want - 1) <= Fraction(1, 10)


class TestLargeNApproach:
    def test_coefficients_approach_binomials(self):
        # Deviation from binomial(N, r) is at most (k-1) N / n in relative
        # terms, so it shrinks along a growing n-grid.
        m, k = 2, 3
        degree = k * (m + 1)
        worst = []
        for n in (10**3, 10**4, 10**5):
            bv = compute_beta(m, n, k)
            devs = []
            for r in range(degree + 1):
                c = comb(degree, r)
                dev = (c - bv.coeffs[r]) / c
                assert 0 <= dev <= Fraction((k - 1) * degree, n)
                devs.append(dev)
            worst.append(max(devs))
        assert worst[0] > worst[1] > worst[2]
