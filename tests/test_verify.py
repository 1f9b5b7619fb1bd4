"""Unit tests for the identity-suite runner."""

import dataclasses
from fractions import Fraction
from math import comb

import pytest

import ginprod.beta_poly
import ginprod.combinatorics
import ginprod.moment_engine
from ginprod.verify import PROFILES, run_verify


class TestRunVerify:
    def test_quick_profile_is_green(self):
        report = run_verify("quick")
        assert report.ok
        assert report.checks > 1000
        assert [s.name for s in report.suites] == [
            "cross_formula",
            "beta_bounds",
            "stirling",
            "dominance",
            "asymptotic",
        ]
        assert all(s.checks > 0 for s in report.suites)

    def test_report_serializes(self):
        report = run_verify("quick")
        doc = report.as_dict()
        assert doc["profile"] == "quick"
        assert doc["ok"] is True
        assert len(doc["suites"]) == 5

    @pytest.mark.parametrize("profile, counts", [
        ("quick", [123, 330, 1046, 66, 8]),
        ("full", [366, 3402, 4191, 90, 12]),
    ])
    def test_check_counts_per_suite(self, profile, counts):
        # A suite rewrite must keep every check: cross_formula, beta_bounds,
        # stirling, dominance and asymptotic, in that order.
        report = run_verify(profile)
        assert report.ok
        assert [s.checks for s in report.suites] == counts
        assert report.checks == {"quick": 1573, "full": 8061}[profile]

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            run_verify("exhaustive")
        assert PROFILES == ("quick", "full")


class TestFaultInjection:
    def test_corrupted_stirling_route_is_caught(self, monkeypatch):
        # Corrupt one value of the alternating-sum route; the route-
        # agreement suite must localize it.
        real = ginprod.combinatorics.stirling2_alternating

        def corrupted(n, k):
            value = real(n, k)
            return value + 1 if (n, k) == (7, 3) else value

        monkeypatch.setattr(ginprod.combinatorics, "stirling2_alternating", corrupted)
        report = run_verify("quick")
        assert not report.ok
        stirling = next(s for s in report.suites if s.name == "stirling")
        assert any(f.point == (7, 3) for f in stirling.failures)

    def test_corrupted_stirling_column_is_caught(self, monkeypatch):
        # The suite reads the recurrence route from stirling2_column, the
        # columns the moment layers use: one value one unit off, {12 brace 5},
        # must be named at (12, 5) by the route-agreement check.
        real = ginprod.combinatorics.stirling2_column
        n, k = 12, 5
        right = ginprod.combinatorics.stirling2_alternating(n, k)

        def corrupted(col, depth):
            column = real(col, depth)
            if col == k and depth >= n - k:
                column[n - k] += 1
            return column

        monkeypatch.setattr(ginprod.combinatorics, "stirling2_column", corrupted)
        report = run_verify("quick")
        assert not report.ok
        stirling = next(s for s in report.suites if s.name == "stirling")
        assert stirling.checks == 1046
        route = [f for f in stirling.failures if f.message.startswith("recurrence")]
        assert [(f.point, f.message) for f in route] == [
            ((n, k), f"recurrence {right + 1} != alternating sum {right}")
        ]
        assert {f.suite for f in report.failures} == {"stirling"}

    def test_corrupted_moment_engine_is_caught(self, monkeypatch):
        real = ginprod.moment_engine.moment_falling_sum

        def corrupted(query):
            value = real(query)
            if (query.m, query.n, query.k) == (1, 5, 2):
                return ginprod.moment_engine.MomentValue(
                    value=value.value + 1, scaled=value.scaled
                )
            return value

        monkeypatch.setattr(ginprod.moment_engine, "moment_falling_sum", corrupted)
        report = run_verify("quick")
        assert not report.ok
        cross = next(s for s in report.suites if s.name == "cross_formula")
        assert any(f.point == (1, 5, 2) for f in cross.failures)

    def test_corrupted_beta_is_caught(self, monkeypatch):
        # One cleared coefficient one unit above its upper bound
        # C(N, r) n^(N-r), in the vector grown for k at (m, n): the bound
        # suite names (m, n, k, r) and prints the failing row's exact bounds.
        m, n, k, r = 2, 5, 3, 4
        real = ginprod.beta_poly.beta_vectors

        def corrupted(*args):
            for bv in real(*args):
                if (bv.m, bv.n, bv.k) == (m, n, k):
                    cleared = list(bv.cleared)
                    cleared[r] = comb(bv.degree, r) * n ** (bv.degree - r) + 1
                    bv = ginprod.beta_poly.BetaVector(m=m, n=n, k=k, cleared=tuple(cleared))
                yield bv

        monkeypatch.setattr(ginprod.beta_poly, "beta_vectors", corrupted)
        report = run_verify("quick")
        assert not report.ok
        bounds = next(s for s in report.suites if s.name == "beta_bounds")
        assert [f.point for f in bounds.failures] == [(m, n, k, r)]
        degree = (m + 1) * k
        upper = comb(degree, r)
        lower = upper * Fraction(n - k + 1, n) ** (degree - r)
        assert f"[{lower}, {upper}]" in bounds.failures[0].message
        assert report.as_dict()["ok"] is False

    def test_failed_integer_check_is_recorded_without_a_failing_row(self, monkeypatch):
        # The rows decide the bounds again in Fractions. A check that reports
        # a failure on an untouched vector, which every row clears, must
        # still fail the suite at (m, n, k).
        m, n, k = 2, 5, 3
        real = ginprod.beta_poly.beta_bounds_check

        def corrupted(bv):
            report = real(bv)
            if (bv.m, bv.n, bv.k) == (m, n, k):
                report = dataclasses.replace(report, all_ok=False)
            return report

        monkeypatch.setattr(ginprod.beta_poly, "beta_bounds_check", corrupted)
        report = run_verify("quick")
        assert not report.ok
        bounds = next(s for s in report.suites if s.name == "beta_bounds")
        assert [f.point for f in bounds.failures] == [(m, n, k)]
        assert bounds.checks == 330
        assert {f.suite for f in report.failures} == {"beta_bounds"}

    def test_corrupted_single_expansion_is_caught(self, monkeypatch):
        # compute_beta feeds the Stirling-form moment: a unit added to one
        # cleared coefficient at (m, n, k) makes the three formulations
        # disagree there.
        m, n, k, r = 2, 5, 3, 4
        real = ginprod.beta_poly.compute_beta

        def corrupted(*args):
            bv = real(*args)
            if (bv.m, bv.n, bv.k) != (m, n, k):
                return bv
            cleared = list(bv.cleared)
            cleared[r] += 1
            return ginprod.beta_poly.BetaVector(m=m, n=n, k=k, cleared=tuple(cleared))

        monkeypatch.setattr(ginprod.beta_poly, "compute_beta", corrupted)
        report = run_verify("quick")
        assert not report.ok
        cross = next(s for s in report.suites if s.name == "cross_formula")
        assert [f.point for f in cross.failures] == [(m, n, k)]
        assert "stirling_beta=" in cross.failures[0].message
