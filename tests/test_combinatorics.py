"""Unit tests for the exact combinatorial kernels.

Oracles are deliberately independent of the implementation: Stirling
numbers are checked against brute-force enumeration of set partitions,
and Fuss-Catalan numbers against a recursive count of (m+1)-ary trees.
"""

import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ginprod
from ginprod.beta_poly import compute_beta
from ginprod.combinatorics import (
    binomial,
    factorial,
    falling_factorial,
    fuss_catalan,
    stirling2_alternating,
    stirling2_column,
)
from ginprod.edge_analysis import beta_leading_asymptotic, dominance_report, edge_constant, markov_chain_bound
from ginprod.moment_engine import MomentQuery, moment_cross_check, moment_gamma_sum, moment_stirling_beta
from ginprod.montecarlo import GinibreSpec, RunConfig


def _s2(n: int, k: int) -> int:
    """{n brace k} for k <= n, read off the recurrence's column k."""
    return stirling2_column(k, n - k)[n - k]


def _partition_counts(n: int) -> dict[int, int]:
    """Count set partitions of {0..n-1} by number of blocks, by explicit
    enumeration of restricted-growth assignments."""
    counts: dict[int, int] = {}

    def rec(i: int, next_block: int) -> None:
        if i == n:
            counts[next_block] = counts.get(next_block, 0) + 1
            return
        for _ in range(next_block):
            rec(i + 1, next_block)
        rec(i + 1, next_block + 1)

    rec(0, 0)
    return counts


def _ary_tree_count(p: int, nodes: int) -> int:
    """Number of p-ary trees with the given number of internal nodes,
    via the root-plus-subtrees decomposition."""

    @lru_cache(maxsize=None)
    def tree(n: int) -> int:
        if n == 0:
            return 1
        return forest(p, n - 1)

    @lru_cache(maxsize=None)
    def forest(width: int, n: int) -> int:
        if width == 0:
            return 1 if n == 0 else 0
        return sum(tree(a) * forest(width - 1, n - a) for a in range(n + 1))

    return tree(nodes)


class TestBinomial:
    def test_small_values(self):
        assert binomial(4, 2) == 6
        assert binomial(0, 0) == 1
        assert binomial(5, 0) == 1
        assert binomial(5, 5) == 1

    def test_out_of_range_is_zero(self):
        assert binomial(4, 5) == 0

    def test_symmetry(self):
        for n in range(12):
            for k in range(n + 1):
                assert binomial(n, k) == binomial(n, n - k)

    @given(st.integers(0, 300), st.integers(0, 300))
    def test_pascal_identity(self, n, k):
        assert binomial(n + 1, k + 1) == binomial(n, k) + binomial(n, k + 1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)
        with pytest.raises(ValueError):
            binomial(3, -2)

    def test_rejects_non_integer(self):
        with pytest.raises(TypeError):
            binomial(3.0, 1)


class TestFactorials:
    def test_factorial_values(self):
        assert [factorial(n) for n in range(6)] == [1, 1, 2, 6, 24, 120]

    def test_falling_factorial_matches_quotient(self):
        for x in range(10):
            for k in range(x + 1):
                assert falling_factorial(x, k) == factorial(x) // factorial(x - k)

    def test_falling_factorial_vanishes_past_zero(self):
        # One of the factors x, x-1, ..., x-k+1 is zero when k > x.
        assert falling_factorial(3, 4) == 0
        assert falling_factorial(0, 1) == 0

    def test_falling_factorial_recursion(self):
        for x in range(2, 12):
            for k in range(1, x + 1):
                assert falling_factorial(x, k) == x * falling_factorial(x - 1, k - 1)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            factorial(-1)
        with pytest.raises(TypeError):
            falling_factorial("3", 1)


class TestStirling2:
    def test_frozen_anchor(self):
        # {1,2,3,4} splits into two non-empty blocks in 7 ways.
        assert _s2(4, 2) == 7

    def test_matches_set_partition_enumeration(self):
        for n in range(0, 9):
            counts = _partition_counts(n)
            for k in range(0, n + 1):
                want = counts.get(k, 0)
                assert _s2(n, k) == want
                assert stirling2_alternating(n, k) == want

    def test_two_routes_agree(self):
        for n in range(0, 26):
            for k in range(0, n + 1):
                assert _s2(n, k) == stirling2_alternating(n, k)
        # Deep points, where each value is read off a column rolled k times.
        for n, k in ((300, 2), (300, 17), (299, 150), (300, 298)):
            assert _s2(n, k) == stirling2_alternating(n, k)

    def test_out_of_range(self):
        assert _s2(3, 0) == 0
        assert _s2(0, 0) == 1
        assert stirling2_alternating(3, 5) == 0
        assert stirling2_alternating(0, 0) == 1

    def test_log_concavity_along_k(self):
        for n in range(1, 31):
            for k in range(1, n):
                s = _s2(n, k)
                assert s * s >= _s2(n, k - 1) * _s2(n, k + 1)

    def test_ratio_identity_and_bound(self):
        # {r+1, c}/{r, c} = c + {r, c-1}/{r, c}, and is at most r(r+1)/2.
        for r in range(2, 21):
            for c in range(2, r + 1):
                ratio = Fraction(_s2(r + 1, c), _s2(r, c))
                assert ratio == c + Fraction(_s2(r, c - 1), _s2(r, c))
                assert ratio <= Fraction(r * (r + 1), 2)

    def test_deep_orders_from_a_cold_memo(self):
        # A fresh interpreter, so nothing is warm: a recursive evaluation of
        # the recurrence would exceed the interpreter's recursion limit here.
        code = (
            "from ginprod.combinatorics import stirling2_alternating, stirling2_column\n"
            "from ginprod.edge_analysis import dominance_report\n"
            "assert stirling2_column(5, 1195)[1195] == stirling2_alternating(1200, 5)\n"
            "print(len(dominance_report(1, 10**6, 600).terms))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(ginprod.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
        assert (done.returncode, done.stderr, done.stdout) == (0, "", "602\n")


class TestStirling2Column:
    def test_matches_both_routes(self):
        for k in range(0, 41):
            for depth in range(0, 41):
                want = [stirling2_alternating(k + i, k) for i in range(depth + 1)]
                assert stirling2_column(k, depth) == want

    def test_column_zero(self):
        assert stirling2_column(0, 0) == [1]
        assert stirling2_column(0, 5) == [1, 0, 0, 0, 0, 0]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="^depth must be >= 0, got -1$"):
            stirling2_column(3, -1)
        with pytest.raises(TypeError, match="^k must be an int, got bool$"):
            stirling2_column(True, 3)


class TestFussCatalan:
    def test_single_factor_is_catalan(self):
        assert [fuss_catalan(1, k) for k in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]

    def test_frozen_rows(self):
        assert [fuss_catalan(2, k) for k in range(5)] == [1, 1, 3, 12, 55]
        assert [fuss_catalan(3, k) for k in range(5)] == [1, 1, 4, 22, 140]

    def test_matches_ary_tree_enumeration(self):
        for m in range(1, 4):
            for k in range(0, 9):
                assert fuss_catalan(m, k) == _ary_tree_count(m + 1, k)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fuss_catalan(0, 3)
        with pytest.raises(ValueError):
            fuss_catalan(1, -1)
        with pytest.raises(TypeError):
            fuss_catalan(1, 2.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: binomial(True, 1),
        lambda: compute_beta(True, 2, 1),
        lambda: MomentQuery(m=True, n=3, k=2),
        lambda: edge_constant(True),
        lambda: GinibreSpec(n=4, m=True),
        lambda: RunConfig(replicates=True, master_seed=1),
    ],
    ids=["binomial", "compute_beta", "MomentQuery", "edge_constant", "GinibreSpec", "RunConfig"],
)
def test_bool_is_rejected_at_every_entry_point(call):
    # One integer check serves the whole package: a bool is never a size or order.
    with pytest.raises(TypeError):
        call()


# Each exact entry point that needs k <= n, called as (m, n, k); those that
# take a MomentQuery get one built from the three values.
_K_WITHIN_N = {
    "compute_beta": compute_beta,
    "moment_gamma_sum": lambda m, n, k: moment_gamma_sum(MomentQuery(m, n, k)),
    "moment_stirling_beta": lambda m, n, k: moment_stirling_beta(MomentQuery(m, n, k)),
    "moment_cross_check": lambda m, n, k: moment_cross_check(MomentQuery(m, n, k)),
    "dominance_report": dominance_report,
    "markov_chain_bound": lambda m, n, k: markov_chain_bound(m, n, 5, k),
}


@pytest.mark.parametrize("what", sorted(_K_WITHIN_N))
def test_k_within_n_is_checked_alike_everywhere(what):
    # Types and lower bounds come first, so a bad n is never blamed on k <= n.
    call = _K_WITHIN_N[what]
    with pytest.raises(TypeError, match="^n must be an int, got float$"):
        call(1, 2.5, 3)
    with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
        call(1, 0, 1)
    with pytest.raises(ValueError, match=f"^{what} requires k <= n, got k = 5, n = 2$"):
        call(1, 2, 5)


def test_asymptotic_check_names_a_float_k():
    with pytest.raises(TypeError, match="^k must be an int, got float$"):
        beta_leading_asymptotic(1, 2.0)
    with pytest.raises(ValueError, match="^k must be >= 2, got 1$"):
        beta_leading_asymptotic(1, 1)
