"""Exact integer and rational combinatorial kernels.

All functions work on Python's arbitrary-precision ``int`` (the "natural
number" carrier; negative inputs are rejected) and return exact values.
Rational quantities elsewhere in the package are ``fractions.Fraction``,
which is always stored in lowest terms with a positive denominator, so
equality of values is equality of representations.

Stirling numbers of the second kind come from the triangular recurrence,
run by :func:`stirling2_column` one whole column at a time in a list it
does not keep; :func:`stirling2` reads a single value off such a column.
:func:`stirling2_alternating` is the independent second route. Nothing is
kept between calls.
"""

from __future__ import annotations

from math import comb, factorial as _factorial, perm

__all__ = [
    "binomial",
    "factorial",
    "falling_factorial",
    "stirling2",
    "stirling2_column",
    "stirling2_alternating",
    "fuss_catalan",
]


def _natural(name: str, value: int, minimum: int = 0) -> int:
    """``value`` if it is an int >= ``minimum``; the package's one integer check.

    Raises TypeError for anything but an exact ``int``: bool is an int
    subclass, and a flag passed as a size or order is a caller bug.
    Raises ValueError below ``minimum``.
    """
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def _k_within_n(what: str, m: int, n: int, k: int) -> None:
    """Check that m, n and k are ints >= 1, then that k <= n, the domain of ``what``."""
    for name, value in (("m", m), ("n", n), ("k", k)):
        _natural(name, value, 1)
    if k > n:
        raise ValueError(f"{what} requires k <= n, got k = {k}, n = {n}")


def binomial(n: int, k: int) -> int:
    """C(n, k); 0 when k > n."""
    return comb(_natural("n", n), _natural("k", k))


def factorial(n: int) -> int:
    """n! with 0! = 1."""
    return _factorial(_natural("n", n))


def falling_factorial(x: int, k: int) -> int:
    """x (x-1) ... (x-k+1), an empty product (= 1) for k = 0.

    For non-negative x the factors descend through zero before they could
    turn negative, so the product is 0 whenever k > x and no sign handling
    is needed here.
    """
    return perm(_natural("x", x), _natural("k", k))


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind {n brace k}.

    Counts partitions of an n-set into k non-empty blocks. Zero for k > n
    and for n > 0, k = 0; otherwise entry n - k of :func:`stirling2_column`.
    """
    _natural("n", n)
    _natural("k", k)
    return stirling2_column(k, n - k)[n - k] if k <= n else 0


def stirling2_column(k: int, depth: int) -> list[int]:
    """Column k of the Stirling triangle: {k + i brace k} for i = 0 .. depth.

    The triangular recurrence {n brace k} = k {n-1 brace k} + {n-1 brace
    k-1}, {0 brace 0} = 1, run in one list of length depth + 1 that is
    rolled in place from column 0 (1, 0, 0, ...) up to column k:
    {j + i brace j} = j {j + i - 1 brace j} + {j + i - 1 brace j - 1},
    where the second term still sits at index i when index i is
    overwritten. A caller that reads one column holds one column.
    """
    _natural("k", k)
    column = [1] + [0] * _natural("depth", depth)
    for j in range(1, k + 1):
        below = 0  # {j + i - 1 brace j}, zero above the diagonal
        for i, left in enumerate(column):
            below = column[i] = j * below + left
    return column


def stirling2_alternating(n: int, k: int) -> int:
    """{n brace k} via the inclusion-exclusion sum (1/k!) sum_i (-1)^(k-i) C(k,i) i^n.

    Deliberately a separate code path from the recurrence of
    :func:`stirling2_column`; the two are cross-checked against each other
    in the test suite and by ``verify``. Uses 0**0 == 1.
    """
    _natural("n", n)
    _natural("k", k)
    total = sum((-1) ** (k - i) * comb(k, i) * i**n for i in range(k + 1))
    q, rem = divmod(total, _factorial(k))
    if rem:
        raise ArithmeticError(
            f"alternating Stirling sum not divisible by {k}! at (n={n}, k={k})"
        )
    return q


def fuss_catalan(m: int, k: int) -> int:
    """Fuss-Catalan number C(mk + k, k) / (mk + 1); Catalan numbers at m = 1.

    The division is always exact; a non-zero remainder signals an
    arithmetic bug and raises.
    """
    _natural("m", m, 1)
    _natural("k", k)
    q, rem = divmod(comb(m * k + k, k), m * k + 1)
    if rem:
        raise ArithmeticError(f"inexact Fuss-Catalan division at (m={m}, k={k})")
    return q
