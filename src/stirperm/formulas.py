"""Closed-form counting formulas, evaluated in exact integer arithmetic.

Every division here is exact by theorem (the counts come from Lagrange
inversion); a nonzero remainder is therefore an implementation error and
raises DivisibilityError rather than rounding.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DivisibilityError, NonPolynomialResult
from .polynomials import Polynomial

P_ONLY = ("p",)
R_ONLY = ("r",)


def binomial(a, b):
    """binom(a, b), zero whenever b < 0 or b > a (sums below rely on this)."""
    if b < 0 or a < 0 or b > a:
        return 0
    return math.comb(a, b)


def exact_div(num, den):
    q, r = divmod(num, den)
    if r:
        raise DivisibilityError(f"{num} not divisible by {den}")
    return q


def _as_int(frac):
    if frac.denominator != 1:
        raise DivisibilityError(f"sum {frac} is not an integer")
    return frac.numerator


def count_avoid_213(n):
    """Number of 213-avoiding Stirling permutations of order n."""
    return exact_div(binomial(3 * n, n), 2 * n + 1)


def count_avoid_123(n):
    """Number of 123-avoiding Stirling permutations of order n.

    The 132-avoiders are equinumerous, see count_avoid_132.
    """
    if n == 0:
        return 1
    total = Fraction(0)
    for j in range(n + 1):
        total += Fraction(binomial(n, j) * binomial(n + j - 1, n - j), n + 1 - j)
    return _as_int(total)


def count_avoid_132(n):
    return count_avoid_123(n)


def count_213_by_stats(n, m, d, k):
    """213-avoiders of order n with m ascents, d descents and k plateaus."""
    if n < 1:
        raise ValueError("order must be positive")
    if m + d + k != 2 * n - 1:
        return 0
    return exact_div(binomial(n, m + 1) * binomial(n, d + 1) * binomial(n, k), n)


def plateau_count_213(n, k):
    """213-avoiders of order n with exactly k plateaus."""
    return exact_div(binomial(n, k) * binomial(2 * n, k - 1), n)


def plateau_poly_213(n):
    """Plateau marginal over the 213-avoiders of order n, as a polynomial in p."""
    if n < 1:
        raise ValueError("order must be positive")
    return Polynomial(P_ONLY, {(k,): plateau_count_213(n, k) for k in range(n, 0, -1)})


def plateau_count_123(n, k):
    """123-avoiders of order n with exactly k plateaus."""
    return exact_div(binomial(n + 1, k + 1) * binomial(n + k, 2 * n - k), n + 1)


def plateau_poly_123(n):
    """Plateau marginal over the 123-avoiders of order n (1 at n = 0)."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    return Polynomial(P_ONLY, {(k,): plateau_count_123(n, k) for k in range(n, -1, -1)})


def descents_132(n, d):
    """132-avoiders of order n with exactly d descents."""
    if n < 1:
        raise ValueError("order must be positive")
    inner = sum(binomial(n + 1, j) * binomial(j, d + 1 - j) for j in range(n + 2))
    return _as_int(Fraction(binomial(n - 1, d) * inner, n + 1))


def ascent_poly_132(n, convention="n-j+i"):
    """Ascent marginal over the 132-avoiders of order n, as a polynomial in r.

    The double sum is expanded in the Laurent ring so that intermediate
    negative powers of r may cancel.  Two exponent conventions exist for the
    summand's power of r; "n-1-j" leaves uncancelled negative powers and
    raises NonPolynomialResult, while "n-j+i" cancels exactly and reproduces
    the exhaustive enumeration.
    """
    if convention not in ("n-j+i", "n-1-j"):
        raise ValueError(f"unknown convention {convention!r}")
    if n < 1:
        raise ValueError("order must be positive")
    r = Polynomial.variable("r", R_ONLY)
    one = Polynomial.one(R_ONLY)
    total = Polynomial.zero(R_ONLY)
    for j in range(n + 2):
        for i in range(j + 1):
            c = binomial(n + 1, j) * binomial(j, i) * binomial(3 * n + 1 - j - i, 2 * n + 1)
            if not c:
                continue
            e = n - j + i if convention == "n-j+i" else n - 1 - j
            monomial = Polynomial(R_ONLY, {(e,): c})
            total = total + monomial * (one - 2 * r) ** (j - i)
    result = total.div_exact_const(n + 1)
    if result.has_negative_exponents():
        raise NonPolynomialResult(
            f"ascent expansion (convention {convention!r}) kept negative powers of r"
        )
    return result


def fibonacci(k):
    """k-th Fibonacci number with F0 = 0, F1 = 1."""
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def count_avoid_213_1233(n):
    """Stirling permutations of order n avoiding both 213 and 1233: F(2n)."""
    if n < 1:
        raise ValueError("order must be positive")
    return fibonacci(2 * n)


# formula id -> (function of n and its parameters, summary)
FORMULAS = {
    "count-213": (count_avoid_213, "number of 213-avoiders of order n"),
    "count-123": (count_avoid_123, "number of 123-avoiders of order n"),
    "count-132": (count_avoid_132, "number of 132-avoiders of order n"),
    "stats-213": (count_213_by_stats, "213-avoiders with m ascents, d descents, k plateaus"),
    "plateaus-213": (plateau_poly_213, "plateau marginal over 213-avoiders"),
    "plateaus-123": (plateau_poly_123, "plateau marginal over 123-avoiders"),
    "descents-132": (descents_132, "132-avoiders with d descents"),
    "ascents-132": (ascent_poly_132, "ascent marginal over 132-avoiders"),
    "fibonacci-213-1233": (count_avoid_213_1233, "avoiders of 213 and 1233: F(2n)"),
}
