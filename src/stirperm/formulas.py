"""Closed-form counting formulas, evaluated in exact integer arithmetic.

Every division here is exact by theorem (the counts come from Lagrange
inversion); a nonzero remainder is therefore an implementation error and
raises DivisibilityError rather than rounding.
"""

from __future__ import annotations

import math

from .errors import DivisibilityError
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


def count_avoid_213(n):
    """Number of 213-avoiding Stirling permutations of order n."""
    return exact_div(binomial(3 * n, n), 2 * n + 1)


def count_avoid_123(n):
    """Number of 123-avoiding Stirling permutations of order n.

    The 132-avoiders are equinumerous, see count_avoid_132.  The sum of
    binom(n, j) binom(n+j-1, n-j) / (n+1-j) is taken over the common
    denominator lcm(1..n+1), which then divides the total exactly.
    """
    if n == 0:
        return 1
    den = math.lcm(*range(1, n + 2))
    total = sum(binomial(n, j) * binomial(n + j - 1, n - j) * (den // (n + 1 - j))
                for j in range(n + 1))
    return exact_div(total, den)


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
    """Plateau marginal over the 213-avoiders of order n, as a polynomial in p.

    The coefficients are plateau_count_213(n, k) for k = n down to 1, with
    both binomials stepped down by exact ratios instead of computed afresh:
    binom(n, k-1) = binom(n, k) k / (n-k+1) and
    binom(2n, k-2) = binom(2n, k-1) (k-1) / (2n-k+2).
    """
    if n < 1:
        raise ValueError("order must be positive")
    terms = {}
    a, b = 1, binomial(2 * n, n - 1)  # binom(n, k) and binom(2n, k-1) at k = n
    for k in range(n, 0, -1):
        terms[(k,)] = exact_div(a * b, n)
        a, b = a * k // (n - k + 1), b * (k - 1) // (2 * n - k + 2)
    return Polynomial(P_ONLY, terms)


def plateau_count_123(n, k):
    """123-avoiders of order n with exactly k plateaus."""
    return exact_div(binomial(n + 1, k + 1) * binomial(n + k, 2 * n - k), n + 1)


def plateau_poly_123(n):
    """Plateau marginal over the 123-avoiders of order n (1 at n = 0).

    The coefficients are plateau_count_123(n, k) for k = n down to 0, with
    both binomials stepped down by exact ratios: binom(n+1, k) =
    binom(n+1, k+1) (k+1) / (n+1-k) and, writing N = n+k and K = 2n-k,
    binom(N-1, K+1) = binom(N, K) (N-K) (N-K-1) / (N (K+1)), which reaches
    0 where K passes N and stays there.
    """
    if n < 0:
        raise ValueError("order must be nonnegative")
    terms = {}
    a, b = 1, binomial(2 * n, n)  # binom(n+1, k+1) and binom(n+k, 2n-k) at k = n
    for k in range(n, -1, -1):
        terms[(k,)] = exact_div(a * b, n + 1)
        if k:
            big, small = n + k, 2 * n - k
            a = a * (k + 1) // (n + 1 - k)
            b = b * (big - small) * (big - small - 1) // (big * (small + 1))
    return Polynomial(P_ONLY, terms)


def descents_132(n, d):
    """132-avoiders of order n with exactly d descents."""
    if n < 1:
        raise ValueError("order must be positive")
    inner = sum(binomial(n + 1, j) * binomial(j, d + 1 - j) for j in range(n + 2))
    return exact_div(binomial(n - 1, d) * inner, n + 1)


def ascent_poly_132(n):
    """Ascent marginal over the 132-avoiders of order n, as a polynomial in r.

    Each summand c r^(n-j+i) (1-2r)^(j-i) of the double sum is expanded by
    the binomial theorem on plain ints, and each coefficient of the total
    is divided by n+1 exactly.  c is nonzero only where j+i <= n, so every
    power lies in 0..n.  The power is r^(n-j+i) because the r^(n-1-j)
    reading of the formula leaves negative powers of r.
    """
    if n < 1:
        raise ValueError("order must be positive")
    coeffs = [0] * (n + 1)
    for j in range(n + 2):
        for i in range(j + 1):
            c = binomial(n + 1, j) * binomial(j, i) * binomial(3 * n + 1 - j - i, 2 * n + 1)
            if not c:
                continue
            for k in range(j - i + 1):
                coeffs[n - j + i + k] += c * binomial(j - i, k) * (-2) ** k
    return Polynomial(R_ONLY, {(e,): exact_div(a, n + 1) for e, a in enumerate(coeffs)})


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
