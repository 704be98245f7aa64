"""Closed-form counting formulas, evaluated in exact integer arithmetic.

Every division here is exact by theorem (the counts come from Lagrange
inversion); a nonzero remainder is therefore an implementation error and
raises ValueError rather than rounding.
"""

from __future__ import annotations

import math
from collections import namedtuple

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
        raise ValueError(f"{num} not divisible by {den}")
    return q


def count_avoid_213(n):
    """Number of 213-avoiding Stirling permutations of order n."""
    return exact_div(binomial(3 * n, n), 2 * n + 1)


def count_avoid_123(n):
    """Number of 123-avoiding Stirling permutations of order n.

    The 132-avoiders are equinumerous, see count_avoid_132.  It is the sum
    of binom(n, j) binom(n+j-1, n-j) / (n+1-j), and binom(n, j) / (n+1-j) =
    binom(n+1, j) / (n+1), so n+1 divides the sum of binom(n+1, j)
    binom(n+j-1, n-j) exactly.  At n = 0 that sum is 0 (binom(-1, 0) = 0).
    """
    if n == 0:
        return 1
    return exact_div(sum(binomial(n + 1, j) * binomial(n + j - 1, n - j) for j in range(n + 1)),
                     n + 1)


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

    The summands c r^(n-j+i) (1-2r)^(j-i) with one d = j-i have their c
    summed first, then (1-2r)^d is expanded once, on plain ints, and each
    coefficient is divided by n+1 exactly.  c is nonzero exactly where
    i <= j and j+i <= n, so every power lies in 0..n.  The power is
    r^(n-j+i) because the r^(n-1-j) reading leaves negative powers of r.
    """
    if n < 1:
        raise ValueError("order must be positive")
    by_d = [0] * (n + 1)  # by_d[d]: the sum of c over the summands with j - i = d
    for j in range(n + 1):
        for i in range(min(j, n - j) + 1):
            by_d[j - i] += (binomial(n + 1, j) * binomial(j, i)
                            * binomial(3 * n + 1 - j - i, 2 * n + 1))
    coeffs = [0] * (n + 1)
    for d, c in enumerate(by_d):
        for k in range(d + 1):
            coeffs[n - d + k] += c * binomial(d, k) * (-2) ** k
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


# formula id -> (function of n and its parameters, summary, limit).  limit
# is the largest --n without --force: the largest order evaluated and
# printed in under 2 s (in-process, best of 2, Python 3.11.7, 2-vCPU Xeon),
# rounded down to two significant digits.  stats-213 was timed at m = d =
# (2n-1)//3, and descents-132 at the slowest of d = n//2, 2n//3 and n-1.
Formula = namedtuple("Formula", "func summary limit")

FORMULAS = {
    "count-213": Formula(count_avoid_213, "number of 213-avoiders of order n", 170_000),
    "count-123": Formula(count_avoid_123, "number of 123-avoiders of order n", 3500),
    "count-132": Formula(count_avoid_132, "number of 132-avoiders of order n", 3500),
    "stats-213": Formula(count_213_by_stats, "213-avoiders with m ascents, d descents, "
                         "k plateaus", 260_000),
    "plateaus-213": Formula(plateau_poly_213, "plateau marginal over 213-avoiders", 5700),
    "plateaus-123": Formula(plateau_poly_123, "plateau marginal over 123-avoiders", 7900),
    "descents-132": Formula(descents_132, "132-avoiders with d descents", 5000),
    "ascents-132": Formula(ascent_poly_132, "ascent marginal over 132-avoiders", 500),
    "fibonacci-213-1233": Formula(count_avoid_213_1233, "avoiders of 213 and 1233: F(2n)",
                                  230_000),
}
