from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest

from stirperm import formulas
from stirperm.errors import DivisibilityError
from stirperm.formulas import (
    ascent_poly_132,
    binomial,
    count_213_by_stats,
    count_avoid_123,
    count_avoid_132,
    count_avoid_213,
    count_avoid_213_1233,
    descents_132,
    fibonacci,
    plateau_count_123,
    plateau_count_213,
    plateau_poly_123,
    plateau_poly_213,
)
from stirperm.generation import distribution, generate_avoiders
from stirperm.polynomials import Polynomial
from stirperm.words import stats

P213, P123, P132 = (2, 1, 3), (1, 2, 3), (1, 3, 2)


def test_binomial_convention():
    assert binomial(5, 2) == 10
    assert binomial(5, -1) == 0
    assert binomial(3, 5) == 0
    assert binomial(-1, 0) == 0


def test_count_avoid_213():
    assert count_avoid_213(0) == 1
    assert count_avoid_213(3) == 12
    assert count_avoid_213(4) == 55
    for n in range(6):
        assert count_avoid_213(n) == len(list(generate_avoiders(n, (P213,))))


def test_count_avoid_123():
    assert count_avoid_123(1) == 1
    assert count_avoid_123(2) == 3
    assert count_avoid_123(3) == 10
    for n in range(6):
        brute = len(list(generate_avoiders(n, (P123,))))
        assert count_avoid_123(n) == brute
        assert count_avoid_132(n) == len(list(generate_avoiders(n, (P132,))))


def test_count_213_by_stats_examples():
    assert count_213_by_stats(2, 1, 0, 2) == 1
    assert count_213_by_stats(2, 1, 1, 1) == 1
    assert count_213_by_stats(2, 1, 1, 0) == 0


def test_count_213_by_stats_matches_enumeration():
    for n in range(1, 6):
        dist = distribution(n, (P213,))
        for m in range(2 * n):
            for d in range(2 * n - m):
                k = 2 * n - 1 - m - d
                assert count_213_by_stats(n, m, d, k) == dist.coefficient((k, d, m))
        total = sum(
            count_213_by_stats(n, m, d, 2 * n - 1 - m - d)
            for m in range(2 * n)
            for d in range(2 * n - m)
        )
        assert total == count_avoid_213(n)


def test_count_213_by_stats_role_symmetry():
    # the product of binomials is invariant under permuting (m+1, d+1, k)
    n = 5
    for m in range(2 * n):
        for d in range(2 * n - m):
            k = 2 * n - 1 - m - d
            base = count_213_by_stats(n, m, d, k)
            for a, b, c in permutations((m + 1, d + 1, k)):
                assert count_213_by_stats(n, a - 1, b - 1, c) == base


def test_plateau_polys():
    p = Polynomial.variable("p", ("p",))
    assert plateau_poly_213(1) == p
    assert plateau_poly_213(2) == 2 * p * p + p
    assert plateau_poly_123(1) == p
    assert plateau_poly_123(2) == 2 * p * p + p
    assert plateau_poly_123(0) == Polynomial.one(("p",))
    assert plateau_count_213(3, 3) == 5
    assert plateau_count_123(3, 3) == 5
    for n in range(1, 7):
        marginal213 = (
            distribution(n, (P213,)).specialize({"q": 1, "r": 1}).project(("p",))
        )
        marginal123 = (
            distribution(n, (P123,)).specialize({"q": 1, "r": 1}).project(("p",))
        )
        assert plateau_poly_213(n) == marginal213
        assert plateau_poly_123(n) == marginal123
        assert plateau_poly_213(n).specialize({"p": 1}).constant_term() == count_avoid_213(n)
        assert plateau_poly_123(n).specialize({"p": 1}).constant_term() == count_avoid_123(n)
        for k in range(n + 1):
            assert plateau_count_213(n, k) == marginal213.coefficient((k,))
            assert plateau_count_123(n, k) == marginal123.coefficient((k,))


def test_descents_132():
    assert descents_132(2, 1) == 2
    assert descents_132(2, 0) == 1
    assert descents_132(1, 1) == 0
    for n in range(1, 6):
        counter = Counter(stats(w).des for w in generate_avoiders(n, (P132,)))
        for d in range(2 * n):
            assert descents_132(n, d) == counter.get(d, 0)
        assert sum(descents_132(n, d) for d in range(2 * n)) == count_avoid_123(n)


def test_ascent_poly_132():
    r = Polynomial.variable("r", ("r",))
    assert ascent_poly_132(1) == Polynomial.one(("r",))
    assert ascent_poly_132(2) == 2 * r + 1
    for n in range(1, 6):
        marginal = {}
        for w in generate_avoiders(n, (P132,)):
            key = (stats(w).asc,)
            marginal[key] = marginal.get(key, 0) + 1
        poly = ascent_poly_132(n)
        assert poly == Polynomial(("r",), marginal)
        assert all(c > 0 for c in poly.terms.values())
    for n in range(6, 31):
        poly = ascent_poly_132(n)
        assert all(c > 0 for c in poly.terms.values())
        assert sum(poly.terms.values()) == count_avoid_132(n)


def test_plateau_polys_equal_the_per_k_counts():
    # the polynomials step their binomials by ratios; the counts compute them afresh
    for n in range(151):
        poly = plateau_poly_123(n)
        assert dict(poly.items()) == {
            (k,): c for k in range(n + 1) if (c := plateau_count_123(n, k))
        }
        if n:
            poly = plateau_poly_213(n)
            assert dict(poly.items()) == {(k,): plateau_count_213(n, k) for k in range(1, n + 1)}


def test_plateau_poly_123_rejects_negative_order():
    with pytest.raises(ValueError):
        plateau_poly_123(-3)


def test_divisions_exact_up_to_thirty():
    for n in range(1, 31):
        count_avoid_213(n)
        count_avoid_123(n)
        plateau_poly_213(n)
        plateau_poly_123(n)
        for d in range(0, 2 * n, max(1, n // 2)):
            descents_132(n, d)


def test_integer_sums_equal_their_fraction_sums():
    # the sums as printed, in exact rational arithmetic, then checked integral
    for n in range(1, 61):
        total = sum(Fraction(binomial(n, j) * binomial(n + j - 1, n - j), n + 1 - j)
                    for j in range(n + 1))
        assert total.denominator == 1 and count_avoid_123(n) == total.numerator
    for n in range(1, 31):
        for d in range(2 * n):
            inner = sum(binomial(n + 1, j) * binomial(j, d + 1 - j) for j in range(n + 2))
            value = Fraction(binomial(n - 1, d) * inner, n + 1)
            assert value.denominator == 1 and descents_132(n, d) == value.numerator


@pytest.mark.parametrize("call", [lambda: count_avoid_123(2), lambda: descents_132(2, 1)],
                         ids=["count-123", "descents-132"])
def test_a_sum_that_is_not_an_integer_raises(monkeypatch, call):
    # with every binomial 1 the count-123 sum is 1/3 + 1/2 + 1 and descents 4/3
    monkeypatch.setattr(formulas, "binomial", lambda a, b: 1)
    with pytest.raises(DivisibilityError):
        call()


def test_fibonacci_counts():
    assert fibonacci(0) == 0 and fibonacci(1) == 1 and fibonacci(10) == 55
    assert count_avoid_213_1233(1) == 1
    assert count_avoid_213_1233(2) == 3
    assert count_avoid_213_1233(3) == 8
    for n in range(1, 7):
        brute = len(list(generate_avoiders(n, (P213, (1, 2, 3, 3)))))
        assert count_avoid_213_1233(n) == brute
