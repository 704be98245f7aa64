from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stirperm.generation import (
    distribution,
    double_factorial_odd,
    generate_all,
    generate_avoiders,
    joint_plat_122,
    occurrence_split,
    second_order_eulerian,
)
from stirperm.polynomials import Polynomial
from stirperm.words import (
    avoids,
    contains,
    count_adjacent_122,
    count_occurrences,
    is_stirling,
    parse_word,
    split_gaps,
    stats,
)

PQR = ("p", "q", "r")
PZ = ("p", "z")
P213, P123, P132 = (2, 1, 3), (1, 2, 3), (1, 3, 2)


def test_counts_match_double_factorial():
    for n in range(7):
        words = list(generate_all(n))
        assert len(words) == double_factorial_odd(n)
        assert len(set(words)) == len(words)


def test_generated_words_are_stirling():
    for n in range(6):
        assert all(is_stirling(w) for w in generate_all(n))


def test_canonical_order():
    assert list(generate_all(0)) == [()]
    assert list(generate_all(1)) == [(1, 1)]
    assert list(generate_all(2)) == [(1, 1, 2, 2), (1, 2, 2, 1), (2, 2, 1, 1)]
    first_three = []
    for w in generate_all(3):
        first_three.append(w)
        if len(first_three) == 3:
            break
    assert first_three == [(1, 1, 2, 2, 3, 3), (1, 1, 2, 3, 3, 2), (1, 1, 3, 3, 2, 2)]


def test_avoider_counts():
    assert len(list(generate_avoiders(3, (P213,)))) == 12
    assert len(list(generate_avoiders(3, (P123,)))) == 10
    assert set(generate_avoiders(2, (P213, (1, 1, 2, 2)))) == {
        (1, 2, 2, 1),
        (2, 2, 1, 1),
    }


def test_distribution_examples():
    p, q, r = Polynomial.gens(PQR)
    want = p * p * r + p * q * r + p * p * q
    assert distribution(2, (P213,)) == want
    assert distribution(2) == want
    assert distribution(1) == p
    assert distribution(0) == Polynomial.one(PQR)


def test_distribution_degree_and_mass():
    for n in range(1, 6):
        poly = distribution(n)
        assert poly.total_degrees() == {2 * n - 1}
        assert poly.evaluate({"p": 1, "q": 1, "r": 1}) == double_factorial_odd(n)


def test_second_order_eulerian():
    assert second_order_eulerian(1) == [1]
    assert second_order_eulerian(2) == [1, 2]
    assert second_order_eulerian(3) == [1, 8, 6]
    assert sum(second_order_eulerian(5)) == double_factorial_odd(5)
    with pytest.raises(ValueError):
        second_order_eulerian(0)


def test_joint_plat_122_small():
    p, z = Polynomial.gens(PZ)
    assert joint_plat_122(0) == Polynomial.one(PZ)
    assert joint_plat_122(1) == p
    assert joint_plat_122(2) == p * (p * z * z + z + p)


def test_joint_plat_122_order_three():
    p, z = Polynomial.gens(PZ)
    inner = (
        p * p * z**6
        + 2 * p * z**3
        + p * p * z**4
        + p * z**4
        + z * z
        + p * z * z
        + 2 * p * p * z * z
        + 2 * p * z
        + p * p
    )
    assert joint_plat_122(3) == p * inner


def test_negative_order_rejected():
    with pytest.raises(ValueError):
        list(generate_all(-1))


PATTERNS = [(p,) for p in permutations((1, 2, 3))] + [
    (parse_word(p),)
    for p in ("1", "11", "111", "12", "21", "1122", "1212", "1221", "1233", "2133", "3312", "1234")
] + [(P213, (1, 2, 3, 3)), (P123, P132)]


def test_avoiders_are_the_naive_filter_in_the_same_order():
    for n in range(7):
        words = list(generate_all(n))
        for patterns in PATTERNS:
            naive = [w for w in words if avoids(w, patterns)]
            assert list(generate_avoiders(n, patterns)) == naive, (n, patterns)


def test_carried_stats_equal_the_whole_word_tallies():
    for n in range(8):
        for patterns in [()] + PATTERNS:
            nodes = list(generate_avoiders(n, patterns, with_stats=True))
            assert [node[0] for node in nodes] == list(generate_avoiders(n, patterns))
            for word, des, asc, plat, _ in nodes:
                assert (des, asc, plat) == stats(word)[:3], (word, patterns)


def test_carried_adjacent_122_equals_the_whole_word_count():
    for n in range(8):
        for patterns in ((), (P213,)):
            for word, _, _, _, adj in generate_avoiders(n, patterns, with_stats=True):
                assert adj == count_adjacent_122(word), word


def test_walk_readers_match_whole_word_tallies():
    for n in range(1, 6):
        for patterns in ((), (P213,), (P132,)):
            words = list(generate_avoiders(n, patterns))
            want = Polynomial(PQR, Counter((s.plat, s.des, s.asc) for s in map(stats, words)))
            assert distribution(n, patterns) == want
            joint = Counter((stats(w).plat, count_adjacent_122(w)) for w in words)
            assert joint_plat_122(n, patterns) == Polynomial(PZ, joint)
        assert second_order_eulerian(n) == [
            sum(1 for w in generate_all(n) if stats(w).des == k) for k in range(n)
        ]


def test_avoider_counts_at_order_8_match_the_closed_forms():
    counts = {p: sum(1 for _ in generate_avoiders(8, (p,))) for p in (P213, P123, P132)}
    assert counts == {P213: 43263, P123: 11181, P132: 11181}


@st.composite
def insertions(draw):
    """A random Stirling word of order 8..20, a pattern and a gap for n+1, n+1."""
    word = ()
    for letter in range(1, draw(st.integers(8, 20)) + 1):
        pos = draw(st.integers(0, len(word)))
        word = word[:pos] + (letter, letter) + word[pos:]
    (pattern,) = draw(st.sampled_from([ps for ps in PATTERNS if len(ps) == 1]))
    return word, pattern, draw(st.integers(0, len(word)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(insertions())
def test_split_test_detects_exactly_the_new_occurrences(case):
    prev, pattern, pos = case
    n = len(prev) // 2 + 1
    child = prev[:pos] + (n, n) + prev[pos:]
    split = occurrence_split(pattern)
    new = split is not None and contains(prev, split[0], (split[1], pos))
    assert new == (count_occurrences(child, pattern) > count_occurrences(prev, pattern))
    if split is not None:
        rest, cut = split
        gaps = split_gaps(prev, rest, cut)
        assert {at for at in range(len(prev) + 1) if gaps >> at & 1} == {
            at for at in range(len(prev) + 1) if contains(prev, rest, (cut, at))
        }
        assert gaps >> (len(prev) + 1) == 0
