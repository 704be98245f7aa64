import time
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stirperm.generation import (
    ASCENT,
    DESCENT,
    PLATEAU,
    ROOT,
    STEPS,
    _child,
    _leaves,
    distribution,
    double_factorial_odd,
    generate_all,
    generate_avoiders,
    joint_plat_122,
    occurrence_split,
    second_order_eulerian,
)
from stirperm.polynomials import Polynomial
from stirperm.words import avoids, count_adjacent_122, is_stirling, split_gaps, stats
from tests.occurrences import PATTERNS, realizes, split_mask

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
        assert poly.specialize({"p": 1, "q": 1, "r": 1}).constant_term() == double_factorial_odd(n)


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


def test_the_empty_pattern_leaves_no_avoider():
    # every word, the empty word too, contains the empty pattern
    assert list(generate_avoiders(3, [()])) == list(generate_avoiders(0, [()])) == []


def test_avoiders_are_the_naive_filter_in_the_same_order():
    for n in range(7):
        words = list(generate_all(n))
        for patterns in PATTERNS:
            naive = [w for w in words if avoids(w, patterns)]
            assert list(generate_avoiders(n, patterns)) == naive, (n, patterns)


def test_carried_stats_equal_the_whole_word_tallies():
    for n in range(8):
        for patterns in [()] + PATTERNS:
            # the step rule expands each leaf into its node, the root's included
            nodes = [_child(*leaf) for leaf in generate_avoiders(n, patterns, form="leaves")]
            assert [node[0] for node in nodes] == list(generate_avoiders(n, patterns))
            for word, des, asc, plat, _ in nodes:
                assert (des, asc, plat) == stats(word)[:3], (word, patterns)


def test_each_leaf_is_its_word_as_parent_plus_gap():
    # a leaf (parent, pos, kind) stands for the parent's word with n,n at pos,
    # and the kind's step added to the parent's stats gives the word's stats
    for n in range(8):
        for patterns in [()] + PATTERNS:
            leaves = list(generate_avoiders(n, patterns, form="leaves"))
            words = list(generate_avoiders(n, patterns))
            assert len(leaves) == len(words), (n, patterns)
            parents = {id(parent): parent for parent, _, _ in leaves}.values()
            for prev, des, asc, plat, adj in parents:
                assert (des, asc, plat) == stats(prev)[:3] and adj == count_adjacent_122(prev)
                assert len(prev) == max(2 * n - 2, 0)
            for ((prev, des, asc, plat, _), pos, kind), word in zip(leaves, words):
                assert (kind == ROOT) == (n == 0)
                assert prev[:pos] + (n, n)[:2 * (kind != ROOT)] + prev[pos:] == word
                dd, da, dp = STEPS[kind]
                assert (des + dd, asc + da, plat + dp) == stats(word)[:3], (word, kind)
    with pytest.raises(ValueError, match="unknown form"):
        next(generate_avoiders(2, form="tuples"))


def test_carried_adjacent_122_equals_the_whole_word_count():
    for n in range(8):
        for patterns in ((), (P213,)):
            for leaf in generate_avoiders(n, patterns, form="leaves"):
                word, _, _, _, adj = _child(*leaf)
                assert adj == count_adjacent_122(word), word


def test_walk_readers_match_whole_word_tallies():
    for n in range(1, 6):
        for patterns in ((), (P213,), (P132,)):
            words = list(generate_avoiders(n, patterns))
            want = Polynomial(PQR, Counter((s.plat, s.des, s.asc) for s in map(stats, words)))
            assert distribution(n, patterns) == want
        joint = Counter((stats(w).plat, count_adjacent_122(w))
                        for w in generate_avoiders(n, (P213,)))
        assert joint_plat_122(n) == Polynomial(PZ, joint)
        assert second_order_eulerian(n) == [
            sum(1 for w in generate_all(n) if stats(w).des == k) for k in range(n)
        ]


def test_avoider_counts_at_order_8_match_the_closed_forms():
    counts = {p: sum(1 for _ in generate_avoiders(8, (p,))) for p in (P213, P123, P132)}
    assert counts == {P213: 43263, P123: 11181, P132: 11181}


SINGLE_PATTERNS = [ps for ps in PATTERNS if len(ps) == 1]


@st.composite
def stirling_words(draw, low, high):
    """A random Stirling word of order low..high, grown by random insertions."""
    word = ()
    for letter in range(1, draw(st.integers(low, high)) + 1):
        pos = draw(st.integers(0, len(word)))
        word = word[:pos] + (letter, letter) + word[pos:]
    return word


@st.composite
def insertions(draw):
    """A random Stirling word of order 8..20, a pattern and a gap for n+1, n+1."""
    word = draw(stirling_words(8, 20))
    (pattern,) = draw(st.sampled_from(SINGLE_PATTERNS))
    return word, pattern, draw(st.integers(0, len(word)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(insertions())
def test_split_test_detects_exactly_the_new_occurrences(case):
    prev, pattern, pos = case
    n = len(prev) // 2 + 1
    child = prev[:pos] + (n, n) + prev[pos:]
    # a new occurrence is one that uses a letter of the inserted pair
    new = any(
        (pos in o or pos + 1 in o) and realizes(child, o, pattern)
        for o in combinations(range(len(child)), len(pattern))
    )
    split = occurrence_split(pattern)
    if split is None:
        assert not new
        return
    rest, cut = split
    gaps = split_gaps(prev, rest, cut)
    assert gaps == split_mask(prev, rest, cut)
    assert new == bool(gaps >> pos & 1)


@pytest.mark.parametrize("patterns", SINGLE_PATTERNS, ids=lambda ps: "".join(map(str, ps[0])))
@settings(derandomize=True, max_examples=25, deadline=None)
@given(word=stirling_words(16, 40))
def test_leaves_keep_the_gaps_no_split_marks_in_masks_wider_than_an_int_digit(patterns, word):
    # orders 16..40 have 33..81 gaps: masks of more than one 30-bit digit
    splits = [split for split in map(occurrence_split, patterns) if split is not None]
    masks = [split_gaps(word, rest, cut) for rest, cut in splits]
    want = []
    for pos in range(len(word), -1, -1):  # right to left, one gap at a time
        if not any(mask >> pos & 1 for mask in masks):
            left = word[pos - 1] if pos > 0 else 0
            right = word[pos] if pos < len(word) else 0
            want.append((pos, ASCENT if left < right else DESCENT if left > right else PLATEAU))
    node = (word, 0, 0, 0, 0)
    leaves = _leaves(node, splits)
    assert all(leaf[0] is node for leaf in leaves)
    assert [leaf[1:] for leaf in leaves] == want


def test_a_deep_walk_with_one_avoider_per_order_is_light():
    # the 12-avoider of order n is n,n,...,1,1: one child per node, kept at
    # gap 0 only.  Reading the kept gaps off the mask's set bits and dropping
    # each node once its children are listed, the walk peaks near 0.1 MiB and
    # takes near 0.05 s; testing every gap and keeping every ancestor's word
    # alive, it peaked near 18 MiB and took near 2 s.
    tracemalloc.start()
    try:
        assert next(generate_avoiders(1500, ((1, 2),)))[:2] == (1500, 1500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    start = time.process_time()
    assert len(list(generate_avoiders(3000, ((1, 2),)))) == 1
    assert time.process_time() - start < 0.3
