from itertools import permutations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stirperm import words
from stirperm.generation import double_factorial_odd, generate_all
from stirperm.words import (
    MAX_PATTERN_LETTERS,
    contains,
    contains_123,
    contains_132,
    count_adjacent_122,
    first_occurrences,
    format_word,
    is_stirling,
    parse_word,
    split_gaps,
    stats,
    validate_pattern,
)
from tests.occurrences import PATTERNS, count, split_mask, split_masks


def multiset_words(n):
    """All distinct words over {1,1,...,n,n}, for the filter oracle."""
    letters = [v for v in range(1, n + 1) for _ in (0, 1)]

    def rec(remaining):
        if not remaining:
            yield ()
            return
        used = set()
        for i, x in enumerate(remaining):
            if x in used:
                continue
            used.add(x)
            rest = remaining[:i] + remaining[i + 1 :]
            for tail in rec(rest):
                yield (x,) + tail

    return rec(tuple(letters))


def test_is_stirling_examples():
    assert is_stirling(())
    assert is_stirling((1, 1))
    assert is_stirling((1, 2, 2, 1))
    assert not is_stirling((1, 2, 1, 2))
    assert is_stirling((1, 2, 2, 1, 3, 3))
    assert not is_stirling((1, 2, 2))  # odd length
    assert not is_stirling((1, 1, 3, 3))  # not the full multiset
    assert not is_stirling((2, 1, 1, 2))  # 1 < 2 between the 2s


@pytest.mark.parametrize("n", range(0, 6))
def test_is_stirling_accepts_exactly_double_factorial(n):
    accepted = [w for w in multiset_words(n) if is_stirling(w)]
    assert len(accepted) == double_factorial_odd(n)
    assert sorted(accepted) == sorted(generate_all(n))


def test_stats_examples():
    assert stats((1, 1, 2, 2))[:3] == (0, 1, 2)
    assert stats((1, 2, 2, 1))[:3] == (1, 1, 1)
    assert stats((2, 2, 1, 1))[:3] == (1, 0, 2)
    assert stats(()) == (0, 0, 0)


def test_stat_trichotomy_and_augmented():
    for n in range(1, 6):
        for w in generate_all(n):
            s = stats(w)
            assert s.des + s.asc + s.plat == 2 * n - 1
            assert s.ades == s.des + 1 and s.aasc == s.asc + 1


def test_reversal_preserves_and_swaps():
    for n in range(1, 6):
        for w in generate_all(n):
            r = w[::-1]
            assert is_stirling(r)
            s, sr = stats(w), stats(r)
            assert (sr.des, sr.asc, sr.plat) == (s.asc, s.des, s.plat)


def test_contains_examples():
    assert not contains((1, 2, 2, 1), (1, 3, 2))
    assert contains((1, 1, 2, 2), (1, 1, 2, 2))
    assert not contains((1, 2, 2, 1), (1, 1, 2, 2))
    assert not contains((2, 2, 1, 1), (1, 1, 2, 2))
    assert contains((1, 2, 2, 1), (1, 2, 2))
    assert contains((2, 1, 3, 3, 1, 2), (2, 1, 3))


def test_contains_123_scan_agrees_with_contains():
    for n in range(8):
        for perm in permutations(range(1, n + 1)):
            assert contains_123(perm) == contains(perm, (1, 2, 3)), perm
    # repeated letters: equal letters never make an increase
    for n in range(5):
        for word in generate_all(n):
            assert contains_123(word) == contains(word, (1, 2, 3)), word


def test_contains_132_scan_agrees_with_contains():
    for n in range(8):
        for perm in permutations(range(1, n + 1)):
            assert contains_132(perm) == contains(perm, (1, 3, 2)), perm
    # repeated letters: equal letters never stand for distinct values
    for n in range(5):
        for word in generate_all(n):
            assert contains_132(word) == contains(word, (1, 3, 2)), word


def test_contains_a_pattern_at_the_letter_cap():
    # one recursion per pattern letter stays inside the default limit
    word = tuple(k for k in range(1, MAX_PATTERN_LETTERS // 2 + 1) for _ in "ab")
    assert contains(word, word)
    assert not contains(word[:-1], word)


def test_split_gaps_are_the_gaps_of_the_split_occurrences():
    # occurrences of 21 in 2112: positions (0, 1) and (0, 2)
    word, pattern = (2, 1, 1, 2), (2, 1)

    def gaps(cut):
        mask = split_gaps(word, pattern, cut)
        return {at for at in range(len(word) + 1) if mask >> at & 1}

    assert gaps(0) == {0}
    assert gaps(1) == {1, 2}
    assert gaps(2) == {2, 3, 4}
    assert split_gaps(word, (), 0) == 0b11111
    assert split_gaps(word, (1, 2, 3), 1) == 0
    assert all(split_gaps(word, pattern, cut) == split_mask(word, pattern, cut) for cut in range(3))


SHORT_RESTS = ((1,), (1, 2), (2, 1), (1, 1))


def assert_short_rests_match_the_brute_masks(word):
    for rest in SHORT_RESTS:
        got = [split_gaps(word, rest, cut) for cut in range(len(rest) + 1)]
        assert got == split_masks(word, rest), (word, rest)


def test_short_rest_scan_matches_the_brute_reference_on_stirling_words():
    for n in range(7):
        for word in generate_all(n):
            assert_short_rests_match_the_brute_masks(word)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.lists(st.integers(1, 5), max_size=10).map(tuple))
def test_short_rest_scan_matches_the_brute_reference_on_words_with_repeats(word):
    assert_short_rests_match_the_brute_masks(word)


def test_a_pattern_with_more_values_than_the_word_is_refused_at_once():
    word = tuple(k for k in range(1, 17) for _ in "ab")
    start = time.perf_counter()
    assert not contains(word, tuple(range(1, 18)))
    assert split_gaps(word, tuple(range(1, 18)), 17) == 0
    assert time.perf_counter() - start < 1


FIT_CALL_BOUND = 250_000  # all cuts of m = 16 and 18 make 197,489; about 1 s of CPU


def test_long_rest_masks_of_the_doubled_chain_are_found_in_under_a_second(monkeypatch):
    # in 1,1,2,2,...,m,m each value of 1..m has two copies, so the occurrences
    # are the 2^m choices of copies: cut 0 holds gaps 0..1, cut c < m gaps
    # 2c-1..2c+1 and cut m gaps 2m-1..2m.  The work is counted in calls of
    # the containment search, not timed, and a search that would take
    # exponentially many stops at the bound.
    calls, fit = [0], words._fit

    def counted(*args):
        calls[0] += 1
        if calls[0] > FIT_CALL_BOUND:
            raise AssertionError(f"more than {FIT_CALL_BOUND} calls of _fit")
        return fit(*args)

    monkeypatch.setattr(words, "_fit", counted)
    for m in (16, 18):
        word = tuple(k for k in range(1, m + 1) for _ in "ab")
        rest = tuple(range(1, m + 1))
        for cut in range(m + 1):
            low, high = (0, 1) if cut == 0 else (2 * m - 1, 2 * m) if cut == m else (
                2 * cut - 1, 2 * cut + 1)
            assert split_gaps(word, rest, cut) == (1 << high + 1) - (1 << low), (m, cut)


LONG_RESTS = tuple(map(parse_word, ("123", "321", "132", "112", "121", "211",
                                    "1122", "1212", "1221")))


def assert_long_rests_match_the_brute_masks(word, rests=LONG_RESTS):
    for rest in rests:
        got = [split_gaps(word, rest, cut) for cut in range(len(rest) + 1)]
        assert got == split_masks(word, rest), (word, rest)


def test_long_rest_search_matches_the_brute_reference_on_stirling_words():
    for n in range(5):
        for word in generate_all(n):
            assert_long_rests_match_the_brute_masks(word)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 4), max_size=9).map(tuple), st.sampled_from(LONG_RESTS))
def test_long_rest_search_matches_the_brute_reference_on_words_with_repeats(word, rest):
    assert_long_rests_match_the_brute_masks(word, (rest,))


def test_count_occurrences_examples():
    # the brute reference itself
    assert count((1, 1, 2, 2), (1, 2, 2)) == 2
    assert count((1, 2, 2, 1), (1, 2, 2)) == 1
    assert count((2, 2, 1, 1), (1, 2, 2)) == 0
    assert count((2, 1, 1, 2), (2, 1)) == 2
    assert count((1, 2), ()) == 1


def test_contains_iff_positive_count():
    for n in range(5):
        for w in generate_all(n):
            for patterns in PATTERNS:
                for pat in patterns:
                    assert contains(w, pat) == (count(w, pat) > 0), (w, pat)


def test_count_adjacent_122():
    assert count_adjacent_122((1, 1, 2, 2)) == 2
    assert count_adjacent_122((1, 2, 2, 1)) == 1
    assert count_adjacent_122((2, 2, 1, 1)) == 0
    # the split pair of 2s is not adjacent, so only the 3-plateau counts
    assert count_adjacent_122((1, 2, 3, 3, 2, 1)) == 2
    assert count((1, 2, 3, 3, 2, 1), (1, 2, 2)) == 3


def test_first_occurrences():
    assert first_occurrences((1, 2, 2, 1)) == (1, 2)
    assert first_occurrences((2, 2, 1, 1)) == (2, 1)
    assert first_occurrences((1, 2, 2, 1, 3, 3)) == (1, 2, 3)


def test_parse_and_format():
    assert parse_word("1221") == (1, 2, 2, 1)
    assert parse_word("1,2,2,1") == (1, 2, 2, 1)
    assert parse_word("") == ()
    assert format_word((1, 2, 2, 1)) == "1221"
    big = tuple([10, 11, 11, 10])
    assert parse_word(format_word(big)) == big
    with pytest.raises(ValueError, match="^bad word '12a': digits 1-9 or comma form required$"):
        parse_word("12a")
    with pytest.raises(ValueError, match="^bad word '102': digits 1-9 or comma form required$"):
        parse_word("102")


ROUND_TRIP = settings(derandomize=True, max_examples=100, deadline=None)


@ROUND_TRIP
@given(st.lists(st.integers(1, 9), max_size=8).map(tuple))
def test_digit_runs_round_trip(word):
    text = format_word(word)
    assert text == "".join(map(str, word))
    assert parse_word(text) == word
    assert format_word(parse_word(text)) == text


@st.composite
def stirling_words(draw, lo, hi):
    """A Stirling permutation of order lo..hi grown by random k, k insertions."""
    word = ()
    for k in range(1, draw(st.integers(lo, hi)) + 1):
        pos = draw(st.integers(0, len(word)))
        word = word[:pos] + (k, k) + word[pos:]
    return word


@ROUND_TRIP
@given(stirling_words(20, 60))
def test_comma_form_round_trips(word):
    text = format_word(word)
    assert text == ",".join(map(str, word))
    assert parse_word(text) == word
    assert format_word(parse_word(text)) == text


def test_validate_pattern():
    assert validate_pattern((1, 2, 2)) == (1, 2, 2)
    with pytest.raises(ValueError, match=r"^pattern 13 values must form a range 1\.\.m$"):
        validate_pattern((1, 3))
    with pytest.raises(ValueError, match="^empty pattern$"):
        validate_pattern(())
    assert len(validate_pattern(range(1, 501))) == 500
    with pytest.raises(ValueError, match="^pattern of 501 letters; at most 500 are supported$"):
        validate_pattern(range(1, 502))
