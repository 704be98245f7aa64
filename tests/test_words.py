import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stirperm.errors import BadPattern
from stirperm.generation import double_factorial_odd, generate_all
from stirperm.words import (
    contains,
    count_adjacent_122,
    count_occurrences,
    first_occurrences,
    format_word,
    is_stirling,
    parse_word,
    split_gaps,
    stats,
    validate_pattern,
)


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


def test_contains_with_a_split():
    # occurrences of 21 in 2112: positions (0, 1) and (0, 2)
    word, pattern = (2, 1, 1, 2), (2, 1)
    assert contains(word, pattern, (2, 2))
    assert not contains(word, pattern, (2, 1))
    assert contains(word, pattern, (1, 1))
    assert not contains(word, pattern, (1, 3))
    assert not contains(word, pattern, (0, 3))
    assert contains(word, (), (0, 4))


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


def test_count_occurrences_examples():
    assert count_occurrences((1, 1, 2, 2), (1, 2, 2)) == 2
    assert count_occurrences((1, 2, 2, 1), (1, 2, 2)) == 1
    assert count_occurrences((2, 2, 1, 1), (1, 2, 2)) == 0


def test_contains_iff_positive_count():
    patterns = [(2, 1, 3), (1, 2, 3), (1, 2, 2), (1, 1, 2, 2)]
    for w in generate_all(4):
        for pat in patterns:
            assert contains(w, pat) == (count_occurrences(w, pat) > 0)


def test_count_adjacent_122():
    assert count_adjacent_122((1, 1, 2, 2)) == 2
    assert count_adjacent_122((1, 2, 2, 1)) == 1
    assert count_adjacent_122((2, 2, 1, 1)) == 0
    # the split pair of 2s is not adjacent, so only the 3-plateau counts
    assert count_adjacent_122((1, 2, 3, 3, 2, 1)) == 2
    assert count_occurrences((1, 2, 3, 3, 2, 1), (1, 2, 2)) == 3


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
    with pytest.raises(BadPattern):
        parse_word("12a")
    with pytest.raises(BadPattern):
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
    with pytest.raises(BadPattern):
        validate_pattern((1, 3))
    with pytest.raises(BadPattern):
        validate_pattern(())
