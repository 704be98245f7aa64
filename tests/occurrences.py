"""Brute-force pattern occurrences, the tests' reference for words.contains and split_gaps.

It shares no code with the search in stirperm.words: it tries every tuple
of positions of the word, in itertools.combinations order.
"""

from itertools import combinations, permutations

from stirperm.words import parse_word

# Pattern sets the generation and containment tests run over
PATTERNS = [(p,) for p in permutations((1, 2, 3))] + [
    (parse_word(p),)
    for p in ("1", "11", "111", "12", "21", "1122", "1212", "1221", "1233", "2133", "3312", "1234")
] + [((2, 1, 3), (1, 2, 3, 3)), ((1, 2, 3), (1, 3, 2))]


def _sign(a, b):
    return (a > b) - (a < b)


def realizes(word, positions, pattern):
    """True iff every pair of the letters at positions compares as the pattern's pair does."""
    letters = [word[i] for i in positions]
    return all(
        _sign(letters[i], letters[j]) == _sign(pattern[i], pattern[j])
        for i, j in combinations(range(len(pattern)), 2)
    )


def occurrences(word, pattern):
    """Every tuple of positions realizing the pattern, in lexicographic order."""
    return [o for o in combinations(range(len(word)), len(pattern)) if realizes(word, o, pattern)]


def count(word, pattern):
    return len(occurrences(word, pattern))


def split_mask(word, pattern, cut):
    """The gaps o[cut-1] + 1 .. o[cut] of every occurrence o, as a bitmask.

    The gaps start at 0 when cut is 0 and end at len(word) when cut is
    len(pattern).
    """
    mask = 0
    for o in occurrences(word, pattern):
        lo = o[cut - 1] + 1 if cut else 0
        hi = o[cut] if cut < len(pattern) else len(word)
        mask |= (1 << (hi + 1)) - (1 << lo)
    return mask
