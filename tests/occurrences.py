"""Brute-force pattern occurrences, the tests' reference for words.contains and split_gaps.

It shares no code with stirperm.words, neither the backtracking search
nor the one-scan answer for rests of one or two letters: it tries every
tuple of positions of the word, in itertools.combinations order.
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


def _pair_signs(pattern):
    return [(i, j, _sign(pattern[i], pattern[j])) for i, j in combinations(range(len(pattern)), 2)]


def realizes(word, positions, pattern):
    """True iff every pair of the letters at positions compares as the pattern's pair does."""
    return all(_sign(word[positions[i]], word[positions[j]]) == s
               for i, j, s in _pair_signs(pattern))


def occurrences(word, pattern):
    """Every tuple of positions realizing the pattern, in lexicographic order."""
    signs = _pair_signs(pattern)
    return [o for o in combinations(range(len(word)), len(pattern))
            if all(_sign(word[o[i]], word[o[j]]) == s for i, j, s in signs)]


def count(word, pattern):
    return len(occurrences(word, pattern))


def split_masks(word, pattern):
    """split_mask(word, pattern, cut) for every cut 0 .. len(pattern), from one search."""
    masks = [0] * (len(pattern) + 1)
    for o in occurrences(word, pattern):
        bounds = (-1,) + o + (len(word),)
        for cut in range(len(masks)):
            masks[cut] |= (1 << (bounds[cut + 1] + 1)) - (1 << (bounds[cut] + 1))
    return masks


def split_mask(word, pattern, cut):
    """The gaps o[cut-1] + 1 .. o[cut] of every occurrence o, as a bitmask.

    The gaps start at 0 when cut is 0 and end at len(word) when cut is
    len(pattern).
    """
    return split_masks(word, pattern)[cut]
