"""Words over positive integers: Stirling permutations, statistics, patterns.

A word is a plain tuple of ints.  A Stirling permutation of order n is a
word over the multiset {1,1,2,2,...,n,n} in which every letter lying between
the two copies of a value is strictly larger than that value.  The empty
word is the (unique) Stirling permutation of order 0.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import BadPattern

P213, P123, P132 = (2, 1, 3), (1, 2, 3), (1, 3, 2)  # the three patterns of length 3 studied


class StatVector(NamedTuple):
    """Adjacent-pair statistics of a Stirling permutation.

    des/asc/plat count strict descents, strict ascents and equalities among
    the 2n-1 adjacent pairs; they always sum to 2n-1.  The augmented forms
    ades/aasc count one extra step each, as if the word were padded with a
    0 at both ends.
    """

    des: int
    asc: int
    plat: int

    @property
    def ades(self):
        return self.des + 1

    @property
    def aasc(self):
        return self.asc + 1


def parse_word(text):
    """Parse a word from a digit run ("1221") or comma form ("1,2,2,1")."""
    text = text.strip()
    if not text:
        return ()
    if "," in text:
        try:
            letters = tuple(int(part) for part in text.split(","))
        except ValueError as exc:
            raise BadPattern(f"bad word {text!r}") from exc
    else:
        if not text.isdigit() or "0" in text:
            raise BadPattern(f"bad word {text!r}: digits 1-9 or comma form required")
        letters = tuple(int(ch) for ch in text)
    if any(x < 1 for x in letters):
        raise BadPattern(f"bad word {text!r}: letters must be positive")
    return letters


_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


def format_word(word):
    """Inverse of parse_word: digit run when all letters fit one digit.

    The digit run maps each letter byte to its ASCII digit in one
    bytes.translate, and the comma form joins map(str, word), so both
    branches run at C speed.
    """
    if max(word, default=0) > 9:
        return ",".join(map(str, word))
    return bytes(word).translate(_DIGITS).decode("ascii")


def is_stirling(word):
    """True iff the word is a Stirling permutation of some order n >= 0.

    Scans with a stack: values must open in pairs that close in nesting
    order, and a value may only open on top of a strictly smaller one.
    """
    n2 = len(word)
    if n2 % 2:
        return False
    n = n2 // 2
    if sorted(word) != [v for v in range(1, n + 1) for _ in (0, 1)]:
        return False
    stack = []
    seen = set()
    for x in word:
        if stack and stack[-1] == x:
            stack.pop()
        elif x in seen:
            return False
        elif stack and x < stack[-1]:
            return False
        else:
            stack.append(x)
            seen.add(x)
    return not stack


def stats(word):
    """StatVector of adjacent-pair counts.  Assumes a valid word."""
    des = asc = plat = 0
    for a, b in zip(word, word[1:]):
        if a > b:
            des += 1
        elif a < b:
            asc += 1
        else:
            plat += 1
    return StatVector(des, asc, plat)


def validate_pattern(word):
    """Check that the value set is exactly {1..m}; returns the tuple."""
    letters = tuple(word)
    if not letters:
        raise BadPattern("empty pattern")
    values = set(letters)
    if values != set(range(1, max(values) + 1)):
        raise BadPattern(
            f"pattern {format_word(letters)} values must form a range 1..m"
        )
    return letters


def _fits(assigned, value, letter):
    """True iff letter may stand for value beside the letters already assigned.

    Distinct pattern values demand the same strict order between their
    word letters; assigned maps pattern values to committed word letters.
    """
    for u, w in assigned.items():
        if u < value and w >= letter:
            return False
        if u > value and w <= letter:
            return False
    return True


def _occurrences(word, pattern, limit, split=None):
    """Count tuples of positions realizing the pattern, up to limit.

    Equal pattern letters demand equal word letters; distinct pattern
    letters demand the same strict order between the chosen word letters.
    With split = (cut, at), only tuples whose first cut positions lie
    before position at and whose others lie at or after it are counted.
    """
    k = len(pattern)
    n = len(word)
    if k == 0:
        return 1
    if k > n:
        return 0
    cut, at = split or (0, 0)
    found = 0
    assigned = {}  # pattern value -> word letter committed to it

    def rec(pi, start):
        nonlocal found
        t = pattern[pi]
        bound = assigned.get(t)
        last = pi == k - 1
        stop = n - (k - pi) + 1
        if pi < cut:
            stop = min(stop, at - (cut - pi) + 1)
        elif start < at:
            start = at
        for wj in range(start, stop):
            w = word[wj]
            if bound is not None:
                if w != bound:
                    continue
                if last:
                    found += 1
                    if found >= limit:
                        return True
                elif rec(pi + 1, wj + 1):
                    return True
            else:
                if not _fits(assigned, t, w):
                    continue
                assigned[t] = w
                if last:
                    found += 1
                    if found >= limit:
                        del assigned[t]
                        return True
                elif rec(pi + 1, wj + 1):
                    del assigned[t]
                    return True
                del assigned[t]
        return False

    rec(0, 0)
    return found


def contains(word, pattern, split=None):
    """True iff some subsequence of the word realizes the pattern.

    An optional split = (cut, at) keeps only the occurrences whose first
    cut letters lie before position at and whose others lie at or after it.
    """
    return _occurrences(word, pattern, 1, split) > 0


def split_gaps(word, pattern, cut):
    """Bitmask of the gaps at which the word holds the pattern split at cut.

    Bit at, for 0 <= at <= len(word), is set iff contains(word, pattern,
    (cut, at)): iff some occurrence o has o[cut-1] < at <= o[cut], the
    bound being open at the left when cut is 0 and at the right when cut
    is len(pattern).  For one placement of the first cut letters these
    gaps form an interval that ends at the largest position o[cut] can
    take, so one search finds all of them: it tries o[cut] from the right
    and stops at the first gap the mask already holds, and it drops every
    placement whose interval the mask already covers.
    """
    k, n = len(pattern), len(word)
    if k == 0:
        return (1 << (n + 1)) - 1
    if k > n:
        return 0
    top = n if cut == k else n - (k - cut)  # the right end of any interval
    bad = 0
    covered = top  # (covered, top] is in the mask: nothing above covered adds a gap
    assigned = {}  # pattern value -> word letter committed to it

    def mark(last, end):
        nonlocal bad, covered
        bad |= (1 << (end + 1)) - (1 << (last + 1))
        covered = (~bad & ((1 << (top + 1)) - 1)).bit_length() - 1

    def suffix(pi, start):
        """True iff pattern[pi:] can take positions from start on."""
        if pi == k:
            return True
        t = pattern[pi]
        bound = assigned.get(t)
        for wj in range(start, n - (k - pi) + 1):
            w = word[wj]
            if bound is not None:
                if w == bound and suffix(pi + 1, wj + 1):
                    return True
            elif not assigned or _fits(assigned, t, w):
                assigned[t] = w
                found = suffix(pi + 1, wj + 1)
                del assigned[t]
                if found:
                    return True
        return False

    def prefix(pi, start, last):
        """Place pattern[pi:cut] from start on, then mark each interval."""
        if pi == cut:
            if cut == k:
                mark(last, n)
                return
            free = ~bad & -(1 << (last + 1))
            first = (free & -free).bit_length() - 1  # the lowest gap above last not yet marked
            t = pattern[cut]
            bound = assigned.get(t)
            for wj in range(top, first - 1, -1):
                w = word[wj]
                if bound is not None:
                    found = w == bound and suffix(cut + 1, wj + 1)
                elif not assigned or _fits(assigned, t, w):
                    assigned[t] = w
                    found = suffix(cut + 1, wj + 1)
                    del assigned[t]
                else:
                    found = False
                if found:
                    mark(last, wj)
                    return
            return
        t = pattern[pi]
        bound = assigned.get(t)
        for wj in range(start, n - (k - pi) + 1):
            if wj >= covered:  # then o[cut-1] >= covered too
                return
            w = word[wj]
            if bound is not None:
                if w == bound:
                    prefix(pi + 1, wj + 1, wj)
            elif not assigned or _fits(assigned, t, w):
                assigned[t] = w
                prefix(pi + 1, wj + 1, wj)
                del assigned[t]

    prefix(0, 0, -1)
    return bad


def avoids(word, patterns):
    return all(not contains(word, pat) for pat in patterns)


def count_occurrences(word, pattern):
    """Number of position tuples realizing the pattern in the word."""
    return _occurrences(word, pattern, float("inf"))


def count_adjacent_122(word):
    """Occurrences of 122 whose equal letters are adjacent.

    Each plateau bb contributes one occurrence per smaller letter to its
    left.  On Stirling permutations this is the statistic the joint
    plateau/occurrence generating function tracks: a block-decomposition
    crossing sees a plateau, not an arbitrary split pair.
    """
    total = 0
    for i in range(len(word) - 1):
        if word[i] == word[i + 1]:
            total += sum(1 for j in range(i) if word[j] < word[i])
    return total


def first_occurrences(word):
    """Subsequence of first occurrences of each value, in appearance order."""
    seen = set()
    out = []
    for x in word:
        if x not in seen:
            seen.add(x)
            out.append(x)
    return tuple(out)
