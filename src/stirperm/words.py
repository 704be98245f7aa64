"""Words over positive integers: Stirling permutations, statistics, patterns.

A word is a plain tuple of ints.  A Stirling permutation of order n is a
word over the multiset {1,1,2,2,...,n,n} in which every letter lying between
the two copies of a value is strictly larger than that value.  The empty
word is the (unique) Stirling permutation of order 0.
"""

from __future__ import annotations

from itertools import accumulate
from operator import gt, lt
from typing import NamedTuple


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
            raise ValueError(f"bad word {text!r}") from exc
    else:
        if not text.isdigit() or "0" in text:
            raise ValueError(f"bad word {text!r}: digits 1-9 or comma form required")
        letters = tuple(int(ch) for ch in text)
    if any(x < 1 for x in letters):
        raise ValueError(f"bad word {text!r}: letters must be positive")
    return letters


# letter byte -> its ASCII digit, for the digit form of a word
DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


def format_word(word):
    """Inverse of parse_word: digit run when all letters fit one digit.

    The digit run maps each letter byte to its ASCII digit in one
    bytes.translate, and the comma form joins map(str, word), so both
    branches run at C speed.
    """
    if max(word, default=0) > 9:
        return ",".join(map(str, word))
    return bytes(word).translate(DIGITS).decode("ascii")


def is_stirling(word):
    """True iff the word is a Stirling permutation of some order n >= 0.

    Scans with a stack: values must open in pairs that close in nesting
    order, and a value may only open on top of a strictly smaller one.  The
    stack increases strictly, so a second copy that is not on top is below a
    larger value and refused by that same test.
    """
    if sorted(word) != [v for v in range(1, len(word) // 2 + 1) for _ in (0, 1)]:
        return False  # not two copies each of 1..n (an odd length never is)
    stack = []
    for x in word:
        if stack and stack[-1] == x:
            stack.pop()
        elif stack and x < stack[-1]:
            return False
        else:
            stack.append(x)
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


# _fit, the one containment search, recurses once per pattern letter, and so
# does split_gaps's prefix search before it hands the rest to _fit; this cap
# keeps both well inside Python's default recursion limit.
MAX_PATTERN_LETTERS = 500


def validate_pattern(word):
    """Check that the value set is exactly {1..m}; returns the tuple.

    At most MAX_PATTERN_LETTERS letters are accepted.
    """
    letters = tuple(word)
    if not letters:
        raise ValueError("empty pattern")
    if len(letters) > MAX_PATTERN_LETTERS:
        raise ValueError(
            f"pattern of {len(letters)} letters; at most {MAX_PATTERN_LETTERS} are supported"
        )
    values = set(letters)
    if values != set(range(1, max(values) + 1)):
        raise ValueError(f"pattern {format_word(letters)} values must form a range 1..m")
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


def _fit(word, pattern, pi, start, assigned):
    """True iff pattern[pi:] can take positions of the word from start on.

    assigned maps the pattern values already placed to their word letters:
    a value placed already must reappear as the same letter, a new one must
    fit beside them (_fits).  assigned is restored before returning.
    Only first copies are tried: a placed value takes the first later copy
    of its letter, a new value each distinct letter once, at its first
    position; a later copy only leaves the later letters fewer positions.
    """
    k = len(pattern)
    if pi == k:
        return True
    t = pattern[pi]
    end = len(word) - (k - pi) + 1
    bound = assigned.get(t)
    if bound is not None:
        try:
            wj = word.index(bound, start, end)
        except ValueError:  # no copy of bound left
            return False
        return _fit(word, pattern, pi + 1, wj + 1, assigned)
    tried = set()
    for wj in range(start, end):
        w = word[wj]
        if w in tried:
            continue
        tried.add(w)
        if not assigned or _fits(assigned, t, w):
            assigned[t] = w
            found = _fit(word, pattern, pi + 1, wj + 1, assigned)
            del assigned[t]
            if found:
                return True
    return False


def contains(word, pattern):
    """True iff some subsequence of the word realizes the pattern.

    Equal pattern letters demand equal word letters; distinct pattern
    letters demand the same strict order between the chosen word letters,
    so a pattern with more distinct values than the word never fits.
    """
    if len(set(pattern)) > len(set(word)):
        return False
    return _fit(word, pattern, 0, 0, {})


def _first_end(word, a, b):
    """The least j such that some i < j makes (i, j) an occurrence of a, b, or None.

    Until its first strict ascent the word does not rise, so the least
    letter so far is the one just before: the first end of a 12 (21) is
    the first strict ascent (descent).  A 11 ends where a letter repeats.
    """
    if a == b:  # j ends one iff its letter occurs before j
        first = dict(zip(reversed(word), range(len(word) - 1, -1, -1)))
        ends = list(map(lt, map(first.get, word[1:]), range(1, len(word))))
    else:
        ends = list(map(lt if a < b else gt, word, word[1:]))
    return ends.index(True) + 1 if True in ends else None


def _short_gaps(word, rest, cut):
    """split_gaps for a rest of one or two letters, in one scan.

    One letter: every gap but the last (cut 0) or the first (cut 1).  Cut
    2: every gap after the first end of an occurrence; cut 0 is its mirror,
    the first end of the reversed rest in the reversed word.  Cut 1: gap at
    is bad iff the prefix and the suffix at it hold the two letters: for 12
    iff min(prefix) < max(suffix), 21 is 12 in the negated word, and for 11
    iff some letter of the prefix recurs at or after at.
    """
    n = len(word)
    if len(rest) == 1:
        return (1 << n) - 1 << cut
    a, b = rest
    if cut != 1:
        j = _first_end(word, a, b) if cut else _first_end(word[::-1], b, a)
        if j is None:
            return 0
        return (1 << n + 1) - (1 << j + 1) if cut else (1 << n - j) - 1
    if a == b:  # reach: the last position of a letter before at
        last = dict(zip(word, range(n)))
        reach = accumulate(map(last.get, word), max)
        return sum(1 << at for at, r in zip(range(1, n), reach) if r >= at)
    if a > b:
        word = [-x for x in word]
    high = [word[-1]]  # high[n - at] = max(word[at:])
    for x in reversed(word):
        high.append(x if x > high[-1] else high[-1])
    bad, low = 0, word[0]
    for at in range(1, n):
        if word[at - 1] < low:
            low = word[at - 1]
        if low < high[n - at]:
            bad |= 1 << at
    return bad


def split_gaps(word, pattern, cut):
    """Bitmask of the gaps at which the word holds the pattern split at cut.

    An occurrence is a tuple o of positions whose letters realize the
    pattern (see contains).  Bit at, for 0 <= at <= len(word), is set iff
    some occurrence o has o[cut-1] < at <= o[cut], the bound being open at
    the left when cut is 0 and at the right when cut is len(pattern): iff
    the first cut letters of o lie before position at and the others at or
    after it.

    A rest of one or two letters takes one scan (_short_gaps).  For a
    longer one, the gaps of one placement of the first cut letters form
    an interval that ends at the largest position o[cut] can take, so one
    interval search finds all of them: it tries o[cut] from the right and
    stops at the first gap the mask already holds, and it drops every
    placement whose interval the mask already covers.  The letters after
    the cut are placed by _fit, and the first cut letters by its first-copy
    rule, since a later copy never makes the interval longer; o[cut] tries
    every copy, since a later one can end the interval later.
    """
    k, n = len(pattern), len(word)
    if k == 0:
        return (1 << (n + 1)) - 1
    if k > n:
        return 0
    if k <= 2:
        return _short_gaps(word, pattern, cut)
    if len(set(pattern)) > len(set(word)):
        return 0
    top = n if cut == k else n - (k - cut)  # the right end of any interval
    bad = 0
    covered = top  # (covered, top] is in the mask: nothing above covered adds a gap
    assigned = {}  # pattern value -> word letter committed to it

    def mark(start, end):
        nonlocal bad, covered
        bad |= (1 << (end + 1)) - (1 << start)
        covered = (~bad & ((1 << (top + 1)) - 1)).bit_length() - 1

    def prefix(pi, start):
        """Place pattern[pi:cut] from start on, then mark each interval."""
        if pi == cut:
            if cut == k:
                mark(start, n)
                return
            free = ~bad & -(1 << start)
            first = (free & -free).bit_length() - 1  # the lowest gap from start not yet marked
            t = pattern[cut]
            bound = assigned.get(t)
            for wj in range(top, first - 1, -1):
                w = word[wj]
                if bound is not None:
                    found = w == bound and _fit(word, pattern, cut + 1, wj + 1, assigned)
                elif not assigned or _fits(assigned, t, w):
                    assigned[t] = w
                    found = _fit(word, pattern, cut + 1, wj + 1, assigned)
                    del assigned[t]
                else:
                    found = False
                if found:
                    mark(start, wj)
                    return
            return
        t = pattern[pi]
        end = n - (k - pi) + 1
        bound = assigned.get(t)
        if bound is not None:
            try:
                wj = word.index(bound, start, end)
            except ValueError:
                return
            if wj < covered:  # else o[cut-1] >= covered too
                prefix(pi + 1, wj + 1)
            return
        tried = set()
        for wj in range(start, end):
            if wj >= covered:  # then o[cut-1] >= covered too
                return
            w = word[wj]
            if w in tried:
                continue
            tried.add(w)
            if not assigned or _fits(assigned, t, w):
                assigned[t] = w
                prefix(pi + 1, wj + 1)
                del assigned[t]

    prefix(0, 0)
    return bad


def contains_123(word):
    """contains(word, (1, 2, 3)) in one left-to-right pass.

    The word holds 123 iff some letter exceeds a letter that already has a
    smaller one before it; low is the least letter so far, and mid the
    least letter so far with a smaller one before it.
    """
    low = mid = float("inf")
    for x in word:
        if x > mid:
            return True
        if x > low:  # and x <= mid
            mid = x
        else:
            low = x
    return False


def contains_132(word):
    """contains(word, (1, 3, 2)) in one right-to-left pass.

    The stack holds, in increasing order from the top, the letters seen so
    far that no larger letter has followed in the scan; a letter pops those
    below it, and two is the largest letter popped so far, a "2" with a
    larger "3" to its left.  The word holds 132 iff some letter further left
    is below two.  The comparisons are strict, so equal letters never stand
    for distinct pattern values.
    """
    two = float("-inf")
    stack = []
    for x in reversed(word):
        if x < two:
            return True
        while stack and stack[-1] < x:
            two = stack.pop()
        stack.append(x)
    return False


def avoids(word, patterns):
    return all(not contains(word, pat) for pat in patterns)


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
    return tuple(dict.fromkeys(word))
