"""Exhaustive generation of Stirling permutations and brute-force distributions.

Everything here is the ground-truth oracle the rest of the library is
checked against, so it stays simple: order n is built from order n-1 by
inserting the new doubled letter into each gap.  Pattern avoiders grow on
a generating tree (in the ECO sense of Barcucci, Del Lungo, Pergola and
Pinzani): deleting the adjacent pair n,n from an avoider leaves an avoider,
so the children of the order n-1 avoiders are the only candidates, and a
child is kept unless some occurrence uses its new pair (see
occurrence_split).  Statistics are tallied over whole words.
"""

from __future__ import annotations

from .polynomials import Polynomial
from .words import avoids, contains, count_adjacent_122, stats

PQR = ("p", "q", "r")
PZ = ("p", "z")


def double_factorial_odd(n):
    """(2n-1)!! with the empty-product convention for n = 0."""
    out = 1
    for k in range(1, 2 * n, 2):
        out *= k
    return out


def generate_all(n):
    """Yield every Stirling permutation of order n exactly once.

    Canonical order: the doubled letter n is inserted into the gaps of each
    order n-1 word counting from the right end, so the stream for n=2 is
    1122, 1221, 2211.
    """
    if n < 0:
        raise ValueError("order must be nonnegative")
    if n == 0:
        yield ()
        return
    for prev in generate_all(n - 1):
        size = len(prev)
        for gap in range(size + 1):
            pos = size - gap
            yield prev[:pos] + (n, n) + prev[pos:]


def occurrence_split(pattern):
    """How inserting a new largest pair n,n can create an occurrence of pattern.

    An occurrence that uses a letter n sends the pattern's largest value m,
    and every copy of it, to the adjacent pair n,n.  So when m appears three
    or more times, or twice but not adjacently, no insertion creates an
    occurrence and the result is None.  Otherwise it is (rest, cut): rest
    is the pattern with m deleted and cut the index of m's first copy, and
    inserting n,n at position pos of a word creates an occurrence iff
    contains(word, rest, (cut, pos)).  When the pattern is only m or m,m,
    rest is empty and every insertion creates one.
    """
    m = max(pattern)
    where = [i for i, x in enumerate(pattern) if x == m]
    if len(where) > 2 or where[-1] - where[0] > 1:
        return None
    return tuple(x for x in pattern if x != m), where[0]


def generate_avoiders(n, patterns):
    """Yield the order-n Stirling permutations avoiding every given pattern.

    With no patterns this is generate_all(n).  Otherwise each order n-1
    avoider gets n,n inserted into its gaps in generate_all's order, and a
    child is kept unless the split test of occurrence_split finds an
    occurrence using the new pair.  The children of a word that contains a
    pattern contain it too, so the avoiders come out as a subsequence of
    the generate_all(n) stream: in the same order as filtering it, without
    building the words that contain a pattern.
    """
    patterns = tuple(patterns)
    if not patterns:
        yield from generate_all(n)
        return
    if n < 0:
        raise ValueError("order must be nonnegative")
    if n == 0:
        if avoids((), patterns):
            yield ()
        return
    splits = [s for s in map(occurrence_split, patterns) if s is not None]
    for prev in generate_avoiders(n - 1, patterns):
        size = len(prev)
        for gap in range(size + 1):
            pos = size - gap
            if not any(contains(prev, rest, (cut, pos)) for rest, cut in splits):
                yield prev[:pos] + (n, n) + prev[pos:]


def distribution(n, patterns=()):
    """Joint plateau/descent/ascent polynomial over the order-n avoiders.

    The monomial p**plat * q**des * r**asc is tallied per permutation; with
    no patterns this is the full distribution over all of order n.
    """
    terms = {}
    for word in generate_avoiders(n, patterns):
        s = stats(word)
        key = (s.plat, s.des, s.asc)
        terms[key] = terms.get(key, 0) + 1
    return Polynomial(PQR, terms)


def second_order_eulerian(n):
    """Row n of the second-order Eulerian triangle: counts by des+1 = k."""
    if n < 1:
        raise ValueError("order must be positive")
    row = [0] * n
    for word in generate_all(n):
        row[stats(word).des] += 1
    return row


def joint_plat_122(n, patterns=((2, 1, 3),)):
    """Distribution of (plateaus, adjacent-pair occurrences of 122).

    The occurrence statistic is count_adjacent_122: the version whose
    generating function satisfies the substitution equation solved by
    series.solve_R.  (Counting all position triples instead would differ
    from order 3 on, e.g. on 123321.)
    """
    terms = {}
    for word in generate_avoiders(n, patterns):
        key = (stats(word).plat, count_adjacent_122(word))
        terms[key] = terms.get(key, 0) + 1
    return Polynomial(PZ, terms)
