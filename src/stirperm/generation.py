"""Exhaustive generation of Stirling permutations and brute-force distributions.

Everything here is the ground-truth oracle the rest of the library is
checked against, so it stays simple: order n is built from order n-1 by
inserting the new doubled letter into each gap.  Pattern avoiders grow on
a generating tree (in the ECO sense of Barcucci, Del Lungo, Pergola and
Pinzani): deleting the adjacent pair n,n from an avoider leaves an avoider,
so the children of the order n-1 avoiders are the only candidates, and a
child is kept unless some occurrence uses its new pair (see
occurrence_split).  One walk down that tree (_walk) serves every reader.
It carries each word's des, asc, plat and count_adjacent_122 from parent
to child in O(1), the bookkeeping of West's generating trees ("Generating
trees and the Catalan and Schroeder numbers", Discrete Math. 1995), and it
finds a parent's bad gaps with one split_gaps pass per split.  The
whole-word functions words.stats and words.count_adjacent_122 tally only
the root; the tests check the carried values against them.
"""

from __future__ import annotations

from collections import Counter

from .polynomials import PQR, PZ, Polynomial
from .words import avoids, count_adjacent_122, split_gaps, stats


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
    for node in _walk(n, ()):
        yield node[0]


def occurrence_split(pattern):
    """How inserting a new largest pair n,n can create an occurrence of pattern.

    An occurrence that uses a letter n sends the pattern's largest value m,
    and every copy of it, to the adjacent pair n,n.  So when m appears three
    or more times, or twice but not adjacently, no insertion creates an
    occurrence and the result is None.  Otherwise it is (rest, cut): rest
    is the pattern with m deleted and cut the index of m's first copy, and
    inserting n,n at position pos of a word creates an occurrence iff some
    occurrence of rest in the word has its first cut letters before pos and
    the others at or after it, i.e. iff bit pos of split_gaps(word, rest,
    cut) is set.  When the pattern is only m or m,m, rest is empty and every
    insertion creates one.
    """
    m = max(pattern)
    where = [i for i, x in enumerate(pattern) if x == m]
    if len(where) > 2 or where[-1] - where[0] > 1:
        return None
    return tuple(x for x in pattern if x != m), where[0]


def _walk(n, patterns):
    """Yield (word, des, asc, plat, adj122) for each order-n avoider.

    A depth-first walk down the generating tree, with _children as the one
    insertion loop of this module.  The root's statistics are tallied over
    the (empty) word; every child updates its parent's in O(1).  Inserting
    n,n at pos replaces the pair (prev[pos-1], prev[pos]) with an ascent, a
    plateau and a descent; at an end, where the missing neighbour acts as a
    letter below every other, only two of these are added.  adj122
    (count_adjacent_122) gains pos, the letters left of the new plateau,
    and loses the share of the plateau that the insertion splits, if any.
    A gap is bad when, for some split (rest, cut) of occurrence_split, an
    occurrence of rest in the parent has its first cut letters before the
    gap and the others after it; the bad gaps come from one split_gaps call
    per split and parent, and no child is built there.
    """
    if n < 0:
        raise ValueError("order must be nonnegative")
    if not avoids((), patterns):
        return
    s = stats(())
    root = ((), s.des, s.asc, s.plat, count_adjacent_122(()))
    if n == 0:
        yield root
        return
    splits = [split for split in map(occurrence_split, patterns) if split is not None]
    # Depth first with an explicit stack of child streams, one per order
    # below n - 1, so that no order is too deep.
    stack = [iter((root,))]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
        elif len(stack) == n:  # an order n - 1 node: its children are order n
            yield from _children(node, splits)
        else:
            stack.append(_children(node, splits))


def _children(node, splits):
    """The children of one walk node, with their carried statistics."""
    prev, des, asc, plat, adj = node
    bad = 0
    for rest, cut in splits:
        bad |= split_gaps(prev, rest, cut)
    new = (len(prev) // 2 + 1,) * 2
    padded = (0,) + prev + (0,)
    for pos in range(len(prev), -1, -1):
        if bad >> pos & 1:
            continue
        word = prev[:pos] + new + prev[pos:]
        a, b = padded[pos], padded[pos + 1]
        if a < b:  # an ascent, or the left end
            yield word, des + 1, asc, plat + 1, adj + pos
        elif a > b:  # a descent, or the right end
            yield word, des, asc + 1, plat + 1, adj + pos
        elif prev:  # a plateau b,b split by n,n
            share = sum(1 for x in prev[:pos - 1] if x < b)
            yield word, des + 1, asc + 1, plat, adj + pos - share
        else:
            yield word, 0, 0, 1, 0


def generate_avoiders(n, patterns=(), with_stats=False):
    """Yield the order-n Stirling permutations avoiding every given pattern.

    With no patterns this is generate_all(n).  Otherwise each order n-1
    avoider gets n,n inserted into its gaps in generate_all's order, and a
    child is kept unless the split test of occurrence_split finds an
    occurrence using the new pair.  The children of a word that contains a
    pattern contain it too, so the avoiders come out as a subsequence of
    the generate_all(n) stream: in the same order as filtering it, without
    building the words that contain a pattern.

    With with_stats, yield (word, des, asc, plat, adj122) instead: the
    statistics carried down the tree, equal to words.stats and
    words.count_adjacent_122 of the word.
    """
    nodes = _walk(n, tuple(patterns))
    if with_stats:
        yield from nodes
    else:
        for node in nodes:
            yield node[0]


def distribution(n, patterns=()):
    """Joint plateau/descent/ascent polynomial over the order-n avoiders.

    The monomial p**plat * q**des * r**asc is tallied per permutation; with
    no patterns this is the full distribution over all of order n.
    """
    nodes = generate_avoiders(n, patterns, with_stats=True)
    return Polynomial(PQR, Counter((plat, des, asc) for _, des, asc, plat, _ in nodes))


def second_order_eulerian(n):
    """Row n of the second-order Eulerian triangle: counts by des+1 = k."""
    if n < 1:
        raise ValueError("order must be positive")
    row = [0] * n
    for _, des, _, _, _ in generate_avoiders(n, with_stats=True):
        row[des] += 1
    return row


def joint_plat_122(n, patterns=((2, 1, 3),)):
    """Distribution of (plateaus, adjacent-pair occurrences of 122).

    The occurrence statistic is count_adjacent_122: the version whose
    generating function satisfies the substitution equation solved by
    series.solve_R.  (Counting all position triples instead would differ
    from order 3 on, e.g. on 123321.)
    """
    nodes = generate_avoiders(n, patterns, with_stats=True)
    return Polynomial(PZ, Counter((plat, adj) for _, _, _, plat, adj in nodes))
