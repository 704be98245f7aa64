"""Exhaustive generation of Stirling permutations and brute-force distributions.

Everything here is the ground-truth oracle the rest of the library is
checked against, so it stays simple: order n is built from order n-1 by
inserting the new doubled letter into each gap.  Pattern avoiders grow on
a generating tree (in the ECO sense of Barcucci, Del Lungo, Pergola and
Pinzani): deleting the adjacent pair n,n from an avoider leaves an avoider,
so the children of the order n-1 avoiders are the only candidates, and a
child is kept unless some occurrence uses its new pair (see
occurrence_split).  One walk down that tree (_walk) serves every reader,
one parent at a time: for each order n-1 avoider it yields the list of
its leaves, each the parent, the order n-1 node, plus a gap that takes
the new pair.  The gap's kind alone fixes what the pair adds to the
parent's des, asc and plat (STEPS), the bookkeeping of West's generating
trees ("Generating trees and the Catalan and Schroeder numbers", Discrete
Math. 1995), and one step rule (_child) turns a leaf into the child's
node, carrying count_adjacent_122 too.  Words are built only for the
inner orders of the walk and for readers that ask for them:
distribution, second_order_eulerian and joint_plat_122 tally each
parent's leaves, and the CLI cuts each row from its parent's text.  A
parent's bad gaps come from one split_gaps call per split: one scan of
the parent when the split's rest has one or two letters, as it has for
every pattern the paper studies, and the interval search for longer
rests; past them, a parent costs one step per gap it keeps.  The
whole-word functions words.stats and words.count_adjacent_122 tally only
the root; the tests check the carried values against them.

The polynomial layer is imported by the two readers that build a
Polynomial, so enumerate loads none of it.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain

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
    for leaf in chain.from_iterable(_walk(n, ())):
        yield _word(*leaf)


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
    insertion creates one.  Each of 213, 123, 132 and 1233 leaves a rest
    of two letters (21 or 12, cut 2; 12, cut 1 for 132), which split_gaps
    answers in one scan of the word.
    """
    m = max(pattern)
    where = [i for i, x in enumerate(pattern) if x == m]
    if len(where) > 2 or where[-1] - where[0] > 1:
        return None
    return tuple(x for x in pattern if x != m), where[0]


# The kinds of gap that the new pair n,n can go into, and the (des, asc,
# plat) that inserting it there adds to the parent's.  The pair turns the
# gap's neighbours a, b into a, n, n, b.  An ascent a < b, or the left end
# (where the missing neighbour acts as a letter below every other), gains a
# plateau and a descent; a descent a > b, or the right end, a plateau and an
# ascent; a plateau a = b becomes an ascent and a descent.  The empty word's
# one gap gains the plateau alone.  ROOT marks the order-0 word itself, the
# one avoider with no parent, to which nothing is added.
ASCENT, DESCENT, PLATEAU, EMPTY, ROOT = range(5)
STEPS = ((1, 0, 1), (0, 1, 1), (1, 1, 0), (0, 0, 1), (0, 0, 0))
FORMS = ("words", "leaves")


def _walk(n, patterns):
    """Yield, for each order n-1 avoider that keeps a gap, the list of its leaves.

    A leaf (parent, pos, kind) stands for one order-n avoider: the order
    n-1 node parent, a tuple (word, des, asc, plat, adj122), with n,n
    inserted at position pos, into a gap of the given kind (see STEPS).
    _child, the step rule, turns a leaf into the avoider's node, _word into
    its word alone and _adj122 into its count_adjacent_122.  The order-0
    avoider is the one leaf (root, 0, ROOT).

    Depth first, on one stack of the inner orders' nodes: a node is popped
    before its children are pushed, so it is dropped once they are listed,
    and they are pushed last-first, so that the lists come out in
    generate_all's order.  The root's statistics are tallied over the
    (empty) word; every child updates its parent's in O(1) (or O(n) for
    adj122).
    """
    if n < 0:
        raise ValueError("order must be nonnegative")
    if not avoids((), patterns):
        return
    s = stats(())
    root = ((), s.des, s.asc, s.plat, count_adjacent_122(()))
    if n == 0:
        yield [(root, 0, ROOT)]
        return
    splits = [split for split in map(occurrence_split, patterns) if split is not None]
    stack, inner = [root], 2 * n - 2  # inner: the length of an order n-1 word
    while stack:
        node = stack.pop()
        leaves = _leaves(node, splits)
        if len(node[0]) < inner:
            stack += [_child(*leaf) for leaf in reversed(leaves)]
        elif leaves:
            yield leaves


def _leaves(node, splits):
    """The leaves (node, pos, kind) under one node, one per gap it keeps, right to left.

    A gap is bad when, for some split (rest, cut) of occurrence_split, an
    occurrence of rest in the node's word has its first cut letters before
    the gap and the others after it: bit pos of split_gaps(word, rest,
    cut).  With no bad gap every gap is kept; otherwise the kept gaps are
    read off the set bits of ~bad, highest first, one step per kept gap.
    Gap pos lies between prev[pos - 1] and prev[pos], a missing neighbour
    acting as 0.
    """
    prev = node[0]
    bad = 0
    for rest, cut in splits:
        bad |= split_gaps(prev, rest, cut)
    end, leaves = len(prev), []
    if not bad:  # every parent of an unpatterned walk: no mask to read, and faster
        right, pos = 0, end
        for left in reversed(prev):
            leaves.append((node, pos, ASCENT if left < right else DESCENT if left > right
                           else PLATEAU))
            right, pos = left, pos - 1
        leaves.append((node, 0, ASCENT if prev else EMPTY))
        return leaves
    kept = ~bad & ((2 << end) - 1)
    while kept:
        pos = kept.bit_length() - 1
        kept ^= 1 << pos
        left, right = prev[pos - 1] if pos else 0, prev[pos] if pos < end else 0
        leaves.append((node, pos, ASCENT if left < right else DESCENT if left > right
                       else PLATEAU))
    return leaves


def _word(parent, pos, kind):
    """The word a leaf stands for: its parent's with n,n inserted at pos."""
    prev = parent[0]
    if kind == ROOT:
        return prev
    n = len(prev) // 2 + 1
    return prev[:pos] + (n, n) + prev[pos:]


def _adj122(parent, pos, kind):
    """count_adjacent_122 of the word a leaf stands for, from its parent's.

    It gains pos, the letters left of the new plateau, and a split plateau
    b,b loses its share: the letters below b left of it.
    """
    prev, adj = parent[0], parent[4]
    if kind == PLATEAU:
        b = prev[pos]
        adj -= sum(1 for x in prev[:pos - 1] if x < b)
    return adj + pos


def _child(parent, pos, kind):
    """The step rule: the node (word, des, asc, plat, adj122) a leaf stands for.

    des, asc and plat gain the kind's STEPS row, adj122 its _adj122 step.
    """
    _, des, asc, plat, _ = parent
    dd, da, dp = STEPS[kind]
    return (_word(parent, pos, kind), des + dd, asc + da, plat + dp,
            _adj122(parent, pos, kind))


def generate_avoiders(n, patterns=(), form="words"):
    """Yield the order-n Stirling permutations avoiding every given pattern.

    With no patterns this is generate_all(n).  Otherwise each order n-1
    avoider gets n,n inserted into its gaps in generate_all's order, and a
    child is kept unless the split test of occurrence_split finds an
    occurrence using the new pair.  The children of a word that contains a
    pattern contain it too, so the avoiders come out as a subsequence of
    the generate_all(n) stream: in the same order as filtering it, without
    building the words that contain a pattern.

    form says what is yielded per avoider: "words" the word; "leaves" the
    leaf (parent, pos, kind) of _walk, which builds no order-n word.  The
    parent's statistics are carried down the tree and equal words.stats
    and words.count_adjacent_122 of its word.
    """
    if form not in FORMS:
        raise ValueError(f"unknown form {form!r}; choose from {', '.join(FORMS)}")
    leaves = chain.from_iterable(_walk(n, tuple(patterns)))
    if form == "leaves":
        yield from leaves
    else:
        for leaf in leaves:
            yield _word(*leaf)


def stat_tally(n, patterns=()):
    """Counter of (plat, des, asc) over the order-n avoiders, from their leaves.

    Each parent's leaves are counted by kind, and each kind adds its STEPS
    row to the parent's statistics once.
    """
    tally = Counter()
    for leaves in _walk(n, tuple(patterns)):
        counts = [0] * len(STEPS)
        for leaf in leaves:
            counts[leaf[2]] += 1
        _, des, asc, plat, _ = leaves[0][0]
        for (dd, da, dp), count in zip(STEPS, counts):
            if count:
                tally[plat + dp, des + dd, asc + da] += count
    return tally


def distribution(n, patterns=()):
    """Joint plateau/descent/ascent polynomial over the order-n avoiders.

    The monomial p**plat * q**des * r**asc is tallied per permutation; with
    no patterns this is the full distribution over all of order n.
    """
    from .polynomials import PQR, Polynomial

    return Polynomial(PQR, stat_tally(n, patterns))


def second_order_eulerian(n):
    """Row n of the second-order Eulerian triangle: counts by des+1 = k."""
    if n < 1:
        raise ValueError("order must be positive")
    row = [0] * n
    for (_, des, _), count in stat_tally(n).items():
        row[des] += count
    return row


def joint_plat_122(n, patterns=((2, 1, 3),)):
    """Distribution of (plateaus, adjacent-pair occurrences of 122).

    The occurrence statistic is count_adjacent_122: the version whose
    generating function satisfies the substitution equation solved by
    series.solve_R.  (Counting all position triples instead would differ
    from order 3 on, e.g. on 123321.)  Tallied from the leaves: plat is
    the parent's plus the kind's STEPS row, adj122 comes from _adj122.
    """
    from .polynomials import PZ, Polynomial

    tally = Counter((parent[3] + STEPS[kind][2], _adj122(parent, pos, kind))
                    for leaves in _walk(n, tuple(patterns)) for parent, pos, kind in leaves)
    return Polynomial(PZ, tally)
