"""Executable bijections between avoider classes, trees and labeled pairs.

Maps implemented here, each with its inverse:

* phi: 213-avoiding Stirling permutations of order n  <->  ternary trees
  with n-1 edges, transporting the augmented statistics onto edge types.
  phi tests 213-avoidance on the splits it makes anyway: a Stirling
  permutation avoids 213 if and only if, at every split A m B m C around
  the two copies of a block's smallest letter m, every letter of A is above
  every letter of B and C, and every letter of B is above every letter of
  C.  Only if: x in A below y in B or C, or x in B below y in C, gives the
  occurrence x m y, as m < x < y.  If: let b a c be an occurrence
  (a < b < c) and split the smallest block holding all three; the
  condition makes every letter of an earlier one of its blocks A, B, C
  above every letter of a later one.  If a is the split letter, b and c
  lie on either side of one of its copies, so b's block is earlier than
  c's.  Otherwise b, a and c are not all in one block, and c > a puts c in
  a's block, so again b's block is earlier.  Either way b > c, a
  contradiction.
* psi: a Stirling permutation maps to (p, s) where p is its permutation of
  first occurrences and s records, for each left-to-right minimum of p, how
  many distinct letters sit between (and including) its two copies.
  Restricted to 123-avoiders or to 132-avoiders, psi is a bijection onto
  the pairs whose sequence s is bounded by the segment composition of p.
* rho: 123-avoiding permutations of [n]  <->  n-edge ordered trees, via
  segments attaching to the vertex one below their leading minimum.  The
  inverse reads the tree through its leftmost-path labels, in which the
  first child of a parent labelled i is labelled i + 1; left_path_order
  lists the tree's preorder indices in label order.
* The favorite-child composite: pairs (p, s) map onto ordered trees whose
  parents each mark a favorite child.

Each verify_* is one walk, _report, over the objects of one order: it
counts them ("checked"), and the objects that the inverse does not bring
back ("round trip") or whose statistics the map does not carry as it
should ("transport").  The walk also compares the images with the whole
codomain, so a map that misses a tree or pair, or hits a foreign one,
fails the round trip too.  `verify` compares the report with a closed-form
count and zero failures.

The trees are flat preorder tuples (see trees), which every map here reads
or builds in a loop with an explicit stack, so no input is too deep.
"""

from __future__ import annotations

from itertools import islice, permutations, product

from .generation import generate_avoiders
from .trees import FCOrderedTree, OrderedTree, TernaryTree, fc_trees, ordered_trees, ternary_trees
from .words import (
    P123, P132, P213, contains, contains_123, contains_132, first_occurrences, format_word,
    is_stirling, stats,
)

# the classes psi is a bijection on: each one's pattern and its one-pass scan
FAMILIES = {"123": (P123, contains_123), "132": (P132, contains_132)}


# -- phi: 213-avoiders and ternary trees ------------------------------------


def phi(word):
    """Ternary tree of a 213-avoiding Stirling permutation of order n >= 1.

    The word splits uniquely as A m B m C around the two copies of its
    smallest letter m; the blocks A, B and C hang as the left, vertical and
    right subtrees, each split the same way.  Each block holds both copies
    of its letters, since a letter with one copy on each side of an m would
    enclose a smaller letter.  A split out of the order that the module
    docstring states raises ValueError.

    The block of a letter x, the one x is smallest in, is the longest run
    of letters >= x around its copies, so it ends at the nearest smaller
    letters l before and r after them (0 past an end).  The larger of the
    two is x's parent p: x hangs in p's vertical block when l = r = p, else
    in its left block when p = r, its right block when p = l.  So two
    nearest-smaller-letter passes give every block in O(n), and each
    block's largest letter, taken child before parent, gives the checks.
    """
    if not word:
        raise ValueError("phi is defined for order >= 1")
    if not is_stirling(word):
        raise ValueError(f"not a Stirling permutation: {format_word(word)}")
    n = len(word) // 2
    lefts, rights = _nearest_smaller(word, n), _nearest_smaller(reversed(word), n)
    kids = [[0, 0, 0] for _ in range(n + 1)]  # per letter: left, vertical, right child
    top = list(range(n + 1))  # per letter: the largest letter of its block
    for x in range(n, 1, -1):
        l, r = lefts[x], rights[x]
        parent = max(l, r)
        kids[parent][(l >= r) + (l > r)] = x  # left if l < r, vertical if l = r, else right
        top[parent] = max(top[parent], top[x])
    shape, stack = [], [1]
    while stack:
        left, vertical, right = kids[stack.pop()]
        below = max(top[vertical], top[right])
        if (left and left <= below) or (vertical and vertical <= top[right]):
            raise ValueError(f"{format_word(word)} contains 213")
        shape.append(4 * bool(left) | 2 * bool(vertical) | bool(right))
        stack += [child for child in (right, vertical, left) if child]
    return TernaryTree(tuple(shape))


def _nearest_smaller(word, n):
    """The nearest smaller letter before each letter's first copy, or 0.

    Indexed by letter; word is a Stirling permutation of order n.
    """
    out, stack = [0] * (n + 1), [0]
    for x in word:
        while stack[-1] > x:
            stack.pop()
        if stack[-1] < x:  # a first copy; at a second, x is on top
            out[x] = stack[-1]
            stack.append(x)
    return out


def phi_inverse(tree):
    """Inverse of phi; a tree with m edges yields a word of order m + 1.

    The word is read off the serialization: each vertex writes its letter
    at its two commas, and the letter is n minus the vertex's postorder
    index, n being the number of vertices.
    """
    n = len(tree.shape)
    closed, postorder, commas = 0, [0] * n, []
    for token, vertex in tree.tokens():
        if token == ",":
            commas.append(vertex)
        elif token == ")":
            postorder[vertex] = closed
            closed += 1
    return tuple(n - postorder[vertex] for vertex in commas)


# -- compositions and the psi pairing ---------------------------------------


def _segments(perm):
    """perm cut into lists, each starting at a left-to-right minimum."""
    out = []
    for x in perm:
        if not out or x < out[-1][0]:
            out.append([x])
        else:
            out[-1].append(x)
    return out


def lr_minima(perm):
    """Values of the left-to-right minima, in order of appearance."""
    return tuple(segment[0] for segment in _segments(perm))


def composition_of(perm):
    """The segment lengths; they sum to len(perm)."""
    return tuple(map(len, _segments(perm)))


def psi(word):
    """Pair (p, s): first-occurrence permutation plus minimum-span counts.

    s_i counts the distinct letters in the subword bounded by, and
    including, the two copies of the i-th left-to-right minimum of p, so an
    immediate plateau "mm" gives s_i = 1.  The letters need not be 1..n (a
    segment fragment such as 7,10,10,7 is accepted), but relabelled in
    order they must form a Stirling permutation.
    """
    rank = {x: i for i, x in enumerate(sorted(set(word)), 1)}
    if not is_stirling(tuple(rank[x] for x in word)):
        raise ValueError(f"not a Stirling permutation: {format_word(word)}")
    perm = first_occurrences(word)
    s = []
    for m in lr_minima(perm):
        i = word.index(m)
        j = word.index(m, i + 1)
        s.append(len(set(word[i : j + 1])))
    return perm, tuple(s)


def _check_permutation(perm):
    if sorted(perm) != list(range(1, len(perm) + 1)):
        raise ValueError(f"not a permutation of 1..{len(perm)}: {format_word(perm)}")


def _check_pair(perm, s, family=None):
    """perm's segment lengths; ValueError unless (perm, s) is a pair (of the family, if given)."""
    _check_permutation(perm)
    if family and _family(family)[1](perm):
        raise ValueError(f"base permutation {format_word(perm)} contains {family}")
    comp = composition_of(perm)
    if len(s) != len(comp):
        raise ValueError(f"sequence length {len(s)} != {len(comp)} segments")
    for si, ci in zip(s, comp):
        if not 1 <= si <= ci:
            raise ValueError(f"entry {si} outside 1..{ci}")
    return comp


def _rebuild_word(perm, s):
    """Reassemble the Stirling permutation encoded by (perm, s).

    Every non-minimum letter is doubled in place; the second copy of the
    i-th minimum is inserted after s_i - 1 of the doubled letters in its
    own segment.
    """
    out = []
    for segment, si in zip(_segments(perm), s):
        m, rest = segment[0], segment[1:]
        out.append(m)
        for a in rest[: si - 1]:
            out += [a, a]
        out.append(m)
        for a in rest[si - 1 :]:
            out += [a, a]
    return tuple(out)


def psi_inverse(pair, family):
    """Inverse of psi on the 123-avoiding or the 132-avoiding class.

    The reconstruction is the same in-segment insertion for both classes;
    only the pattern the base permutation must avoid changes.
    """
    perm, s = pair
    _check_pair(perm, s, family)
    return _rebuild_word(perm, s)


def _family(family):
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    return FAMILIES[family]


def involution_pair(pair):
    """The sign flip (p, s) -> (p, c + 1 - s); an involution fixing p."""
    perm, s = pair
    comp = _check_pair(perm, s)
    return perm, tuple(c + 1 - x for c, x in zip(comp, s))


def avoiding_permutations(n, pattern):
    """All permutations of [n] avoiding the pattern (plain brute force)."""
    return [
        perm for perm in permutations(range(1, n + 1)) if not contains(perm, pattern)
    ]


def apairs(n, pattern):
    """All pairs (p, s) with p avoiding the pattern and s bounded by c(p)."""
    out = []
    for perm in avoiding_permutations(n, pattern):
        ranges = [range(1, c + 1) for c in composition_of(perm)]
        for s in product(*ranges):
            out.append((perm, s))
    return out


# -- rho: 123-avoiding permutations and ordered trees ------------------------


def _grow(perm):
    """The tree on 0..n with each segment of perm hanging below its minimum - 1.

    Children are ordered increasingly.  Returns the vertices in preorder
    and their child counts, the tree's shape.
    """
    # each family decreasing, so that the stack pops the smallest child first
    children = {segment[0] - 1: sorted(segment, reverse=True) for segment in _segments(perm)}
    preorder, stack = [], [0]
    while stack:
        vertex = stack.pop()
        preorder.append(vertex)
        stack += children.get(vertex, ())
    return preorder, tuple(len(children.get(v, ())) for v in preorder)


def rho(perm):
    """Ordered tree of a 123-avoiding permutation of [n] (n edges).

    Each segment's entries are joined to the vertex one below the segment's
    leading minimum; the root is 0 and children are ordered increasingly,
    then labels are erased.
    """
    _check_permutation(perm)
    if contains_123(perm):
        raise ValueError(f"{format_word(perm)} contains 123")
    # Each entry hangs below a vertex smaller than itself, so a permutation
    # of 1..n always gives a tree on 0..n.
    return OrderedTree(_grow(perm)[1])


def left_path_order(tree):
    """The preorder indices of tree in leftmost-path label order, the root (0) first.

    Walking the list as it grows, each vertex labels the leftmost path down
    from each of its unlabelled children, left to right, with the next
    labels: all children of the root, and children[1:] of any other vertex,
    whose first child was labelled on its own path.  So the first child of
    the parent labelled i is labelled i + 1.  In preorder a leftmost path
    is a run of consecutive indices, ending at the first leaf.
    """
    shape = tree.shape
    children, open_ = [[] for _ in shape], []  # open_: parents still missing children
    for vertex, count in enumerate(shape):
        if open_:
            parent = open_[-1]
            children[parent].append(vertex)
            if len(children[parent]) == shape[parent]:
                open_.pop()
        if count:
            open_.append(vertex)
    order = [0]
    for i, vertex in enumerate(order):
        for child in children[vertex][1 if i else 0 :]:
            leaf = child
            while shape[leaf]:
                leaf += 1
            order += range(child, leaf + 1)
    return order


def _rho_inverse(tree):
    """rho_inverse(tree), and the vertices of tree in leftmost-path label order.

    The left-to-right minima are the labels i + 1 with order[i] a parent,
    and the family of the minimum m is order[m - 1].
    """
    order = left_path_order(tree)
    family = [tree.shape[vertex] for vertex in order]
    labels = range(len(order) - 1, 0, -1)
    fillers = iter([m for m in labels if not family[m - 1]])
    out = []
    for m in labels:
        if family[m - 1]:
            out.append(m)
            out.extend(islice(fillers, family[m - 1] - 1))
    return tuple(out), order


def rho_inverse(tree):
    """Recover the 123-avoiding permutation from an ordered tree.

    Under the leftmost-path labels, the leftmost child of every parent is a
    left-to-right minimum and the parent's family size is the length of
    that minimum's segment; all remaining entries decrease left to right.
    """
    return _rho_inverse(tree)[0]


# -- favorite-child composite -------------------------------------------------


def to_fc_tree(pair):
    """Map (p, s) onto the ordered tree rho(p) with favorites read off s.

    The parent of the i-th minimum m_i is the vertex m_i - 1; its family is
    the i-th segment, and s_i becomes the favorite index there.
    """
    perm, s = pair
    _check_pair(perm, s, "123")
    favorite = {m - 1: si for m, si in zip(lr_minima(perm), s)}
    preorder, shape = _grow(perm)
    return FCOrderedTree(shape, tuple(map(favorite.get, preorder)))


def from_fc_tree(tree):
    """Inverse of to_fc_tree."""
    perm, order = _rho_inverse(tree)
    return perm, tuple(tree.favorites[order[m - 1]] for m in lr_minima(perm))


def fc_involution(tree):
    """Reverse the age ranking of every favorite child (an involution)."""
    return FCOrderedTree(tree.shape, tuple(
        None if favorite is None else count + 1 - favorite
        for count, favorite in zip(tree.shape, tree.favorites)
    ))


# -- exhaustive verification helpers -----------------------------------------


def _report(domain, forward, inverse, transported, codomain):
    """The objects of domain "checked", and the "round trip" and "transport" failures.

    An object x fails the round trip when inverse(forward(x)) is not x, and
    otherwise fails transport when transported(x, forward(x)) is false.
    Each image outside codomain, and each member of codomain that is no
    image, is one more round-trip failure, so a clean report means the map
    is onto codomain and, with as many objects as members, one to one.
    """
    checked = round_trip = transport = 0
    images = set()
    for x in domain:
        checked += 1
        image = forward(x)
        images.add(image)
        if inverse(image) != x:
            round_trip += 1
        elif not transported(x, image):
            transport += 1
    round_trip += len(images ^ set(codomain))
    return {"checked": checked, "round trip": round_trip, "transport": transport}


def verify_phi(n):
    """phi over all order-n 213-avoiders, onto the ternary trees with n-1 edges."""

    def transported(word, tree):
        s = stats(word)
        return tree.edge_counts() == (n - s.aasc, n - s.plat, n - s.ades)

    return _report(generate_avoiders(n, (P213,)), phi, phi_inverse, transported,
                   ternary_trees(n - 1))


def verify_psi(n, family):
    """psi over one class, onto its pairs, with its plateau/descent bookkeeping."""
    pattern, _ = _family(family)

    def transported(word, pair):
        perm, s = pair
        comp, st = composition_of(perm), stats(word)
        return st.plat == n - len(comp) + s.count(1) and (
            family == "132" or st.ades == n - len(comp) + sum(x == c for x, c in zip(s, comp)))

    return _report(generate_avoiders(n, (pattern,)), psi, lambda pair: psi_inverse(pair, family),
                   transported, apairs(n, pattern))


def verify_rho(n):
    """rho over the 123-avoiding permutations of [n], onto the n-edge ordered trees.

    Transport: the segment lengths, right to left, are the family sizes in
    leftmost-path label order.
    """

    def transported(perm, tree):
        families = (tree.shape[v] for v in left_path_order(tree))
        return composition_of(perm)[::-1] == tuple(c for c in families if c)

    return _report(avoiding_permutations(n, P123), rho, rho_inverse, transported,
                   ordered_trees(n))


def verify_fc(n):
    """The favorite-child composite over the 123 pairs, onto the fc trees.

    Transport: fc_involution is an involution, conjugate to involution_pair.
    """

    def transported(pair, tree):
        flipped = fc_involution(tree)
        return fc_involution(flipped) == tree and to_fc_tree(involution_pair(pair)) == flipped

    return _report(apairs(n, P123), to_fc_tree, from_fc_tree, transported, fc_trees(n))

