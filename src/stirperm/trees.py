"""Rooted tree structures used by the bijections.

Ternary trees have three ordered optional child slots (left, vertical,
right); ordered trees have an arbitrary ordered child list; favorite-child
trees additionally mark one child per parent.

Each tree is stored flat, as its vertices in preorder: the Lukasiewicz word
of the tree (Knuth, TAOCP Vol. 4A, section 7.2.1.6).  ``OrderedTree.shape``
holds each vertex's number of children, ``FCOrderedTree.favorites`` each
vertex's favorite child (1-based, None at a leaf), and ``TernaryTree.shape``
each vertex's slot mask: 4 for a left child, 2 for a vertical one and 1 for
a right one.  A vertex's first child, if any, is the next vertex, so a
leftmost path is a run of consecutive indices.  The trees are frozen
values: slotted, refusing assignment, equal when of the same class with
equal field tuples and hashed by that tuple, so equality and hashing are
tuple operations at any depth, and a favorite-child tree never equals a
plain ordered tree.

Every tree is written as a parenthesis string by ``serialize``, from one
iterative walk (``tokens``), and ``parse`` accepts exactly what
``serialize`` writes (blanks around the whole string aside): any other text
raises ValueError.  No function here recurses.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import product

# "(", "-" (an empty ternary slot), "," and ")", which ":k" follows after a
# favorite-child parent.  Anything else is skipped here and caught by the
# round trip in parse.
_TOKEN = re.compile(r"[(,-]|\)(?::(\d+))?")


class _Tree:
    """The shape, value semantics, parse, tokens, serialize and repr of every tree."""

    __slots__ = ("shape",)

    def __init__(self, shape=(0,)):
        object.__setattr__(self, "shape", shape)

    def _fields(self):
        return (self.shape,)

    def __eq__(self, other):
        return type(other) is type(self) and self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is frozen")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._fields()

    @classmethod
    def parse(cls, text):
        """The tree whose serialize() is text.

        Each "(" opens the next vertex in preorder, a child of the innermost
        open one in the slot that the commas read so far name.  cls._tree
        builds the tree from each vertex's child count, slot mask and k of
        its "):k".  Whatever it drops makes the round trip differ, so any
        text that serialize would not write raises ValueError.
        """
        text = text.strip()
        counts, masks, favorites = [], [], []
        stack = []  # [vertex, slot] of each open vertex
        for token in _TOKEN.finditer(text):
            kind = token.group()[0]
            if kind == "(":
                if stack:
                    parent, slot = stack[-1]
                    counts[parent] += 1
                    masks[parent] |= 4 >> slot
                stack.append([len(counts), 0])
                counts.append(0)
                masks.append(0)
                favorites.append(None)
            elif kind == "," and stack:
                stack[-1][1] += 1
            elif kind == ")" and stack:
                favorite = token.group(1)
                favorites[stack.pop()[0]] = favorite and int(favorite)
        tree = cls._tree(counts, masks, favorites) if counts and not stack else None
        if tree is None or tree.serialize() != text:
            raise ValueError(f"not a serialized {cls.__name__}: {text!r}")
        return tree

    def tokens(self):
        """Yield (token, vertex) in the order serialize writes the tokens.

        The vertex is a preorder index: a vertex writes its own "(" and
        ")", the "," between its slots and the "-" of an empty slot.  One
        explicit stack holds the tokens each open vertex has still to write,
        "(" standing for its next child.
        """
        following = 0  # the next vertex to open
        stack = []
        token = "("
        while True:
            if token == "(":
                vertex, following = following, following + 1
                yield "(", vertex
                stack.append((vertex, iter(self._inside(vertex))))
            elif token is None:
                stack.pop()
                yield self._close(vertex), vertex
                if not stack:
                    return
            else:
                yield token, vertex
            vertex, inside = stack[-1]
            token = next(inside, None)

    def serialize(self):
        return "".join([token for token, _ in self.tokens()])

    def _close(self, vertex):
        return ")"

    def __repr__(self):
        return self.serialize()


# Between "(" and ")" of a ternary vertex, by slot mask: "(" is a child.
_TERNARY_INSIDE = tuple(
    ("(" if mask & 4 else "-", ",", "(" if mask & 2 else "-", ",", "(" if mask & 1 else "-")
    for mask in range(8)
)


class TernaryTree(_Tree):
    """Slot masks in preorder: 4 left, 2 vertical, 1 right.  (0,) is one vertex.

    Written in 3-slot form with '-' marking an empty slot, e.g. "(-,(-,-,-),-)".
    """

    __slots__ = ()

    @classmethod
    def _tree(cls, counts, masks, favorites):
        return cls(tuple(masks))

    def _inside(self, vertex):
        return _TERNARY_INSIDE[self.shape[vertex]]

    def edge_counts(self):
        """Total numbers of (left, vertical, right) edges in the whole tree."""
        return tuple(sum(1 for mask in self.shape if mask & bit) for bit in (4, 2, 1))


@lru_cache(maxsize=None)
def ternary_trees(m):
    """All ternary trees with m edges, as a tuple (cached).

    Ordered by the edge counts below the left, then the vertical slot, then
    by the left, vertical and right subtrees in that order.
    """
    slots = [((),)]  # slots[w]: the preorder slot contents of weight w; 0 is empty
    for k in range(m + 1):
        slots.append(tuple(
            (4 * (wl > 0) | 2 * (wv > 0) | (wl + wv < k),) + left + vertical + right
            for wl in range(k + 1)
            for wv in range(k + 1 - wl)
            for left in slots[wl]
            for vertical in slots[wv]
            for right in slots[k - wl - wv]
        ))
    return tuple(map(TernaryTree, slots[m + 1]))


class OrderedTree(_Tree):
    """Child counts in preorder.  (0,) is one vertex; written e.g. "(()())"."""

    __slots__ = ()

    @classmethod
    def _tree(cls, counts, masks, favorites):
        return cls(tuple(counts))

    def _inside(self, vertex):
        return ("(",) * self.shape[vertex]


@lru_cache(maxsize=None)
def _ordered_shapes(n):
    """The preorder child counts of every n-edge ordered tree.

    The first subtree of the root has k edges, k = 0..n-1, and the rest of
    the root's children with n-1-k edges hang after it.
    """
    shapes = [((0,),)]
    for size in range(1, n + 1):
        shapes.append(tuple(
            (1 + rest[0],) + first + rest[1:]
            for k in range(size)
            for first in shapes[k]
            for rest in shapes[size - 1 - k]
        ))
    return shapes[n]


@lru_cache(maxsize=None)
def ordered_trees(n):
    """All ordered trees with n edges (Catalan many), as a tuple (cached)."""
    return tuple(map(OrderedTree, _ordered_shapes(n)))


class FCOrderedTree(OrderedTree):
    """Ordered tree whose parents each mark a favorite child (1-based).

    favorites is None at a leaf; written with ':k' after every parent,
    e.g. "(()()):2".
    """

    __slots__ = ("favorites",)

    def __init__(self, shape=(0,), favorites=(None,)):
        for count, favorite in zip(shape, favorites, strict=True):
            if count and not 1 <= (favorite or 0) <= count:
                raise ValueError("parent needs a favorite child index in range")
            if not count and favorite is not None:
                raise ValueError("leaf cannot have a favorite child")
        super().__init__(shape)
        object.__setattr__(self, "favorites", favorites)

    def _fields(self):
        return self.shape, self.favorites

    @classmethod
    def _tree(cls, counts, masks, favorites):
        return cls(tuple(counts), tuple(favorites))

    def _close(self, vertex):
        favorite = self.favorites[vertex]
        return ")" if favorite is None else f"):{favorite}"


def fc_trees(n):
    """All favorite-child trees with n edges: each shape with each choice of favorites."""
    out = []
    for shape in _ordered_shapes(n):
        choices = [range(1, c + 1) if c else (None,) for c in shape]
        out += (FCOrderedTree(shape, favorites) for favorites in product(*choices))
    return tuple(out)
