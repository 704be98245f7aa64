"""Rooted tree structures used by the bijections.

Ternary trees have three ordered optional child slots (left, vertical,
right); ordered trees have an arbitrary ordered child list; favorite-child
trees additionally mark one child per parent.  All are frozen dataclass
values compared structurally, so a favorite-child tree never equals a plain
ordered tree.  Each is written as a parenthesis string by ``serialize``,
and ``parse`` accepts exactly what ``serialize`` writes (blanks around the
whole string aside): any other text raises ValueError.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

# "(", "-" (an empty ternary slot), "," and ")", which ":k" follows after a
# favorite-child parent.  Anything else is skipped here and caught by the
# round trip in parse.
_TOKEN = re.compile(r"[(,-]|\)(?::(\d+))?")


class _Tree:
    """parse and repr for the tree classes, both by way of serialize."""

    __slots__ = ()

    @classmethod
    def parse(cls, text):
        """The tree whose serialize() is text.

        cls._node builds each vertex from the children read and the k of
        its "):k".  Whatever it drops or fills in makes the round trip
        differ, so any text that serialize would not write raises ValueError.
        """
        text = text.strip()
        stack = [[]]  # the children read so far of each open vertex
        for token in _TOKEN.finditer(text):
            kind = token.group()[0]
            if kind == "(":
                stack.append([])
            elif kind == "-":
                stack[-1].append(None)
            elif kind == ")" and len(stack) > 1:
                favorite = token.group(1)
                kids = stack.pop()
                stack[-1].append(cls._node(kids, favorite and int(favorite)))
        tree = stack[0][0] if len(stack) == 1 and len(stack[0]) == 1 else None
        if tree is None or tree.serialize() != text:
            raise ValueError(f"not a serialized {cls.__name__}: {text!r}")
        return tree

    def __repr__(self):
        return self.serialize()


@dataclass(frozen=True, slots=True, repr=False)
class TernaryTree(_Tree):
    """Vertex with three optional subtrees.  A single vertex has none."""

    left: TernaryTree | None = None
    vertical: TernaryTree | None = None
    right: TernaryTree | None = None

    @classmethod
    def _node(cls, kids, favorite):
        return cls(*kids[:3])

    def slots(self):
        return (self.left, self.vertical, self.right)

    def edges(self):
        return sum(child.edges() + 1 for child in self.slots() if child is not None)

    def edge_counts(self):
        """Total numbers of (left, vertical, right) edges in the whole tree."""
        counts = [0, 0, 0]
        for i, child in enumerate(self.slots()):
            if child is None:
                continue
            counts[i] += 1
            sub = child.edge_counts()
            for j in range(3):
                counts[j] += sub[j]
        return tuple(counts)

    def serialize(self):
        """3-slot form with '-' marking an empty slot, e.g. "(-,(-,-,-),-)"."""
        # A list, not a generator: a level then costs two frames of the
        # recursion limit, as in edges(), so parse reaches as deep as the maps.
        parts = ["-" if c is None else c.serialize() for c in self.slots()]
        return "(" + ",".join(parts) + ")"


@lru_cache(maxsize=None)
def ternary_trees(m):
    """All ternary trees with m edges, as a tuple (cached)."""
    out = []
    for wl in range(m + 1):
        for wv in range(m + 1 - wl):
            wr = m - wl - wv
            for left in _slot_options(wl):
                for vert in _slot_options(wv):
                    for right in _slot_options(wr):
                        out.append(TernaryTree(left, vert, right))
    return tuple(out)


def _slot_options(weight):
    if weight == 0:
        return (None,)
    return ternary_trees(weight - 1)


@dataclass(frozen=True, slots=True, repr=False)
class OrderedTree(_Tree):
    """Vertex with an ordered tuple of subtrees."""

    children: tuple = ()

    @classmethod
    def _node(cls, kids, favorite):
        return cls(tuple(k for k in kids if k is not None))

    def edges(self):
        return sum(child.edges() + 1 for child in self.children)

    def serialize(self):
        return "(" + "".join([c.serialize() for c in self.children]) + ")"


@lru_cache(maxsize=None)
def ordered_trees(n):
    """All ordered trees with n edges (Catalan many), as a tuple (cached)."""
    if n == 0:
        return (OrderedTree(),)
    out = []
    for k in range(n):
        for first in ordered_trees(k):
            for rest in ordered_trees(n - 1 - k):
                out.append(OrderedTree((first,) + rest.children))
    return tuple(out)


@dataclass(frozen=True, slots=True, repr=False)
class FCOrderedTree(OrderedTree):
    """Ordered tree in which every parent marks a favorite child (1-based)."""

    favorite: int | None = None

    def __post_init__(self):
        if self.children and not 1 <= (self.favorite or 0) <= len(self.children):
            raise ValueError("parent needs a favorite child index in range")
        if not self.children and self.favorite is not None:
            raise ValueError("leaf cannot have a favorite child")

    @classmethod
    def _node(cls, kids, favorite):
        return cls(tuple(k for k in kids if k is not None), favorite)

    def serialize(self):
        """Parenthesis string with ':k' after every parent, e.g. "(()()):2"."""
        body = "(" + "".join([c.serialize() for c in self.children]) + ")"
        if self.children:
            body += f":{self.favorite}"
        return body


def fc_trees(n):
    """All favorite-child trees with n edges."""
    return tuple(tree for shape in ordered_trees(n) for tree in _decorate(shape))


def _decorate(shape):
    """Every favorite-child marking of one ordered tree."""
    if not shape.children:
        return (FCOrderedTree(),)
    return tuple(
        FCOrderedTree(kids, fav)
        for kids in product(*map(_decorate, shape.children))
        for fav in range(1, len(kids) + 1)
    )
