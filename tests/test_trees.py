import pickle

import pytest

from stirperm.bijections import left_path_order
from stirperm.formulas import count_avoid_123, count_avoid_213
from stirperm.trees import (
    FCOrderedTree,
    OrderedTree,
    TernaryTree,
    fc_trees,
    ordered_trees,
    ternary_trees,
)

CATALAN = [1, 1, 2, 5, 14, 42, 132]


def test_ternary_tree_counts():
    # m-edge ternary trees are equinumerous with 213-avoiders of order m+1
    for m in range(5):
        assert len(ternary_trees(m)) == count_avoid_213(m + 1)
        assert len(set(ternary_trees(m))) == len(ternary_trees(m))


def test_ternary_edges_and_counts():
    # a left leaf, and a right child with a vertical leaf
    t = TernaryTree((5, 0, 2, 0))
    assert TernaryTree.parse("((-,-,-),-,(-,(-,-,-),-))") == t
    assert len(t.shape) - 1 == 3
    assert t.edge_counts() == (1, 1, 1)
    assert TernaryTree() == TernaryTree((0,))
    assert TernaryTree().edge_counts() == (0, 0, 0)


def test_ternary_serialization():
    assert TernaryTree().serialize() == "(-,-,-)"
    t = TernaryTree((2, 0))
    assert t.serialize() == "(-,(-,-,-),-)"
    for tree in ternary_trees(3):
        assert TernaryTree.parse(tree.serialize()) == tree
    # parse accepts exactly what serialize writes
    for text in ("(-,-)", "(-,-,-)x", "(-,-,-,-)", "(-,-,-", "()", "(-, -,-)", "(-,-,-):1"):
        with pytest.raises(ValueError):
            TernaryTree.parse(text)


def test_ordered_tree_counts():
    for n in range(7):
        assert len(ordered_trees(n)) == CATALAN[n]


def test_ordered_tree_edges_vertices():
    for n in range(5):
        for t in ordered_trees(n):
            assert len(t.shape) == n + 1
            assert len(left_path_order(t)) == n + 1


def test_ordered_serialization():
    assert OrderedTree().serialize() == "()"
    two_leaves = OrderedTree((2, 0, 0))
    assert two_leaves.serialize() == "(()())"
    for t in ordered_trees(5):
        assert OrderedTree.parse(t.serialize()) == t
    for text in ("((),())", "(-)", "(()):1", "()()", "(()", ""):
        with pytest.raises(ValueError):
            OrderedTree.parse(text)


def test_fc_tree_counts():
    # favorite-child trees with n edges are counted like 123-avoiders
    for n in range(6):
        trees = fc_trees(n)
        assert len(trees) == count_avoid_123(n)
        assert len(set(trees)) == len(trees)


def test_fc_tree_validation_and_serialization():
    leaf = FCOrderedTree()
    assert leaf.serialize() == "()"
    parent = FCOrderedTree((2, 0, 0), (2, None, None))
    assert parent.serialize() == "(()()):2"
    assert FCOrderedTree.parse("(()()):2") == parent
    nested = FCOrderedTree((2, 2, 0, 0, 0), (1, 2, None, None, None))
    assert nested.serialize() == "((()()):2()):1"
    assert FCOrderedTree.parse(nested.serialize()) == nested
    with pytest.raises(ValueError):
        FCOrderedTree((1, 0), (2, None))
    with pytest.raises(ValueError):
        FCOrderedTree((1, 0), (None, None))
    with pytest.raises(ValueError):
        FCOrderedTree((0,), (1,))
    with pytest.raises(ValueError):
        FCOrderedTree((1, 0), (1,))  # one favorite entry per vertex
    for text in ("(()())", "(()):01", "(()):0", "(()()):3", "():1", "(():1)"):
        with pytest.raises(ValueError):
            FCOrderedTree.parse(text)
    # an FC tree never equals the plain ordered tree of its shape
    assert parent != OrderedTree((2, 0, 0))
    assert leaf != OrderedTree()


@pytest.mark.parametrize("make", [
    lambda: TernaryTree((5, 0, 2, 0)),
    lambda: OrderedTree((2, 1, 0, 0)),
    lambda: FCOrderedTree((2, 1, 0, 0), (2, 1, None, None)),
], ids=["ternary", "ordered", "fc"])
def test_trees_are_frozen_values(make):
    one, other = make(), make()
    assert one is not other and one == other and hash(one) == hash(other)
    assert not one != other and len({one, other}) == 1
    with pytest.raises(AttributeError):
        one.shape = (0,)
    with pytest.raises(AttributeError):
        del one.shape
    assert one == other
    assert pickle.loads(pickle.dumps(one)) == one


def test_trees_of_different_classes_never_compare_equal():
    assert TernaryTree((0,)) != OrderedTree((0,))
    assert OrderedTree((0,)) != TernaryTree((0,))
    for shape, favorites in [((0,), (None,)), ((2, 0, 0), (1, None, None))]:
        assert FCOrderedTree(shape, favorites) != OrderedTree(shape)
        assert OrderedTree(shape) != FCOrderedTree(shape, favorites)
    # equal shapes with different favorites differ
    assert FCOrderedTree((2, 0, 0), (1, None, None)) != FCOrderedTree((2, 0, 0), (2, None, None))


def test_tokens_name_the_vertex_that_writes_each_token():
    tree = FCOrderedTree((2, 1, 0, 0), (2, 1, None, None))
    assert list(tree.tokens()) == [
        ("(", 0), ("(", 1), ("(", 2), (")", 2), ("):1", 1), ("(", 3), (")", 3), ("):2", 0),
    ]
    assert list(TernaryTree((4, 0)).tokens()) == [
        ("(", 0), ("(", 1), ("-", 1), (",", 1), ("-", 1), (",", 1), ("-", 1), (")", 1),
        (",", 0), ("-", 0), (",", 0), ("-", 0), (")", 0),
    ]


DEEP = 10_000


@pytest.mark.parametrize("cls, text", [
    (TernaryTree, "(-," * DEEP + "(-,-,-)" + ",-)" * DEEP),
    (OrderedTree, "(" * (DEEP + 1) + ")" * (DEEP + 1)),
    (FCOrderedTree, "(" * (DEEP + 1) + ")" + "):1" * DEEP),
], ids=["ternary", "ordered", "fc"])
def test_equal_deep_trees_compare_and_hash_equal(recursion_room, cls, text):
    with recursion_room():
        one, other = cls.parse(text), cls.parse(text)
        assert one is not other and one.shape is not other.shape
        assert one == other and hash(one) == hash(other)
        assert len(one.shape) == DEEP + 1
        assert one.serialize() == text
