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
    t = TernaryTree(TernaryTree(), None, TernaryTree(None, TernaryTree(), None))
    assert t.edges() == 3
    assert t.edge_counts() == (1, 1, 1)
    assert TernaryTree().edges() == 0


def test_ternary_serialization():
    assert TernaryTree().serialize() == "(-,-,-)"
    t = TernaryTree(None, TernaryTree(), None)
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
            assert t.edges() == n
            assert len(left_path_order(t)) == n + 1


def test_ordered_serialization():
    assert OrderedTree().serialize() == "()"
    two_leaves = OrderedTree((OrderedTree(), OrderedTree()))
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
    parent = FCOrderedTree((leaf, leaf), 2)
    assert parent.serialize() == "(()()):2"
    assert FCOrderedTree.parse("(()()):2") == parent
    nested = FCOrderedTree((parent, leaf), 1)
    assert FCOrderedTree.parse(nested.serialize()) == nested
    with pytest.raises(ValueError):
        FCOrderedTree((leaf,), 2)
    with pytest.raises(ValueError):
        FCOrderedTree((leaf,), None)
    with pytest.raises(ValueError):
        FCOrderedTree((), 1)
    for text in ("(()())", "(()):01", "(()):0", "(()()):3", "():1", "(():1)"):
        with pytest.raises(ValueError):
            FCOrderedTree.parse(text)
    # an FC tree never equals the plain ordered tree of its shape
    assert parent != OrderedTree((OrderedTree(), OrderedTree()))
    assert leaf != OrderedTree()

