import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stirperm.bijections import (
    _report,
    apairs,
    avoiding_permutations,
    composition_of,
    fc_involution,
    from_fc_tree,
    involution_pair,
    left_path_order,
    lr_minima,
    phi,
    phi_inverse,
    psi,
    psi_inverse,
    rho,
    rho_inverse,
    to_fc_tree,
    verify_fc,
    verify_phi,
    verify_psi,
    verify_rho,
)
from stirperm.cli import _format_pair, _parse_pair
from stirperm.errors import InvalidPair, NotAvoider
from stirperm.formulas import count_avoid_123, count_avoid_213, plateau_poly_123
from stirperm.generation import generate_all, generate_avoiders
from stirperm.polynomials import Polynomial
from stirperm.trees import (
    FCOrderedTree,
    OrderedTree,
    TernaryTree,
    fc_trees,
    ordered_trees,
    ternary_trees,
)
from stirperm.words import contains, first_occurrences, format_word, stats

P213, P123, P132 = (2, 1, 3), (1, 2, 3), (1, 3, 2)

EXAMPLE_PERM = (15, 16, 12, 9, 14, 13, 8, 7, 11, 4, 3, 1, 10, 6, 5, 2)


def test_phi_base_cases():
    assert phi((1, 1)) == TernaryTree()
    assert phi((1, 2, 2, 1)) == TernaryTree((2, 0))
    assert phi((2, 2, 1, 1)) == TernaryTree((4, 0))
    assert phi((1, 1, 2, 2)) == TernaryTree((1, 0))
    assert phi_inverse(TernaryTree()) == (1, 1)


def test_phi_rejects():
    with pytest.raises(NotAvoider):
        phi((1, 2, 2, 1, 3, 3))  # contains 213 via 2,1,3
    with pytest.raises(ValueError):
        phi((1, 2, 1, 2))
    with pytest.raises(ValueError):
        phi(())


def test_phi_avoidance_check_agrees_with_contains():
    # every Stirling permutation of order 1..6: 11,464 words, 10,395 at order 6
    for n in range(1, 7):
        for word in generate_all(n):
            try:
                phi(word)
            except NotAvoider as exc:
                assert contains(word, P213), format_word(word)
                assert str(exc) == f"{format_word(word)} contains 213"
            else:
                assert not contains(word, P213), format_word(word)


def test_phi_round_trip_and_count():
    for n in range(1, 6):
        assert verify_phi(n) == {"checked": count_avoid_213(n), "round trip": 0, "transport": 0}


def test_phi_bijective_onto_trees():
    for n in range(1, 5):
        images = {phi(w) for w in generate_avoiders(n, (P213,))}
        assert images == set(ternary_trees(n - 1))
        for tree in ternary_trees(n - 1):
            assert phi(phi_inverse(tree)) == tree


def test_phi_edge_statistic_transport():
    for n in range(1, 6):
        for word in generate_avoiders(n, (P213,)):
            s = stats(word)
            assert phi(word).edge_counts() == (n - s.aasc, n - s.plat, n - s.ades)


def test_phi_symmetry_pullback():
    # permuting edge-type axes leaves the joint statistic distribution fixed
    from itertools import permutations

    for n in range(1, 6):
        dist = {}
        for word in generate_avoiders(n, (P213,)):
            s = stats(word)
            key = (s.aasc, s.plat, s.ades)
            dist[key] = dist.get(key, 0) + 1
        tree_dist = {}
        for tree in ternary_trees(n - 1):
            key = tuple(n - c for c in tree.edge_counts())
            tree_dist[key] = tree_dist.get(key, 0) + 1
        assert dist == tree_dist
        for axes in permutations(range(3)):
            permuted = {}
            for key, v in dist.items():
                permuted[tuple(key[a] for a in axes)] = (
                    permuted.get(tuple(key[a] for a in axes), 0) + v
                )
            assert permuted == dist


def test_composition_examples():
    assert composition_of((4, 6, 5, 2, 1, 3)) == (3, 1, 2)
    assert lr_minima((4, 6, 5, 2, 1, 3)) == (4, 2, 1)
    assert composition_of((1, 2, 3, 4, 5)) == (5,)
    assert composition_of((5, 4, 3, 2, 1)) == (1, 1, 1, 1, 1)


def test_psi_examples():
    assert psi((1, 2, 2, 1)) == ((1, 2), (2,))
    assert psi((1, 1, 2, 2)) == ((1, 2), (1,))
    assert psi((2, 2, 1, 1)) == ((2, 1), (1, 1))
    # quoted segment fragments: an adjacent pair gives 1 distinct letter,
    # a pair bracketing one other value gives 2
    assert psi((7, 7)) == ((7,), (1,))
    assert psi((7, 10, 10, 7)) == ((7, 10), (2,))


def test_psi_inverse_base_case():
    assert psi_inverse(((1,), (1,)), "123") == (1, 1)


def test_psi_round_trips():
    for n in range(1, 6):
        for family in ("123", "132"):
            report = verify_psi(n, family)
            assert report["round trip"] == report["transport"] == 0, (n, family)


def test_psi_inverse_132_order_two():
    built = {psi_inverse(pair, "132") for pair in apairs(2, P132)}
    assert built == {(1, 1, 2, 2), (1, 2, 2, 1), (2, 2, 1, 1)}


def test_psi_inverse_errors():
    with pytest.raises(InvalidPair):
        psi_inverse(((1, 2, 3), (1, 1)), "123")  # contains 123
    with pytest.raises(InvalidPair):
        psi_inverse(((1, 3, 2), (1, 1)), "132")  # contains 132
    with pytest.raises(InvalidPair):
        psi_inverse(((2, 1), (1,)), "123")  # wrong sequence length
    with pytest.raises(InvalidPair):
        psi_inverse(((2, 1), (2, 1)), "123")  # entry above its bound


def test_apairs_cardinality():
    for n in range(1, 7):
        assert len(apairs(n, P123)) == count_avoid_123(n)
        assert len(apairs(n, P132)) == count_avoid_123(n)


def test_involution_examples():
    perm = (4, 6, 5, 2, 1, 3)
    assert involution_pair((perm, (3, 1, 1))) == (perm, (1, 1, 2))
    for pair in apairs(5, P123):
        assert involution_pair(involution_pair(pair)) == pair


def test_involution_statistic_swap():
    for n in range(1, 6):
        for word in generate_avoiders(n, (P123,)):
            swapped = psi_inverse(involution_pair(psi(word)), "123")
            s, s2 = stats(word), stats(swapped)
            assert s2.plat == s.ades
            assert s2.ades == s.plat


def test_psi_statistic_formulas():
    for n in range(1, 6):
        for pattern in (P123, P132):
            for word in generate_avoiders(n, (pattern,)):
                perm, s = psi(word)
                comp = composition_of(perm)
                st = stats(word)
                assert st.plat == n - len(comp) + sum(1 for x in s if x == 1)
                if pattern == P123:
                    assert st.ades == n - len(comp) + sum(
                        1 for x, c in zip(s, comp) if x == c
                    )


def test_plateau_marginal_via_psi_132():
    # plateau counts of 132-avoiders recovered purely from the pair encoding
    n = 5
    terms = {}
    for perm in avoiding_permutations(n, P132):
        comp = composition_of(perm)
        from itertools import product

        for s in product(*[range(1, c + 1) for c in comp]):
            plat = n - len(comp) + sum(1 for x in s if x == 1)
            terms[(plat,)] = terms.get((plat,), 0) + 1
    assert Polynomial(("p",), terms) == plateau_poly_123(n)


def test_rho_single():
    assert rho((1,)).serialize() == "(())"
    assert rho_inverse(rho((1,))) == (1,)


def test_rho_worked_example():
    tree = rho(EXAMPLE_PERM)
    assert len(tree.shape) == 17
    assert rho_inverse(tree) == EXAMPLE_PERM
    order = left_path_order(tree)
    assert sorted(order) == list(range(17))
    # family sizes by left-path label: parents 0,2,3,6,7,8,11,14
    parents = {lab: tree.shape[v] for lab, v in enumerate(order) if tree.shape[v]}
    assert parents == {0: 5, 2: 1, 3: 1, 6: 2, 7: 1, 8: 3, 11: 1, 14: 2}
    # segment lengths right to left equal family sizes in label order
    assert [parents[k] for k in sorted(parents)] == [5, 1, 1, 2, 1, 3, 1, 2]


def test_left_path_order_simple_shapes():
    # preorder indices: a chain is 0, 1, 2 and a star 0, 1, 2, 3
    assert left_path_order(OrderedTree.parse("((()))")) == [0, 1, 2]
    assert left_path_order(OrderedTree.parse("(()()())")) == [0, 1, 2, 3]
    # the root's second child (4) is labelled before the first child's second child (3)
    assert left_path_order(OrderedTree.parse("((()())())")) == [0, 1, 2, 4, 3]


def comb(m):
    """A path of m + 1 vertices, each but the last with a leaf after its path child."""
    return OrderedTree((2,) * m + (0,) * (m + 1))


def test_rho_inverse_round_trips_a_600_edge_comb():
    tree = comb(300)
    assert tree.serialize() == "(" * 301 + ")()" * 300 + ")"
    perm = rho_inverse(tree)
    assert sorted(perm) == list(range(1, 601))
    assert rho(perm) == tree


def test_rho_round_trips():
    for n in range(1, 7):
        catalan = math.comb(2 * n, n) // (n + 1)
        assert verify_rho(n) == {"checked": catalan, "round trip": 0, "transport": 0}
    assert len(avoiding_permutations(6, P123)) == len(ordered_trees(6))


def test_rho_rejects():
    with pytest.raises(NotAvoider):
        rho((1, 2, 3))


def test_fc_composite():
    for n in range(1, 6):
        assert verify_fc(n) == {"checked": count_avoid_123(n), "round trip": 0, "transport": 0}
        assert len(fc_trees(n)) == count_avoid_123(n)


# -- the shared walk, on a toy map: x -> x + 10 on 0..4 ----------------------


def _toy_report(**changes):
    parts = {"domain": range(5), "forward": lambda x: x + 10, "inverse": lambda y: y - 10,
             "transported": lambda x, y: y - x == 10, "codomain": range(10, 15), **changes}
    return _report(**parts)


@pytest.mark.parametrize("changes, round_trip, transport", [
    pytest.param({}, 0, 0, id="clean"),
    pytest.param({"inverse": lambda y: 0 if y == 12 else y - 10}, 1, 0, id="not-brought-back"),
    pytest.param({"transported": lambda x, y: x != 3}, 0, 1, id="broken-transport"),
    pytest.param({"codomain": range(10, 16)}, 1, 0, id="missing-image"),  # 15 is no image
    pytest.param({"codomain": range(10, 14)}, 1, 0, id="foreign-image"),  # 14 is outside
])
def test_the_walk_files_each_failure_under_its_own_key(changes, round_trip, transport):
    report = _toy_report(**changes)
    assert report == {"checked": 5, "round trip": round_trip, "transport": transport}


def test_fc_round_trip_and_conjugacy():
    for pair in apairs(4, P123):
        tree = to_fc_tree(pair)
        assert from_fc_tree(tree) == pair
        assert fc_involution(fc_involution(tree)) == tree
        assert to_fc_tree(involution_pair(pair)) == fc_involution(tree)


# -- seeded property tests at orders 20..40, far beyond the exhaustive ones --


@st.composite
def avoiders(draw, pattern, orders=(20, 40)):
    """An avoider of order 20..40 (or in orders) grown by inserting k, k for k = 1, 2, ...

    Each pair goes into the first gap, scanning cyclically from a drawn one,
    that keeps the word avoiding the pattern (checked with words.contains).
    The front gap always does, as the largest letter there cannot play any
    letter of 213, 123 or 132.
    """
    word = ()
    for k in range(1, draw(st.integers(*orders)) + 1):
        start, size = draw(st.integers(0, len(word))), len(word) + 1
        for pos in ((start + i) % size for i in range(size)):
            child = word[:pos] + (k, k) + word[pos:]
            if not contains(child, pattern):
                break
        word = child
    return word


PROPERTY = settings(derandomize=True, max_examples=12, deadline=None)


@PROPERTY
@given(avoiders(P213))
def test_phi_round_trip_and_transport_at_large_orders(word):
    n, s = len(word) // 2, stats(word)
    tree = phi(word)
    assert phi_inverse(tree) == word
    assert tree.edge_counts() == (n - s.aasc, n - s.plat, n - s.ades)


@pytest.mark.parametrize("family, pattern", [("123", P123), ("132", P132)])
@PROPERTY
@given(data=st.data())
def test_psi_round_trip_and_transport_at_large_orders(family, pattern, data):
    word = data.draw(avoiders(pattern))
    n, t = len(word) // 2, stats(word)
    perm, s = psi(word)
    assert psi_inverse((perm, s), family) == word
    comp = composition_of(perm)
    assert len(s) == len(comp) and all(1 <= x <= c for x, c in zip(s, comp))
    assert t.plat == n - len(comp) + sum(1 for x in s if x == 1)
    if family == "123":
        assert t.ades == n - len(comp) + sum(1 for x, c in zip(s, comp) if x == c)


@PROPERTY
@given(avoiders(P123))
def test_rho_round_trip_and_transport_at_large_orders(word):
    perm = first_occurrences(word)
    tree = rho(perm)
    assert len(tree.shape) == len(perm) + 1
    assert rho_inverse(tree) == perm
    assert rho(rho_inverse(tree)) == tree
    # segment lengths right to left are the family sizes in leftmost-path label order
    families = [tree.shape[v] for v in left_path_order(tree) if tree.shape[v]]
    assert list(reversed(composition_of(perm))) == families


# -- serialisations parse back exactly, on the images of orders 20..60 --------

LARGE = (20, 60)


def assert_round_trip(value, text, parse, form):
    assert form(value) == text
    assert parse(text) == value
    assert form(parse(text)) == text


@PROPERTY
@given(avoiders(P213, LARGE))
def test_ternary_tree_serialisation_round_trips(word):
    tree = phi(word)
    assert_round_trip(tree, tree.serialize(), TernaryTree.parse, TernaryTree.serialize)


@PROPERTY
@given(avoiders(P123, LARGE))
def test_ordered_and_fc_tree_serialisations_round_trip(word):
    tree = rho(first_occurrences(word))
    assert_round_trip(tree, tree.serialize(), OrderedTree.parse, OrderedTree.serialize)
    fc = to_fc_tree(psi(word))
    assert_round_trip(fc, fc.serialize(), FCOrderedTree.parse, FCOrderedTree.serialize)


@PROPERTY
@given(avoiders(P123, LARGE))
def test_pair_form_round_trips(word):
    perm, s = psi(word)
    text = ",".join(map(str, perm)) + "|" + ",".join(map(str, s))
    assert_round_trip((perm, s), text, _parse_pair, _format_pair)


# -- flat trees: byte identity with the nested encoding, and any depth --------

# SHA-256 of the lines below as written by the nested-dataclass trees that
# the flat preorder tuples replaced.
TREE_DIGEST = "d82d25303d46869732c55432a39248697606f50507c0e092477f3a016ce50354"


def test_tree_generators_and_map_images_are_byte_identical():
    lines = []
    for m in range(5):
        lines += [t.serialize() for t in ternary_trees(m)]
    for n in range(7):
        lines += [t.serialize() for t in ordered_trees(n)]
    for n in range(5):
        lines += sorted(t.serialize() for t in fc_trees(n))
    for n in range(1, 6):
        lines += [phi(w).serialize() for w in generate_avoiders(n, (P213,))]
    for n in range(1, 7):
        lines += [rho(p).serialize() for p in avoiding_permutations(n, P123)]
    for n in range(1, 5):
        for pair in apairs(n, P123):
            tree = to_fc_tree(pair)
            lines += [tree.serialize(), fc_involution(tree).serialize()]
    assert len(lines) == 1235
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == TREE_DIGEST


def vertical_chain(depth):
    """phi's preimage of a chain of depth vertical edges: 1..d+1 d+1..1."""
    up = tuple(range(1, depth + 2))
    return up + up[::-1]


@pytest.mark.parametrize("depth", [2_000, 10_000])
def test_deep_trees_round_trip_without_recursion(recursion_room, depth):
    decreasing = tuple(range(depth, 0, -1))
    path = OrderedTree((1,) * depth + (0,))
    with recursion_room():
        tree = TernaryTree.parse("(-," * depth + "(-,-,-)" + ",-)" * depth)
        assert phi_inverse(tree) == vertical_chain(depth)
        assert rho_inverse(path) == decreasing
        fc = FCOrderedTree(path.shape, (1,) * depth + (None,))
        assert from_fc_tree(fc) == (decreasing, (1,) * depth)
        assert fc_involution(fc) == fc
        assert phi(vertical_chain(depth)) == tree
        assert rho(decreasing) == path
        assert to_fc_tree((decreasing, (1,) * depth)) == fc
