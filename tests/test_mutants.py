"""Named faults in the program, and the verify rows that catch each.

A verify PASS means something only if the row would FAIL on a wrong
program (mutation analysis: DeMillo, Lipton and Sayward, "Hints on test
data selection", IEEE Computer, 1978).  Each mutant below replaces one or
two attributes of a module or a class, or one entry of series.EQUATIONS,
and `run_checks("all", 1..5)` must fail exactly the rows it names; the
unmutated program fails none, and every row fails under some mutant.
"""

import pytest

from stirperm import bijections, formulas, generation, series, trees, verification
from stirperm.generation import ASCENT, EMPTY, PLATEAU, ROOT, STEPS
from stirperm.polynomials import Polynomial

ORDERS = range(1, 6)  # verify's default orders


def _steps(kind, row):
    """STEPS with the (des, asc, plat) row of one gap kind replaced."""
    return tuple(row if k == kind else step for k, step in enumerate(STEPS))


def _adj122_off_on_a_split_plateau(parent, pos, kind, adj122=generation._adj122):
    return adj122(parent, pos, kind) + (kind == PLATEAU)


def _word_one_gap_right(parent, pos, kind):
    prev = parent[0]
    if kind == ROOT:
        return prev
    n = len(prev) // 2 + 1
    return prev[:pos + 1] + (n, n) + prev[pos + 1:]


def _no_bad_gap_left_of_the_word(word, rest, cut, split_gaps=generation.split_gaps):
    return split_gaps(word, rest, cut) & ~1


def _right_end_lost_past_a_bad_gap(node, splits, leaves=generation._leaves):
    kept, end = leaves(node, splits), len(node[0])
    if len(kept) == end + 1:  # every gap kept
        return kept
    return [leaf for leaf in kept if leaf[1] != end]


def _all_but_the_last_word(n, generate_all=generation.generate_all):
    words = list(generate_all(n))
    return words[:-1] if n >= 3 else words


def _count_avoid_123_off_at_4(n, count=formulas.count_avoid_123):
    return count(n) + (n == 4)


def _grow_children_decreasing(perm):
    """bijections._grow, with the stack popping the largest child first."""
    children = {segment[0] - 1: sorted(segment) for segment in bijections._segments(perm)}
    preorder, stack = [], [0]
    while stack:
        vertex = stack.pop()
        preorder.append(vertex)
        stack += children.get(vertex, ())
    return preorder, tuple(len(children.get(v, ())) for v in preorder)


def _recurrence_132_first_bracket_doubled(order):
    """series.recurrence_132 with its first bracket P*Q*V doubled."""
    P, Q, R, V = Polynomial.gens(series.PQRV)
    return series._catalytic(
        order, series.SEEDS["132"], 1,
        head=(P * Q,),
        plain=(2 * P * R, -P * P * R * R),
        brackets=(2 * P * Q * V, P * Q * R * (Q - P) * V),
        close=(P * R, R * (Q - P)))


def _edge_counts_left_and_right_swapped(tree):
    return tuple(sum(1 for mask in tree.shape if mask & bit) for bit in (1, 2, 4))


def _identity(x):
    return x


def _inverse(perm):
    out = [0] * len(perm)
    for i, x in enumerate(perm, 1):
        out[x - 1] = i
    return tuple(out)


def _psi_then_flip(word, psi=bijections.psi, flip=bijections.involution_pair):
    return flip(psi(word))


def _flip_then_psi_inverse(pair, family, psi_inverse=bijections.psi_inverse,
                           flip=bijections.involution_pair):
    return psi_inverse(flip(pair), family)


def _swap_2_and_c(pair):
    """(p, s) with s_i = 2 and s_i = c_i exchanged on each segment with c_i >= 3."""
    perm, s = pair
    return perm, tuple({2: c, c: 2}.get(x, x) if c >= 3 else x
                       for c, x in zip(bijections.composition_of(perm), s))


def _psi_then_swap(word, psi=bijections.psi):
    return _swap_2_and_c(psi(word))


def _swap_then_psi_inverse(pair, family, psi_inverse=bijections.psi_inverse):
    return psi_inverse(_swap_2_and_c(pair), family)


def _rho_of_the_inverse(perm, rho=bijections.rho):
    return rho(_inverse(perm))


def _inverse_of_rho_inverse(tree, rho_inverse=bijections.rho_inverse):
    return _inverse(rho_inverse(tree))


def _term(family, index, scalar):
    """EQUATIONS[family] with term index's scalar c replaced by scalar(c, P, Q, R)."""
    eq = series.EQUATIONS[family]

    def terms(P, Q, R, G):
        out = eq.terms(P, Q, R, G)
        c, s, factors = out[index]
        out[index] = (scalar(c, P, Q, R), s, factors)
        return out

    return eq._replace(terms=terms)


def _doubled(c, *gens):
    return 2 * c


# failed by each STEPS mutant: rows that read brute tallies of plat, des and asc together
STATISTIC_ROWS = {"symmetry-213", "stats-213", "symmetry-123", "marginals-123",
                  "marginals-213", "series-oracles", "series-initials", "phi-pullback"}

# (replacements, rows): each replacement (owner, name, mutant) puts the mutant
# in owner.name, or in owner[name] when the owner is series.EQUATIONS
MUTANTS = [
    pytest.param([(generation, "STEPS", _steps(ASCENT, (0, 1, 1)))], STATISTIC_ROWS | {
        "eulerian-rows", "descents-132", "ascents-132"}, id="ascent-step-as-descent"),
    pytest.param([(generation, "STEPS", _steps(EMPTY, (0, 0, 0)))], STATISTIC_ROWS | {
        "plateaus-213", "plateaus-123", "joint-plat-122"}, id="empty-step-adds-nothing"),
    pytest.param([(generation, "STEPS", _steps(PLATEAU, (1, 1, 1)))], STATISTIC_ROWS | {
        "plateaus-213", "plateaus-123", "joint-plat-122"}, id="plateau-step-keeps-the-plateau"),
    pytest.param([(generation, "_adj122", _adj122_off_on_a_split_plateau)], {"joint-plat-122"},
                 id="adj122-plus-one-on-a-split-plateau"),
    # involution-swap is caught because psi_inverse raises on a wrong word
    pytest.param([(generation, "_word", _word_one_gap_right)], {
        "count-avoiders", "eulerian-rows", "symmetry-213", "stats-213", "symmetry-123",
        "plateaus-213", "plateaus-123", "plateaus-132-vs-123", "marginals-123",
        "marginals-213", "descents-132", "ascents-132", "series-oracles", "series-initials",
        "fibonacci-pair", "joint-plat-122", "bijection-phi", "bijection-psi-123",
        "bijection-psi-132", "involution-swap", "phi-pullback"}, id="word-splice-one-gap-right"),
    # Gap 0 is bad only when a pattern's largest letter comes first (cut 0):
    # count-avoiders walks 312 for it.
    pytest.param([(generation, "split_gaps", _no_bad_gap_left_of_the_word)], {"count-avoiders"},
                 id="split-masks-lose-bit-0"),
    # The right end is bad for 213 and 123 whenever any gap is, never for 132 or 312.
    pytest.param([(generation, "_leaves", _right_end_lost_past_a_bad_gap)], {
        "count-avoiders", "plateaus-132-vs-123", "descents-132", "ascents-132",
        "series-oracles", "bijection-psi-132"}, id="leaves-lose-the-right-end-past-a-bad-gap"),
    pytest.param([(generation, "generate_all", _all_but_the_last_word)], {"count-all"},
                 id="generate-all-drops-the-last-word"),
    # count_avoid_132 is count_avoid_123, and bijection-fc counts the 123 pairs
    pytest.param([(formulas, "count_avoid_123", _count_avoid_123_off_at_4)], {
        "count-avoiders", "bijection-psi-123", "bijection-psi-132", "bijection-fc"},
                 id="count-avoid-123-off-by-one-at-4"),
    pytest.param([(bijections, "_grow", _grow_children_decreasing)], {
        "bijection-rho", "bijection-fc"}, id="grow-orders-children-decreasingly"),
    pytest.param([(bijections, "fc_involution", _identity)], {"bijection-fc"},
                 id="fc-involution-as-the-identity"),
    pytest.param([(bijections, "involution_pair", _identity)], {"bijection-fc", "involution-swap"},
                 id="involution-pair-as-the-identity"),
    # Conjugating a bijection by an involution of its domain or its codomain
    # keeps it a bijection onto the same set, so only the transport rule can
    # catch it: the sign flip trades the s_i = 1 for the s_i = c_i, and
    # inversion changes the segment lengths.
    pytest.param([(bijections, "psi", _psi_then_flip),
                  (bijections, "psi_inverse", _flip_then_psi_inverse)],
                 {"bijection-psi-123", "bijection-psi-132"}, id="psi-conjugated-by-the-sign-flip"),
    # Swapping s_i = 2 and s_i = c_i keeps every s_i = 1, so the plateau half
    # of the rule holds and only psi-123's descent half catches it;
    # involution-swap reads psi's pairs too.
    pytest.param([(bijections, "psi", _psi_then_swap),
                  (bijections, "psi_inverse", _swap_then_psi_inverse)],
                 {"bijection-psi-123", "involution-swap"}, id="psi-conjugated-by-a-2-c-swap"),
    pytest.param([(bijections, "rho", _rho_of_the_inverse),
                  (bijections, "rho_inverse", _inverse_of_rho_inverse)],
                 {"bijection-rho"}, id="rho-conjugated-by-inversion"),
    # phi-pullback misses it: the tree tally it checks equals each of its SWAPS
    # images, so swapping left and right edges leaves that tally as it was
    pytest.param([(trees.TernaryTree, "edge_counts", _edge_counts_left_and_right_swapped)],
                 {"bijection-phi"}, id="ternary-edge-counts-left-and-right-swapped"),
    pytest.param([(series, "recurrence_132", _recurrence_132_first_bracket_doubled)],
                 {"series-recurrences"}, id="recurrence-132-first-bracket-doubled"),
    pytest.param([(series.EQUATIONS, "213", _term("213", 3, lambda c, P, Q, R: Q * Q * R * P))], {
        "series-oracles", "series-specializations"}, id="213-cubic-term-q2r2-as-q2rp"),
    pytest.param([(series.EQUATIONS, "123", _term("123", 0, _doubled))], {
        "series-oracles", "series-recurrences", "series-specializations"},
                 id="123-first-term-doubled"),
    pytest.param([(series.EQUATIONS, "prepend1", _term("prepend1", 3, _doubled))], {
        "pair-122", "pair-rationals"}, id="prepend1-pq-f-term-doubled"),
    pytest.param([(series.EQUATIONS, "prepend11", _term("prepend11", -1, _doubled))], {
        "catalan-chains"}, id="prepend11-last-term-doubled"),
]


def _failing_rows():
    try:
        return {r.check_id for r in verification.run_checks("all", ORDERS) if r.status == "fail"}
    finally:
        verification._brute.cache_clear()  # filled by the mutant


def test_the_unmutated_program_passes_every_row():
    assert all(r.ok for r in verification.run_checks("all", ORDERS))


def test_every_row_fails_under_some_mutant():
    caught = set().union(*(param.values[-1] for param in MUTANTS))
    assert caught == set(verification.CHECKS)


@pytest.mark.parametrize("replacements, rows", MUTANTS)
def test_each_mutant_fails_the_rows_it_names(monkeypatch, replacements, rows):
    for owner, name, mutant in replacements:
        if owner is series.EQUATIONS:
            monkeypatch.setitem(owner, name, mutant)
        else:
            monkeypatch.setattr(owner, name, mutant)
    assert _failing_rows() == rows
