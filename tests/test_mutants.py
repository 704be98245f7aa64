"""Named faults in the generating-tree layer, and the verify rows that catch each.

A verify PASS means something only if the row would FAIL on a wrong
program (mutation analysis: DeMillo, Lipton and Sayward, "Hints on test
data selection", IEEE Computer, 1978).  Each mutant below is patched into
stirperm.generation, and `run_checks("all", 1..5)` must fail exactly the
rows it names; the unmutated program fails none.
"""

import pytest

from stirperm import generation, verification
from stirperm.generation import ASCENT, EMPTY, PLATEAU, ROOT, STEPS

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


# failed by each STEPS mutant: rows that read brute tallies of plat, des and asc together
STATISTIC_ROWS = {"symmetry-213", "stats-213", "symmetry-123", "marginals-123",
                  "marginals-213", "series-oracles", "series-initials", "phi-pullback"}

MUTANTS = [
    pytest.param("STEPS", _steps(ASCENT, (0, 1, 1)), STATISTIC_ROWS | {
        "eulerian-rows", "descents-132", "ascents-132"}, id="ascent-step-as-descent"),
    pytest.param("STEPS", _steps(EMPTY, (0, 0, 0)), STATISTIC_ROWS | {
        "plateaus-213", "plateaus-123", "joint-plat-122"}, id="empty-step-adds-nothing"),
    pytest.param("STEPS", _steps(PLATEAU, (1, 1, 1)), STATISTIC_ROWS | {
        "plateaus-213", "plateaus-123", "joint-plat-122"}, id="plateau-step-keeps-the-plateau"),
    pytest.param("_adj122", _adj122_off_on_a_split_plateau, {"joint-plat-122"},
                 id="adj122-plus-one-on-a-split-plateau"),
    # involution-swap is caught because psi_inverse raises on a wrong word
    pytest.param("_word", _word_one_gap_right, {
        "count-avoiders", "eulerian-rows", "symmetry-213", "stats-213", "symmetry-123",
        "plateaus-213", "plateaus-123", "plateaus-132-vs-123", "marginals-123",
        "marginals-213", "descents-132", "ascents-132", "series-oracles", "series-initials",
        "fibonacci-pair", "joint-plat-122", "bijection-phi", "bijection-psi-123",
        "bijection-psi-132", "involution-swap", "phi-pullback"}, id="word-splice-one-gap-right"),
    # Gap 0 is bad only when a pattern's largest letter comes first (cut 0):
    # count-avoiders walks 312 for it.
    pytest.param("split_gaps", _no_bad_gap_left_of_the_word, {"count-avoiders"},
                 id="split-masks-lose-bit-0"),
    # The right end is bad for 213 and 123 whenever any gap is, never for 132 or 312.
    pytest.param("_leaves", _right_end_lost_past_a_bad_gap, {
        "count-avoiders", "plateaus-132-vs-123", "descents-132", "ascents-132",
        "series-oracles", "bijection-psi-132"}, id="leaves-lose-the-right-end-past-a-bad-gap"),
]


def _failing_rows():
    try:
        return {r.check_id for r in verification.run_checks("all", ORDERS) if r.status == "fail"}
    finally:
        verification._brute.cache_clear()  # filled by the mutant


def test_the_unmutated_program_passes_every_row():
    assert all(r.ok for r in verification.run_checks("all", ORDERS))


@pytest.mark.parametrize("name, mutant, rows", MUTANTS)
def test_each_mutant_fails_the_rows_it_names(monkeypatch, name, mutant, rows):
    monkeypatch.setattr(generation, name, mutant)
    failing = _failing_rows()
    assert failing == rows
