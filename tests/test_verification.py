import inspect
import json
import tracemalloc
from collections import Counter
from collections.abc import Sequence

import pytest

from benchmarks import jobs, tracing
from stirperm import bijections, cli, formulas, series, verification
from stirperm.cli import main
from stirperm.generation import generate_avoiders
from stirperm.polynomials import Polynomial
from stirperm.verification import Check, _expand, _nested_catalan
from stirperm.words import P213

UP_TO_5, UP_TO_6 = (1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 6)

# The orders each check covers at --n 1..6, in the order verify prints them.
COVERED_AT_1_TO_6 = {
    "count-all": UP_TO_6,
    "count-avoiders": UP_TO_6,
    "eulerian-rows": UP_TO_6,
    "symmetry-213": UP_TO_6,
    "stats-213": UP_TO_6,
    "symmetry-123": UP_TO_6,
    "plateaus-213": UP_TO_6,
    "plateaus-123": UP_TO_6,
    "plateaus-132-vs-123": UP_TO_6,
    "marginals-123": UP_TO_6,
    "marginals-213": UP_TO_6,
    "descents-132": UP_TO_6,
    "ascents-132": UP_TO_6,
    "series-oracles": UP_TO_6,
    "series-recurrences": (0,) + UP_TO_6,
    "series-initials": (1, 2, 3),
    "series-specializations": UP_TO_6,
    "pair-122": tuple(range(11)),
    "pair-rationals": (10,),
    "fibonacci-pair": UP_TO_6,
    "catalan-chains": (8,),
    "joint-plat-122": UP_TO_6,
    "bijection-phi": UP_TO_5,
    "bijection-psi-123": UP_TO_5,
    "bijection-psi-132": UP_TO_5,
    "bijection-rho": UP_TO_6,
    "bijection-fc": UP_TO_5,
    "involution-swap": UP_TO_5,
    "phi-pullback": UP_TO_5,
}

# The rows whose brute side enumerates avoiders, capped at 9; the other
# rows enumerate all words or run bijections and keep their lower caps.
PRUNED_ORACLE_ROWS = (
    "count-avoiders", "symmetry-213", "stats-213", "symmetry-123",
    "plateaus-213", "plateaus-123", "plateaus-132-vs-123",
    "marginals-123", "marginals-213", "descents-132", "ascents-132",
    "series-oracles", "series-specializations", "fibonacci-pair", "joint-plat-122",
)


# The rows whose expected side is a closed form of formulas.
CLOSED_FORM_ROWS = ("count-avoiders", "stats-213", "plateaus-213", "plateaus-123",
                    "descents-132", "ascents-132", "fibonacci-pair")


@pytest.mark.parametrize("check_id", CLOSED_FORM_ROWS)
def test_the_brute_side_of_a_closed_form_row_calls_no_formula(monkeypatch, check_id):
    def called(*args):
        raise AssertionError("a formula was called")

    for name, value in vars(formulas).items():
        if inspect.isfunction(value) and value.__module__ == formulas.__name__:
            monkeypatch.setattr(formulas, name, called)
    check = verification.CHECKS[check_id]
    verification._brute.cache_clear()
    try:
        with pytest.raises(AssertionError, match="a formula was called"):
            check.expected(1)
        for n in range(1, 5):
            check.actual(n)
    finally:
        verification._brute.cache_clear()


def test_runner_skips_a_check_that_covers_no_order():
    check = Check("toy", "toy", 3, lambda n: n, lambda n: n)
    for ns in ([], [4, 5]):
        result = check(ns)
        assert result.status == "skip" and not result.ok
        assert result.orders == ()
    assert check([2, 3, 4]).orders == (2, 3)


def test_runner_fails_at_the_first_differing_order_and_entry():
    check = Check(
        "toy", "toy", 6,
        lambda n: {"a": n, "b": [n, n]},
        lambda n: {"a": n, "b": [n, n if n < 4 else -n]},
    )
    result = check(range(1, 7))
    assert result.status == "fail"
    assert result.orders == (1, 2, 3, 4)
    assert result.counterexample == "n=4 at b at 1"
    assert (result.expected, result.actual) == ("4", "-4")


def test_runner_fails_at_the_order_where_a_side_raises():
    def raises_at_2(n):
        if n == 2:
            raise ValueError("no value at 2")
        return n

    for sides in ((raises_at_2, abs), (abs, raises_at_2)):
        result = Check("toy", "toy", 3, *sides)(range(1, 4))
        assert result.status == "fail" and result.orders == (1, 2)
        assert (result.expected, result.actual) == ("a value", "ValueError: no value at 2")
        assert result.counterexample == "n=2"


def test_a_result_is_built_once_with_its_elapsed_time():
    result = Check("toy", "toy", 3, abs, abs)(range(1, 4))
    assert result.elapsed >= 0
    with pytest.raises(AttributeError):
        result.elapsed = 0.0


def test_fixed_orders_ignore_the_requested_range():
    check = Check("toy", "toy", (0, 10), lambda n: n, lambda n: n)
    assert check([]).orders == (0, 10) and check([]).ok


def test_recorded_orders_at_1_to_6_are_pinned():
    results = verification.run_checks("all", range(1, 7))
    assert [r.check_id for r in results] == list(COVERED_AT_1_TO_6)
    assert {r.check_id: r.orders for r in results} == COVERED_AT_1_TO_6
    assert all(r.ok for r in results)


def test_series_rows_solve_each_pattern_once(monkeypatch):
    calls = Counter()
    for name in verification.PATTERNS:
        def counted(order, name=name, solve=getattr(series, f"series_{name}")):
            calls[name] += 1
            return solve(order)

        monkeypatch.setattr(series, f"series_{name}", counted)
    results = verification.run_checks("series", range(1, 7))
    assert all(r.ok for r in results)
    assert calls == {"213": 1, "123": 1, "132": 1}


def test_each_memoised_solve_runs_once_at_the_largest_order_its_rows_cover(monkeypatch):
    calls = Counter()
    for name in ("series_213", "series_123", "series_132", "recurrence_123", "recurrence_132",
                 "pair_series", "solve_R"):
        def counted(*args, name=name, solve=getattr(series, name)):
            calls[name, *args] += 1
            return solve(*args)

        monkeypatch.setattr(series, name, counted)
    results = verification.run_checks("all", range(1, 7))
    assert all(r.ok for r in results)
    # the chain rows solve their own chains; pair-122 reads the memo
    pair_122 = {key: n for key, n in calls.items() if key[:2] == ("pair_series", ("1", "11"))}
    assert pair_122 == {("pair_series", ("1", "11"), 10): 1}
    assert {key: n for key, n in calls.items() if key[0] != "pair_series"} == {
        ("series_213", 6): 1, ("series_123", 6): 1, ("series_132", 6): 1,
        ("recurrence_123", 6): 1, ("recurrence_132", 6): 1, ("solve_R", 6): 1}


def test_order_7_passes_count_all_and_count_avoiders_and_skips_eulerian_rows():
    results = {r.check_id: r for r in verification.run_checks("counts", [7])}
    for cid in ("count-all", "count-avoiders"):
        assert results[cid].ok and results[cid].orders == (7,)
    assert results["eulerian-rows"].status == "skip"


@pytest.mark.parametrize("order", [8, 9])
def test_orders_8_and_9_are_covered_by_every_row_on_the_pruned_oracle(order):
    results = verification.run_checks("all", [order])
    capped = [r for r in results if isinstance(verification.CHECKS[r.check_id].orders, int)]
    assert [r.check_id for r in capped if r.orders == (order,)] == list(PRUNED_ORACLE_ROWS)
    assert all(r.ok for r in results if r.check_id in PRUNED_ORACLE_ROWS)


def test_registry_matches_the_benchmark_gate():
    suites = {k: v for k, v in verification.SUITES.items() if k != "all"}
    assert tuple(suites) == tracing.SUITES
    assert tuple(c for ids in suites.values() for c in ids) == jobs.VERIFY_CHECK_IDS
    assert set(verification.CHECKS) == set(jobs.VERIFY_CHECK_IDS)
    assert len(verification.CHECKS) == len(jobs.VERIFY_CHECK_IDS)
    assert verification.SUITES["all"] == tuple(verification.CHECKS)


@pytest.mark.parametrize("orders", ["0", "5..1", "0..3", "x", "1..", "2.."])
def test_verify_rejects_an_empty_or_bad_range(capsys, orders):
    assert main(["verify", "--n", orders]) == 2
    assert "order range" in capsys.readouterr().err


@pytest.fixture
def suite_with_a_raising_row(monkeypatch):
    """A suite "toy" of three rows whose middle row's actual side raises at order 2."""
    def raises_at_2(n):
        if n == 2:
            raise KeyError(n)
        return n

    rows = (Check("toy-before", "toy", 3, abs, abs),
            Check("toy-raises", "toy", 3, abs, raises_at_2),
            Check("toy-after", "toy", 3, abs, abs))
    for row in rows:
        monkeypatch.setitem(verification.CHECKS, row.check_id, row)
    monkeypatch.setitem(verification.SUITES, "toy", tuple(row.check_id for row in rows))


def test_verify_prints_a_raising_row_as_fail_and_runs_the_rest(capsys, suite_with_a_raising_row):
    assert main(["verify", "--suite", "toy", "--n", "1..3"]) == 1
    assert capsys.readouterr() == (
        "PASS  toy-before  orders 1..3\n"
        "FAIL  toy-raises  orders 1..2  expected a value; got KeyError: 2  [n=2]\n"
        "PASS  toy-after   orders 1..3\n"
        "2/3 checks passed\n", "")


def test_verify_json_reports_a_raising_row_as_fail(capsys, suite_with_a_raising_row):
    assert main(["verify", "--suite", "toy", "--n", "1..3", "--format", "json"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert [c["status"] for c in out["checks"]] == ["pass", "fail", "pass"]
    assert out["checks"][1] == {
        "id": "toy-raises", "suite": "toy", "status": "fail", "orders": [1, 2],
        "expected": "a value", "actual": "KeyError: 2", "counterexample": "n=2"}
    assert out["summary"] == {"passed": 2, "skipped": 0, "total": 3}


def test_verify_prints_covered_orders_and_skips(capsys):
    assert main(["verify", "--suite", "counts", "--n", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["PASS", "count-all", "orders", "7"]
    assert lines[1].split() == ["PASS", "count-avoiders", "orders", "7"]
    assert lines[2].startswith("SKIP  eulerian-rows   orders none")
    assert lines[-1] == "2/3 checks passed, 1 skipped"


class CountedOrders(Sequence):
    """A read-only view of an order range that counts the items read from it."""

    def __init__(self, orders):
        self.orders, self.reads = orders, 0

    def __len__(self):
        return len(self.orders)

    def __getitem__(self, index):
        item = self.orders[index]
        self.reads += len(item) if isinstance(index, slice) else 1
        return item


@pytest.mark.parametrize("suite", ["bijections", "fibonacci"])
def test_a_wide_range_prints_what_its_covered_part_prints_without_a_copy(
        capsys, monkeypatch, suite):
    views = []

    def counted_range(text, parse=cli._parse_range):
        views.append(CountedOrders(parse(text)))
        return views[-1]

    monkeypatch.setattr(cli, "_parse_range", counted_range)
    tracemalloc.start()
    try:
        assert main(["verify", "--suite", suite, "--n", "1..9"]) == 0
        narrow, narrow_peak = capsys.readouterr(), tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert main(["verify", "--suite", suite, "--n", "1..1000000"]) == 0
        wide_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr() == narrow
    # bisection probes and the covered slices: a scan would read 10^6 items per row
    assert views[1].reads < 10_000
    assert wide_peak < narrow_peak + 2**20  # a list of the range would take 8 MB


def test_a_skip_names_a_wide_range_by_its_ends(capsys):
    assert main(["verify", "--suite", "fibonacci", "--n", "10..1000000"]) == 1
    assert capsys.readouterr().out == (
        "SKIP  fibonacci-pair  orders none  [covers 1..9 only; asked for 10..1000000]\n"
        "0/1 checks passed, 1 skipped\n")


def test_verify_plateaus_at_order_7(capsys):
    assert main(["verify", "--suite", "plateaus", "--n", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[2:] for line in lines[:-1]] == [["orders", "7"]] * 3
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1] == "3/3 checks passed"


def test_verify_with_nothing_covered_is_not_a_pass(capsys):
    assert main(["verify", "--suite", "plateaus", "--n", "10"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "0/3 checks passed, 3 skipped"


@pytest.mark.parametrize("key", ["checked", "transport"])
def test_a_bijection_row_fails_on_a_wrong_report_and_names_the_key(monkeypatch, key):
    verify = bijections.verify_phi

    def wrong_at_3(n):
        report = verify(n)
        report[key] += n == 3
        return report

    monkeypatch.setattr(bijections, "verify_phi", wrong_at_3)
    result = verification.CHECKS["bijection-phi"](range(1, 6))
    assert result.status == "fail" and result.orders == (1, 2, 3)
    assert result.counterexample == f"n=3 at {key}"


def test_phi_row_fails_when_a_tree_is_no_image(monkeypatch):
    trees = bijections.ternary_trees

    def one_tree_more(m):
        return trees(m) + trees(m + 1)[:1]

    monkeypatch.setattr(bijections, "ternary_trees", one_tree_more)
    result = verification.CHECKS["bijection-phi"](range(1, 6))
    assert result.status == "fail" and result.orders == (1,)
    assert result.counterexample == "n=1 at round trip"


def test_chain_sides_share_no_code_with_the_solver(monkeypatch):
    def broken(*args):
        raise AssertionError("series arithmetic used")

    monkeypatch.setattr(Polynomial, "sum_products", broken)
    monkeypatch.setattr(series.TruncatedSeries, "__mul__", broken)
    rationals = verification.CHECKS["pair-rationals"].expected(10)
    assert rationals[("1", "1", "11")] == [1, 1, 3, 8, 21, 55, 144, 377, 987, 2584, 6765]
    chains = verification.CHECKS["catalan-chains"].expected(8)
    assert chains[("11", "11", "11")] == [1, 1, 3, 11, 44, 185, 804, 3579, 16229]
    assert chains[("11", "11", "11", "11")] == [1, 1, 3, 12, 54, 258, 1277, 6469, 33315]
    assert _expand([1], [1, -1, -1], 10) == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]


def test_nested_catalan_chains_count_the_brute_avoiders():
    for blocks, counts in _nested_catalan(8).items():
        pattern = series.chain_pattern(blocks)
        brute = [sum(1 for _ in generate_avoiders(n, (P213, pattern))) for n in range(7)]
        assert counts[:7] == brute, blocks
