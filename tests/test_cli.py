import hashlib
import json
import os
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

import pytest

import stirperm
from benchmarks import jobs
from stirperm import cli, formulas, polynomials, series
from stirperm.bijections import apairs, avoiding_permutations
from stirperm.cli import main
from stirperm.generation import generate_all, generate_avoiders
from stirperm.series import CHAIN_LIMIT, EQUATIONS
from stirperm.trees import (FCOrderedTree, OrderedTree, TernaryTree, fc_trees, ordered_trees,
                            ternary_trees)
from stirperm.verification import CATALAN_CHAINS, CHECKS, RATIONAL_CHAINS
from stirperm.words import P123, P132, P213, avoids, format_word, stats


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_lines(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "2")
    assert code == 0
    assert out.splitlines() == ["1122", "1221", "2211"]


def test_enumerate_stats_csv(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "2", "--avoid", "213", "--stats")
    assert code == 0
    assert out.splitlines() == [
        "word,des,asc,plat",
        "1122,0,1,2",
        "1221,1,1,1",
        "2211,1,0,2",
    ]


def test_enumerate_empty_order(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "0")
    assert code == 0
    assert out == "\n"


def test_enumerate_json(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == ["1122", "1221", "2211"]


def test_enumerate_limit(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--n", "9")
    assert code == 2
    assert "--force" in err


def test_enumerate_limit_is_sized_by_the_avoiders(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "9", "--avoid", "123")
    assert code == 0
    assert len(out.splitlines()) == 49720


def test_enumerate_limit_with_avoid_names_its_bound(capsys):
    # 19 gaps x 106686 order-9 213-avoiders first passes the 2027025 words of order 8
    code, _, err = run_cli(capsys, "enumerate", "--n", "10", "--avoid", "213")
    assert code == 2
    assert "a bound of 2027034 rows: 19 per order-9 avoider, counted up to 106686" in err
    assert "--force" in err


def _expected_enumerate(words, fmt, with_stats):
    """enumerate's output built from whole-word tallies and the digit/comma form."""
    rows = []
    for word in words:
        text = (",".join(str(x) for x in word) if any(x > 9 for x in word)
                else "".join(str(x) for x in word))
        rows.append((text, *stats(word)[:3]))
    if fmt == "json":
        keys = ("word", "des", "asc", "plat")
        items = [dict(zip(keys, row)) if with_stats else row[0] for row in rows]
        return json.dumps(items) + "\n"
    sep = "," if fmt == "csv" else " "
    lines = [sep.join(map(str, row if with_stats else row[:1])) for row in rows]
    if fmt == "csv":
        lines.insert(0, "word,des,asc,plat" if with_stats else "word")
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("fmt", ["lines", "csv", "json"])
@pytest.mark.parametrize("with_stats", [False, True])
@pytest.mark.parametrize("avoid", [(), ("213",)])
def test_enumerate_output_is_byte_identical_to_whole_word_tallies(capsys, fmt, with_stats, avoid):
    patterns = tuple(tuple(int(c) for c in p) for p in avoid)
    for n in range(6):
        argv = ["enumerate", "--n", str(n), "--format", fmt]
        argv += ["--stats"] * with_stats + [arg for p in avoid for arg in ("--avoid", p)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        words = [w for w in generate_all(n) if avoids(w, patterns)]
        assert out == _expected_enumerate(words, fmt, with_stats), (n, argv)


@lru_cache(maxsize=None)
def _avoiders_of_123_and_132(n):
    return tuple(generate_avoiders(n, ((1, 2, 3), (1, 3, 2))))


@pytest.mark.parametrize("fmt", ["lines", "csv", "json"])
@pytest.mark.parametrize("with_stats", [False, True])
def test_enumerate_comma_form_cuts_many_rows_per_parent(capsys, fmt, with_stats):
    # 3,363 and 8,119 rows: each order-(n-1) parent's text is cut at several gaps
    for n in (10, 11):
        argv = ["enumerate", "--n", str(n), "--force", "--avoid", "123", "--avoid", "132",
                "--format", fmt] + ["--stats"] * with_stats
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        words = _avoiders_of_123_and_132(n)
        assert len(words) == {10: 3363, 11: 8119}[n]
        assert out == _expected_enumerate(words, fmt, with_stats), argv


# The one (21)-avoider and the one (12)-avoider of orders 9 and 10 with their
# des, asc and plat: the last order in digit form, the first in comma form.
ONE_AVOIDER = {
    (9, "21"): ("112233445566778899", 0, 8, 9),
    (9, "12"): ("998877665544332211", 8, 0, 9),
    (10, "21"): ("1,1,2,2,3,3,4,4,5,5,6,6,7,7,8,8,9,9,10,10", 0, 9, 10),
    (10, "12"): ("10,10,9,9,8,8,7,7,6,6,5,5,4,4,3,3,2,2,1,1", 9, 0, 10),
}


@pytest.mark.parametrize("fmt", ["lines", "csv", "json"])
@pytest.mark.parametrize("with_stats", [False, True])
def test_enumerate_digit_and_comma_forms_at_orders_9_and_10(capsys, fmt, with_stats):
    for (n, avoid), (w, d, a, p) in ONE_AVOIDER.items():
        argv = ["enumerate", "--n", str(n), "--force", "--avoid", avoid, "--format", fmt]
        code, out, _ = run_cli(capsys, *argv + ["--stats"] * with_stats)
        assert code == 0
        assert out == {
            ("lines", False): f"{w}\n",
            ("lines", True): f"{w} {d} {a} {p}\n",
            ("csv", False): f"word\n{w}\n",
            ("csv", True): f"word,des,asc,plat\n{w},{d},{a},{p}\n",
            ("json", False): f'["{w}"]\n',
            ("json", True): f'[{{"word": "{w}", "des": {d}, "asc": {a}, "plat": {p}}}]\n',
        }[fmt, with_stats], argv
    for n in (9, 10):
        argv = ["enumerate", "--n", str(n), "--force", "--avoid", "1", "--format", fmt]
        code, out, _ = run_cli(capsys, *argv + ["--stats"] * with_stats)
        assert code == 0
        assert out == {"lines": "", "csv": "word,des,asc,plat\n" if with_stats else "word\n",
                       "json": "[]\n"}[fmt], argv


def test_enumerate_reproduces_the_benchmark_reference_digests(capsys):
    reference = json.loads(
        (Path(__file__).resolve().parents[1] / "benchmarks" / "reference.json").read_text()
    )["sha256"]
    for pattern in ("213", "123", "132", "1233", None):
        argv = ["enumerate", "--n", "7", "--stats"] + (["--avoid", pattern] if pattern else [])
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        digest = hashlib.sha256(out.encode("ascii")).hexdigest()
        assert digest == reference[f"enum-{pattern or 'all'}"], argv


def test_series_reproduces_the_benchmark_reference_digests(capsys):
    reference = jobs.load_reference()
    for job in jobs.workload("series-solve", reference):
        assert job.name in reference
        code, out, _ = run_cli(capsys, *job.argv)
        assert job.check(code, out.encode("ascii")) is None, job.argv


def test_enumerate_bad_pattern(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--n", "2", "--avoid", "13")
    assert code == 2
    assert "range" in err


def test_enumerate_walks_1200_orders_without_recursion(capsys, recursion_room):
    # the one 21-avoider of each order is 1,1,2,2,... (kept at the right end),
    # the one 12-avoider ...,2,2,1,1 (kept at gap 0); no word avoids 1
    with recursion_room():
        code, out, _ = run_cli(capsys, "enumerate", "--n", "1200", "--force", "--avoid", "21")
        assert code == 0
        assert out == ",".join(str(k) for k in range(1, 1201) for _ in "ab") + "\n"
        code, out, _ = run_cli(capsys, "enumerate", "--n", "1200", "--force", "--avoid", "12")
        assert code == 0
        assert out == ",".join(str(k) for k in range(1200, 0, -1) for _ in "ab") + "\n"
        code, out, _ = run_cli(capsys, "enumerate", "--n", "1200", "--avoid", "1")
        assert code == 0 and out == ""


def test_enumerate_takes_a_pattern_at_the_letter_cap(capsys):
    # 1,1,...,250,250: the split search places 498 letters before the cut
    pattern = ",".join(str(k) for k in range(1, 251) for _ in "ab")
    code, out, _ = run_cli(capsys, "enumerate", "--n", "249", "--force", "--avoid", "21",
                           "--avoid", pattern)
    assert code == 0
    assert out == ",".join(str(k) for k in range(1, 250) for _ in "ab") + "\n"
    code, out, _ = run_cli(capsys, "enumerate", "--n", "250", "--force", "--avoid", "21",
                           "--avoid", pattern)
    assert code == 0 and out == ""


def test_enumerate_settles_a_pattern_longer_than_any_word_at_once(capsys):
    # 1,2,...,21 has more values than any word below order 21
    argv = ["enumerate", "--n", "20", "--force", "--avoid", "21",
            "--avoid", ",".join(map(str, range(1, 22)))]
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 0
    assert out == ",".join(str(k) for k in range(1, 21) for _ in "ab") + "\n"


def test_enumerate_refuses_a_pattern_the_searches_cannot_take(capsys):
    # 1,1,2,2,...,600,600: the split search would recurse 1,198 letters deep
    pattern = ",".join(str(k) for k in range(1, 601) for _ in "ab")
    code, out, err = run_cli(capsys, "enumerate", "--n", "600", "--force", "--avoid", pattern)
    assert code == 2 and out == ""
    assert "pattern of 1200 letters; at most 500 are supported" in err


def test_enumerate_deterministic(capsys):
    first = run_cli(capsys, "enumerate", "--n", "4", "--avoid", "213", "--stats")
    second = run_cli(capsys, "enumerate", "--n", "4", "--avoid", "213", "--stats")
    assert first == second


def test_series_counts(capsys):
    code, out, _ = run_cli(
        capsys, "series", "--eq", "213", "--order", "3", "--spec", "p=1,q=1,r=1"
    )
    assert code == 0
    assert out.strip() == "1, 1, 3, 12"


def test_series_R(capsys):
    code, out, _ = run_cli(capsys, "series", "--eq", "R", "--order", "2")
    assert code == 0
    assert out.strip() == "1, p, p^2*z^2 + p^2 + p*z"


def test_series_chain_catalan(capsys):
    code, out, _ = run_cli(
        capsys, "series", "--eq", "prepend11:11,11", "--order", "4", "--spec", "all=1"
    )
    assert code == 0
    assert out.strip() == "1, 1, 2, 5, 14"


def test_series_json(capsys):
    code, out, _ = run_cli(
        capsys, "series", "--eq", "123", "--order", "2", "--format", "json"
    )
    assert code == 0
    coeffs = json.loads(out)
    assert len(coeffs) == 3
    assert coeffs[0]["terms"] == [{"exp": [0, 0, 0], "coef": "1"}]


SERIES_JSON_CASES = {
    ("213", "5", None): series.series_213,
    ("123", "5", None): series.series_123,
    ("132", "5", None): series.series_132,
    ("R", "6", None): series.solve_R,
    ("prepend11:11,11,11", "5", None): lambda N: series.pair_series(("11", "11", "11"), N),
    ("prepend1:1,1,11", "5", None): lambda N: series.pair_series(("1", "1", "11"), N),
    ("213", "4", "p=2,r=-1"): lambda N: [c.specialize({"p": 2, "r": -1})
                                         for c in series.series_213(N)],
    ("123", "3", "all=0"): lambda N: [c.specialize(dict.fromkeys("pqr", 0))
                                      for c in series.series_123(N)],
    ("R", "0", None): series.solve_R,
}


@pytest.mark.parametrize("eq, order, spec", SERIES_JSON_CASES)
def test_series_json_is_what_json_dumps_writes(capsys, eq, order, spec):
    argv = ["series", "--eq", eq, "--order", order, "--format", "json"]
    code, out, err = run_cli(capsys, *argv, *(["--spec", spec] if spec else []))
    assert code == 0 and err == ""
    coeffs = json.loads(out)
    assert out == json.dumps(coeffs) + "\n"
    assert coeffs == [
        {"vars": list(c.vars),
         "terms": [{"exp": list(exp), "coef": str(coef)} for exp, coef in c.items()]}
        for c in SERIES_JSON_CASES[eq, order, spec](int(order))
    ]


@pytest.mark.parametrize("argv, value", [
    (("plateaus-123", "--n", "4"), formulas.plateau_poly_123(4)),
    (("descents-132", "--n", "4", "--param", "d=3"), formulas.descents_132(4, 3)),
])
def test_formula_json_is_what_json_dumps_writes(capsys, argv, value):
    code, out, _ = run_cli(capsys, "formula", "--id", *argv, "--format", "json")
    assert code == 0 and out == json.dumps(json.loads(out)) + "\n"
    if isinstance(value, int):
        assert json.loads(out) == {"value": str(value)}
    else:
        assert json.loads(out)["terms"] == [
            {"exp": list(exp), "coef": str(coef)} for exp, coef in value.items()]


CHAIN_IDS = {"prepend11": "prepend11:11,11", "prepend1": "prepend1:1,1,11"}  # an --eq id each


@pytest.mark.parametrize("eq, solver", [
    (CHAIN_IDS.get(family, family), equation.entry) for family, equation in EQUATIONS.items()])
def test_series_refuses_an_order_past_its_limit_before_solving(capsys, monkeypatch, eq, solver):
    orders = []

    def tiny(*args):  # stands in for the solver: records the order, solves nothing
        orders.append(args[-1])
        return (polynomials.Polynomial.one(polynomials.PQR),)

    monkeypatch.setattr(series, solver, tiny)
    limit = EQUATIONS[eq.partition(":")[0]].limit
    for order in (limit + 1, 40000):
        code, out, err = run_cli(capsys, "series", "--eq", eq, "--order", str(order))
        assert code == 2 and out == ""
        assert f"order {order} exceeds the limit {limit}" in err and "pass --force" in err
    assert orders == []
    assert run_cli(capsys, "series", "--eq", eq, "--order", str(limit)) == (0, "1\n", "")
    assert run_cli(capsys, "series", "--eq", eq, "--order", "40000", "--force")[0] == 0
    assert orders == [limit, 40000]


def test_series_limits_clear_the_benchmark_orders():
    for job in jobs.workload("series-solve", reference={}):
        flags = dict(zip(job.argv[1::2], job.argv[2::2]))
        assert int(flags["--order"]) <= EQUATIONS[flags["--eq"].partition(":")[0]].limit


def test_series_refuses_a_chain_block_other_than_1_and_11(capsys, monkeypatch):
    monkeypatch.setattr(series, "pair_series", None)  # never reached
    code, out, err = run_cli(capsys, "series", "--eq", "prepend1:1,111,11")
    assert code == 2 and out == ""
    assert "unsupported chain block '111'" in err


def test_series_checks_spec_before_solving(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "series", "--eq", "R", "--order", "21", "--spec", "r=1")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert "equation R has no variable 'r'; takes p,z" in err
    code, out, err = run_cli(capsys, "series", "--eq", "prepend11:11,11", "--order", "26",
                             "--spec", "z=1")
    assert code == 2 and "takes p,q,r" in err


@pytest.mark.parametrize("eq, solve, spec", [
    ("R", lambda N: series.solve_R(N), {"z": 2}),
    ("132", lambda N: series.series_132(N), {"p": 2, "r": -1}),
    ("prepend1:1,11", lambda N: series.pair_series(("1", "11"), N), {"p": 1, "q": 1, "r": 1}),
])
def test_series_spec_prints_the_specialized_solve(capsys, eq, solve, spec):
    text = ",".join(f"{name}={value}" for name, value in spec.items())
    code, out, _ = run_cli(capsys, "series", "--eq", eq, "--order", "6", "--spec", text)
    assert code == 0
    assert out == ", ".join(str(c.specialize(spec)) for c in solve(6)) + "\n"


@pytest.mark.parametrize("eq, order", [
    ("prepend11:11,11,11,11,11", 21), ("prepend1:1,11,11,11", 27),
    ("prepend11:" + ",".join(["11"] * 12), 9),
])
def test_series_refuses_a_chain_past_the_blocks_times_order_limit(capsys, monkeypatch,
                                                                   eq, order):
    orders = []

    def tiny(blocks, order):  # stands in for the solver: records the order, solves nothing
        orders.append(order)
        return (polynomials.Polynomial.one(polynomials.PQR),)

    monkeypatch.setattr(series, "pair_series", tiny)
    blocks = eq.count(",") + 1
    assert blocks * order > CHAIN_LIMIT >= blocks * (order - 1)
    code, out, err = run_cli(capsys, "series", "--eq", eq, "--order", str(order))
    assert code == 2 and out == "" and orders == []
    assert f"{blocks} blocks at order {order} exceed the limit {CHAIN_LIMIT}" in err
    assert "pass --force" in err
    assert run_cli(capsys, "series", "--eq", eq, "--order", str(order - 1))[0] == 0
    assert run_cli(capsys, "series", "--eq", eq, "--order", str(order), "--force")[0] == 0
    assert orders == [order - 1, order]


def test_the_chain_limit_clears_the_benchmark_and_verify_chains():
    # (blocks, order) of each chain the limit must admit
    sizes = [(1, EQUATIONS["prepend1"].limit), (1, EQUATIONS["prepend11"].limit)]
    for job in jobs.workload("series-solve", reference={}):
        flags = dict(zip(job.argv[1::2], job.argv[2::2]))
        _, colon, chain = flags["--eq"].partition(":")
        if colon:
            sizes.append((chain.count(",") + 1, int(flags["--order"])))
    for check_id, chains in (("pair-rationals", RATIONAL_CHAINS),
                             ("catalan-chains", CATALAN_CHAINS)):
        sizes += [(len(blocks), max(CHECKS[check_id].orders)) for blocks in chains]
    assert len(sizes) == 10
    assert all(blocks * order <= CHAIN_LIMIT for blocks, order in sizes)


def test_series_unknown(capsys):
    code, _, err = run_cli(capsys, "series", "--eq", "999")
    assert code == 2
    assert "unknown equation" in err


def test_the_eq_help_and_the_known_list_name_exactly_the_table_families(capsys):
    # the help is a literal, so that verbs other than series never import series
    code, text, _ = run_cli(capsys, "series", "--help")
    assert code == 0
    listed = " ".join(text.split()).partition("equation id: ")[2].partition(" --order")[0]
    assert listed.split(", ") == [family + ":<chain>" * (equation.entry == "pair_series")
                                  for family, equation in EQUATIONS.items()]
    assert run_cli(capsys, "series", "--eq", "999") == (
        2, "", f"error: unknown equation '999'; known: {listed}\n")


def test_an_exponent_past_the_range_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(polynomials, "MAX_EXPONENT", 6)
    assert main(["series", "--eq", "213", "--order", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: exponent out of range")


def test_series_chain_head_mismatch(capsys):
    code, _, err = run_cli(capsys, "series", "--eq", "prepend1:11,11")
    assert code == 2
    assert "chain head" in err


def test_formula_values(capsys):
    code, out, _ = run_cli(capsys, "formula", "--id", "count-213", "--n", "4")
    assert code == 0 and out.strip() == "55"
    code, out, _ = run_cli(
        capsys, "formula", "--id", "stats-213", "--n", "2",
        "--param", "m=1", "--param", "d=0", "--param", "k=2",
    )
    assert code == 0 and out.strip() == "1"
    code, out, _ = run_cli(capsys, "formula", "--id", "plateaus-123", "--n", "3")
    assert code == 0 and out.strip() == "5*p^3 + 5*p^2"


def test_formula_prints_an_integer_of_more_than_4300_digits(capsys):
    code, out, err = run_cli(capsys, "formula", "--id", "count-213", "--n", "6000")
    assert code == 0 and err == ""
    assert len(out) > 4301 and out == f"{formulas.count_avoid_213(6000)}\n"


FORMULA_LIST = """\
ascents-132: ascent marginal over 132-avoiders
count-123: number of 123-avoiders of order n
count-132: number of 132-avoiders of order n
count-213: number of 213-avoiders of order n
descents-132: 132-avoiders with d descents; needs d
fibonacci-213-1233: avoiders of 213 and 1233: F(2n)
plateaus-123: plateau marginal over 123-avoiders
plateaus-213: plateau marginal over 213-avoiders
stats-213: 213-avoiders with m ascents, d descents, k plateaus; needs m,d,k
"""


def test_formula_list_is_pinned(capsys):
    assert run_cli(capsys, "formula", "--list") == (0, FORMULA_LIST, "")


@pytest.mark.parametrize("argv, out", [
    (("count-123", "--n", "2", "--format", "json"), '{"value": "3"}\n'),
    (("plateaus-123", "--n", "3", "--format", "json"),
     '{"vars": ["p"], "terms": [{"exp": [2], "coef": "5"}, {"exp": [3], "coef": "5"}]}\n'),
    (("descents-132", "--n", "3", "--param", "d=1"), "5\n"),
])
def test_formula_output_is_pinned(capsys, argv, out):
    assert run_cli(capsys, "formula", "--id", *argv) == (0, out, "")


@pytest.mark.parametrize("fid", sorted(formulas.FORMULAS))
def test_formula_refuses_an_n_past_its_limit_unless_forced(capsys, monkeypatch, fid):
    formula = formulas.FORMULAS[fid]
    monkeypatch.setitem(formulas.FORMULAS, fid, formula._replace(limit=3))
    names = cli._formula_params(formula.func)
    argv = ["formula", "--id", fid, *[arg for v in names for arg in ("--param", f"{v}=1")]]
    assert run_cli(capsys, *argv, "--n", "4") == (
        2, "", f"error: order 4 exceeds the limit 3 for formula {fid}; pass --force to proceed\n")
    for n, force in ((3, []), (4, ["--force"])):
        value = formula.func(n, *[1] * len(names))
        assert run_cli(capsys, *argv, "--n", str(n), *force) == (0, f"{value}\n", "")


def test_formula_errors(capsys):
    code, _, err = run_cli(capsys, "formula", "--id", "nope", "--n", "2")
    assert code == 2 and "unknown formula" in err
    code, _, err = run_cli(capsys, "formula", "--id", "stats-213", "--n", "2")
    assert code == 2 and "needs --param" in err


def test_formula_list(capsys):
    code, out, _ = run_cli(capsys, "formula", "--id", "x", "--n", "0", "--list")
    assert code == 0
    assert "count-213" in out and "ascents-132" in out


def test_formula_list_alone(capsys):
    code, out, _ = run_cli(capsys, "formula", "--list")
    assert code == 0
    assert run_cli(capsys, "formula", "--list", "--id", "count-213", "--n", "1") == (0, out, "")


def test_formula_needs_id_and_n(capsys):
    code, _, err = run_cli(capsys, "formula", "--id", "count-213")
    assert code == 2 and "needs --id and --n" in err


@pytest.mark.parametrize("argv", [
    ("series", "--eq", "213", "--order", "-1"),
    ("formula", "--id", "plateaus-123", "--n", "-3"),
    ("formula", "--id", "count-213", "--n", "-3"),
])
def test_negative_order_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "must be an integer >= 0, got '-" in err


def test_a_non_integer_order_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--n", "abc")
    assert code == 2 and out == ""
    assert err.endswith("error: argument --n: must be an integer >= 0, got 'abc'\n")


def test_biject_phi_round_trip(capsys):
    code, out, _ = run_cli(capsys, "biject", "phi", "--input", "1221")
    assert code == 0
    tree_text = out.strip()
    assert tree_text == "(-,(-,-,-),-)"
    code, out, _ = run_cli(
        capsys, "biject", "phi", "--direction", "inv", "--input", tree_text
    )
    assert code == 0 and out.strip() == "1221"


def test_biject_psi(capsys):
    assert run_cli(capsys, "biject", "psi", "--input", "122133") == (0, "1,2,3|2\n", "")
    code, out, _ = run_cli(
        capsys, "biject", "psi", "--direction", "inv", "--input", "12|2"
    )
    assert code == 0 and out.strip() == "1221"
    code, out, _ = run_cli(
        capsys, "biject", "psi", "--direction", "inv", "--family", "132",
        "--input", "21|1,1",
    )
    assert code == 0 and out.strip() == "2211"


def test_biject_rho_round_trip(capsys):
    perm = "15,16,12,9,14,13,8,7,11,4,3,1,10,6,5,2"
    code, out, _ = run_cli(capsys, "biject", "rho", "--input", perm)
    assert code == 0
    code, out2, _ = run_cli(
        capsys, "biject", "rho", "--direction", "inv", "--input", out.strip()
    )
    assert code == 0 and out2.strip() == perm


def test_biject_psi_rejects_non_stirling(capsys):
    code, out, err = run_cli(capsys, "biject", "psi", "--input", "1212")
    assert code == 2 and out == ""
    assert "not a Stirling permutation" in err


def test_biject_rho_rejects_non_permutation(capsys):
    code, out, err = run_cli(capsys, "biject", "rho", "--input", "1,1")
    assert code == 2 and out == ""
    assert "not a permutation" in err


def test_biject_fc_round_trip(capsys):
    code, out, _ = run_cli(capsys, "biject", "fc", "--input", "4,6,5,2,1,3|3,1,1")
    assert code == 0
    code, out2, _ = run_cli(
        capsys, "biject", "fc", "--direction", "inv", "--input", out.strip()
    )
    assert code == 0 and out2.strip() == "4,6,5,2,1,3|3,1,1"


def test_biject_fc_round_trip_letters_above_9(capsys):
    pair = "15,16,12,9,14,13,8,7,11,4,3,1,10,6,5,2|2,1,3,1,1,1,1,2"
    code, out, _ = run_cli(capsys, "biject", "fc", "--input", pair)
    assert code == 0
    code, out2, _ = run_cli(
        capsys, "biject", "fc", "--direction", "inv", "--input", out.strip()
    )
    assert code == 0 and out2.strip() == pair


@pytest.mark.parametrize("argv", [
    ("psi", "--direction", "inv", "--input", "5,3|1,1"),
    ("psi", "--direction", "inv", "--input", "2,2|1"),
    ("psi", "--direction", "inv", "--family", "132", "--input", "2,2|1"),
    ("fc", "--direction", "fwd", "--input", "5,3|1,1"),
])
def test_biject_pair_whose_base_is_not_a_permutation_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, "biject", *argv)
    assert code == 2 and out == ""
    assert "not a permutation" in err


def test_biject_fc_round_trips_the_order_0_pair(capsys):
    code, out, _ = run_cli(capsys, "biject", "fc", "--direction", "inv", "--input", "()")
    assert code == 0 and out == "|\n"
    code, out, _ = run_cli(capsys, "biject", "fc", "--direction", "fwd", "--input", "|")
    assert code == 0 and out == "()\n"


@pytest.mark.parametrize("text", ["1|", "|1"])
@pytest.mark.parametrize("argv", [("fc",), ("psi", "--direction", "inv")])
def test_biject_pair_with_one_empty_half_is_a_usage_error(capsys, argv, text):
    code, out, _ = run_cli(capsys, "biject", *argv, "--input", text)
    assert code == 2 and out == ""


@pytest.mark.parametrize("argv", [("fc",), ("psi", "--direction", "inv")])
def test_biject_pair_with_a_bad_integer_names_the_pair(capsys, argv):
    code, out, err = run_cli(capsys, "biject", *argv, "--input", "4,6,5,2,1,3|3,x,1")
    assert code == 2 and out == ""
    assert "bad pair '4,6,5,2,1,3|3,x,1'" in err


# per map: its options and, per order n, the texts of its objects on each side
BIJECT_SIDES = {
    "phi": ((), lambda n: map(format_word, generate_avoiders(n, (P213,))),
            lambda n: map(TernaryTree.serialize, ternary_trees(n - 1))),
    "psi-123": (("--family", "123"), lambda n: map(format_word, generate_avoiders(n, (P123,))),
                lambda n: map(cli._format_pair, apairs(n, P123))),
    "psi-132": (("--family", "132"), lambda n: map(format_word, generate_avoiders(n, (P132,))),
                lambda n: map(cli._format_pair, apairs(n, P132))),
    "rho": ((), lambda n: map(format_word, avoiding_permutations(n, P123)),
            lambda n: map(OrderedTree.serialize, ordered_trees(n))),
    "fc": ((), lambda n: map(cli._format_pair, apairs(n, P123)),
           lambda n: map(FCOrderedTree.serialize, fc_trees(n))),
}


@pytest.mark.parametrize("name", BIJECT_SIDES)
def test_every_biject_output_is_read_back_by_the_opposite_direction(capsys, name):
    options, domain, codomain = BIJECT_SIDES[name]
    argv = ("biject", name.partition("-")[0], *options, "--direction")
    for n in range(1, 5):
        for there, back, texts in (("fwd", "inv", domain(n)), ("inv", "fwd", codomain(n))):
            for text in texts:
                code, out, err = run_cli(capsys, *argv, there, "--input", text)
                assert (code, err) == (0, ""), text
                assert run_cli(capsys, *argv, back, "--input", out.strip()) == (0, text + "\n", "")


def test_biject_has_no_verify_map(capsys):
    # the maps are checked by verify --suite bijections
    code, out, err = run_cli(capsys, "biject", "verify", "--map", "phi", "--n", "3")
    assert code == 2 and out == ""
    assert "invalid choice: 'verify'" in err


# one option each map cannot use, and the mix that every map took before
@pytest.mark.parametrize("argv", [
    ("phi", "--input", "1221", "--family", "132"),
    ("psi", "--input", "1221", "--n", "3"),
    ("rho", "--input", "1,2", "--map", "rho"),
    ("fc", "--input", "1,2|2", "--family", "123"),
    ("phi", "--input", "1221", "--n", "3", "--family", "132", "--map", "rho"),
], ids=["phi", "psi", "rho", "fc", "phi-mix"])
def test_biject_option_a_map_cannot_use_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, "biject", *argv)
    assert code == 2 and out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("name", ["phi", "psi", "rho", "fc"])
def test_biject_map_needs_input(capsys, name):
    code, out, err = run_cli(capsys, "biject", name, "--direction", "inv")
    assert code == 2 and out == ""
    assert "the following arguments are required: --input" in err


# A path of first children, a chain of vertical slots, a path of favorites
def deep_trees(depth):
    return {
        "rho": "(" * (depth + 1) + ")" * (depth + 1),
        "phi": "(-," * depth + "(-,-,-)" + ",-)" * depth,
        "fc": "(" * (depth + 1) + ")" + "):1" * depth,
    }


@pytest.mark.parametrize("name", ["rho", "phi", "fc"])
def test_biject_inverse_of_a_10000_level_tree(capsys, recursion_room, name):
    with recursion_room():
        code, out, err = run_cli(
            capsys, "biject", name, "--direction", "inv", "--input", deep_trees(10_000)[name]
        )
    decreasing = ",".join(map(str, range(10_000, 0, -1)))
    assert code == 0 and err == ""
    assert out == {
        "rho": decreasing,
        "phi": ",".join(map(str, [*range(1, 10_002), *range(10_001, 0, -1)])),
        "fc": decreasing + "|" + ",".join(["1"] * 10_000),
    }[name] + "\n"


@pytest.mark.parametrize("name", ["rho", "phi", "fc"])
def test_biject_2000_level_trees_round_trip(capsys, recursion_room, name):
    tree = deep_trees(2_000)[name]
    with recursion_room():
        code, word, _ = run_cli(capsys, "biject", name, "--direction", "inv", "--input", tree)
        assert code == 0
        code, out, _ = run_cli(capsys, "biject", name, "--input", word.strip())
    assert code == 0 and out == tree + "\n"


def test_biject_phi_forward_on_the_10000_level_chain_round_trips(capsys, recursion_room):
    # each block's bounds come from nearest-smaller-letter passes, not rescans
    chain = ",".join(map(str, [*range(1, 10_002), *range(10_001, 0, -1)]))
    with recursion_room():
        code, tree, err = run_cli(capsys, "biject", "phi", "--input", chain)
        assert code == 0 and err == ""
        assert tree == deep_trees(10_000)["phi"] + "\n"
        code, out, _ = run_cli(capsys, "biject", "phi", "--direction", "inv",
                               "--input", tree.strip())
    assert code == 0 and out == chain + "\n"


@pytest.mark.parametrize("name", ["rho", "fc"])
def test_biject_forward_on_a_10000_entry_123_avoider(capsys, name):
    # n..1 avoids 123; the check is one scan, not a quadratic search
    decreasing = ",".join(map(str, range(10_000, 0, -1)))
    word = {"rho": decreasing, "fc": decreasing + "|" + ",".join(["1"] * 10_000)}[name]
    code, out, err = run_cli(capsys, "biject", name, "--input", word)
    assert code == 0 and err == ""
    assert out == deep_trees(10_000)[name] + "\n"


def test_biject_psi_inverse_of_a_10000_entry_132_avoider(capsys):
    # n..1 avoids 132; the check is one scan, not a quadratic search
    pair = ",".join(map(str, range(10_000, 0, -1))) + "|" + ",".join(["1"] * 10_000)
    code, out, err = run_cli(
        capsys, "biject", "psi", "--direction", "inv", "--family", "132", "--input", pair
    )
    assert code == 0 and err == ""
    assert out == ",".join(str(k) for k in range(10_000, 0, -1) for _ in "ab") + "\n"


def test_biject_not_avoider(capsys):
    code, _, err = run_cli(capsys, "biject", "phi", "--input", "221133")
    assert code == 2 and "contains 213" in err


def test_biject_phi_accepts_avoider_122331(capsys):
    # 122331 avoids 213: every drop ends on the final 1, and nothing follows it.
    code, out, _ = run_cli(capsys, "biject", "phi", "--input", "122331")
    assert code == 0
    assert out.strip() == "(-,(-,-,(-,-,-)),-)"


def test_verify_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "fibonacci", "--n", "1..4")
    assert code == 0
    assert "PASS  fibonacci-pair" in out
    assert out.strip().endswith("1/1 checks passed")


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "nope")
    assert code == 2 and "unknown suite" in err


def test_verify_list(capsys):
    code, out, _ = run_cli(capsys, "verify", "--list")
    assert code == 0
    assert out.splitlines()[0].startswith("counts:")


def test_verify_deterministic_output(capsys):
    first = run_cli(capsys, "verify", "--suite", "marginals", "--n", "1..3")
    second = run_cli(capsys, "verify", "--suite", "marginals", "--n", "1..3")
    assert first == second


# SHA-256 of the `verify --n 1..6` report: a change that adds a row or
# rewords a line updates these and says so.
VERIFY_1_TO_6_SHA256 = {
    "text": "3946eec12bd9e0d0ae893f0622e4ef59dd7b8ccc14d97ade1b48445636a8f4e4",
    "json": "653740bf503afc7694d57bfe3f81f2c3961af5276fadd9886a77103e56a099b1",
}


@pytest.mark.parametrize("fmt", VERIFY_1_TO_6_SHA256)
def test_the_verify_report_at_1_to_6_is_pinned(capsys, fmt):
    code, out, _ = run_cli(capsys, "verify", "--n", "1..6", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == VERIFY_1_TO_6_SHA256[fmt]


# SHA-256 of the `verify --n 1..9` text report, which reaches orders 7-9,
# where the rows on the pruned oracle run: a change that adds a row or
# rewords a line updates it and says so.
VERIFY_1_TO_9_TEXT_SHA256 = "9727db7fabe08ee6d016f5e18ddb380eae701ce712afbf9ddf5f66f4717d6427"


def test_the_verify_report_at_1_to_9_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "1..9")
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == VERIFY_1_TO_9_TEXT_SHA256


def _child_env():
    """os.environ with this process's stirperm first on PYTHONPATH, and no PYTHONUNBUFFERED.

    A child interpreter then finds the package where this process did,
    however pytest was started, and block-buffers its stdout as it does
    when run by hand, so that output it fails to flush before it ends is
    missing.
    """
    src = str(Path(stirperm.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _python(*argv):
    """A finished child `python argv` process, its output as bytes."""
    return subprocess.run([sys.executable, *argv], capture_output=True, env=_child_env(),
                          timeout=120)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "stirperm", "enumerate", "--n", "1"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "11"


def test_a_block_buffered_run_writes_every_byte_main_writes(capsys):
    # 10,395 rows, many buffers' worth: the run flushes them all before it ends
    argv = ("enumerate", "--n", "6", "--stats")
    proc = _python("-m", "stirperm", *argv)
    code, out, err = run_cli(capsys, *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode("ascii"), b"")
    assert code == 0 and len(out.splitlines()) == 1 + 10395


def test_a_refusal_run_delivers_its_error_line_and_exits_2():
    proc = _python("-m", "stirperm", "series", "--eq", "nope")
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr == (b"error: unknown equation 'nope'; known: 213, 123, 132, R, "
                           b"prepend1:<chain>, prepend11:<chain>\n")


def test_a_profiled_run_ends_normally_so_the_profiler_prints_its_table():
    proc = _python("-m", "cProfile", "-m", "stirperm", "enumerate", "--n", "1")
    assert proc.returncode == 0 and proc.stderr == b""
    lines = proc.stdout.decode("ascii").splitlines()
    assert lines[0] == "11"
    assert any("function calls" in line for line in lines)
    assert any("ncalls" in line and "cumtime" in line for line in lines)


def test_a_reader_that_closes_the_pipe_ends_the_run_quietly_with_exit_141():
    proc = subprocess.Popen([sys.executable, "-m", "stirperm", "enumerate", "--n", "8"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env())
    try:
        assert proc.stdout.readline() == b"1122334455667788\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert err == b""
    assert proc.returncode == 141


def test_a_traced_run_whose_reader_is_gone_also_exits_141_quietly():
    # a traced run ends with the interpreter's own shutdown flush, which must find nothing
    traced = ("import runpy, sys; sys.settrace(lambda *args: None); "
              "runpy.run_module('stirperm', run_name='__main__')")
    proc = subprocess.Popen([sys.executable, "-c", traced, "enumerate", "--n", "3"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env())
    proc.stdout.close()  # while the child still starts: its one flush meets a closed pipe
    try:
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert (proc.returncode, err) == (141, b"")


# stdlib modules no verb needs: dataclasses brings inspect and ast, fractions decimal
UNUSED_STDLIB = {"dataclasses", "inspect", "ast", "fractions", "decimal"}

LIST_LOADED = f"""
import sys
from stirperm.cli import main
assert main(sys.argv[1:]) == 0
shown = {("stirperm", "json", *sorted(UNUSED_STDLIB))!r}
print(*sorted(m for m in sys.modules if m.split(".")[0] in shown))
"""


def loaded_modules(*argv):
    """The stirperm, json and UNUSED_STDLIB modules a fresh interpreter holds after argv."""
    proc = subprocess.run([sys.executable, "-c", LIST_LOADED, *argv],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_each_verb_loads_only_the_modules_it_runs():
    # enumerate builds no polynomial, and series walks no generating tree
    assert loaded_modules("enumerate", "--n", "2", "--stats", "--avoid", "213") == {
        "stirperm", "stirperm.cli", "stirperm.words", "stirperm.generation"}
    assert "stirperm.generation" not in loaded_modules("series", "--eq", "213", "--order", "3")
    # series and formula write their JSON text without the json module
    assert "json" not in loaded_modules("series", "--eq", "R", "--order", "3", "--format", "json")
    assert "json" not in loaded_modules("formula", "--id", "plateaus-213", "--n", "3",
                                        "--format", "json")
    # biject writes a pair as perm|s text, as it reads one
    assert "json" not in loaded_modules("biject", "psi", "--input", "122133")
    assert "json" in loaded_modules("verify", "--suite", "pairs", "--n", "1", "--format", "json")
    for argv in [("enumerate", "--n", "2", "--stats", "--avoid", "213"),
                 ("series", "--eq", "prepend1:1,11", "--order", "3", "--spec", "q=1"),
                 ("formula", "--id", "count-123", "--n", "5"), ("formula", "--list"),
                 ("biject", "phi", "--input", "1221"), ("verify", "--n", "1..2")]:
        assert not loaded_modules(*argv) & UNUSED_STDLIB, argv


def test_verify_refuses_a_jobs_option(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "counts", "--n", "1..3", "--jobs", "2")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --jobs 2" in err


@pytest.mark.parametrize("spec, name", [
    ("p=1,p=2", "p"), ("all=1,p=2", "p"), ("q=2,all=1", "q"), ("all=1,all=1", "p"),
])
def test_series_spec_rejects_a_variable_assigned_twice(capsys, spec, name):
    code, out, err = run_cli(capsys, "series", "--eq", "213", "--order", "3", "--spec", spec)
    assert code == 2 and out == ""
    assert f"variable {name!r} given twice" in err


def test_series_spec_skips_a_blank_piece(capsys):
    argv = ("series", "--eq", "213", "--order", "3", "--spec")
    plain = run_cli(capsys, *argv, "p=1,q=1")
    assert plain[0] == 0 and run_cli(capsys, *argv, "p=1,,q=1") == plain


def test_series_spec_all_equals_each_variable_set_once(capsys):
    each = run_cli(capsys, "series", "--eq", "213", "--order", "4", "--spec", "p=1,q=1,r=1")
    assert each == run_cli(capsys, "series", "--eq", "213", "--order", "4", "--spec", "all=1")
    assert each[0] == 0 and each[1] == "1, 1, 3, 12, 55\n"


@pytest.mark.parametrize("params, message", [
    (("d=1", "d=2"), "parameter 'd' given twice"),
    (("d=1", "zz=1"), "has no parameter 'zz'"),
    (("d=x",), "bad parameter 'd=x'"),
])
def test_formula_rejects_a_repeated_or_unknown_param(capsys, params, message):
    argv = ["formula", "--id", "descents-132", "--n", "3"]
    for param in params:
        argv += ["--param", param]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err


def test_formula_params_in_one_comma_list_equal_repeated_params(capsys):
    argv = ("formula", "--id", "stats-213", "--n", "3")
    repeated = run_cli(capsys, *argv, "--param", "m=1", "--param", "d=1", "--param", "k=3")
    assert repeated[0] == 0
    assert run_cli(capsys, *argv, "--param", "m=1,d=1,k=3") == repeated


def test_formula_rejects_a_param_for_a_formula_without_params(capsys):
    code, out, err = run_cli(capsys, "formula", "--id", "count-213", "--n", "3", "--param", "zz=1")
    assert code == 2 and out == ""
    assert "has no parameter 'zz'" in err and "no parameters" in err


def test_verify_json_reports_each_check_and_a_summary(capsys):
    argv = ("verify", "--suite", "counts", "--n", "7", "--format", "json")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert run_cli(capsys, *argv) == (code, out, "")  # deterministic without --timings
    report = json.loads(out)
    assert report["checks"] == [
        {"id": "count-all", "suite": "counts", "status": "pass", "orders": [7]},
        {"id": "count-avoiders", "suite": "counts", "status": "pass", "orders": [7]},
        {"id": "eulerian-rows", "suite": "counts", "status": "skip", "orders": [],
         "counterexample": "covers 1..6 only; asked for 7"},
    ]
    assert report["summary"] == {"passed": 2, "skipped": 1, "total": 3}
    code, out, _ = run_cli(capsys, "verify", "--suite", "counts", "--n", "1..2",
                           "--format", "json", "--timings")
    checks = json.loads(out)["checks"]
    assert code == 0 and all(isinstance(c["elapsed"], float) for c in checks)


def test_verify_timings_add_an_elapsed_column_to_each_text_line(capsys):
    argv = ("verify", "--suite", "counts", "--n", "1..2")
    code, plain, _ = run_cli(capsys, *argv)
    timed_code, timed, _ = run_cli(capsys, *argv, "--timings")
    assert code == timed_code == 0
    plain, timed = plain.splitlines(), timed.splitlines()
    assert len(plain) == len(timed) == 4 and timed[-1] == plain[-1]
    for line, timed_line in zip(plain[:-1], timed[:-1]):
        head, elapsed, tail = timed_line.partition("s  orders ")
        assert elapsed and head[-9:-7] == "  " and float(head[-7:]) >= 0
        assert f"{head[:-9]}  orders {tail}" == line


def test_verify_text_is_the_default_format(capsys):
    argv = ("verify", "--suite", "pairs", "--n", "1..3")
    assert run_cli(capsys, *argv) == run_cli(capsys, *argv, "--format", "text")


VERIFY_SUITES = ("'all', 'bijections', 'counts', 'fibonacci', 'joint', 'marginals', 'pairs', "
                 "'plateaus', 'series', 'statistics-132', 'symmetry'")
FORMULA_IDS = ("ascents-132, count-123, count-132, count-213, descents-132, "
               "fibonacci-213-1233, plateaus-123, plateaus-213, stats-213")

# (argv, the stderr line): every refusal of every verb prints its message alone
REFUSALS = [
    (("enumerate", "--n", "9"), "order 9 exceeds the default limit 8 (34459425 permutations, "
     "more than the 2027025 permutations of order 8); pass --force to proceed"),
    (("enumerate", "--n", "2", "--avoid", "13"), "pattern 13 values must form a range 1..m"),
    (("enumerate", "--n", "2", "--avoid", "0"),
     "bad word '0': digits 1-9 or comma form required"),
    (("series", "--eq", "nope"), "unknown equation 'nope'; known: 213, 123, 132, R, "
     "prepend1:<chain>, prepend11:<chain>"),
    (("series", "--eq", "prepend1:11"), "chain head '11' does not match verb 'prepend1'"),
    (("series", "--eq", "prepend1:1,2"),
     "unsupported chain block '2' in 'prepend1:1,2'; blocks are 1 and 11"),
    (("series", "--eq", "213", "--order", "99"),
     "order 99 exceeds the limit 40 for equation 213; pass --force to proceed"),
    (("series", "--eq", "prepend1:1,1,1,1,1", "--order", "26"), "5 blocks at order 26 exceed "
     "the limit 104 on blocks x order for a chain; pass --force to proceed"),
    (("series", "--eq", "213", "--order", "3", "--spec", "zz=1"),
     "equation 213 has no variable 'zz'; takes p,q,r"),
    (("series", "--eq", "213", "--order", "3", "--spec", "p=x"),
     "bad variable 'p=x'; want name=integer"),
    (("formula", "--id", "nope", "--n", "3"), f"unknown formula 'nope'; known: {FORMULA_IDS}"),
    (("formula", "--n", "3"), "formula needs --id and --n, or --list"),
    (("formula", "--id", "descents-132", "--n", "3"), "formula descents-132 needs --param d"),
    (("formula", "--id", "ascents-132", "--n", "4000"),
     "order 4000 exceeds the limit 500 for formula ascents-132; pass --force to proceed"),
    (("formula", "--id", "count-123", "--n", "20000"),
     "order 20000 exceeds the limit 3500 for formula count-123; pass --force to proceed"),
    (("formula", "--id", "descents-132", "--n", "20000", "--param", "d=10000"),
     "order 20000 exceeds the limit 5000 for formula descents-132; pass --force to proceed"),
    (("formula", "--id", "plateaus-213", "--n", "20000"),
     "order 20000 exceeds the limit 5700 for formula plateaus-213; pass --force to proceed"),
    (("biject", "phi", "--input", "1,2,2,1,3,3"), "122133 contains 213"),
    (("biject", "psi", "--direction", "inv", "--input", "1,2,3|1,1,1"),
     "base permutation 123 contains 123"),
    (("biject", "fc", "--input", "1,2"),
     "pair input must look like 'perm|s', e.g. 4,6,5,2,1,3|3,1,1"),
    (("biject", "rho", "--direction", "inv", "--input", "(()"),
     "not a serialized OrderedTree: '(()'"),
    (("verify", "--suite", "nope"), f"unknown suite 'nope'; choose from [{VERIFY_SUITES}]"),
    (("verify", "--n", "3..1"), "order range '3..1' is empty or starts below 1"),
    (("enumerate", "--n", "2", "--avoid", "1,x"), "bad word '1,x'"),
    (("enumerate", "--n", "2", "--avoid", "1,0"), "bad word '1,0': letters must be positive"),
    (("series", "--eq", "prepend11:"), "empty chain in 'prepend11:'"),
    (("formula", "--id", "plateaus-213", "--n", "0"), "order must be positive"),
    (("formula", "--id", "ascents-132", "--n", "0"), "order must be positive"),
    (("formula", "--id", "descents-132", "--n", "0", "--param", "d=0"),
     "order must be positive"),
    (("formula", "--id", "stats-213", "--n", "0", "--param", "m=0,d=0,k=0"),
     "order must be positive"),
    (("formula", "--id", "fibonacci-213-1233", "--n", "0"), "order must be positive"),
]


@pytest.mark.parametrize("argv, message", REFUSALS, ids=[" ".join(a) for a, _ in REFUSALS])
def test_each_refusal_prints_one_error_line_and_exits_2(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")
