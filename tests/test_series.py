import pytest

from stirperm.errors import CompositionError, DivisibilityError
from stirperm.formulas import count_avoid_213, descents_132, plateau_poly_123, plateau_poly_213
from stirperm.generation import distribution, joint_plat_122
from stirperm.polynomials import Polynomial
from stirperm.series import (
    PQR,
    PQRV,
    TruncatedSeries,
    chain_pattern,
    pair_series,
    recurrence_123,
    recurrence_132,
    series_123,
    series_132,
    series_213,
    solve_123,
    solve_132,
    solve_213,
    solve_R,
)
from stirperm.verification import _chain_at_one, _expand, _nested_catalan

P213, P123, P132 = (2, 1, 3), (1, 2, 3), (1, 3, 2)


def ints(series):
    return [series.coefficient(k).constant_term() for k in range(series.order + 1)]


def test_series_arithmetic_basics():
    x = TruncatedSeries((), [0, 1], 5)
    one = TruncatedSeries.constant(1, (), 5)
    geom = (one - x).inverse()
    assert ints(geom) == [1, 1, 1, 1, 1, 1]
    assert ints(geom * geom) == [1, 2, 3, 4, 5, 6]
    assert ints((one - x) * (one - x).inverse()) == [1, 0, 0, 0, 0, 0]
    with pytest.raises(DivisibilityError):
        (one + one).inverse()


def test_compose():
    x = TruncatedSeries((), [0, 1], 6)
    one = TruncatedSeries.constant(1, (), 6)
    geom = (one - x).inverse()
    # 1/(1 - 2x) via substituting 2x
    doubled = geom.compose(x + x)
    assert ints(doubled) == [2**k for k in range(7)]
    assert ints(geom.compose(TruncatedSeries((), [], 6))) == [1, 0, 0, 0, 0, 0, 0]
    with pytest.raises(CompositionError):
        geom.compose(one)


def test_solver_oracle_equivalence():
    top = 6
    solved = {
        P213: series_213(top),
        P123: series_123(top),
        P132: series_132(top),
    }
    for pattern, ser in solved.items():
        for n in range(top + 1):
            assert ser.coefficient(n) == distribution(n, (pattern,)), (pattern, n)


def test_solve_213_shape():
    f = solve_213(4)
    p = Polynomial.variable("p", PQR)
    assert f.coefficient(0).is_zero()
    assert f.coefficient(1) == p
    assert f.coefficient(2) == distribution(2, (P213,))


def test_qr_weighted_symmetry_of_213_coefficients():
    from itertools import permutations

    q = Polynomial.variable("q", PQR)
    r = Polynomial.variable("r", PQR)
    f = solve_213(6)
    for n in range(1, 7):
        weighted = f.coefficient(n) * q * r
        for perm in permutations(PQR):
            assert weighted.permute_vars(dict(zip(PQR, perm))) == weighted


def test_fixed_point_contraction():
    # a lower truncation order changes no coefficient below it
    full = solve_213(6)
    for k in range(7):
        assert solve_213(k).coeffs == full.coeffs[: k + 1]
    full123 = solve_123(5)
    for k in range(6):
        assert solve_123(k).coeffs == full123.coeffs[: k + 1]


def test_recurrences_match_solvers():
    top = 6
    c123 = series_123(top)
    c132 = series_132(top)
    r123 = recurrence_123(top)
    r132 = recurrence_132(top)
    for n in range(top + 1):
        assert r123[n] == c123.coefficient(n)
        assert r132[n] == c132.coefficient(n)


def test_recurrence_initial_values_verbatim():
    P, Q, R, V = Polynomial.gens(PQRV)
    l2 = P * P * (R + Q * V)
    l3 = (
        P**3 * Q * R
        + P * P * Q * R * (2 * P + Q) * V
        + P * P * Q * (P * R + Q * R + P * Q) * V * V
    )
    # the seeds are the catalytic sums over avoiders opening with a plateau
    from stirperm.generation import generate_avoiders
    from stirperm.words import stats

    def brute_seed(n, pattern):
        terms = {}
        for w in generate_avoiders(n, (pattern,)):
            if w[0] == w[1]:
                s = stats(w)
                key = (s.plat, s.des, s.asc, w[0] - 1)
                terms[key] = terms.get(key, 0) + 1
        return Polynomial(PQRV, terms)

    assert brute_seed(2, P123) == l2
    assert brute_seed(3, P123) == l3
    assert brute_seed(2, P132) == l2
    p, q, r = Polynomial.gens(PQR)
    want_f2 = p * (p * q + p * r + q * r)
    assert recurrence_123(2)[2] == want_f2
    assert recurrence_132(2)[2] == want_f2


def test_specialized_marginals():
    top = 6
    c123 = series_123(top)
    c132 = series_132(top)
    c213 = series_213(top)
    for n in range(1, top + 1):
        assert c213.coefficient(n).specialize({"q": 1, "r": 1}).project(
            ("p",)
        ) == plateau_poly_213(n)
        assert c123.coefficient(n).specialize({"q": 1, "r": 1}).project(
            ("p",)
        ) == plateau_poly_123(n)
        assert c132.coefficient(n).specialize({"q": 1, "r": 1}).project(
            ("p",)
        ) == plateau_poly_123(n)
    for n in range(1, 6):
        got = c132.coefficient(n).specialize({"p": 1, "r": 1}).project(("q",))
        want = Polynomial(
            ("q",),
            {(d,): descents_132(n, d) for d in range(2 * n) if descents_132(n, d)},
        )
        assert got == want


def test_pair_122_closed_form():
    F = pair_series(("1", "11"), 10)
    p, q, _ = Polynomial.gens(PQR)
    assert F.coefficient(0) == Polynomial.one(PQR)
    for j in range(1, 11):
        assert F.coefficient(j) == p**j * q ** (j - 1)


def test_chain_patterns():
    assert chain_pattern(("1", "11")) == (1, 2, 2)
    assert chain_pattern(("11", "11")) == (1, 1, 2, 2)
    assert chain_pattern(("1", "1", "11")) == (1, 2, 3, 3)
    assert chain_pattern(("11", "11", "11")) == (1, 1, 2, 2, 3, 3)
    assert chain_pattern(("1", "1", "1", "11")) == (1, 2, 3, 4, 4)
    with pytest.raises(ValueError):
        pair_series(("1", "12"), 4)
    with pytest.raises(ValueError):
        pair_series((), 4)


def test_pair_chain_counts_match_brute_force():
    from stirperm.generation import generate_avoiders

    for blocks, top in [(("11", "11"), 4), (("1", "1", "11"), 5)]:
        counts = _chain_at_one(blocks, top)
        pattern = chain_pattern(blocks)
        for n in range(top + 1):
            assert counts[n] == len(list(generate_avoiders(n, (P213, pattern))))


def assert_degree_2n_minus_1(series):
    """Every word of order n has 2n - 1 adjacent pairs, so x^n is homogeneous of that degree."""
    for n in range(1, series.order + 1):
        assert series.coefficient(n).total_degrees() == {2 * n - 1}, n


def test_every_coefficient_has_total_degree_2n_minus_1():
    for series in (series_213(14), series_123(14), series_132(14), pair_series(("1", "11"), 14)):
        assert_degree_2n_minus_1(series)


@pytest.mark.xfail(
    strict=True,
    reason="prepend11 and prepend1 are not homogeneous in p,q,r (FOUND line in CHANGES.md, "
    "ROADMAP item 1)",
)
@pytest.mark.parametrize("blocks", [("11", "11"), ("1", "1", "11")])
def test_prepend_chains_have_total_degree_2n_minus_1(blocks):
    assert_degree_2n_minus_1(pair_series(blocks, 6))


def test_catalan_chains():
    chains = _nested_catalan(8)
    assert chains[("11", "11")] == [1, 1, 2, 5, 14, 42, 132, 429, 1430]
    for blocks, want in chains.items():
        assert _chain_at_one(blocks, 8) == want, blocks


def test_fibonacci_series_values():
    fib = [0, 1]
    while len(fib) < 22:
        fib.append(fib[-1] + fib[-2])
    assert _chain_at_one(("1", "1", "11"), 10) == [1] + [fib[2 * n] for n in range(1, 11)]


def test_solve_R_against_enumeration():
    R = solve_R(5)
    for n in range(6):
        assert R.coefficient(n) == joint_plat_122(n)
    flat = R.specialize({"z": 1})
    for n in range(1, 6):
        assert flat.coefficient(n).project(("p",)) == plateau_poly_213(n)


def test_solve_R_printed_terms():
    p, z = Polynomial.gens(("p", "z"))
    R = solve_R(4)
    assert R.coefficient(0) == Polynomial.one(("p", "z"))
    assert R.coefficient(1) == p
    assert R.coefficient(2) == p * (p * z * z + z + p)
    inner3 = (
        p * p * z**6
        + 2 * p * z**3
        + p * p * z**4
        + p * z**4
        + z * z
        + p * z * z
        + 2 * p * p * z * z
        + 2 * p * z
        + p * p
    )
    assert R.coefficient(3) == p * inner3
    inner4 = (
        p**3
        + 7 * p * p * z**3
        + 3 * p * z * z
        + 2 * p * z**3
        + 2 * p * p * z * z
        + 3 * p**3 * z**4
        + 3 * p**3 * z * z
        + 3 * p * p * z
        + 3 * p * p * z**4
        + 3 * p**3 * z**6
        + 4 * p * z**4
        + p * z**6
        + z**3
        + 2 * p * p * z**6
        + 4 * p * p * z**7
        + 5 * p * p * z**5
        + p**3 * z**10
        + 2 * p**3 * z**8
        + p * p * z**8
        + 2 * p * z**5
        + p * p * z**9
        + p**3 * z**12
    )
    assert R.coefficient(4) == p * inner4


def test_series_q_division_shapes():
    # the auxiliary solutions have constant term 1 and q-divisible tails
    f = solve_123(4)
    assert f.coefficient(0) == Polynomial.one(PQR)
    g = solve_132(4)
    assert g.coefficient(0) == Polynomial.one(PQR)
    q = PQR.index("q")
    for n in range(1, 5):
        for poly in (f.coefficient(n), g.coefficient(n)):
            assert min((exp[q] for exp, _ in poly.items()), default=0) >= 1


def test_series_json():
    ser = series_213(3)
    obj = ser.to_json_obj()
    assert len(obj) == 4
    assert obj[1]["terms"] == [{"exp": [1, 0, 0], "coef": "1"}]


def test_truncation_guard():
    ser = series_213(3)
    with pytest.raises(IndexError):
        ser.coefficient(4)


# -- the online engine against independent routes, above the brute-force cap --


def test_online_123_and_132_equal_the_recurrences_up_to_order_12():
    c123, c132 = series_123(12), series_132(12)
    r123, r132 = recurrence_123(12), recurrence_132(12)
    for n in range(13):
        assert c123.coefficient(n) == r123[n], n
        assert c132.coefficient(n) == r132[n], n


def test_online_213_counts_equal_the_closed_form_up_to_order_20():
    counts = ints(series_213(20).specialize({"p": 1, "q": 1, "r": 1}))
    assert counts == [count_avoid_213(k) for k in range(21)]


def test_online_R_at_z_1_equals_the_plateau_polynomials_up_to_order_12():
    flat = solve_R(12).specialize({"z": 1})
    for n in range(1, 13):
        assert flat.coefficient(n).project(("p",)) == plateau_poly_213(n), n


def test_online_pair_chains_equal_their_rational_forms_at_order_20():
    a = [1, -7, 15, -12, 5, -1]
    b = [1, -14, 77, -215, 332, -295, 157, -51, 10, -1]
    square = [sum(a[i] * a[k - i] for i in range(len(a)) if 0 <= k - i < len(a))
              for k in range(2 * len(a) - 1)]
    shifted = [x - y for x, y in zip(b + [0], [0] + b)]  # (1 - x) B5
    forms = {
        ("1", "1", "11"): ([1, -2, 1], [1, -3, 1]),
        ("1", "1", "1", "11"): ([1, -6, 11, -6, 1], a),
        ("1", "1", "1", "1", "11"): (square, shifted),
    }
    for blocks, (num, den) in forms.items():
        assert _chain_at_one(blocks, 20) == _expand(num, den, 20), blocks
