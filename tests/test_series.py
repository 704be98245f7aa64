import pytest

from stirperm import series
from stirperm.formulas import count_avoid_213, descents_132, plateau_poly_123, plateau_poly_213
from stirperm.generation import distribution, joint_plat_122
from stirperm.polynomials import Polynomial
from stirperm.series import (
    EQUATIONS,
    F,
    PQR,
    PQRV,
    START,
    TruncatedSeries,
    _solve,
    chain_pattern,
    pair_series,
    recurrence_123,
    recurrence_132,
    series_123,
    series_132,
    series_213,
    solve_R,
)
from stirperm.verification import _chain_at_one, _expand, _nested_catalan

P213, P123, P132 = (2, 1, 3), (1, 2, 3), (1, 3, 2)


def raw(family, order):
    """The series f that _solve finds for a family, before C is read off it."""
    eq = EQUATIONS[family]
    return _solve(eq.vars, order, START[eq.form], eq.terms(*Polynomial.gens(eq.vars), None))


def ints(coeffs):
    return [c.constant_term() for c in coeffs]


def constants(*values):
    """The TruncatedSeries in no variables whose coefficients are the ints values."""
    return TruncatedSeries((), [Polynomial.constant(v, ()) for v in values])


def test_series_arithmetic_basics():
    geom = constants(1, -1, 0, 0, 0, 0).inverse()
    assert ints(geom.coeffs) == [1, 1, 1, 1, 1, 1]
    assert ints((geom * geom).coeffs) == [1, 2, 3, 4, 5, 6]
    assert ints((constants(1, -1, 0, 0, 0, 0) * geom).coeffs) == [1, 0, 0, 0, 0, 0]
    with pytest.raises(ValueError, match="^series inverse needs constant coefficient 1$"):
        constants(2, 0, 0, 0, 0, 0).inverse()
    with pytest.raises(ValueError):
        geom * constants(1, 0)


def test_compose():
    geom = constants(1, -1, 0, 0, 0, 0, 0).inverse()
    # 1/(1 - 2x) via substituting 2x
    doubled = geom.compose(constants(0, 2, 0, 0, 0, 0, 0))
    assert ints(doubled.coeffs) == [2**k for k in range(7)]
    assert ints(geom.compose(constants(0, 0, 0, 0, 0, 0, 0)).coeffs) == [1, 0, 0, 0, 0, 0, 0]
    with pytest.raises(ValueError, match="^inner series must have zero constant term$"):
        geom.compose(constants(1, 0, 0, 0, 0, 0, 0))


def test_solver_oracle_equivalence():
    top = 6
    solved = {
        P213: series_213(top),
        P123: series_123(top),
        P132: series_132(top),
    }
    for pattern, ser in solved.items():
        for n in range(top + 1):
            assert ser[n] == distribution(n, (pattern,)), (pattern, n)


def test_every_solver_returns_the_tuple_of_its_coefficient_polynomials():
    solved = {eq.entry: getattr(series, eq.entry)(3) for eq in EQUATIONS.values()
              if eq.entry != "pair_series"}
    solved.update({blocks: pair_series(blocks, 3) for blocks in (("1", "11"), ("11", "11"))})
    solved.update(recurrence_123=recurrence_123(3), recurrence_132=recurrence_132(3))
    for name, coeffs in solved.items():
        assert type(coeffs) is tuple and len(coeffs) == 4, name
        assert all(type(c) is Polynomial for c in coeffs), name


def test_solve_213_shape():
    f = raw("213", 4)
    p = Polynomial.variable("p", PQR)
    assert not f[0]
    assert f[1] == p
    assert f[2] == distribution(2, (P213,))


def test_qr_weighted_symmetry_of_213_coefficients():
    from itertools import permutations

    q = Polynomial.variable("q", PQR)
    r = Polynomial.variable("r", PQR)
    f = raw("213", 6)
    for n in range(1, 7):
        weighted = f[n] * q * r
        for perm in permutations(PQR):
            assert weighted.permute_vars(dict(zip(PQR, perm))) == weighted


def test_fixed_point_contraction():
    # a lower truncation order changes no coefficient below it
    full = raw("213", 6)
    for k in range(7):
        assert raw("213", k) == full[: k + 1]
    full123 = raw("123", 5)
    for k in range(6):
        assert raw("123", k) == full123[: k + 1]


def test_recurrences_match_solvers():
    top = 6
    c123 = series_123(top)
    c132 = series_132(top)
    r123 = recurrence_123(top)
    r132 = recurrence_132(top)
    for n in range(top + 1):
        assert r123[n] == c123[n]
        assert r132[n] == c132[n]


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
        assert c213[n].specialize({"q": 1, "r": 1}).project(
            ("p",)
        ) == plateau_poly_213(n)
        assert c123[n].specialize({"q": 1, "r": 1}).project(
            ("p",)
        ) == plateau_poly_123(n)
        assert c132[n].specialize({"q": 1, "r": 1}).project(
            ("p",)
        ) == plateau_poly_123(n)
    for n in range(1, 6):
        got = c132[n].specialize({"p": 1, "r": 1}).project(("q",))
        want = Polynomial(
            ("q",),
            {(d,): descents_132(n, d) for d in range(2 * n) if descents_132(n, d)},
        )
        assert got == want


def test_pair_122_closed_form():
    F = pair_series(("1", "11"), 10)
    p, q, _ = Polynomial.gens(PQR)
    assert F[0] == Polynomial.one(PQR)
    for j in range(1, 11):
        assert F[j] == p**j * q ** (j - 1)


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


def assert_degree_2n_minus_1(coeffs):
    """Every word of order n has 2n - 1 adjacent pairs, so x^n is homogeneous of that degree."""
    for n in range(1, len(coeffs)):
        assert coeffs[n].total_degrees() == {2 * n - 1}, n


def test_every_coefficient_has_total_degree_2n_minus_1():
    for coeffs in (series_213(14), series_123(14), series_132(14), pair_series(("1", "11"), 14)):
        assert_degree_2n_minus_1(coeffs)


@pytest.mark.xfail(
    strict=True,
    reason="prepend11 and prepend1 are not homogeneous in p,q,r (FOUND line in CHANGES.md, "
    "ROADMAP item 1)",
)
@pytest.mark.parametrize("blocks", [("11", "11"), ("1", "1", "11")])
def test_prepend_chains_have_total_degree_2n_minus_1(blocks):
    assert_degree_2n_minus_1(pair_series(blocks, 6))


G = "g"  # a chain step's G as a factor: the weight check counts it and solves nothing

# the PQR families; R, in p,z, has coefficients that are not homogeneous
WEIGHED = [family for family, eq in EQUATIONS.items() if eq.form != "C"]


def weight_errors(eq):
    """(index, degrees) of each term whose scalar has not the degree its form needs.

    The coefficient of x^n is homogeneous of degree 2n - 1 in C - 1 and of
    degree 2n in qC - q + 1, so a term (scalar, s, factors) needs a scalar
    of degree 2s + (number of F and G factors) - 1 in the C - 1 form, 2s in
    the qC - q + 1 form.
    """
    errors = []
    for i, (scalar, s, factors) in enumerate(eq.terms(*Polynomial.gens(eq.vars), G)):
        unknowns = sum(1 for factor in factors if factor in (F, G))
        want = 2 * s if eq.form == "qC-q+1" else 2 * s + unknowns - 1
        degrees = (scalar * Polynomial.one(eq.vars)).total_degrees()
        if degrees != {want}:
            errors.append((i, degrees))
    return errors


@pytest.mark.parametrize("family", [
    pytest.param(family, marks=pytest.mark.xfail(
        family in ("prepend1", "prepend11"), strict=True, raises=AssertionError,
        reason="one term of each prepend equation has the wrong degree (ROADMAP item 1)"))
    for family in WEIGHED])
def test_every_term_has_the_degree_its_form_needs(family):
    assert weight_errors(EQUATIONS[family]) == []


@pytest.mark.parametrize("family", WEIGHED)
def test_the_weight_check_refuses_a_scalar_of_the_wrong_degree(family):
    eq = EQUATIONS[family]

    def terms(P, Q, R, G):  # the first term's scalar one degree too high
        (scalar, s, factors), *rest = eq.terms(P, Q, R, G)
        return [(scalar * P, s, factors), *rest]

    assert 0 in dict(weight_errors(eq._replace(terms=terms)))


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
        assert R[n] == joint_plat_122(n)
    for n in range(1, 6):
        assert R[n].specialize({"z": 1}).project(("p",)) == plateau_poly_213(n)


def test_solve_R_printed_terms():
    p, z = Polynomial.gens(("p", "z"))
    R = solve_R(4)
    assert R[0] == Polynomial.one(("p", "z"))
    assert R[1] == p
    assert R[2] == p * (p * z * z + z + p)
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
    assert R[3] == p * inner3
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
    assert R[4] == p * inner4


def test_series_q_division_shapes():
    # the auxiliary solutions have constant term 1 and q-divisible tails
    f = raw("123", 4)
    assert f[0] == Polynomial.one(PQR)
    g = raw("132", 4)
    assert g[0] == Polynomial.one(PQR)
    q = PQR.index("q")
    for n in range(1, 5):
        for poly in (f[n], g[n]):
            assert min((exp[q] for exp, _ in poly.items()), default=0) >= 1


def test_series_json():
    ser = series_213(3)
    assert len(ser) == 4
    assert ser[1].to_json() == (
        '{"vars": ["p", "q", "r"], "terms": [{"exp": [1, 0, 0], "coef": "1"}]}')


def test_truncation_guard():
    ser = series_213(3)
    with pytest.raises(IndexError):
        ser[4]


# -- the online engine against independent routes, above the brute-force cap --


def test_online_123_and_132_equal_the_recurrences_up_to_order_12():
    c123, c132 = series_123(12), series_132(12)
    r123, r132 = recurrence_123(12), recurrence_132(12)
    for n in range(13):
        assert c123[n] == r123[n], n
        assert c132[n] == r132[n], n


def test_online_213_counts_equal_the_closed_form_up_to_order_20():
    counts = ints(c.specialize({"p": 1, "q": 1, "r": 1}) for c in series_213(20))
    assert counts == [count_avoid_213(k) for k in range(21)]


def test_online_R_at_z_1_equals_the_plateau_polynomials_up_to_order_12():
    R = solve_R(12)
    for n in range(1, 13):
        assert R[n].specialize({"z": 1}).project(("p",)) == plateau_poly_213(n), n


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
