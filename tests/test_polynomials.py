import json
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stirperm.errors import DivisibilityError
from stirperm.polynomials import Polynomial

PQR = ("p", "q", "r")
PQRV = ("p", "q", "r", "v")


def gens():
    return Polynomial.gens(PQR)


def test_basic_arithmetic():
    p, q, r = gens()
    expr = (p + q) * (p - q)
    assert expr == p * p - q * q
    assert (p + 1) - p == Polynomial.one(PQR)
    assert 2 * p + p * 3 == 5 * p
    assert (p + q) ** 2 == p * p + 2 * p * q + q * q
    assert p**0 == Polynomial.one(PQR)
    assert not Polynomial.zero(PQR)


def test_specialize_and_evaluate():
    p, q, r = gens()
    poly = p * p * q + 3 * r
    assert poly.specialize({"q": 1, "r": 1}) == p * p + 3
    assert poly.specialize({"p": 2, "q": 3, "r": 5}).constant_term() == 27
    laurent = Polynomial(PQR, {(-1, 0, 0): 4})
    assert laurent.specialize({"p": 1}).constant_term() == 4
    with pytest.raises(ValueError):
        laurent.specialize({"p": 2})


def test_permute_vars():
    p, q, r = gens()
    poly = p * p * q
    assert poly.permute_vars({"p": "q", "q": "p"}) == q * q * p
    sym = p * q + q * r + p * r
    assert sym.permute_vars({"p": "q", "q": "r", "r": "p"}) == sym
    with pytest.raises(ValueError):
        poly.permute_vars({"p": "q"})  # not a bijection


def test_shift_var():
    p, z = Polynomial.gens(("p", "z"))
    poly = p * p * z + p
    # p -> p z^2 sends p^2 z to p^2 z^5 and p to p z^2
    assert poly.shift_var("p", "z", 2) == p * p * z**5 + p * z * z


def test_project_extend():
    p, q, r = gens()
    poly = p * p + 2 * p
    small = poly.specialize({"q": 1}).project(("p",))
    assert small.vars == ("p",)
    with pytest.raises(ValueError):
        (p * q).project(("p",))


def test_division_helpers():
    p, q, r = gens()
    assert (2 * p + 4 * q).div_exact_const(2) == p + 2 * q
    with pytest.raises(DivisibilityError):
        (2 * p + 3 * q).div_exact_const(2)
    assert (p * q + p * p).div_var_exact("p") == q + p
    with pytest.raises(DivisibilityError):
        (p + q).div_var_exact("p")


def test_div_one_minus():
    vars = ("p", "v")
    p, v = Polynomial.gens(vars)
    one = Polynomial.one(vars)
    # (1 - v^4) / (1 - v) = 1 + v + v^2 + v^3
    quotient = (one - v**4).div_one_minus_exact("v")
    assert quotient == one + v + v * v + v**3
    poly = p * (one - v) * (one + v + 3 * v * v)
    assert poly.div_one_minus_exact("v") == p * (one + v + 3 * v * v)
    with pytest.raises(DivisibilityError):
        (one + v).div_one_minus_exact("v")


def test_string_and_ordering():
    p, q, r = gens()
    assert str(Polynomial.zero(PQR)) == "0"
    assert str(p * p - q + 5) == "p^2 - q + 5"
    assert str(-3 * p * q * q) == "-3*p*q^2"


def test_json_round_trip():
    p, q, r = gens()
    poly = 12 * p * p * q + r**3 + 1
    obj = poly.to_json_obj()
    assert obj["vars"] == ["p", "q", "r"]
    assert all(isinstance(t["coef"], str) for t in obj["terms"])
    assert json.loads(json.dumps(obj)) == obj


def test_immutability():
    p, _, _ = gens()
    with pytest.raises(AttributeError):
        p.terms = {}


# -- the two kernels: sum_products and the exponent map ---------------------

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)
POINTS = st.tuples(*[st.sampled_from([-3, -2, -1, 1, 2, 3])] * 3)


@st.composite
def polys(draw, vars=PQR, low=-1):
    """Up to six terms with exponents in low..2 and small coefficients, zeros included."""
    exps = st.tuples(*[st.integers(low, 2)] * len(vars))
    return Polynomial(vars, draw(st.dictionaries(exps, st.integers(-3, 3), max_size=6)))


def value(poly, point):
    """The polynomial at a point with nonzero coordinates, term by term."""
    return sum(
        coef * prod(Fraction(x) ** e for x, e in zip(point, exp))
        for exp, coef in poly.terms.items()
    )


def no_zero_stored(poly):
    return all(poly.terms.values())


@PROPERTY
@given(st.lists(st.tuples(polys(), polys()), min_size=1, max_size=4), polys(), POINTS)
def test_sum_products_matches_evaluation(pairs, c, point):
    a, b = pairs[0]
    pairs.append((c - a, b))  # cancels a * b, term by term
    total = Polynomial.sum_products(PQR, pairs)
    assert no_zero_stored(total)
    assert value(total, point) == sum(value(x, point) * value(y, point) for x, y in pairs)


@PROPERTY
@given(polys(), POINTS)
def test_exponent_map_combines_like_terms(poly, point):
    x, _, z = point
    for unit in (1, -1):
        flat = poly.specialize({"q": unit})
        assert no_zero_stored(flat)
        assert value(flat, point) == value(poly, (x, unit, z))
    shifted = poly.shift_var("p", "r", -1)
    assert no_zero_stored(shifted)
    assert value(shifted, point) == value(poly, (Fraction(x, z), point[1], z))


@PROPERTY
@given(polys(PQRV, low=0))
def test_div_one_minus_inverts_the_product(a):
    v = Polynomial.variable("v", PQRV)
    product = a * (1 - v)
    quotient = product.div_one_minus_exact("v")
    assert quotient == a
    assert no_zero_stored(quotient)


@PROPERTY
@given(polys(PQRV, low=0), st.tuples(*[st.integers(0, 3)] * 4), st.integers(1, 3))
def test_div_one_minus_refuses_one_bad_group(a, exp, coef):
    v = Polynomial.variable("v", PQRV)
    # every group of a * (1 - v) sums to zero at v = 1 but the one the monomial joins
    broken = a * (1 - v) + Polynomial(PQRV, {exp: coef})
    with pytest.raises(DivisibilityError):
        broken.div_one_minus_exact("v")
