import json

import pytest

from stirperm.errors import DivisibilityError
from stirperm.polynomials import Polynomial

PQR = ("p", "q", "r")


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
    assert poly.evaluate({"p": 2, "q": 3, "r": 5}) == 27
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
    assert small.extend(PQR) == poly
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
