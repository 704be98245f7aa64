import json
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stirperm.polynomials import MAX_EXPONENT, Polynomial

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


def test_malformed_operands_are_refused():
    p, _, _ = gens()
    with pytest.raises(ValueError, match=r"exponent \(1, 2\) does not fit the variables"):
        Polynomial(PQR, {(1, 2): 1})
    with pytest.raises(ValueError, match="variable mismatch"):
        p + Polynomial.gens(("p", "q"))[0]
    with pytest.raises(ValueError, match="negative power"):
        p ** -1


def test_specialize_and_evaluate():
    p, q, r = gens()
    poly = p * p * q + 3 * r
    assert poly.specialize({"q": 1, "r": 1}) == p * p + 3
    assert poly.specialize({"p": 2, "q": 3, "r": 5}).constant_term() == 27


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
    # p -> p z^-1 sends p^2 z to p^2 z^-1: an exponent below 0
    assert (p * z**2).shift_var("p", "z", -2) == p
    with pytest.raises(ValueError, match="out of range"):
        poly.shift_var("p", "z", -1)


@pytest.mark.parametrize("call", [
    lambda f: f.permute_vars({"x": "y"}),
    lambda f: f.permute_vars({"x": "p"}),
    lambda f: f.specialize({"q": 1, "x": 1}),
    lambda f: f.shift_var("x", "p", 1),
    lambda f: f.shift_var("p", "x", 1),
    lambda f: f.project(("p", "x")),
    lambda f: f.div_var_exact("x"),
    lambda f: f.div_one_minus_exact("x"),
], ids=["permute-key", "permute-key-onto-a-variable", "specialize", "shift-src", "shift-dst",
        "project", "div-var", "div-one-minus"])
def test_an_unknown_name_is_refused(call):
    p, q, r = gens()
    with pytest.raises(ValueError, match=r"^no variable 'x' in \('p', 'q', 'r'\)$"):
        call(p * q + r)


@pytest.mark.parametrize("call", [
    lambda: Polynomial(("p", "p"), {(1, 2): 1}),
    lambda: Polynomial.zero(("p", "p")),
    lambda: Polynomial.one(("p", "p")),
    lambda: Polynomial.constant(2, ("p", "p")),
    lambda: Polynomial.variable("p", ("p", "p")),
    lambda: Polynomial.gens(("p", "p")),
    lambda: (gens()[0] ** 2).project(("p", "p")),
], ids=["constructor", "zero", "one", "constant", "variable", "gens", "project"])
def test_a_repeated_name_is_refused(call):
    with pytest.raises(ValueError, match=r"^repeated variable name in \('p', 'p'\)$"):
        call()


def test_project_extend():
    p, q, r = gens()
    poly = p * p + 2 * p
    small = poly.specialize({"q": 1}).project(("p",))
    assert small.vars == ("p",)
    with pytest.raises(ValueError):
        (p * q).project(("p",))


def test_division_helpers():
    p, q, r = gens()
    assert (p * q + p * p).div_var_exact("p") == q + p
    with pytest.raises(ValueError, match=r"^monomial \(0, 1, 0\) has no factor p$"):
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
    with pytest.raises(ValueError, match=r"^not divisible by \(1 - v\)$"):
        (one + v).div_one_minus_exact("v")


def test_string_and_ordering():
    p, q, r = gens()
    assert str(Polynomial.zero(PQR)) == "0"
    assert str(p * p - q + 5) == "p^2 - q + 5"
    assert str(-3 * p * q * q) == "-3*p*q^2"


def test_json_round_trip():
    p, q, r = gens()
    poly = 12 * p * p * q + r**3 + 1
    obj = json.loads(poly.to_json())
    assert obj["vars"] == ["p", "q", "r"]
    assert all(isinstance(t["coef"], str) for t in obj["terms"])
    assert Polynomial(obj["vars"], {tuple(t["exp"]): int(t["coef"]) for t in obj["terms"]}) == poly
    assert json.dumps(obj) == poly.to_json()
    assert Polynomial.zero(PQR).to_json() == '{"vars": ["p", "q", "r"], "terms": []}'


def test_immutability():
    p, _, _ = gens()
    with pytest.raises(AttributeError):
        p.terms = {}


# -- the two kernels: sum_products and _substitute -------------------------

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)
POINTS = st.tuples(*[st.sampled_from([-3, -2, -1, 1, 2, 3])] * 3)


@st.composite
def polys(draw, vars=PQR):
    """Up to six terms with small coefficients, zeros included."""
    return Polynomial(vars, draw(terms(len(vars))))


def value(poly, point):
    """The polynomial at a point with nonzero coordinates, term by term."""
    return sum(
        coef * prod(Fraction(x) ** e for x, e in zip(point, exp))
        for exp, coef in poly.items()
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
    x, y, z = point
    for val in range(-2, 3):
        flat = poly.specialize({"q": val})
        assert no_zero_stored(flat)
        assert value(flat, point) == value(poly, (x, val, z))
    shifted = poly.shift_var("p", "r", 1)
    assert no_zero_stored(shifted)
    assert value(shifted, point) == value(poly, (x * z, y, z))


@PROPERTY
@given(polys(PQRV))
def test_div_one_minus_inverts_the_product(a):
    v = Polynomial.variable("v", PQRV)
    product = a * (1 - v)
    quotient = product.div_one_minus_exact("v")
    assert quotient == a
    assert no_zero_stored(quotient)


@PROPERTY
@given(polys(PQRV), st.tuples(*[st.integers(0, 3)] * 4), st.integers(1, 3))
def test_div_one_minus_refuses_one_bad_group(a, exp, coef):
    v = Polynomial.variable("v", PQRV)
    # every group of a * (1 - v) sums to zero at v = 1 but the one the monomial joins
    broken = a * (1 - v) + Polynomial(PQRV, {exp: coef})
    with pytest.raises(ValueError, match=r"^not divisible by \(1 - v\)$"):
        broken.div_one_minus_exact("v")


# -- the packed layout against a plain tuple-key reference ------------------

NAMES = ("a", "b", "c", "d")


def terms(n):
    """Dicts of up to six exponent tuples in 0..3 with small coefficients, zeros included."""
    return st.dictionaries(st.tuples(*[st.integers(0, 3)] * n), st.integers(-3, 3), max_size=6)


def ref(terms):
    """A tuple-key reference polynomial: the dict without its zero coefficients."""
    return {exp: c for exp, c in terms.items() if c}


def ref_sum(pairs):
    out = {}
    for exp, c in pairs:
        out[exp] = out.get(exp, 0) + c
    return ref(out)


def ref_mul(a, b):
    return ref_sum((tuple(x + y for x, y in zip(e1, e2)), c1 * c2)
                   for e1, c1 in a.items() for e2, c2 in b.items())


def same(poly, terms):
    """poly holds exactly the reference terms, and its bound covers them."""
    assert dict(poly.items()) == terms
    assert poly == Polynomial(poly.vars, terms)
    assert all(e <= poly.bound for exp in terms for e in exp)


@st.composite
def rings(draw):
    """(vars, reference a, reference b) over 1 to 4 variables."""
    vars = NAMES[: draw(st.integers(1, 4))]
    return vars, ref(draw(terms(len(vars)))), ref(draw(terms(len(vars))))


@PROPERTY
@given(rings())
def test_products_and_sums_match_the_reference(ring):
    vars, a, b = ring
    pa, pb = Polynomial(vars, a), Polynomial(vars, b)
    same(pa * pb, ref_mul(a, b))
    same(pa + pb, ref_sum([*a.items(), *b.items()]))
    same(pa - pa, {})
    same(Polynomial.sum_products(vars, [(pa, pb), (pb, pa)]), ref_sum(
        (exp, 2 * c) for exp, c in ref_mul(a, b).items()))


@PROPERTY
@given(rings(), st.data())
def test_reshaping_matches_the_reference(ring, data):
    vars, a, _ = ring
    poly, n = Polynomial(vars, a), len(vars)
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    mult = data.draw(st.integers(-2, 2))

    def put(exp, k, e):
        return exp[:k] + (e,) + exp[k + 1:]

    shifted = [(put(exp, j, exp[j] + mult * exp[i]), c) for exp, c in a.items()]
    if all(exp[j] >= 0 for exp, _ in shifted):
        same(poly.shift_var(vars[i], vars[j], mult), ref_sum(shifted))
    else:
        with pytest.raises(ValueError, match="out of range"):
            poly.shift_var(vars[i], vars[j], mult)
    for val in range(-2, 3):
        same(poly.specialize({vars[i]: val}),
             ref_sum((put(exp, i, 0), c * val ** exp[i]) for exp, c in a.items()))
    order = data.draw(st.permutations(range(n)))
    renamed = poly.permute_vars({vars[k]: vars[order[k]] for k in range(n)})
    same(renamed, ref_sum((tuple(exp[order.index(k)] for k in range(n)), c)
                          for exp, c in a.items()))
    keep = data.draw(st.lists(st.sampled_from(range(n)), unique=True))
    flat = poly.specialize({vars[k]: 1 for k in range(n) if k not in keep})
    small = ref_sum((tuple(exp[k] for k in keep), c) for exp, c in a.items())
    projected = flat.project([vars[k] for k in keep])
    assert projected.vars == tuple(vars[k] for k in keep)
    same(projected, small)
    if len(keep) < n and any(exp[k] for exp in a for k in range(n) if k not in keep):
        with pytest.raises(ValueError):
            poly.project([vars[k] for k in keep])
    for k in range(n):
        if all(exp[k] for exp in a):
            same(poly.div_var_exact(vars[k]), {put(exp, k, exp[k] - 1): c for exp, c in a.items()})
        else:
            with pytest.raises(ValueError, match=f"has no factor {vars[k]}$"):
                poly.div_var_exact(vars[k])


@PROPERTY
@given(rings(), st.data())
def test_div_one_minus_matches_the_reference(ring, data):
    vars, a, _ = ring
    i = data.draw(st.integers(0, len(vars) - 1))
    one_minus = {(0,) * len(vars): 1, tuple(int(k == i) for k in range(len(vars))): -1}
    same(Polynomial(vars, ref_mul(a, one_minus)).div_one_minus_exact(vars[i]), a)


def ref_str(vars, terms):
    """The printed form, built from the exponent tuples in descending order."""
    pieces = []
    for exp, c in sorted(terms.items(), reverse=True):
        body = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(vars, exp) if e)
        mag = str(abs(c)) if not body else body if abs(c) == 1 else f"{abs(c)}*{body}"
        pieces.append(("-" if c < 0 else "+") + " " + mag)
    text = " ".join(pieces) or "+ 0"
    return text[2:] if text[0] == "+" else "-" + text[2:]


@PROPERTY
@given(rings())
def test_printed_forms_order_terms_as_exponent_tuples(ring):
    vars, a, _ = ring
    poly = Polynomial(vars, a)
    assert str(poly) == ref_str(vars, a)
    obj = json.loads(poly.to_json())
    assert [tuple(t["exp"]) for t in obj["terms"]] == sorted(a)
    assert [int(t["coef"]) for t in obj["terms"]] == [a[exp] for exp in sorted(a)]


@PROPERTY
@given(rings(), st.data())
def test_json_text_is_what_json_dumps_writes(ring, data):
    vars, a, _ = ring
    # any names, so that the ones json.dumps escapes are written too
    names = tuple(data.draw(st.lists(st.text(min_size=1, max_size=3), min_size=len(vars),
                                     max_size=len(vars), unique=True)))
    terms = [{"exp": list(exp), "coef": str(a[exp])} for exp in sorted(a)]
    assert Polynomial(names, a).to_json() == json.dumps({"vars": list(names), "terms": terms})


# -- the field range --------------------------------------------------------

EDGE = st.integers(MAX_EXPONENT - 3, MAX_EXPONENT) | st.integers(0, 3)


@pytest.mark.parametrize("e", [-1, MAX_EXPONENT + 1, -MAX_EXPONENT - 1, 10**6])
def test_constructor_refuses_an_exponent_past_the_range(e):
    with pytest.raises(ValueError, match="out of range"):
        Polynomial(PQR, {(0, e, 0): 1})
    assert Polynomial(PQR, {(0, MAX_EXPONENT, 0): 1}).bound == MAX_EXPONENT


@PROPERTY
@given(st.tuples(EDGE, EDGE), st.tuples(EDGE, EDGE))
def test_a_product_past_the_range_raises_and_never_carries(e1, e2):
    a, b = Polynomial(("p", "q"), {e1: 2}), Polynomial(("p", "q"), {e2: 3})
    want = tuple(x + y for x, y in zip(e1, e2))
    if max(want) > MAX_EXPONENT:
        with pytest.raises(ValueError, match="out of range"):
            a * b
        return
    try:
        product = a * b
    except ValueError:  # the bounds may refuse what the exponents would allow
        return
    assert dict(product.items()) == {want: 6}


def test_shift_past_the_range_raises():
    p, z = Polynomial.gens(("p", "z"))
    big = p ** (MAX_EXPONENT // 2)
    assert big.shift_var("p", "z", 2).coefficient((MAX_EXPONENT // 2, MAX_EXPONENT - 1)) == 1
    with pytest.raises(ValueError, match="out of range"):
        (big * p).shift_var("p", "z", 2)


def test_power_reaches_the_largest_exponent_and_no_further():
    p, q, _ = gens()
    assert (p ** MAX_EXPONENT).coefficient((MAX_EXPONENT, 0, 0)) == 1
    assert ((p + q) ** 5) == (p + q) * (p + q) ** 4
    with pytest.raises(ValueError, match="out of range"):
        p ** (MAX_EXPONENT + 1)


def test_coefficient_reads_exponent_tuples():
    p, q, r = gens()
    poly = 3 * p * q ** 2 - r + 7
    assert poly.coefficient((1, 2, 0)) == 3
    assert poly.coefficient((0, 0, 1)) == -1
    assert poly.coefficient((0, 0, 0)) == poly.constant_term() == 7
    assert poly.coefficient((5, 0, 0)) == poly.coefficient((0, MAX_EXPONENT + 9, 0)) == 0
    # a negative entry is read as absent, never packed into some other key
    assert poly.coefficient((1, 3, -1)) == poly.coefficient((-1, 0, 0)) == 0
    with pytest.raises(ValueError):
        poly.coefficient((1, 2))
