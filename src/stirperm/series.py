"""Truncated formal power series in x with exact polynomial coefficients.

Every functional equation is an entry of ``EQUATIONS``, solved by one
online solver, ``_solve`` (lazy online evaluation, van der Hoeven, "Relax,
but don't be too lazy", 2002): the unknown only enters multiplied by x, so
coefficient n is computed once from coefficients 0..n-1.  A quotient
num/den is the equation q = num + (1 - den) q.  All arithmetic is exact;
no radicals are expanded.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import CompositionError, DivisibilityError
from .polynomials import PQR, PZ, Polynomial

PQRV = ("p", "q", "r", "v")


class TruncatedSeries:
    """Series sum_{k<=N} c_k x**k with Polynomial coefficients, exact mod x^(N+1)."""

    __slots__ = ("vars", "order", "coeffs")

    def __init__(self, vars, coeffs, order=None):
        vars = tuple(vars)
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs) - 1
        zero = Polynomial.zero(vars)
        fixed = []
        for k in range(order + 1):
            c = coeffs[k] if k < len(coeffs) else zero
            if isinstance(c, int):
                c = Polynomial.constant(c, vars)
            if c.vars != vars:
                raise ValueError("coefficient variable mismatch")
            fixed.append(c)
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(fixed))

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @classmethod
    def constant(cls, value, vars, order):
        return cls(vars, [value], order)

    def coefficient(self, k):
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient {k} beyond truncation order {self.order}")
        return self.coeffs[k]

    def _check(self, other):
        if self.vars != other.vars or self.order != other.order:
            raise ValueError("series mismatch (variables or truncation order)")

    def __add__(self, other):
        if isinstance(other, (int, Polynomial)):
            other = TruncatedSeries.constant(other, self.vars, self.order)
        self._check(other)
        return TruncatedSeries(
            self.vars, [a + b for a, b in zip(self.coeffs, other.coeffs)], self.order
        )

    def __neg__(self):
        return TruncatedSeries(self.vars, [-c for c in self.coeffs], self.order)

    def __sub__(self, other):
        if isinstance(other, (int, Polynomial)):
            other = TruncatedSeries.constant(other, self.vars, self.order)
        return self + (-other)

    # No caller in the package; kept since benchmarks/tracing.py wraps __mul__, inverse, compose
    def __mul__(self, other):
        self._check(other)
        a, b = self.coeffs, other.coeffs
        coeffs = [Polynomial.sum_products(self.vars, [(a[i], b[k - i]) for i in range(k + 1)])
                  for k in range(self.order + 1)]
        return TruncatedSeries(self.vars, coeffs, self.order)

    def inverse(self):
        """Reciprocal series; the constant coefficient must be exactly 1."""
        if self.coeffs[0] != Polynomial.one(self.vars):
            raise DivisibilityError("series inverse needs constant coefficient 1")
        a, inv = self.coeffs, [Polynomial.one(self.vars)]
        for n in range(1, self.order + 1):
            pairs = [(a[k], inv[n - k]) for k in range(1, n + 1)]
            inv.append(-Polynomial.sum_products(self.vars, pairs))
        return TruncatedSeries(self.vars, inv, self.order)

    def compose(self, inner):
        """Substitute the inner series for x; it must vanish at x = 0."""
        self._check(inner)
        if not inner.coeffs[0].is_zero():
            raise CompositionError("inner series must have zero constant term")
        result = TruncatedSeries.constant(self.coeffs[self.order], self.vars, self.order)
        for k in range(self.order - 1, -1, -1):
            result = result * inner + self.coeffs[k]
        return result

    def specialize(self, values):
        return self.map_coefficients(lambda c: c.specialize(values))

    def map_coefficients(self, fn):
        return TruncatedSeries(self.vars, [fn(c) for c in self.coeffs], self.order)


# -- the online solver --------------------------------------------------------

F = "f"  # the unknown, as a factor of a term


class _Stream:
    """A series whose coefficients are computed in order on demand, each once."""

    def __init__(self, next):
        self.coeffs, self.next = [], next

    def __getitem__(self, k):
        while len(self.coeffs) <= k:
            self.coeffs.append(self.next(len(self.coeffs)))
        return self.coeffs[k]


def _product(a, b, vars):
    """The stream a*b; a square forms each cross product once, with factor 2."""

    def coefficient(k):
        if a is not b:
            return Polynomial.sum_products(vars, [(a[i], b[k - i]) for i in range(k + 1)])
        pairs = [(2 * a[i], a[k - i]) for i in range((k + 1) // 2)]
        if k % 2 == 0:
            pairs.append((a[k // 2], a[k // 2]))
        return Polynomial.sum_products(vars, pairs)

    return _Stream(coefficient)


def _solve(vars, order, start, terms):
    """The series f = start + sum of scalar * x^s * (product of factors).

    Each term is (scalar, s, factors) with s >= 1.  A factor is F (the
    unknown f), a function applied to f coefficient by coefficient (such as
    p -> p z^k), or a known TruncatedSeries; no factors stands for 1.  Each
    product caches its coefficients and shares them with every product that
    ends in it.
    """

    def coefficient(n):
        if n == 0:
            return Polynomial.constant(start, vars)
        return Polynomial.sum_products(
            vars, [(scalar, prod[n - s]) for scalar, s, prod in compiled if n >= s]
        )

    f = _Stream(coefficient)
    streams = {(id(F),): f, (): TruncatedSeries.constant(1, vars, order).coeffs}

    def stream(factors):
        key = tuple(map(id, factors))
        if key not in streams:
            head = factors[0]
            if len(factors) > 1:
                streams[key] = _product(stream(factors[:1]), stream(factors[1:]), vars)
            else:
                streams[key] = _Stream(lambda k: head(f[k])) if callable(head) else head.coeffs
        return streams[key]

    one = Polynomial.one(vars)  # int scalars become constant polynomials
    compiled = [(one * scalar, s, stream(factors)) for scalar, s, factors in terms]
    coeffs = [f[k] for k in range(order + 1)]
    # f and its products refer to each other: free them now, not at a later gc
    streams.clear()
    compiled.clear()
    return TruncatedSeries(vars, coeffs, order)


# -- the equations -----------------------------------------------------------
#
# One entry per --eq family.  _solve finds the series f = start + sum of the
# terms over vars, and form says how C is read off f: "C-1" (f = C - 1),
# "qC-q+1" (f = qC - q + 1) or "C" (f = C).  terms(*gens, G) builds the
# terms (scalar, s, factors) from the generators of vars and, for a chain
# step, G = F_t' - 1 of the pattern t' it prepends to; building the table
# makes no Polynomial.  entry is the function of this module that solves
# the family; pair_series solves a chain, one step per block b with the
# family "prepend" + b.
#
# limit is the largest --order without --force: the largest order solved in
# under 2 s (in-process, best of 2, Python 3.11.7, 2-vCPU Xeon): 213 1.8 s,
# 123 1.3 s, 132 1.2 s, R 1.6 s.  The chain limits were measured on
# four-step chains (1.7 and 1.4 s); a chain takes longer the more blocks it
# has.  chain_limit is the largest blocks x order of a chain without
# --force, 0 for a family that takes no chain.
Equation = namedtuple("Equation", "vars start form limit chain_limit entry terms")

# The chain limit, measured the same way: 11,11,11,11 and 1,11,11,11 at
# order 26 (104) took 1.7-1.9 s, while 1,11,11,11 took 2.2 s at 27 (108)
# and 2.9 s at 28 (112).
CHAIN_LIMIT = 104

# R(x, p z^k, z) coefficient by coefficient, k = 1, 2: p-degree moves into z-degree
_R1, _R2 = (lambda c, k=k: c.shift_var("p", "z", k) for k in (1, 2))

EQUATIONS = {
    # f = xp + x(pr+qr+pq) f + xqr(r+p+q) f^2 + x q^2 r^2 f^3
    "213": Equation(PQR, 0, "C-1", 40, 0, "series_213", lambda P, Q, R, G: [
        (P, 1, ()), (P * R + Q * R + P * Q, 1, (F,)),
        (Q * R * (R + P + Q), 1, (F, F)), (Q * Q * R * R, 1, (F, F, F))]),
    # f = 1 + pqx(-1 + (2 + x(pr+qr-pq)) f - pqx(1 - x(p-r)(q-r)) f^2) f
    "123": Equation(PQR, 1, "qC-q+1", 52, 0, "series_123", lambda P, Q, R, G: [
        (-P * Q, 1, (F,)), (2 * P * Q, 1, (F, F)), (P * Q * (P * R + Q * R - P * Q), 2, (F, F)),
        (-P * Q * P * Q, 2, (F, F, F)), (P * Q * P * Q * (P - R) * (Q - R), 3, (F, F, F))]),
    # f = 1 + px(q - 2r + r(2 + (pr-pq+q^2)x) f - p r^2 x f^2) f
    "132": Equation(PQR, 1, "qC-q+1", 46, 0, "series_132", lambda P, Q, R, G: [
        (P * (Q - 2 * R), 1, (F,)), (2 * P * R, 1, (F, F)),
        (P * R * (P * R - P * Q + Q * Q), 2, (F, F)), (-P * P * R * R, 2, (F, F, F))]),
    # R(x,p,z) over the 213-avoiders marking plateaus and 122 hits:
    # R = 1 / (1 - x (R(x,pz,z) - 1 + p) R(x,pz^2,z)), solved as
    # R = 1 + x R(x,pz,z) R(x,pz^2,z) R + x (p - 1) R(x,pz^2,z) R
    "R": Equation(PZ, 1, "C", 21, 0, "solve_R", lambda P, Z, G: [
        (1, 1, (_R1, _R2, F)), (P - 1, 1, (_R2, F))]),
    # 1 (+) t': F = 1 + (xp + xr(p+q) G + x q r^2 G^2)
    #   / (1 - xpq - xqr(1+p) G - x q^2 r^2 G^2), and u = F - 1 = num/den
    # is solved as u = num + (1 - den) u
    "prepend1": Equation(PQR, 0, "C-1", 28, CHAIN_LIMIT, "pair_series", lambda P, Q, R, G: [
        (P, 1, ()), (R * (P + Q), 1, (G,)), (Q * R * R, 1, (G, G)),
        (P * Q, 1, (F,)), (Q * R * (1 + P), 1, (G, F)), (Q * Q * R * R, 1, (G, G, F))]),
    # 11 (+) t': F = 1 + xp + x(p+r)q (F-1) + xpr G + xqr (F-1)^2
    #   + xqr(p+r) (F-1) G + x q^2 r^2 G (F-1)^2, solved for u = F - 1,
    # the unique series branch with constant term 1
    "prepend11": Equation(PQR, 0, "C-1", 26, CHAIN_LIMIT, "pair_series", lambda P, Q, R, G: [
        (P, 1, ()), (P * R, 1, (G,)), ((P + R) * Q, 1, (F,)), (Q * R, 1, (F, F)),
        (Q * R * (P + R), 1, (F, G)), (Q * Q * R * R, 1, (G, F, F))]),
}


def solve(family, order, G=None):
    """C of an EQUATIONS family to order; G is a chain step's F_t' - 1."""
    eq = EQUATIONS[family]
    f = _solve(eq.vars, order, eq.start, eq.terms(*Polynomial.gens(eq.vars), G))
    if eq.form == "qC-q+1":  # C - 1 = (f - 1)/q, checking that q divides f - 1
        f = (f - 1).map_coefficients(lambda c: c.div_var_exact("q"))
    return f if eq.form == "C" else f + 1


def series_213(order):
    """Full distribution series C_213(x,p,q,r)."""
    return solve("213", order)


def series_123(order):
    """Full distribution series C_123(x,p,q,r)."""
    return solve("123", order)


def series_132(order):
    """Full distribution series C_132(x,p,q,r)."""
    return solve("132", order)


def solve_R(order):
    """Series R(x,p,z) over the 213-avoiders marking plateaus and 122 hits."""
    return solve("R", order)


# -- recurrence route for the 123 and 132 coefficients ----------------------
#
# These recompute the same coefficient polynomials through the catalytic
# L_n(v) recurrences, giving a computation path independent of the series
# solvers above.  One loop, _catalytic, runs both systems; each system is
# its table of coefficients.  The brackets L_m(v) - v^s L_m(1) are divisible
# by (1 - v) by construction, and the division is performed exactly.

# The printed seeds L_1..L_k that each system consumes
SEEDS = {"123": 3, "132": 2}


def printed_seeds():
    """The paper's printed seeds, in p,q,r,v: ({n: L_n(v)}, f(2) = g(2)).

    SEEDS says how many of L_1..L_3 each system consumes.
    """
    P, Q, R, V = Polynomial.gens(PQRV)
    L = {
        1: P,
        2: P * P * (R + Q * V),
        3: P ** 3 * Q * R
        + P * P * Q * R * (2 * P + Q) * V
        + P * P * Q * (P * R + Q * R + P * Q) * V * V,
    }
    return L, P * (P * Q + P * R + Q * R)


def _catalytic(order, seeds, lag, head, plain, brackets, close):
    """Coefficients 0..order, in p,q,r, of the series f of one L_n(v) system.

    The system starts from the printed f_0 = 1, f_1 = L_1 = p, f_2 and
    L_1..L_seeds.  head_j, plain_j and brackets_j are the j-th entries
    (j = 1, 2, ...) of their tables; for n > seeds,
      L_n = sum_j head_j v^(n-lag) f_(n-j) + plain_j L_(n-j) + brackets_j B_j,
      B_j = (L_(n-j)(v) - v^(n-seeds) L_(n-j)(1)) / (1 - v),
    and for n >= 3, f_n = close_0 f_(n-1) + L_n(1) + close_1 L_(n-1)(1).
    """
    printed, f2 = printed_seeds()
    L = {m: printed[m] for m in range(1, seeds + 1)}
    f = [Polynomial.one(PQRV), L[1], f2]
    V = Polynomial.variable("v", PQRV)

    def at_one(poly):
        return poly.specialize({"v": 1})

    for n in range(3, order + 1):
        if n > seeds:
            shift = V ** (n - seeds)
            L[n] = Polynomial.sum_products(PQRV, [
                *((c * V ** (n - lag), f[n - j]) for j, c in enumerate(head, 1)),
                *((c, L[n - j]) for j, c in enumerate(plain, 1)),
                *((c, (L[n - j] - shift * at_one(L[n - j])).div_one_minus_exact("v"))
                  for j, c in enumerate(brackets, 1)),
            ])
        f.append(close[0] * f[n - 1] + at_one(L[n]) + close[1] * at_one(L[n - 1]))
    return [c.project(PQR) for c in f[: order + 1]]


def recurrence_123(order):
    """Coefficients of C_123 computed via the L_n(v) recurrence system."""
    P, Q, R, V = Polynomial.gens(PQRV)
    PQ = P * Q
    return _catalytic(
        order, SEEDS["123"], 2,
        head=(PQ * (1 + V), PQ * P * (R - 2 * Q)),
        plain=(2 * PQ, -PQ * PQ),
        brackets=(PQ * V, PQ * (Q * R + P * R - 2 * PQ) * V, PQ * PQ * (R - P) * (R - Q) * V),
        close=(PQ, Q * (R - P)))


def recurrence_132(order):
    """Coefficients of C_132 computed via the L_n(v) recurrence system."""
    P, Q, R, V = Polynomial.gens(PQRV)
    return _catalytic(
        order, SEEDS["132"], 1,
        head=(P * Q,),
        plain=(2 * P * R, -P * P * R * R),
        brackets=(P * Q * V, P * Q * R * (Q - P) * V),
        close=(P * R, R * (Q - P)))


# -- two-pattern families ---------------------------------------------------


def pair_series(blocks, order):
    """Chain of prepend steps; blocks are "1" or "11", rightmost is the base.

    The base's avoider series is the constant 1, since every nonempty word
    contains both 1 and 11; each remaining block, right to left, wraps the
    current pattern by disjoint concatenation from the left.
    """
    if not blocks or any("prepend" + block not in EQUATIONS for block in blocks):
        raise ValueError(f"unsupported chain {blocks!r}")
    chain = TruncatedSeries.constant(1, PQR, order)
    for block in reversed(blocks[:-1]):
        chain = solve("prepend" + block, order, chain - 1)
    return chain


def chain_pattern(blocks):
    """The pattern word a prepend chain denotes, e.g. ("11","11") -> 1122.

    Disjoint concatenation shifts the right part above the left part's
    largest letter, which is 1 for both supported blocks.
    """
    pattern = []
    for block in reversed(blocks):
        pattern = [1] * len(block) + [v + 1 for v in pattern]
    return tuple(pattern)
