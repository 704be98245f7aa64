"""Truncated formal power series in x with exact polynomial coefficients.

Every functional equation is solved by one online solver, ``_solve`` (lazy
online evaluation, van der Hoeven, "Relax, but don't be too lazy", 2002):
the unknown only enters multiplied by x, so coefficient n is computed once
from coefficients 0..n-1.  A quotient num/den is the equation
q = num + (1 - den) q.  All arithmetic is exact; no radicals are expanded.
"""

from __future__ import annotations

from math import comb

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

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(self.vars, [-c for c in self.coeffs], self.order)

    def __sub__(self, other):
        if isinstance(other, (int, Polynomial)):
            other = TruncatedSeries.constant(other, self.vars, self.order)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        self._check(other)
        a, b = self.coeffs, other.coeffs
        coeffs = [Polynomial.sum_products(self.vars, [(a[i], b[k - i]) for i in range(k + 1)])
                  for k in range(self.order + 1)]
        return TruncatedSeries(self.vars, coeffs, self.order)

    def shift(self, k=1):
        """Multiply by x**k, dropping what overflows the truncation order."""
        return TruncatedSeries(
            self.vars, [Polynomial.zero(self.vars)] * k + list(self.coeffs), self.order
        )

    def inverse(self):
        """Reciprocal series; the constant coefficient must be exactly 1."""
        if self.coeffs[0] != Polynomial.one(self.vars):
            raise DivisibilityError("series inverse needs constant coefficient 1")
        a, inv = self.coeffs, [Polynomial.one(self.vars)]
        for n in range(1, self.order + 1):
            pairs = [(a[k], inv[n - k]) for k in range(1, n + 1)]
            inv.append(-Polynomial.sum_products(self.vars, pairs))
        return TruncatedSeries(self.vars, inv, self.order)

    def __truediv__(self, other):
        return self * other.inverse()

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

    def project_vars(self, new_vars):
        return TruncatedSeries(
            tuple(new_vars), [c.project(new_vars) for c in self.coeffs], self.order
        )

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.vars == other.vars
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.vars, self.order, self.coeffs))

    def __str__(self):
        return "; ".join(str(c) for c in self.coeffs)

    def __repr__(self):
        return f"TruncatedSeries[{self}]"

    def to_json_obj(self):
        return [c.to_json_obj() for c in self.coeffs]


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


def rational_series(numer, denom, vars, order):
    """Series expansion of a rational function given by coefficient lists."""
    num = TruncatedSeries(vars, list(numer), order)
    den = TruncatedSeries(vars, list(denom), order)
    return num / den


def catalan_series(order, vars=()):
    """Catalan generating series from the closed form C_n = binom(2n, n)/(n+1)."""
    return TruncatedSeries(vars, [comb(2 * n, n) // (n + 1) for n in range(order + 1)], order)


# -- the three single-pattern equations ------------------------------------


def solve_213(order):
    """Series f = C_213 - 1 from its cubic equation.

    The equation is f = xp + x(pr+qr+pq) f + xqr(r+p+q) f^2 + x q^2 r^2 f^3.
    """
    P, Q, R = Polynomial.gens(PQR)
    terms = [(P, 1, ()), (P * R + Q * R + P * Q, 1, (F,)),
             (Q * R * (R + P + Q), 1, (F, F)), (Q * Q * R * R, 1, (F, F, F))]
    return _solve(PQR, order, 0, terms)


def series_213(order):
    """Full distribution series C_213(x,p,q,r)."""
    return solve_213(order) + 1


def solve_123(order):
    """Auxiliary series f = q C_123 - q + 1 from its functional equation.

    f = 1 + pqx(-1 + (2 + x(pr+qr-pq)) f - pqx(1 - x(p-r)(q-r)) f^2) f.
    """
    P, Q, R = Polynomial.gens(PQR)
    PQ = P * Q
    terms = [(-PQ, 1, (F,)), (2 * PQ, 1, (F, F)), (PQ * (P * R + Q * R - PQ), 2, (F, F)),
             (-PQ * PQ, 2, (F, F, F)), (PQ * PQ * (P - R) * (Q - R), 3, (F, F, F))]
    return _solve(PQR, order, 1, terms)


def _recover_from_q_form(f):
    """C = (f - 1 + q)/q, checking exact divisibility of f - 1 by q."""
    shifted = (f - 1).map_coefficients(lambda c: c.div_var_exact("q"))
    return shifted + 1


def series_123(order):
    """Full distribution series C_123(x,p,q,r)."""
    return _recover_from_q_form(solve_123(order))


def solve_132(order):
    """Auxiliary series f = q C_132 - q + 1 from its functional equation.

    f = 1 + px(q - 2r + r(2 + (pr-pq+q^2)x) f - p r^2 x f^2) f.
    """
    P, Q, R = Polynomial.gens(PQR)
    terms = [(P * (Q - 2 * R), 1, (F,)), (2 * P * R, 1, (F, F)),
             (P * R * (P * R - P * Q + Q * Q), 2, (F, F)), (-P * P * R * R, 2, (F, F, F))]
    return _solve(PQR, order, 1, terms)


def series_132(order):
    """Full distribution series C_132(x,p,q,r)."""
    return _recover_from_q_form(solve_132(order))


# -- recurrence route for the 123 and 132 coefficients ----------------------
#
# These recompute the same coefficient polynomials through the catalytic
# L_n(v) recurrences, giving a computation path independent of the series
# solvers above.  The brackets L_m(v) - v^s L_m(1) are divisible by (1 - v)
# by construction, and the division is performed exactly.


def printed_seeds():
    """The paper's printed seeds, in p,q,r,v: ({n: L_n(v)}, f(2) = g(2)).

    L_1..L_3 seed the 123 system; L_1 and L_2 also seed the 132 system.
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


def recurrence_123(order):
    """Coefficients of C_123 computed via the L_n(v) recurrence system."""
    P, Q, R, V = Polynomial.gens(PQRV)
    one = Polynomial.one(PQRV)
    L, f2 = printed_seeds()
    f = {0: one, 1: P, 2: f2}

    def at_one(poly):
        return poly.specialize({"v": 1})

    for n in range(3, order + 1):
        if n >= 4:
            head = (
                P * Q * f[n - 1] * V ** (n - 2) * (one + V)
                + P * P * (R * Q - 3 * Q * Q) * f[n - 2] * V ** (n - 2)
                + P * P * Q * Q * f[n - 2] * V ** (n - 2)
            )
            b1 = (L[n - 1] - V ** (n - 3) * at_one(L[n - 1])).div_one_minus_exact("v")
            b2 = (L[n - 2] - V ** (n - 3) * at_one(L[n - 2])).div_one_minus_exact("v")
            b3 = (L[n - 3] - V ** (n - 3) * at_one(L[n - 3])).div_one_minus_exact("v")
            L[n] = (
                2 * P * Q * L[n - 1]
                - P * P * Q * Q * L[n - 2]
                + head
                + b1 * (P * Q * V)
                + b2 * (P * Q * (Q * R + P * R - 2 * P * Q) * V)
                + b3 * (P * P * Q * Q * (R - P) * (R - Q) * V)
            )
        f[n] = P * Q * f[n - 1] + at_one(L[n]) + Q * (R - P) * at_one(L[n - 1])

    return [f[k].project(PQR) for k in range(order + 1)]


def recurrence_132(order):
    """Coefficients of C_132 computed via the L_n(v) recurrence system."""
    P, Q, R, V = Polynomial.gens(PQRV)
    one = Polynomial.one(PQRV)
    seeds, g2 = printed_seeds()
    L = {1: seeds[1], 2: seeds[2]}
    g = {0: one, 1: P, 2: g2}

    def at_one(poly):
        return poly.specialize({"v": 1})

    for n in range(3, order + 1):
        b1 = (L[n - 1] - V ** (n - 2) * at_one(L[n - 1])).div_one_minus_exact("v")
        b2 = (L[n - 2] - V ** (n - 2) * at_one(L[n - 2])).div_one_minus_exact("v")
        L[n] = (
            P * Q * V ** (n - 1) * g[n - 1]
            + 2 * P * R * L[n - 1]
            + b1 * (P * Q * V)
            + b2 * (P * Q * R * (Q - P) * V)
            - P * P * R * R * L[n - 2]
        )
        g[n] = P * R * g[n - 1] + at_one(L[n]) + R * (Q - P) * at_one(L[n - 1])

    return [g[k].project(PQR) for k in range(order + 1)]


# -- two-pattern families ---------------------------------------------------


def prepend1(sub):
    """F for the pattern 1 (+) t', given the series for t'.

    Rational expression: F = 1 + (xp + xr(p+q) G + x q r^2 G^2)
    / (1 - xpq - xqr(1+p) G - x q^2 r^2 G^2)  with G = F_{t'} - 1; the
    quotient u = num/den is solved as u = num + (1 - den) u.
    """
    P, Q, R = Polynomial.gens(PQR)
    G = sub - 1
    terms = [(P, 1, ()), (R * (P + Q), 1, (G,)), (Q * R * R, 1, (G, G)),
             (P * Q, 1, (F,)), (Q * R * (1 + P), 1, (G, F)), (Q * Q * R * R, 1, (G, G, F))]
    return _solve(PQR, sub.order, 0, terms) + 1


def prepend11(sub):
    """F for the pattern 11 (+) t', given the series for t'.

    Solves the quadratic functional equation
    F = 1 + xp + x(p+r)q (F-1) + xpr G + xqr (F-1)^2
      + xqr(p+r) (F-1) G + x q^2 r^2 G (F-1)^2,  G = F_{t'} - 1,
    for u = F - 1; this picks the unique series branch with constant term 1.
    """
    P, Q, R = Polynomial.gens(PQR)
    G = sub - 1
    terms = [(P, 1, ()), (P * R, 1, (G,)), ((P + R) * Q, 1, (F,)), (Q * R, 1, (F, F)),
             (Q * R * (P + R), 1, (F, G)), (Q * Q * R * R, 1, (G, F, F))]
    return _solve(PQR, sub.order, 0, terms) + 1


def pair_series(blocks, order):
    """Chain of prepend steps; blocks are "1" or "11", rightmost is the base.

    The base block must itself contain a repeated letter (its avoider series
    is the constant 1); each remaining block, right to left, wraps the
    current pattern by disjoint concatenation from the left.
    """
    if not blocks:
        raise ValueError("empty chain")
    if blocks[-1] not in ("1", "11"):
        raise ValueError(f"unsupported base pattern {blocks[-1]!r}")
    steps = {"1": prepend1, "11": prepend11}
    chain = TruncatedSeries.constant(1, PQR, order)  # the base: no avoider beyond order 0
    for block in reversed(blocks[:-1]):
        if block not in steps:
            raise ValueError(f"unsupported chain block {block!r}")
        chain = steps[block](chain)
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


# -- joint plateau / 122-occurrence series ----------------------------------


def solve_R(order):
    """Series R(x,p,z) over the 213-avoiders marking plateaus and 122 hits.

    R = 1 / (1 - x (R(x,pz,z) - 1 + p) R(x,pz^2,z)), solved as
    R = 1 + x R(x,pz,z) R(x,pz^2,z) R + x (p - 1) R(x,pz^2,z) R; the
    substitutions act on coefficients by transferring p-degree into z-degree.
    """
    P = Polynomial.variable("p", PZ)
    r1, r2 = (lambda c, k=k: c.shift_var("p", "z", k) for k in (1, 2))
    terms = [(1, 1, (r1, r2, F)), (P - 1, 1, (r2, F))]
    return _solve(PZ, order, 1, terms)
