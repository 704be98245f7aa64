"""Exact multivariate polynomials with arbitrary-precision integer coefficients.

A polynomial is stored as a mapping from exponent tuples to nonzero ints,
over a fixed ordered tuple of variable names.  Exponents are allowed to be
negative, so the same class serves as a Laurent ring where an expansion has
to pass through negative powers before cancellation.

Besides the constructors and the printed forms, three methods build new
exponent tuples: ``sum_products`` (every product, in the series layer too),
``_remap`` (substitution, renaming, projection and division by a variable)
and ``div_one_minus_exact``.  A change of the exponent format touches those.
"""

from __future__ import annotations

from operator import add

from .errors import DivisibilityError

PQR = ("p", "q", "r")  # plateaus, descents, ascents
PZ = ("p", "z")  # plateaus, adjacent 122 occurrences


class Polynomial:
    """Polynomial in the variables named by ``vars`` (an ordered tuple).

    Instances are treated as immutable values; all arithmetic returns new
    objects.  Two polynomials compare equal only if they share the same
    variable tuple; ``project`` moves to a smaller ring.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms=None):
        object.__setattr__(self, "vars", tuple(vars))
        clean = {}
        if terms:
            for exp, coef in terms.items():
                if coef:
                    clean[tuple(exp)] = coef
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def _raw(cls, vars, terms):
        # trusted constructor: terms already clean
        self = object.__new__(cls)
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", terms)
        return self

    @classmethod
    def zero(cls, vars):
        return cls._raw(tuple(vars), {})

    @classmethod
    def one(cls, vars):
        return cls.constant(1, vars)

    @classmethod
    def constant(cls, c, vars):
        vars = tuple(vars)
        if not c:
            return cls._raw(vars, {})
        return cls._raw(vars, {(0,) * len(vars): c})

    @classmethod
    def variable(cls, name, vars):
        vars = tuple(vars)
        exp = [0] * len(vars)
        exp[vars.index(name)] = 1
        return cls._raw(vars, {tuple(exp): 1})

    @classmethod
    def gens(cls, vars):
        """Generator polynomials, one per variable, in order."""
        return tuple(cls.variable(v, vars) for v in vars)

    # -- predicates -------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def constant_term(self):
        return self.terms.get((0,) * len(self.vars), 0)

    def has_negative_exponents(self):
        return any(e < 0 for exp in self.terms for e in exp)

    def total_degrees(self):
        """Set of total degrees occurring among the monomials."""
        return {sum(exp) for exp in self.terms}

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, int):
            return Polynomial.constant(other, self.vars)
        if isinstance(other, Polynomial):
            if other.vars != self.vars:
                raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")
            return other
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for exp, coef in other.terms.items():
            c = out.get(exp, 0) + coef
            if c:
                out[exp] = c
            else:
                out.pop(exp, None)
        return Polynomial._raw(self.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return Polynomial.zero(self.vars)
            return Polynomial._raw(self.vars, {e: c * other for e, c in self.terms.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial.sum_products(self.vars, ((self, other),))

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        result = Polynomial.one(self.vars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(other, self.vars)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    @staticmethod
    def sum_products(vars, pairs):
        """The sum of a * b over the pairs of polynomials in ``vars``, in one dict."""
        out = {}
        get = out.get
        for a, b in pairs:
            right = b.terms.items()
            for e1, c1 in a.terms.items():
                for e2, c2 in right:
                    e = tuple(map(add, e1, e2))
                    out[e] = get(e, 0) + c1 * c2
        return Polynomial._raw(tuple(vars), {e: c for e, c in out.items() if c})

    # -- substitution and reshaping ---------------------------------------

    def _remap(self, vars, move):
        """Send each term's exponent through move(exp) -> (new_exp, weight).

        The result, in ``vars``, sums the weighted coefficients of the terms
        that land on one exponent and drops those that cancel.
        """
        out = {}
        for exp, coef in self.terms.items():
            key, weight = move(exp)
            out[key] = out.get(key, 0) + coef * weight
        return Polynomial._raw(tuple(vars), {e: c for e, c in out.items() if c})

    def specialize(self, values):
        """Substitute integers for some variables; keeps the variable tuple.

        Negative exponents are only substitutable at 1 or -1.
        """
        idx = [(self.vars.index(v), val) for v, val in values.items()]

        def move(exp):
            ne, weight = list(exp), 1
            for i, val in idx:
                if ne[i] < 0 and val not in (1, -1):
                    raise ValueError("negative exponent at non-unit value")
                weight *= val ** abs(ne[i])
                ne[i] = 0
            return tuple(ne), weight

        return self._remap(self.vars, move)

    def permute_vars(self, mapping):
        """Rename variables by a bijection of the variable set onto itself."""
        target = [self.vars.index(mapping.get(v, v)) for v in self.vars]
        if sorted(target) != list(range(len(self.vars))):
            raise ValueError("mapping is not a bijection of the variables")
        source = [target.index(k) for k in range(len(target))]
        return self._remap(self.vars, lambda exp: (tuple(exp[k] for k in source), 1))

    def shift_var(self, src, dst, mult):
        """Substitute src -> src * dst**mult (an exponent transfer)."""
        i, j = self.vars.index(src), self.vars.index(dst)
        return self._remap(
            self.vars, lambda exp: (exp[:j] + (exp[j] + mult * exp[i],) + exp[j + 1:], 1)
        )

    def project(self, new_vars):
        """Restrict to a sub-tuple of variables; the dropped ones must not occur."""
        new_vars = tuple(new_vars)
        for pos, v in enumerate(self.vars):
            if v not in new_vars and any(exp[pos] for exp in self.terms):
                raise ValueError(f"variable {v} occurs; cannot project")
        keep = [self.vars.index(v) for v in new_vars]
        return self._remap(new_vars, lambda exp: (tuple(exp[k] for k in keep), 1))

    # -- exact division ---------------------------------------------------

    def div_exact_const(self, k):
        """Divide every coefficient by the integer k, exactly."""
        out = {}
        for exp, coef in self.terms.items():
            q, r = divmod(coef, k)
            if r:
                raise DivisibilityError(f"coefficient {coef} not divisible by {k}")
            out[exp] = q
        return Polynomial._raw(self.vars, out)

    def div_var_exact(self, name):
        """Divide by the variable, exactly (every monomial must contain it)."""
        i = self.vars.index(name)

        def move(exp):
            if exp[i] < 1:
                raise DivisibilityError(f"monomial {exp} has no factor {name}")
            return exp[:i] + (exp[i] - 1,) + exp[i + 1:], 1

        return self._remap(self.vars, move)

    def div_one_minus_exact(self, name):
        """Divide by (1 - name), exactly.

        Writing the polynomial as sum of a_k * name**k with coefficients in
        the remaining variables, the quotient coefficients are the running
        prefix sums b_k = a_0 + ... + a_k, and exactness is equivalent to the
        final prefix sum (the value at name=1) vanishing.  Each monomial in
        the remaining variables is its own such sum.
        """
        i = self.vars.index(name)
        groups = {}
        for exp, coef in self.terms.items():
            if exp[i] < 0:
                raise ValueError("negative power of divisor variable")
            groups.setdefault(exp[:i] + exp[i + 1:], {})[exp[i]] = coef
        out = {}
        for rest, row in groups.items():
            running = 0
            for k in range(min(row), max(row) + 1):
                running += row.get(k, 0)
                if running:
                    out[rest[:i] + (k,) + rest[i:]] = running
            if running:
                raise DivisibilityError(f"not divisible by (1 - {name})")
        return Polynomial._raw(self.vars, out)

    # -- presentation -----------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp, coef in sorted(self.terms.items(), reverse=True):
            factors = []
            for name, e in zip(self.vars, exp):
                if e == 0:
                    continue
                factors.append(name if e == 1 else f"{name}^{e}")
            body = "*".join(factors)
            mag = abs(coef)
            if not body:
                piece = str(mag)
            elif mag == 1:
                piece = body
            else:
                piece = f"{mag}*{body}"
            parts.append(("- " if coef < 0 else "+ ") + piece)
        text = " ".join(parts)
        if text.startswith("+ "):
            return text[2:]
        return "-" + text[2:]

    def __repr__(self):
        return f"Polynomial({self})"

    def to_json_obj(self):
        """JSON form: {"vars": [...], "terms": [{"exp": [...], "coef": "..."}]}."""
        return {
            "vars": list(self.vars),
            "terms": [
                {"exp": list(exp), "coef": str(coef)}
                for exp, coef in sorted(self.terms.items())
            ],
        }
