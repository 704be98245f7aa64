"""Exact multivariate polynomials with arbitrary-precision integer coefficients.

A polynomial is stored as a mapping from exponent tuples to nonzero ints,
over a fixed ordered tuple of variable names.  Exponents are allowed to be
negative, so the same class serves as a Laurent ring where an expansion has
to pass through negative powers before cancellation.
"""

from __future__ import annotations

from .errors import DivisibilityError

PQR = ("p", "q", "r")  # plateaus, descents, ascents
PZ = ("p", "z")  # plateaus, adjacent 122 occurrences


class Polynomial:
    """Polynomial in the variables named by ``vars`` (an ordered tuple).

    Instances are treated as immutable values; all arithmetic returns new
    objects.  Two polynomials compare equal only if they share the same
    variable tuple, use ``project``/``extend`` to move between rings.
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
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Polynomial._raw(self.vars, {e: c for e, c in out.items() if c})

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

    # -- substitution and reshaping ---------------------------------------

    def specialize(self, values):
        """Substitute integers for some variables; keeps the variable tuple.

        Negative exponents are only substitutable at 1 or -1.
        """
        idx = [(self.vars.index(v), val) for v, val in values.items()]
        out = {}
        for exp, coef in self.terms.items():
            factor = 1
            ne = list(exp)
            for i, val in idx:
                e = ne[i]
                if e >= 0:
                    factor *= val ** e
                elif val == 1:
                    pass
                elif val == -1:
                    factor *= -1 if e % 2 else 1
                else:
                    raise ValueError("negative exponent at non-unit value")
                ne[i] = 0
            key = tuple(ne)
            c = out.get(key, 0) + coef * factor
            if c:
                out[key] = c
            else:
                out.pop(key, None)
        return Polynomial._raw(self.vars, out)

    def evaluate(self, values):
        """Evaluate at integer values given for every variable."""
        missing = [v for v in self.vars if v not in values]
        if missing:
            raise ValueError(f"missing values for {missing}")
        return self.specialize(values).constant_term()

    def permute_vars(self, mapping):
        """Rename variables by a bijection of the variable set onto itself."""
        target = [self.vars.index(mapping.get(v, v)) for v in self.vars]
        if sorted(target) != list(range(len(self.vars))):
            raise ValueError("mapping is not a bijection of the variables")
        out = {}
        for exp, coef in self.terms.items():
            ne = [0] * len(exp)
            for i, e in enumerate(exp):
                ne[target[i]] = e
            out[tuple(ne)] = coef
        return Polynomial._raw(self.vars, out)

    def shift_var(self, src, dst, mult):
        """Substitute src -> src * dst**mult (an exponent transfer)."""
        i, j = self.vars.index(src), self.vars.index(dst)
        out = {}
        for exp, coef in self.terms.items():
            ne = list(exp)
            ne[j] += mult * exp[i]
            key = tuple(ne)
            out[key] = out.get(key, 0) + coef
        return Polynomial._raw(self.vars, {e: c for e, c in out.items() if c})

    def project(self, new_vars):
        """Restrict to a sub-tuple of variables; the dropped ones must not occur."""
        new_vars = tuple(new_vars)
        keep = []
        for pos, v in enumerate(self.vars):
            if v in new_vars:
                keep.append((new_vars.index(v), pos))
            else:
                for exp in self.terms:
                    if exp[pos]:
                        raise ValueError(f"variable {v} occurs; cannot project")
        out = {}
        for exp, coef in self.terms.items():
            ne = [0] * len(new_vars)
            for tgt, pos in keep:
                ne[tgt] = exp[pos]
            out[tuple(ne)] = coef
        return Polynomial._raw(new_vars, out)

    def extend(self, new_vars):
        """Embed into a larger variable tuple."""
        new_vars = tuple(new_vars)
        pos = [new_vars.index(v) for v in self.vars]
        out = {}
        for exp, coef in self.terms.items():
            ne = [0] * len(new_vars)
            for p, e in zip(pos, exp):
                ne[p] = e
            out[tuple(ne)] = coef
        return Polynomial._raw(new_vars, out)

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
        out = {}
        for exp, coef in self.terms.items():
            if exp[i] < 1:
                raise DivisibilityError(f"monomial {exp} has no factor {name}")
            ne = list(exp)
            ne[i] -= 1
            out[tuple(ne)] = coef
        return Polynomial._raw(self.vars, out)

    def div_one_minus_exact(self, name):
        """Divide by (1 - name), exactly.

        Writing the polynomial as sum of a_k * name**k with coefficients in
        the remaining variables, the quotient coefficients are the running
        prefix sums b_k = a_0 + ... + a_k, and exactness is equivalent to the
        final prefix sum (the value at name=1) vanishing.
        """
        i = self.vars.index(name)
        by_power = {}
        top = 0
        for exp, coef in self.terms.items():
            k = exp[i]
            if k < 0:
                raise ValueError("negative power of divisor variable")
            ne = list(exp)
            ne[i] = 0
            by_power.setdefault(k, {})[tuple(ne)] = coef
            top = max(top, k)
        running = {}
        out = {}
        for k in range(top + 1):
            for rest, coef in by_power.get(k, {}).items():
                c = running.get(rest, 0) + coef
                if c:
                    running[rest] = c
                else:
                    running.pop(rest, None)
            if k < top:
                for rest, coef in running.items():
                    ne = list(rest)
                    ne[i] = k
                    out[tuple(ne)] = coef
        if running:
            raise DivisibilityError(f"not divisible by (1 - {name})")
        return Polynomial._raw(self.vars, out)

    # -- presentation -----------------------------------------------------

    def sorted_terms(self):
        """Terms in a canonical order (descending lexicographic exponents)."""
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp, coef in self.sorted_terms():
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
                for exp, coef in sorted(self.terms.items(), key=lambda kv: kv[0])
            ],
        }
