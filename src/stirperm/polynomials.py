"""Exact multivariate polynomials with arbitrary-precision integer coefficients.

A polynomial over an ordered tuple of variable names stores its terms as a
dict from packed exponent keys to nonzero ints.  A key packs the exponent
vector into one int by Kronecker substitution (Monagan and Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007): each exponent fills its own unsigned ``FIELD_BITS`` =
16 bit field, the first variable in the highest field.  The zero exponent is
key 0 and int order of the keys is the order of the exponent tuples.  Two
kernels work on the keys: ``sum_products`` multiplies, a product's key being
``k1 + k2``, and ``_substitute`` reshapes, sending each variable to an int
times a monomial (``specialize``, ``permute_vars``, ``project``, ``shift_var``).

Exponents are natural numbers: the paper's coefficients count plateaus,
descents and ascents.  An exponent must lie in 0..MAX_EXPONENT (2**15 - 1),
so that the sum of two never carries into the neighbouring field.  Each
polynomial carries ``bound``, an upper bound on the exponents of its terms:
exact for what the constructor builds, ``a.bound + b.bound`` for a product.
An exponent outside the range raises ValueError, in the constructor, in
``sum_products`` (checked once per pair of polynomials) and in
``shift_var``; it never yields a wrong monomial.

Exponent tuples appear only at the edges: the constructor and
``coefficient`` take them, ``items`` and the printed forms give them back.
The printed forms are ``str`` and ``to_json``, the JSON text that
``series --format json`` and ``formula --format json`` write.
"""

from __future__ import annotations

from collections import defaultdict


PQR = ("p", "q", "r")  # plateaus, descents, ascents
PZ = ("p", "z")  # plateaus, adjacent 122 occurrences

FIELD_BITS = 16
MASK = (1 << FIELD_BITS) - 1
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1


def _check(reach, low=0):
    if low < 0:
        raise ValueError(f"exponent out of range: an exponent may reach {low}, below 0")
    if reach > MAX_EXPONENT:
        raise ValueError(f"exponent out of range: an exponent may reach {reach}, "
                         f"past the limit {MAX_EXPONENT}")


def _ring(vars):
    """The variable names as a tuple; a name may occur once only."""
    vars = tuple(vars)
    if len(set(vars)) < len(vars):
        raise ValueError(f"repeated variable name in {vars}")
    return vars


def _field(vars, name):
    """The bit offset of the named variable's field."""
    if name not in vars:
        raise ValueError(f"no variable {name!r} in {vars}")
    return FIELD_BITS * (len(vars) - 1 - vars.index(name))


def _pack(exp):
    key = 0
    for e in exp:
        key = key << FIELD_BITS | e
    return key


def _unpack(key, n):
    return tuple(key >> s & MASK for s in range(FIELD_BITS * (n - 1), -1, -FIELD_BITS))


def _json_string(name):
    """A variable name as json.dumps writes it; json is loaded only to escape."""
    if name.isidentifier() and name.isascii():
        return f'"{name}"'
    import json

    return json.dumps(name)


class Polynomial:
    """Polynomial in the variables named by ``vars`` (an ordered tuple of distinct names).

    ``terms`` maps packed exponent keys to nonzero coefficients and
    ``bound`` bounds the exponents (see the module docstring).  Instances are
    treated as immutable values; all arithmetic returns new objects.  Two
    polynomials compare equal only if they share the same variable tuple;
    ``project`` moves to a smaller ring.
    """

    __slots__ = ("vars", "terms", "bound")

    def __init__(self, vars, terms=None):
        """Build from a mapping of exponent tuples to coefficients; zeros are dropped."""
        vars = _ring(vars)
        clean, reach = {}, 0
        for exp, coef in (terms or {}).items():
            if coef:
                exp = tuple(exp)
                if len(exp) != len(vars):
                    raise ValueError(f"exponent {exp} does not fit the variables {vars}")
                reach = max(reach, max(exp, default=0))
                _check(reach, min(exp, default=0))
                clean[_pack(exp)] = coef
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "bound", reach)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def _raw(cls, vars, terms, bound):
        # trusted constructor: terms already clean, packed and within bound
        self = object.__new__(cls)
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "bound", bound)
        return self

    @classmethod
    def zero(cls, vars):
        return cls._raw(_ring(vars), {}, 0)

    @classmethod
    def one(cls, vars):
        return cls.constant(1, vars)

    @classmethod
    def constant(cls, c, vars):
        vars = _ring(vars)
        return cls._raw(vars, {0: c} if c else {}, 0)

    @classmethod
    def variable(cls, name, vars):
        vars = _ring(vars)
        return cls._raw(vars, {1 << _field(vars, name): 1}, 1)

    @classmethod
    def gens(cls, vars):
        """Generator polynomials, one per variable, in order."""
        return tuple(cls.variable(v, vars) for v in vars)

    # -- reading terms ----------------------------------------------------

    def coefficient(self, exp):
        """The coefficient of the monomial with the exponent tuple exp; 0 if absent."""
        exp = tuple(exp)
        if len(exp) != len(self.vars):
            raise ValueError(f"exponent {exp} does not fit the variables {self.vars}")
        if not all(0 <= e <= self.bound for e in exp):
            return 0
        return self.terms.get(_pack(exp), 0)

    def items(self):
        """(exponent tuple, coefficient) pairs, ascending by exponent tuple."""
        n = len(self.vars)
        return [(_unpack(key, n), coef) for key, coef in sorted(self.terms.items())]

    # -- predicates -------------------------------------------------------

    def constant_term(self):
        return self.terms.get(0, 0)

    def total_degrees(self):
        """Set of total degrees occurring among the monomials."""
        return {sum(exp) for exp, _ in self.items()}

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
        for key, coef in other.terms.items():
            c = out.get(key, 0) + coef
            if c:
                out[key] = c
            else:
                out.pop(key, None)
        return Polynomial._raw(self.vars, out, max(self.bound, other.bound))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw(self.vars, {k: -c for k, c in self.terms.items()}, self.bound)

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
            return Polynomial._raw(
                self.vars, {k: c * other for k, c in self.terms.items()}, self.bound
            )
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
            k >>= 1
            if k:
                base = base * base
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
        """The sum of a * b over the pairs of polynomials in ``vars``, in one dict.

        Raises ValueError, before it forms a pair's products, when the pair's
        bounds may take an exponent past MAX_EXPONENT.
        """
        out, reach = defaultdict(int), 0
        for a, b in pairs:
            reach = max(reach, a.bound + b.bound)
            _check(reach)
            right = b.terms.items()
            for k1, c1 in a.terms.items():
                for k2, c2 in right:
                    out[k1 + k2] += c1 * c2
        return Polynomial._raw(tuple(vars), {k: c for k, c in out.items() if c}, reach)

    # -- substitution and reshaping ---------------------------------------

    def _substitute(self, vars, images, bound=None):
        """This polynomial in ``vars``, each variable named in ``images`` sent to its image.

        An image (key, value) is value times the monomial of packed key ``key`` in
        ``vars``, and None says the variable must not occur; the others keep their
        fields.  One pass sums the terms that land on one key, dropping zero sums.
        """
        moves = []  # (field, key step, value) per variable named
        for v, image in images.items():
            s = _field(self.vars, v)  # refuses a name that is not a variable
            moves.append((s, None, None) if image is None else (s, image[0] - (1 << s), image[1]))
        out = defaultdict(int)
        for key, coef in self.terms.items():
            new = key
            for s, step, val in moves:
                e = key >> s & MASK
                if e:
                    if step is None:
                        first = next(v for v in images if images[v] is None
                                     and any(k >> _field(self.vars, v) & MASK for k in self.terms))
                        raise ValueError(f"variable {first} occurs; cannot project")
                    new += e * step
                    coef *= val ** e
            out[new] += coef
        return Polynomial._raw(tuple(vars), {k: c for k, c in out.items() if c},
                               self.bound if bound is None else bound)

    def specialize(self, values):
        """Substitute integers for some variables; keeps the variable tuple."""
        return self._substitute(self.vars, {v: (0, val) for v, val in values.items()})

    def permute_vars(self, mapping):
        """Rename variables by a bijection of the variable set onto itself."""
        key = {v: 1 << _field(self.vars, v) for v in mapping}  # refuses a name not a variable
        if sorted(mapping.get(v, v) for v in self.vars) != sorted(self.vars):
            raise ValueError("mapping is not a bijection of the variables")
        # a bijection that fixes the variables left out sends its keys onto its keys
        return self._substitute(self.vars, {v: (key[w], 1) for v, w in mapping.items()})

    def shift_var(self, src, dst, mult):
        """Substitute src -> src * dst**mult (an exponent transfer)."""
        i, j = _field(self.vars, src), _field(self.vars, dst)
        moved = [(k >> j & MASK) + mult * (k >> i & MASK) for k in self.terms]
        reach = max([self.bound, *moved])
        _check(reach, min(moved, default=0))
        return self._substitute(self.vars, {src: ((1 << i) + (mult << j), 1)}, reach)

    def project(self, new_vars):
        """Restrict to some of the variables, in any order; the dropped ones must not occur."""
        new_vars = _ring(new_vars)
        for v in new_vars:
            _field(self.vars, v)  # refuses a name that is not a variable
        return self._substitute(new_vars, {
            v: (1 << _field(new_vars, v), 1) if v in new_vars else None for v in self.vars})

    # -- exact division ---------------------------------------------------

    def div_var_exact(self, name):
        """Divide by the variable, exactly (every monomial must contain it)."""
        s = _field(self.vars, name)
        for key in self.terms:
            if not key >> s & MASK:
                raise ValueError(f"monomial {_unpack(key, len(self.vars))} has no factor {name}")
        return Polynomial._raw(
            self.vars, {key - (1 << s): c for key, c in self.terms.items()}, self.bound)

    def div_one_minus_exact(self, name):
        """Divide by (1 - name), exactly.

        Writing the polynomial as sum of a_k * name**k with coefficients in
        the remaining variables, the quotient coefficients are the running
        prefix sums b_k = a_0 + ... + a_k, and exactness is equivalent to the
        final prefix sum (the value at name=1) vanishing.  Each monomial in
        the remaining variables is its own such sum; its key, with the
        divisor's field at zero, names the group.
        """
        s = _field(self.vars, name)
        groups = {}
        for key, coef in self.terms.items():
            e = key >> s & MASK
            groups.setdefault(key - (e << s), {})[e] = coef
        out = {}
        for rest, row in groups.items():
            running = 0
            for k in range(min(row), max(row) + 1):
                running += row.get(k, 0)
                if running:
                    out[rest + (k << s)] = running
            if running:
                raise ValueError(f"not divisible by (1 - {name})")
        return Polynomial._raw(self.vars, out, self.bound)

    # -- presentation -----------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp, coef in reversed(self.items()):
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

    def to_json(self):
        """JSON text {"vars": [...], "terms": [{"exp": [...], "coef": "..."}, ...]}.

        The terms ascend by exponent tuple and each coefficient is a decimal
        string; the text is what json.dumps writes for that object.
        """
        vars = ", ".join(map(_json_string, self.vars))
        terms = ", ".join(f'{{"exp": [{", ".join(map(str, exp))}], "coef": "{coef}"}}'
                          for exp, coef in self.items())
        return f'{{"vars": [{vars}], "terms": [{terms}]}}'
