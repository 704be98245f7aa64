"""Registry of cross-validation checks behind the `verify` command.

Each check is one row of TABLE: an id, a suite, its orders, and two
callables ``expected(n)`` and ``actual(n)`` that reach one object by two
independent routes (closed form against enumeration, series solver against
recurrence, each bijection's walk over its domain and onto its codomain
against a closed-form count and zero failures).  A side never calls a
function of the route it checks: no brute side calls formulas.  Every
one-statistic marginal is read off a p,q,r distribution by _marginal, as a
polynomial or, through _counts, as counts by value.  One runner compares them
order by order.  An int cap covers each requested order n with
1 <= n <= cap; a tuple covers fixed orders whatever was requested (for
pair-rationals and catalan-chains, a truncation order N whose coefficients
up to x^N are all compared).  A CheckResult records the orders covered:
none is SKIP, never PASS; a FAIL names the first order, and the first entry
of a dict or list, where the sides differ, and a side that raises is a FAIL
at that order.  run_checks runs its checks one after another in this
process.  Brute distributions and the solves named in SOLVERS are memoised:
each run_checks call starts with empty memos and fills each entry once, a
solve at the largest order a row that reads it covers.  A side, and each
solver, calls another module's functions through the module, as in
``lambda n: formulas.count_avoid_213(n)``, so that a wrapper or a patch
installed on the module is the one run.
The requested orders are an ascending range or sequence, never copied: an
int cap takes its slice of them by bisection.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from collections import Counter, namedtuple
from functools import lru_cache
from itertools import permutations

from . import bijections, formulas, generation, series, trees, words
from .polynomials import PQR, Polynomial
from .words import P123, P132, P213

PATTERNS = {"213": P213, "123": P123, "132": P132}
SWAPS = ((1, 0, 2), (2, 1, 0), (0, 2, 1))  # two of the three statistics exchanged


class CheckResult(namedtuple("CheckResult", "check_id suite status expected actual elapsed "
                             "counterexample orders", defaults=(None, ()))):
    """One check's outcome: its status ("pass", "fail" or "skip"), the seconds
    it took, and the orders it compared, the failing one last."""

    __slots__ = ()

    @property
    def ok(self):
        return self.status == "pass"


def format_orders(orders):
    """Orders as runs, e.g. (1, 2, 3, 5) -> "1..3,5"; "none" when empty.

    A range of step 1 is one run, read off its ends.
    """
    if isinstance(orders, range) and orders.step == 1:
        runs = [[orders[0], orders[-1]]] if orders else []
    else:
        runs = []
        for n in orders:
            if runs and n == runs[-1][1] + 1:
                runs[-1][1] = n
            else:
                runs.append([n, n])
    return ",".join(str(a) if a == b else f"{a}..{b}" for a, b in runs) or "none"


def _first_difference(want, got, where=""):
    """(path, want, got) at the first entry where equal-shaped dicts or lists differ."""
    if isinstance(want, (dict, list)) and type(want) is type(got) and len(want) == len(got):
        keys = list(want) if isinstance(want, dict) else range(len(want))
        if not isinstance(want, dict) or want.keys() == got.keys():
            for key in keys:
                if want[key] != got[key]:
                    return _first_difference(want[key], got[key], f"{where} at {key}")
    return where, want, got


class Check(namedtuple("Check", "check_id suite orders expected actual solves",
                       defaults=((),))):
    """One row of TABLE: two routes to one object, compared order by order.

    orders is a cap on the requested orders (int) or fixed orders (tuple);
    solves names the SOLVERS whose memoised coefficients a side reads.
    """

    __slots__ = ()

    def covered(self, ns):
        """The orders this check compares when the ascending orders ns are requested."""
        if isinstance(self.orders, int):
            return tuple(ns[bisect_left(ns, 1):bisect_right(ns, self.orders)])
        return self.orders

    def __call__(self, ns):
        """This row's CheckResult at the requested orders ns, with the seconds it took."""
        start = time.perf_counter()
        status, want, got, counterexample, orders = self._compare(ns)
        return CheckResult(self.check_id, self.suite, status, want, got,
                           time.perf_counter() - start, counterexample, orders)

    def _compare(self, ns):
        """(status, expected, actual, counterexample, orders) of this row at ns."""
        orders = self.covered(ns)
        for i, n in enumerate(orders):
            try:
                want, got = self.expected(n), self.actual(n)
            except Exception as exc:  # a side that raises fails the row at this order
                return "fail", "a value", f"{type(exc).__name__}: {exc}", f"n={n}", orders[: i + 1]
            if want != got:
                where, want, got = _first_difference(want, got)
                return "fail", str(want), str(got), f"n={n}{where}", orders[: i + 1]
        if not orders:
            return ("skip", "", "", f"covers 1..{self.orders} only; asked for {format_orders(ns)}",
                    orders)
        return "pass", "", "", None, orders


@lru_cache(maxsize=None)
def _brute(n, pattern):
    """The brute p,q,r distribution over the order-n avoiders of one pattern."""
    return generation.distribution(n, (pattern,))


def _var(name):
    return Polynomial.variable(name, PQR)


def _marginal(dist, var):
    """The one-statistic marginal of a p,q,r distribution: the other two set to 1."""
    return dist.specialize({v: 1 for v in PQR if v != var}).project((var,))


def _counts(dist, var, n, plus=0):
    """Counts by var's statistic plus `plus`, at the values 0..2n."""
    marginal = _marginal(dist, var)
    return [marginal.coefficient((k - plus,)) for k in range(2 * n + 1)]


def _descents_132(n):
    return [formulas.descents_132(n, d) for d in range(2 * n + 1)]


def _symmetric(weighted, perms):
    """Sides of an invariance check: weighted(n) against its images under perms."""

    def images(n):
        base = weighted(n)
        return {"".join(p): base.permute_vars(dict(zip(PQR, p))) for p in perms}

    return lambda n: dict.fromkeys(("".join(p) for p in perms), weighted(n)), images


def _triples(n):
    """The (asc, des, plat) values of a word of order n: they sum to 2n - 1."""
    return [(m, d, 2 * n - 1 - m - d) for m in range(2 * n) for d in range(2 * n - m)]


def _eulerian_row(n):
    """Row n of the second-order Eulerian triangle, by its recurrence."""
    row = [1]
    for m in range(2, n + 1):
        prev = row + [0]
        row = [k * prev[k - 1] + (2 * m - k) * (prev[k - 2] if k >= 2 else 0)
               for k in range(1, m + 1)]
    return row


# One solve per solver per run_checks call, at the largest order a row that
# reads it covers (_solve_orders, set by run_checks).  Coefficient n of a
# solve truncated at N >= n is the one truncated at n.
# Each solver gives the tuple of coefficients 0..N.
SOLVERS = {
    "213": lambda N: series.series_213(N),
    "123": lambda N: series.series_123(N),
    "132": lambda N: series.series_132(N),
    "recurrence-123": lambda N: series.recurrence_123(N),
    "recurrence-132": lambda N: series.recurrence_132(N),
    "pair-122": lambda N: series.pair_series(("1", "11"), N),
    "R": lambda N: series.solve_R(N),
}
_SOLVES = {}
_solve_orders = {}


def _solved(name, n):
    """Coefficient n of the memoised solve SOLVERS[name]."""
    if name not in _SOLVES or len(_SOLVES[name]) <= n:
        _SOLVES[name] = SOLVERS[name](max(n, _solve_orders.get(name, 0)))
    return _SOLVES[name][n]


def _brute_catalytic(n, pattern):
    """Sum of p^plat q^des r^asc v^(i-1) over avoiders opening with i, i."""
    terms = Counter()
    for word in generation.generate_avoiders(n, (pattern,)):
        if word[0] == word[1]:
            s = words.stats(word)
            terms[s.plat, s.des, s.asc, word[0] - 1] += 1
    return Polynomial(series.PQRV, terms)


def _printed_seeds(n):
    """The printed seeds L_n(v) the 123 and 132 recurrences consume, and f(2) = g(2)."""
    seeds, f2 = series.printed_seeds()
    out = {f"L{name}": seeds[n] for name, count in series.SEEDS.items() if n <= count}
    if n == 2:
        out["f"] = out["g"] = f2.project(PQR)
    return out


def _computed_seeds(n):
    seeds = {f"L{name}": _brute_catalytic(n, PATTERNS[name])
             for name, count in series.SEEDS.items() if n <= count}
    if n == 2:
        seeds["f"] = _brute(2, P123)
        seeds["g"] = _brute(2, P132)
    return seeds


def _chain_at_one(blocks, order):
    """A chain's series at p = q = r = 1, as ints."""
    return [sum(c.terms.values()) for c in series.pair_series(blocks, order)]


def _times(a, b):
    """Product of two polynomials given by coefficient lists."""
    return [sum(x * b[k - i] for i, x in enumerate(a) if 0 <= k - i < len(b))
            for k in range(len(a) + len(b) - 1)]


def _expand(num, den, order):
    """Coefficients 0..order of num/den by long division; den[0] must be 1."""
    num, out = list(num) + [0] * (order + 1), []
    for k in range(order + 1):
        out.append(num[k] - sum(d * out[k - i] for i, d in enumerate(den[1:k + 1], 1)))
    return out


def _compose(outer, inner):
    """outer(inner) to as many terms as outer, by Horner; inner[0] must be 0."""
    out = [0] * len(outer)
    for c in reversed(outer):
        out = _times(out, inner)[:len(outer)]
        out[0] += c
    return out


# Printed numerators and denominators of the chains at all variables = 1;
# the five-letter chain's form is A5^2 / ((1 - x) B5).  The chain rows'
# expected sides are int lists, sharing no arithmetic with the solver.
A5, B5 = [1, -7, 15, -12, 5, -1], [1, -14, 77, -215, 332, -295, 157, -51, 10, -1]
RATIONAL_CHAINS = {
    ("1", "1", "11"): ([1, -2, 1], [1, -3, 1]),
    ("1", "1", "1", "11"): ([1, -6, 11, -6, 1], A5),
    ("1", "1", "1", "1", "11"): (_times(A5, A5), _times([1, -1], B5)),
}
CATALAN_CHAINS = (("11", "11"), ("11", "11", "11"), ("11", "11", "11", "11"))


def _nested_catalan(order):
    """C, C(x C), C(x C(x C)) to x^order: the chains of CATALAN_CHAINS by composition."""
    cat = [formulas.binomial(2 * n, n) // (n + 1) for n in range(order + 1)]
    out = [cat]
    for _ in CATALAN_CHAINS[1:]:
        out.append(_compose(cat, [0] + out[-1][:-1]))
    return dict(zip(CATALAN_CHAINS, out))


def _psi_involution(word):
    """The 123-avoider whose psi pair is the involution of the word's."""
    return bijections.psi_inverse(bijections.involution_pair(bijections.psi(word)), "123")


def _on_123_avoiders(n, image, key):
    return {w: key(words.stats(image(w))) for w in generation.generate_avoiders(n, (P123,))}


def _tree_tally(n):
    """n minus the edge counts of the ternary trees with n-1 edges, tallied."""
    tally = Counter(tuple(n - c for c in tree.edge_counts())
                    for tree in trees.ternary_trees(n - 1))
    return {"words": tally, **{swap: tally for swap in SWAPS}}


def _word_tally(n):
    """The (aasc, plat, ades) tally of the 213-avoiders, and its images under SWAPS.

    It is read off the memoised (plat, des, asc) distribution.
    """
    tally = Counter({(asc + 1, plat, des + 1): count
                     for (plat, des, asc), count in _brute(n, P213).items()})
    swapped = {swap: Counter({tuple(k[a] for a in swap): v for k, v in tally.items()})
               for swap in SWAPS}
    return {"words": tally, **swapped}


def _bijection(check_id, count, verify, cap=5):
    """One bijection verifier's report verify(n), against count(n) objects and no failures."""
    return Check(check_id, "bijections", cap,
                 lambda n: {"checked": count(n), "round trip": 0, "transport": 0}, verify)


# -- the table ---------------------------------------------------------------

TABLE = (
    Check("count-all", "counts", 7, lambda n: generation.double_factorial_odd(n),
          lambda n: sum(1 for _ in generation.generate_all(n))),
    # Reversal maps the 213-avoiders onto the 312-avoiders, counted too: a
    # split marks gap 0 bad only when the pattern's largest letter comes first.
    Check("count-avoiders", "counts", 9,
          lambda n: {**{k: getattr(formulas, f"count_avoid_{k}")(n) for k in PATTERNS},
                     "312": formulas.count_avoid_213(n)},
          lambda n: {k: sum(_brute(n, p).terms.values())
                     for k, p in {**PATTERNS, "312": (3, 1, 2)}.items()}),
    Check("eulerian-rows", "counts", 6, _eulerian_row,
          lambda n: generation.second_order_eulerian(n)),
    Check("symmetry-213", "symmetry", 9,
          *_symmetric(lambda n: _brute(n, P213) * _var("q") * _var("r"),
                      tuple(permutations(PQR)))),
    Check("stats-213", "symmetry", 9,
          lambda n: {t: formulas.count_213_by_stats(n, *t) for t in _triples(n)},
          lambda n: {(m, d, k): _brute(n, P213).coefficient((k, d, m))
                     for m, d, k in _triples(n)}),
    Check("symmetry-123", "symmetry", 9,
          *_symmetric(lambda n: _brute(n, P123) * _var("q"), (PQR, ("q", "p", "r")))),
    Check("plateaus-213", "plateaus", 9, lambda n: formulas.plateau_poly_213(n),
          lambda n: _marginal(_brute(n, P213), "p")),
    Check("plateaus-123", "plateaus", 9, lambda n: formulas.plateau_poly_123(n),
          lambda n: _marginal(_brute(n, P123), "p")),
    Check("plateaus-132-vs-123", "plateaus", 9, lambda n: _marginal(_brute(n, P123), "p"),
          lambda n: _marginal(_brute(n, P132), "p")),
    Check("marginals-123", "marginals", 9, lambda n: _counts(_brute(n, P123), "p", n),
          lambda n: _counts(_brute(n, P123), "q", n, plus=1)),
    Check("marginals-213", "marginals", 9,
          lambda n: dict.fromkeys(("plat", "asc+1"), _counts(_brute(n, P213), "q", n, plus=1)),
          lambda n: {"plat": _counts(_brute(n, P213), "p", n),
                     "asc+1": _counts(_brute(n, P213), "r", n, plus=1)}),
    Check("descents-132", "statistics-132", 9, _descents_132,
          lambda n: _counts(_brute(n, P132), "q", n)),
    Check("ascents-132", "statistics-132", 9, lambda n: formulas.ascent_poly_132(n),
          lambda n: _marginal(_brute(n, P132), "r")),
    Check("series-oracles", "series", 9,
          lambda n: {k: _brute(n, p) for k, p in PATTERNS.items()},
          lambda n: {k: _solved(k, n) for k in PATTERNS}, tuple(PATTERNS)),
    Check("series-recurrences", "series", tuple(range(7)),
          lambda n: {k: _solved(k, n) for k in ("123", "132")},
          lambda n: {k: _solved(f"recurrence-{k}", n) for k in ("123", "132")},
          ("123", "132", "recurrence-123", "recurrence-132")),
    Check("series-initials", "series", tuple(range(1, max(series.SEEDS.values()) + 1)),
          _printed_seeds, _computed_seeds),
    Check("series-specializations", "series", 9,
          lambda n: {"213": formulas.plateau_poly_213(n), "123": formulas.plateau_poly_123(n),
                     "132": formulas.plateau_poly_123(n), "132 descents": _descents_132(n)},
          lambda n: {**{k: _marginal(_solved(k, n), "p") for k in PATTERNS},
                     "132 descents": _counts(_solved("132", n), "q", n)}, tuple(PATTERNS)),
    Check("pair-122", "pairs", tuple(range(11)),
          lambda j: _var("p") ** j * _var("q") ** (j - 1) if j else Polynomial.one(PQR),
          lambda j: _solved("pair-122", j), ("pair-122",)),
    Check("pair-rationals", "pairs", (10,),
          lambda N: {b: _expand(num, den, N) for b, (num, den) in RATIONAL_CHAINS.items()},
          lambda N: {b: _chain_at_one(b, N) for b in RATIONAL_CHAINS}),
    Check("fibonacci-pair", "fibonacci", 9, lambda n: formulas.count_avoid_213_1233(n),
          lambda n: sum(1 for _ in generation.generate_avoiders(
              n, (P213, series.chain_pattern(("1", "1", "11")))))),
    Check("catalan-chains", "pairs", (8,), _nested_catalan,
          lambda N: {b: _chain_at_one(b, N) for b in CATALAN_CHAINS}),
    Check("joint-plat-122", "joint", 9, lambda n: generation.joint_plat_122(n),
          lambda n: _solved("R", n), ("R",)),
    _bijection("bijection-phi", lambda n: formulas.count_avoid_213(n),
               lambda n: bijections.verify_phi(n)),
    _bijection("bijection-psi-123", lambda n: formulas.count_avoid_123(n),
               lambda n: bijections.verify_psi(n, "123")),
    _bijection("bijection-psi-132", lambda n: formulas.count_avoid_132(n),
               lambda n: bijections.verify_psi(n, "132")),
    _bijection("bijection-rho", lambda n: formulas.binomial(2 * n, n) // (n + 1),
               lambda n: bijections.verify_rho(n), cap=6),
    _bijection("bijection-fc", lambda n: formulas.count_avoid_123(n),
               lambda n: bijections.verify_fc(n)),
    Check("involution-swap", "bijections", 5,
          lambda n: _on_123_avoiders(n, lambda w: w, lambda s: (s.ades, s.plat)),
          lambda n: _on_123_avoiders(n, _psi_involution, lambda s: (s.plat, s.ades))),
    Check("phi-pullback", "bijections", 5, _tree_tally, _word_tally),
)

CHECKS = {check.check_id: check for check in TABLE}

SUITES = {
    suite: tuple(c.check_id for c in TABLE if c.suite == suite)
    for suite in dict.fromkeys(c.suite for c in TABLE)
}
SUITES["all"] = tuple(CHECKS)


def run_checks(suite, ns):
    """Run a suite of checks; returns the list of CheckResult objects."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    _brute.cache_clear()
    _SOLVES.clear()
    _solve_orders.clear()
    for c in TABLE:
        for solver in c.solves:
            _solve_orders[solver] = max((_solve_orders.get(solver, 0), *c.covered(ns)))
    return [CHECKS[name](ns) for name in SUITES[suite]]
