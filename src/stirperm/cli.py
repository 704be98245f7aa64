"""Command-line interface.

Subcommands: enumerate, series, formula, biject, verify.  Output is
byte-deterministic for fixed flags: fixed orderings everywhere, decimal
strings for all numbers, and no timings unless asked for.

Input rules, the same for every verb.  Orders are checked while the
command line is parsed: enumerate --n, series --order and formula --n must
be integers >= 0.  Series --spec and formula --param take comma lists, as
in m=1,d=1,k=3, and --param may also be repeated; both are read by one
name=integer parser: blank pieces are skipped, all=N assigns every name,
and a bad integer, an unknown name or a name assigned twice is refused.
Past argparse's own usage errors, every refusal is a ValueError, which
main prints as one line, "error: <message>", on stderr, with nothing on
stdout and exit 2.

Each biject map is its own subcommand and takes only what it uses: phi,
rho and fc take --direction and a required --input, and psi also
--family; any other option is a usage error.  Each side of a map has one
text form, so every output is an input of the opposite direction.  The
maps are checked exhaustively by `verify --suite bijections`.

Each handler imports the modules it runs, so a call loads only those;
only verify --format json loads the json module (series and formula
write theirs with Polynomial.to_json, one coefficient at a time).

series refuses an --order above its equation's limit in series.EQUATIONS,
a chain whose blocks times --order pass series.CHAIN_LIMIT, and a bad
--spec, all before it solves; formula refuses an --n above its formula's
limit in formulas.FORMULAS before it evaluates; enumerate refuses output
larger than order DEFAULT_LIMIT.  --force lifts the limits.

Exit codes: 0 success, 1 verification failure, 2 usage error, 141
(128 + SIGPIPE) when the reader closes standard output early, as
`enumerate --n 8 | head -1` does; nothing is printed on stderr then.

How a run ends: run, the entry point of `python -m stirperm` and of the
stirperm script, flushes stdout and then stderr and ends the process with
os._exit, skipping the interpreter's teardown (freeing every object and
module), which costs more than many commands themselves.  So atexit
handlers do not run.  Under a tracer or profiler (sys.gettrace or
sys.getprofile set, as coverage, trace and cProfile do), it exits the
normal way, so that they can write their reports.  main, which tests call
in-process, returns its exit code and ends nothing.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from itertools import accumulate, islice

# stats is unused here but traced as cli.stats by the benchmark
from .words import DIGITS, format_word, parse_word, stats, validate_pattern  # noqa: F401

DEFAULT_LIMIT = 8


def _order(text):
    """argparse type: an integer >= 0, else an error naming the text."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return value


# biject maps: name, help, and an --input example for each direction
BIJECT_MAPS = (
    ("phi", "213-avoiding word <-> ternary tree", "1221, or with inv (-,(-,-,-),-)"),
    ("psi", "123- or 132-avoiding word <-> perm|s pair", "1221, or with inv 12|2"),
    ("rho", "123-avoiding permutation <-> ordered tree", "1,2, or with inv (()())"),
    ("fc", "perm|s pair <-> favorite-child tree", "1,2|2, or with inv (()()):2"),
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stirperm",
        description="Enumerate pattern-avoiding Stirling permutations, evaluate "
        "their counting formulas and generating-function equations, and run "
        "the bijections between avoiders and trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="list Stirling permutations")
    p_enum.set_defaults(handler=cmd_enumerate)
    p_enum.add_argument("--n", type=_order, required=True, help="order")
    p_enum.add_argument("--avoid", action="append", default=[], metavar="PATTERN",
                        help="pattern to avoid (repeatable), e.g. 213 or 1122")
    p_enum.add_argument("--stats", action="store_true", help="append des,asc,plat columns")
    p_enum.add_argument("--format", choices=("lines", "json", "csv"), default=None)
    p_enum.add_argument("--force", action="store_true", help="override the size limit")

    p_series = sub.add_parser("series", help="solve a generating-function equation")
    p_series.set_defaults(handler=cmd_series)
    p_series.add_argument(
        "--eq", required=True,
        help="equation id: 213, 123, 132, R, prepend1:<chain>, prepend11:<chain>",
    )
    p_series.add_argument("--order", type=_order, default=10, help="truncation order N")
    p_series.add_argument(
        "--spec", default=None, metavar="ASSIGN",
        help="specialization, e.g. p=1,q=1 or all=1, applied before printing",
    )
    p_series.add_argument("--format", choices=("lines", "json"), default="lines")
    p_series.add_argument("--force", action="store_true", help="override the order limit")

    p_formula = sub.add_parser("formula", help="evaluate a closed-form count")
    p_formula.set_defaults(handler=cmd_formula)
    p_formula.add_argument("--id", dest="formula_id",
                           help="formula id, e.g. count-213 or plateaus-123")
    p_formula.add_argument("--n", type=_order, help="order")
    p_formula.add_argument("--param", action="append", default=[], metavar="ASSIGN",
                           help="integer parameters, e.g. d=2 or m=1,d=1,k=3 (repeatable)")
    p_formula.add_argument("--format", choices=("lines", "json"), default="lines")
    p_formula.add_argument("--list", action="store_true", help="list formula ids and exit")
    p_formula.add_argument("--force", action="store_true", help="override the order limit")

    p_biject = sub.add_parser("biject", help="run a bijection or its inverse")
    p_biject.set_defaults(handler=cmd_biject)
    maps = p_biject.add_subparsers(dest="map", required=True)
    for name, what, example in BIJECT_MAPS:
        p_map = maps.add_parser(name, help=what)
        p_map.add_argument("--direction", choices=("fwd", "inv"), default="fwd")
        p_map.add_argument("--input", required=True, help=f"e.g. {example}")
        if name == "psi":
            p_map.add_argument("--family", choices=("123", "132"), default="123",
                               help="avoidance class for the inverse")

    p_verify = sub.add_parser(
        "verify", help="run cross-validation suites",
        description="Run each check of a suite over the requested orders. Each line names "
        "the orders the check covered: most checks cover the requested orders up to "
        "their own cap, a few cover fixed orders. A check that covers no requested order "
        "is SKIP and does not count as passed. Exit 0 when no check failed and at least "
        "one passed, 1 otherwise, 2 on a usage error.",
    )
    p_verify.set_defaults(handler=cmd_verify)
    p_verify.add_argument("--suite", default="all", help="suite name (see --list), default all")
    p_verify.add_argument("--n", default="1..5", metavar="RANGE",
                          help="order range lo..hi with 1 <= lo <= hi, or a single order")
    p_verify.add_argument("--timings", action="store_true", help="include elapsed seconds")
    p_verify.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="json: one object per check (id, suite, status, orders; elapsed with "
        "--timings) and a passed/skipped/total summary",
    )
    p_verify.add_argument("--list", action="store_true", help="list suites and exit")

    return parser


# -- enumerate ---------------------------------------------------------------


# Per format: header and row template ({0} word, {1} des, {2} asc, {3} plat),
# each without and with --stats, then the row separator and the trailer.
# cmd_enumerate splits a row template at {0}: the part before it is a
# constant (its braces unescaped), the part after it is formatted for each
# gap kind once per distinct (des, asc, plat) of a parent, and the word's
# text between the two is cut from its parent's text.
ENUMERATE_LAYOUTS = {
    "lines": (("", ""), ("{0}\n", "{0} {1} {2} {3}\n"), "", ""),
    "csv": (("word\n", "word,des,asc,plat\n"), ("{0}\n", "{0},{1},{2},{3}\n"), "", ""),
    "json": (("[", "["), ('"{0}"', '{{"word": "{0}", "des": {1}, "asc": {2}, "plat": {3}}}'),
             ", ", "]\n"),
}
# rows per write, plus at most one parent's; larger chunks write faster but raise peak RSS
ENUMERATE_BUFFER = 64


def _row_limit(n, patterns):
    """Refuse output that may pass the rows of order DEFAULT_LIMIT.

    With patterns, the bound is 2n-1 rows per order n-1 avoider, counted
    on the tree until the bound passes.
    """
    from . import generation

    cap = generation.double_factorial_odd(DEFAULT_LIMIT)
    if not patterns:
        bound = generation.double_factorial_odd(n)
        what = f"{bound} permutations"
    else:
        avoiders = generation.generate_avoiders(n - 1, patterns, form="leaves")
        parents = sum(1 for _ in islice(avoiders, cap // (2 * n - 1) + 1))
        bound = (2 * n - 1) * parents
        what = (f"a bound of {bound} rows: {2 * n - 1} per order-{n - 1} avoider, "
                f"counted up to {parents}")
    if bound > cap:
        raise ValueError(
            f"order {n} exceeds the default limit {DEFAULT_LIMIT} ({what}, "
            f"more than the {cap} permutations of order {DEFAULT_LIMIT}); "
            "pass --force to proceed"
        )


def cmd_enumerate(args):
    from . import generation

    n, patterns = args.n, tuple(validate_pattern(parse_word(p)) for p in args.avoid)
    if n > DEFAULT_LIMIT and not args.force:
        _row_limit(n, patterns)
    fmt = args.format or ("csv" if args.stats else "lines")
    heads, rows, sep, tail = ENUMERATE_LAYOUTS[fmt]
    before, _, after = rows[args.stats].partition("{0}")
    before = before.format()

    @cache
    def ends(des, asc, plat):  # a parent's stats texts, one per gap kind
        return [after.format(None, des + dd, asc + da, plat + dp)
                for dd, da, dp in generation.STEPS]

    # A row is its parent's text with n,n spliced in at the gap; a parent's
    # text and stats texts are made once, when its first leaf comes.  A word
    # of order n has exactly the letters 1..n, so format_word's digit form
    # holds iff n <= 9, cut at the positions; the comma form cuts ",a,b,..."
    # before each comma, splices in ",n,n" and drops the leading comma.
    digits = n <= 9
    pair = (str(n) * 2 if n else "") if digits else f",{n},{n}"
    lead, chunk, write, parent = heads[args.stats], [], sys.stdout.write, None
    for node, pos, kind in generation.generate_avoiders(n, patterns, form="leaves"):
        if node is not parent:
            if len(chunk) >= ENUMERATE_BUFFER:  # flushed before a parent, so the last is never empty
                write(lead + sep.join(chunk))
                lead, chunk = sep, []
            parent, (word, des, asc, plat, _) = node, node
            tails = ends(des, asc, plat)
            if digits:
                text = bytes(word).translate(DIGITS).decode("ascii")
            else:
                parts = [f",{x}" for x in word]
                text, cuts = "".join(parts), [0, *accumulate(map(len, parts))]
        if digits:
            chunk.append(f"{before}{text[:pos]}{pair}{text[pos:]}{tails[kind]}")
        else:
            o = cuts[pos]
            chunk.append(f"{before}{(text[:o] + pair + text[o:])[1:]}{tails[kind]}")
    write(lead + sep.join(chunk) + tail)
    return 0


# -- series and formula ------------------------------------------------------


def _assignments(pieces, names, noun, owner):
    """{name: int} from name=integer pieces over names; all=N assigns them all.

    Skips blank pieces; a bad integer, an unknown or a repeated name raises ValueError.
    """
    values = {}
    for piece in map(str.strip, pieces):
        if not piece:
            continue
        name, _, value = piece.partition("=")
        name = name.strip()
        try:
            number = int(value)
        except ValueError as exc:
            raise ValueError(f"bad {noun} {piece!r}; want name=integer") from exc
        for v in (name == "all" and names) or (name,):
            if v not in names:
                takes = ",".join(names) or f"no {noun}s"
                raise ValueError(f"{owner} has no {noun} {v!r}; takes {takes}")
            if v in values:
                raise ValueError(f"{noun} {v!r} given twice")
            values[v] = number
    return values


def _series_solver(eq):
    """(equation, blocks, solve) for an --eq id.

    equation is its family's entry in series.EQUATIONS, blocks its chain (()
    for a single equation) and solve(order) its solver.
    """
    from . import series

    # chain family -> the block it prepends, the rest of its name
    chains = {name: name.removeprefix("prepend") for name, e in series.EQUATIONS.items()
              if e.entry == "pair_series"}
    verb, colon, chain = eq.partition(":")
    equation = series.EQUATIONS.get(verb)
    if equation and not colon and verb not in chains:
        return equation, (), getattr(series, equation.entry)
    if colon and verb in chains:
        blocks = tuple(b.strip() for b in chain.split(",") if b.strip())
        if not blocks:
            raise ValueError(f"empty chain in {eq!r}")
        if blocks[0] != chains[verb]:
            raise ValueError(f"chain head {blocks[0]!r} does not match verb {verb!r}")
        bad = [b for b in blocks if b not in chains.values()]
        if bad:
            raise ValueError(f"unsupported chain block {bad[0]!r} in {eq!r}; "
                             f"blocks are {' and '.join(chains.values())}")
        return equation, blocks, lambda order: series.pair_series(blocks, order)
    known = ", ".join(name + ":<chain>" * (name in chains) for name in series.EQUATIONS)
    raise ValueError(f"unknown equation {eq!r}; known: {known}")


def cmd_series(args):
    from .series import CHAIN_LIMIT

    equation, blocks, solve = _series_solver(args.eq)
    if args.order > equation.limit and not args.force:
        raise ValueError(f"order {args.order} exceeds the limit {equation.limit} for "
                         f"equation {args.eq}; pass --force to proceed")
    if len(blocks) * args.order > CHAIN_LIMIT and not args.force:
        raise ValueError(f"{len(blocks)} blocks at order {args.order} exceed the limit "
                         f"{CHAIN_LIMIT} on blocks x order for a chain; "
                         "pass --force to proceed")
    spec = args.spec and _assignments(args.spec.split(","), equation.vars, "variable",
                                      f"equation {args.eq}")
    coeffs = solve(args.order)
    # one coefficient per write, specialized just before: the output is never held at once
    as_json, write = args.format == "json", sys.stdout.write
    write("[" if as_json else "")
    for k, c in enumerate(coeffs):
        if spec:
            c = c.specialize(spec)
        write((", " if k else "") + (c.to_json() if as_json else str(c)))
    write("]\n" if as_json else "\n")
    return 0


def _formula_params(func):
    """A formula's parameters: its positional names after n."""
    return func.__code__.co_varnames[1:func.__code__.co_argcount]


def cmd_formula(args):
    from . import formulas
    from .polynomials import Polynomial

    if args.list:
        for name, (func, summary, _) in sorted(formulas.FORMULAS.items()):
            params = _formula_params(func)
            print(f"{name}: {summary}" + ("; needs " + ",".join(params) if params else ""))
        return 0
    if args.formula_id is None or args.n is None:
        raise ValueError("formula needs --id and --n, or --list")
    if args.formula_id not in formulas.FORMULAS:
        raise ValueError(
            f"unknown formula {args.formula_id!r}; known: {', '.join(sorted(formulas.FORMULAS))}"
        )
    func, _, limit = formulas.FORMULAS[args.formula_id]
    if args.n > limit and not args.force:
        raise ValueError(f"order {args.n} exceeds the limit {limit} for formula "
                         f"{args.formula_id}; pass --force to proceed")
    names = _formula_params(func)
    params = _assignments(",".join(args.param).split(","), names, "parameter",
                          f"formula {args.formula_id}")
    missing = [p for p in names if p not in params]
    if missing:
        raise ValueError(f"formula {args.formula_id} needs --param {','.join(missing)}")
    value = func(args.n, *[params[p] for p in names])
    if args.format == "json":
        value = value.to_json() if isinstance(value, Polynomial) else f'{{"value": "{value}"}}'
    print(value)
    return 0


# -- biject ------------------------------------------------------------------


def _parse_pair(text):
    """(perm, s) from 'perm|s'; "|" alone is the order-0 pair ((), ())."""
    perm_text, bar, s_text = text.partition("|")
    if not bar:
        raise ValueError("pair input must look like 'perm|s', e.g. 4,6,5,2,1,3|3,1,1")
    try:
        s = tuple(int(x) for x in s_text.split(",")) if s_text else ()
    except ValueError as exc:
        raise ValueError(f"bad pair {text!r}: s must be comma-separated integers") from exc
    return parse_word(perm_text), s


def _format_pair(pair):
    """Inverse of _parse_pair: both halves in comma form, e.g. 4,6,5,2,1,3|3,1,1."""
    perm, s = pair
    return f"{','.join(str(x) for x in perm)}|{','.join(str(x) for x in s)}"


def cmd_biject(args):
    from . import bijections as b
    from .trees import FCOrderedTree, OrderedTree, TernaryTree

    # a text form is (read, write); each side of a map has one
    word, pair = (parse_word, format_word), (_parse_pair, _format_pair)
    ternary, ordered, fc = ((t.parse, t.serialize)
                            for t in (TernaryTree, OrderedTree, FCOrderedTree))
    domain, codomain, forward, inverse = {
        "phi": (word, ternary, b.phi, b.phi_inverse),
        "psi": (word, pair, b.psi, lambda p: b.psi_inverse(p, args.family)),
        "rho": (word, ordered, b.rho, b.rho_inverse),
        "fc": (pair, fc, b.to_fc_tree, b.from_fc_tree),
    }[args.map]
    if args.direction == "inv":
        domain, codomain, forward = codomain, domain, inverse
    print(codomain[1](forward(domain[0](args.input))))
    return 0


# -- verify ------------------------------------------------------------------


def _parse_range(text):
    lo, dots, hi = text.strip().partition("..")
    try:
        lo, hi = int(lo), int(hi if dots else lo)
    except ValueError as exc:
        raise ValueError(f"bad order range {text!r}; e.g. 1..5 or 3") from exc
    if not 1 <= lo <= hi:
        raise ValueError(f"order range {text!r} is empty or starts below 1")
    return range(lo, hi + 1)


def cmd_verify(args):
    from . import verification

    if args.list:
        for name in verification.SUITES:
            print(f"{name}: {', '.join(verification.SUITES[name])}")
        return 0
    results = verification.run_checks(args.suite, _parse_range(args.n))
    passed = sum(1 for r in results if r.ok)
    skipped = sum(1 for r in results if r.status == "skip")
    code = 0 if passed and passed + skipped == len(results) else 1
    if args.format == "json":
        import json

        print(json.dumps({
            "checks": [_check_json(r, args.timings) for r in results],
            "summary": {"passed": passed, "skipped": skipped, "total": len(results)},
        }))
        return code
    width = max(len(r.check_id) for r in results)
    for r in results:
        line = f"{r.status.upper():4}  {r.check_id:<{width}}"
        if args.timings:
            line += f"  {r.elapsed:7.2f}s"
        line += f"  orders {verification.format_orders(r.orders)}"
        if r.status == "fail":
            line += f"  expected {r.expected}; got {r.actual}"
        if r.counterexample:
            line += f"  [{r.counterexample}]"
        print(line)
    print(f"{passed}/{len(results)} checks passed" + (f", {skipped} skipped" if skipped else ""))
    return code


def _check_json(r, timings):
    """One check result as a JSON object; what the text line holds, as fields."""
    obj = {"id": r.check_id, "suite": r.suite, "status": r.status, "orders": list(r.orders)}
    if timings:
        obj["elapsed"] = r.elapsed
    if r.status == "fail":
        obj.update(expected=r.expected, actual=r.actual)
    if r.counterexample:
        obj["counterexample"] = r.counterexample
    return obj


def main(argv=None):
    # formula and series print integers of any length (Python < 3.10.7 has no limit)
    getattr(sys, "set_int_max_str_digits", lambda digits: None)(0)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run():
    try:
        code = main()
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so that
        # the shutdown flush of a normal exit (below) writes nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    # a tracer or profiler (coverage, trace, cProfile) writes its report at a normal exit
    if sys.gettrace() or sys.getprofile() or not isinstance(code, int):
        raise SystemExit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
