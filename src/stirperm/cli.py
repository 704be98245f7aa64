"""Command-line interface.

Subcommands: enumerate, series, formula, biject, verify.  Output is
byte-deterministic for fixed flags: fixed orderings everywhere, decimal
strings for all numbers, and no timings unless asked for.

Input rules, the same for every verb.  Orders and counts are checked while
the command line is parsed: enumerate --n, series --order and formula --n
must be integers >= 0, biject --n and verify --jobs integers >= 1.  Series
--spec and formula --param are read by one name=integer parser: blank pieces
are skipped, all=N assigns every name, and a bad integer, an unknown name
or a name assigned twice is refused.  Bad input prints one line naming it
on stderr and nothing on stdout.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from itertools import islice

from . import bijections, formulas, generation, series, verification
from .errors import BadPattern, LimitExceeded, StirpermError, UnknownEquation
from .polynomials import Polynomial
from .trees import FCOrderedTree, OrderedTree, TernaryTree
# stats is unused here but traced as cli.stats by the benchmark
from .words import format_word, parse_word, stats, validate_pattern  # noqa: F401

DEFAULT_LIMIT = 8


def _at_least(low):
    """argparse type: an integer >= low, else an error naming the text."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return value
    return parse


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stirperm",
        description="Enumerate pattern-avoiding Stirling permutations, evaluate "
        "their counting formulas and generating-function equations, and run "
        "the bijections between avoiders and trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    order, positive = _at_least(0), _at_least(1)

    p_enum = sub.add_parser("enumerate", help="list Stirling permutations")
    p_enum.set_defaults(handler=cmd_enumerate)
    p_enum.add_argument("--n", type=order, required=True, help="order")
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
    p_series.add_argument("--order", type=order, default=10, help="truncation order N")
    p_series.add_argument(
        "--spec", default=None, metavar="ASSIGN",
        help="specialization, e.g. p=1,q=1 or all=1, applied before printing",
    )
    p_series.add_argument("--format", choices=("lines", "json"), default="lines")

    p_formula = sub.add_parser("formula", help="evaluate a closed-form count")
    p_formula.set_defaults(handler=cmd_formula)
    p_formula.add_argument("--id", dest="formula_id",
                           help="formula id, e.g. count-213 or plateaus-123")
    p_formula.add_argument("--n", type=order, help="order")
    p_formula.add_argument("--param", action="append", default=[], metavar="NAME=VALUE",
                           help="extra integer parameter, e.g. d=2 (repeatable)")
    p_formula.add_argument("--format", choices=("lines", "json"), default="lines")
    p_formula.add_argument("--list", action="store_true", help="list formula ids and exit")

    p_biject = sub.add_parser("biject", help="run a bijection or verify one")
    p_biject.set_defaults(handler=cmd_biject)
    p_biject.add_argument("map", choices=("phi", "psi", "rho", "fc", "verify"))
    p_biject.add_argument("--direction", choices=("fwd", "inv"), default="fwd")
    p_biject.add_argument("--input", default=None,
                          help="word, tree string, or perm|s pair, e.g. 4,6,5,2,1,3|3,1,1")
    p_biject.add_argument("--family", choices=("123", "132"), default="123",
                          help="avoidance class for psi")
    p_biject.add_argument("--map", dest="verify_map", default=None,
                          help="map name for the verify verb: phi, psi-123, psi-132, rho, fc")
    p_biject.add_argument("--n", type=positive, help="order for the verify verb")

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
    p_verify.add_argument("--jobs", type=positive, default=1, help="parallel worker processes")
    p_verify.add_argument("--timings", action="store_true", help="include elapsed seconds")
    p_verify.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="json: one object per check (id, suite, status, orders; elapsed with "
        "--timings) and a passed/skipped/total summary",
    )
    p_verify.add_argument("--list", action="store_true", help="list suites and exit")

    return parser


# -- enumerate ---------------------------------------------------------------


# Per format: header and row ({0} word, {1} des, {2} asc, {3} plat), each
# without and with --stats, then the row separator and the trailer.
ENUMERATE_LAYOUTS = {
    "lines": (("", ""), ("{0}\n", "{0} {1} {2} {3}\n"), "", ""),
    "csv": (("word\n", "word,des,asc,plat\n"), ("{0}\n", "{0},{1},{2},{3}\n"), "", ""),
    "json": (("[", "["), ('"{0}"', '{{"word": "{0}", "des": {1}, "asc": {2}, "plat": {3}}}'),
             ", ", "]\n"),
}
ENUMERATE_BUFFER = 64  # rows per write


def _row_limit(n, patterns):
    """Refuse output that may pass the rows of order DEFAULT_LIMIT.

    With patterns, the bound is 2n-1 rows per order n-1 avoider, counted
    on the tree until the bound passes.
    """
    cap = generation.double_factorial_odd(DEFAULT_LIMIT)
    if not patterns:
        bound = generation.double_factorial_odd(n)
        what = f"{bound} permutations"
    else:
        avoiders = generation.generate_avoiders(n - 1, patterns)
        parents = sum(1 for _ in islice(avoiders, cap // (2 * n - 1) + 1))
        bound = (2 * n - 1) * parents
        what = (f"a bound of {bound} rows: {2 * n - 1} per order-{n - 1} avoider, "
                f"counted up to {parents}")
    if bound > cap:
        raise LimitExceeded(
            f"order {n} exceeds the default limit {DEFAULT_LIMIT} ({what}, "
            f"more than the {cap} permutations of order {DEFAULT_LIMIT}); "
            "pass --force to proceed"
        )


def cmd_enumerate(args):
    patterns = tuple(validate_pattern(parse_word(p)) for p in args.avoid)
    if args.n > DEFAULT_LIMIT and not args.force:
        _row_limit(args.n, patterns)
    fmt = args.format or ("csv" if args.stats else "lines")
    heads, rows, sep, tail = ENUMERATE_LAYOUTS[fmt]
    row = rows[args.stats].format
    nodes = generation.generate_avoiders(args.n, patterns, with_stats=True)
    lines = (row(format_word(word), des, asc, plat) for word, des, asc, plat, _ in nodes)
    write = sys.stdout.write
    write(heads[args.stats])
    lead = ""
    for chunk in iter(lambda: list(islice(lines, ENUMERATE_BUFFER)), []):
        write(lead)
        write(sep.join(chunk))
        lead = sep
    write(tail)
    return 0


# -- series and formula ------------------------------------------------------


def _assignments(pieces, names, noun, owner):
    """{name: int} from name=integer pieces over names; all=N assigns them all.

    Skips blank pieces; a bad integer, an unknown or a repeated name raises BadPattern.
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
            raise BadPattern(f"bad {noun} {piece!r}; want name=integer") from exc
        for v in (name == "all" and names) or (name,):
            if v not in names:
                takes = ",".join(names) or f"no {noun}s"
                raise BadPattern(f"{owner} has no {noun} {v!r}; takes {takes}")
            if v in values:
                raise BadPattern(f"{noun} {v!r} given twice")
            values[v] = number
    return values


# --eq ids of the single equations -> solver name in series
SINGLE_EQUATIONS = {"213": "series_213", "123": "series_123", "132": "series_132", "R": "solve_R"}


def _resolve_series(eq, order):
    if eq in SINGLE_EQUATIONS:
        return getattr(series, SINGLE_EQUATIONS[eq])(order)
    verb, colon, chain = eq.partition(":")
    if colon and verb in ("prepend1", "prepend11"):
        blocks = tuple(b.strip() for b in chain.split(",") if b.strip())
        if not blocks:
            raise UnknownEquation(f"empty chain in {eq!r}")
        if blocks[0] != verb.removeprefix("prepend"):
            raise UnknownEquation(f"chain head {blocks[0]!r} does not match verb {verb!r}")
        try:
            return series.pair_series(blocks, order)
        except ValueError as exc:
            raise UnknownEquation(str(exc)) from exc
    known = "213, 123, 132, R, prepend1:<chain>, prepend11:<chain>"
    raise UnknownEquation(f"unknown equation {eq!r}; known: {known}")


def cmd_series(args):
    ser = _resolve_series(args.eq, args.order)
    if args.spec:
        spec = _assignments(args.spec.split(","), ser.vars, "variable", f"equation {args.eq}")
        ser = ser.specialize(spec)
    print(json.dumps(ser.to_json_obj()) if args.format == "json"
          else ", ".join(str(ser.coefficient(k)) for k in range(ser.order + 1)))
    return 0


def _formula_params(func):
    """A formula's parameters: its positional names after n without a default."""
    params = list(inspect.signature(func).parameters.values())[1:]
    return tuple(p.name for p in params if p.default is p.empty)


def cmd_formula(args):
    if args.list:
        for name, (func, summary) in sorted(formulas.FORMULAS.items()):
            params = _formula_params(func)
            print(f"{name}: {summary}" + ("; needs " + ",".join(params) if params else ""))
        return 0
    if args.formula_id is None or args.n is None:
        raise BadPattern("formula needs --id and --n, or --list")
    if args.formula_id not in formulas.FORMULAS:
        raise UnknownEquation(
            f"unknown formula {args.formula_id!r}; known: {', '.join(sorted(formulas.FORMULAS))}"
        )
    func, _ = formulas.FORMULAS[args.formula_id]
    names = _formula_params(func)
    params = _assignments(args.param, names, "parameter", f"formula {args.formula_id}")
    missing = [p for p in names if p not in params]
    if missing:
        raise BadPattern(f"formula {args.formula_id} needs --param {','.join(missing)}")
    value = func(args.n, *[params[p] for p in names])
    if args.format == "json":
        obj = value.to_json_obj() if isinstance(value, Polynomial) else {"value": str(value)}
        value = json.dumps(obj)
    print(value)
    return 0


# -- biject ------------------------------------------------------------------


def _parse_pair(text):
    """(perm, s) from 'perm|s'; "|" alone is the order-0 pair ((), ())."""
    perm_text, bar, s_text = text.partition("|")
    if not bar:
        raise BadPattern("pair input must look like 'perm|s', e.g. 4,6,5,2,1,3|3,1,1")
    try:
        s = tuple(int(x) for x in s_text.split(",")) if s_text else ()
    except ValueError as exc:
        raise BadPattern(f"bad pair {text!r}: s must be comma-separated integers") from exc
    return parse_word(perm_text), s


def _format_pair(pair):
    """Inverse of _parse_pair: both halves in comma form, e.g. 4,6,5,2,1,3|3,1,1."""
    perm, s = pair
    return f"{','.join(str(x) for x in perm)}|{','.join(str(x) for x in s)}"


def cmd_biject(args):
    if args.map == "verify":
        name = args.verify_map
        if name is None or args.n is None:
            raise BadPattern("biject verify needs --map and --n")
        if name not in bijections.VERIFIERS:
            known = ", ".join(sorted(bijections.VERIFIERS))
            raise BadPattern(f"unknown map {name!r}; known: {known}")
        report = {"map": name, "n": args.n, **bijections.VERIFIERS[name](args.n)}
        print(json.dumps(report))
        return 0 if report["failures"] == 0 and report["statistic_transport"]["failures"] == 0 else 1

    if args.input is None:
        raise BadPattern("biject needs --input")
    b = bijections
    # (read the input, map it, write the image) per map and direction
    read, run, write = {
        ("phi", "fwd"): (parse_word, b.phi, TernaryTree.serialize),
        ("phi", "inv"): (TernaryTree.parse, b.phi_inverse, format_word),
        ("psi", "fwd"): (parse_word, b.psi,
                         lambda ps: json.dumps({"perm": format_word(ps[0]), "s": list(ps[1])})),
        ("psi", "inv"): (_parse_pair, lambda pair: b.psi_inverse(pair, args.family), format_word),
        ("rho", "fwd"): (parse_word, b.rho, OrderedTree.serialize),
        ("rho", "inv"): (OrderedTree.parse, b.rho_inverse, format_word),
        ("fc", "fwd"): (_parse_pair, b.to_fc_tree, FCOrderedTree.serialize),
        ("fc", "inv"): (FCOrderedTree.parse, b.from_fc_tree, _format_pair),
    }[args.map, args.direction]
    print(write(run(read(args.input))))
    return 0


# -- verify ------------------------------------------------------------------


def _parse_range(text):
    lo, _, hi = text.strip().partition("..")
    try:
        lo, hi = int(lo), int(hi or lo)
    except ValueError as exc:
        raise BadPattern(f"bad order range {text!r}; e.g. 1..5 or 3") from exc
    if not 1 <= lo <= hi:
        raise BadPattern(f"order range {text!r} is empty or starts below 1")
    return range(lo, hi + 1)


def cmd_verify(args):
    if args.list:
        for name in verification.SUITES:
            print(f"{name}: {', '.join(verification.SUITES[name])}")
        return 0
    try:
        results = verification.run_checks(args.suite, _parse_range(args.n), jobs=args.jobs)
    except ValueError as exc:
        raise BadPattern(str(exc)) from exc
    passed = sum(1 for r in results if r.ok)
    skipped = sum(1 for r in results if r.status == "skip")
    code = 0 if passed and passed + skipped == len(results) else 1
    if args.format == "json":
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.handler(args)
    except (StirpermError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: the input nests too deeply", file=sys.stderr)
        return 2


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
