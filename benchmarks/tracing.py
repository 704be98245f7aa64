"""In-process tracing of one stirperm CLI call, and the per-layer metrics.

Run as ``python -m benchmarks.tracing SPANS -- <stirperm arguments>`` with
the checkout's ``src`` on ``PYTHONPATH``.  It wraps the public functions of
each stirperm module, calls ``stirperm.cli.main`` with the arguments (its
output goes to this process's standard output, unchanged) and writes the
recorded spans to ``SPANS.json`` and ``SPANS.bin``.  It exits with the CLI's
exit code.

A span is (name, start, end, parent).  Spans live in flat arrays while the
call runs and are written out once, at the end.  A wrapped generator gets
one span per ``next()``, covering only the time spent inside it, so the
consumer's work between items is not billed to the generator.  After the
call it times the tracer on empty functions (``span_costs``), and the
analysis takes that cost out of every span's time (``self_times``).  The
from-import copies of a wrapped function (``cli.stats``, ``generation.avoids``
and the like) and the entries of ``verification.CHECKS`` are rebound too,
and everything is restored when ``instrument`` exits.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

# The ten suites of `verify`; each gets a verification.<suite>_s metric.
SUITES = (
    "counts", "symmetry", "plateaus", "marginals", "statistics-132",
    "series", "pairs", "fibonacci", "joint", "bijections",
)
SERIES_SPANS = (
    "series_213", "series_123", "series_132", "solve_R",
    "pair_series", "recurrence_123", "recurrence_132",
)


@dataclass
class Spans:
    """Spans of one traced call, with the counts recorded beside them."""

    names: list = field(default_factory=list)
    name_id: array = field(default_factory=lambda: array("i"))
    parent: array = field(default_factory=lambda: array("i"))
    start: array = field(default_factory=lambda: array("d"))
    end: array = field(default_factory=lambda: array("d"))
    yielded: array = field(default_factory=lambda: array("b"))
    counters: dict = field(default_factory=dict)
    distinct: dict = field(default_factory=dict)  # span name -> distinct argument count
    generators: list = field(default_factory=list)  # names whose spans are next() steps
    costs: dict = field(default_factory=dict)  # see span_costs; none recorded means 0
    calibration_s: float = 0.0  # how long span_costs took

    _FIELDS = ("name_id", "parent", "start", "end", "yielded")
    _HEADER = ("names", "counters", "distinct", "generators", "costs", "calibration_s")

    def dump(self, prefix):
        header = {key: getattr(self, key) for key in self._HEADER}
        header["spans"] = len(self.name_id)
        with open(f"{prefix}.json", "w") as f:
            json.dump(header, f)
        with open(f"{prefix}.bin", "wb") as f:
            for name in self._FIELDS:
                getattr(self, name).tofile(f)

    @classmethod
    def load(cls, prefix):
        with open(f"{prefix}.json") as f:
            header = json.load(f)
        spans = cls(**{key: header[key] for key in cls._HEADER})
        with open(f"{prefix}.bin", "rb") as f:
            for name in cls._FIELDS:
                getattr(spans, name).fromfile(f, header["spans"])
        return spans


class Tracer(Spans):
    """Records spans; the innermost open span is the parent of the next."""

    def __init__(self):
        super().__init__()
        self.keys = {}  # distinct call arguments, per span name
        self._stack = [-1]
        self._ids = {}

    def name_index(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid):
        i = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self.yielded.append(0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i, yielded=0):
        self.end[i] = perf_counter()
        self.yielded[i] = yielded
        self._stack.pop()


# -- wrapping ----------------------------------------------------------------


def _wrap(tracer, name, fn, hook=None):
    nid = tracer.name_index(name)
    open_, close = tracer.open, tracer.close

    if inspect.isgeneratorfunction(fn):
        if name not in tracer.generators:
            tracer.generators.append(name)

        def traced_gen(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                i = open_(nid)
                try:
                    item = next(it)
                except StopIteration:
                    close(i)
                    return
                except BaseException:
                    close(i)
                    raise
                close(i, 1)
                yield item

        return traced_gen

    def traced(*args, **kwargs):
        i = open_(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            close(i)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    return traced


def _count_mul(tracer, args, kwargs, result):
    a, b = args
    terms = getattr(result, "terms", None)
    if terms is None:  # NotImplemented
        return
    pairs = len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)
    c = tracer.counters
    c["polynomials.mul_term_pairs"] = c.get("polynomials.mul_term_pairs", 0) + pairs
    c["polynomials.peak_terms"] = max(c.get("polynomials.peak_terms", 0), len(terms))


def _note_distribution(tracer, args, kwargs, result):
    keys = tracer.keys.setdefault("generation.distribution", set())
    keys.add((args, tuple(sorted(kwargs.items()))))
    tracer.distinct["generation.distribution"] = len(keys)


def _noop():
    pass


def _noop_steps(n):
    for _ in range(n):
        yield


def span_costs(n=10_000, repeats=5):
    """The tracer's own cost per span, timed on empty functions.

    Returns ``{"call": [inside, outside], "gen": [inside, outside]}`` in
    seconds, for a wrapped call and for one ``next()`` of a wrapped
    generator.  ``inside`` is what a span's duration holds beyond the
    untraced call; ``outside`` is what its parent pays beyond the untraced
    call (the wrapper, and the bookkeeping around the span).  Each time is
    the fastest of ``repeats`` runs of ``n`` operations.  The cost of the
    counting hooks (``_count_mul``, ``_note_distribution``) is not included.
    """

    def empty(_):
        for _ in range(n):
            pass

    def calls(fn):
        for _ in range(n):
            fn()

    def steps(gen):
        for _ in gen(n):
            pass

    def timed(drive, fn):
        start = perf_counter()
        drive(fn)
        return perf_counter() - start

    loop = min(timed(empty, None) for _ in range(repeats))
    costs = {}
    for kind, drive, fn in (("call", calls, _noop), ("gen", steps, _noop_steps)):
        plain = min(timed(drive, fn) for _ in range(repeats))
        best = None
        for _ in range(repeats):
            tracer = Tracer()
            total = timed(drive, _wrap(tracer, "probe", fn))
            inside = sum(e - s for s, e in zip(tracer.start, tracer.end))
            if best is None or total < best[0]:
                best = (total, inside, len(tracer.name_id))
        total, inside, count = best
        costs[kind] = [
            max(0.0, (inside - (plain - loop)) / count),
            max(0.0, (total - inside - loop) / count),
        ]
    return costs


def _targets():
    """(owner, attribute, span name, hook) for every traced function."""
    from stirperm import bijections, cli, formulas, generation, series, trees, words
    from stirperm.polynomials import Polynomial

    targets = [(words, f, f"words.{f}", None) for f in ("contains", "stats", "format_word")]
    targets += [
        (generation, f, f"generation.{f}", _note_distribution if f == "distribution" else None)
        for f in ("generate_all", "generate_avoiders", "distribution",
                  "second_order_eulerian", "joint_plat_122")
    ]
    targets += [
        (Polynomial, "__mul__", "polynomials.mul", _count_mul),
        (Polynomial, "__add__", "polynomials.add", None),
    ]
    targets += [(series, f, f"series.{f}", None) for f in SERIES_SPANS]
    targets += [
        (series.TruncatedSeries, m, f"series.{name}", None)
        for m, name in (("__mul__", "mul"), ("inverse", "inverse"), ("compose", "compose"))
    ]
    targets += [
        (bijections, f, f"bijections.{f}", None)
        for f in ("verify_phi", "verify_psi", "verify_rho", "verify_fc")
    ]
    targets += [
        (trees, f, f"trees.{f}", None) for f in ("ternary_trees", "ordered_trees", "fc_trees")
    ]
    targets += [
        (formulas, f, f"formulas.{f}", None)
        for f, v in vars(formulas).items()
        if inspect.isfunction(v) and not f.startswith("_") and v.__module__ == formulas.__name__
    ]
    targets += [
        (cli, f, f"cli.{f}", None)
        for f in vars(cli)
        if f == "main" or f.startswith("cmd_")
    ]
    return targets


@contextmanager
def instrument(tracer):
    """Wrap every target and each alias of it; restore all on exit."""
    from stirperm import verification
    from stirperm.polynomials import Polynomial
    from stirperm.series import TruncatedSeries

    targets = _targets()
    namespaces = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "stirperm"]
    namespaces += [Polynomial, TruncatedSeries]
    undo = []
    try:
        for owner, attr, name, hook in targets:
            original = vars(owner)[attr]
            wrapper = _wrap(tracer, name, original, hook)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        undo.append((ns, key, original))
                        setattr(ns, key, wrapper)
        checks = verification.CHECKS
        for suite, ids in verification.SUITES.items():
            if suite == "all":
                continue
            for cid in ids:
                original = checks[cid]
                undo.append((checks, cid, original))
                checks[cid] = _wrap(tracer, f"verification.{suite}/{cid}", original)
        yield tracer
    finally:
        for ns, key, original in reversed(undo):
            if isinstance(ns, dict):
                ns[key] = original
            else:
                setattr(ns, key, original)


# -- analysis ----------------------------------------------------------------


def _span_costs_by_name(spans):
    """(inside, outside) tracer cost of one span of each name id."""
    call = spans.costs.get("call", (0.0, 0.0))
    gen = spans.costs.get("gen", (0.0, 0.0))
    return [gen if name in spans.generators else call for name in spans.names]


def self_times(spans):
    """Duration and self time of each span, less the tracer's own cost.

    Self time is the duration minus the durations of the span's direct
    children; children of one span never overlap, since one thread runs.
    With ``spans.costs`` recorded, a span's duration also loses its own
    inside cost and both costs of every span below it, and its self time
    loses its inside cost and its direct children's outside costs.  A
    span's children come after it in the arrays, so one backward sweep
    sees every span's subtree before the span itself.
    """
    costs = _span_costs_by_name(spans)
    dur = [e - s for s, e in zip(spans.start, spans.end)]
    own = dur[:]
    below = [0.0] * len(dur)  # tracer cost of the spans under each span
    for i in range(len(dur) - 1, -1, -1):
        inside, outside = costs[spans.name_id[i]]
        p = spans.parent[i]
        if p >= 0:
            own[p] -= dur[i] + outside
            below[p] += below[i] + inside + outside
        own[i] -= inside
        dur[i] -= inside + below[i]
    return dur, own


def tracer_cost(spans):
    """Seconds of the tracer's own cost that ``self_times`` takes out."""
    costs = _span_costs_by_name(spans)
    return sum(sum(costs[nid]) for nid in spans.name_id)


def edge_table(spans, scale=1.0):
    """Aggregate spans by (name, parent name): [calls, yields, duration, self].

    Times are multiplied by ``scale``, the job's speed factor (see run.py).
    """
    dur, own = self_times(spans)
    ids, parent, yielded = spans.name_id, spans.parent, spans.yielded
    table = {}
    for i in range(len(dur)):
        p = parent[i]
        key = (ids[i], ids[p] if p >= 0 else -1)
        row = table.get(key)
        if row is None:
            row = table[key] = [0, 0, 0.0, 0.0]
        row[0] += 1
        row[1] += yielded[i]
        row[2] += dur[i] * scale
        row[3] += own[i] * scale
    names = spans.names
    return {(names[a], names[b] if b >= 0 else None): row for (a, b), row in table.items()}


def merge_tables(tables):
    out = {}
    for table in tables:
        for key, row in table.items():
            acc = out.setdefault(key, [0, 0, 0.0, 0.0])
            for k, v in enumerate(row):
                acc[k] += v
    return out


def layer_metrics(table, counters, distinct):
    """Per-layer metrics from a merged edge table and summed counts.

    Times are inclusive unless named self_s: a span nested in a span of
    the same group (a formula calling a formula, a recursive generator)
    is not counted twice.
    """

    def rows(group):
        return [(p, row) for (n, p), row in table.items() if group(n)]

    def calls(group):
        return sum(row[0] for _, row in rows(group))

    def inclusive(group):
        return sum(row[2] for p, row in rows(group) if not (p and group(p)))

    def own(group):
        return sum(row[3] for _, row in rows(group))

    def named(*names):
        return lambda n: n in names

    def prefix(text):
        return lambda n: n.startswith(text)

    def yields(name, parent_is):
        return sum(row[1] for (n, p), row in table.items() if n == name and parent_is(p))

    gen_all, gen_avoid = "generation.generate_all", "generation.generate_avoiders"
    avoiders = yields(gen_avoid, lambda p: p != gen_avoid)
    candidates = yields(gen_all, lambda p: p == gen_avoid)
    dist_calls = calls(named("generation.distribution"))
    m = {
        "words.contains_calls": calls(named("words.contains")),
        "words.contains_s": inclusive(named("words.contains")),
        "words.stats_calls": calls(named("words.stats")),
        "words.stats_s": inclusive(named("words.stats")),
        "generation.words_generated": yields(gen_all, lambda p: p != gen_all),
        "generation.avoiders": avoiders,
        "generation.avoider_yield": avoiders / candidates if candidates else 0.0,
        "generation.self_s": own(prefix("generation.")),
        "generation.distribution_calls": dist_calls,
        "generation.distribution_repeat_ratio": (
            1 - distinct.get("generation.distribution", 0) / dist_calls if dist_calls else 0.0
        ),
        "polynomials.mul_calls": calls(named("polynomials.mul")),
        "polynomials.mul_s": inclusive(named("polynomials.mul")),
        "polynomials.mul_term_pairs": counters.get("polynomials.mul_term_pairs", 0),
        "polynomials.peak_terms": counters.get("polynomials.peak_terms", 0),
        "polynomials.add_s": inclusive(named("polynomials.add")),
    }
    for f in SERIES_SPANS:
        m[f"series.{f}_s"] = inclusive(named(f"series.{f}"))
    m["series.mul_calls"] = calls(named("series.mul"))
    for f in ("mul", "inverse", "compose"):
        m[f"series.{f}_s"] = inclusive(named(f"series.{f}"))
    for suite in SUITES:
        m[f"verification.{suite}_s"] = inclusive(prefix(f"verification.{suite}/"))
    m["verification.checks"] = calls(prefix("verification."))
    m["bijections.verify_s"] = inclusive(prefix("bijections.verify_"))
    m["trees.generate_s"] = inclusive(prefix("trees."))
    m["formulas.eval_s"] = inclusive(prefix("formulas."))
    m["cli.self_s"] = own(prefix("cli."))
    return m


def unit(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_yield", "_ratio")):
        return "ratio"
    return "count"


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: python -m benchmarks.tracing SPANS -- <stirperm arguments>", file=sys.stderr)
        return 2
    from stirperm import cli

    tracer = Tracer()
    with instrument(tracer):
        code = cli.main(argv[2:])
    sys.stdout.flush()
    start = perf_counter()
    tracer.costs = span_costs()
    tracer.calibration_s = perf_counter() - start
    tracer.dump(argv[0])
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
