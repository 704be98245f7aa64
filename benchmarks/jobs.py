"""Workloads of the stirperm benchmark and the oracle that checks each job.

A job is one `python -m stirperm ...` invocation.  Every job has a check
that reads the job's exit code and standard output and returns an error
message, or None when the output is right:

* enumerate and series jobs must reproduce the reference SHA-256 of their
  standard output byte for byte (``reference.json``), and must also pass a
  count check against the closed forms in ``stirperm.formulas``;
* the verify job must exit 0, print no FAIL line and report every one of
  the 29 check ids as PASS.  Its text is not pinned, so the check registry
  may change how it words its report.

The closed forms are imported from the checkout under test, which must
therefore be importable (its ``src`` directory on ``sys.path``) before
``workload`` is called.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE_FILE = Path(__file__).with_name("reference.json")

VERIFY_CHECK_IDS = (
    "count-all", "count-avoiders", "eulerian-rows",
    "symmetry-213", "stats-213", "symmetry-123",
    "plateaus-213", "plateaus-123", "plateaus-132-vs-123",
    "marginals-123", "marginals-213",
    "descents-132", "ascents-132",
    "series-oracles", "series-recurrences", "series-initials", "series-specializations",
    "pair-122", "pair-rationals", "catalan-chains",
    "fibonacci-pair",
    "joint-plat-122",
    "bijection-phi", "bijection-psi-123", "bijection-psi-132", "bijection-rho",
    "bijection-fc", "involution-swap", "phi-pullback",
)

# BENCHMARK.json at the root of the checkout names the workloads, says why
# each is there and sets the length of a run.
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    check: Callable[[int, bytes], str | None]


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def load_reference():
    return json.loads(REFERENCE_FILE.read_text())["sha256"]


# -- output checks -----------------------------------------------------------


def _exit_ok(code):
    return None if code == 0 else f"exit code {code}"


def check_digest(want):
    def check(code, out):
        got = sha256(out)
        return None if got == want else f"stdout sha256 {got[:12]} != reference {want[:12]}"

    return check


def check_csv_rows(rows, order):
    """enumerate --stats output: header, then `rows` words whose stats sum to 2n-1."""

    def check(code, out):
        lines = out.decode("ascii", "replace").splitlines()
        if not lines or lines[0] != "word,des,asc,plat":
            return "missing csv header"
        if len(lines) - 1 != rows:
            return f"{len(lines) - 1} rows, expected {rows}"
        for line in lines[1:]:
            word, *counts = line.split(",")
            if len(word) != 2 * order or sum(map(int, counts)) != 2 * order - 1:
                return f"bad row {line!r}"
        return None

    return check


def check_series_counts(counts):
    """series --format json: coefficient k at all variables = 1 is counts[k]."""

    def check(code, out):
        try:
            coeffs = json.loads(out)
            got = [sum(int(t["coef"]) for t in c["terms"]) for c in coeffs]
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable series output: {exc}"
        if got != counts:
            return f"coefficients at 1 are {got}, expected {counts}"
        return None

    return check


def check_verify(code, out):
    text = out.decode("utf-8", "replace")
    passed = set()
    for line in text.splitlines():
        fields = line.split()
        if fields and fields[0] == "FAIL":
            return f"verify reported {line.strip()!r}"
        if len(fields) >= 2 and fields[0] == "PASS":
            passed.add(fields[1])
    missing = [c for c in VERIFY_CHECK_IDS if c not in passed]
    return f"checks not passed: {', '.join(missing)}" if missing else None


def all_of(*checks):
    def check(code, out):
        for c in checks:
            error = c(code, out)
            if error:
                return error
        return None

    return check


# -- workloads ---------------------------------------------------------------


def workload(name, reference=None, order=7):
    """The job list of a workload, in its canonical order.

    ``reference`` maps job names to the SHA-256 their output must have;
    a job missing from it gets only its count check.  ``order`` shrinks
    the enumerate jobs, for tests, which then pass their own reference.
    """
    from stirperm import formulas, generation

    if reference is None:
        reference = load_reference()

    def job(name, argv, *checks):
        digest = reference.get(name)
        if digest is not None:
            checks = (check_digest(digest),) + checks
        return Job(name, tuple(argv), all_of(lambda code, out: _exit_ok(code), *checks))

    if name == "enum-oracle":
        n = str(order)
        c213, c123 = formulas.count_avoid_213(order), formulas.count_avoid_123(order)
        total = generation.double_factorial_odd(order)
        # 1233-avoiders are exactly the 123-avoiders on Stirling permutations
        cases = (("213", c213), ("123", c123), ("132", c123), ("1233", c123), (None, total))
        return [
            job(
                f"enum-{pat or 'all'}",
                ["enumerate", "--n", n, "--stats"] + (["--avoid", pat] if pat else []),
                check_csv_rows(rows, order),
            )
            for pat, rows in cases
        ]
    if name == "series-solve":
        counts = {
            "213": formulas.count_avoid_213,
            "123": formulas.count_avoid_123,
            "132": formulas.count_avoid_132,
        }
        jobs = [
            job(
                f"series-{eq}",
                ["series", "--eq", eq, "--order", "14", "--format", "json"],
                check_series_counts([counts[eq](k) for k in range(15)]),
            )
            for eq in ("213", "123", "132")
        ]
        jobs.append(job(
            "series-R",
            ["series", "--eq", "R", "--order", "12", "--format", "json"],
            check_series_counts([formulas.count_avoid_213(k) for k in range(13)]),
        ))
        jobs.append(job(
            "series-prepend11",
            ["series", "--eq", "prepend11:11,11,11,11", "--order", "12", "--format", "json"],
        ))
        jobs.append(job(
            "series-prepend1",
            ["series", "--eq", "prepend1:1,1,1,1,11", "--order", "14", "--format", "json"],
        ))
        return jobs
    if name == "verify-all":
        return [job("verify-1..6", ["verify", "--n", "1..6"], check_verify)]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
