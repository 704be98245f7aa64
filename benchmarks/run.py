"""Benchmark of the stirperm command line, run from the root of a checkout.

    python3 benchmarks/run.py --workload enum-oracle --seed 1 --seconds 35 --trace 0

Every job is a fresh ``python -m stirperm ...`` process, started by
``spawner.py`` one at a time against the checkout's ``src`` directory, and
every job's output is checked (see ``jobs.py``).  The seed only shuffles
the job order.

``--trace 0`` measures the end-to-end metrics:

* ``setup_s``: median time of a no-work invocation (``formula --list``):
  interpreter start, ``import stirperm`` and argument parsing;
* ``run_s``: median, over the passes that fit in ``--seconds``, of the
  time to run the workload's whole job list once;
* ``peak_rss_mb``: the largest max-RSS of any job process.

Times are wall times scaled to a reference machine speed, which a fixed
calibration timed between jobs measures (see ``spawner.py``).

``--trace 1`` runs the job list untraced and under ``benchmarks.tracing``
in turn, ``TRACE_PAIRS`` times, and reports the median over the traced
passes of each per-layer metric.  ``trace.overhead_s`` is the median over
the pairs of the traced pass's time minus the untraced one's, and
``trace.span_cost_s`` the tracer's own cost that the span times leave out
(see ``tracing.self_times``).  Span times are scaled by their job's speed
factor like every other time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable summary.  ``failed / attempted`` is the error rate: a job
fails on a nonzero exit, a timeout or a failed output check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "benchmarks" / "out"
sys.path.insert(0, str(ROOT))

from benchmarks import jobs, tracing  # noqa: E402

SETUP_ARGV = ("formula", "--list", "--id", "count-213", "--n", "1")
SETUP_REPEATS = 15
JOB_TIMEOUT_S = 150
TRACE_PAIRS = 3
# No traced pair starts that would end after this, so a run ends in 180 s.
TRACE_DEADLINE_S = 150
# What spawner.calibrate takes on a quiet 2-vCPU Xeon with Python 3.11.7.
# A job's time is reported at this speed: wall * CAL_REF_S / calibration.
CAL_REF_S = 0.15


@dataclass
class Outcome:
    job: str
    wall_s: float  # as measured
    time_s: float  # at the reference speed
    maxrss_mb: float
    error: str | None  # None when the job exited 0 and its output passed the check


def child_env(*extra_path):
    """Environment of every child: the checkout's src only, no STIRPERM_JOBS."""
    env = dict(os.environ)
    env.pop("STIRPERM_JOBS", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *map(str, extra_path)])
    return env


class Spawner:
    """The small process that starts every job (see spawner.py)."""

    def __init__(self):
        OUT.mkdir(parents=True, exist_ok=True)
        self._out = OUT / f"job-{os.getpid()}.stdout"
        self._err = OUT / f"job-{os.getpid()}.stderr"
        self._proc = subprocess.Popen(
            [sys.executable, "-S", str(ROOT / "benchmarks" / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, text=True,
            start_new_session=True,
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=JOB_TIMEOUT_S + 10)
        finally:
            if self._proc.returncode is None:
                os.killpg(self._proc.pid, signal.SIGKILL)
                self._proc.wait()
            self._out.unlink(missing_ok=True)
            self._err.unlink(missing_ok=True)

    def run(self, job, argv, env, timeout=JOB_TIMEOUT_S):
        """Run ``argv`` to its end and check its output with ``job.check``."""
        request = {"argv": argv, "env": env, "stdout": str(self._out),
                   "stderr": str(self._err), "timeout": timeout}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("job spawner exited")
        reply = json.loads(line)
        code = reply["code"]
        if reply["timed_out"]:
            error = f"timed out after {timeout} s"
        else:
            error = job.check(code, self._out.read_bytes()) if isinstance(code, int) else code
        stderr = self._err.read_bytes()
        if error and stderr:
            error += " | stderr: " + stderr.decode("utf-8", "replace").strip()[-400:]
        speed = CAL_REF_S * 2 / (reply["cal_before_s"] + reply["cal_after_s"])
        return Outcome(job.name, reply["wall_s"], reply["wall_s"] * speed,
                       reply["maxrss_kb"] / 1024, error)


def error_rate(outcomes):
    return sum(1 for o in outcomes if o.error) / len(outcomes)


def stirperm_argv(job):
    return [sys.executable, "-m", "stirperm", *job.argv]


def run_pass(spawner, job_list, env, argv_of=stirperm_argv):
    return [spawner.run(job, argv_of(job), env) for job in job_list]


def measure_setup(spawner, env):
    """One warm-up (it may compile bytecode), then SETUP_REPEATS timed calls."""
    job = jobs.Job(
        "setup", SETUP_ARGV,
        lambda code, out: None if code == 0 and b"count-213:" in out else f"exit {code}",
    )
    outcomes = run_pass(spawner, [job] * (SETUP_REPEATS + 1), env)
    return statistics.median(o.time_s for o in outcomes[1:]), outcomes


def timed_run(spawner, job_list, rng, seconds, env):
    setup_s, setup_outcomes = measure_setup(spawner, env)
    passes, walls, outcomes = [], [], []
    begin = time.perf_counter()
    while True:
        order = job_list[:]
        rng.shuffle(order)
        done = run_pass(spawner, order, env)
        outcomes += done
        passes.append(sum(o.time_s for o in done))
        walls.append(sum(o.wall_s for o in done))
        if time.perf_counter() - begin + statistics.median(walls) > seconds:
            break
    metrics = {
        "setup_s": (setup_s, "s"),
        "run_s": (statistics.median(passes), "s"),
        "peak_rss_mb": (max(o.maxrss_mb for o in outcomes), "MB"),
    }
    return metrics, setup_outcomes + outcomes, len(passes)


def traced_pass(spawner, order, prefix):
    """Run the jobs once under the tracer: their outcomes, their per-layer
    metrics, and the time the tracer's calibration took (not job work)."""

    def traced_argv(job):
        return [sys.executable, "-m", "benchmarks.tracing", str(prefix[job.name]), "--", *job.argv]

    traced = run_pass(spawner, order, child_env(ROOT), traced_argv)
    tables, counters, distinct = [], {}, {}
    span_cost = calibration = 0.0
    for job, outcome in zip(order, traced):
        outcome.job += " (traced)"
        if outcome.error:
            continue
        spans = tracing.Spans.load(prefix[job.name])
        scale = outcome.time_s / outcome.wall_s
        tables.append(tracing.edge_table(spans, scale))
        span_cost += tracing.tracer_cost(spans) * scale
        calibration += spans.calibration_s * scale
        for key, value in spans.counters.items():
            merge = max if key.endswith("peak_terms") else (lambda a, b: a + b)
            counters[key] = merge(counters.get(key, 0), value)
        for key, value in spans.distinct.items():
            distinct[key] = distinct.get(key, 0) + value
    layer = tracing.layer_metrics(tracing.merge_tables(tables), counters, distinct)
    layer["trace.span_cost_s"] = span_cost
    return traced, layer, calibration


def traced_run(spawner, job_list, rng, env, pairs=TRACE_PAIRS):
    spans_dir = OUT / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    prefix = {job.name: spans_dir / job.name for job in job_list}
    outcomes, layers, overheads = [], [], []
    begin = time.perf_counter()
    while len(layers) < pairs:
        pair_start = time.perf_counter()
        order = job_list[:]
        rng.shuffle(order)
        untraced = run_pass(spawner, order, env)
        traced, layer, calibration = traced_pass(spawner, order, prefix)
        outcomes += untraced + traced
        layers.append(layer)
        overheads.append(sum(o.time_s for o in traced) - calibration
                         - sum(o.time_s for o in untraced))
        now = time.perf_counter()
        if now - begin + (now - pair_start) > TRACE_DEADLINE_S:
            break
    metrics = {name: (statistics.median(m[name] for m in layers), tracing.unit(name))
               for name in layers[0]}
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    return metrics, outcomes, len(layers)


def environment():
    """Python version, CPUs, CPU model and the code under test."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="shuffles the job order")
    parser.add_argument("--seconds", type=float, default=jobs.BENCHMARK["run_seconds"],
                        help="measuring time of --trace 0; default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stirperm" / "__init__.py").is_file():
        print(f"error: no stirperm package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    job_list = jobs.workload(args.workload)
    rng = random.Random(args.seed)
    env = child_env()
    with Spawner() as spawner:
        if args.trace:
            metrics, outcomes, passes = traced_run(spawner, job_list, rng, env)
        else:
            metrics, outcomes, passes = timed_run(spawner, job_list, rng, args.seconds, env)

    failed = [o for o in outcomes if o.error]
    print("# env " + json.dumps(environment()))
    for name in [job.name for job in job_list]:
        times = [o.time_s for o in outcomes if o.job == name]
        walls = [o.wall_s for o in outcomes if o.job == name]
        print(f"# job {name}: median {statistics.median(times):.4f} s at reference speed, "
              f"{statistics.median(walls):.4f} s wall, over {len(walls)} runs")
    for o in failed:
        print(f"# FAILED {o.job}: {o.error}")
    print(f"# {args.workload} seed {args.seed}, {passes} pass(es)")
    for name, (value, unit) in metrics.items():
        print(f"#   {name} = {value} {unit}")
    print(f"#   error_rate = {error_rate(outcomes)} ({len(failed)}/{len(outcomes)} jobs)")
    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
