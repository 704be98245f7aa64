"""Run the benchmark over several seeds and summarize each metric.

    python3 benchmarks/summarize.py --runs 10 [--workload W ...] [--trace 1] [--out FILE]

For each workload it runs ``benchmarks/run.py`` once per seed (1..runs),
one run at a time, and prints every metric's median, first and third
quartile (``statistics.quantiles(values, n=4)``), the sample count and the
spread (q3 - q1) / median, and the error rate: failed jobs over attempted
jobs, summed over the runs.  ``--out`` writes the same summary as JSON,
with the environment the first run reported.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from benchmarks.jobs import BENCHMARK, WORKLOADS  # noqa: E402


def run_once(workload, seed, trace):
    argv = [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    env = next((json.loads(line[6:]) for line in lines if line.startswith("# env ")), None)
    return json.loads(lines[-1]), env


def summarize(values):
    if len(values) < 2:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
    return {
        "median": med, "q1": q1, "q3": q3, "n": len(values),
        "spread": (q3 - q1) / med if med else None,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    report = {"seconds": BENCHMARK["run_seconds"], "trace": args.trace, "env": None,
              "workloads": {}}
    for workload in args.workload or WORKLOADS:
        results = []
        for seed in range(1, args.runs + 1):
            result, env = run_once(workload, seed, args.trace)
            report["env"] = report["env"] or env
            results.append(result)
            shown = "" if args.trace else ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"  {workload} seed {seed}: correct={result['correct']} {shown}", flush=True)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        summary = {
            "error_rate": {"value": failed / attempted, "failed": failed, "attempted": attempted},
            "metrics": {},
        }
        print(f"{workload}: error_rate = {failed / attempted} ({failed}/{attempted} jobs)")
        for name, first in results[0]["metrics"].items():
            stats = summarize([r["metrics"][name]["value"] for r in results])
            stats["unit"] = first["unit"]
            summary["metrics"][name] = stats
            spread = "n/a" if stats["spread"] is None else f"{stats['spread']:.2%}"
            print(f"  {name:40} median {stats['median']:.6g} {stats['unit']}"
                  f"  q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  n {stats['n']}  spread {spread}")
        report["workloads"][workload] = summary
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
