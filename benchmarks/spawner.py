"""Starts benchmark jobs from a small process and reports their resource use.

A child's max RSS as the kernel reports it includes the memory image it was
forked from, so jobs started by the harness itself would inherit the
harness's peak.  ``run.py`` therefore starts this script once, with
``python -S`` and few imports, and sends it one JSON request per line:

    {"argv": [...], "env": {...}, "stdout": PATH, "stderr": PATH, "timeout": S}

It runs the job to its end and answers with one JSON line:

    {"code": EXIT_CODE or ERROR_TEXT, "wall_s": S, "maxrss_kb": KB, "timed_out": BOOL,
     "cal_before_s": S, "cal_after_s": S}

It exits when its standard input closes.

The speed of a shared machine drifts by tens of percent within minutes.
So the spawner pins itself, and thereby every job, to one CPU, and times a
fixed piece of pure-Python work (``calibrate``) after each job; a reply
carries the calibration timed just before the job and the one just after.
``run.py`` scales each job's wall time by ``CAL_REF_S`` over their mean.
"""

import json
import os
import signal
import sys
import time


def _words(n):
    if n == 0:
        yield ()
        return
    for prev in _words(n - 1):
        for gap in range(len(prev) + 1):
            yield prev[:gap] + (n, n) + prev[gap:]


def _poly_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


def calibrate():
    """Seconds for a fixed mix of the jobs' kinds of work: generators and
    tuple slicing as in enumeration, dict-keyed products as in series."""
    start = time.perf_counter()
    for _ in range(4):
        ascents = 0
        for w in _words(6):
            ascents += sum(1 for a, b in zip(w, w[1:]) if a < b)
        p = {(i, j, 9 - i - j): i + j + 1 for i in range(10) for j in range(10 - i)}
        q = _poly_mul(_poly_mul(p, p), p)
    if ascents != 34650 or len(q) != 406:
        raise RuntimeError("calibration computed a wrong result")
    return time.perf_counter() - start


def run(request):
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    out = os.open(request["stdout"], flags, 0o600)
    err = os.open(request["stderr"], flags, 0o600)
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_DUP2, out, 1),
        (os.POSIX_SPAWN_DUP2, err, 2),
    ]
    timed_out = []

    def on_alarm(signum, frame):
        timed_out.append(True)
        os.kill(pid, signal.SIGKILL)

    try:
        start = time.perf_counter()
        try:
            pid = os.posix_spawnp(request["argv"][0], request["argv"], request["env"],
                                  file_actions=actions)
        except OSError as exc:
            return {"code": f"cannot start: {exc}", "wall_s": 0.0, "maxrss_kb": 0,
                    "timed_out": False}
        signal.signal(signal.SIGALRM, on_alarm)
        signal.alarm(request["timeout"])
        _, status, usage = os.wait4(pid, 0)
        signal.alarm(0)
        wall = time.perf_counter() - start
    finally:
        os.close(out)
        os.close(err)
    return {
        "code": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "maxrss_kb": usage.ru_maxrss,
        "timed_out": bool(timed_out),
    }


def main():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    last = calibrate()
    for line in sys.stdin:
        reply = run(json.loads(line))
        reply["cal_before_s"] = last
        reply["cal_after_s"] = last = calibrate()
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
