"""Tests of the benchmark's own machinery, on tiny inputs."""

from __future__ import annotations

import random
import sys

from benchmarks import jobs, run, tracing
from stirperm import cli, generation, verification, words

TINY = 3  # order of the enumerate jobs in these tests


def _tiny_enum_jobs(reference):
    return jobs.workload("enum-oracle", reference=reference, order=TINY)


def test_tampered_or_truncated_output_raises_error_rate():
    env = run.child_env()
    reference = {}

    def record(name):
        def check(code, out):
            reference[name] = jobs.sha256(out)

        return check

    with run.Spawner() as spawner:
        run.run_pass(spawner, [jobs.Job(job.name, job.argv, record(job.name))
                               for job in _tiny_enum_jobs({})], env)
        job_list = _tiny_enum_jobs(reference)
        assert run.error_rate(run.run_pass(spawner, job_list, env)) == 0

        def piped(filter_cmd):
            script = f'"{sys.executable}" -m stirperm "$@" | {filter_cmd}'
            return lambda job: ["sh", "-c", script, "sh", *job.argv]

        for filter_cmd in ("head -c -7", "tr 12 21"):
            outcomes = run.run_pass(spawner, job_list, env, piped(filter_cmd))
            assert run.error_rate(outcomes) == 1, filter_cmd


def test_count_checks_catch_wrong_output_without_a_digest():
    rows = jobs.check_csv_rows(2, order=2)
    assert rows(0, b"word,des,asc,plat\n1122,0,1,2\n1221,1,1,1\n") is None
    assert rows(0, b"word,des,asc,plat\n1122,0,1,2\n") is not None
    assert rows(0, b"word,des,asc,plat\n1122,0,1,2\n1221,1,1,2\n") is not None

    counts = jobs.check_series_counts([1, 1])
    one = b'{"vars": ["p"], "terms": [{"exp": [0], "coef": "1"}]}'
    two = b'{"vars": ["p"], "terms": [{"exp": [0], "coef": "1"}, {"exp": [1], "coef": "1"}]}'
    assert counts(0, b"[" + one + b", " + one + b"]") is None
    assert counts(0, b"[" + one + b", " + two + b"]") is not None
    assert counts(0, b"[" + one + b"]") is not None

    good = "\n".join(f"PASS  {c}" for c in jobs.VERIFY_CHECK_IDS).encode()
    assert jobs.check_verify(0, good) is None
    assert jobs.check_verify(0, good.replace(b"PASS  pair-122", b"FAIL  pair-122")) is not None
    assert jobs.check_verify(0, good.replace(b"PASS  pair-122", b"SKIP  pair-122")) is not None


def test_self_time_on_hand_built_span_tree():
    spans = tracing.Spans(names=[
        "cli.main", "generation.generate_all", "words.contains", "formulas.binomial",
    ])
    tree = [  # (name id, parent, start, end, yielded)
        (0, -1, 0.0, 10.0, 0),
        (1, 0, 1.0, 4.0, 1),
        (1, 1, 2.0, 3.0, 1),  # a recursive generate_all inside the first
        (2, 0, 5.0, 9.0, 0),
        (3, 3, 6.0, 7.0, 0),
        (3, 4, 6.25, 6.75, 0),  # a formula calling a formula
    ]
    for nid, parent, start, end, yielded in tree:
        spans.name_id.append(nid)
        spans.parent.append(parent)
        spans.start.append(start)
        spans.end.append(end)
        spans.yielded.append(yielded)

    dur, own = tracing.self_times(spans)
    assert dur == [10.0, 3.0, 1.0, 4.0, 1.0, 0.5]
    assert own == [3.0, 2.0, 1.0, 3.0, 0.5, 0.5]

    m = tracing.layer_metrics(tracing.edge_table(spans), {}, {})
    assert m["cli.self_s"] == 3.0
    assert m["generation.self_s"] == 3.0
    assert m["generation.words_generated"] == 1
    assert m["words.contains_calls"] == 1
    assert m["words.contains_s"] == 4.0
    assert m["formulas.eval_s"] == 1.0


def test_tracer_cost_comes_out_of_durations_and_self_times():
    # cli.main -> generate_all step -> words.contains, and a second contains
    spans = tracing.Spans(
        names=["cli.main", "generation.generate_all", "words.contains"],
        generators=["generation.generate_all"],
        costs={"call": [0.1, 0.2], "gen": [0.01, 0.02]},
    )
    for nid, parent, start, end in ((0, -1, 0.0, 10.0), (1, 0, 1.0, 5.0),
                                    (2, 1, 2.0, 3.0), (2, 0, 6.0, 8.0)):
        spans.name_id.append(nid)
        spans.parent.append(parent)
        spans.start.append(start)
        spans.end.append(end)
        spans.yielded.append(nid == 1)

    dur, own = tracing.self_times(spans)
    expected_dur = [10.0 - 0.1 - (0.01 + 0.02) - (0.1 + 0.2) * 2, 4.0 - 0.01 - 0.3, 1.0 - 0.1,
                    2.0 - 0.1]
    expected_own = [10.0 - 4.0 - 2.0 - 0.1 - 0.02 - 0.2, 4.0 - 1.0 - 0.01 - 0.2, 0.9, 1.9]
    assert all(abs(a - b) < 1e-12 for a, b in zip(dur, expected_dur)), dur
    assert all(abs(a - b) < 1e-12 for a, b in zip(own, expected_own)), own
    # self times still add up to the root's corrected duration
    assert abs(sum(own) - dur[0]) < 1e-12
    assert abs(tracing.tracer_cost(spans) - (0.3 + 0.03 + 0.3 + 0.3)) < 1e-12

    costs = tracing.span_costs(n=1000, repeats=2)
    assert set(costs) == {"call", "gen"}
    assert all(0 <= c < 1e-3 for pair in costs.values() for c in pair)


def test_instrument_rebinds_from_import_copies_and_restores_them(capsys):
    before = (words.contains, words.stats, generation.avoids, generation.stats,
              cli.stats, cli.format_word, dict(verification.CHECKS))
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert cli.stats is generation.stats is words.stats is not before[1]
        assert verification.CHECKS["count-all"] is not before[-1]["count-all"]
        assert cli.main(["enumerate", "--n", str(TINY), "--stats", "--avoid", "213"]) == 0
        assert cli.main(["verify", "--suite", "counts", "--n", "1..2"]) == 0
    capsys.readouterr()
    after = (words.contains, words.stats, generation.avoids, generation.stats,
             cli.stats, cli.format_word, dict(verification.CHECKS))
    assert after == before

    m = tracing.layer_metrics(tracing.edge_table(tracer), tracer.counters, tracer.distinct)
    assert m["words.contains_calls"] > 0
    assert m["words.stats_calls"] > 0
    assert m["verification.checks"] == 3
    assert m["verification.counts_s"] > 0
    assert m["cli.self_s"] > 0


def test_traced_run_counts_containment_on_a_tiny_enum_oracle():
    with run.Spawner() as spawner:
        metrics, outcomes, pairs = run.traced_run(
            spawner, _tiny_enum_jobs({}), random.Random(1), run.child_env(), pairs=2
        )
    assert pairs == 2
    assert run.error_rate(outcomes) == 0
    values = {name: value for name, (value, unit) in metrics.items()}
    assert values["words.contains_calls"] > 0
    assert values["generation.avoiders"] == sum(
        1 for pat in ((2, 1, 3), (1, 2, 3), (1, 3, 2), (1, 2, 3, 3), None)
        for w in generation.generate_all(TINY)
        if pat is None or not words.contains(w, pat)
    )
    assert values["polynomials.mul_calls"] == 0
    assert values["trace.span_cost_s"] > 0
