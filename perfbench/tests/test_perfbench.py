"""Tests of the benchmark itself: generator, gate, tracer and runner."""

import json
import os
import shutil
import subprocess
import sys

PERF = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERF)
sys.path.insert(0, PERF)

import workloads  # noqa: E402
from tracer import Tracer, rebind  # noqa: E402


def _env():
    return dict(os.environ, PYTHONHASHSEED="0",
                PYTHONPATH=os.path.join(ROOT, "src"))


# -- query generator ------------------------------------------------------------


def test_generator_is_deterministic_per_seed():
    assert workloads.normalize_queries(7, 300) == \
        workloads.normalize_queries(7, 300)
    assert workloads.normalize_queries(7, 300) != \
        workloads.normalize_queries(8, 300)


def test_generator_mix_and_syntax():
    from glpq.dsl import parse
    queries = workloads.normalize_queries(3, 2000)
    share = {c: sum(1 for q, _ in queries if q == c) / len(queries)
             for c, _ in workloads.CONTEXT_MIX}
    for ctx, weight in workloads.CONTEXT_MIX:
        assert share[ctx] == weight
    brackets = sum(1 for _, text in queries if text.startswith("["))
    assert brackets == round(len(queries) * workloads.COMMUTATOR_SHARE)
    for ctx, text in queries[:300]:
        parse(text, ctx)


# -- correctness gate --------------------------------------------------------------


def _passing_checks(workload, expected):
    return [[s, cid, "pass", None] for s in workloads.suite_labels(workload)
            for cid in expected[s]]


def test_gate_accepts_complete_report():
    expected = workloads.load_expected_ids()
    for workload, n in (("exact", 624), ("series", 104)):
        checks = _passing_checks(workload, expected)
        assert workloads.gate_suites(workload, checks, expected) == (n, 0, [])


def test_gate_rejects_failing_check():
    expected = workloads.load_expected_ids()
    checks = _passing_checks("exact", expected)
    checks[5] = checks[5][:2] + ["fail", "a*d"]
    attempted, failed, problems = workloads.gate_suites("exact", checks,
                                                        expected)
    assert (attempted, failed) == (624, 1)
    assert problems == [f"section2:{checks[5][1]} fail"]


def test_gate_rejects_truncated_report():
    expected = workloads.load_expected_ids()
    checks = _passing_checks("series", expected)[:-7]
    attempted, failed, problems = workloads.gate_suites("series", checks,
                                                        expected)
    assert (attempted, failed) == (104, 7)
    assert all(p.endswith("missing") for p in problems)


def test_gate_rejects_duplicate_and_failing_extra():
    expected = workloads.load_expected_ids()
    checks = _passing_checks("series", expected)
    checks.append(list(checks[0]))
    checks.append(["series[1,1]", "new.check", "fail", "t"])
    attempted, failed, _ = workloads.gate_suites("series", checks, expected)
    assert (attempted, failed) == (105, 2)


def test_digest_covers_witness_not_order():
    rows = [["s", "b", "pass", None], ["s", "a", "fail", "x"]]
    assert workloads.suites_digest(rows) == \
        workloads.suites_digest(rows[::-1])
    changed = [rows[0], ["s", "a", "fail", "y"]]
    assert workloads.suites_digest(changed) != workloads.suites_digest(rows)


# -- tracer -----------------------------------------------------------------------


def test_tracer_self_time_and_recursion():
    tr = Tracer()

    def fib(n):
        return n if n < 2 else traced_fib(n - 1) + traced_fib(n - 2)

    traced_fib = tr.wrap("fib", fib)
    traced_outer = tr.wrap("outer", lambda: traced_fib(10))
    assert traced_outer() == 55
    calls, total, self_s = tr.stats["fib"]
    assert calls == 177
    assert 0 < total and abs(self_s - total) < 1e-6 + total * 1e-6
    o_calls, o_total, o_self = tr.stats["outer"]
    assert o_calls == 1 and o_self <= o_total - total + 1e-9


def test_hook_time_is_a_span_of_its_own():
    import time
    tr = Tracer()
    inner = tr.wrap("inner", lambda: None, lambda args: time.sleep(0.02))
    outer = tr.wrap("outer", lambda: inner())
    outer()
    h_calls, h_total, _ = tr.stats["trace.hooks"]
    assert h_calls == 1 and h_total >= 0.02
    assert tr.stats["inner"][1] < 0.01
    o_calls, o_total, o_self = tr.stats["outer"]
    assert o_total >= 0.02 and o_self < 0.01


def test_probe_ticks_and_rescales():
    import time
    from probe import REFERENCE_S, Probe, rescale
    probe = Probe()
    probe.start()
    try:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    finally:
        probe.stop()
    n, wall, cpu = probe.totals()
    assert n == len(probe.ticks) >= 3
    assert 0 < cpu and 0 < wall
    assert probe.spent(end) == sum(d for t, d, _ in probe.ticks if t < end)
    assert probe.spent(probe.ticks[0][0]) == 0
    assert rescale(2.0, cpu / n) == 2.0 * REFERENCE_S / (cpu / n)
    time.sleep(0.05)
    assert len(probe.ticks) == n


def test_rebind_reaches_default_arguments():
    from glpq import nc, supermatrix
    orig = nc.invert_even_unit
    marker = object()
    try:
        assert rebind("glpq", orig, marker) > 0
        assert supermatrix.sdet.__defaults__ == (marker,)
        assert nc.invert_even_unit is marker
    finally:
        rebind("glpq", marker, orig)
    assert supermatrix.sdet.__defaults__ == (orig,)


# -- worker and runner ----------------------------------------------------------------


def _traced_normalize():
    proc = subprocess.run(
        [sys.executable, os.path.join(PERF, "worker.py"), "--workload",
         "normalize", "--trace", "1", "--seed", "5"],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_two_traced_runs_give_identical_counts():
    a, b = _traced_normalize(), _traced_normalize()
    assert a["failed"] == [] and a["attempted"] == workloads.NORMALIZE_QUERIES
    assert a["digest"] == b["digest"]
    counts = [{k: v["calls"] for k, v in r["layers"]["layers"].items()}
              for r in (a, b)]
    assert counts[0] == counts[1]
    assert counts[0]["dsl.parse"] == workloads.NORMALIZE_QUERIES
    assert a["layers"]["counters"] == b["layers"]["counters"]


def test_runner_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(PERF, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
