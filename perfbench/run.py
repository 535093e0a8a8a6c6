"""glpq benchmark: cold verification suites and a warm normalize stream.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 30 --trace 0

Run from the root of a glpq source tree.  Every sample is a fresh
interpreter (``perfbench/worker.py``) started one at a time, importing
the package from ``src/``; the parent times each sample from its spawn.

``--trace 0`` measures the named workload for about ``--seconds`` and
prints the end-to-end metrics.  Their times are normalized, not raw
seconds: they are rescaled to a fixed reference speed by the probe in
``probe.py``, because the shared host's speed drifts.  The raw seconds are
kept in the record.  ``--trace 1`` runs one traced sample of every
workload, plus one untraced sample of the named workload for the
tracing overhead, and prints the per-layer metrics in raw seconds.  The
last stdout line is the JSON result; earlier lines are a readable
summary, and the full record (samples, digests, layer spans) is written
to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads
from probe import rescale

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = ".perfbench-out"
SETUP_PROBES = 40
SAMPLE_TIMEOUT_S = 120
clock = time.perf_counter

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "ops_per_s": "1/s", "pass_ratio": "ratio"}

# per workload: layers reported as .calls/.s/.self_s, and layers whose
# call count alone shows that the workload bypasses them
TRACE_LAYERS = {
    "exact": ("poly.gcd", "poly.mul", "poly.divexact", "coeff.ratfunc.new",
              "nc.word_product", "nc.element_mul", "nc.invert_even_unit",
              "supermatrix.mul", "supermatrix.sinverse"),
    "series": ("coeff.laurent.mul", "coeff.laurent.add",
               "series.truncelement_mul", "series.trim", "nc.word_product",
               "nc.element_mul", "supermatrix.mul"),
    "normalize": ("dsl.parse", "dsl.eval", "printing.print_element",
                  "nc.word_product", "nc.element_mul", "nc.invert_even_unit",
                  "poly.gcd", "coeff.laurent.mul"),
}
BYPASSED = {"exact": ("coeff.laurent.mul",),
            "series": ("poly.gcd", "coeff.ratfunc.new"),
            "normalize": ()}


def source_digest(src):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def spawn(workload, mode, seed, trace, env):
    """Run one worker to completion; returns (spawn time, result or None,
    error text)."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--mode", mode,
           "--seed", str(seed), "--trace", str(trace)]
    t_spawn = clock()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, text=True)
    try:
        out, err = proc.communicate(timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return t_spawn, None, "timed out"
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return t_spawn, None, f"exit {proc.returncode}: {err.strip()[-500:]}"
    try:
        return t_spawn, json.loads(lines[-1]), ""
    except json.JSONDecodeError as exc:
        return t_spawn, None, f"bad result line: {exc}"


def judge(workload, res, expected):
    """(attempted, failed, problems, digest) of one sample's result."""
    if workload == "normalize":
        fails = res["failed"]
        return (res["attempted"], len(fails),
                [f"{c}: {q!r} -> {a!r}" for c, q, a in fails], res["digest"])
    attempted, failed, problems = workloads.gate_suites(
        workload, res["checks"], expected)
    return attempted, failed, problems, workloads.suites_digest(res["checks"])


def lost_sample(workload, expected):
    """Attempted count charged to a sample whose process gave no result."""
    if workload == "normalize":
        return workloads.NORMALIZE_QUERIES
    return sum(len(expected[s]) for s in workloads.suite_labels(workload))


class Collector:
    """Samples of one run: gate outcome, digests and raw timings."""

    def __init__(self, expected):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = set()
        self.samples = []

    def add(self, workload, t_spawn, res, err):
        if res is None:
            n = lost_sample(workload, self.expected)
            self.attempted += n
            self.failed += n
            self.problems.append(f"{workload} sample lost: {err}")
            return None
        att, fail, problems, dig = judge(workload, res, self.expected)
        self.attempted += att
        self.failed += fail
        self.problems += problems[:10]
        self.digests.add((workload, dig))
        res["t_spawn"] = t_spawn
        return res


def measure(args, env, expected):
    col = Collector(expected)
    setups = []
    for _ in range(SETUP_PROBES):
        t_spawn, res, err = spawn(args.workload, "setup", args.seed, 0, env)
        if res is None:
            col.add(args.workload, t_spawn, None, err)
            break
        setups.append(res)
    t0 = clock()
    durations = []
    while not col.failed:
        t_spawn, res, err = spawn(args.workload, "run", args.seed, 0, env)
        res = col.add(args.workload, t_spawn, res, err)
        durations.append(clock() - t_spawn)
        if res is None:
            break
        col.samples.append(res)
        # start another sample only if it is expected to end at most half
        # a sample past the deadline
        if clock() - t0 + statistics.median(durations) / 2 > args.seconds:
            break

    samples = col.samples
    metrics = {}
    record = {"samples": len(samples)}
    if samples:
        # The host's speed moves within seconds, so every process is
        # rescaled by its own probe ticks, all taken the same way,
        # interleaved with the program (see probe.py).  A set-up-only
        # process that ended before its first tick takes the mean tick
        # of all processes of the run.
        procs = setups + samples
        mean_tick = (sum(p["probe_cpu_s"] for p in procs)
                     / sum(p["probe_n"] for p in procs))

        def speed(p):
            if not p["probe_n"]:
                return mean_tick
            return p["probe_cpu_s"] / p["probe_n"]

        setup_raw = [setup_time(p) for p in setups]
        wall_raw = [wall_time(s) for s in samples]
        answer_raw = [answer_time(s) for s in samples]
        metrics = {
            "wall_s": statistics.median(
                rescale(t, speed(s)) for s, t in zip(samples, wall_raw)),
            "setup_s": statistics.median(
                rescale(t, speed(p)) for p, t in zip(setups, setup_raw)),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
            "ops_per_s": statistics.median(
                len(s["op_s"]) / rescale(t, speed(s))
                for s, t in zip(samples, answer_raw)),
            "pass_ratio": (col.attempted - col.failed) / col.attempted,
        }
        ops = [x for s in samples for x in s["op_s"]]
        record.update(
            probe_cpu_mean_s=[speed(s) for s in samples],
            probe_wall_mean_s=[s["probe_wall_s"] / s["probe_n"]
                               for s in samples],
            probe_setup_cpu_mean_s=[speed(p) for p in setups],
            raw={"wall_s": wall_raw, "setup_s": setup_raw,
                 "answer_s": answer_raw},
            ops=len(ops), op_ms=op_percentiles(ops),
            suite_times=[s.get("suite_times") for s in samples])
    return col, {k: {"value": v, "unit": E2E_UNITS[k]}
                 for k, v in metrics.items()}, record


# Raw times leave out the probe's own runs; measure() rescales them to
# the probe's reference speed.


def setup_time(res):
    """Import plus context construction: from the worker's first line,
    so the interpreter's own start-up is left out, to contexts built."""
    return res["t_setup"] - res["t_start"] - res["probe_setup_s"]


def wall_time(res):
    """Spawn to verdict or last answer."""
    return res["t_done"] - res["t_spawn"] - res["probe_s"]


def answer_time(res):
    """Contexts built to verdict or last answer."""
    return (res["t_done"] - res["t_setup"]
            - (res["probe_s"] - res["probe_setup_s"]))


def op_percentiles(ops):
    """p50 and p99 of per-operation latencies, in ms."""
    if len(ops) < 2:
        return {}
    q = statistics.quantiles(ops, n=100)
    return {"p50": q[49] * 1e3, "p99": q[98] * 1e3}


def layer_metrics(ns, layers):
    stats, counters = layers["layers"], layers["counters"]
    hit, miss = stats["nc.word_product.hit"], stats["nc.word_product.miss"]
    stats["nc.word_product"] = {k: hit[k] + miss[k]
                                for k in ("calls", "s", "self_s")}
    out = {}

    def put(name, value, unit):
        out[f"{ns}.{name}"] = {"value": value, "unit": unit}

    for layer in TRACE_LAYERS[ns]:
        st = stats[layer]
        put(f"{layer}.calls", st["calls"], "count")
        put(f"{layer}.s", st["s"], "s")
        put(f"{layer}.self_s", st["self_s"], "s")
    for layer in BYPASSED[ns]:
        put(f"{layer}.calls", stats[layer]["calls"], "count")
    wp_calls = hit["calls"] + miss["calls"]
    put("nc.word_product.hit_ratio", hit["calls"] / wp_calls, "ratio")
    put("nc.word_product.miss_us", miss["s"] / miss["calls"] * 1e6, "us")
    put("nc.word_product.hit_us", hit["s"] / max(hit["calls"], 1) * 1e6, "us")
    put("nc.element_mul.pairs", counters.get("nc.element_mul.pairs", 0),
        "count")
    put("trace.hooks.s", stats["trace.hooks"]["s"], "s")
    if ns == "exact":
        put("poly.gcd.useful_ratio", counters.get("poly.gcd.non_unit", 0)
            / stats["poly.gcd"]["calls"], "ratio")
    if ns == "series":
        put("series.trim.kept_ratio", counters["series.trim.terms_kept"]
            / counters["series.trim.terms_in"], "ratio")
        put("series.mul.pairs_in_window_ratio",
            counters["series.mul.pairs_in_window"]
            / counters["series.mul.pairs"], "ratio")
    for label in workloads.suite_labels(ns):
        tag = label.replace("[", "_").replace(",", "_").rstrip("]")
        put(f"report.{tag}.build_s", stats[f"report.{label}.build"]["s"], "s")
        put(f"report.{tag}.compare_s", stats[f"report.{label}.compare"]["s"],
            "s")
    return out


def trace(args, env, expected):
    """One traced sample per workload, named workload first, and one
    untraced sample of the named workload for the tracing overhead."""
    col = Collector(expected)
    metrics, record = {}, {}
    order = [args.workload] + [w for w in workloads.WORKLOADS
                               if w != args.workload]
    walls = {}
    for ns in order:
        t_spawn, res, err = spawn(ns, "run", args.seed, 1, env)
        res = col.add(ns, t_spawn, res, err)
        if res is None:
            return col, {}, record
        walls[ns] = res["t_done"] - t_spawn
        metrics.update(layer_metrics(ns, res["layers"]))
        metrics[f"{ns}.traced_wall_s"] = {"value": walls[ns], "unit": "s"}
        if ns == "normalize":
            for name, v in op_percentiles(res["op_s"]).items():
                metrics[f"normalize.query_{name}_ms"] = {"value": v,
                                                         "unit": "ms"}
        record[ns] = res["layers"]
        if ns == args.workload:
            t_spawn, res, err = spawn(ns, "run", args.seed, 0, env)
            res = col.add(ns, t_spawn, res, err)
            if res is None:
                return col, {}, record
            untraced = res["t_done"] - t_spawn - res["probe_s"]
            metrics["trace_overhead_s"] = {"value": walls[ns] - untraced,
                                           "unit": "s"}
    return col, metrics, record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "glpq", "__init__.py")):
        print(f"error: no glpq sources under {src}", file=sys.stderr)
        return 2
    # the build: byte-compile once so no sample pays for it
    if not compileall.compile_dir(src, quiet=2):
        print("error: src/ does not compile", file=sys.stderr)
        return 2
    # a fixed hash seed keeps set iteration, and so the traced counts,
    # the same from run to run
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=src)
    expected = workloads.load_expected_ids()
    env_info = {"nproc": os.cpu_count(), "python": platform.python_version(),
                "source_sha256": source_digest(src)}

    run = trace if args.trace else measure
    col, metrics, record = run(args, env, expected)
    correct = col.failed == 0 and bool(metrics)

    print(f"env nproc={env_info['nproc']} python={env_info['python']} "
          f"source={env_info['source_sha256'][:16]}")
    print(f"gate {args.workload} trace={args.trace}: "
          f"fail_ratio={col.failed}/{col.attempted}")
    for problem in col.problems[:20]:
        print(f"  FAIL {problem}")
    for ns, dig in sorted(col.digests):
        print(f"digest {ns} {dig}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if record.get("op_ms"):
        print(f"op latency over {record['ops']} ops in {record['samples']} "
              f"samples: " + " ".join(f"{k}={v:.4g} ms"
                                      for k, v in record["op_ms"].items()))

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "env": env_info, "correct": correct,
                   "attempted": col.attempted, "failed": col.failed,
                   "problems": col.problems, "digests": sorted(col.digests),
                   "metrics": metrics, "record": record}, fh, indent=1)

    print(json.dumps({"correct": correct, "attempted": max(col.attempted, 1),
                      "failed": col.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
