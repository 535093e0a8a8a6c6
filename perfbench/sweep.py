"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/sweep.py --runs 10 --workloads exact series normalize

Repetition i runs every workload once with seed ``--seed0 + i``; the
workload order rotates by one each repetition, so no workload always
runs first or last.  For every end-to-end metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and their distance
as a share of the median, next to the bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_spec():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_once(spec, workload, seed, seconds):
    cmd = list(spec["command"]) + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed: {proc.stderr[-500:]}")
    return json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def main(argv=None):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--out", default=os.path.join(".perfbench-out",
                                                  "sweep.json"))
    args = ap.parse_args(argv)

    results = {w: [] for w in args.workloads}
    for i in range(args.runs):
        k = i % len(args.workloads)
        for w in args.workloads[k:] + args.workloads[:k]:
            res = run_once(spec, w, args.seed0 + i, args.seconds)
            results[w].append(res)
            print(f"run {i} {w} correct={res['correct']} " + " ".join(
                f"{n}={m['value']:.5g}" for n, m in res["metrics"].items()),
                flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    ok = True
    for w, runs in results.items():
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3, rel = spread(values) if len(values) > 1 else \
                (values[0],) * 3 + (0.0,)
            flag = "" if rel < bound / 3 else "  <-- above bound/3"
            if rel > bound:
                ok = False
            summary[f"{w}.{name}"] = {"median": med, "q1": q1, "q3": q3,
                                      "spread": rel, "bound": bound,
                                      "values": values}
            print(f"{w:10s} {name:12s} median={med:.6g} q1={q1:.6g} "
                  f"q3={q3:.6g} spread={rel:.4f} bound={bound}{flag}")
        print(f"{w:10s} correct in {sum(r['correct'] for r in runs)}"
              f"/{len(runs)} runs")
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
