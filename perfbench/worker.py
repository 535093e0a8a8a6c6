"""One benchmark sample in a fresh interpreter.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``; prints one JSON object on its last stdout line.  Times that
the parent compares with its own spawn time are CLOCK_MONOTONIC
readings (``time.perf_counter`` on Linux), which every process shares.
Untraced samples run the speed probe of ``probe.py`` throughout.

    python3 perfbench/worker.py --workload exact --mode run --trace 0
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

import workloads  # noqa: E402
from probe import Probe  # noqa: E402

clock = time.perf_counter


def peak_rss_mb():
    """The worker's peak plus the largest peak of its joined children.

    Children that ran at the same time are not summed: the kernel keeps
    only the largest child peak.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _import_package():
    import glpq
    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(glpq.__file__).startswith(src + os.sep):
        raise SystemExit(f"glpq imported from {glpq.__file__}, not {src}")
    from glpq import dsl, mside, series, tside
    return dsl, mside, series, tside


def setup(workload):
    """Import the package and build the contexts the workload reads."""
    dsl, mside, series, tside = _import_package()
    if workload == "exact":
        tside.tside()
        mside.mside()
    elif workload == "series":
        for a, b in workloads.SERIES_RAYS:
            series.series_context(series.SeriesConfig(Fraction(a), Fraction(b)))
    else:
        for name, _ in workloads.CONTEXT_MIX:
            dsl.get_context(name)


class CheckTimer:
    """Wraps identity generators: time in next() is build, the gap until
    the consumer asks for the next identity is compare."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.op_s = []           # build plus compare seconds per check
        self.totals = {}         # suite -> [build_s, compare_s]

    def wrap(self, label, gen_fn):
        def timed(*args, **kwargs):
            it = gen_fn(*args, **kwargs)
            tot = self.totals.setdefault(label, [0.0, 0.0])
            tracer = self.tracer
            build, compare = f"report.{label}.build", f"report.{label}.compare"
            while True:
                if tracer:
                    tracer.begin(build)
                t0 = clock()
                try:
                    ident = next(it)
                except StopIteration:
                    return
                finally:
                    t1 = clock()
                    if tracer:
                        tracer.end(build)
                    tot[0] += t1 - t0
                if tracer:
                    tracer.begin(compare)
                yield ident
                t2 = clock()
                if tracer:
                    tracer.end(compare)
                tot[1] += t2 - t1
                self.op_s.append(t2 - t0)
        return timed


def run_suites(workload, timer):
    from glpq import series
    checks = []
    if workload == "exact":
        for label, mod, gen, verify, args in workloads.EXACT_SUITES:
            module = importlib.import_module(f"glpq.{mod}")
            setattr(module, gen, timer.wrap(label, getattr(module, gen)))
            rep = getattr(module, verify)(*args)
            checks += [[label, c.id, c.status, c.witness] for c in rep.checks]
    else:
        plain = series.series_identities
        for a, b in workloads.SERIES_RAYS:
            label = workloads.series_label((a, b))
            series.series_identities = timer.wrap(label, plain)
            rep = series.verify_series(
                series.SeriesConfig(Fraction(a), Fraction(b)))
            checks += [[label, c.id, c.status, c.witness] for c in rep.checks]
    return checks


def run_normalize(seed, tracer):
    from glpq import dsl
    queries = workloads.normalize_queries(seed)
    answers, lat = [], []
    for ctx, text in queries:
        t0 = clock()
        answers.append(dsl.print_canonical(dsl.evaluate(text, ctx)))
        lat.append(clock() - t0)
    t_done, rss = clock(), peak_rss_mb()
    layers = tracer.snapshot() if tracer else None
    return queries, answers, t_done, rss, lat, layers


def gate_normalize(queries, answers):
    """Queries whose answer does not evaluate to the same element as the
    query itself, as [context, query, answer] rows.  Runs after the timed
    stream, so that the stream holds no elements alive."""
    from glpq import dsl
    evaluate = getattr(dsl.evaluate, "__wrapped__", dsl.evaluate)
    return [[ctx, text, answer]
            for (ctx, text), answer in zip(queries, answers)
            if not evaluate(answer, ctx) == evaluate(text, ctx)]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--mode", choices=("run", "setup"), default="run")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # the probe rescales untraced times; traced times stay raw
    probe = Probe()
    tracer = None
    if not args.trace:
        probe.start()
    else:
        _import_package()
        import layers
        from tracer import Tracer
        tracer = Tracer()
        layers.install(tracer)
    setup(args.workload)
    t_setup = clock()
    out = {"t_start": T_START, "t_setup": t_setup,
           "probe_setup_s": probe.spent(t_setup)}
    if args.mode == "run":
        if args.workload == "normalize":
            queries, answers, t_done, rss, lat, layer_stats = run_normalize(
                args.seed, tracer)
        else:
            timer = CheckTimer(tracer)
            checks = run_suites(args.workload, timer)
            t_done, rss = clock(), peak_rss_mb()
            layer_stats = tracer.snapshot() if tracer else None
            lat = timer.op_s
            out.update(checks=checks, suite_times=timer.totals)
    probe.stop()
    out["probe_n"], out["probe_wall_s"], out["probe_cpu_s"] = probe.totals()
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    if args.workload == "normalize":
        failed = gate_normalize(queries, answers)
        rows = [[ctx, text, ans] for (ctx, text), ans in zip(queries, answers)]
        out.update(attempted=len(lat), failed=failed,
                   digest=workloads.digest(rows))
    out.update(t_done=t_done, op_s=lat, peak_rss_mb=rss,
               probe_s=probe.spent(t_done))
    if layer_stats is not None:
        out["layers"] = layer_stats
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
