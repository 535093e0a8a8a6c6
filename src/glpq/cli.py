"""Command-line front end: normalize expressions, run suites, spot-check.

Exit codes: 0 all checks pass, 1 at least one failure or an algebra
error (such as a symbol ``eval`` needs and has no value for), 2 usage
errors and every :class:`~glpq.errors.InputRejected`: syntax errors, an
expression whose evaluation would make a product over the DSL's work
bound (``dsl.MAX_PRODUCT_PAIRS``), a polynomial gcd over its work budget
(``poly.GCD_BUDGET``), or an answer with a coefficient of more digits
than Python converts to a string.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from fractions import Fraction

from . import dsl, mside, series, tside
from .errors import AlgebraError, BadAssignment, InputRejected
from .numeric import (sample_mside, sample_series, sample_tside, spotcheck)
from .report import Report


def _parse_ray(text):
    try:
        a, b = text.split(",")
        return Fraction(a), Fraction(b)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad ray {text!r}: {exc}")


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser():
    ap = argparse.ArgumentParser(
        prog="glpq",
        description="Exact kernel for the two-parameter quantum supergroup "
                    "GL_pq(1|1): normal forms, supermatrix identities and "
                    "verification suites.")
    sub = ap.add_subparsers(dest="command", required=True)

    ctx_kw = dict(choices=("tside", "mside", "series"), default="tside")
    norm = sub.add_parser("normalize", help="print the canonical form")
    norm.add_argument("expr")
    norm.add_argument("--ctx", **ctx_kw)

    ev = sub.add_parser("eval", help="evaluate an expression numerically")
    ev.add_argument("expr")
    ev.add_argument("--ctx", **ctx_kw)
    ev.add_argument("--assign", default="",
                    help="comma-separated name=value pairs, e.g. p=2,q=3")

    st = sub.add_parser("suite", help="run a verification suite")
    st.add_argument("name", choices=("section2", "section3", "appendix",
                                     "series", "mside", "all"))
    st.add_argument("--n-bound", type=_positive_int, default=6,
                    help="symmetric exponent range of the power identities")
    st.add_argument("--m-bound", type=_positive_int, default=4,
                    help="symmetric range of the two-exponent reordering")
    st.add_argument("--n-max", type=_positive_int, default=8)
    st.add_argument("--k-max", type=_positive_int, default=6)
    st.add_argument("--N", type=int, default=6)
    st.add_argument("--K", type=int, default=12)
    st.add_argument("--weight", type=int, default=8)
    st.add_argument("--rays", type=_parse_ray, nargs="+", default=None,
                    metavar="A,B")
    st.add_argument("--json", dest="json_path", default=None)
    st.add_argument("--verbose", action="store_true")

    sp = sub.add_parser("spotcheck", help="numeric cross-validation")
    sp.add_argument("name", choices=("section2", "section3", "appendix",
                                     "series", "mside", "all"))
    sp.add_argument("--trials", type=_positive_int, default=20)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--json", dest="json_path", default=None)
    sp.add_argument("--verbose", action="store_true")
    return ap


def _merge(name, reports, params):
    checks = []
    for rep in reports:
        label = rep.suite
        ray = rep.params.get("alpha")
        if ray is not None:
            label += f"[{rep.params['alpha']},{rep.params['beta_ray']}]"
        for c in rep.checks:
            checks.append(type(c)(f"{label}:{c.id}", c.anchor, c.status,
                                  c.witness))
    return Report(name, params, checks,
                  sum(r.elapsed_ms for r in reports))


def run_suites(args):
    exact = {
        "section2": lambda: tside.verify_section2(args.n_bound, args.m_bound),
        "section3": lambda: tside.verify_section3(args.n_max),
        "appendix": lambda: tside.verify_appendix(args.k_max),
        "mside": lambda: mside.verify_mside(args.n_max),
    }
    if args.name in exact:
        return exact[args.name]()
    # build every config first, so a bad ray fails before any suite runs
    cfgs = [series.SeriesConfig(a, b, N=args.N, K=args.K, weight=args.weight)
            for a, b in args.rays or series.DEFAULT_RAYS]
    if args.name == "series":
        return _merge("series", [series.verify_series(cfg) for cfg in cfgs],
                      {"N": args.N, "K": args.K, "weight": args.weight,
                       "rays": [f"{c.alpha},{c.beta_ray}" for c in cfgs]})
    reports = [run() for run in exact.values()]
    reports += [series.verify_series(cfg) for cfg in cfgs]
    return _merge("all", reports, {})


_SPOT_TABLE = {
    "section2": (lambda: tside.section2_identities(), sample_tside),
    "section3": (lambda: tside.section3_identities(6), sample_tside),
    "appendix": (lambda: tside.appendix_identities(4), sample_tside),
    "mside": (lambda: mside.mside_identities(6), sample_mside),
}


def run_spotcheck(args):
    rng = random.Random(args.seed)
    reports = []
    names = (["section2", "section3", "appendix", "mside", "series"]
             if args.name == "all" else [args.name])
    for name in names:
        if name == "series":
            cfg = series.SeriesConfig(Fraction(1), Fraction(2))
            rep = spotcheck("series", series.series_identities(cfg),
                            sample_series, rng, trials=args.trials,
                            params={"alpha": "1", "beta_ray": "2"})
        else:
            gen, sampler = _SPOT_TABLE[name]
            rep = spotcheck(name, gen(), sampler, rng, trials=args.trials)
        reports.append(rep)
    if len(reports) == 1:
        return reports[0]
    return _merge("spotcheck.all", reports, {"seed": args.seed,
                                             "trials": args.trials})


def cmd_normalize(args):
    element = dsl.evaluate(args.expr, args.ctx)
    print(dsl.print_canonical(element))
    return 0


def cmd_eval(args):
    assignment = {}
    if args.assign:
        for pair in args.assign.split(","):
            name, _, value = pair.partition("=")
            try:
                number = float(value)
            except ValueError:
                number = math.nan
            if not math.isfinite(number):
                raise BadAssignment(f"bad --assign pair {pair!r}: "
                                    "expected name=finite number")
            assignment[name.strip()] = number
    element = dsl.evaluate(args.expr, args.ctx)
    from .numeric import eval_terms
    values = eval_terms(element, assignment)
    if not values:
        print("0")
        return 0
    from .poly import mono_str
    names = element.pres.gen_names
    for m in sorted(values):
        word = mono_str(zip(names, m)) or "1"
        print(f"{word}: {values[m]:.12g}")
    return 0


def _finish(report, args):
    for line in report.summary_lines(verbose=getattr(args, "verbose", False)):
        print(line)
    if getattr(args, "json_path", None):
        with open(args.json_path, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    return 0 if report.ok else 1


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "normalize":
            return cmd_normalize(args)
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "suite":
            return _finish(run_suites(args), args)
        if args.command == "spotcheck":
            return _finish(run_spotcheck(args), args)
    except InputRejected as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
