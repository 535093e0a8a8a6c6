"""Floating spot checks of exact identities at random assignments.

Never a source of truth: both sides of each identity are evaluated
coefficient-wise at random pole-guarded points and compared.  Both sides
are the canonical forms the exact rewriter already produced, so the spot
check re-evaluates those same forms; it is not independent evidence
that the rewriter's normal forms are right.
"""

from __future__ import annotations

import math
import time

from .errors import NearPoleEvaluation, NumericOverflow
from .report import Check, Report

TOLERANCE = 1e-9


def sample_tside(rng):
    return {"p": rng.uniform(0.4, 2.2), "q": rng.uniform(0.4, 2.2)}


def sample_mside(rng):
    return {
        "p": rng.uniform(0.4, 2.2), "q": rng.uniform(0.4, 2.2),
        "phi": rng.uniform(0.3, 1.7),
        "x": rng.uniform(0.5, 2.5), "y": rng.uniform(-2.5, -0.5),
        "E1": rng.uniform(0.4, 2.0), "E2": rng.uniform(0.4, 2.0),
    }


def sample_series(rng):
    t = rng.uniform(0.02, 0.05)
    return {"t": t if rng.random() < 0.5 else -t}


def eval_terms(obj, assignment):
    try:
        values = {m: c.eval_float(assignment) for m, c in obj.terms.items()}
    except OverflowError:
        values = None
    if values is None or not all(map(math.isfinite, values.values())):
        raise NumericOverflow("coefficient outside the float range")
    return values


def side_deviation(lhs, rhs, assignment):
    lv = eval_terms(lhs, assignment)
    rv = eval_terms(rhs, assignment)
    scale = 1.0
    for vals in (lv, rv):
        for v in vals.values():
            scale = max(scale, abs(v))
    worst = 0.0
    for m in lv.keys() | rv.keys():
        worst = max(worst, abs(lv.get(m, 0.0) - rv.get(m, 0.0)))
    return worst / scale


def spotcheck(suite, identities, sampler, rng, trials=20, tol=TOLERANCE,
              params=None):
    """Evaluate every identity at ``trials`` random assignments."""
    t0 = time.perf_counter()
    identities = list(identities)
    worst = [0.0] * len(identities)
    skipped = 0
    done = 0
    while done < trials:
        assignment = sampler(rng)
        try:
            devs = [side_deviation(i.lhs, i.rhs, assignment)
                    for i in identities]
        except NearPoleEvaluation:
            skipped += 1
            if skipped > 200 * trials:
                raise
            continue
        worst = [max(w, d) for w, d in zip(worst, devs)]
        done += 1
    checks = []
    for ident, w in zip(identities, worst):
        if w < tol:
            checks.append(Check(ident.id, ident.anchor, "pass"))
        else:
            checks.append(Check(ident.id, ident.anchor, "fail",
                                f"max relative deviation {w:.3e}"))
    ms = int((time.perf_counter() - t0) * 1000)
    all_params = {"trials": trials, "tolerance": tol,
                  "skipped_near_pole": skipped}
    all_params.update(params or {})
    return Report(f"spotcheck.{suite}", all_params, checks, ms)
