"""Acceptance gate: every criterion at its stated bounds.

Each test prints one PASS/FAIL line (visible with ``pytest -s``).  The
identity lists are cached so the numeric cross-validation criterion
reuses exactly the material the exact criteria verified.
"""

import random
import time
from fractions import Fraction as F

from glpq import mside as ms
from glpq import series as sr
from glpq import tside as ts
from glpq.coeff import TruncLaurent
from glpq.numeric import (sample_mside, sample_series, sample_tside,
                          spotcheck)
from glpq.report import run_exact
from glpq.tside import tside

from helpers import (random_element, random_homogeneous, random_word,
                     renormalize)

_CACHE = {}

RAYS = ((F(1), F(1)), (F(1), F(2)), (F(2), F(1)), (F(1), F(-3)),
        (F(3), F(-1)))


def _announce(num, name, ok, secs):
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
          f" ({secs:.1f}s)", flush=True)


def _failures(report):
    return [f"{c.id}: {c.witness}" for c in report.checks
            if c.status != "pass"]


def _exact(key, name, builder):
    if key not in _CACHE:
        t0 = time.perf_counter()
        ids = list(builder())
        rep = run_exact(name, ids)
        _CACHE[key] = (ids, rep, time.perf_counter() - t0)
    return _CACHE[key]


def _series_ray(ray):
    key = ("ray", ray)
    if key not in _CACHE:
        cfg = sr.SeriesConfig(ray[0], ray[1], N=6, K=12, weight=8)
        t0 = time.perf_counter()
        ids = list(sr.series_identities(cfg))
        rep = sr.verify_series(cfg, ids)
        _CACHE[key] = (cfg, ids, rep, time.perf_counter() - t0)
    return _CACHE[key]


def test_criterion_1_section2():
    ids, rep, secs = _exact("s2", "section2",
                            lambda: ts.section2_identities(6, 4))
    ok = rep.ok and secs < 10.0
    _announce(1, "section2 exact identities", ok, secs)
    assert rep.ok, _failures(rep)
    # coverage: the power identities ran over the required ranges
    got = {c.id for c in rep.checks}
    for n in range(-6, 7):
        assert f"power.schur.n={n}" in got
        assert f"sdet.power.n={n}" in got
    for n in range(-4, 5):
        for m in range(-4, 5):
            assert f"reorder.power.n={n}.m={m}" in got
    for required in ("sdet.delta2", "sdet.inverse.delta1", "sdet.reciprocal",
                     "sdet.inverse.product", "sdet.central.beta"):
        assert required in got
    assert secs < 10.0, f"section2 took {secs:.1f}s"


def test_criterion_2_section3():
    ids, rep, secs = _exact("s3", "section3",
                            lambda: ts.section3_identities(8))
    ok = rep.ok and secs < 30.0
    _announce(2, "section3 powers and closure", ok, secs)
    assert rep.ok, _failures(rep)
    got = {c.id for c in rep.checks}
    for n in range(1, 9):
        assert f"blocks.n={n}.11" in got
        assert f"relations.n={n}.AD" in got
        assert f"sdet.closed.n={n}" in got
        assert f"sdet.multiplicative.n={n}" in got
        assert f"sdet.crout.first.n={n}" in got
        assert f"sdet.crout.second.n={n}" in got
    assert secs < 30.0, f"section3 took {secs:.1f}s"


def test_criterion_3_appendix():
    ids, rep, secs = _exact("apx", "appendix",
                            lambda: ts.appendix_identities(6))
    ok = rep.ok and secs < 30.0
    _announce(3, "appendix recurrences and cancellation", ok, secs)
    assert rep.ok, _failures(rep)
    got = {c.id for c in rep.checks}
    for k in range(1, 7):
        assert f"cancellation.k={k}" in got
        assert f"commutator.closed.k={k}" in got
        assert f"recurrence.A.k={k}" in got
    assert secs < 30.0, f"appendix took {secs:.1f}s"


def test_criterion_4_series_rays():
    worst = 0.0
    for ray in RAYS:
        cfg, ids, rep, secs = _series_ray(ray)
        worst = max(worst, secs)
        assert rep.ok, (ray, _failures(rep))
        got = {c.id for c in rep.checks}
        for tag in ("x", "mu", "nu", "y"):
            assert f"log.closed.{tag}" in got
        for tag in ("x.mu", "y.mu", "mu.sq", "x.nu", "y.nu", "nu.sq",
                    "x.y", "mu.nu"):
            assert f"bracket.{tag}" in got
        for tag in ("lna.beta", "lnd.beta", "lna.gamma", "lnd.gamma"):
            assert f"bracket.{tag}" in got
        for required in ("diagonal.yz", "diagonal.x", "diagonal.sum"):
            assert required in got
        for tag in ("11", "12", "21", "22"):
            assert f"roundtrip.{tag}" in got
        assert secs < 60.0, f"ray {ray} took {secs:.1f}s"
    _announce(4, "series rays (log, brackets, roundtrip)", True, worst)


def test_criterion_5_mside():
    if "m" not in _CACHE:
        t0 = time.perf_counter()
        ids = list(ms.mside_identities(8))
        rep = run_exact("mside", ids)
        _CACHE["m"] = (ids, rep, time.perf_counter() - t0)
    ids, rep, secs = _CACHE["m"]
    ok = rep.ok and secs < 60.0
    _announce(5, "exponent algebra (powers, relations, sdet)", ok, secs)
    assert rep.ok, _failures(rep)
    got = {c.id for c in rep.checks}
    for n in range(1, 9):
        for tag in ("A", "B", "C", "D"):
            assert f"power.{tag}.n={n}" in got
    for required in ("group.a.beta", "group.ad.commutator", "group.sdet",
                     "tau.involution.a", "supertrace.central.mu"):
        assert required in got
    assert ms.resolve_f_placement() == "right"
    assert secs < 60.0, f"mside took {secs:.1f}s"


def test_criterion_6_specialization():
    t0 = time.perf_counter()
    cfg, ids, rep, _ = _series_ray((F(1), F(1)))
    ctx = sr.series_context(cfg)
    # on the equal ray the bracket coefficient degenerates to one
    assert (ctx.phi - TruncLaurent.const(1, ctx.K)).is_zero()
    by_id = {c.id: c for c in rep.checks}
    assert by_id["specialize.phi"].status == "pass"
    assert by_id["specialize.bracket"].status == "pass"
    secs = time.perf_counter() - t0
    _announce(6, "equal-ray one-parameter specialization", True, secs)


def test_criterion_7_engine_properties():
    t0 = time.perf_counter()
    ctx = tside()
    rng = random.Random(2024)

    for _ in range(500):
        e = random_element(rng, n_terms=2, max_len=5)
        assert renormalize(e) == e

    for _ in range(500):
        w = random_word(rng, max_len=12, exp_bound=3)
        left = ctx.pres.normalize(w, ctx.one, strategy="leftmost")
        right = ctx.pres.normalize(w, ctx.one, strategy="rightmost")
        assert left == right

    for _ in range(500):
        e1 = random_element(rng, n_terms=2, max_len=3)
        e2 = random_element(rng, n_terms=2, max_len=3)
        e3 = random_element(rng, n_terms=2, max_len=3)
        assert (e1 * e2) * e3 == e1 * (e2 * e3)
        assert e1 * (e2 + e3) == e1 * e2 + e1 * e3

    checked = 0
    while checked < 500:
        pa, pb = rng.randint(0, 1), rng.randint(0, 1)
        x = random_homogeneous(rng, pa, max_len=4)
        y = random_homogeneous(rng, pb, max_len=4)
        prod = x * y
        if prod.is_zero():
            continue
        assert prod.parity() == ("odd" if (pa + pb) % 2 else "even")
        checked += 1

    for _ in range(500):
        odd = rng.choice(("beta", "gamma"))
        n, m = rng.randint(-3, 3), rng.randint(-3, 3)
        assert ctx.word([(odd, 1), ("a", n), ("d", m)]) == \
            ctx.word([(odd, 1), ("d", m), ("a", n)])

    secs = time.perf_counter() - t0
    _announce(7, "engine properties (500 instances each)", secs < 60.0, secs)
    assert secs < 60.0, f"engine properties took {secs:.1f}s"


def test_criterion_8_numeric_cross_validation():
    t0 = time.perf_counter()
    rng = random.Random(7)
    jobs = [
        ("section2", _exact("s2", "section2",
                            lambda: ts.section2_identities(6, 4))[0],
         sample_tside),
        ("section3", _exact("s3", "section3",
                            lambda: ts.section3_identities(8))[0],
         sample_tside),
        ("appendix", _exact("apx", "appendix",
                            lambda: ts.appendix_identities(6))[0],
         sample_tside),
    ]
    if "m" in _CACHE:
        jobs.append(("mside", _CACHE["m"][0], sample_mside))
    else:
        jobs.append(("mside", list(ms.mside_identities(8)), sample_mside))
    for ray in RAYS:
        _, ids, _, _ = _series_ray(ray)
        jobs.append((f"series[{ray[0]},{ray[1]}]", ids, sample_series))

    all_ok = True
    for name, ids, sampler in jobs:
        rep = spotcheck(name, ids, sampler, rng, trials=20, tol=1e-9)
        if not rep.ok:
            all_ok = False
            print(f"\n  spotcheck {name} failures: {_failures(rep)[:4]}")
    secs = time.perf_counter() - t0
    _announce(8, "numeric cross-validation (20 assignments)", all_ok, secs)
    assert all_ok
