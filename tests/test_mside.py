import hashlib
import random

import pytest

from glpq.dsl import evaluate
from glpq.coeff import RatFunc
from glpq import mside as mside_module
from glpq.mside import (M_SYMS, MSide, _shift_mu_inv_rf, _shift_munu_inv_rf,
                        _shift_nu_inv_rf, central_rows, centrality_identities,
                        entry_products, group_matrix_identities, mside,
                        mside_identities, power_block_identities,
                        relation_identities, resolve_f_placement,
                        verify_mside)
from glpq.nc import commutator
from glpq.poly import Pol
from glpq.printing import print_element
from glpq.report import run_exact
from glpq.supermatrix import sdet

from helpers import (RecomputedProducts, commutator_central_rows, count_calls,
                     mside_power_blocks_afresh, subst_power_blocks)


class TestPowers:
    def test_first_power_is_m(self):
        ctx = mside()
        m = ctx.m_power(1)
        assert m.a11 == ctx.x and m.a12 == ctx.mu
        assert m.a21 == ctx.nu and m.a22 == ctx.y

    def test_square_entries(self):
        ctx = mside()
        m = ctx.m_power(2)
        assert m.a11 == ctx.pres.scalar_elt(ctx.x_rf ** 2) + \
            ctx.mu * ctx.nu
        # x*mu + mu*y in canonical left-coefficient form
        want = ctx.mu.smul(ctx.x_rf + ctx.y_rf - ctx.phi)
        assert m.a12 == want

    def test_power_additivity(self):
        ctx = mside()
        powers = {n: ctx.m_power(n) for n in range(1, 7)}
        for m in range(1, 4):
            for n in range(1, 4):
                assert powers[m] * powers[n] == powers[m + n]

    def test_f2_is_minus_one(self):
        ctx = mside()
        f2 = ctx.f_closed(2)
        minus_one = RatFunc.const(M_SYMS, -1)
        assert f2 == minus_one
        assert ctx.tau_rf(f2) == minus_one

    def test_f2_numeric_oracle(self):
        # independent check of the closed form at random points
        ctx = mside()
        f2 = ctx.f_closed(2)
        rng = random.Random(77)
        for _ in range(10):
            assign = {"p": rng.uniform(0.5, 2), "q": rng.uniform(0.5, 2),
                      "phi": rng.uniform(0.2, 1.8),
                      "x": rng.uniform(2, 4), "y": rng.uniform(-4, -2)}
            x, y, phi = assign["x"], assign["y"], assign["phi"]
            psi = 2 - phi
            s = x - y
            num = (x ** 2 * (s + phi) - (x + 2) ** 2 * (s - psi)
                   - 2 * (y + psi) ** 2)
            val = num / (2 * (s + phi) * (s - psi))
            assert abs(f2.eval_float(assign) - val) < 1e-9
            assert abs(val + 1.0) < 1e-9

    def test_placement_is_right(self):
        assert resolve_f_placement() == "right"


class TestTau:
    def test_involution_on_random_elements(self):
        ctx = mside()
        rng = random.Random(3)
        elems = [ctx.m_power(3).a11, ctx.m_power(2).a12,
                 ctx.build_T_from_M().a11]
        for e in elems:
            assert ctx.tau_elt(ctx.tau_elt(e)) == e

    def test_tau_of_a_laurent_scalar(self):
        # phi^-1 is stored as a Laurent numerator over 1; tau substitutes
        # psi = 2 - phi into the cleared pair 1/phi
        ctx = mside()
        assert ctx.tau_rf(ctx.phi ** -1) == ctx.psi.inv()
        assert str(ctx.tau_rf(ctx.phi ** -1)) == "-(phi - 2)^-1"
        assert ctx.tau_rf(ctx.p ** -2 * ctx.x_rf) == ctx.q ** -2 * ctx.y_rf

    def test_tau_swaps_blocks(self):
        ctx = mside()
        m2 = ctx.m_power(2)
        assert ctx.tau_elt(m2.a12) == m2.a21
        assert ctx.tau_elt(m2.a11) == m2.a22


class TestGroupMatrix:
    def test_sdet_is_exponential_of_supertrace(self):
        ctx = mside()
        T = ctx.build_T_from_M()
        assert sdet(T) == ctx.pres.scalar_elt(ctx.E1 * ctx.E2.inv())

    def test_zero_exponent_collapse(self):
        # with mu = nu = 0 and x = y = 0 the matrix reduces to the identity
        ctx = mside()
        T = ctx.build_T_from_M()
        assign = {"p": 1.3, "q": 0.7, "phi": 0.9,
                  "x": 0.0, "y": 0.0, "E1": 1.0, "E2": 1.0}
        val = T.a11.terms[(0, 0)].eval_float(assign)
        assert abs(val - 1.0) < 1e-12
        val_d = T.a22.terms[(0, 0)].eval_float(assign)
        assert abs(val_d - 1.0) < 1e-12

    def test_supertrace_centrality(self):
        ctx = mside()
        st = ctx.x - ctx.y
        for g in (ctx.x, ctx.y, ctx.mu, ctx.nu):
            assert commutator(st, g).is_zero()


def test_suite_small():
    rep = verify_mside(3)
    assert rep.ok
    assert rep.params["f_placement"] == "right"


class TestScalarContract:
    @pytest.mark.parametrize("left, right", [
        ("(E1*x)*(x)^-1", "E1"),
        ("(x + 1)^-1*E1 + (x - y + phi)^-1*E2^-1 + x*E1",
         "x*E1 + (x - y + phi)^-1*E2^-1 + (x + 1)^-1*E1"),
        ("(E1 + x*E2)*(E1 - 2*E2)", "E1^2 + (x - 2)*E1*E2 - 2*x*E2^2"),
    ])
    def test_equal_scalars_hash_equal(self, left, right):
        a = evaluate(left, "mside").terms[(0, 0)]
        b = evaluate(right, "mside").terms[(0, 0)]
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_exponential_quotient_round_trips(self):
        e = evaluate("E1*E2^-1", "mside")
        printed = print_element(e)
        assert printed == "E1*E2^-1"
        assert evaluate(printed, "mside") == e


# Factors of the printed-form corpus: negative E powers, sums of several
# E monomials, denominators with several terms, and both odd generators,
# so that mu and nu cross every kind of coefficient.
_CORPUS_FACTORS = ("E1", "E2", "E1^-1", "E2^-2", "(E1 + x*E2)",
                   "(E1 - 2*E2)", "(x - y + phi)^-1", "(x + 1)^-1", "x", "y",
                   "phi", "psi", "p", "q^-1", "(x - y)", "3/2", "mu", "nu")


def _mside_corpus(seed=14, n=300):
    """A seeded list of sums of up to three products of the factors."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        expr = ""
        for i in range(rng.randint(1, 3)):
            word = "*".join(rng.choice(_CORPUS_FACTORS)
                            for _ in range(rng.randint(1, 4)))
            expr += (rng.choice((" + ", " - ")) if i else "") + word
        out.append(expr)
    return out


def test_printed_forms_digest():
    # the canonical prints of both sides of every suite identity and of
    # the corpus; any change to the mside scalars must keep them
    lines = []
    for ident in mside_identities(10):
        lines += [print_element(ident.lhs), print_element(ident.rhs)]
    lines += [print_element(evaluate(e, "mside")) for e in _mside_corpus()]
    assert len(lines) == 446
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == \
        "07ddf9d99dbacf372d687727033d9b6f09495abf34ffe650c2a6f3ea73f0585b"


# -- closed forms at mapped arguments against the substitution route ---------


@pytest.mark.parametrize("n", range(1, 9))
def test_closed_forms_at_mapped_arguments(n):
    # each map is a substitution, so a ring homomorphism: F_n and G_n at
    # the mapped arguments equal the map of the expanded forms
    ctx = mside()
    tau = ctx.tau_rf
    f, g = ctx.f_closed(n), ctx.g_closed(n)
    for maps in ((_shift_munu_inv_rf,), (tau, _shift_munu_inv_rf),
                 (_shift_mu_inv_rf,), (tau, _shift_nu_inv_rf), (tau,)):
        want_f, want_g = f, g
        for m in maps:
            want_f, want_g = m(want_f), m(want_g)
        assert ctx.f_closed(n, ctx.mapped_args(*maps)) == want_f
        assert ctx.g_closed(n, ctx.mapped_args(*maps)) == want_g


def _failing_ids(report):
    return sorted(c.id for c in report.checks if c.status != "pass")


def _pol(name, e=1):
    return Pol.symbol(M_SYMS, name, e)


_X, _PHI = _pol("x"), _pol("phi")
_MUTANTS = {
    "mu map, x -> x + phi": ("_SHIFT_MU_INV", "x", _X + _PHI),
    "mu map, E2 -> p^-1*E2": ("_SHIFT_MU_INV", "E2",
                              _pol("p", -1) * _pol("E2")),
    "nu map, x -> x + psi": ("_SHIFT_NU_INV", "x",
                             _X + Pol.const(M_SYMS, 2) - _PHI),
}


@pytest.mark.parametrize("mutant", [*_MUTANTS, "tau map, p and q fixed"])
def test_mutated_maps_fail_the_same_checks_on_both_routes(mutant,
                                                          monkeypatch):
    # the closed-form sides take their maps from the presentation, so a
    # wrong map fails exactly the checks that the substitution route
    # fails; the tau mutant that fixes p and q is a known survivor
    if mutant in _MUTANTS:
        table, name, value = _MUTANTS[mutant]
        monkeypatch.setitem(getattr(mside_module, table), name, value)
    else:
        monkeypatch.setitem(mside_module._TAU_MAP, "p", _pol("p"))
        monkeypatch.setitem(mside_module._TAU_MAP, "q", _pol("q"))
    got = _failing_ids(verify_mside(4))
    ctx = mside()
    prod = entry_products(ctx.x, ctx.mu, ctx.nu, ctx.y)
    want = _failing_ids(run_exact("mside", [
        *subst_power_blocks(4), *relation_identities(prod),
        *centrality_identities(prod), *group_matrix_identities()]))
    assert got == want
    if mutant in _MUTANTS:
        assert got
    else:
        assert got == []


@pytest.mark.parametrize("mutant", [None, *_MUTANTS])
def test_supertrace_rows_from_the_table_match_the_commutators(mutant,
                                                              monkeypatch):
    # [x - y, g] read from the entry products equals the commutator of
    # x - y made afresh, also under a wrong shift map; a wrong shift of x
    # makes the rows of mu or nu nonzero
    name = None
    if mutant is not None:
        table, name, value = _MUTANTS[mutant]
        monkeypatch.setitem(getattr(mside_module, table), name, value)
    ctx = mside()
    zero = ctx.pres.zero_elt()
    got = central_rows(entry_products(ctx.x, ctx.mu, ctx.nu, ctx.y), zero)
    want = commutator_central_rows(
        RecomputedProducts(ctx.x, ctx.mu, ctx.nu, ctx.y), zero)
    assert got == want
    assert any(not lhs.is_zero() for _, _, lhs, _ in got) == (name == "x")


def test_power_blocks_match_the_afresh_construction():
    # the mapped x, y, phi, psi made once per call give every identity of
    # the power suite at the benchmark's size, lhs and rhs, as mapping
    # them again for each n does
    got = [(i.id, i.lhs, i.rhs) for i in power_block_identities(10)]
    assert got == [(i.id, i.lhs, i.rhs)
                   for i in mside_power_blocks_afresh(10)]


@pytest.mark.parametrize("n_max", [1, 6])
def test_power_blocks_map_the_arguments_once_per_call(n_max):
    # one argument tuple per block (A, B, C, D), whatever n_max
    calls = count_calls(MSide.mapped_args,
                        lambda: list(power_block_identities(n_max)))
    assert calls == 4
