import random

from glpq.mside import (MCoefficient, mside, resolve_f_placement,
                        verify_mside)
from glpq.nc import commutator
from glpq.supermatrix import sdet


class TestPowers:
    def test_first_power_is_m(self):
        ctx = mside()
        m = ctx.m_power(1)
        assert m.a11 == ctx.x and m.a12 == ctx.mu
        assert m.a21 == ctx.nu and m.a22 == ctx.y

    def test_square_entries(self):
        ctx = mside()
        m = ctx.m_power(2)
        assert m.a11 == ctx.scalar(MCoefficient.of(ctx.x_rf ** 2)) + \
            ctx.mu * ctx.nu
        # x*mu + mu*y in canonical left-coefficient form
        want = ctx.mu.smul(MCoefficient.of(ctx.x_rf + ctx.y_rf - ctx.phi))
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
        minus_one = MCoefficient.const(-1).terms[(0, 0)]
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
        assert sdet(T) == ctx.scalar(ctx.E1 * ctx.E2.inv())

    def test_zero_exponent_collapse(self):
        # with mu = nu = 0 and x = y = 0 the matrix reduces to the identity
        ctx = mside()
        T = ctx.build_T_from_M()
        assign = {"p": 1.3, "q": 0.7, "phi": 0.9,
                  "x": 0.0, "y": 0.0, "E1": 1.0, "E2": 1.0}
        even = T.a11.element if hasattr(T.a11, "element") else T.a11
        val = even.terms[(0, 0)].eval_float(assign)
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
