import pytest

from glpq.coeff import RatFunc
from glpq.errors import UnsupportedNegativeN
from glpq.nc import commutator, invert_even_unit
from glpq.supermatrix import Schur, SuperMatrix, matrix_power, sdet, sinverse
from glpq.tside import (appendix_identities, section2_identities,
                        section3_identities, tside, verify_appendix,
                        verify_section2, verify_section3)

from helpers import (appendix_afresh, count_calls, section2_afresh,
                     section3_afresh)


class TestSdet:
    def test_identity_matrix(self):
        ctx = tside()
        assert sdet(SuperMatrix.identity(ctx.pres)) == ctx.pres.one_elt()

    def test_generic_normal_form(self):
        ctx = tside()
        want = ctx.word([("a", 1), ("d", -1)]) - ctx.word(
            [("d", -2), ("beta", 1), ("gamma", 1)], ctx.p * ctx.q ** 2)
        assert sdet(ctx.T()) == want

    def test_cross_check_against_power_formula(self):
        ctx = tside()
        assert sdet(ctx.T()) == ctx.sdet_power_rhs(1)

    def test_reciprocal(self):
        ctx = tside()
        T = ctx.T()
        assert sdet(sinverse(T)) * sdet(T) == ctx.pres.one_elt()

    def test_centrality(self):
        ctx = tside()
        sd = sdet(ctx.T())
        for g in (ctx.a, invert_even_unit(ctx.a), ctx.d,
                  invert_even_unit(ctx.d), ctx.beta, ctx.gamma):
            assert commutator(sd, g).is_zero()


class TestInverseAndPowers:
    def test_sinverse_identity(self):
        ctx = tside()
        ident = SuperMatrix.identity(ctx.pres)
        assert sinverse(ident) == ident

    def test_sinverse_defining_property(self):
        ctx = tside()
        T = ctx.T()
        ident = SuperMatrix.identity(ctx.pres)
        assert sinverse(T) * T == ident
        assert T * sinverse(T) == ident

    def test_power_two_blocks(self):
        ctx = tside()
        sq = matrix_power(ctx.T(), 2)
        assert sq.a11 == ctx.a * ctx.a + ctx.beta * ctx.gamma
        want_b = (ctx.a + ctx.d.smul(ctx.q_inv)) * ctx.beta
        assert sq.a12 == want_b

    def test_power_zero_and_negative(self):
        ctx = tside()
        T = ctx.T()
        assert matrix_power(T, 0) == SuperMatrix.identity(ctx.pres)
        assert matrix_power(T, -1) == sinverse(T)

    def test_power_additivity(self):
        ctx = tside()
        T = ctx.T()
        cache = {n: matrix_power(T, n) for n in range(-3, 4)}
        for m in range(-3, 4):
            for n in range(-3, 4):
                if -3 <= m + n <= 3:
                    assert cache[m] * cache[n] == cache[m + n]


class TestClosedBlocks:
    def test_brackets(self):
        ctx = tside()
        assert ctx.bracket(1) == ctx.one
        assert ctx.bracket(2) == ctx.one + (ctx.pq) ** -1

    def test_blocks_two(self):
        ctx = tside()
        b = ctx.closed_power_blocks(2)[1]
        assert b.a11 == ctx.a * ctx.a + ctx.beta * ctx.gamma
        want_d = (ctx.d * ctx.d
                  - (ctx.beta * ctx.gamma).smul(ctx.q * ctx.p_inv))
        assert b.a22 == want_d

    def test_negative_n_unsupported(self):
        with pytest.raises(UnsupportedNegativeN):
            tside().closed_power_blocks(0)


class TestCrout:
    def test_identity(self):
        ctx = tside()
        ident = SuperMatrix.identity(ctx.pres)
        lower, upper = Schur(ident).crout()
        assert lower == ident and upper == ident

    def test_roundtrip(self):
        ctx = tside()
        T = ctx.T()
        lower, upper = Schur(T).crout()
        assert lower * upper == T

    def test_sdet_factorizations_on_square(self):
        ctx = tside()
        sq = matrix_power(ctx.T(), 2)
        first, second = Schur(sq).factorizations()
        assert first == second == sdet(sq)


class TestSuites:
    def test_section2_small(self):
        rep = verify_section2(2, 2)
        assert rep.ok

    def test_section3_small(self):
        rep = verify_section3(3)
        assert rep.ok

    def test_appendix_small(self):
        rep = verify_appendix(2)
        assert rep.ok

    def test_identity_ids_unique(self):
        ids = [i.id for i in section2_identities(2, 1)]
        ids += [i.id for i in section3_identities(2)]
        ids += [i.id for i in appendix_identities(1)]
        assert len(ids) == len(set(ids))


# -- shared inverses, Schur products and scalars -----------------------------


def _data(identities):
    return [(i.id, i.lhs, i.rhs) for i in identities]


@pytest.mark.parametrize("suite", ["section2", "section3", "appendix"])
def test_shared_products_match_the_afresh_construction(suite):
    # at the benchmark's sizes every identity equals, lhs and rhs, its
    # build with each inverse, Schur product, four-fold product and
    # closed-form scalar made afresh where it is read
    shared, afresh = {
        "section2": (section2_identities(10, 6), section2_afresh(10, 6)),
        "section3": (section3_identities(12), section3_afresh(12)),
        "appendix": (appendix_identities(10), appendix_afresh(10)),
    }[suite]
    assert _data(shared) == _data(afresh)


@pytest.mark.parametrize("n_max", [1, 2, 5])
def test_section3_inverts_three_times_per_power(n_max):
    # A_n^-1, D_n^-1 and (D_n - C_n*A_n^-1*B_n)^-1 per power, plus
    # (A - B*D^-1*C)^-1 for the block inverse of T, whose other pieces
    # the n = 1 power has made
    calls = count_calls(invert_even_unit,
                        lambda: list(section3_identities(n_max)))
    assert calls == 3 * n_max + 1


def test_reorder_family_divides_once_per_exponent():
    # one (p^k - q^-k)/(p - q^-1) per k: raising m_bound by one adds the
    # two exponents +-(m_bound + 1), so two divisions, not one per pair
    def divisions(m_bound):
        return count_calls(RatFunc.__truediv__,
                           lambda: list(section2_identities(1, m_bound)))

    for m_bound in (2, 5):
        assert divisions(m_bound + 1) - divisions(m_bound) == 2


def test_closed_blocks_make_each_bracket_once():
    ctx = tside()
    assert count_calls(type(ctx).bracket,
                       lambda: ctx.closed_power_blocks(12)) == 11
