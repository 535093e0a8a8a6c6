import hashlib
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glpq.coeff import TruncLaurent
from glpq.errors import InvalidRay, TruncationUnderflow
from glpq.nc import Element, Presentation
from glpq.printing import print_element
from glpq.report import Identity
from glpq import series
from glpq.series import (DEFAULT_RAYS, EXPAND_MARGIN, SeriesConfig,
                         TruncElement, _embed, _even_div, closed_tminus_powers,
                         exp_matrix, log_partial_sums, log_T,
                         m_entries_scaled, m_from_T, scalar_expansions,
                         series_context, series_identities, verify_series)
from glpq.supermatrix import SuperMatrix

from helpers import naive_power, naive_product, trunc_dump


def cfg_for(a, b, weight=8):
    return SeriesConfig(F(a), F(b), N=6, K=12, weight=weight)


class TestConfig:
    def test_valid_rays(self):
        for a, b in DEFAULT_RAYS:
            SeriesConfig(a, b)

    def test_degenerate_rays_rejected(self):
        with pytest.raises(InvalidRay):
            SeriesConfig(F(0), F(1))
        with pytest.raises(InvalidRay):
            SeriesConfig(F(1), F(-1))     # h would not be invertible
        with pytest.raises(InvalidRay):
            SeriesConfig(F(1), F(1), N=6, K=7)
        with pytest.raises(InvalidRay):
            SeriesConfig(F(1), F(1), N=6, K=8, weight=8)

    def test_ray_scalars(self):
        ctx = series_context(cfg_for(2, 3))
        # q = exp(2t): leading coefficients 1, 2, 2
        assert ctx.q.coefficient(0) == 1
        assert ctx.q.coefficient(1) == 2
        assert ctx.q.coefficient(2) == 2
        assert (ctx.q * ctx.q_inv - 1).is_zero()
        assert ctx.phi == TruncLaurent.const(F(4, 5), ctx.K)


class TestScalarExpansions:
    def test_g_at_unit_arguments(self):
        # constant slice of the off-diagonal prefactor: h1/(1 - q^-1)
        ctx = series_context(cfg_for(1, 2))
        _, _, g = scalar_expansions(ctx)
        oracle = ctx.h1 * (ctx.one_tl - ctx.q_inv).inv()
        assert (g.terms[(0, 0)] - oracle).is_zero()

    def test_f_at_unit_arguments_is_finite(self):
        # the two simple-pole pieces cancel, leaving a t-regular value
        ctx = series_context(cfg_for(1, 2))
        _, f, _ = scalar_expansions(ctx)
        assert f.terms[(0, 0)].valuation() >= 0

    def test_prefactor_digest(self):
        # every datum of the four closed-form entries h*x, h*mu, h*nu,
        # h*y on the five default rays at two weights, frozen
        data = []
        for n, k, weight in ((6, 12, 8), (8, 14, 10)):
            for ray in DEFAULT_RAYS:
                ctx = series_context(SeriesConfig(*ray, N=n, K=k,
                                                  weight=weight))
                for te in m_entries_scaled(ctx):
                    prec, terms = trunc_dump(te)
                    data.append((prec, sorted(terms.items())))
        digest = hashlib.sha256(repr(data).encode()).hexdigest()
        assert digest == ("115220ffc1b10f0e7b76a23e539799c8"
                          "2da2f7951924663b28d16399d1272c26")

    def test_min_valuation_bounded(self):
        for ray in ((1, 1), (1, -3)):
            ctx = series_context(cfg_for(*ray))
            for swapped in (False, True):
                _, f, g = scalar_expansions(ctx, swapped)
                for e in (f, g):
                    assert min(c.valuation() for c in e.terms.values()) >= -2


class TestLogSeries:
    def test_leading_odd_coefficient(self):
        # order-1 part of the log's top-right entry is exactly beta
        ctx = series_context(cfg_for(1, 2))
        entry = log_partial_sums(ctx).a12
        beta_mono = (0, 0, 1, 0)
        c = entry.terms[beta_mono]
        assert c.coefficient(0) == 1

    def test_diagonal_through_order_two(self):
        # t^0 slots of generator degree <= 2: A - A^2/2 - beta*gamma/2
        ctx = series_context(cfg_for(1, 2))
        entry = log_partial_sums(ctx).a11
        expect = {(1, 0, 0, 0): F(1), (2, 0, 0, 0): F(-1, 2),
                  (0, 0, 1, 1): F(-1, 2)}
        for mono, c in entry.terms.items():
            if sum(mono) <= 2:
                assert c.coefficient(0) == expect.pop(mono, F(0))
        assert not expect

    def test_closed_square_top_right(self):
        # (T - I)^2 off-diagonal: A*beta + q^-1*D*beta + (q^-1 - 1)*beta
        ctx = series_context(cfg_for(1, 2))
        sq = closed_tminus_powers(ctx, 2)
        got = sq.a12
        want = (ctx.A * ctx.beta + (ctx.D * ctx.beta).smul(ctx.q_inv)
                + ctx.beta.smul(ctx.q_inv - 1))
        assert (got - want).is_zero()

    def test_closed_matches_iterated(self):
        ctx = series_context(cfg_for(2, 1))
        tm = ctx.T_minus_I()
        power = tm * tm * tm
        closed = closed_tminus_powers(ctx, 3)
        for lhs, rhs in zip(closed.entries(), power.entries()):
            assert (lhs - rhs).is_zero()


class TestRoundTrip:
    def test_exp_of_zero(self):
        ctx = series_context(cfg_for(1, 2))
        zero = SuperMatrix(ctx.zero_te(), ctx.zero_te(), ctx.zero_te(),
                           ctx.zero_te())
        ident = exp_matrix(ctx, zero)
        assert (ident.a11 - ctx.one_te()).is_zero()
        assert ident.a12.is_zero()

    def test_exp_log_inverse_pair(self):
        cfg = cfg_for(1, -3)
        ctx = series_context(cfg)
        hx, hmu, hnu, hy = m_entries_scaled(ctx)
        rebuilt = exp_matrix(ctx, SuperMatrix(hx, hmu, hnu, hy))
        target = ctx.T_affine()
        for lhs, rhs in zip(rebuilt.entries(), target.entries()):
            diff = lhs - rhs
            assert diff.prec >= cfg.N
            assert diff.is_zero()


class TestClosedFormEquality:
    def test_closed_entries_equal_log_series(self):
        cfg = cfg_for(3, -1)
        ctx = series_context(cfg)
        ln_mat = log_partial_sums(ctx)
        hx, hmu, hnu, hy = m_entries_scaled(ctx)
        for closed, entry in ((hx, ln_mat.a11), (hmu, ln_mat.a12),
                              (hnu, ln_mat.a21), (hy, ln_mat.a22)):
            diff = closed - entry
            assert diff.prec >= cfg.N
            assert diff.is_zero()

    def test_log_T_and_m_from_T_agree(self):
        cfg = cfg_for(1, 2)
        lhs = m_from_T(cfg)
        rhs = log_T(cfg)
        for a, b in zip(lhs.entries(), rhs.entries()):
            assert (a - b).is_zero()


def test_suite_on_equal_ray_includes_specialization():
    rep = verify_series(cfg_for(1, 1))
    assert rep.ok
    ids = {c.id for c in rep.checks}
    assert "specialize.phi" in ids and "specialize.bracket" in ids


def test_precision_bookkeeping():
    cfg = cfg_for(1, 2)
    ctx = series_context(cfg)
    a = ctx.one_te() + ctx.A
    # dividing by the t-valuation-one scalar h costs one weight order
    scaled = a.smul(ctx.h_inv)
    assert scaled.prec == a.prec - 1
    # multiplying by h recovers nothing beyond the tracked window
    back = scaled.smul(ctx.h)
    assert back.prec <= a.prec
    assert (back - a).is_zero()
    # a coefficient that knows less than the weight window lowers the
    # element bound accordingly
    shallow = ctx.scalar_te(ctx.one_tl.with_cap(3))
    assert shallow.prec == 3


class TestElementContract:
    def test_series_elements_are_elements(self):
        ctx = series_context(cfg_for(1, 2))
        assert isinstance(ctx.A, Element)
        assert print_element(ctx.A + ctx.beta) == "A + beta"

    def test_window_equality_has_no_hash(self):
        ctx = series_context(cfg_for(1, 2))
        te = ctx.one_te() + ctx.A
        with pytest.raises(TypeError):
            hash(te)
        # equal on the smaller window, though the stored data differ
        shallow = TruncElement(ctx, te, 1)
        assert shallow == te and trunc_dump(shallow) != trunc_dump(te)
        # another ray is another presentation: unequal, not an error
        assert ctx.A != series_context(cfg_for(2, 1)).A

    def test_arithmetic_keeps_the_window(self):
        ctx = series_context(cfg_for(1, 2))
        te = ctx.one_te() + ctx.A
        for out in (te + ctx.D, te - ctx.D, -te, te * ctx.beta,
                    te.smul(ctx.h_inv), te ** 2, te ** -1):
            assert type(out) is TruncElement and out.ctx is ctx
        assert (te - te).prec == te.prec


class TestWindowRule:
    def test_shallow_window_fails_before_zero_test(self):
        # the difference is zero on its window, but the window is
        # shallower than the adic order N = 6
        cfg = cfg_for(1, 2)
        ctx = series_context(cfg)
        shallow = Identity("shallow", "zero on a too-shallow window",
                           ctx.scalar_te(ctx.one_tl.with_cap(3)), ctx.one_te())
        rep = verify_series(cfg, [shallow])
        assert [(c.status, c.witness) for c in rep.checks] == [
            ("fail", "window 3 below required 6")]

    def test_deep_nonzero_difference_fails_with_its_normal_form(self):
        cfg = cfg_for(1, 2)
        ctx = series_context(cfg)
        lhs, rhs = ctx.A * ctx.beta, ctx.beta * ctx.A
        assert (lhs - rhs).prec >= cfg.N
        rep = verify_series(cfg, [Identity("swap", "A*beta = beta*A",
                                           lhs, rhs)])
        assert [(c.status, c.witness) for c in rep.checks] == [
            ("fail", print_element(lhs - rhs))]


# -- the window-pruned product against the naive one ------------------------

PRUNE_CTX = series_context(cfg_for(1, 2))

_coeffs = st.builds(
    lambda lead, nums, den: TruncLaurent(lead, nums, den, PRUNE_CTX.K),
    st.integers(-3, PRUNE_CTX.W),
    st.lists(st.integers(-3, 3), min_size=1, max_size=4),
    st.integers(1, 3))
_monos = st.tuples(st.integers(0, 3), st.integers(0, 3),
                   st.integers(0, 1), st.integers(0, 1))
_trunc_elements = st.builds(
    lambda terms, prec: TruncElement(
        PRUNE_CTX,
        Element(PRUNE_CTX.pres,
                {m: c for m, c in terms.items() if not c.is_zero()}),
        prec),
    st.dictionaries(_monos, _coeffs, max_size=6),
    st.integers(0, PRUNE_CTX.W))


@settings(max_examples=150, deadline=None)
@given(_trunc_elements, _trunc_elements)
def test_pruned_product_matches_naive(a, b):
    assert trunc_dump(a * b) == trunc_dump(naive_product(a, b))


# -- the graded solve and the embedding of the even prefactors --------------

EVEN = PRUNE_CTX.even
_nonzero_coeffs = _coeffs.filter(lambda c: not c.is_zero())


def _even_elements(min_degree):
    return st.builds(
        lambda terms: Element(EVEN, {m: c for m, c in terms.items()
                                     if not c.is_zero()}),
        st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4))
                        .filter(lambda m: sum(m) >= min_degree),
                        _coeffs, max_size=6))


@settings(max_examples=80, deadline=None)
@given(_even_elements(0), _even_elements(1), _nonzero_coeffs,
       st.integers(0, 6))
def test_even_div_solves_through_its_degree(x, tail, c0, gmax):
    # z * den - x vanishes through degree gmax; summed with plain series
    # arithmetic, since an Element drops a zero coefficient and the cap
    # that came with it
    den = tail + EVEN.scalar_elt(c0)
    z = _even_div(x, den, gmax)
    assert all(sum(m) <= gmax for m in z.terms)
    resid = {}
    for m, c in x.terms.items():
        resid[m] = -c
    for (i1, k1), c1 in z.terms.items():
        for (i2, k2), c2 in den.terms.items():
            m, c = (i1 + i2, k1 + k2), c1 * c2
            resid[m] = resid[m] + c if m in resid else c
    assert all(c.is_zero() for m, c in resid.items() if sum(m) <= gmax)


@settings(max_examples=120, deadline=None)
@given(_even_elements(0), _even_elements(1), _nonzero_coeffs,
       st.integers(0, 4))
def test_cut_even_solve_matches_the_full_one_in_its_window(x, tail, c0,
                                                           top):
    # through t^max(top - g - 1, 1 - EXPAND_MARGIN) at degree g, the
    # solve cut to the window ``top`` holds the slots of the full solve,
    # with no lower cap; later degrees read a coefficient through the
    # denominator, so its own cut must reach past that
    den = tail + EVEN.scalar_elt(c0)
    gmax = top + EXPAND_MARGIN
    full, cut = _even_div(x, den, gmax), _even_div(x, den, gmax, top)
    for m in full.terms.keys() | cut.terms.keys():
        need = max(top - sum(m) - 1, 1 - EXPAND_MARGIN)
        a, b = full.terms.get(m), cut.terms.get(m)
        if a is not None and b is not None:
            assert b.cap >= min(a.cap, need)
        both = [c for c in (a, b) if c is not None]
        known = min(need, *(c.cap for c in both))
        for e in range(min(c.lead for c in both), known + 1):
            assert (a.coefficient(e) if a else 0) == \
                (b.coefficient(e) if b else 0)


def test_even_div_keeps_the_cap_of_a_cancelled_coefficient():
    # the A*D slice cancels to zero, known only through t^3; the A*D^2
    # coefficient that reads it is known through t^4, not t^6
    ev = series_context(SeriesConfig(1, 2)).even
    num = Element(ev, {(1, 0): TruncLaurent(-1, (-1,), 1, 6),
                       (2, 0): TruncLaurent(-1, (1,), 1, 2),
                       (1, 1): TruncLaurent(-1, (-2,), 1, 7)})
    den = Element(ev, {(0, 0): TruncLaurent(0, (1,), 1, 10),
                       (0, 1): TruncLaurent(0, (2,), 1, 5),
                       (0, 2): TruncLaurent(2, (-1, 0, 1), 1, 7)})
    c = _even_div(num, den, 3).terms[(1, 2)]
    assert (c.lead, c.nums, c.den, c.cap) == (1, (-1, 0, 1), 1, 4)


def test_even_div_needs_a_constant_term():
    num = EVEN.one_elt() + EVEN.gen("D")
    with pytest.raises(TruncationUnderflow, match="no constant term"):
        _even_div(num, EVEN.gen("A") + EVEN.gen("D"), 4)


def test_embed_rejects_a_too_singular_expansion():
    ctx = PRUNE_CTX
    lowest = ctx.even.scalar_elt(TruncLaurent.t_power(-(EXPAND_MARGIN - 1),
                                                       ctx.K))
    assert _embed(ctx, lowest, (1, 0)).terms == {
        (0, 0, 1, 0): lowest.terms[(0, 0)]}
    with pytest.raises(TruncationUnderflow, match="too singular"):
        _embed(ctx, lowest.smul(ctx.h_inv))


@pytest.mark.parametrize("n, k, weight", [(6, 12, 8), (8, 14, 10),
                                          (10, 16, 12)])
def test_cut_even_solve_leaves_the_prefactors_unchanged(n, k, weight,
                                                       monkeypatch):
    # the four closed-form entries built from the solve cut to the
    # weight window equal their build from the full solve, datum for datum
    ctxs = [series_context(SeriesConfig(*ray, N=n, K=k, weight=weight))
            for ray in DEFAULT_RAYS]

    def dump():
        return [trunc_dump(te) for ctx in ctxs for te in m_entries_scaled(ctx)]

    cut = dump()
    monkeypatch.setattr(series, "_even_div", lambda num, den, gmax, top:
                        _even_div(num, den, gmax))
    assert cut == dump()


def test_cut_even_solve_keeps_the_guard():
    # at the top degree the window would cut z to t^-5; the floor keeps
    # it through t^-3, so the t^-4 slot still reaches the guard of _embed
    ctx = PRUNE_CTX
    gmax = ctx.W + EXPAND_MARGIN
    t = TruncLaurent.t_power(1, ctx.K)
    den = EVEN.scalar_elt(t) + EVEN.gen("D")
    for v, singular in ((-3, False), (-4, True)):
        num = Element(EVEN, {(gmax, 0): TruncLaurent.t_power(v + 1, ctx.K)})
        z = _even_div(num, den, gmax, ctx.W)
        c = z.terms[(gmax, 0)]
        assert (c.lead, c.nums, c.cap) == (v, (1,), 1 - EXPAND_MARGIN)
        if singular:
            with pytest.raises(TruncationUnderflow, match="too singular"):
                _embed(ctx, z, (1, 0))
        else:
            assert _embed(ctx, z, (1, 0)).is_zero()     # past the window


@pytest.mark.parametrize("ray", DEFAULT_RAYS, ids=lambda r: f"{r[0]},{r[1]}")
def test_identities_match_naive_product_and_power(ray, monkeypatch):
    # every identity operand, built with the pruned product and
    # square-and-multiply powers, equals its naive build datum for datum
    cfg = SeriesConfig(*ray, N=4, K=7, weight=6)

    def dump():
        return [(i.id, trunc_dump(i.lhs), trunc_dump(i.rhs))
                for i in series_identities(cfg)]

    fast = dump()
    monkeypatch.setattr(TruncElement, "__mul__", naive_product)
    monkeypatch.setattr(TruncElement, "__pow__", naive_power)
    assert fast == dump()


# -- the weight-capped word products against uncapped ones ------------------


@pytest.mark.parametrize("ray", DEFAULT_RAYS[:2], ids=lambda r: f"{r[0]},{r[1]}")
def test_weight_cap_leaves_identities_unchanged(ray, monkeypatch):
    # at the default N, K and weight, every identity operand built from
    # capped word products equals its build from the full ones
    cfg = SeriesConfig(*ray)

    def dump():
        return [(i.id, trunc_dump(i.lhs), trunc_dump(i.rhs))
                for i in series_identities(cfg)]

    tops = set()
    word_product = Presentation.word_product
    affine = series_context(cfg).pres.corrections

    def recording(pres, m1, m2):
        # the even prefactors live in a presentation of their own, with
        # no rules and no weight cap
        if pres.corrections is affine:
            tops.add(pres.top)
        return word_product(pres, m1, m2)

    with monkeypatch.context() as m:
        m.setattr(Presentation, "word_product", recording)
        capped = dump()
    # every product of the affine rules read its words from a capped view
    assert tops and None not in tops
    monkeypatch.setattr(Presentation, "capped", lambda pres, top: pres)
    assert capped == dump()


def test_capped_view_shares_rules_not_caches():
    pres = PRUNE_CTX.pres
    view = pres.capped(PRUNE_CTX.W + 1)
    assert pres.capped(PRUNE_CTX.W + 1) is view and view is not pres
    assert view.corrections is pres.corrections
    assert view._word_cache is not pres._word_cache
    one = pres.one
    # beta.A^3 rewrites into four terms; their scalars keep t^(top - deg)
    for mono, lam in view.word_product((0, 0, 1, 0), (3, 0, 0, 0)):
        assert lam is one or lam.cap <= view.top - sum(mono)
    full = dict(pres.word_product((0, 0, 1, 0), (3, 0, 0, 0)))
    for mono, lam in view.word_product((0, 0, 1, 0), (3, 0, 0, 0)):
        assert (lam - full[mono]).is_zero()
    # a canonical concatenation keeps the uncapped unit
    assert view.word_product((1, 0, 0, 0), (0, 1, 0, 0)) == (
        ((1, 1, 0, 0), one),)
