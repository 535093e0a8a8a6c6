"""The table-driven printer against a reference that prints one term at
a time (tests/helpers.py), and the bounds of the printer's tables."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glpq import poly
from glpq.coeff import RatFunc, TruncLaurent
from glpq.dsl import evaluate
from glpq.errors import CoefficientTooLarge
from glpq.mside import M_SYMS, mside
from glpq.nc import Element
from glpq.poly import Pol, SymbolSet
from glpq.printing import print_element
from glpq.tside import tside

from helpers import (INT_MAX_STR_DIGITS, naive_pol_str, naive_print_element,
                     naive_scalar_str)

T_SYMS = tside().syms
COEFFS = st.one_of(st.integers(-12, 12).filter(bool),
                   st.sampled_from((10**20 + 1, -(7**30))))


def pols(syms, low=-3, high=3, max_terms=4, laurent=True):
    """Polynomials over ``syms``; exponents of the Laurent symbols stay 0
    unless ``laurent``."""
    free = [i not in syms.laurent or laurent for i in range(len(syms))]
    exps = st.tuples(*(st.integers(low, high) if f else st.just(0)
                       for f in free))
    return st.dictionaries(exps, COEFFS, max_size=max_terms).map(
        lambda t: Pol(syms, t))


def ratfuncs(syms):
    """Rational functions with constant and non-constant denominators, and
    over M_SYMS numerators with several E monomials."""
    const_den = st.integers(1, 36).map(lambda c: Pol.const(syms, c))
    dens = st.one_of(const_den, pols(syms, 0, 2, 3, laurent=False)
                     .filter(lambda p: not p.is_zero()))
    return st.builds(lambda n, d: RatFunc(n, d), pols(syms), dens)


def laurents():
    """Truncated series: zero, negative leads, several denominators."""
    return st.builds(
        lambda lead, nums, den, extra: TruncLaurent(
            lead, nums, den, lead + len(nums) + extra),
        st.integers(-5, 4), st.lists(st.integers(-30, 30), max_size=6),
        st.integers(-24, 24).filter(bool), st.integers(-3, 4))


class TestAgainstTheReference:
    @settings(max_examples=300, deadline=None)
    @given(pols(SymbolSet(("x", "y", "z"))))
    def test_polynomial(self, p):
        assert str(p) == naive_pol_str(p)

    @settings(max_examples=200, deadline=None)
    @given(ratfuncs(T_SYMS))
    def test_rational_function(self, r):
        assert str(r) == naive_scalar_str(r)

    @settings(max_examples=200, deadline=None)
    @given(ratfuncs(M_SYMS))
    def test_rational_function_with_e_parts(self, r):
        assert str(r) == naive_scalar_str(r)

    @settings(max_examples=300, deadline=None)
    @given(laurents())
    def test_truncated_series(self, s):
        assert str(s) == naive_scalar_str(s)

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(
        st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(0, 1),
                  st.integers(0, 1)),
        ratfuncs(T_SYMS).filter(lambda r: not r.is_zero()), max_size=5))
    def test_tside_element(self, terms):
        e = Element(tside().pres, terms)
        assert print_element(e) == naive_print_element(e)

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(
        st.tuples(st.integers(0, 1), st.integers(0, 1)),
        ratfuncs(M_SYMS).filter(lambda r: not r.is_zero()), max_size=4))
    def test_mside_element(self, terms):
        e = Element(mside().pres, terms)
        assert print_element(e) == naive_print_element(e)

    @pytest.mark.parametrize("ctx, text", [
        ("tside", "-(p - q)^-1*a + 3/2*(p*q - 1)*d - (p + q^-1)*beta"),
        ("mside", "-(x - y + phi)^-1*E1^-1*mu + (E1 - 2*E2)*nu - 7/3"),
        ("series", "-t^-2*A - (1 + t)^-1*beta + (t + t^2)^-1*D*gamma"),
        ("series", "-5/4*t^-3 + t^2*A - 0*D")])
    def test_printed_answers(self, ctx, text):
        e = evaluate(text, ctx)
        assert print_element(e) == naive_print_element(e)


class TestTableBounds:
    def test_symbol_set_table(self):
        syms = SymbolSet(("u", "v"))
        p = Pol(syms, {(i, j): i - j or 1 for i in range(-35, 35)
                       for j in range(-35, 35)})
        assert len(p.terms) > poly.PRINT_TABLE_SIZE
        assert str(p) == naive_pol_str(p)
        assert 0 < len(syms.strs) <= poly.PRINT_TABLE_SIZE

    def test_presentation_table(self):
        ctx = tside()
        one = ctx.pres.one
        e = Element(ctx.pres, {(i, j, b, 0): one for i in range(-25, 25)
                               for j in range(-25, 25) for b in (0, 1)})
        assert len(e.terms) > poly.PRINT_TABLE_SIZE
        assert print_element(e) == naive_print_element(e)
        assert 0 < len(ctx.pres.print_table) <= poly.PRINT_TABLE_SIZE
        # the refilled table prints a later element as the reference does
        e = evaluate("(a + d^-1 + beta)^3", "tside")
        assert print_element(e) == naive_print_element(e)


@pytest.mark.skipif(INT_MAX_STR_DIGITS is None,
                    reason="str() has no digit limit here")
class TestCoefficientTooLarge:
    @pytest.mark.parametrize("value", [
        RatFunc.const(T_SYMS, 2**20000),
        RatFunc(Pol.const(T_SYMS, 1), Pol.const(T_SYMS, 3**10000)),
        RatFunc(Pol.const(T_SYMS, 1),
                Pol(T_SYMS, {(1, 0): 1, (0, 0): 2**20000})),
        RatFunc.symbol(T_SYMS, "p") * RatFunc.const(T_SYMS, -(2**20000)),
        TruncLaurent.const(2**20000),
        TruncLaurent(-1, (1, 2), 2**20000 + 1, 3)])
    def test_typed_error(self, value):
        with pytest.raises(CoefficientTooLarge, match="too large to print"):
            str(value)
