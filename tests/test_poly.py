import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from glpq import poly
from glpq.errors import (DivisionBudgetExceeded, ExponentOutOfRange,
                         GcdBudgetExceeded)
from glpq.mside import verify_mside
from glpq.poly import EXPONENT_BOUND, Pol, SymbolSet, poly_gcd

from helpers import naive_divexact, naive_subst

PQ = SymbolSet(["p", "q"])


def sym(name, e=1):
    return Pol.symbol(PQ, name, e)


def const(c):
    return Pol.const(PQ, c)


def test_basic_ring_ops():
    p, q = sym("p"), sym("q")
    f = p * q - const(1)
    g = p + q
    assert (f + g) - g == f
    assert f * g == g * f
    assert (f * g).divexact(g) == f
    assert str(const(0)) == "0"


def test_pow_and_leading():
    p, q = sym("p"), sym("q")
    f = (p - q) ** 3
    e, c = f.leading()
    assert c == 1 and PQ.unpack(e) == (3, 0)


def test_divexact_raises_on_inexact():
    p, q = sym("p"), sym("q")
    with pytest.raises(ArithmeticError):
        (p * q + const(1)).divexact(p)


def test_gcd_cyclotomic_style():
    # (pq)^N - 1 is divisible by pq - 1
    p, q = sym("p"), sym("q")
    pq = p * q
    for n in range(1, 7):
        f = pq ** n - const(1)
        g = pq - const(1)
        assert poly_gcd(f, g) == g
        quotient = f.divexact(g)
        assert quotient * g == f


def test_gcd_monomial_fast_path():
    p, q = sym("p"), sym("q")
    f = (p ** 2) * q * const(6)
    g = p * (q ** 3) * const(4)
    assert poly_gcd(f, g) == p * q * const(2)


def test_gcd_with_common_factor():
    p, q = sym("p"), sym("q")
    common = p * q - const(1)
    f = common * (p + const(2))
    g = common * (q - const(3))
    h = poly_gcd(f, g)
    assert h == common
    assert f.divexact(h) == p + const(2)


def _random_pol(rng, nterms=3, deg=3, coeff=5):
    terms = {}
    for _ in range(rng.randint(0, nterms)):
        e = (rng.randint(0, deg), rng.randint(0, deg))
        terms[e] = terms.get(e, 0) + rng.randint(-coeff, coeff)
    return Pol(PQ, terms)


def test_gcd_randomized_divides():
    rng = random.Random(7)
    for _ in range(120):
        f, g = _random_pol(rng), _random_pol(rng)
        h = poly_gcd(f, g)
        if h.is_zero():
            assert f.is_zero() and g.is_zero()
            continue
        assert f.divexact(h) * h == f
        assert g.divexact(h) * h == g


def test_subst_shift():
    xy = SymbolSet(["x", "y", "c"])
    x = Pol.symbol(xy, "x")
    c = Pol.symbol(xy, "c")
    f = x ** 2
    shifted = f.subst({"x": x + c})
    assert shifted == x ** 2 + (x * c).mul_int(2) + c ** 2


XYC = SymbolSet(["x", "y", "c"])
_laurent_terms = st.dictionaries(
    st.tuples(*[st.integers(-2, 2)] * 3), st.integers(-3, 3), max_size=3)


@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3),
                                 st.integers(-3, 3)),
                       st.integers(-4, 4), max_size=6),
       st.dictionaries(st.sampled_from(["x", "y"]), _laurent_terms,
                       max_size=2))
@settings(max_examples=200)
def test_subst_matches_term_by_term(f, mapping):
    # the unmapped c keeps negative exponents; mapped values are Laurent
    f = Pol(XYC, f)
    mapping = {name: Pol(XYC, terms) for name, terms in mapping.items()}
    assert f.subst(mapping) == naive_subst(f, mapping)


def test_subst_rejects_negative_mapped_exponent():
    x = Pol.symbol(XYC, "x")
    with pytest.raises(ValueError, match="negative exponent"):
        (Pol.symbol(XYC, "y") + Pol.symbol(XYC, "x", -1)).subst({"x": x})


@given(st.integers(-9, 9), st.integers(-9, 9), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=60)
def test_eval_matches_structure(a, b, i, j):
    f = Pol(PQ, {(i, j): a, (0, 1): b}) if (i, j) != (0, 1) else Pol(PQ, {(i, j): a + b})
    val = f.eval_float({"p": 2.0, "q": 3.0})
    expect = sum(c * 2.0 ** e[0] * 3.0 ** e[1]
                 for e, c in ((PQ.unpack(k), c) for k, c in f.terms.items()))
    assert abs(val - expect) < 1e-9


# -- packed exponent keys ------------------------------------------------------

PQSF = SymbolSet(["p", "q", "s", "phi"])
exponents = st.integers(-EXPONENT_BOUND, EXPONENT_BOUND - 1)
small_exponents = st.integers(-3, 3)


def _graded_lex(e):
    return (sum(e), e)


@given(st.lists(exponents, min_size=4, max_size=4))
@settings(max_examples=200)
def test_pack_unpack_round_trip(exps):
    exps = tuple(exps)
    key = PQSF.pack(exps)
    assert PQSF.unpack(key) == exps
    assert Pol(PQSF, {exps: 3}).terms == {key: 3}


@given(st.lists(st.tuples(*[st.one_of(small_exponents, exponents)] * 4),
                min_size=1, max_size=8))
@settings(max_examples=200)
def test_integer_order_is_graded_lex(vectors):
    keys = {PQSF.pack(e): e for e in vectors}
    assert keys[max(keys)] == max(vectors, key=_graded_lex)
    assert [keys[k] for k in sorted(keys)] == sorted(set(vectors),
                                                     key=_graded_lex)


@given(st.dictionaries(st.tuples(*[small_exponents] * 4), st.integers(-3, 3),
                       max_size=4),
       st.dictionaries(st.tuples(*[small_exponents] * 4), st.integers(-3, 3),
                       max_size=4))
@settings(max_examples=150)
def test_laurent_product_matches_tuple_convolution(a, b):
    want = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            want[e] = want.get(e, 0) + c1 * c2
    assert Pol(PQSF, a) * Pol(PQSF, b) == Pol(PQSF, want)


def test_exponents_outside_the_bound_are_rejected():
    edge = EXPONENT_BOUND - 1
    p_edge = Pol(PQ, {(edge, 0): 1})
    p_low = Pol(PQ, {(0, -EXPONENT_BOUND): 1})
    for exps in ((EXPONENT_BOUND, 0), (0, -EXPONENT_BOUND - 1)):
        with pytest.raises(ExponentOutOfRange):
            Pol(PQ, {exps: 1})
    with pytest.raises(ExponentOutOfRange):
        sym("p", EXPONENT_BOUND)
    # a product that would carry out of a field is refused, by the
    # single-term shift, by the convolution and by a power
    for f, g in ((p_edge, sym("p")), (p_edge + const(1), sym("p") + sym("q")),
                 (p_low, sym("q", -1) - const(2))):
        with pytest.raises(ExponentOutOfRange):
            f * g
    with pytest.raises(ExponentOutOfRange):
        sym("q", 1 << 20) ** (1 << 18)
    # right at the edge, nothing carries
    assert PQ.unpack(max((p_edge * sym("q", -1)).terms)) == (edge, -1)
    assert PQ.unpack(max((p_low * sym("p", edge)).terms)) == \
        (edge, -EXPONENT_BOUND)


def test_laurent_leading_term():
    p, q = sym("p"), sym("q")
    k, c = (p ** 2 - sym("q", -3)).leading()
    assert PQ.unpack(k) == (2, 0) and c == 1
    k, c = (sym("p", -1) - q * sym("p", -2)).leading()
    assert PQ.unpack(k) == (-1, 0) and c == 1


# -- in-place exact division against the step-by-step loop -------------------

_EDGE = st.sampled_from([-EXPONENT_BOUND, -EXPONENT_BOUND + 1,
                         EXPONENT_BOUND - 2, EXPONENT_BOUND - 1])
_laurent_dicts = st.dictionaries(st.tuples(*[st.integers(-2, 2)] * 3),
                                 st.integers(-3, 3).filter(bool),
                                 min_size=1, max_size=4)
_several_terms = st.dictionaries(st.tuples(*[st.integers(-2, 2)] * 3),
                                 st.integers(-3, 3).filter(bool),
                                 min_size=2, max_size=4)
_divisors = st.one_of(
    st.integers(-3, 3).filter(bool).map(lambda c: {(0, 0, 0): c}),
    st.tuples(st.tuples(*[st.integers(-2, 2)] * 3),
              st.integers(-3, 3).filter(bool)).map(lambda kc: dict([kc])),
    _several_terms, _several_terms, _several_terms)


def _division(fn, f, g):
    try:
        return "ok", fn(f, g)
    except (ArithmeticError, ExponentOutOfRange) as exc:
        return type(exc), str(exc)


_quotients = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3),
                             st.integers(-3, 3).filter(bool),
                             min_size=1, max_size=4)


@given(g=_divisors, q=_quotients,
       how=st.sampled_from(["exact", "inexact", "coefficient", "laurent",
                            "edge"]),
       extra=_laurent_dicts,
       edge=st.tuples(_EDGE, st.integers(-2, 2), st.integers(-2, 2)))
@settings(max_examples=500, deadline=None, derandomize=True)
def test_divexact_matches_the_step_loop(g, q, how, extra, edge):
    # exact and inexact quotients; constant, monomial and Laurent
    # divisors; quotients with a negative exponent or with one at the
    # edge of the bound: the same quotient or the same error
    g, q = Pol(XYC, g), Pol(XYC, q)
    if how == "laurent":
        q = q * Pol(XYC, extra)
    try:
        if how == "edge":
            q = q * Pol(XYC, {edge: 1})
        f = g * q
    except ExponentOutOfRange:
        assume(False)
    if how == "inexact":
        f = f + Pol(XYC, extra)
    elif how == "coefficient":
        # a leading coefficient that the divisor's may not divide
        f = f + Pol(XYC, {XYC.unpack(max(f.terms)): 1})
    assert _division(Pol.divexact, f, g) == _division(naive_divexact, f, g)


@pytest.mark.parametrize("f, g, error", [
    # the quotient key p^(B-1) is inside the bound, the remainder key p^B
    # that its step would store is not
    (sym("p", EXPONENT_BOUND - 1) * sym("q", 3), sym("q", 3) + sym("p"),
     ExponentOutOfRange),
    # the quotient key p^(B+1) itself is past the bound
    (sym("p", EXPONENT_BOUND - 1), sym("p", -2) + sym("q", -3),
     ExponentOutOfRange),
    # a quotient key with a negative exponent
    (sym("q", -EXPONENT_BOUND) * sym("p"), sym("p") + sym("q", -1),
     ArithmeticError),
    (sym("p", 2) + sym("q"), sym("p") + const(1), ArithmeticError),
    ((sym("p") + const(1)) * sym("q", EXPONENT_BOUND - 2),
     sym("p") + const(1), None),
])
def test_divexact_at_the_edge_of_the_bound(f, g, error):
    assert _division(Pol.divexact, f, g) == _division(naive_divexact, f, g)
    if error is None:
        assert f.divexact(g) * g == f
    else:
        with pytest.raises(error):
            f.divexact(g)


# -- the gcd work budget ------------------------------------------------------


def _stall_pair():
    """The operands of the README's stall input, over p, q, s, phi."""
    syms = SymbolSet(["p", "q", "s", "phi"])
    p, q, s, phi = (Pol.symbol(syms, n) for n in syms.names)
    num = (p * q * s ** 2 * phi ** 2 - p ** 2 * s - q * s) * \
        (p * q * s ** 2 - p ** 2 * q ** 2 * s * phi ** 2 - phi)
    den = Pol.const(syms, 18) * q ** 2 * phi ** 2 * (p * s + q * phi) ** 2
    return num, den


def test_gcd_over_its_budget_raises(monkeypatch):
    with pytest.raises(GcdBudgetExceeded, match="more than 10000 steps"):
        poly_gcd(*_stall_pair())
    # a pseudo-remainder of any degree is one unit
    assert poly_gcd(sym("p", 12288) + const(1), sym("p") + const(1)) == \
        const(1)
    # this gcd spends 4 units, and each top-level call gets the whole
    # budget afresh
    f = sym("p") ** 2 - const(1)
    g = sym("p") ** 2 + sym("p") * const(2) + const(1)
    monkeypatch.setattr(poly, "GCD_BUDGET", 4)
    for _ in range(3):
        assert poly_gcd(f, g) == sym("p") + const(1)
    monkeypatch.setattr(poly, "GCD_BUDGET", 3)
    with pytest.raises(GcdBudgetExceeded):
        poly_gcd(f, g)


def test_suites_spend_a_hundredth_of_the_budget(monkeypatch):
    # the budget stays at least 100 times the most that any gcd of the
    # mside suite spends (the tside suites reduce no gcd by the PRS)
    spent = []
    inner = poly._gcd

    def counting(f, g, budget):
        top = budget[0] == poly.GCD_BUDGET
        h = inner(f, g, budget)
        if top:
            spent.append(poly.GCD_BUDGET - budget[0])
        return h

    monkeypatch.setattr(poly, "_gcd", counting)
    assert verify_mside(12).ok
    assert spent and max(spent) * 100 <= poly.GCD_BUDGET


# -- the exact-division work budget ---------------------------------------


def test_division_over_its_budget_raises(monkeypatch):
    # p^12 - 1 over p - 1: twelve quotient terms, each one unit per term
    # of the two-term divisor, so 24 units
    f, g = sym("p", 12) - const(1), sym("p") - const(1)
    want = sum((sym("p", k) for k in range(1, 12)), const(1))
    monkeypatch.setattr(poly, "DIVISION_BUDGET", 24)
    for _ in range(2):        # each call gets the whole budget afresh
        assert f.divexact(g) == want
    monkeypatch.setattr(poly, "DIVISION_BUDGET", 23)
    with pytest.raises(DivisionBudgetExceeded, match="more than 23 term"):
        f.divexact(g)
    # a monomial or constant divisor takes no long division
    assert (f * sym("q", 3)).divexact(sym("q", 3)) == f


def test_suites_divide_within_a_fortieth_of_the_budget(monkeypatch):
    # no long division of the mside suite (up to n_max = 24, the most
    # 20,700 units) comes near the budget
    monkeypatch.setattr(poly, "DIVISION_BUDGET", poly.DIVISION_BUDGET // 40)
    assert verify_mside(12).ok
