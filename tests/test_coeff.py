import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glpq import poly
from glpq.coeff import (RatFunc, TruncLaurent, add_laurent_products,
                         settle_laurent_sums)
from glpq.errors import (DivisionByZero, MissingSymbol, NearPoleEvaluation,
                         NotAUnit, TruncationUnderflow)
from glpq.poly import Pol, SymbolSet, cofactors, poly_gcd

from helpers import (laurent_dump, naive_laurent_add, naive_laurent_mul,
                     naive_ratfunc, naive_ratfunc_add, naive_ratfunc_mul)

PQ = SymbolSet(["p", "q"])


def r_sym(name, e=1):
    return RatFunc.symbol(PQ, name, e)


def r_const(c):
    return RatFunc.const(PQ, c)


class TestRatFunc:
    def test_field_roundtrip(self):
        # (p - q^-1) * q / q returns the canonical original
        f = r_sym("p") - r_sym("q", -1)
        q = r_sym("q")
        assert (f * q) / q == f
        assert str(f * q) == "p*q - 1"

    def test_bracket_reduction(self):
        # (1 - (pq)^-2)/(1 - (pq)^-1) reduces to 1 + (pq)^-1
        pq = r_sym("p") * r_sym("q")
        one = r_const(1)
        lhs = (one - pq ** -2) / (one - pq ** -1)
        assert lhs == one + pq ** -1

    def test_eval_numeric(self):
        f = (r_sym("p") * r_sym("q") - r_const(1)) / (r_sym("p") - r_sym("q", -1))
        assert abs(f.eval_float({"p": 2.0, "q": 3.0}) - 3.0) < 1e-12
        pq = r_sym("p") * r_sym("q")
        bracket2 = r_const(1) + pq ** -1
        assert abs(bracket2.eval_float({"p": 2.0, "q": 2.0}) - 1.25) < 1e-12
        assert r_const(0).eval_float({"p": 1.0, "q": 5.0}) == 0.0

    def test_near_pole_guard(self):
        f = r_const(1) / (r_sym("p") * r_sym("q") - r_const(1))
        with pytest.raises(NearPoleEvaluation):
            f.eval_float({"p": 2.0, "q": 0.5 + 1e-9})

    def test_missing_symbol(self):
        with pytest.raises(MissingSymbol):
            r_sym("p").eval_float({"q": 1.0})

    def test_zero_division(self):
        with pytest.raises(DivisionByZero):
            r_sym("p") / r_const(0)

    def test_canonical_soundness_random(self):
        rng = random.Random(11)

        def rand_rf():
            num = Pol(PQ, {(rng.randint(0, 2), rng.randint(0, 2)):
                           rng.randint(-4, 4) for _ in range(rng.randint(1, 3))})
            den = Pol(PQ, {(rng.randint(0, 2), rng.randint(0, 2)):
                           rng.randint(-4, 4) for _ in range(rng.randint(1, 3))})
            if den.is_zero():
                den = Pol.const(PQ, 1)
            return RatFunc(num, den)

        for _ in range(150):
            a, b = rand_rf(), rand_rf()
            if b.is_zero():
                continue
            assert (a * b) / b == a

    @given(st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=60)
    def test_eval_homomorphism(self, a, b, c, d):
        x = r_const(Fraction(a, c))
        y = r_sym("p") * Fraction(b, d) + r_sym("q", -1)
        assign = {"p": 1.7, "q": 2.3}
        got = (x * y + y).eval_float(assign)
        want = x.eval_float(assign) * y.eval_float(assign) + y.eval_float(assign)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


# -- fast reductions against the reference reduction ---------------------------
#
# The reference runs the PRS gcd on full products, and that PRS slows
# down sharply as degrees grow in four variables: one product with the
# denominator 72*p^4*s*phi^4*(s + phi)^2 took more than 2 s.  The
# operands are therefore kept small, and the examples are derandomized
# so that every run checks the same set in bounded time.  Negative
# exponents stop at -1: the reference works on the cleared polynomial
# pair, and with -2 in all four variables a single PRS took minutes.

PQSF = SymbolSet(["p", "q", "s", "phi"])
_P, _Q, _S, _PHI = (Pol.symbol(PQSF, n) for n in PQSF.names)
_ONE, _TWO = Pol.const(PQSF, 1), Pol.const(PQSF, 2)
# factors of the shapes the suites meet: p*q - 1 (q - p^-1 and p - q^-1
# cleared of their monomials), s + phi, s - psi with psi = 2 - phi, and
# three others
_FACTORS = (_P * _Q - _ONE, _P - _Q, _S + _PHI, _S + _PHI - _TWO,
            _P * _S + _Q * _PHI, _ONE + _P * _P)


@st.composite
def sparse_pols(draw, min_exp=0):
    """Up to three random terms; may be zero.  With ``min_exp < 0`` a
    Laurent polynomial."""
    exps = st.tuples(*[st.integers(min_exp, 2)] * len(PQSF))
    return Pol(PQSF, draw(st.dictionaries(exps, st.integers(-3, 3),
                                          min_size=1, max_size=3)))


@st.composite
def monomials(draw, max_exp=2, min_exp=0):
    exps = tuple(draw(st.integers(min_exp, max_exp)) for _ in PQSF.names)
    return Pol(PQSF, {exps: draw(st.sampled_from((1, 2, 3, 6, -1, -4)))})


@st.composite
def factored(draw, min_factors=0, max_factors=2):
    """An integer times a few factors from the pool."""
    out = Pol.const(PQSF, draw(st.sampled_from((1, 1, 2, 3, -2, 6))))
    for i in draw(st.lists(st.integers(0, len(_FACTORS) - 1),
                           min_size=min_factors, max_size=max_factors)):
        out = out * _FACTORS[i]
    return out


@st.composite
def num_den(draw):
    """A numerator and denominator pair, not reduced, by denominator shape:
    none, an integer, one term (Laurent monomials, often with integer
    content), a product of factors, or one that divides the numerator.
    Numerators and single-term denominators may carry negative
    exponents."""
    num = draw(st.one_of(sparse_pols(), sparse_pols(min_exp=-1), factored(),
                         monomials(), monomials(min_exp=-1)))
    kind = draw(st.sampled_from(("polynomial", "constant", "laurent",
                                 "general", "divides")))
    if kind == "polynomial":
        den = _ONE
    elif kind == "constant":
        den = Pol.const(PQSF, draw(st.sampled_from((2, 3, 6, -4, -1))))
    elif kind == "laurent":
        den = draw(st.one_of(monomials(), monomials(min_exp=-1)))
    elif kind == "general":
        den = draw(factored(min_factors=1, max_factors=1)) * \
            draw(monomials(max_exp=1, min_exp=draw(st.sampled_from((0, -1)))))
    else:
        den = draw(factored(min_factors=1))
        num = den * draw(st.one_of(factored(), monomials(min_exp=-1)))
    return num, den


@st.composite
def ratfunc_pairs(draw):
    """Two canonical RatFuncs; the second is sometimes derived from the
    first so that sums cancel to 0 or products to 1."""
    a = RatFunc(*draw(num_den()))
    how = draw(st.sampled_from(("free", "free", "neg", "inverse",
                                "same_den")))
    if how == "neg":
        b = -a
    elif how == "inverse" and not a.is_zero():
        b = a.inv()
    elif how == "same_den":
        b = RatFunc(draw(sparse_pols(min_exp=-1)), a.den)
    else:
        b = RatFunc(*draw(num_den()))
    return a, b


def _dump(r):
    return r.num, r.den, hash(r)


def _cleared(num, den):
    """num and den times the monomial that makes both polynomials."""
    low = den.lowest()
    if not num.is_zero():
        low = map(min, low, num.lowest())
    m = Pol(PQSF, {tuple(max(0, -e) for e in low): 1})
    return num * m, den * m


def _canonical(r):
    """The canonical-form invariants of the module docstring."""
    assert r.den.lowest() == (0,) * len(PQSF)
    assert r.den.leading()[1] > 0
    if r.is_zero():
        assert r.den.is_one()


@given(num_den())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_reduction_matches_reference(pair):
    num, den = pair
    r = RatFunc(num, den)
    _canonical(r)
    assert _dump(r) == _dump(naive_ratfunc(*_cleared(num, den)))
    assert _dump(RatFunc(*r.cleared())) == _dump(r)


@given(num_den())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_inverse_matches_constructor(pair):
    # monomial numerators take a shortcut around the constructor
    r = RatFunc(*pair)
    if r.is_zero():
        return
    got = r.inv()
    _canonical(got)
    assert _dump(got) == _dump(RatFunc(r.den, r.num, reduce=False))


@given(ratfunc_pairs())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_arithmetic_matches_reference(pair):
    a, b = pair
    for got in (a * b, a + b, a - b):
        _canonical(got)
    assert _dump(a * b) == _dump(naive_ratfunc_mul(a, b))
    assert _dump(a + b) == _dump(naive_ratfunc_add(a, b))
    assert _dump(a - b) == _dump(naive_ratfunc_add(a, -b))


@given(factored(min_factors=1), st.one_of(factored(), monomials(),
                                          sparse_pols()), st.booleans())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_exact_quotient_matches_prs(g, k, negate):
    # g has at least two terms, so f = g*k does too, and cofactors takes
    # the exact-quotient route in both argument orders, never the PRS
    if k.is_zero():
        k = _TWO
    if negate:
        g = -g
    f = g * k
    for x, y in ((f, g), (g, f)):
        h = poly_gcd(x, y)
        want = (h, x.divexact(h), y.divexact(h))
        real = poly.poly_gcd

        def refuse(*args):
            raise AssertionError("cofactors ran the PRS")
        poly.poly_gcd = refuse
        try:
            got = cofactors(x, y)
        finally:
            poly.poly_gcd = real
        assert got == want


@given(monomials(), st.one_of(monomials(), sparse_pols(), factored()),
       st.booleans())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_cofactors_with_a_single_term_operand(m, k, divides):
    # a single-term operand in both argument orders, against a free
    # operand or one it divides; the pools carry negative coefficients
    if k.is_zero():
        k = _TWO
    other = k * m if divides else k
    for x, y in ((m, other), (other, m)):
        h = poly_gcd(x, y)
        assert cofactors(x, y) == (h, x.divexact(h), y.divexact(h))


class TestScalarContracts:
    def test_constant_ratfunc_equals_and_hashes_like_its_value(self):
        one, half = r_const(1), r_const(Fraction(1, 2))
        assert one == 1 and hash(one) == hash(1)
        assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
        assert len({one, 1, Fraction(1), r_sym("p") / r_sym("p")}) == 1
        assert half != Fraction(1, 3) and r_sym("p") != Fraction(1, 2)
        # a monomial in the denominator moves into the numerator
        three_halves = RatFunc(Pol(PQ, {(1, 0): 6}), Pol(PQ, {(1, 0): 4}))
        assert three_halves == Fraction(3, 2)
        assert hash(three_halves) == hash(Fraction(3, 2))

    def test_monomial_denominator_is_a_laurent_numerator(self):
        p, pq = Pol.symbol(PQ, "p"), Pol(PQ, {(1, 1): 1})
        q_inv = RatFunc.symbol(PQ, "q", -1)
        for r in (RatFunc(p, pq), RatFunc(p, pq, reduce=False),
                  r_sym("q").inv(), r_sym("p") / (r_sym("p") * r_sym("q"))):
            assert r == q_inv and hash(r) == hash(q_inv)
            assert r.den.is_one() and str(r) == "q^-1"

    def test_laurent_declaration_is_part_of_the_symbol_set(self):
        plain, lau = SymbolSet(["x", "E"]), SymbolSet(["x", "E"], ["E"])
        assert plain != lau and hash(plain) != hash(lau)
        assert lau == SymbolSet(("x", "E"), ("E",))
        assert hash(lau) == hash(SymbolSet(("x", "E"), ("E",)))
        with pytest.raises(ValueError):
            SymbolSet(["x"], ["E"])

    def test_only_one_laurent_monomial_is_invertible(self):
        syms = SymbolSet(["x", "E"], ["E"])
        x, e = RatFunc.symbol(syms, "x"), RatFunc.symbol(syms, "E")
        assert ((x + 1) * e ** -2).inv() == e ** 2 / (x + 1)
        assert ((x + 1) * e ** -2).inv().den == (x + 1).num
        with pytest.raises(NotAUnit):
            (x + e).inv()

    def test_laurent_parts_print_and_evaluate_apart(self):
        syms = SymbolSet(["x", "E"], ["E"])
        x, e = RatFunc.symbol(syms, "x"), RatFunc.symbol(syms, "E")
        r = (x * x - 1) / (x * 2 + 2) * e ** -1 + x * e + (x + 1).inv() * 3
        assert str(r) == "(1/2*x - 1/2)*E^-1 + 3*(x + 1)^-1 + x*E"
        assert r.eval_float({"x": 3.0, "E": 2.0}) == 0.5 + 0.75 + 6.0
        with pytest.raises(NearPoleEvaluation, match="under E\\^-1"):
            r.eval_float({"x": 3.0, "E": 0.0})

    def test_trunc_laurent_is_unhashable(self):
        a = TruncLaurent.const(1, 12) + TruncLaurent.t_power(5, 12)
        b = TruncLaurent.const(1, 3)
        assert a == b
        with pytest.raises(TypeError):
            hash(a)
        with pytest.raises(TypeError):
            {a, b}


class TestTruncLaurent:
    def test_exp_product_is_one(self):
        a = TruncLaurent.exp_of(Fraction(3), cap=4)
        b = TruncLaurent.exp_of(Fraction(-3), cap=4)
        assert (a * b - 1).is_zero()

    def test_inverse_within_cap(self):
        rng = random.Random(3)
        for _ in range(80):
            lead = rng.randint(-2, 2)
            nums = [rng.randint(-5, 5) for _ in range(4)]
            if not any(nums):
                nums[0] = 1
            s = TruncLaurent(lead, nums, rng.randint(1, 4), 10)
            prod = s.inv() * s
            assert (prod - 1).is_zero()
            assert prod.cap >= 10 - 2 * abs(s.valuation())

    def test_zero_inverse_raises(self):
        with pytest.raises(TruncationUnderflow):
            TruncLaurent.zero(8).inv()

    def test_cap_tracking_through_mul(self):
        s = TruncLaurent.t_power(1, cap=6)          # t + O(t^7)
        u = TruncLaurent.const(1, cap=8)            # 1 + O(t^9)
        prod = s * u
        assert prod.cap == 6                        # limited by s itself
        prod2 = TruncLaurent.t_power(2, cap=20) * u
        assert prod2.cap == 10                      # u's error shifted by t^2
        inv = s.inv()
        assert inv.lead == -1 and inv.cap == 4

    def test_laurent_arithmetic(self):
        tinv = TruncLaurent.t_power(-1, cap=5)
        s = tinv * TruncLaurent.t_power(1, cap=5)
        assert (s - 1).is_zero()

    def test_eval_float(self):
        s = TruncLaurent.exp_of(Fraction(1), cap=12)
        assert abs(s.eval_float({"t": 0.1}) - 2.718281828459045 ** 0.1) < 1e-12

    def test_str_and_coefficient(self):
        s = TruncLaurent(-1, (1, 0, -3), 2, 6)
        assert s.coefficient(-1) == Fraction(1, 2)
        assert s.coefficient(1) == Fraction(-3, 2)
        assert "t^-1" in str(s)

    @pytest.mark.parametrize("s, text", [
        (TruncLaurent.zero(5), "0"),
        (TruncLaurent.const(3, 5), "3"),
        (TruncLaurent.t_power(1, 5), "t"),
        (TruncLaurent.t_power(-2, 5), "t^-2"),
        (TruncLaurent(0, (1, 0, 3), 2, 6), "1/2 + 3/2*t^2"),
        (TruncLaurent(-1, (-1, 2, -4), 4, 6), "-1/4*t^-1 + 1/2 - t"),
        (TruncLaurent(2, (-3, 1), 1, 6), "-3*t^2 + t^3"),
    ])
    def test_str_golden(self, s, text):
        assert str(s) == text


# zero windows, negative leads, signed denominators above 1 (the
# constructor moves the sign into the numerators) and unequal caps
_laurents = st.builds(
    TruncLaurent,
    st.integers(-4, 6),
    st.lists(st.integers(-6, 6), max_size=6),
    st.sampled_from((1, 1, 2, 3, 6, 12, -1, -4)),
    st.integers(-3, 12))


@settings(max_examples=400, deadline=None)
@given(_laurents, _laurents)
# the cap cuts the convolution where it cancels: (1 + t)(1 - t) = 1 + 0*t
@example(TruncLaurent(0, (1, 1), 1, 1), TruncLaurent(0, (1, -1), 1, 3))
@example(TruncLaurent(-1, (2, 2, 1), 3, 4), TruncLaurent(1, (1, -1), 2, 2))
def test_laurent_product_matches_constructor(a, b):
    assert laurent_dump(a * b) == laurent_dump(naive_laurent_mul(a, b))


@settings(max_examples=400, deadline=None)
@given(_laurents, _laurents)
@example(TruncLaurent.zero(3), TruncLaurent(0, (1, 2), 1, 8))
@example(TruncLaurent(0, (1, 2), 1, 8), TruncLaurent.zero(3))
@example(TruncLaurent(0, (1, 1), 1, 8), TruncLaurent(0, (-1, 1), 1, 5))
@example(TruncLaurent(0, (1, 1), 2, 8), TruncLaurent(0, (1, -1), 2, 8))
@example(TruncLaurent(4, (1, 2, 3, 4), 1, 12), TruncLaurent(0, (1,), 3, 2))
@example(TruncLaurent(0, (1, 1), 1, 4), TruncLaurent(0, (-1, -1), 1, 4))
def test_laurent_sum_matches_constructor(a, b):
    # the examples: zero operands, cancellation at the leading slot, a
    # den > 1 sum whose content cancels (1/2 + 1/2), an operand that
    # starts above the smaller cap, and a sum that cancels to zero
    assert laurent_dump(a + b) == laurent_dump(naive_laurent_add(a, b))


@settings(max_examples=400, deadline=None)
@given(_laurents, st.integers(-6, 14))
# the cut leaves a trailing zero; the cut drops the slot that kept the
# content at 1; a cap below the lead; a zero series under a new cap
@example(TruncLaurent(0, (1, 0, 2), 2, 8), 1)
@example(TruncLaurent(0, (2, 1), 4, 8), 0)
@example(TruncLaurent(3, (1, 1), 1, 8), 2)
@example(TruncLaurent.zero(3), 9)
def test_with_cap_matches_constructor(a, cap):
    assert laurent_dump(a.with_cap(cap)) == laurent_dump(
        TruncLaurent(a.lead, a.nums, a.den, cap))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.integers(-4, 6), st.integers(0, 3),
       st.lists(st.integers(-6, 6), max_size=5), st.integers(0, 3),
       st.sampled_from((1, 2, 3, 6, 12, -1, -2, -4)), st.integers(-3, 12))
# zeros at both ends, a negative den, a lead above the cap, slots all
# past the cap, and all zeros
@example(-1, 2, [3, 6], 2, -3, 8)
@example(5, 0, [1, 2], 0, 2, 3)
@example(2, 1, [0, 4], 0, -4, 2)
@example(0, 2, [], 3, -6, 4)
def test_constructor_matches_fraction_reference(lead, left, body, right,
                                                den, cap):
    nums = [0] * left + body + [0] * right
    s = TruncLaurent(lead, nums, den, cap)

    def ref(n):
        i = n - lead
        return Fraction(nums[i], den) if 0 <= i < len(nums) else 0

    for n in range(min(lead, 0) - 1, cap + 1):
        assert s.coefficient(n) == ref(n), n
    assert s.cap == cap and s.den > 0
    if s.nums:
        assert s.nums[0] and s.nums[-1]
        assert math.gcd(s.den, *s.nums) == 1
        assert s.lead + len(s.nums) - 1 <= cap
    else:
        assert (s.lead, s.den) == (cap + 1, 1)


@settings(max_examples=200, deadline=None)
@given(_laurents)
def test_negation_matches_constructor(a):
    assert laurent_dump(-a) == laurent_dump(
        TruncLaurent(a.lead, [-n for n in a.nums], a.den, a.cap))


# -- the fused multiply-accumulate of series products ------------------------

ONE = TruncLaurent.const(1, 12)
_factors = st.one_of(st.just(ONE), _laurents)
_pair_inputs = st.lists(
    st.tuples(_factors, _factors,
              st.lists(st.tuples(st.integers(0, 2), _factors), max_size=3,
                       unique_by=lambda term: term[0])),
    max_size=5)


def naive_sums(pairs):
    """Reference for the Laurent accumulator: each nonzero c1*c2*lam by
    naive_laurent_mul, ``one`` factors left out, summed per monomial by
    naive_laurent_add; sums that vanish are dropped."""
    out = {}
    for c1, c2, terms in pairs:
        for mono, lam in terms:
            factors = [f for f in (c1, c2, lam) if f is not ONE]
            if any(f.is_zero() for f in factors):
                continue
            c = ONE
            for f in factors:
                c = f if c is ONE else naive_laurent_mul(c, f)
            out[mono] = naive_laurent_add(out[mono], c) if mono in out else c
    return {m: c for m, c in out.items() if not c.is_zero()}


@settings(max_examples=400, deadline=None)
@given(_pair_inputs)
# a lone `one`, a lone c2 times a `one` term, and a lone lam; a series
# equal to 1 that is not `one` is multiplied like any other
@example([(ONE, ONE, [(0, ONE)])])
@example([(ONE, TruncLaurent(0, (1,), 1, 0),
           [(0, TruncLaurent(0, (1,), 1, 0))])])
@example([(ONE, TruncLaurent(-2, (3, 1), 2, 5), [(0, ONE)])])
@example([(ONE, ONE, [(1, TruncLaurent(1, (1,), 1, 7))])])
# zero operands leave their caps out
@example([(TruncLaurent.zero(1), ONE, [(0, ONE)]),
          (TruncLaurent(0, (1,), 1, 8), ONE, [(0, TruncLaurent.zero(2))]),
          (TruncLaurent(0, (1,), 1, 8), ONE, [(0, ONE)])])
# unequal denominators and caps, negative leads
@example([(TruncLaurent(-1, (1, 2), 3, 6), TruncLaurent(0, (1, 1), 2, 9),
           [(0, TruncLaurent(1, (1, -1), 4, 10))]),
          (TruncLaurent(-2, (5,), 6, 4), ONE,
           [(0, TruncLaurent(2, (1,), 1, 8))])])
# a partial sum cancels to zero, then a later term arrives: its cap
# still counts, and so does the cancelled pair's
@example([(TruncLaurent(0, (1, 1), 1, 3), ONE, [(0, ONE)]),
          (TruncLaurent(0, (-1, -1), 1, 5), ONE, [(0, ONE)]),
          (TruncLaurent(0, (2,), 1, 9), ONE, [(0, ONE)])])
# the leading slots cancel and the content is 1/2 of a den-4 window
@example([(TruncLaurent(0, (1, 1, 1), 4, 6), ONE, [(0, ONE)]),
          (TruncLaurent(0, (-1, 1), 4, 6), ONE, [(0, ONE)])])
def test_laurent_sums_match_naive_sums(pairs):
    windows = {}
    for c1, c2, terms in pairs:
        add_laurent_products(windows, ONE, c1, c2, terms)
    got = settle_laurent_sums(windows)
    want = naive_sums(pairs)
    assert {m: laurent_dump(c) for m, c in got.items()} == {
        m: laurent_dump(c) for m, c in want.items()}
    # a monomial whose only contribution is one coefficient keeps it
    for m, c in want.items():
        contributions = [(c1, c2, lam) for c1, c2, terms in pairs
                         for mono, lam in terms if mono == m]
        if len(contributions) == 1:
            c1, c2, lam = contributions[0]
            if sum(f is ONE for f in (c1, c2, lam)) >= 2:
                assert got[m] is c
