import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glpq.coeff import RatFunc, TruncLaurent
from glpq.errors import NonInvertibleNegativePower, NotAUnit, PresentationMismatch
from glpq.nc import (Element, Presentation, anticommutator, commutator,
                     invert_even_unit)
from glpq.mside import M_SYMS, MSide, mside, verify_mside
from glpq.poly import SymbolSet
from glpq.printing import print_element
from glpq.series import (DEFAULT_RAYS, SeriesConfig, SeriesContext,
                         series_context, series_identities)
from glpq.tside import (TSide, tside, verify_appendix, verify_section2,
                        verify_section3)

from helpers import (laurent_dump, mono_units, naive_element_product,
                     naive_normal_form, random_element, random_word,
                     renormalize, random_homogeneous)


class TestNormalize:
    def test_da_reordering(self):
        ctx = tside()
        got = ctx.word([("d", 1), ("a", 1)])
        want = ctx.a * ctx.d + (ctx.beta * ctx.gamma).smul(ctx.q - ctx.p_inv)
        assert got == want

    def test_beta_a_twist(self):
        ctx = tside()
        assert ctx.word([("beta", 1), ("a", 1)]) == \
            (ctx.a * ctx.beta).smul(ctx.q_inv)

    def test_odd_square_is_zero(self):
        ctx = tside()
        assert ctx.word([("beta", 2)]).is_zero()
        assert (ctx.gamma * ctx.gamma).is_zero()

    def test_twist_bookkeeping_through_inverses(self):
        # beta.d^-1.gamma.d^-1 picks up one p from gamma/d and q^2 from
        # beta crossing both inverse powers of d
        ctx = tside()
        got = ctx.word([("beta", 1), ("d", -1), ("gamma", 1), ("d", -1)])
        want = ctx.word([("d", -2), ("beta", 1), ("gamma", 1)],
                        ctx.p * ctx.q * ctx.q)
        assert got == want

    def test_negative_power_on_odd_generator(self):
        ctx = tside()
        with pytest.raises(NonInvertibleNegativePower):
            ctx.word([("beta", -1)])

    def test_reordered_inputs_agree(self):
        ctx = tside()
        rng = random.Random(5)
        for _ in range(60):
            w = random_word(rng, max_len=6, exp_bound=2)
            direct = ctx.pres.word_elt(w)
            via = ctx.pres.one_elt()
            for factor in w:
                via = via * ctx.pres.word_elt([factor])
            assert direct == via


class TestElementOps:
    def test_product_against_expanded_oracle(self):
        # (a + beta)*(a - beta) expanded into four words normalizes to
        # the same element as the engine product
        ctx = tside()
        lhs = (ctx.a + ctx.beta) * (ctx.a - ctx.beta)
        oracle = (ctx.word([("a", 1), ("a", 1)])
                  - ctx.word([("a", 1), ("beta", 1)])
                  + ctx.word([("beta", 1), ("a", 1)])
                  - ctx.word([("beta", 1), ("beta", 1)]))
        assert lhs == oracle

    def test_power_makes_no_product_with_the_unit(self, monkeypatch):
        ctx = tside()
        one = ctx.pres.one_elt()
        rng = random.Random(11)
        for _ in range(10):
            x = random_element(rng, n_terms=2, max_len=3)
            ref = one
            for n in range(5):
                assert x ** n == ref
                ref = ref * x
        unit_products = []
        plain_mul = Element.__mul__

        def counting_mul(a, b):
            if a == one or b == one:
                unit_products.append((a, b))
            return plain_mul(a, b)

        monkeypatch.setattr(Element, "__mul__", counting_mul)
        for n in range(6):
            (ctx.a + ctx.beta) ** n
        assert unit_products == []

    def test_unit_law(self):
        ctx = tside()
        rng = random.Random(9)
        for _ in range(20):
            e = random_element(rng)
            assert e * ctx.pres.one_elt() == e
            assert ctx.pres.one_elt() * e == e

    def test_nilpotent_product(self):
        ctx = tside()
        bg = ctx.beta * ctx.gamma
        gb = ctx.gamma * ctx.beta
        assert (bg * gb).is_zero()

    def test_presentation_mismatch(self):
        with pytest.raises(PresentationMismatch):
            tside().a * mside().mu


class TestInverses:
    def test_generator_inverse(self):
        ctx = tside()
        assert invert_even_unit(ctx.a) == ctx.word([("a", -1)])

    def test_delta2_inverse_two_sided(self):
        ctx = tside()
        d2 = ctx.delta2()
        inv = invert_even_unit(d2)
        assert (d2 * inv) == ctx.pres.one_elt()
        assert (inv * d2) == ctx.pres.one_elt()

    def test_odd_element_is_not_a_unit(self):
        with pytest.raises(NotAUnit):
            invert_even_unit(tside().beta)

    def test_sum_of_monomials_is_not_a_unit(self):
        ctx = tside()
        with pytest.raises(NotAUnit):
            invert_even_unit(ctx.a + ctx.d)

    def test_programming_error_in_pivot_inverse_propagates(self,
                                                           monkeypatch):
        # only the algebra's own errors mean "not a unit"
        def broken(self):
            raise TypeError("broken inverse")
        monkeypatch.setattr(RatFunc, "inv", broken)
        with pytest.raises(TypeError, match="broken inverse"):
            invert_even_unit(tside().a)


class TestBrackets:
    def test_ad_commutator(self):
        ctx = tside()
        want = ctx.word([("gamma", 1), ("beta", 1)], ctx.p - ctx.q_inv)
        assert commutator(ctx.a, ctx.d) == want

    def test_mside_even_commute(self):
        m = mside()
        assert commutator(m.x, m.y).is_zero()

    def test_mside_odd_anticommute(self):
        m = mside()
        assert anticommutator(m.mu, m.nu).is_zero()


class TestEngineProperties:
    """Randomized structural checks; the acceptance suite reruns these
    at 500 instances each."""

    def test_idempotence(self):
        rng = random.Random(21)
        for _ in range(60):
            e = random_element(rng)
            assert renormalize(e) == e

    def test_confluence_of_strategies(self):
        ctx = tside()
        rng = random.Random(22)
        for _ in range(60):
            w = random_word(rng)
            left = ctx.pres.normalize(w, ctx.one, strategy="leftmost")
            right = ctx.pres.normalize(w, ctx.one, strategy="rightmost")
            assert left == right

    def test_ring_axioms(self):
        rng = random.Random(23)
        for _ in range(40):
            e1, e2, e3 = (random_element(rng, max_len=4) for _ in range(3))
            assert (e1 * e2) * e3 == e1 * (e2 * e3)
            assert e1 * (e2 + e3) == e1 * e2 + e1 * e3

    def test_parity_grading(self):
        rng = random.Random(24)
        for _ in range(40):
            pa, pb = rng.randint(0, 1), rng.randint(0, 1)
            x = random_homogeneous(rng, pa)
            y = random_homogeneous(rng, pb)
            prod = x * y
            if prod.is_zero():
                continue
            expect = "odd" if (pa + pb) % 2 else "even"
            assert prod.parity() == expect

    def test_commuting_quantities_remark(self):
        # odd generators see powers of a and d as commuting factors
        ctx = tside()
        for odd in ("beta", "gamma"):
            for n in range(-3, 4):
                for m in range(-3, 4):
                    lhs = ctx.word([(odd, 1), ("a", n), ("d", m)])
                    rhs = ctx.word([(odd, 1), ("d", m), ("a", n)])
                    assert lhs == rhs


def test_print_element_readable():
    ctx = tside()
    s = print_element(ctx.word([("d", 1), ("a", 1)]))
    assert s == "a*d + (q - p^-1)*beta*gamma"


# -- the cached engine against the naive reference rewriter ----------------


def _tside_case():
    ctx = tside()
    scalars = [ctx.one, -ctx.one, ctx.p, ctx.q_inv, ctx.scalar(2) + ctx.p,
               ctx.bracket(2)]
    return ctx.pres, ((-2, 2), (-2, 2)), scalars


def _mside_case():
    m = mside()
    scalars = [m.one_c, m.x_rf, m.y_rf - m.phi,
               m.E1, m.E2 * m.x_rf, RatFunc.const(M_SYMS, 3)]
    return m.pres, (), scalars


def _affine_case():
    ctx = series_context(SeriesConfig(Fraction(1), Fraction(2)))
    scalars = [ctx.one_tl, ctx.q, ctx.h1, ctx.p_inv - 1, ctx.tl(3)]
    return ctx.pres, ((0, 2), (0, 2)), scalars


CASES = {"tside": _tside_case, "mside": _mside_case, "affine": _affine_case}


@st.composite
def _monomials(draw, case):
    pres, even_ranges, _ = case
    evens = tuple(draw(st.integers(lo, hi)) for lo, hi in even_ranges)
    odds = tuple(draw(st.integers(0, 1))
                 for _ in range(pres.n_gens - pres.n_even))
    return evens + odds


@st.composite
def _elements(draw, case):
    pres, _, scalars = case
    terms = draw(st.dictionaries(_monomials(case), st.sampled_from(scalars),
                                 min_size=1, max_size=3))
    return Element(pres, terms)


@st.composite
def _words(draw, case):
    """Short words that reach every rule, odd squares included."""
    pres, even_ranges, _ = case
    word = []
    for _ in range(draw(st.integers(0, 4))):
        g = draw(st.integers(0, pres.n_gens - 1))
        if g < pres.n_even:
            lo, hi = even_ranges[g]
            e = draw(st.integers(lo, hi).filter(bool))
        else:
            e = draw(st.integers(1, 2))
        word.append((pres.gen_names[g], e))
    return word


def _word_units(pres, word):
    return [(pres.index[name], 1 if e > 0 else -1)
            for name, e in word for _ in range(abs(e))]


def _shares_odd(pres, m1, m2):
    return any(m1[g] and m2[g] for g in range(pres.n_even, pres.n_gens))


# even exponents up to 5 in size, both signs where the generator is
# invertible: long prefix chains, and with odd letters on both sides the
# correction branches that meet the odd mask.  Left and right factors
# differ for the affine case only: the naive rewriter branches in two at
# every beta.D or gamma.D crossing, so D^5.A^5 would take it minutes.
LONG_RANGES = {"tside": (((-5, 5), (-5, 5)),) * 2, "mside": ((), ()),
               "affine": (((0, 5), (0, 2)), ((0, 2), (0, 5)))}


@pytest.mark.parametrize("name", CASES)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_word_product_matches_naive(name, data):
    pres, _, scalars = CASES[name]()
    left, right = LONG_RANGES[name]
    m1 = data.draw(_monomials((pres, left, scalars)))
    m2 = data.draw(_monomials((pres, right, scalars)))
    want = naive_normal_form(pres, mono_units(m1) + mono_units(m2),
                             pres.one)
    assert dict(pres.word_product(m1, m2)) == want
    if _shares_odd(pres, m1, m2):
        assert want == {}
    # checked apart from the cache, which an earlier draw may have filled
    closed = pres._twist_product(m1, m2)
    assert closed is None or closed == want


FRESH = {"tside": lambda: TSide().pres, "mside": lambda: MSide().pres,
         "affine": lambda: SeriesContext(SeriesConfig(Fraction(1),
                                                      Fraction(2))).pres}


@pytest.mark.parametrize("name", CASES)
def test_closed_form_fires_on_the_naive_draws(name, monkeypatch):
    # the ranges of test_word_product_matches_naive reach both the closed
    # form and the letter-by-letter build on every presentation
    pres = FRESH[name]()
    rng = random.Random(9)
    left, right = LONG_RANGES[name]
    results = []
    closed = pres._twist_product

    def counting(m1, m2):
        out = closed(m1, m2)
        results.append(out is not None)
        return out

    monkeypatch.setattr(pres, "_twist_product", counting)
    odds = pres.n_gens - pres.n_even
    for _ in range(60):
        m1, m2 = (tuple(rng.randint(lo, hi) for lo, hi in ranges)
                  + tuple(rng.randint(0, 1) for _ in range(odds))
                  for ranges in (left, right))
        want = naive_normal_form(pres, mono_units(m1) + mono_units(m2),
                                 pres.one)
        assert dict(pres.word_product(m1, m2)) == want
    assert True in results and False in results


@pytest.mark.parametrize("name, m1, m2, n_terms", [
    ("tside", (0, 1, 1, 0), (2, 0, 0, 0), 1),     # d.beta . a^2: q^-2
    ("tside", (0, -2, 0, 1), (-1, 3, 1, 0), 1),   # d^-1.a^-1 branches die
    ("mside", (0, 1), (1, 0), 1),                 # nu.mu = -mu.nu
    ("affine", (2, 0, 0, 1), (0, 0, 1, 0), 1),    # gamma.beta twists only
])
def test_closed_form_fires(name, m1, m2, n_terms):
    pres = FRESH[name]()
    want = naive_normal_form(pres, mono_units(m1) + mono_units(m2),
                             pres.one)
    assert pres._twist_product(m1, m2) == want and len(want) == n_terms
    assert dict(pres.word_product(m1, m2)) == want


@pytest.mark.parametrize("name, m1, m2, n_terms", [
    # d.a keeps its live beta.gamma correction
    ("tside", (0, 1, 0, 0), (1, 0, 0, 0), 2),
    ("tside", (0, -1, 0, 0), (3, 0, 0, 0), 2),
    # beta.A keeps (q^-1 - 1) beta: its only odd letter is the crossing
    # beta itself, so it stays live although the word holds beta
    ("affine", (0, 0, 1, 0), (1, 0, 0, 0), 2),
    ("affine", (0, 0, 0, 1), (0, 1, 1, 0), 2),
    # a shared odd generator: the product is zero
    ("tside", (0, 1, 1, 0), (1, 0, 1, 0), 0),
    ("mside", (1, 1), (0, 1), 0),
])
def test_closed_form_declines(name, m1, m2, n_terms):
    pres = FRESH[name]()
    want = naive_normal_form(pres, mono_units(m1) + mono_units(m2),
                             pres.one)
    assert pres._twist_product(m1, m2) is None and len(want) == n_terms
    assert dict(pres.word_product(m1, m2)) == want


def _datum(terms, one):
    """Every stored datum of word-product terms; ``one`` by identity."""
    return {m: "one" if c is one else
            laurent_dump(c) if isinstance(c, TruncLaurent) else c
            for m, c in terms}


def test_closed_form_matches_letter_by_letter_on_the_suites(monkeypatch):
    # every word product of the four exact suites and of series rays
    # (1,1) and (1,2) equals its letter-by-letter build datum for datum,
    # in the capped series views too
    made = {}
    word_product = Presentation.word_product

    def recording(pres, m1, m2):
        out = word_product(pres, m1, m2)
        made[(id(pres), m1, m2)] = pres, out
        return out

    with monkeypatch.context() as m:
        m.setattr(Presentation, "word_product", recording)
        verify_section2(10, 6)
        verify_section3(12)
        verify_appendix(10)
        verify_mside(10)
        for ray in DEFAULT_RAYS[:2]:
            list(series_identities(SeriesConfig(*ray)))
    fired = set()
    for (_, m1, m2), (pres, out) in made.items():
        one = pres.one
        built = pres._append({m1: one}, pres.monomial_letters(m2))
        if pres.top is not None:
            built = pres._cap_terms(built)
        assert _datum(out, one) == _datum(built.items(), one)
        if pres._twist_product(m1, m2) is not None:
            fired.add(pres.name + ("" if pres.top is None else "/capped"))
    assert fired >= {"tside", "mside", "affine[1,1]/capped",
                     "affine[1,2]/capped"}


# fresh presentations for the prefix build: tside and mside, and the
# affine rules through capped views at two tops; even exponents up to 4
# in size, negative ones where the generator is invertible
PREFIX_VIEWS = {
    "tside": (lambda: TSide().pres, ((-4, 4), (-4, 4))),
    "mside": (lambda: MSide().pres, ()),
    "affine-top-8": (lambda: SeriesContext(SeriesConfig(
        Fraction(1), Fraction(2))).pres.capped(8), ((0, 4), (0, 4))),
    "affine-top-11": (lambda: SeriesContext(SeriesConfig(
        Fraction(1), Fraction(2))).pres.capped(11), ((0, 4), (0, 4))),
}


@pytest.mark.parametrize("name", PREFIX_VIEWS)
def test_prefix_built_word_product_matches_from_scratch(name, monkeypatch):
    # a word product built from the cached product with a prefix of its
    # right factor equals a from-scratch append of all the letters,
    # datum for datum, and so does every intermediate it cached.  Few
    # left factors, so the walk stops at cached prefixes of many lengths
    make, ranges = PREFIX_VIEWS[name]
    pres = make()
    one = pres.one
    rng = random.Random(22)
    odds = pres.n_gens - pres.n_even

    def mono():
        return (tuple(rng.randint(lo, hi) for lo, hi in ranges)
                + tuple(rng.randint(0, 1) for _ in range(odds)))

    def from_scratch(m1, m2):
        built = Presentation._append(pres, {m1: one},
                                     pres.monomial_letters(m2))
        if pres.top is not None:
            built = pres._cap_terms(built)
        return _datum(built.items(), one)

    appended = []
    append = pres._append
    monkeypatch.setattr(pres, "_append", lambda acc, letters: (
        appended.append(len(letters)) or append(acc, letters)))
    lefts = [mono() for _ in range(3)]
    started = set()
    for _ in range(150):
        m1, m2 = rng.choice(lefts), mono()
        appended.clear()
        got = pres.word_product(m1, m2)
        assert _datum(got, one) == from_scratch(m1, m2)
        if appended:
            n = len(pres.monomial_letters(m2))
            started.add("empty" if sum(appended) == n else "prefix")
    for (m1, m2), got in pres._word_cache.items():
        assert _datum(got, one) == from_scratch(m1, m2)
    # a right factor of mside has two letters at most, so its draws need
    # not reach a cached prefix
    assert started >= ({"empty"} if name == "mside"
                       else {"empty", "prefix"})


@pytest.mark.parametrize("name", CASES)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_word_elt_matches_naive(name, data):
    case = CASES[name]()
    pres, _, scalars = case
    word = data.draw(_words(case))
    coeff = data.draw(st.sampled_from(scalars))
    want = naive_normal_form(pres, _word_units(pres, word), coeff)
    assert pres.word_elt(word, coeff).terms == want
    assert pres.normalize(word, coeff) == want


@st.composite
def _run_words(draw, case):
    """Words of whole runs: negative runs of the invertible even
    generators, a run often on the generator of the run before it, and
    odd runs of one or two letters."""
    pres, even_ranges, _ = case
    word = []
    for _ in range(draw(st.integers(0, 5))):
        if word and draw(st.booleans()):
            g = pres.index[word[-1][0]]
        else:
            g = draw(st.integers(0, pres.n_gens - 1))
        if g < pres.n_even:
            lo, hi = even_ranges[g]
            lo -= pres.invertible[g]
            e = draw(st.integers(lo, hi + 1).filter(bool))
        else:
            e = draw(st.integers(1, 2))
        word.append((pres.gen_names[g], e))
    return word


@pytest.mark.parametrize("name", CASES)
@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_word_elt_by_runs_matches_normalize(name, data):
    # word_elt multiplies whole runs through word_product; normalize
    # rewrites the whole word with no cache
    case = CASES[name]()
    pres, _, scalars = case
    word = data.draw(_run_words(case))
    coeff = data.draw(st.sampled_from(scalars))
    assert pres.word_elt(word, coeff).terms == pres.normalize(word, coeff)


@pytest.mark.parametrize("name, word, n_terms", [
    ("tside", [("a", -2), ("d", -1), ("a", -1)], 2),
    ("tside", [("d", 2), ("d", -3), ("a", 2), ("a", -1)], 2),
    ("tside", [("a", 1), ("a", -1)], 1),
    ("tside", [("beta", 2)], 0),
    ("tside", [("beta", 1), ("a", 1), ("beta", 1)], 0),
    ("tside", [("gamma", 1), ("a", 2), ("beta", 1), ("d", -1)], 1),
    ("mside", [("nu", 1), ("mu", 1)], 1),
    ("mside", [("mu", 1), ("nu", 1), ("mu", 1)], 0),
    ("affine", [("beta", 1), ("A", 3), ("beta", 1)], 0),
    ("affine", [("D", 1), ("A", 2), ("D", 1)], None),
])
def test_word_elt_by_runs_cases(name, word, n_terms):
    pres, _, scalars = CASES[name]()
    for coeff in (pres.one, scalars[2]):
        got = pres.word_elt(word, coeff).terms
        assert got == pres.normalize(word, coeff)
        assert n_terms is None or len(got) == n_terms


@pytest.mark.parametrize("name, word", [
    ("tside", [("beta", -1)]),
    ("tside", [("beta", 2), ("gamma", -1)]),
    ("mside", [("mu", 1), ("nu", -2)]),
    ("affine", [("A", 1), ("D", -1)]),
])
def test_word_elt_by_runs_refuses_negative_powers(name, word):
    # every run is checked before any product, an odd square included
    pres, _, scalars = CASES[name]()
    for build in (pres.word_elt, pres.normalize):
        with pytest.raises(NonInvertibleNegativePower):
            build(word, scalars[1])


@pytest.mark.parametrize("name", CASES)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_element_product_matches_naive(name, data):
    case = CASES[name]()
    x, y = data.draw(_elements(case)), data.draw(_elements(case))
    assert x * y == naive_element_product(x, y)


@pytest.mark.parametrize("word", [
    [("a", -6), ("d", -2), ("a", -1)],       # needs the odd mask to end
    [("d", 5), ("a", 3)],
    [("a", 2), ("d", -4), ("beta", 1), ("a", -3), ("gamma", 1), ("d", 2)],
])
def test_word_steps_never_call_reduce(word, monkeypatch):
    # _reduce is the uncached reference behind normalize, off the hot path
    pres = TSide().pres                # fresh caches
    want = naive_normal_form(pres, _word_units(pres, word), pres.one)

    def refuse(*args, **kwargs):
        raise AssertionError("a letter step ran _reduce")

    monkeypatch.setattr(Presentation, "_reduce", refuse)
    assert pres.word_elt(word).terms == want
    m1 = pres.word_elt(word[:1]).terms.popitem()[0]
    m2 = pres.word_elt(word[1:2]).terms.popitem()[0]
    assert dict(pres.word_product(m1, m2)) == naive_normal_form(
        pres, mono_units(m1) + mono_units(m2), pres.one)


@pytest.mark.parametrize("strategy", ["leftmost", "rightmost"])
def test_reduce_merges_equal_pending_words(strategy):
    # every beta.A crossing of beta.A^14 branches in two; rewriting each
    # branch on its own took about 1 s, merging equal words takes ms
    pres = series_context(SeriesConfig(Fraction(1), Fraction(2))).pres
    word = [("beta", 1), ("A", 14)]
    t0 = time.perf_counter()
    got = pres.normalize(word, pres.one, strategy)
    assert time.perf_counter() - t0 < 0.5
    want = pres.word_elt(word).terms
    assert {m: laurent_dump(c) for m, c in got.items()} == {
        m: laurent_dump(c) for m, c in want.items()}


def test_step_cache_keeps_only_requested_steps():
    # d^3.a is built from d^2.a, d.a and their correction branches, but
    # those sub-steps live only for the one miss
    pres = TSide().pres
    before = set(pres._step_cache)
    d3, a = (0, 3, 0, 0), (1, 0, 0, 0)
    pres.word_product(d3, a)
    assert set(pres._step_cache) - before == {(d3, (0, 1))}


@pytest.mark.parametrize("name", CASES)
def test_dead_pairs_never_reach_word_product(name, monkeypatch):
    pres, _, _ = CASES[name]()
    seen = []
    orig = Presentation.word_product

    # patched on the class: undoing an instance patch would leave a bound
    # method in the shared presentation, and its capped views copy it
    def counting(self, m1, m2):
        if self is pres:
            seen.append((m1, m2))
        return orig(self, m1, m2)

    monkeypatch.setattr(Presentation, "word_product", counting)
    odd = (0,) * pres.n_even + (1,) * (pres.n_gens - pres.n_even)
    full = Element(pres, {(0,) * pres.n_gens: pres.one,
                          odd: pres.one})
    assert full * full == naive_element_product(full, full)
    assert seen and not any(_shares_odd(pres, m1, m2) for m1, m2 in seen)
    # a product of two single terms skips a dead pair as well
    lone = Element(pres, {odd: pres.one})
    assert (lone * lone).is_zero()
    assert not any(_shares_odd(pres, m1, m2) for m1, m2 in seen)


def _check_concatenation(pres, m1, m2, want, monkeypatch):
    """m1.m2 is m1 + m2 times ``ring.one``, built without rewriting;
    ``pres`` must have fresh caches."""
    def no_rewrite(*args):
        raise AssertionError("a canonical concatenation was rewritten")

    monkeypatch.setattr(pres, "_append", no_rewrite)
    (mono, c), = pres.word_product(m1, m2)
    assert mono == want and c is pres.one


@pytest.mark.parametrize("m1, m2, want", [
    ((2, 0, 0, 0), (-5, 1, 0, 0), (-3, 1, 0, 0)),      # a^2 . a^-5 d
    ((1, -2, 0, 0), (0, 0, 1, 1), (1, -2, 1, 1)),      # a d^-2 . beta gamma
    ((0, 0, 0, 0), (0, 3, 0, 1), (0, 3, 0, 1)),
])
def test_canonical_concatenation_is_not_rewritten(m1, m2, want, monkeypatch):
    _check_concatenation(TSide().pres, m1, m2, want, monkeypatch)


@pytest.mark.parametrize("make, m1, m2, want", [
    (lambda: MSide().pres, (1, 0), (0, 1), (1, 1)),
    (lambda: MSide().pres, (0, 0), (0, 1), (0, 1)),
    (lambda: SeriesContext(SeriesConfig()).pres.capped(8),
     (2, 0, 0, 0), (1, 1, 0, 0), (3, 1, 0, 0)),
    (lambda: SeriesContext(SeriesConfig()).pres.capped(8),
     (0, 1, 0, 0), (0, 0, 1, 1), (0, 1, 1, 1)),
], ids=["mside-mu.nu", "mside-1.nu", "capped-A^2.AD", "capped-D.beta.gamma"])
def test_canonical_concatenation_is_not_rewritten_elsewhere(make, m1, m2,
                                                            want, monkeypatch):
    _check_concatenation(make(), m1, m2, want, monkeypatch)


class TestOddCountGuard:
    """Every correction must keep each odd generator's count, and add
    an odd generator or shorten the word."""

    def _pres(self, word):
        syms = SymbolSet(("p",))
        one = RatFunc.const(syms, 1)
        return Presentation(one,
                            evens=[("x", True)], odds=["b", "c"],
                            corrections={("b", "x", 1, 1): (one, [(one, word)])})

    def test_lowering_correction_rejected(self):
        for word in ((("x", 1),), (("c", 1),), ()):
            with pytest.raises(ValueError, match="odd generator b"):
                self._pres(word)

    def test_keeping_correction_accepted(self):
        self._pres((("b", 1),))
        self._pres((("x", 1), ("b", 1), ("c", 1)))

    def test_correction_that_neither_adds_nor_shortens_rejected(self):
        # b.x -> x.x.b would let b meet ever more x: no termination
        for word in ((("x", 1), ("b", 1)), (("x", 2), ("b", 1))):
            with pytest.raises(ValueError, match="nor shortens"):
                self._pres(word)

    def test_shipped_presentations_pass(self):
        # fresh builds, so the check runs past the factories' caches
        TSide()
        MSide()
        for ray in DEFAULT_RAYS:
            SeriesContext(SeriesConfig(*ray))
