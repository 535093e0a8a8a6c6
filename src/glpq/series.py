"""Truncated-series sector: the logarithm of the defining matrix.

Works over the affine presentation (generators A = a-1, D = d-1, beta,
gamma) with truncated Laurent coefficients in t along a fixed ray
h1 = alpha*t, h2 = beta_ray*t, q = exp(h1), p = exp(h2).

Truncation semantics: rewriting trades generator degree for t-order
one-for-one (corrections like beta.A -> q^-1 A beta + (q^-1 - 1) beta),
so capping generator degree and t-order independently is not a ring
quotient.  Elements are therefore truncated by total weight (generator
degree plus t-exponent).  A series element (TruncElement) is an
``nc.Element`` whose terms are cut to that window, and it carries the
weight bound ``prec`` through which its stored coefficients equal the
untruncated value.  Checks report and enforce that bound.

Window pruning: no rewrite rule lowers total weight, so the product of
two terms of weights w1 and w2 has every term of weight at least
w1 + w2.  Rule by rule:

* twists (gamma.beta -> -(q p^-1) beta.gamma) keep the generator degree
  and their scalar is a unit of valuation 0;
* beta.A -> q^-1 A.beta + (q^-1 - 1) beta and its D, gamma variants
  drop one generator letter, and their scalars q^-1 - 1, p^-1 - 1
  vanish at t = 0, so have valuation at least 1 (exactly 1, as alpha
  and beta_ray are nonzero);
* D.A -> A.D + eps beta.gamma keeps the degree, and eps = q - p^-1
  also vanishes at t = 0 (its valuation is exactly 1 because
  alpha + beta_ray != 0, which SeriesConfig enforces);
* odd squares vanish.

TruncElement.__mul__ therefore skips every term pair whose weights sum
past the result window min(prec, W).  Such a pair contributes to a monomial of degree g only a
coefficient of valuation and cap above min(prec, W) - g, both strictly
above the cap _trim gives that monomial: it leaves the trimmed
coefficient unchanged, and it cannot lower the element bound ``prec``
or any coefficient ``cap``, which _trim takes as minima over exactly
these quantities.  tests/test_series.py compares the pruned product
with the naive one datum for datum.

Weight cap: the trim keeps a result monomial of degree g only through
t^(W - g), and that coefficient is a sum of c*lam, with c = c1*c2 from
the operands and lam from ``word_product``.  With ``slack`` =
max(0, -(v1 + v2)), where v1 and v2 are the lowest coefficient
valuations of the two operands, val(c) >= -slack, so slots of lam past
t^(top - g), top = W + slack, only reach slots of c*lam past t^(W - g).
TruncElement.__mul__ therefore reads word products from
``pres.capped(top)``, a view whose ``word_product`` results, letter
steps and the sub-steps that build a letter step (the memo entries of
``nc.Presentation._chain``) are all cut to cap top - g:

* the intermediates of ``_append`` and of the letter-step recurrence
  lose nothing the final cut keeps.  Every rule scalar has valuation
  >= 0 and no rule lowers weight, so a term of degree g' reaches a
  final term of degree g only through further scalars (rule scalars,
  steps and sub-steps) of total valuation v with g + v >= g'.  A slot
  of its coefficient past t^(top - g') reaches only slots past
  t^(top - g), and a cap of at least top - g' becomes one of at least
  top - g, which the final cut sets.  So the products of m1 with the
  prefixes of m2 that ``word_product`` caches on its way to m1.m2
  (``nc.Presentation._prefix_product``), each cut at its own degree,
  equal what ``word_product`` returns for them;
* the cap of c*lam is min(c.cap + val(lam), lam.cap + val(c)).  After
  the cut the second term is at least W - g, at or past the trim's cap;
  the first changes only where lam's slots through t^(top - g) all
  vanish, and then it also lies past W - g for a term pair inside the
  window.  Where the uncut cap binds below W - g, the cut one is equal.
  So the trim sees the same caps and the same slots, and the element
  bound ``prec`` is unchanged;
* ``pres.one`` is never cut.  ``_append`` and ``mul_pairs`` skip a
  multiplication when a factor *is* ``one``, and a cut copy would be a
  different object, so those shortcuts would stop firing.  An uncut
  ``one`` is exact, so it needs no cap;
* the even prefactors are solved through the window as well.  Every
  solution of ``_even_div`` is embedded with at least one odd generator,
  and f_series multiplies its pieces by a scalar of valuation -1, so the
  trim of ``_embed`` reads the degree-g part of a solution z through
  t^(W - g - 1) at most.  ``_solve_caps`` sets that cap, with a floor at
  t^(1 - EXPAND_MARGIN) so that f_series keeps its slots through
  t^-EXPAND_MARGIN and the "too singular" guard of ``_embed`` sees the
  valuations it sees uncut, and lifts the cap where a later degree
  still reads z_g through the denominator.  Each degree's accumulator, and
  each product in it (``TruncLaurent.mul_through``), is cut val(c0)
  higher, for the multiply by c0^-1.  No cap falls below the one the
  trim sets, so the trim keeps the same caps and slots.
  tests/test_series.py compares ``m_entries_scaled`` with and without
  the cut on the five default rays at weights 8, 10 and 12.

Fused sums: TruncElement.__mul__ adds up each result coefficient in a
raw window (``coeff.add_laurent_products``) and normalizes it once, so
the caps come out differently before the trim.  Summing with ``*`` and
``+`` drops a partial sum that cancels to zero, and that sum's cap with
it, while a zero contribution would lower the cap of the entry it
joins; the window takes the minimum cap over its nonzero
contributions.  After the trim both give the same data, because every
contribution c1*c2*lam to a monomial of degree g from a pair inside the
window has cap at least min(prec, W) - g:

* that cap is the least of c1.cap + val(c2) + val(lam), the same with
  c1 and c2 exchanged, and lam.cap + val(c1) + val(c2), leaving out the
  terms of factors that are ``one``;
* an operand coefficient at m1 has cap at least prec1 - |m1|: the trim
  sets it so, and the untrimmed elements (``one_te``, negations, odd
  parts) keep it.  Weight conservation gives |m1| + |m2| <= g +
  val(lam); so the first term is at least prec1 + w2 - g, where w2 is
  the weight of the other term, and that is at least prec - g.  The
  second term is bounded the same way;
* the third term is at least W - g by the second weight-cap bullet.

So in both sums a coefficient at degree g has cap at least
min(prec, W) - g, the trim keeps the window min(prec, W), and it cuts
every coefficient to exactly min(prec, W) - g.  Through that cap both
hold the exact sum of all contributions, since a partial sum that
cancelled did so through a cap at least as high.  tests/test_series.py
checks the fused product against a reference summed with ``*`` and
``+`` datum for datum.  The identities of all five default rays are
unchanged, and none of their 121,227 contributions falls below the
bound (the least margin is 0).

tests/test_series.py builds every identity of rays (1,1) and (1,2) at
the default N, K and weight with and without the view and compares
them datum for datum.

Shared products: ``series_identities`` makes each distinct product of
two operands once per ray.  ``closed_tminus_powers`` builds the powers
of A, D, q^-1 d - 1, p^-1 a - 1, (pq)^-1 a - 1 and (pq)^-1 d - 1 once
each, by successive products, and the right factors
(q^-1 d - 1)^j*beta, their products with gamma and the powers of
(pq)^-1 a - 1 times those once for every n (likewise for c and d), so a
block term is one product A^k*(...) or D^k*(...).  The brackets of h*M,
the supertrace rows, its square and ``specialize.bracket`` read one
table of the 16 products of the entries (``mside.entry_products``); a
supertrace row [x - y, g] is (x*g - y*g) - (g*x - g*y), so no product
of x - y (44 terms at the default weight on ray (1,1)) is made.  A
table read equals the product it replaces because a product is a
function of its operands alone: it reads their terms and windows, and
the context's fixed presentation and weight cap, nothing else.

The table's sums give the data of the products of sums they replace:
the entries of h*M have window W and min weight >= 1 (on every ray, as
``_embed`` trims them to W and each carries a generator or h), so each
product on either route has window min(prec1 + w2, prec2 + w1) >= W + 1,
cut to W, and each sum keeps W.  Through the cap W - g that the trim
then sets at a monomial of degree g, both routes hold the exact value
of the same bilinear expression, so they agree slot for slot.

``exp_matrix`` sums M^n/n! by Paterson and Stockmeyer's scheme in
C = M^3 (blocks of I, M and M^2, then acc = B_k + C*acc), where the
term loop made each term from the one before.  Both give the same data:

* the terms: a product of factors of min weights w1, w2 has min weight
  at least w1 + w2, so a product holding M^n with n > W lies past the
  window and the trim drops it, as the term loop drops the zero term
  n = W + 1 and stops.  The blocks hold exactly the n <= W of the loop;
* the windows: I is exact, and every other factor has window W and min
  weight >= 1.  A product with the unit keeps the other factor's
  window, any other product has window >= W + 1 before the cut, and
  the scaling by 1/n!, exact through t^K, keeps min(W, K + w) = W.  So
  every entry on either route has window W;
* the coefficients: through the cap W - g, both routes hold the exact
  coefficients of the same polynomial in M, so they agree slot for
  slot.

tests/test_series.py builds every identity of the five default rays
and of a weight-10 ray both ways (each product made afresh, each
supertrace commutator made by ``nc.commutator``, the exponential
summed term by term from the identity) and compares them datum for
datum; it also compares ``exp_matrix`` with the term loop at weights 6,
7, 9, 10 and 11, which split the W + 1 terms into blocks in every way
W mod 3 allows.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import factorial
from operator import itemgetter, mul

from .coeff import TruncLaurent, add_laurent_products, settle_laurent_sums
from .errors import InvalidRay, NotAUnit, NotNilpotent, TruncationUnderflow
from .mside import bracket_rows, central_rows, entry_products
from .nc import Element, Presentation, commutator, mul_pairs
from .poly import power, power_table
from .report import Identity, matrix_identities, run_exact, tagged
from .printing import print_element
from .supermatrix import SuperMatrix

INF = 10 ** 9
EXPAND_MARGIN = 4        # extra generator degrees kept in scalar expansions

DEFAULT_RAYS = ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(2)),
                (Fraction(2), Fraction(1)), (Fraction(1), Fraction(-3)),
                (Fraction(3), Fraction(-1)))


class SeriesConfig(namedtuple("SeriesConfig", "alpha beta_ray N K weight")):
    """One ray of the series sector; immutable and hashable by value.

    ``N`` is the reporting threshold for the adic order, ``K`` the
    t-order of scalar expansions and ``weight`` the total-weight cap of
    element arithmetic.
    """

    __slots__ = ()

    def __new__(cls, alpha=Fraction(1), beta_ray=Fraction(1), N=6, K=12,
                weight=8):
        if alpha == 0 or beta_ray == 0:
            raise InvalidRay("ray components must be nonzero")
        if alpha + beta_ray == 0:
            raise InvalidRay("alpha + beta_ray must be nonzero")
        if K < N + 2:
            raise InvalidRay("K must be at least N + 2")
        if weight < N:
            raise InvalidRay("weight cap below the adic reporting order")
        if weight >= K:
            raise InvalidRay("weight cap must be below the scalar expansion "
                             "order K")
        return super().__new__(cls, alpha, beta_ray, N, K, weight)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make (and _replace through it) skips __new__
        return cls(*iterable)


class TruncElement(Element):
    """Element with a tracked validity bound ``prec`` on total weight.

    Every sum, product and scalar multiple is trimmed to the weight
    window; the rest (``pres``, ``terms``, ``is_zero``, ``parity``,
    subtraction as a sum with the negation) is the Element's own.
    ``==`` compares windows, as for TruncLaurent, so the class has no
    hash.
    """

    __slots__ = ("ctx", "prec")

    def __init__(self, ctx, element, prec, trim=True):
        if trim:
            element, prec = _trim(element, min(prec, ctx.W))
        super().__init__(element.pres, element.terms)
        self.ctx = ctx
        self.prec = prec

    @property
    def element(self):
        # kept for the trace hook of perfbench/layers.py, which reads
        # ``te.element.terms``
        return self

    def min_weight(self):
        w = INF
        for m, c in self.terms.items():
            w = min(w, sum(m) + c.valuation())
        return w

    def __add__(self, other):
        return TruncElement(self.ctx, super().__add__(other),
                            min(self.prec, other.prec))

    def __neg__(self):
        return TruncElement(self.ctx, super().__neg__(), self.prec, trim=False)

    def __mul__(self, other):
        self._check(other)
        left, right = _by_weight(self), _by_weight(other)
        prec = min(self.prec + (right[0][0] if right else INF),
                   other.prec + (left[0][0] if left else INF), INF)
        slack = max(0, -(_min_valuation(left) + _min_valuation(right)))
        windows = mul_pairs(self.pres, _window_pairs(
            left, right, min(prec, self.ctx.W)),
            self.pres.capped(self.ctx.W + slack), add_laurent_products)
        product = Element(self.pres, settle_laurent_sums(windows))
        return TruncElement(self.ctx, product, prec)

    def smul(self, s):
        """Multiply by a truncated scalar."""
        prec = min(self.prec + s.valuation(), s.cap + self.min_weight(), INF)
        return TruncElement(self.ctx, super().smul(s), prec)

    def power(self, n, mul=mul):
        """self**n with every product made by ``mul(x, y)``; as for
        ``nc.Element.power`` the first factor is self, not the unit."""
        if n < 0:
            return self.ctx.invert_unit(self).power(-n, mul)
        return power(None, self, n, mul) if n else self.ctx.one_te()

    def __eq__(self, other):
        return (isinstance(other, TruncElement) and self.pres is other.pres
                and (self - other).is_zero())

    def __repr__(self):
        return f"TruncElement({print_element(self)}; prec={self.prec})"


def _by_weight(te):
    """(weight, term) of every term of ``te``, lightest first."""
    return sorted(((sum(m) + c.valuation(), (m, c))
                   for m, c in te.terms.items()), key=itemgetter(0))


def _min_valuation(terms):
    """Lowest coefficient valuation of ``_by_weight`` output, 0 if empty."""
    return min((c.valuation() for _, (_, c) in terms), default=0)


def _window_pairs(left, right, cap):
    """Term pairs whose combined weight is at most ``cap``; ``right``
    must be sorted by weight."""
    for w1, t1 in left:
        for w2, t2 in right:
            if w1 + w2 > cap:
                break
            yield t1, t2


def _trim(element, prec):
    """Restrict stored data to the trusted weight window: an Element in,
    (Element, window) out, the shape the trace hook of
    perfbench/layers.py wraps."""
    eff = prec
    for m, c in element.terms.items():
        eff = min(eff, sum(m) + min(c.cap, prec - sum(m)))
    terms = {}
    for m, c in element.terms.items():
        cap = eff - sum(m)
        if c.cap > cap:
            c = c.with_cap(cap)
        if not c.is_zero():
            terms[m] = c
    return Element(element.pres, terms), eff


class SeriesContext:
    """Per-ray bundle: scalar constants, presentation and generators."""

    def __init__(self, cfg: SeriesConfig):
        K = cfg.K
        self.K = K
        self.W = cfg.weight
        tl = lambda v: TruncLaurent.const(v, K)
        self.one_tl = tl(1)
        self.q = TruncLaurent.exp_of(cfg.alpha, K)
        self.p = TruncLaurent.exp_of(cfg.beta_ray, K)
        self.q_inv = TruncLaurent.exp_of(-cfg.alpha, K)
        self.p_inv = TruncLaurent.exp_of(-cfg.beta_ray, K)
        self.h1 = TruncLaurent(1, (cfg.alpha.numerator,),
                               cfg.alpha.denominator, K)
        self.h2 = TruncLaurent(1, (cfg.beta_ray.numerator,),
                               cfg.beta_ray.denominator, K)
        self.h = (self.h1 + self.h2) * Fraction(1, 2)
        self.phi = tl(2 * cfg.alpha / (cfg.alpha + cfg.beta_ray))
        self.psi = tl(2 * cfg.beta_ray / (cfg.alpha + cfg.beta_ray))
        self.ln_pq = self.h1 + self.h2

        eps = self.q - self.p_inv
        bg = (("beta", 1), ("gamma", 1))
        one = self.one_tl
        self.pres = Presentation(
            one,
            evens=[("A", False), ("D", False)],
            odds=["beta", "gamma"],
            twists={("gamma", "beta"): -(self.q * self.p_inv)},
            corrections={
                ("D", "A", 1, 1): (one, [(eps, bg)]),
                ("beta", "A", 1, 1): (self.q_inv,
                                      [(self.q_inv - 1, (("beta", 1),))]),
                ("beta", "D", 1, 1): (self.q_inv,
                                      [(self.q_inv - 1, (("beta", 1),))]),
                ("gamma", "A", 1, 1): (self.p_inv,
                                       [(self.p_inv - 1, (("gamma", 1),))]),
                ("gamma", "D", 1, 1): (self.p_inv,
                                       [(self.p_inv - 1, (("gamma", 1),))]),
            },
            name=f"affine[{cfg.alpha},{cfg.beta_ray}]",
        )
        self.even = Presentation(one, evens=[("A", False), ("D", False)],
                                 odds=[], name="even")
        self.A = self.gen("A")
        self.D = self.gen("D")
        self.beta = self.gen("beta")
        self.gamma = self.gen("gamma")

    # -- element helpers ---------------------------------------------------

    def gen(self, name):
        return TruncElement(self, self.pres.gen(name), self.W)

    def zero_te(self):
        return TruncElement(self, self.pres.zero_elt(), self.W, trim=False)

    def one_te(self):
        return TruncElement(self, self.pres.one_elt(), self.W, trim=False)

    def scalar_te(self, s):
        return TruncElement(self, self.pres.scalar_elt(s), self.W)

    def tl(self, v):
        return TruncLaurent.const(v, self.K)

    def T_minus_I(self):
        return SuperMatrix(self.A, self.beta, self.gamma, self.D)

    def T_affine(self):
        return SuperMatrix(self.one_te() + self.A, self.beta,
                           self.gamma, self.one_te() + self.D)

    def invert_unit(self, te):
        """Inverse of an element whose constant coefficient is a unit."""
        empty = (0,) * self.pres.n_gens
        c0 = te.terms.get(empty)
        if c0 is None or c0.is_zero():
            raise NotAUnit("constant term required for series inversion")
        v0 = self.scalar_te(c0.inv())
        r = te * v0 - self.one_te()
        if r.min_weight() < 1:
            raise NotAUnit("tail of the unit must have positive weight")
        acc, term = self.one_te(), self.one_te()
        for _ in range(2 * self.W + 6):
            term = -(term * r)
            if term.is_zero():
                break
            acc = acc + term
        return v0 * acc


_CONTEXTS = {}


def series_context(cfg: SeriesConfig) -> SeriesContext:
    if cfg not in _CONTEXTS:
        _CONTEXTS[cfg] = SeriesContext(cfg)
    return _CONTEXTS[cfg]


# -- commutative even-sector expansions ---------------------------------------
#
# The scalar prefactors of the closed logarithm forms are functions of a
# and d alone.  In any product against beta*gamma the reordering
# corrections vanish by nilpotency (the "commuting quantities" remark,
# itself engine-verified), so these prefactors are expanded as Elements
# of ``SeriesContext.even``, a presentation on A and D with no rules,
# whose product is the commutative one.  They are graded by generator
# degree and cut at degree W + EXPAND_MARGIN, not by weight: the
# denominator q(1 + A) - (1 + D) has a constant term of t-valuation 1,
# so it is no unit of the weight-truncated algebra.


def _even_div(num, den, gmax, top=None):
    """Graded solve of z * den = num through generator degree ``gmax``;
    ``den`` needs an invertible constant term.

    With the weight window ``top``, the degree-g part of z is solved only
    through the caps of ``_solve_caps``: the slots that the embedding of
    a prefactor reads (see the weight-cap bullets of the module
    docstring).  Without it, every slot is solved."""
    c0 = den.terms.get((0, 0))
    if c0 is None or c0.is_zero():
        raise TruncationUnderflow("denominator has no constant term")
    c0_inv = c0.inv()
    num_by, den_by = {}, {}
    for by, e in ((num_by, num), (den_by, den)):
        for m, c in e.terms.items():
            by.setdefault(sum(m), {})[m] = c
    v0 = c0.valuation()
    caps = _solve_caps(den_by, v0, gmax, top)
    out = {}
    for g in range(gmax + 1):
        # z_g = acc * c0^-1, and c0^-1 has valuation -v0
        cap = caps[g] + v0
        acc = {ik: c if c.cap <= cap else c.with_cap(cap)
               for ik, c in num_by.get(g, {}).items()}
        for j in range(1, g + 1):
            dj = den_by.get(j)
            zg = out.get(g - j)
            if not dj or not zg:
                continue
            for (i1, k1), c1 in zg.items():
                for (i2, k2), c2 in dj.items():
                    ik = (i1 + i2, k1 + k2)
                    c = c1.mul_through(c2, cap)
                    acc[ik] = acc[ik] - c if ik in acc else -c
        # a zero keeps its cap: the later degrees read it
        out[g] = {ik: c * c0_inv for ik, c in acc.items()}
    return Element(num.pres, {m: c for s in out.values()
                              for m, c in s.items() if not c.is_zero()})


def _solve_caps(den_by, v0, gmax, top):
    """Per degree g, the t-order through which ``_even_div`` solves z_g.

    An embedded solution carries at least one odd generator, after the
    prefactor of valuation -1 of f_series at most, so the weight window
    ``top`` reads z_g through t^(top - g - 1); the guard of ``_embed``
    reads f_series through t^-EXPAND_MARGIN, so z_g through
    t^(1 - EXPAND_MARGIN).  A later degree g + j reads z_g times the
    degree-j part of ``den`` (grouped by degree in ``den_by``), and its
    accumulator is cut v0 = val(c0) above its own cap, so z_g must also
    reach that cap less the valuation of the degree-j part."""
    if top is None:
        return [INF] * (gmax + 1)
    caps = [0] * (gmax + 1)
    for g in range(gmax, -1, -1):
        cap = max(top - g - 1, 1 - EXPAND_MARGIN)
        for j, dj in den_by.items():
            if j and g + j <= gmax:
                cap = max(cap, caps[g + j] + v0
                          - min(c.valuation() for c in dj.values()))
        caps[g] = cap
    return caps


def _embed(ctx, e, odd_bits=(0, 0), scalar=None):
    """The even expansion ``e`` times the odd monomial ``odd_bits`` (and
    ``scalar``) as a truncated element; trusted on the full weight window
    because the expansion runs EXPAND_MARGIN degrees past the cap."""
    if min((c.valuation() for c in e.terms.values()), default=INF) \
            < -(EXPAND_MARGIN - 1):
        raise TruncationUnderflow("even expansion too singular to embed")
    eb, gb = odd_bits
    terms = {}
    for (i, k), c in e.terms.items():
        if scalar is not None:
            c = c * scalar
        if not c.is_zero():
            terms[(i, k, eb, gb)] = c
    return TruncElement(ctx, Element(ctx.pres, terms), ctx.W)


def scalar_expansions(ctx, swapped=False):
    """Even-sector prefactors of the matrix-logarithm closed forms.

    Returns (ln_first, f_series, g_series), Elements of ``ctx.even``.
    ``swapped`` produces the image under the parameter exchange (second
    diagonal entry).
    """
    gmax = ctx.W + EXPAND_MARGIN
    ev = ctx.even
    if not swapped:
        first, second = "A", "D"
        qq, qq_inv, pp_inv = ctx.q, ctx.q_inv, ctx.p_inv
        ln_qq, ln_pp = ctx.h1, ctx.h2
    else:
        first, second = "D", "A"
        qq, qq_inv, pp_inv = ctx.p, ctx.p_inv, ctx.q_inv
        ln_qq, ln_pp = ctx.h2, ctx.h1
    g1 = ev.one_elt() + ev.gen(first)
    g2 = ev.one_elt() + ev.gen(second)
    # ln(1 + X) through degree gmax
    ln_g1, ln_g2 = (
        Element(ev, {(n, 0) if x == "A" else (0, n):
                     ctx.tl(Fraction((-1) ** (n + 1), n))
                     for n in range(1, gmax + 1)})
        for x in (first, second))
    ln_q_inv_g2 = ln_g2 + ev.scalar_elt(-ln_qq)
    ln_pq_inv_g1 = ln_g1 + ev.scalar_elt(-(ln_qq + ln_pp))
    den_q = g1.smul(qq) - g2
    den_p = g1.smul(pp_inv) - g2
    # the denominators have degree 2 at most, so only the solve needs a cut
    W = ctx.W
    piece1 = _even_div(ln_g1, g1 * den_q, gmax, W)
    piece2 = _even_div(ln_pq_inv_g1, g1 * den_p, gmax, W)
    piece3 = _even_div(ln_q_inv_g2, den_p * den_q, gmax, W)
    q2 = qq * qq
    f_series = (piece1 - piece2).smul(q2 * (qq - pp_inv).inv()) \
        + piece3.smul(q2)
    g_series = _even_div(ln_g1 - ln_q_inv_g2, g1 - g2.smul(qq_inv), gmax, W)
    return ln_g1, f_series, g_series


# -- the two code paths for the matrix logarithm --------------------------------


def tminus_powers(ctx):
    """[(T - I)^1, ..., (T - I)^W], each the one before times T - I."""
    return power_table(ctx.T_minus_I(), ctx.W)[1:]


def log_partial_sums(ctx, powers=None):
    """Matrix logarithm as the alternating series in powers of (T - I);
    ``powers`` is ``tminus_powers(ctx)`` when the caller has it."""
    acc = None
    for n, power in enumerate(powers or tminus_powers(ctx), 1):
        scaled = power.smul(ctx.tl(Fraction((-1) ** (n + 1), n)))
        acc = scaled if acc is None else acc + scaled
    return acc


def closed_tminus_powers(ctx, n_max):
    """[closed (T - I)^1, ..., closed (T - I)^n_max]: the displayed closed
    forms of the blocks.  Every power and right factor is made once, so
    each term is one product A^k*(...) or D^k*(...)."""
    one = ctx.one_te()
    qd1 = (one + ctx.D).smul(ctx.q_inv) - one      # q^-1 d - 1
    pa1 = (one + ctx.A).smul(ctx.p_inv) - one      # p^-1 a - 1
    pqa1 = (one + ctx.A).smul(ctx.p_inv * ctx.q_inv) - one
    pqd1 = (one + ctx.D).smul(ctx.p_inv * ctx.q_inv) - one
    a_pow, d_pow = power_table(ctx.A, n_max), power_table(ctx.D, n_max)
    qd_pow = power_table(qd1, n_max - 1)
    pa_pow = power_table(pa1, n_max - 1)
    pqa_pow = power_table(pqa1, n_max - 2)
    pqd_pow = power_table(pqd1, n_max - 2)
    # right factors: (q^-1 d - 1)^j*beta, then times gamma, then
    # ((pq)^-1 a - 1)^i times that (likewise for c and d)
    b_right = [_lmul(qd_pow, j, ctx.beta) for j in range(n_max)]
    c_right = [_lmul(pa_pow, j, ctx.gamma) for j in range(n_max)]
    a_right = {}
    d_right = {}
    for j in range(n_max - 1):
        bg, gb = b_right[j] * ctx.gamma, c_right[j] * ctx.beta
        for i in range(n_max - 1 - j):
            a_right[i, j] = _lmul(pqa_pow, i, bg)
            d_right[i, j] = _lmul(pqd_pow, i, gb)
    zero = ctx.zero_te()
    blocks = []
    for n in range(1, n_max + 1):
        b = sum((_lmul(a_pow, n - j - 1, b_right[j]) for j in range(n)), zero)
        c = sum((_lmul(d_pow, n - j - 1, c_right[j]) for j in range(n)), zero)
        a, d = a_pow[n], d_pow[n]
        for j in range(n - 1):
            for k in range(n - j - 1):
                i = n - k - j - 2
                a = a + _lmul(a_pow, k, a_right[i, j])
                d = d + _lmul(d_pow, k, d_right[i, j])
        blocks.append(SuperMatrix(a, b, c, d))
    return blocks


def _lmul(powers, k, right):
    """powers[k]*right, with the unit powers[0] left out."""
    return powers[k] * right if k else right


def m_entries_scaled(ctx):
    """The closed forms of h*x, h*mu, h*nu, h*y as truncated elements."""
    ln_a, f_q, g_q = scalar_expansions(ctx, swapped=False)
    ln_d, f_p, g_p = scalar_expansions(ctx, swapped=True)
    gb_twist = -(ctx.q * ctx.p_inv)        # gamma*beta -> twist * beta*gamma
    hx = _embed(ctx, ln_a) + _embed(ctx, f_q, (1, 1))
    hy = _embed(ctx, ln_d) + _embed(ctx, f_p, (1, 1), gb_twist)
    hmu = _embed(ctx, g_q, (1, 0))
    hnu = _embed(ctx, g_p, (0, 1))
    return hx, hmu, hnu, hy


def exp_matrix(ctx, m, square):
    """Entrywise-truncated exponential of ``m``, given its square.

    Every entry must have weight at least 1: M^n then has weight at
    least n, so every term past n = W lies outside the window and the
    sum ends at n = W.  An entry of weight 0 would make the series run
    on past any window, and is refused with NotNilpotent.

    The sum of M^n/n! over n <= W is evaluated by Paterson and
    Stockmeyer's scheme (SIAM J. Comput. 2(1), 1973) in C = M^3: with
    the blocks B_k = sum over i < 3 of M^i/(3k + i)!, made from I, M and
    M^2 by scaling alone, acc = B_k + C*acc from the top block down.
    That is W//3 + 1 products of supermatrices, 3 at W = 8."""
    if any(e.min_weight() < 1 for e in m.entries()):
        raise NotNilpotent("exponential needs entries of weight at least 1")
    one, zero = ctx.one_te(), ctx.zero_te()
    powers = (SuperMatrix(one, zero, zero, one), m, square)
    cube = square * m
    acc = None
    for k in range(ctx.W // 3, -1, -1):
        block = None
        for n in range(3 * k, min(3 * k + 2, ctx.W) + 1):
            term = powers[n - 3 * k]
            if n > 1:       # 1/0! = 1/1! = 1: I and M enter as they are
                term = term.smul(ctx.tl(Fraction(1, factorial(n))))
            block = term if block is None else block + term
        acc = block if acc is None else block + cube * acc
    return acc


def _square(prod):
    """M^2 from the entry products of ``mside.entry_products``, each
    block summed in the order of SuperMatrix.__mul__."""
    return SuperMatrix(prod["x", "x"] + prod["mu", "nu"],
                       prod["x", "mu"] + prod["mu", "y"],
                       prod["nu", "x"] + prod["y", "nu"],
                       prod["nu", "mu"] + prod["y", "y"])


# -- identity lists ---------------------------------------------------------------


def series_identities(cfg):
    ctx = series_context(cfg)
    powers = tminus_powers(ctx)
    ln_mat = log_partial_sums(ctx, powers)
    hx, hmu, hnu, hy = m_entries_scaled(ctx)

    anchor = "h*M entry equals the matrix-log series"
    yield from tagged("log.closed", [
        ("x", anchor, hx, ln_mat.a11), ("mu", anchor, hmu, ln_mat.a12),
        ("nu", anchor, hnu, ln_mat.a21), ("y", anchor, hy, ln_mat.a22)])

    # N <= W, which SeriesConfig enforces
    for n, (closed, power) in enumerate(
            zip(closed_tminus_powers(ctx, cfg.N), powers), 1):
        yield from matrix_identities(
            f"tpower.closed.n={n}",
            "(T - I)^n closed block equals iterated product", closed, power)

    zero = ctx.zero_te()
    prod = entry_products(hx, hmu, hnu, hy)
    yield from tagged("bracket", (
        (tag, text + " (cleared by h)", lhs, rhs)
        for tag, text, lhs, rhs in bracket_rows(
            hmu, hnu, prod, ctx.phi * ctx.h, ctx.psi * ctx.h, zero)))

    # commutators of the diagonal logarithms against the odd generators
    ln_a = hx - _odd_part(hx)
    ln_d = hy - _odd_part(hy)
    yield Identity("bracket.lna.beta", "[ln a, beta] = h1*beta",
                   commutator(ln_a, ctx.beta), ctx.beta.smul(ctx.h1))
    yield Identity("bracket.lnd.beta", "[ln d, beta] = h1*beta",
                   commutator(ln_d, ctx.beta), ctx.beta.smul(ctx.h1))
    yield Identity("bracket.lna.gamma", "[ln a, gamma] = h2*gamma",
                   commutator(ln_a, ctx.gamma), ctx.gamma.smul(ctx.h2))
    yield Identity("bracket.lnd.gamma", "[ln d, gamma] = h2*gamma",
                   commutator(ln_d, ctx.gamma), ctx.gamma.smul(ctx.h2))

    # the diagonal commutator split into its three displayed pieces
    x_mix = commutator(ln_a, ln_d)
    y_mix = commutator(ln_a, _odd_part(hy))
    z_mix = commutator(ln_d, _odd_part(hx))
    witness_word = (ctx.gamma * ctx.invert_unit(ctx.one_te() + ctx.A)
                    * ctx.beta * ctx.invert_unit(ctx.one_te() + ctx.D))
    four_h2 = (ctx.h * ctx.h) * 4
    one_minus_pq = ctx.one_tl - ctx.p * ctx.q
    yield Identity("diagonal.sum", "[ln a, ln d] + Y - Z = 0",
                   x_mix + y_mix - z_mix, zero)
    yield Identity("diagonal.yz",
                   "(1 - pq)*(Y - Z) = 4h^2*gamma*a^-1*beta*d^-1",
                   (y_mix - z_mix).smul(one_minus_pq),
                   witness_word.smul(four_h2))
    yield Identity("diagonal.x",
                   "(pq - 1)*[ln a, ln d] = ln(pq)^2*gamma*a^-1*beta*d^-1",
                   x_mix.smul(-one_minus_pq),
                   witness_word.smul(ctx.ln_pq * ctx.ln_pq))

    yield from tagged("supertrace.central", central_rows(prod, zero))

    rebuilt = exp_matrix(ctx, SuperMatrix(hx, hmu, hnu, hy), _square(prod))
    yield from matrix_identities("roundtrip", "exp(h*M) = T", rebuilt,
                                 ctx.T_affine())

    if cfg.alpha == cfg.beta_ray:
        yield Identity("specialize.phi", "phi = 1 on the equal-ray",
                       ctx.scalar_te(ctx.phi), ctx.one_te())
        yield Identity("specialize.bracket", "[x, mu] = mu when h1 = h2",
                       prod["x", "mu"] - prod["mu", "x"], hmu.smul(ctx.h))


def _odd_part(te):
    pres = te.pres
    terms = {m: c for m, c in te.terms.items()
             if any(m[pres.n_even:])}
    return TruncElement(te.ctx, Element(pres, terms), te.prec, trim=False)


def verify_series(cfg, identities=None):
    """Run the per-ray suite; a check passes only when the difference
    vanishes on a window at least as deep as the adic order N."""
    if identities is None:
        identities = series_identities(cfg)
    return run_exact("series", identities,
                     {"alpha": str(cfg.alpha), "beta_ray": str(cfg.beta_ray),
                      "N": cfg.N, "K": cfg.K, "weight": cfg.weight},
                     min_prec=cfg.N)
