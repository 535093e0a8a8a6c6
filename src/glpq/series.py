"""Truncated-series sector: the logarithm of the defining matrix.

Works over the affine presentation (generators A = a-1, D = d-1, beta,
gamma) with truncated Laurent coefficients in t along a fixed ray
h1 = alpha*t, h2 = beta_ray*t, q = exp(h1), p = exp(h2).

Truncation semantics: rewriting trades generator degree for t-order
one-for-one (corrections like beta.A -> q^-1 A beta + (q^-1 - 1) beta),
so capping generator degree and t-order independently is not a ring
quotient.  Elements are therefore truncated by total weight (generator
degree plus t-exponent), and every element carries the weight bound
``prec`` through which its stored coefficients equal the untruncated
value.  Checks report and enforce that bound.

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
  top - g, which the final cut sets;
* the cap of c*lam is min(c.cap + val(lam), lam.cap + val(c)).  After
  the cut the second term is at least W - g, at or past the trim's cap;
  the first changes only where lam's slots through t^(top - g) all
  vanish, and then it also lies past W - g for a term pair inside the
  window.  Where the uncut cap binds below W - g, the cut one is equal.
  So the trim sees the same caps and the same slots, and the element
  bound ``prec`` is unchanged;
* ``ring.one`` is never cut.  ``_append`` and ``mul_pairs`` skip a
  multiplication when a factor *is* ``one``, and a cut copy would be a
  different object, so those shortcuts would stop firing.  An uncut
  ``one`` is exact, so it needs no cap.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .coeff import TruncLaurent, add_laurent_products, settle_laurent_sums
from .errors import InvalidRay, NotAUnit, TruncationUnderflow
from .nc import Element, Presentation, Ring, mul_pairs
from .poly import power
from .report import Identity, run_exact
from .printing import print_element
from .supermatrix import SuperMatrix

INF = 10 ** 9
EXPAND_MARGIN = 4        # extra generator degrees kept in scalar expansions

DEFAULT_RAYS = ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(2)),
                (Fraction(2), Fraction(1)), (Fraction(1), Fraction(-3)),
                (Fraction(3), Fraction(-1)))


@dataclass(frozen=True)
class SeriesConfig:
    alpha: Fraction = Fraction(1)
    beta_ray: Fraction = Fraction(1)
    N: int = 6                     # reporting threshold for the adic order
    K: int = 12                    # t-order of scalar expansions
    weight: int = 8                # total-weight cap of element arithmetic

    def __post_init__(self):
        if self.alpha == 0 or self.beta_ray == 0:
            raise InvalidRay("ray components must be nonzero")
        if self.alpha + self.beta_ray == 0:
            raise InvalidRay("alpha + beta_ray must be nonzero")
        if self.K < self.N + 2:
            raise InvalidRay("K must be at least N + 2")
        if self.weight < self.N:
            raise InvalidRay("weight cap below the adic reporting order")
        if self.weight >= self.K:
            raise InvalidRay("weight cap must be below the scalar expansion "
                             "order K")


class TruncElement:
    """Element with a tracked validity bound on total weight."""

    __slots__ = ("ctx", "element", "prec")

    def __init__(self, ctx, element, prec, trim=True):
        if trim:
            element, prec = _trim(element, min(prec, ctx.W))
        self.ctx = ctx
        self.element = element
        self.prec = prec

    @property
    def pres(self):
        return self.element.pres

    def parity(self):
        return self.element.parity()

    def is_zero(self):
        return self.element.is_zero()

    def min_weight(self):
        w = INF
        for m, c in self.element.terms.items():
            w = min(w, sum(m) + c.valuation())
        return w

    def __add__(self, other):
        return TruncElement(self.ctx, self.element + other.element,
                            min(self.prec, other.prec))

    def __sub__(self, other):
        return TruncElement(self.ctx, self.element - other.element,
                            min(self.prec, other.prec))

    def __neg__(self):
        return TruncElement(self.ctx, -self.element, self.prec, trim=False)

    def __mul__(self, other):
        self.element._check(other.element)
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
        elem = self.element.smul(s)
        return TruncElement(self.ctx, elem, prec)

    def __pow__(self, n):
        if n < 0:
            return self.ctx.invert_unit(self) ** (-n)
        return power(self.ctx.one_te(), self, n)

    def __eq__(self, other):
        return (isinstance(other, TruncElement)
                and (self - other).is_zero())

    def __repr__(self):
        return f"TruncElement({print_element(self.element)}; prec={self.prec})"


def _by_weight(te):
    """(weight, term) of every term of ``te``, lightest first."""
    return sorted(((sum(m) + c.valuation(), (m, c))
                   for m, c in te.element.terms.items()), key=itemgetter(0))


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
    """Restrict stored data to the trusted weight window."""
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
        self.cfg = cfg
        K = cfg.K
        self.K = K
        self.W = cfg.weight
        tl = lambda v: TruncLaurent.const(v, K)
        self.one_tl = tl(1)
        self.zero_tl = TruncLaurent.zero(K)
        self.q = TruncLaurent.exp_of(cfg.alpha, K)
        self.p = TruncLaurent.exp_of(cfg.beta_ray, K)
        self.q_inv = TruncLaurent.exp_of(-cfg.alpha, K)
        self.p_inv = TruncLaurent.exp_of(-cfg.beta_ray, K)
        self.h1 = TruncLaurent(1, (cfg.alpha.numerator,),
                               cfg.alpha.denominator, K)
        self.h2 = TruncLaurent(1, (cfg.beta_ray.numerator,),
                               cfg.beta_ray.denominator, K)
        self.h = (self.h1 + self.h2) * Fraction(1, 2)
        self.h_inv = self.h.inv()
        self.phi = tl(2 * cfg.alpha / (cfg.alpha + cfg.beta_ray))
        self.psi = tl(2 * cfg.beta_ray / (cfg.alpha + cfg.beta_ray))
        self.ln_pq = self.h1 + self.h2

        eps = self.q - self.p_inv
        bg = (("beta", 1), ("gamma", 1))
        one = self.one_tl
        self.pres = Presentation(
            Ring(one, self.zero_tl),
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
        c0 = te.element.terms.get(empty)
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
# itself engine-verified), so these prefactors are expanded in a
# commutative bivariate series graded by generator degree.


class EvenSeries:
    """Commutative series in (A, D) over TruncLaurent, sliced by degree."""

    __slots__ = ("ctx", "slices", "gmax")

    def __init__(self, ctx, slices, gmax):
        self.ctx = ctx
        self.slices = {g: s for g, s in slices.items()
                       if g <= gmax and any(not c.is_zero() for c in s.values())}
        self.gmax = gmax

    @staticmethod
    def const(ctx, tl_value, gmax):
        return EvenSeries(ctx, {0: {(0, 0): tl_value}}, gmax)

    @staticmethod
    def gen(ctx, which, gmax):
        key = (1, 0) if which == "A" else (0, 1)
        return EvenSeries(ctx, {1: {key: ctx.one_tl}}, gmax)

    def valuation_g(self):
        return min(self.slices, default=self.gmax + 1)

    def min_val_t(self):
        v = INF
        for s in self.slices.values():
            for c in s.values():
                v = min(v, c.valuation())
        return v

    def __add__(self, other):
        gmax = min(self.gmax, other.gmax)
        out = {g: dict(s) for g, s in self.slices.items() if g <= gmax}
        for g, s in other.slices.items():
            if g > gmax:
                continue
            tgt = out.setdefault(g, {})
            for ik, c in s.items():
                tgt[ik] = tgt[ik] + c if ik in tgt else c
        return EvenSeries(self.ctx, out, gmax)

    def __neg__(self):
        return EvenSeries(self.ctx,
                          {g: {ik: -c for ik, c in s.items()}
                           for g, s in self.slices.items()}, self.gmax)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        gmax = min(self.gmax + other.valuation_g(),
                   other.gmax + self.valuation_g(), INF)
        out = {}
        for g1, s1 in self.slices.items():
            for g2, s2 in other.slices.items():
                g = g1 + g2
                if g > gmax:
                    continue
                tgt = out.setdefault(g, {})
                for (i1, k1), c1 in s1.items():
                    for (i2, k2), c2 in s2.items():
                        ik = (i1 + i2, k1 + k2)
                        c = c1 * c2
                        tgt[ik] = tgt[ik] + c if ik in tgt else c
        return EvenSeries(self.ctx, out, gmax)

    def scal(self, tl_value):
        return EvenSeries(self.ctx,
                          {g: {ik: c * tl_value for ik, c in s.items()}
                           for g, s in self.slices.items()}, self.gmax)

    def __truediv__(self, den):
        """Graded solve of z * den = self; den needs an invertible
        constant slice."""
        c0 = den.slices.get(0, {}).get((0, 0))
        if c0 is None or c0.is_zero():
            raise TruncationUnderflow("denominator has no constant slice")
        c0_inv = c0.inv()
        gmax = min(self.gmax, den.gmax)
        out = {}
        for g in range(gmax + 1):
            acc = dict(self.slices.get(g, {}))
            for j in range(1, g + 1):
                dj = den.slices.get(j)
                zg = out.get(g - j)
                if not dj or not zg:
                    continue
                for (i1, k1), c1 in zg.items():
                    for (i2, k2), c2 in dj.items():
                        ik = (i1 + i2, k1 + k2)
                        c = c1 * c2
                        acc[ik] = acc[ik] - c if ik in acc else -c
            slice_g = {ik: c * c0_inv for ik, c in acc.items()
                       if not c.is_zero()}
            if slice_g:
                out[g] = slice_g
        return EvenSeries(self.ctx, out, gmax)

    def to_element(self, odd_bits=(0, 0), scalar=None):
        """Attach an odd tail; the result is trusted on the full weight
        window because gmax exceeds the cap by the expansion margin."""
        ctx = self.ctx
        if self.gmax < ctx.W + EXPAND_MARGIN:
            raise TruncationUnderflow("even expansion shallower than the cap")
        if self.min_val_t() < -(EXPAND_MARGIN - 1):
            raise TruncationUnderflow("even expansion too singular to embed")
        eb, gb = odd_bits
        terms = {}
        for g, s in self.slices.items():
            for (i, k), c in s.items():
                if scalar is not None:
                    c = c * scalar
                if not c.is_zero():
                    terms[(i, k, eb, gb)] = c
        return TruncElement(ctx, Element(ctx.pres, terms), ctx.W)


def _ln_one_plus(ctx, which, gmax):
    slices = {}
    key = (1, 0) if which == "A" else (0, 1)
    for n in range(1, gmax + 1):
        coef = ctx.tl(Fraction((-1) ** (n + 1), n))
        slices[n] = {(key[0] * n, key[1] * n): coef}
    return EvenSeries(ctx, slices, gmax)


def scalar_expansions(ctx, swapped=False):
    """Even-sector prefactors of the matrix-logarithm closed forms.

    Returns (ln_first, f_series, g_series).  ``swapped`` produces the
    image under the parameter exchange (second diagonal entry).
    """
    gmax = ctx.W + EXPAND_MARGIN
    if not swapped:
        first, second = "A", "D"
        qq, qq_inv, pp_inv = ctx.q, ctx.q_inv, ctx.p_inv
        ln_qq, ln_pp = ctx.h1, ctx.h2
    else:
        first, second = "D", "A"
        qq, qq_inv, pp_inv = ctx.p, ctx.p_inv, ctx.q_inv
        ln_qq, ln_pp = ctx.h2, ctx.h1
    one = EvenSeries.const(ctx, ctx.one_tl, gmax)
    g1 = one + EvenSeries.gen(ctx, first, gmax)
    g2 = one + EvenSeries.gen(ctx, second, gmax)
    ln_g1 = _ln_one_plus(ctx, first, gmax)
    ln_g2 = _ln_one_plus(ctx, second, gmax)
    ln_q_inv_g2 = ln_g2 + EvenSeries.const(ctx, -ln_qq, gmax)
    ln_pq_inv_g1 = ln_g1 + EvenSeries.const(ctx, -(ln_qq + ln_pp), gmax)
    den_q = g1.scal(qq) - g2
    den_p = g1.scal(pp_inv) - g2
    piece1 = ln_g1 / (g1 * den_q)
    piece2 = ln_pq_inv_g1 / (g1 * den_p)
    piece3 = ln_q_inv_g2 / (den_p * den_q)
    q2 = qq * qq
    f_series = (piece1 - piece2).scal(q2 * (qq - pp_inv).inv()) \
        + piece3.scal(q2)
    g_series = (ln_g1 - ln_q_inv_g2) / (g1 - g2.scal(qq_inv))
    return ln_g1, f_series, g_series


# -- the two code paths for the matrix logarithm --------------------------------


def log_partial_sums(ctx):
    """Matrix logarithm as the alternating series in powers of (T - I)."""
    tm = ctx.T_minus_I()
    acc = None
    power = tm
    for n in range(1, ctx.W + 1):
        scaled = power.smul(ctx.tl(Fraction((-1) ** (n + 1), n)))
        acc = scaled if acc is None else acc + scaled
        if n < ctx.W:
            power = power * tm
    return acc


def closed_tminus_powers(ctx, n):
    """The displayed closed forms of the blocks of (T - I)^n."""
    one = ctx.one_te()
    qd1 = (one + ctx.D).smul(ctx.q_inv) - one      # q^-1 d - 1
    pa1 = (one + ctx.A).smul(ctx.p_inv) - one      # p^-1 a - 1
    pqa1 = (one + ctx.A).smul(ctx.p_inv * ctx.q_inv) - one
    pqd1 = (one + ctx.D).smul(ctx.p_inv * ctx.q_inv) - one
    b = ctx.zero_te()
    c = ctx.zero_te()
    for j in range(n):
        b = b + ctx.A ** (n - j - 1) * qd1 ** j * ctx.beta
        c = c + ctx.D ** (n - j - 1) * pa1 ** j * ctx.gamma
    a = ctx.A ** n
    d = ctx.D ** n
    for j in range(n - 1):
        for k in range(n - j - 1):
            a = a + (ctx.A ** k * pqa1 ** (n - k - j - 2) * qd1 ** j
                     * ctx.beta * ctx.gamma)
            d = d + (ctx.D ** k * pqd1 ** (n - k - j - 2) * pa1 ** j
                     * ctx.gamma * ctx.beta)
    return SuperMatrix(a, b, c, d)


def m_entries_scaled(ctx):
    """The closed forms of h*x, h*mu, h*nu, h*y as truncated elements."""
    ln_a, f_q, g_q = scalar_expansions(ctx, swapped=False)
    ln_d, f_p, g_p = scalar_expansions(ctx, swapped=True)
    gb_twist = -(ctx.q * ctx.p_inv)        # gamma*beta -> twist * beta*gamma
    hx = ln_a.to_element() + f_q.to_element((1, 1))
    hy = ln_d.to_element() + f_p.to_element((1, 1), scalar=gb_twist)
    hmu = g_q.to_element((1, 0))
    hnu = g_p.to_element((0, 1))
    return hx, hmu, hnu, hy


def m_from_T(cfg):
    """Matrix of the scaled logarithm entries divided by h."""
    ctx = series_context(cfg)
    hx, hmu, hnu, hy = m_entries_scaled(ctx)
    return SuperMatrix(hx, hmu, hnu, hy).map(lambda e: e.smul(ctx.h_inv))


def log_T(cfg):
    ctx = series_context(cfg)
    return log_partial_sums(ctx).map(lambda e: e.smul(ctx.h_inv))


def exp_matrix(ctx, m):
    """Entrywise-truncated exponential; terminates by the weight cap."""
    ident = SuperMatrix(ctx.one_te(), ctx.zero_te(), ctx.zero_te(),
                        ctx.one_te())
    acc = ident
    term = ident
    for n in range(1, 2 * ctx.W + 6):
        term = (term * m).smul(ctx.tl(Fraction(1, n)))
        if all(e.is_zero() for e in term.entries()):
            break
        acc = acc + term
    return acc


# -- identity lists ---------------------------------------------------------------


def series_identities(cfg):
    ctx = series_context(cfg)
    ln_mat = log_partial_sums(ctx)
    hx, hmu, hnu, hy = m_entries_scaled(ctx)

    for tag, closed, series_entry in (("x", hx, ln_mat.a11),
                                      ("mu", hmu, ln_mat.a12),
                                      ("nu", hnu, ln_mat.a21),
                                      ("y", hy, ln_mat.a22)):
        yield Identity(f"log.closed.{tag}",
                       "h*M entry equals the matrix-log series",
                       closed, series_entry)

    tm = ctx.T_minus_I()
    power = tm
    for n in range(1, cfg.N + 1):
        closed = closed_tminus_powers(ctx, n)
        for tag, lhs, rhs in zip(("11", "12", "21", "22"),
                                 closed.entries(), power.entries()):
            yield Identity(f"tpower.closed.n={n}.{tag}",
                           "(T - I)^n closed block equals iterated product",
                           lhs, rhs)
        power = power * tm

    phi_h, psi_h = ctx.phi * ctx.h, ctx.psi * ctx.h
    zero = ctx.zero_te()
    brackets = [
        ("x.mu", "[x, mu] = phi*mu", _comm(hx, hmu), hmu.smul(phi_h)),
        ("y.mu", "[y, mu] = phi*mu", _comm(hy, hmu), hmu.smul(phi_h)),
        ("mu.sq", "mu^2 = 0", hmu * hmu, zero),
        ("x.nu", "[x, nu] = psi*nu", _comm(hx, hnu), hnu.smul(psi_h)),
        ("y.nu", "[y, nu] = psi*nu", _comm(hy, hnu), hnu.smul(psi_h)),
        ("nu.sq", "nu^2 = 0", hnu * hnu, zero),
        ("x.y", "x*y - y*x = 0", _comm(hx, hy), zero),
        ("mu.nu", "mu*nu + nu*mu = 0", hmu * hnu + hnu * hmu, zero),
    ]
    for tag, anchor, lhs, rhs in brackets:
        yield Identity(f"bracket.{tag}", anchor + " (cleared by h)", lhs, rhs)

    # commutators of the diagonal logarithms against the odd generators
    ln_a = hx - _odd_part(hx)
    ln_d = hy - _odd_part(hy)
    yield Identity("bracket.lna.beta", "[ln a, beta] = h1*beta",
                   _comm(ln_a, ctx.beta), ctx.beta.smul(ctx.h1))
    yield Identity("bracket.lnd.beta", "[ln d, beta] = h1*beta",
                   _comm(ln_d, ctx.beta), ctx.beta.smul(ctx.h1))
    yield Identity("bracket.lna.gamma", "[ln a, gamma] = h2*gamma",
                   _comm(ln_a, ctx.gamma), ctx.gamma.smul(ctx.h2))
    yield Identity("bracket.lnd.gamma", "[ln d, gamma] = h2*gamma",
                   _comm(ln_d, ctx.gamma), ctx.gamma.smul(ctx.h2))

    # the diagonal commutator split into its three displayed pieces
    x_mix = _comm(ln_a, ln_d)
    y_mix = _comm(ln_a, _odd_part(hy))
    z_mix = _comm(ln_d, _odd_part(hx))
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

    st = hx - hy
    for tag, g in (("x", hx), ("y", hy), ("mu", hmu), ("nu", hnu)):
        yield Identity(f"supertrace.central.{tag}", f"[x - y, {tag}] = 0",
                       _comm(st, g), zero)

    hm = SuperMatrix(hx, hmu, hnu, hy)
    rebuilt = exp_matrix(ctx, hm)
    target = ctx.T_affine()
    for tag, lhs, rhs in zip(("11", "12", "21", "22"), rebuilt.entries(),
                             target.entries()):
        yield Identity(f"roundtrip.{tag}", "exp(h*M) = T", lhs, rhs)

    if cfg.alpha == cfg.beta_ray:
        yield Identity("specialize.phi", "phi = 1 on the equal-ray",
                       ctx.scalar_te(ctx.phi), ctx.one_te())
        yield Identity("specialize.bracket", "[x, mu] = mu when h1 = h2",
                       _comm(hx, hmu), hmu.smul(ctx.h))


def _comm(a, b):
    return a * b - b * a


def _odd_part(te):
    pres = te.element.pres
    terms = {m: c for m, c in te.element.terms.items()
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
