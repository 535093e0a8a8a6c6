"""Exact scalar towers: rational functions and truncated Laurent series.

Three kinds of scalars feed the algebra layers: plain rationals
(``fractions.Fraction``), :class:`RatFunc` over a :class:`SymbolSet`, and
:class:`TruncLaurent` in one formal parameter ``t``.  All are immutable
values.  Rationals and rational functions have canonical
representations, so ``==`` is the identity test and ``hash`` agrees
with it; truncated series compare by their windows and are unhashable.

Canonical form of a rational function: ``num/den`` where

* ``num`` is a Laurent polynomial (negative exponents allowed),
* ``den`` is a polynomial with no monomial factor (its minimum exponent
  is 0 in every symbol) and a positive graded-lex leading coefficient;
  it keeps any positive integer content,
* and the two are coprime in ``Z[syms^+-1]`` (``den = 1`` for zero).

``Z[syms^+-1]`` is a localization of the unique factorization domain
``Z[syms]``, so it is one too, and its units are the signed monomials
``+-x^a``.  Two coprime pairs that represent the same fraction
therefore differ by such a unit.  A denominator free of monomial
factors fixes ``x^a``, and the sign rule fixes the sign: the form is
unique, whatever route reduced it.

Every twist and correction scalar of the tside presentation (``q^-1``,
``p^-1``, ``-(q p^-1)``, ``eps = q - p^-1``, ``eps pq``) has ``den = 1``
in this form.  When both denominators are constants, a product is one
convolution of the numerators plus one integer gcd, and a sum is a
dict merge.  Otherwise the arithmetic never reduces a full product: it
cancels only the common factors that can exist, and then it builds the
result as an already coprime pair:

* reduction by :func:`glpq.poly.cofactors`, which tries an exact
  division before running a PRS, on polynomial parts only: a Laurent
  numerator is split into its monomial factor and a polynomial first;
* products by cross-cancellation (Henrici 1956; Knuth, TAOCP vol. 2,
  section 4.5.1): ``a/b * c/d`` divides ``gcd(a, d)`` and ``gcd(c, b)``
  out of the operands;
* sums through ``gcd(b, d)``: with ``b = b'g``, ``d = d'g``,
  ``t = a d' + c b'`` and ``h = gcd(t, g)``, the sum is
  ``(t/h) / (b' * (d/h))``.  ``t`` shares no factor with ``b'`` or
  ``d'``, so ``h`` is all there is to cancel.

The printer and :meth:`RatFunc.subst` work on the cleared pair: ``num``
and ``den`` times the monomial that clears the negative exponents of
``num``.  That is the coprime polynomial pair with positive leading
coefficient, since a monomial shift keeps both the graded-lex order and
the sign of the leading coefficient.

Laurent symbols (``SymbolSet(names, laurent=...)``, the exponentials E1,
E2 of :mod:`glpq.mside`) never enter ``den``: sums and products cancel
only factors of denominators, and :meth:`RatFunc.subst` must map each to
a monomial.  ``inv`` then inverts only a numerator with one monomial in
them (else :class:`~glpq.errors.NotAUnit`), and the printer and
``eval_float`` go part by part: the numerator split by that monomial,
in ascending order of its exponents, each part reduced over ``den`` by
itself, as in ``(1/2*x + 1/2)*E1^-1 + x*E2``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (DivisionByZero, MissingSymbol, NearPoleEvaluation,
                     NotAUnit, NumericOverflow, SymbolSetMismatch,
                     TruncationUnderflow)
from .poly import (_MASK, Pol, _pol, cofactors, mono_str, signed_terms,
                   terms_str)

DEFAULT_TRUNC_ORDER = 12
POLE_EPS = 1e-6

_new = object.__new__


def _rf(num, den):
    """Trusted constructor: a pair already in canonical form."""
    r = _new(RatFunc)
    r.num = num
    r.den = den
    r._hash = None
    return r


def _strip(p):
    """``(delta, p0)`` with ``p = x^delta * p0`` and ``p0`` free of
    monomial factors; ``p`` nonzero, ``delta`` a key offset."""
    delta = p.syms.offset(p.lowest())
    return delta, p.shift(-delta)


def _cancel(n, d):
    """``(n/h, d/h)`` for ``h = gcd(n, d)``: ``n`` a nonzero Laurent
    polynomial, ``d`` a denominator in canonical form, and so is
    ``d/h``."""
    if len(n.terms) == 1 or len(d.terms) == 1:
        # d has no monomial factor, so h is an integer
        g = math.gcd(*n.terms.values(), *d.terms.values())
        if g == 1:
            return n, d
        g = Pol.const(n.syms, g)
        return n.divexact(g), d.divexact(g)
    delta, n = _strip(n)
    _, n, d = cofactors(n, d)
    return n.shift(delta), d


def _laurent_groups(num):
    """Dict: the Laurent symbols' fields of a key (``syms.laurent``) ->
    the terms of ``num`` whose keys have those fields.  The fields hold
    biased exponents, so the dict keys sort as the exponent tuples."""
    shifts = num.syms.shifts
    mask = sum(_MASK << shifts[i] for i in num.syms.laurent)
    groups = {}
    for k, c in num.terms.items():
        groups.setdefault(k & mask, {})[k] = c
    return groups


class RatFunc:
    """Rational function in canonical form (see the module docstring).

    ``RatFunc(num, den)`` reduces its arguments; ``reduce=False`` is for
    parts already known to be coprime, and only moves the monomial
    factor of ``den`` into ``num`` and fixes the sign.  Every result of
    the arithmetic below is built in canonical form, so no operation
    pays for a gcd of a full product, and every result is the pair a
    full reduction would give.  A constant compares equal to, and
    hashes like, its ``int`` or ``Fraction`` value.
    """

    __slots__ = ("num", "den", "_hash", "_cleared", "_parts")

    def __init__(self, num: Pol, den: Pol, reduce=True):
        if num.syms is not den.syms and num.syms != den.syms:
            raise SymbolSetMismatch(f"{num.syms} vs {den.syms}")
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        if num.is_zero():
            den = Pol.const(num.syms, 1)
        else:
            delta, den = _strip(den)
            num = num.shift(-delta)
            if den.leading()[1] < 0:
                num, den = -num, -den
            if reduce:
                num, den = _cancel(num, den)
        self.num = num
        self.den = den
        self._hash = None

    # -- constructors ---------------------------------------------------

    @staticmethod
    def const(syms, q):
        q = Fraction(q)
        return _rf(Pol.const(syms, q.numerator), Pol.const(syms, q.denominator))

    @staticmethod
    def symbol(syms, name, exp=1):
        return _rf(Pol.symbol(syms, name, exp), Pol.const(syms, 1))

    # -- predicates -------------------------------------------------------

    def is_zero(self):
        return self.num.is_zero()

    @property
    def syms(self):
        return self.num.syms

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if type(other) is not RatFunc and isinstance(other, (int, Fraction)):
            other = RatFunc.const(self.syms, other)
        a, u = self.num, self.den
        c, v = other.num, other.den
        if not a.terms:
            return other
        if not c.terms:
            return self
        if u == v:
            num = a + c
            if u.is_one():
                return _rf(num, u)
            if not num.terms:
                return RatFunc.const(a.syms, 0)
            return _rf(*_cancel(num, u))
        # below, the sum is not zero: a zero sum would mean equal
        # canonical forms of a/u and -c/v, that is u = v
        if len(u.terms) == 1 and len(v.terms) == 1:
            # distinct constant denominators: merge over their lcm
            (cu,), (cv,) = u.terms.values(), v.terms.values()
            lcm = cu * cv // math.gcd(cu, cv)
            num = a.mul_int(lcm // cu) + c.mul_int(lcm // cv)
            return _rf(*_cancel(num, Pol.const(a.syms, lcm)))
        d, u1, v1 = cofactors(u, v)
        t = a * v1 + c * u1
        if d.is_one():
            return _rf(t, u * v)
        t, dh = _cancel(t, d)
        return _rf(t, u1 * (v1 * dh))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _rf(-self.num, self.den)

    def __mul__(self, other):
        if type(other) is not RatFunc and isinstance(other, (int, Fraction)):
            other = RatFunc.const(self.syms, other)
        a, b = self.num, self.den
        c, d = other.num, other.den
        if len(b.terms) == 1 and len(d.terms) == 1:
            # constant denominators: one convolution, one integer gcd
            num = a * c
            (cb,), (cd,) = b.terms.values(), d.terms.values()
            if cb == 1 and cd == 1:
                return _rf(num, b)
            if not num.terms:
                return RatFunc.const(a.syms, 0)
            return _rf(*_cancel(num, Pol.const(a.syms, cb * cd)))
        if not a.terms or not c.terms:
            return RatFunc.const(a.syms, 0)
        a, d = _cancel(a, d)
        c, b = _cancel(c, b)
        return _rf(a * c, b * d)

    def __truediv__(self, other):
        if type(other) is not RatFunc and isinstance(other, (int, Fraction)):
            other = RatFunc.const(self.syms, other)
        return self * other.inv()

    def inv(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero rational function")
        if self.syms.laurent and len(_laurent_groups(self.num)) > 1:
            # the denominator would hold a Laurent symbol
            raise NotAUnit("only single exponential terms are invertible")
        if len(self.num.terms) == 1:
            # (c x^a)^-1 * den = sign(c) x^-a den / |c|, which is coprime
            # since den shares no integer factor with c
            (k, c), = self.num.terms.items()
            num = self.den.shift(self.num.syms.zero - k)
            return _rf(num if c > 0 else -num, Pol.const(self.syms, abs(c)))
        return RatFunc(self.den, self.num, reduce=False)

    def __pow__(self, n):
        if n < 0:
            return self.inv() ** (-n)
        # powers of coprime parts stay coprime, and den^n keeps the form
        return _rf(self.num ** n, self.den ** n)

    def __eq__(self, other):
        if type(other) is not RatFunc and isinstance(other, (int, Fraction)):
            other = RatFunc.const(self.syms, other)
        return (isinstance(other, RatFunc) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        if self._hash is None:
            if self.num.is_const() and self.den.is_const():
                # equal to a Fraction, so hash like one
                self._hash = hash(Fraction(self.num.const_value(),
                                           self.den.const_value()))
            else:
                self._hash = hash((self.num, self.den))
        return self._hash

    def cleared(self):
        """``num`` and ``den`` times the monomial that clears the negative
        exponents of ``num``: the coprime polynomial pair.  Kept once
        computed, since a spot check evaluates each scalar many times."""
        try:
            return self._cleared
        except AttributeError:
            pass
        num, den = self.num, self.den
        if num.terms:
            delta = num.syms.offset([-e if e < 0 else 0 for e in num.lowest()])
            num, den = num.shift(delta), den.shift(delta)
        self._cleared = num, den
        return self._cleared

    def _laurent_parts(self):
        """``((mono, r), ...)``: the parts of the numerator by their monomial
        in the Laurent symbols, ``mono`` its nonzero ``(name, exponent)``
        pairs, ``r`` the part over that monomial reduced over ``den``;
        in ascending order of the exponents, and kept once computed."""
        try:
            return self._parts
        except AttributeError:
            pass
        syms, den = self.syms, self.den
        groups = _laurent_groups(self.num)
        parts = []
        for g in sorted(groups):
            e = syms.unpack(next(iter(groups[g])))
            delta = sum(e[i] * syms.units[i] for i in syms.laurent)
            num = _pol(syms, {k - delta: c for k, c in groups[g].items()})
            # one part is the whole numerator over a monomial: coprime
            parts.append((tuple((syms.names[i], e[i]) for i in syms.laurent
                                if e[i]),
                          _rf(num, den) if len(groups) == 1
                          else _rf(*_cancel(num, den))))
        self._parts = tuple(parts)
        return self._parts

    # -- evaluation / substitution ---------------------------------------------

    def eval_float(self, assignment, eps=POLE_EPS):
        if not self.syms.laurent:
            return self._eval_float(assignment, eps)
        total = 0.0
        for mono, r in self._laurent_parts():
            v = r._eval_float(assignment, eps)
            for name, e in mono:
                v *= power_at(assignment, name, e)
            total += v
        return total

    def _eval_float(self, assignment, eps):
        num, den = self.cleared()
        d = den.eval_float(assignment)
        if abs(d) < eps:
            raise NearPoleEvaluation(f"|denominator| = {abs(d):.2e}")
        if not math.isfinite(d):
            # num / inf would read as 0 whatever the true quotient is
            raise NumericOverflow("denominator outside the float range")
        return num.eval_float(assignment) / d

    def subst(self, mapping):
        """Substitute symbols by Pol values in the cleared pair."""
        num, den = self.cleared()
        return RatFunc(num.subst(mapping), den.subst(mapping))

    # -- printing -----------------------------------------------------------------

    def __str__(self):
        if not self.syms.laurent:
            return self._plain_str()
        out = []
        for mono, r in self._laurent_parts():
            rs = r._plain_str()
            es = mono_str(mono)
            if not es:
                body = rs
            elif rs in ("1", "-1"):
                body = rs[:-1] + es
            else:
                body = f"({rs})*{es}" if " " in rs else f"{rs}*{es}"
            if out:
                body = "- " + body[1:] if body[0] == "-" else "+ " + body
            out.append(body)
        return " ".join(out) or "0"

    def _plain_str(self):
        num, den = self.num, self.den
        if len(den.terms) == 1:
            dc = den.const_value()
            if dc == 1:
                return str(num)
            # distribute a constant denominator into the numerator terms
            return terms_str(self.syms, num.terms, dc)
        num, den = self.cleared()
        inv = f"({den})^-1"
        if num.is_const() and abs(num.const_value()) == 1:
            return inv if num.const_value() > 0 else f"-{inv}"
        text = str(num)
        if len(num.terms) > 1:
            text = f"({text})"
        return f"{text}*{inv}"

    def __repr__(self):
        return f"RatFunc({self})"


def power_at(assignment, name, e):
    """``assignment[name] ** e``, 1.0 for e = 0 without a value; raises
    MissingSymbol for a name with no value and NearPoleEvaluation for a
    negative power of a value within ``POLE_EPS`` of 0."""
    if not e:
        return 1.0
    try:
        v = assignment[name]
    except KeyError:
        raise MissingSymbol(name) from None
    if e < 0 and abs(v) < POLE_EPS:
        raise NearPoleEvaluation(f"|{name}| = {abs(v):.2e} under {name}^{e}")
    return v ** e


class TruncLaurent:
    """Laurent series in t known modulo O(t^(cap+1)).

    Stored as integer numerators over one positive denominator, starting
    at exponent ``lead``.  The window is trimmed so that either ``nums``
    is empty (zero through the cap) or its first entry is nonzero.

    Unhashable: ``==`` compares windows up to the smaller cap, so
    ``zero(cap=c)`` equals every series of valuation above ``c``, and no
    hash that is not constant could agree with it.
    """

    __slots__ = ("lead", "nums", "den", "cap")

    def __init__(self, lead, nums, den, cap):
        if den == 0:
            raise DivisionByZero("zero denominator in series")
        if den < 0:
            den = -den
            nums = [-n for n in nums]
        s = _settle(lead, list(nums) if lead <= cap else [], den, cap)
        self.lead, self.nums, self.den, self.cap = s.lead, s.nums, s.den, s.cap

    # -- constructors -----------------------------------------------------

    @staticmethod
    def const(q, cap=DEFAULT_TRUNC_ORDER):
        q = Fraction(q)
        return TruncLaurent(0, (q.numerator,), q.denominator, cap)

    @staticmethod
    def t_power(n=1, cap=DEFAULT_TRUNC_ORDER):
        return TruncLaurent(n, (1,), 1, cap)

    @staticmethod
    def zero(cap=DEFAULT_TRUNC_ORDER):
        return _laurent(cap + 1, (), 1, cap)

    @staticmethod
    def exp_of(alpha, cap=DEFAULT_TRUNC_ORDER):
        """Series of exp(alpha*t) through the cap; alpha rational."""
        alpha = Fraction(alpha)
        coeffs = [Fraction(1)]
        for n in range(1, cap + 1):
            coeffs.append(coeffs[-1] * alpha / n)
        den = math.lcm(*(c.denominator for c in coeffs))
        return TruncLaurent(0, tuple(c.numerator * (den // c.denominator)
                                     for c in coeffs), den, cap)

    # -- structure ------------------------------------------------------------

    def is_zero(self):
        return not self.nums

    def valuation(self):
        """Exponent of the first stored nonzero term, or cap+1 if none."""
        return self.lead if self.nums else self.cap + 1

    def coefficient(self, n):
        if n < self.lead or n >= self.lead + len(self.nums):
            return Fraction(0)
        return Fraction(self.nums[n - self.lead], self.den)

    def with_cap(self, cap):
        """The same series known through ``cap`` only, or further."""
        nums = self.nums
        keep = cap - self.lead + 1
        if keep <= 0 or not nums:
            return TruncLaurent.zero(cap)
        if keep >= len(nums):
            return _laurent(self.lead, nums, self.den, cap)
        return _settle(self.lead, list(nums[:keep]), self.den, cap)

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other):
        if type(other) is not TruncLaurent:
            other = TruncLaurent.const(other, self.cap)
        cap = min(self.cap, other.cap)
        a, b = self.nums, other.nums
        if not a:
            return other if other.cap == cap else other.with_cap(cap)
        if not b:
            return self if self.cap == cap else self.with_cap(cap)
        la, lb = self.lead, other.lead
        da, db = self.den, other.den
        den = da
        if da != db:
            g = math.gcd(da, db)
            den = da // g * db
            if db != g:
                a = [n * (db // g) for n in a]
            if da != g:
                b = [n * (da // g) for n in b]
        if la > lb:
            la, lb, a, b = lb, la, b, a
        # b is laid over a, which starts first, at or below the cap
        nums = list(a)
        short = lb - la + len(b) - len(nums)
        if short > 0:
            nums += [0] * short
        for i, n in enumerate(b, lb - la):
            nums[i] += n
        return _settle(la, nums, den, cap)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncLaurent.const(other, self.cap)
        return self + (-other)

    def __neg__(self):
        return _laurent(self.lead, [-n for n in self.nums], self.den, self.cap)

    def __mul__(self, other):
        if type(other) is not TruncLaurent:
            other = TruncLaurent.const(other, self.cap)
        return _product(self, other, min(self.cap + other.valuation(),
                                         other.cap + self.valuation()))

    def mul_through(self, other, cap):
        """``(self * other).with_cap(cap)`` when ``cap`` is below the
        product's own cap, without computing the slots past ``cap``."""
        return _product(self, other, min(cap, self.cap + other.valuation(),
                                         other.cap + self.valuation()))

    def inv(self):
        if self.is_zero():
            raise TruncationUnderflow(
                f"divisor indistinguishable from 0 at order {self.cap}")
        v = self.lead
        cap = self.cap - 2 * v
        # invert the unit part; relative precision survives inversion
        c0 = Fraction(self.nums[0], self.den)
        width = self.cap - v + 1
        unit = [Fraction(n, self.den) / c0 for n in self.nums[:width]]
        unit += [Fraction(0)] * (width - len(unit))
        out = [Fraction(0)] * width
        if width > 0:
            out[0] = 1 / c0
            for k in range(1, width):
                s = Fraction(0)
                for j in range(1, k + 1):
                    if unit[j]:
                        s += unit[j] * out[k - j]
                out[k] = -s
        den = math.lcm(*(c.denominator for c in out)) if out else 1
        nums = tuple(c.numerator * (den // c.denominator) for c in out)
        return TruncLaurent(-v, nums, den, cap)

    def __eq__(self, other):
        """Equality of the stored windows up to the common cap."""
        if isinstance(other, (int, Fraction)):
            other = TruncLaurent.const(other, self.cap)
        if not isinstance(other, TruncLaurent):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    # -- evaluation ---------------------------------------------------------------

    def eval_float(self, assignment):
        """Value of the stored window at t = ``assignment["t"]``."""
        return sum((n / self.den) * power_at(assignment, "t", e)
                   for e, n in enumerate(self.nums, self.lead))

    # -- printing --------------------------------------------------------------------

    def __str__(self):
        if not self.nums:
            return "0"
        return signed_terms([(mono_str((("t", e),)), n)
                             for e, n in enumerate(self.nums, self.lead)
                             if n], self.den)

    def __repr__(self):
        return f"TruncLaurent({self} + O(t^{self.cap + 1}))"


def _laurent(lead, nums, den, cap):
    """Trusted constructor: a window already in canonical form."""
    r = _new(TruncLaurent)
    r.lead = lead
    r.nums = tuple(nums)
    r.den = den
    r.cap = cap
    return r


def _settle(lead, nums, den, cap):
    """Canonical series of the integer slots ``nums`` over ``den > 0``,
    the first at exponent ``lead <= cap``: cuts the slots past the cap,
    strips zeros at both ends and divides out the content.  Changes the
    list ``nums``."""
    del nums[cap - lead + 1:]
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        return TruncLaurent.zero(cap)
    if not nums[0]:
        skip = 1
        while not nums[skip]:
            skip += 1
        del nums[:skip]
        lead += skip
    if den > 1:
        g = math.gcd(den, *nums)
        if g > 1:
            den //= g
            nums = [n // g for n in nums]
    return _laurent(lead, nums, den, cap)


def _product(a, b, cap):
    """The product of two series through ``cap``, at most their product's
    own cap."""
    lead = a.lead + b.lead
    if not (a.nums and b.nums) or cap < lead:
        return TruncLaurent.zero(cap)
    return _settle(lead, _conv(a.nums, b.nums, cap - lead + 1),
                   a.den * b.den, cap)


def _conv(a, b, width):
    """The first ``width >= 1`` slots of the convolution of the integer
    sequences ``a`` and ``b``, as a new list."""
    if len(b) == 1:
        y = b[0]
        return [x * y for x in a[:width]]
    if len(a) == 1:
        x = a[0]
        return [x * y for y in b[:width]]
    nums = [0] * min(len(a) + len(b) - 1, width)
    width = len(nums)
    for i, x in enumerate(a[:width]):
        for j, y in enumerate(b[:width - i], i):
            nums[j] += x * y
    return nums


def add_laurent_products(windows, one, c1, c2, terms):
    """Accumulator of ``nc.mul_pairs`` for a series product.

    Adds c1*c2*lam, for each (monomial, lam) of ``terms``, into the dict
    ``windows``, which keeps one raw window per monomial:
    ``[lead, slots, den, cap, lone]``, integer slots from the lowest lead
    of its contributions over one denominator, under the lowest of their
    caps.  ``settle_laurent_sums`` normalizes each window once, where
    ``*`` and ``+`` would normalize every product and every partial sum.

    ``one`` is exact: no product is taken with it, and a contribution
    that is a single coefficient (c2 times a ``one`` term, say) is that
    object, kept as ``lone`` while the monomial has no other
    contribution.  A contribution with a zero factor is left out, cap
    and all; any other contribution is nonzero, since a nonzero series
    starts at or below its cap and so does the product of two.  Cutting
    each product at its own cap keeps the slots that ``*`` keeps, so a
    window holds the exact sum through its cap.  ``glpq.series`` states
    why the lowest cap of the nonzero contributions gives the trimmed
    product that ``*`` and ``+`` give.  Stored slots are never changed in
    place, so a window may share them.
    """
    if c1 is one:
        c = c2
    elif c2 is one:
        c = c1
    else:
        c = None
        if not (c1.nums and c2.nums):
            return
        lead = c1.lead + c2.lead
        cap = min(c1.cap + c2.lead, c2.cap + c1.lead)
        nums = _conv(c1.nums, c2.nums, cap - lead + 1)
        den = c1.den * c2.den
    if c is not None:
        if not c.nums:
            return
        lead, nums, den, cap = c.lead, c.nums, c.den, c.cap
    for mono, lam in terms:
        if lam is one:
            lone, l, p, d, k = c, lead, nums, den, cap
        elif not lam.nums:
            continue
        elif c is one:
            lone, l, p, d, k = lam, lam.lead, lam.nums, lam.den, lam.cap
        else:
            lone = None
            l = lead + lam.lead
            k = min(cap + lam.lead, lam.cap + lead)
            p = _conv(nums, lam.nums, k - l + 1)
            d = den * lam.den
        w = windows.get(mono)
        if w is None:
            windows[mono] = [l, p, d, k, lone]
            continue
        L, N, D, C = w[0], w[1], w[2], w[3]
        if d == D:
            N = list(N)
        else:
            g = math.gcd(D, d)
            s, t = d // g, D // g
            N = [n * s for n in N] if s > 1 else list(N)
            if t > 1:
                p = [n * t for n in p]
            D = t * d
        if l < L:
            N[:0] = [0] * (L - l)
            L = l
        off = l - L
        short = off + len(p) - len(N)
        if short > 0:
            N += [0] * short
        for i, n in enumerate(p, off):
            N[i] += n
        w[:] = L, N, D, min(C, k), None


def settle_laurent_sums(windows):
    """Dict monomial -> canonical coefficient of the windows that
    ``add_laurent_products`` filled; zero sums are left out."""
    out = {}
    for mono, (lead, nums, den, cap, lone) in windows.items():
        if lone is None:
            lone = _settle(lead, list(nums), den, cap)
            if not lone.nums:
                continue
        out[mono] = lone
    return out
