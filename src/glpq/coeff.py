"""Exact scalar towers: rational functions and truncated Laurent series.

Three kinds of scalars feed the algebra layers: plain rationals
(``fractions.Fraction``), :class:`RatFunc` over a :class:`SymbolSet`, and
:class:`TruncLaurent` in one formal parameter ``t``.  All are immutable
values.  Rationals and rational functions have canonical
representations, so ``==`` is the identity test and ``hash`` agrees
with it; truncated series compare by their windows and are unhashable.

Canonical form of a rational function: ``num/den`` with ``num`` and
``den`` coprime in ``Z[syms]`` and the graded-lex leading coefficient of
``den`` positive (``den = 1`` for zero).  ``Z[syms]`` is a unique
factorization domain whose units are ``+-1``, so two coprime pairs that
represent the same fraction differ by a unit, and the sign rule removes
it: the form is unique, whatever route reduced it.  The arithmetic
therefore never reduces a full product.  Each operation cancels only
the common factors that can exist, and then it builds the result as an
already coprime pair:

* reduction by :func:`glpq.poly.cofactors`, which takes a single-term
  operand (the Laurent monomials in ``p, q``) apart by exponent shifts,
  and tries an exact division before running a PRS;
* products by cross-cancellation (Henrici 1956; Knuth, TAOCP vol. 2,
  section 4.5.1): ``a/b * c/d`` divides ``gcd(a, d)`` and ``gcd(c, b)``
  out of the operands;
* sums through ``gcd(b, d)``: with ``b = b'g``, ``d = d'g``,
  ``t = a d' + c b'`` and ``h = gcd(t, g)``, the sum is
  ``(t/h) / (b' * (d/h))``.  ``t`` shares no factor with ``b'`` or
  ``d'``, so ``h`` is all there is to cancel.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (DivisionByZero, NearPoleEvaluation, SymbolSetMismatch,
                     TruncationUnderflow)
from .poly import Pol, cofactors, term_str

DEFAULT_TRUNC_ORDER = 12
POLE_EPS = 1e-6


class RatFunc:
    """Rational function in canonical form (see the module docstring).

    ``RatFunc(num, den)`` reduces its arguments; ``reduce=False`` is for
    parts already known to be coprime, and only fixes the sign.  Every
    result of the arithmetic below is built that way, so no operation
    pays for a gcd of a full product, and every result is the same pair
    a full reduction would give.  A constant compares equal to, and
    hashes like, its ``int`` or ``Fraction`` value.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: Pol, den: Pol, reduce=True):
        if num.syms is not den.syms and num.syms != den.syms:
            raise SymbolSetMismatch(f"{num.syms} vs {den.syms}")
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        if num.is_zero():
            den = Pol.const(num.syms, 1)
        elif reduce and not den.is_one():
            _, num, den = cofactors(num, den)
        if den.leading()[1] < 0:
            num, den = -num, -den
        self.num = num
        self.den = den
        self._hash = None

    # -- constructors ---------------------------------------------------

    @staticmethod
    def const(syms, q):
        q = Fraction(q)
        return RatFunc(Pol.const(syms, q.numerator),
                       Pol.const(syms, q.denominator), reduce=False)

    @staticmethod
    def symbol(syms, name, exp=1):
        if exp >= 0:
            return RatFunc(Pol.symbol(syms, name, exp), Pol.const(syms, 1), reduce=False)
        return RatFunc(Pol.const(syms, 1), Pol.symbol(syms, name, -exp), reduce=False)

    # -- predicates -------------------------------------------------------

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num.is_one() and self.den.is_one()

    @property
    def syms(self):
        return self.num.syms

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if type(other) is not RatFunc and isinstance(other, (int, Fraction)):
            other = RatFunc.const(self.syms, other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        u, v = self.den, other.den
        if u == v:
            return RatFunc(self.num + other.num, u)
        # t is not zero: t = 0 would force u1 = v1 = 1, that is u = v
        d, u1, v1 = cofactors(u, v)
        t = self.num * v1 + other.num * u1
        if d.is_one():
            return RatFunc(t, u * v, reduce=False)
        _, t, dh = cofactors(t, d)
        return RatFunc(t, u1 * (v1 * dh), reduce=False)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RatFunc(-self.num, self.den, reduce=False)

    def __mul__(self, other):
        if type(other) is not RatFunc and isinstance(other, (int, Fraction)):
            other = RatFunc.const(self.syms, other)
        if self.is_zero() or other.is_zero():
            return RatFunc.const(self.syms, 0)
        _, a, d = cofactors(self.num, other.den)
        _, c, b = cofactors(other.num, self.den)
        return RatFunc(a * c, b * d, reduce=False)

    def __truediv__(self, other):
        if type(other) is not RatFunc and isinstance(other, (int, Fraction)):
            other = RatFunc.const(self.syms, other)
        return self * other.inv()

    def inv(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero rational function")
        return RatFunc(self.den, self.num, reduce=False)

    def __pow__(self, n):
        if n < 0:
            return self.inv() ** (-n)
        # powers of coprime polynomials stay coprime
        return RatFunc(self.num ** n, self.den ** n, reduce=False)

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

    # -- evaluation / substitution ---------------------------------------------

    def eval_float(self, assignment, eps=POLE_EPS):
        d = self.den.eval_float(assignment)
        if abs(d) < eps:
            raise NearPoleEvaluation(f"|denominator| = {abs(d):.2e}")
        return self.num.eval_float(assignment) / d

    def subst(self, mapping):
        """Substitute symbols by Pol values in numerator and denominator."""
        return RatFunc(self.num.subst(mapping), self.den.subst(mapping))

    # -- printing -----------------------------------------------------------------

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        if self.den.is_monomial():
            # distribute a monomial denominator into the numerator terms
            (de, dc), = self.den.terms.items()
            parts = []
            for i, e in enumerate(sorted(self.num.terms, key=lambda e: (sum(e), e),
                                         reverse=True)):
                c = Fraction(self.num.terms[e], dc)
                exps = tuple(x - y for x, y in zip(e, de))
                parts.append(term_str(self.syms, exps, c, with_sign=i > 0))
            return " ".join(parts)
        inv = f"({self.den})^-1"
        if self.num.is_const() and abs(self.num.const_value()) == 1:
            return inv if self.num.const_value() > 0 else f"-{inv}"
        num = str(self.num)
        if len(self.num.terms) > 1:
            num = f"({num})"
        return f"{num}*{inv}"

    def __repr__(self):
        return f"RatFunc({self})"


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
            nums = tuple(-n for n in nums)
        nums = list(nums)
        # drop slots above the cap
        if lead + len(nums) - 1 > cap:
            del nums[max(0, cap - lead + 1):]
        while nums and nums[0] == 0:
            nums.pop(0)
            lead += 1
        while nums and nums[-1] == 0:
            nums.pop()
        if not nums:
            lead = cap + 1
            den = 1
        else:
            g = math.gcd(den, *nums)
            if g > 1:
                den //= g
                nums = [n // g for n in nums]
        self.lead = lead
        self.nums = tuple(nums)
        self.den = den
        self.cap = cap

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
        return TruncLaurent(cap + 1, (), 1, cap)

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
        return TruncLaurent(self.lead, self.nums, self.den, cap)

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other):
        if type(other) is not TruncLaurent:
            other = TruncLaurent.const(other, self.cap)
        cap = min(self.cap, other.cap)
        if self.is_zero():
            return other.with_cap(cap)
        if other.is_zero():
            return self.with_cap(cap)
        lead = min(self.lead, other.lead)
        hi = max(self.lead + len(self.nums), other.lead + len(other.nums))
        den = self.den * other.den // math.gcd(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        nums = [0] * (hi - lead)
        for i, n in enumerate(self.nums):
            nums[self.lead - lead + i] += n * fa
        for i, n in enumerate(other.nums):
            nums[other.lead - lead + i] += n * fb
        return TruncLaurent(lead, nums, den, cap)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncLaurent.const(other, self.cap)
        return self + (-other)

    def __neg__(self):
        return TruncLaurent(self.lead, tuple(-n for n in self.nums), self.den, self.cap)

    def __mul__(self, other):
        if type(other) is not TruncLaurent:
            other = TruncLaurent.const(other, self.cap)
        cap = min(self.cap + other.valuation(), other.cap + self.valuation())
        if self.is_zero() or other.is_zero():
            return TruncLaurent.zero(cap)
        lead = self.lead + other.lead
        width = min(len(self.nums) + len(other.nums) - 1, cap - lead + 1)
        if width <= 0:
            return TruncLaurent.zero(cap)
        nums = [0] * width
        for i, a in enumerate(self.nums):
            if i >= width:
                break
            for j, b in enumerate(other.nums):
                if i + j >= width:
                    break
                nums[i + j] += a * b
        return TruncLaurent(lead, nums, self.den * other.den, cap)

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

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncLaurent.const(other, self.cap)
        return self * other.inv()

    def __pow__(self, n):
        if n < 0:
            return self.inv() ** (-n)
        r = TruncLaurent.const(1, self.cap)
        b = self
        while n:
            if n & 1:
                r = r * b
            b = b * b
            n >>= 1
        return r

    def __eq__(self, other):
        """Equality of the stored windows up to the common cap."""
        if isinstance(other, (int, Fraction)):
            other = TruncLaurent.const(other, self.cap)
        if not isinstance(other, TruncLaurent):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    # -- evaluation ---------------------------------------------------------------

    def eval_float(self, t):
        return sum((n / self.den) * t ** (self.lead + i)
                   for i, n in enumerate(self.nums))

    # -- printing --------------------------------------------------------------------

    def __str__(self):
        if not self.nums:
            return "0"
        parts = []
        for i, n in enumerate(self.nums):
            if n == 0:
                continue
            c = Fraction(n, self.den)
            e = self.lead + i
            if e == 0:
                body = str(abs(c))
            else:
                tp = "t" if e == 1 else f"t^{e}"
                body = tp if abs(c) == 1 else f"{abs(c)}*{tp}"
            if parts:
                parts.append(("- " if c < 0 else "+ ") + body)
            else:
                parts.append(("-" if c < 0 else "") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"TruncLaurent({self} + O(t^{self.cap + 1}))"
