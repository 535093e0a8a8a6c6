"""Sparse multivariate Laurent polynomials with integer coefficients.

Terms are stored as a map from packed exponent keys to nonzero ints.
Exponents may be negative.  Everything here is exact; the
rational-function layer in :mod:`glpq.coeff` relies on
:func:`cofactors` for canonical forms.

Packed keys (Monagan and Pearce, "Polynomial division using dynamic
arrays, heaps, and packed exponent vectors", CASC 2007).  Over symbols
``x_0 .. x_{n-1}`` the monomial with exponents ``e`` has the key

    (e_0 + ... + e_{n-1}) * 2^(n*W)  +  sum_i (e_i + H) * 2^((n-1-i)*W)

with field width ``W = FIELD_BITS`` and bias ``H = 2^(W-1)``.  Each
low field holds one biased exponent; the top field holds the total
degree and is not bounded (a negative degree makes the key negative).
Integer order on keys is therefore graded-lex order: the total degree
decides first, then ``e_0``, then ``e_1`` and so on, exactly as the
tuple order of ``(sum(e), e)``.  So the leading term is ``max(terms)``
and the printer sorts keys as plain ints.  ``SymbolSet.zero`` is the
key of the constant monomial, the sum of the biases, and a monomial
product is ``k1 + k2 - zero``.

Every stored exponent lies in ``[-2^(W-2), 2^(W-2))``
(:data:`EXPONENT_BOUND`).  The sum of two such exponents stays inside a
field, so no product of stored keys carries from one field into the
next; :meth:`SymbolSet.check` then rejects any product exponent outside
the bound with :class:`~glpq.errors.ExponentOutOfRange`.  The test adds
``2^(W-2)`` to every field and reads the top bit of each: the bit is
set exactly when the exponent is inside the bound.

Only the gcd boundary (:func:`poly_gcd`, :func:`_prem`,
``as_univariate``), evaluation and substitution read exponents one by
one.  The printer unpacks a key the first time it prints it and keeps
the monomial string in a table of its symbol set (``SymbolSet.strs``).
Each printer table is bounded by :data:`PRINT_TABLE_SIZE` entries
through :func:`remember` and holds only values computed from their
keys; it is not synchronized, so threads that share one can lose
entries or run it a few entries past its bound, but never print a wrong
answer.
"""

from __future__ import annotations

import math
import sys
from operator import mul

from .errors import (CoefficientTooLarge, DivisionBudgetExceeded,
                     DivisionByZero, ExponentOutOfRange, GcdBudgetExceeded,
                     MissingSymbol, SymbolSetMismatch)

FIELD_BITS = 40
_HALF = 1 << (FIELD_BITS - 1)        # bias of one field
_MASK = (1 << FIELD_BITS) - 1
EXPONENT_BOUND = 1 << (FIELD_BITS - 2)
# most entries of each printer table (SymbolSet.strs and
# Presentation.print_table)
PRINT_TABLE_SIZE = 4096
# work bound of one long division in Pol.divexact: a quotient term spends
# one unit per term of the divisor, and running out raises
# DivisionBudgetExceeded.  No division of any suite (the mside suite up
# to n_max = 24 included) or of the benchmark's normalize streams spends
# more than 20,700 units, so the budget is over 40 times that.
DIVISION_BUDGET = 1_000_000


class SymbolSet:
    """Ordered set of commuting symbol names, with the packing constants
    of its exponent keys (see the module docstring).  ``laurent`` names
    the symbols kept out of every denominator (see :mod:`glpq.coeff`)."""

    __slots__ = ("names", "index", "zero", "shifts", "units", "top",
                 "_offset", "laurent", "strs")

    def __init__(self, names, laurent=()):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate symbol names")
        if not set(laurent) <= set(names):
            raise ValueError("Laurent symbols must be among the names")
        n = len(names)
        self.names = names
        self.index = {name: i for i, name in enumerate(names)}
        self.laurent = tuple(self.index[name] for name in laurent)
        self.shifts = tuple((n - 1 - i) * FIELD_BITS for i in range(n))
        self.top = n * FIELD_BITS         # position of the degree field
        # key step of one unit of exponent i: its field and the degree
        self.units = tuple((1 << self.top) + (1 << s) for s in self.shifts)
        self.zero = sum(_HALF << s for s in self.shifts)
        self._offset = self.zero >> 1     # 2^(W-2) in every field
        self.strs = {}                    # key -> printed monomial

    def pack(self, exps):
        if len(exps) != len(self.names):
            raise SymbolSetMismatch(f"{len(exps)} exponents for {self}")
        for e in exps:
            if not -EXPONENT_BOUND <= e < EXPONENT_BOUND:
                raise ExponentOutOfRange(_bound_message(e))
        return self.zero + self.offset(exps)

    def offset(self, exps):
        """Key difference that multiplies by the monomial ``exps``."""
        return sum(e * u for e, u in zip(exps, self.units))

    def unpack(self, key):
        return tuple(((key >> s) & _MASK) - _HALF for s in self.shifts)

    def check(self, keys):
        """Raise unless every exponent of every key is inside the bound;
        valid for keys that are sums or differences of two checked keys."""
        off, guard = self._offset, self.zero
        for k in keys:
            if (k + off) & guard != guard:
                bad = max(self.unpack(k), key=abs)
                raise ExponentOutOfRange(_bound_message(bad))

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return (isinstance(other, SymbolSet) and self.names == other.names
                and self.laurent == other.laurent)

    def __hash__(self):
        return hash((self.names, self.laurent))

    def __repr__(self):
        lau = tuple(self.names[i] for i in self.laurent)
        return f"SymbolSet{self.names}" + (f" laurent={lau}" if lau else "")


def _bound_message(e):
    return (f"exponent {e} out of range: exponents must lie in "
            f"[-2^{FIELD_BITS - 2}, 2^{FIELD_BITS - 2})")


_new = object.__new__


def _pol(syms, terms):
    """Trusted constructor: packed keys, no zero coefficient."""
    p = _new(Pol)
    p.syms = syms
    p.terms = terms
    p._hash = None
    return p


class Pol:
    """Laurent polynomial over a SymbolSet.  Immutable once constructed.

    ``Pol(syms, {exponent tuple: coefficient})`` packs the exponents and
    drops zero coefficients.
    """

    __slots__ = ("syms", "terms", "_hash")

    def __init__(self, syms, terms):
        pack = syms.pack
        self.syms = syms
        self.terms = {pack(e): c for e, c in terms.items() if c}
        self._hash = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(syms, c):
        c = int(c)
        return _pol(syms, {syms.zero: c} if c else {})

    @staticmethod
    def symbol(syms, name, exp=1):
        if name not in syms.index:
            raise SymbolSetMismatch(f"symbol {name!r} not in {syms}")
        e = [0] * len(syms)
        e[syms.index[name]] = exp
        return _pol(syms, {syms.pack(e): 1})

    # -- predicates ----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_one(self):
        t = self.terms
        return len(t) == 1 and t.get(self.syms.zero) == 1

    def is_const(self):
        t = self.terms
        return not t or (len(t) == 1 and self.syms.zero in t)

    def const_value(self):
        return self.terms.get(self.syms.zero, 0)

    def is_monomial(self):
        return len(self.terms) <= 1

    def total_degree(self):
        return max(self.terms) >> self.syms.top if self.terms else 0

    # -- ring operations -----------------------------------------------

    def _check(self, other):
        if self.syms is not other.syms and self.syms != other.syms:
            raise SymbolSetMismatch(f"{self.syms} vs {other.syms}")

    def __add__(self, other):
        self._check(other)
        t = dict(self.terms)
        for k, c in other.terms.items():
            nc = t.get(k, 0) + c
            if nc:
                t[k] = nc
            elif k in t:
                del t[k]
        return _pol(self.syms, t)

    def __neg__(self):
        return _pol(self.syms, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        syms = self.syms
        if syms is not other.syms:
            self._check(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        if not a:
            return _pol(syms, {})
        z = syms.zero
        if len(a) == 1:
            # a single term shifts the other operand: no collisions
            (k1, c1), = a.items()
            if k1 == z:
                return _pol(syms, {k: c1 * c for k, c in b.items()})
            s = k1 - z
            t = {k + s: c1 * c for k, c in b.items()}
        else:
            t = {}
            for k1, c1 in a.items():
                s = k1 - z
                for k2, c2 in b.items():
                    k = k2 + s
                    nc = t.get(k, 0) + c1 * c2
                    if nc:
                        t[k] = nc
                    elif k in t:
                        del t[k]
        syms.check(t)
        return _pol(syms, t)

    def mul_int(self, k):
        k = int(k)
        if k == 0:
            return _pol(self.syms, {})
        return _pol(self.syms, {e: c * k for e, c in self.terms.items()})

    def shift(self, delta):
        """Product with the monomial whose key offset is ``delta`` (see
        :meth:`SymbolSet.offset`)."""
        if not delta:
            return self
        t = {k + delta: c for k, c in self.terms.items()}
        self.syms.check(t)
        return _pol(self.syms, t)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power on a polynomial")
        syms = self.syms
        if n == 0:
            return Pol.const(syms, 1)
        if len(self.terms) == 1:
            # a monomial power scales the exponents: one key, no product
            (k, c), = self.terms.items()
            return _pol(syms, {syms.pack([n * e for e in syms.unpack(k)]):
                               c ** n})
        return power(None, self, n)

    def __eq__(self, other):
        return isinstance(other, Pol) and self.syms == other.syms and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.syms, frozenset(self.terms.items())))
        return self._hash

    # -- structure helpers ----------------------------------------------

    def leading(self):
        """(key, coefficient) of the graded-lex leading term."""
        k = max(self.terms)
        return k, self.terms[k]

    def content(self):
        return math.gcd(*self.terms.values()) if self.terms else 0

    def _field(self, var, pick):
        """``pick`` (min or max) of the exponents of symbol ``var``."""
        s = self.syms.shifts[var]
        return pick([(k >> s) & _MASK for k in self.terms]) - _HALF

    def lowest(self):
        """Per-symbol minimum exponent over the terms; self nonzero."""
        return tuple(map(min, zip(*map(self.syms.unpack, self.terms))))

    def max_var(self):
        """Largest symbol index with a positive exponent, or -1."""
        if self.terms:
            for i in range(len(self.syms) - 1, -1, -1):
                if self._field(i, max) > 0:
                    return i
        return -1

    def degree_in(self, var):
        return self._field(var, max) if self.terms else 0

    def as_univariate(self, var):
        """Map degree-in-var -> coefficient Pol (var exponent zeroed)."""
        s, u = self.syms.shifts[var], self.syms.units[var]
        out = {}
        for k, c in self.terms.items():
            d = ((k >> s) & _MASK) - _HALF
            out.setdefault(d, {})[k - d * u] = c
        return {d: _pol(self.syms, t) for d, t in out.items()}

    @staticmethod
    def from_univariate(syms, var, coeffs):
        u = syms.units[var]
        t = {}
        for d, p in coeffs.items():
            for k, c in p.terms.items():
                k += d * u
                nc = t.get(k, 0) + c
                if nc:
                    t[k] = nc
                elif k in t:
                    del t[k]
        syms.check(t)
        return _pol(syms, t)

    # -- exact division --------------------------------------------------

    def divexact(self, other):
        """Exact polynomial quotient; raises if the division is not exact
        or would need a negative exponent."""
        self._check(other)
        syms = self.syms
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        if other.is_one():
            return self
        z = syms.zero
        if other.is_const():
            k = other.const_value()
            t = {}
            for e, c in self.terms.items():
                q, r = divmod(c, k)
                if r:
                    raise ArithmeticError("inexact constant division")
                t[e] = q
            return _pol(syms, t)
        # a quotient key is a difference of two stored keys, so no field
        # borrows, and its exponents are all >= 0 exactly when the top
        # bit of every field is set
        if other.is_monomial():
            (dk, dc), = other.terms.items()
            s = dk - z
            t = {}
            for k, c in self.terms.items():
                q, r = divmod(c, dc)
                k -= s
                if r or k & z != z:
                    raise ArithmeticError("inexact monomial division")
                t[k] = q
            syms.check(t)
            return _pol(syms, t)
        # one remainder dict, each quotient term subtracted in place; the
        # leading key falls at every step, so no quotient key repeats.
        # Each quotient term spends one unit of DIVISION_BUDGET per term
        # of the divisor.
        rem = dict(self.terms)
        out = {}
        lk, lc = other.leading()
        tail = [(k - lk, c) for k, c in other.terms.items() if k != lk]
        check = syms.check
        steps = DIVISION_BUDGET // len(other.terms)
        while rem:
            steps -= 1
            if steps < 0:
                raise DivisionBudgetExceeded(
                    f"exact division needs more than {DIVISION_BUDGET} "
                    "term updates")
            rk = max(rem)
            qk = rk - lk + z
            if qk & z != z:
                raise ArithmeticError("inexact division (monomial mismatch)")
            check((qk,))
            qc, r = divmod(rem.pop(rk), lc)
            if r:
                raise ArithmeticError("inexact division (coefficient)")
            out[qk] = qc
            keys = [rk + d for d, _ in tail]
            check(keys)
            for k, (_, c) in zip(keys, tail):
                nc = rem.get(k, 0) - qc * c
                if nc:
                    rem[k] = nc
                else:
                    del rem[k]
        return _pol(syms, out)

    # -- evaluation / substitution ----------------------------------------

    def eval_float(self, assignment):
        names = self.syms.names
        total = 0.0
        for k, c in self.terms.items():
            v = float(c)
            for i, ex in enumerate(self.syms.unpack(k)):
                if ex:
                    name = names[i]
                    if name not in assignment:
                        raise MissingSymbol(name)
                    v *= float(assignment[name]) ** ex
            total += v
        return total

    def subst(self, mapping):
        """Substitute symbols by Pol values over the same SymbolSet.

        Unmapped symbols stay themselves.  Exponents of mapped symbols
        must be nonnegative.  Each term becomes its integer coefficient
        times the product of cached powers, shifted by the unmapped part
        of its key, and is merged into a single dict.
        """
        syms = self.syms
        names = syms.names
        cache = {}
        out = {}
        for k, c in self.terms.items():
            e = syms.unpack(k)
            rest = list(e)
            term = None
            for i, ex in enumerate(e):
                if ex and names[i] in mapping:
                    if ex < 0:
                        raise ValueError("negative exponent under substitution")
                    rest[i] = 0
                    pw = cache.get((i, ex))
                    if pw is None:
                        pw = cache[(i, ex)] = mapping[names[i]] ** ex
                    term = pw if term is None else term * pw
            if term is None:
                out[k] = out.get(k, 0) + c
                continue
            delta = syms.offset(rest)
            for kt, ct in term.terms.items():
                kt += delta
                out[kt] = out.get(kt, 0) + c * ct
        # every shifted key is checked, also those whose sum cancels
        syms.check(out)
        return _pol(syms, {k: c for k, c in out.items() if c})

    # -- printing ----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        return terms_str(self.syms, self.terms)

    def __repr__(self):
        return f"Pol({self})"


def power(one, base, n, mul=mul):
    """base**n for n >= 0 by square-and-multiply, starting from ``one``.

    With ``one`` None the first factor is ``base`` itself (n >= 1), so no
    product with a unit is made; this serves scalar types that have no
    ``__pow__``.  Every product, the squarings included, is ``mul(x, y)``.
    """
    r = one
    while n:
        if n & 1:
            r = base if r is None else mul(r, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return r


def remember(table, key, value):
    """Store ``key -> value`` in a printer table and return ``value``.  A
    table that holds :data:`PRINT_TABLE_SIZE` entries is emptied first,
    so it stays bounded whatever is printed."""
    if len(table) >= PRINT_TABLE_SIZE:
        table.clear()
    table[key] = value
    return value


def mono_str(factors):
    """``*``-joined ``name`` or ``name^e`` of the (name, exponent) pairs
    whose exponent is nonzero; ``""`` when there is none."""
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in factors if e)


def terms_str(syms, terms, den=1):
    """The terms (packed key -> nonzero int) over the positive int
    ``den``, highest key first: the printed form of a polynomial, or of
    a rational function over a constant denominator."""
    table = syms.strs
    pairs = []
    for k in sorted(terms, reverse=True):
        s = table.get(k)
        if s is None:
            s = remember(table, k, mono_str(zip(syms.names, syms.unpack(k))))
        pairs.append((s, terms[k]))
    return signed_terms(pairs, den)


def signed_terms(pairs, den):
    """' '-joined terms of (monomial string, nonzero int numerator) pairs
    over the positive int ``den``, each sign folded out in front: ``-`` on
    the first term, ``+ `` or ``- `` on the others.  A coefficient is
    reduced by one gcd, and one of 1 is left out next to a monomial.

    Raises :class:`~glpq.errors.CoefficientTooLarge` for an integer with
    more digits than Python converts to a string.
    """
    out = []
    try:
        for mono, c in pairs:
            if c < 0:
                sign = "- " if out else "-"
                c = -c
            else:
                sign = "+ " if out else ""
            if den != 1:
                g = math.gcd(c, den)
                d = den // g
                if d != 1:
                    body = f"{c // g}/{d}"
                    out.append(f"{sign}{body}*{mono}" if mono
                               else sign + body)
                    continue
                c //= g
            if not mono:
                out.append(f"{sign}{c}")
            elif c == 1:
                out.append(sign + mono)
            else:
                out.append(f"{sign}{c}*{mono}")
    except ValueError:
        raise CoefficientTooLarge(
            f"a coefficient of more than {sys.get_int_max_str_digits()} "
            "digits is too large to print") from None
    return " ".join(out)


# -- gcd ------------------------------------------------------------------
#
# The gcd routines take polynomials: every exponent is nonnegative.  A
# top-level poly_gcd gets a fixed work budget: every gcd call of its
# recursion and every pseudo-remainder of its PRS spends one unit, and
# running out raises GcdBudgetExceeded.  No call of any suite (the mside
# suite up to n_max = 24 included) or of the benchmark's normalize
# streams spends more than 17 units, so the budget is over 500 times
# that; the stall input of ROADMAP item 1 needs more than 100,000.  A
# pseudo-remainder costs one unit whatever its degree, so a gcd of
# high-degree operands in one variable stays within the budget.

GCD_BUDGET = 10_000


def _spend(budget):
    budget[0] -= 1
    if budget[0] < 0:
        raise GcdBudgetExceeded(
            f"polynomial gcd needs more than {GCD_BUDGET} steps")


def _int_primitive(p):
    c = p.content()
    if c in (0, 1):
        return c, p
    return c, p.divexact(Pol.const(p.syms, c))


def _poly_content(coeffs, budget):
    g = None
    for p in coeffs:
        g = p if g is None else _gcd(g, p, budget)
        if g.is_const() and abs(g.const_value()) == 1:
            break
    return g


def _prem(f, g, var):
    """Pseudo-remainder of f by g in the main variable."""
    df, dg = f.degree_in(var), g.degree_in(var)
    fu = f.as_univariate(var)
    gu = g.as_univariate(var)
    lg = gu[dg]
    n = df - dg + 1
    while fu and max(fu) >= dg:
        d = max(fu)
        lf = fu[d]
        # f <- lg*f - lf*x^(d-dg)*g
        nf = {}
        for k, p in fu.items():
            nf[k] = p * lg
        for k, p in gu.items():
            k2 = k + d - dg
            nf[k2] = nf.get(k2, Pol.const(f.syms, 0)) - lf * p
        fu = {k: p for k, p in nf.items() if not p.is_zero()}
        n -= 1
    rem = Pol.from_univariate(f.syms, var, fu) if fu else Pol.const(f.syms, 0)
    # keep the classical multiplier so the result is a true pseudo-remainder
    if n > 0 and not rem.is_zero():
        rem = rem * lg ** n
    return rem


def _normalize_sign(p):
    if p.is_zero():
        return p
    _, lc = p.leading()
    return -p if lc < 0 else p


def _monomial_gcd(f, g):
    """gcd of two nonzero polynomials one of which is a single term: the
    per-variable minimum exponent times the integer gcd of all
    coefficients."""
    low = tuple(map(min, f.lowest(), g.lowest()))
    c = math.gcd(*f.terms.values(), *g.terms.values())
    return _pol(f.syms, {f.syms.pack(low): c})


def _shift_div(p, h):
    """p / h for a single-term h that divides every term of p."""
    (hk, hc), = h.terms.items()
    p = p.shift(p.syms.zero - hk)
    return p if hc == 1 else \
        _pol(p.syms, {k: c // hc for k, c in p.terms.items()})


def _quotient(f, g):
    """f / g when g divides f exactly, else None; f and g have at least
    two terms each."""
    if any(g.degree_in(i) > f.degree_in(i) for i in range(len(f.syms))):
        return None     # g has a higher degree in some variable
    try:
        return f.divexact(g)
    except ArithmeticError:
        return None


def cofactors(f, g):
    """``(h, f/h, g/h)`` with ``h = poly_gcd(f, g)``; f and g nonzero
    polynomials.

    The route depends on the operands' shape, and each lands on the
    gcd that :func:`poly_gcd` returns (primitive part with positive
    leading coefficient, times the integer gcd of the contents):

    * a single-term operand: ``h`` is the single-term gcd and both
      cofactors are exponent shifts with an integer division;
    * one operand divides the other: ``h`` is the divisor with its sign
      normalized, found by one exact division instead of a PRS;
    * otherwise ``h`` comes from the primitive PRS in :func:`poly_gcd`.
    """
    if f.syms is not g.syms and f.syms != g.syms:
        raise SymbolSetMismatch(f"{f.syms} vs {g.syms}")
    if g.is_one():
        return g, f, g
    if f.is_one():
        return f, f, g
    if len(f.terms) == 1 or len(g.terms) == 1:
        h = _monomial_gcd(f, g)
        return h, _shift_div(f, h), _shift_div(g, h)
    q = _quotient(f, g)
    if q is not None:
        unit = Pol.const(f.syms, 1)
        return (-g, -q, -unit) if g.leading()[1] < 0 else (g, q, unit)
    q = _quotient(g, f)
    if q is not None:
        unit = Pol.const(f.syms, 1)
        return (-f, -unit, -q) if f.leading()[1] < 0 else (f, unit, q)
    h = poly_gcd(f, g)
    if h.is_one():
        return h, f, g
    return h, f.divexact(h), g.divexact(h)


def poly_gcd(f, g):
    """gcd over Z[symbols] with positive leading coefficient; its integer
    content is the gcd of the operands' contents.  Raises
    :class:`~glpq.errors.GcdBudgetExceeded` when it needs more than
    :data:`GCD_BUDGET` steps."""
    if f.syms != g.syms:
        raise SymbolSetMismatch(f"{f.syms} vs {g.syms}")
    return _gcd(f, g, [GCD_BUDGET])


def _gcd(f, g, budget):
    """:func:`poly_gcd` drawing on ``budget``, a one-element list that
    holds the units left."""
    _spend(budget)
    if f.is_zero():
        return _normalize_sign(g)
    if g.is_zero():
        return _normalize_sign(f)
    if f.is_monomial() or g.is_monomial():
        return _monomial_gcd(f, g)
    cf, fp = _int_primitive(f)
    cg, gp = _int_primitive(g)
    c = math.gcd(cf, cg)
    var = max(fp.max_var(), gp.max_var())
    if var < 0:
        return Pol.const(f.syms, c)
    # recurse on contents w.r.t. the main variable
    fcont = _poly_content(fp.as_univariate(var).values(), budget)
    gcont = _poly_content(gp.as_univariate(var).values(), budget)
    cont = _gcd(fcont, gcont, budget)
    fp = fp.divexact(fcont)
    gp = gp.divexact(gcont)
    if fp.degree_in(var) < gp.degree_in(var):
        fp, gp = gp, fp
    # primitive PRS
    while True:
        if gp.is_zero():
            h = fp
            break
        if gp.degree_in(var) == 0:
            h = Pol.const(f.syms, 1)
            break
        _spend(budget)
        r = _prem(fp, gp, var)
        if r.is_zero():
            h = gp
            break
        _, r = _int_primitive(r)
        rc = _poly_content(r.as_univariate(var).values(), budget)
        r = r.divexact(rc)
        fp, gp = gp, r
    _, h = _int_primitive(h)
    h = _normalize_sign(h)
    return (h * cont).mul_int(c) if c != 1 or not cont.is_one() else h
