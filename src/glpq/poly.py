"""Sparse multivariate polynomials with integer coefficients.

Terms are stored as a map from exponent tuples to nonzero ints; the
exponent tuple is aligned with a fixed :class:`SymbolSet`.  Exponents are
never negative.  Everything here is exact; the rational-function layer in
:mod:`glpq.coeff` relies on :func:`cofactors` for canonical forms.
"""

from __future__ import annotations

import math
from operator import add, le, sub

from .errors import DivisionByZero, MissingSymbol, SymbolSetMismatch


class SymbolSet:
    """Ordered set of commuting symbol names; order fixes the term order."""

    __slots__ = ("names", "index", "zero")

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate symbol names")
        self.names = names
        self.index = {n: i for i, n in enumerate(names)}
        self.zero = (0,) * len(names)     # exponents of the constant term

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return isinstance(other, SymbolSet) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"SymbolSet{self.names}"


def _gl_key(exps):
    # graded lexicographic: total degree first, then exponent vector
    return (sum(exps), exps)


class Pol:
    """Polynomial over a SymbolSet.  Immutable once constructed."""

    __slots__ = ("syms", "terms", "_hash")

    def __init__(self, syms, terms):
        self.syms = syms
        self.terms = {e: c for e, c in terms.items() if c}
        self._hash = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(syms, c):
        c = int(c)
        return Pol(syms, {syms.zero: c} if c else {})

    @staticmethod
    def symbol(syms, name, exp=1):
        if name not in syms.index:
            raise SymbolSetMismatch(f"symbol {name!r} not in {syms}")
        e = [0] * len(syms)
        e[syms.index[name]] = exp
        return Pol(syms, {tuple(e): 1})

    # -- predicates ----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_one(self):
        t = self.terms
        return len(t) == 1 and t.get(self.syms.zero) == 1

    def is_const(self):
        return all(not any(e) for e in self.terms)

    def const_value(self):
        return self.terms.get(self.syms.zero, 0)

    def is_monomial(self):
        return len(self.terms) <= 1

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    # -- ring operations -----------------------------------------------

    def _check(self, other):
        if self.syms is not other.syms and self.syms != other.syms:
            raise SymbolSetMismatch(f"{self.syms} vs {other.syms}")

    def __add__(self, other):
        self._check(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            nc = t.get(e, 0) + c
            if nc:
                t[e] = nc
            elif e in t:
                del t[e]
        return Pol(self.syms, t)

    def __neg__(self):
        return Pol(self.syms, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            # a single term shifts the other operand: no collisions
            (e1, c1), = a.items()
            return Pol(self.syms, {tuple(map(add, e1, e2)): c1 * c2
                                   for e2, c2 in b.items()})
        t = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(map(add, e1, e2))
                nc = t.get(e, 0) + c1 * c2
                if nc:
                    t[e] = nc
                elif e in t:
                    del t[e]
        return Pol(self.syms, t)

    def mul_int(self, k):
        k = int(k)
        if k == 0:
            return Pol(self.syms, {})
        return Pol(self.syms, {e: c * k for e, c in self.terms.items()})

    def mul_term(self, exps, coeff):
        if coeff == 0:
            return Pol(self.syms, {})
        return Pol(self.syms, {tuple(map(add, e, exps)): c * coeff
                               for e, c in self.terms.items()})

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power on a polynomial")
        r = Pol.const(self.syms, 1)
        b = self
        while n:
            if n & 1:
                r = r * b
            n >>= 1
            if n:
                b = b * b
        return r

    def __eq__(self, other):
        return isinstance(other, Pol) and self.syms == other.syms and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.syms, frozenset(self.terms.items())))
        return self._hash

    # -- structure helpers ----------------------------------------------

    def leading(self):
        """(exponents, coefficient) of the graded-lex leading term."""
        if len(self.terms) == 1:
            (e, c), = self.terms.items()
            return e, c
        e = max(self.terms, key=_gl_key)
        return e, self.terms[e]

    def content(self):
        return math.gcd(*self.terms.values()) if self.terms else 0

    def max_var(self):
        """Largest symbol index with a positive exponent, or -1."""
        m = -1
        for e in self.terms:
            for i in range(len(e) - 1, m, -1):
                if e[i]:
                    m = i
                    break
        return m

    def degree_in(self, var):
        return max((e[var] for e in self.terms), default=0)

    def as_univariate(self, var):
        """Map degree-in-var -> coefficient Pol (var exponent zeroed)."""
        out = {}
        for e, c in self.terms.items():
            d = e[var]
            r = list(e)
            r[var] = 0
            r = tuple(r)
            bucket = out.setdefault(d, {})
            bucket[r] = bucket.get(r, 0) + c
        return {d: Pol(self.syms, t) for d, t in out.items()}

    @staticmethod
    def from_univariate(syms, var, coeffs):
        t = {}
        for d, p in coeffs.items():
            for e, c in p.terms.items():
                r = list(e)
                r[var] += d
                r = tuple(r)
                nc = t.get(r, 0) + c
                if nc:
                    t[r] = nc
                elif r in t:
                    del t[r]
        return Pol(syms, t)

    # -- exact division --------------------------------------------------

    def divexact(self, other):
        """Exact polynomial quotient; raises if the division is not exact."""
        self._check(other)
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        if other.is_one():
            return self
        if other.is_const():
            k = other.const_value()
            t = {}
            for e, c in self.terms.items():
                q, r = divmod(c, k)
                if r:
                    raise ArithmeticError("inexact constant division")
                t[e] = q
            return Pol(self.syms, t)
        if other.is_monomial():
            (de, dc), = other.terms.items()
            t = {}
            for e, c in self.terms.items():
                q, r = divmod(c, dc)
                ne = tuple(x - y for x, y in zip(e, de))
                if r or any(x < 0 for x in ne):
                    raise ArithmeticError("inexact monomial division")
                t[ne] = q
            return Pol(self.syms, t)
        rem = self
        out = {}
        le, lc = other.leading()
        while not rem.is_zero():
            re, rc = rem.leading()
            qe = tuple(x - y for x, y in zip(re, le))
            if any(x < 0 for x in qe):
                raise ArithmeticError("inexact division (monomial mismatch)")
            qc, r = divmod(rc, lc)
            if r:
                raise ArithmeticError("inexact division (coefficient)")
            out[qe] = out.get(qe, 0) + qc
            rem = rem - other.mul_term(qe, qc)
        return Pol(self.syms, out)

    # -- evaluation / substitution ----------------------------------------

    def eval_float(self, assignment):
        total = 0.0
        for e, c in self.terms.items():
            v = float(c)
            for i, ex in enumerate(e):
                if ex:
                    name = self.syms.names[i]
                    if name not in assignment:
                        raise MissingSymbol(name)
                    v *= float(assignment[name]) ** ex
            total += v
        return total

    def subst(self, mapping):
        """Substitute symbols by (Pol, Pol-den-free) values given as Pol.

        ``mapping`` maps symbol names to Pol over the same SymbolSet.
        Unmapped symbols stay themselves.  Exponents of mapped symbols
        must be nonnegative.
        """
        cache = {}

        def power(name, n):
            key = (name, n)
            if key not in cache:
                cache[key] = mapping[name] ** n
            return cache[key]

        out = Pol.const(self.syms, 0)
        for e, c in self.terms.items():
            rest = list(e)
            term = Pol.const(self.syms, c)
            for i, ex in enumerate(e):
                name = self.syms.names[i]
                if ex and name in mapping:
                    if ex < 0:
                        raise ValueError("negative exponent under substitution")
                    rest[i] = 0
                    term = term * power(name, ex)
            out = out + term.mul_term(tuple(rest), 1)
        return out

    # -- printing ----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=_gl_key, reverse=True)
        out = [term_str(self.syms, keys[0], self.terms[keys[0]])]
        for e in keys[1:]:
            out.append(term_str(self.syms, e, self.terms[e], with_sign=True))
        return " ".join(out)

    def __repr__(self):
        return f"Pol({self})"


def term_str(syms, exps, c, with_sign=False):
    """One monomial with its coefficient, sign folded out in front."""
    parts = []
    for i, ex in enumerate(exps):
        if ex == 0:
            continue
        n = syms.names[i]
        parts.append(n if ex == 1 else f"{n}^{ex}")
    mag = abs(c)
    if not parts:
        body = str(mag)
    elif mag == 1:
        body = "*".join(parts)
    else:
        body = "*".join([str(mag)] + parts)
    if with_sign:
        return ("- " if c < 0 else "+ ") + body
    return ("-" if c < 0 else "") + body


# -- gcd ------------------------------------------------------------------


def _int_primitive(p):
    c = p.content()
    if c in (0, 1):
        return c, p
    return c, p.divexact(Pol.const(p.syms, c))


def _poly_content(coeffs):
    g = None
    for p in coeffs:
        g = p if g is None else poly_gcd(g, p)
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
    exps = tuple(map(min, *f.terms, *g.terms))
    return Pol(f.syms, {exps: math.gcd(*f.terms.values(), *g.terms.values())})


def _shift_div(p, h):
    """p / h for a single-term h that divides every term of p."""
    (he, hc), = h.terms.items()
    if not any(he):
        return p if hc == 1 else \
            Pol(p.syms, {e: c // hc for e, c in p.terms.items()})
    return Pol(p.syms, {tuple(map(sub, e, he)): c // hc
                        for e, c in p.terms.items()})


def _quotient(f, g):
    """f / g when g divides f exactly, else None; f and g have at least
    two terms each."""
    if not all(map(le, map(max, *g.terms), map(max, *f.terms))):
        return None     # g has a higher degree in some variable
    try:
        return f.divexact(g)
    except ArithmeticError:
        return None


def cofactors(f, g):
    """``(h, f/h, g/h)`` with ``h = poly_gcd(f, g)``; f and g nonzero.

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
    content is the gcd of the operands' contents."""
    if f.syms != g.syms:
        raise SymbolSetMismatch(f"{f.syms} vs {g.syms}")
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
    fcont = _poly_content(fp.as_univariate(var).values())
    gcont = _poly_content(gp.as_univariate(var).values())
    cont = poly_gcd(fcont, gcont)
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
        r = _prem(fp, gp, var)
        if r.is_zero():
            h = gp
            break
        _, r = _int_primitive(r)
        rc = _poly_content(r.as_univariate(var).values())
        r = r.divexact(rc)
        fp, gp = gp, r
    _, h = _int_primitive(h)
    h = _normalize_sign(h)
    return (h * cont).mul_int(c) if c != 1 or not cont.is_one() else h
