"""Normal-ordering engine for parity-graded presentations.

Elements are finite scalar-weighted sums of canonical monomials over a
:class:`Presentation`.  Multiplication rewrites words into canonical
order using the presentation's scalar twists and correction rules; odd
generators are nilpotent and may carry coefficient-shift automorphisms.

Dead pairs: odd generators square to zero, and no rule lowers the number
of copies of any odd generator in a word (a twist swaps two letters, a
cancellation removes an even pair, and ``Presentation.__init__`` rejects
a correction word with fewer copies of some odd generator than the pair
it replaces).  A word holding an odd generator twice therefore rewrites
to zero, so the product of two monomials that both carry the same odd
generator is zero.  ``_reduce`` drops such words unread, and
``mul_pairs`` skips such term pairs before it touches their
coefficients or calls ``word_product``.

Two word builders: ``word_elt`` appends the letters of a word one at a
time through the cached single-letter step that ``word_product`` also
uses, and ``normalize`` rewrites the whole word directly with no cache,
under a choice of strategy; it is the reference for the confluence
tests.
"""

from __future__ import annotations

import copy
from math import comb
from operator import add

from .errors import (NonInvertibleNegativePower, NotAUnit,
                     PresentationMismatch, UnknownGenerator)


class Ring:
    """Minimal coefficient-ring adapter: identity elements only.

    Scalars themselves carry the arithmetic (operators plus ``is_zero``
    and ``inv``); the engine never needs more than ``one`` and ``zero``.
    """

    __slots__ = ("one", "zero")

    def __init__(self, one, zero):
        self.one = one
        self.zero = zero


class Presentation:
    """Generators, canonical order and rewrite data for one algebra.

    Canonical order is the declaration order: even generators first,
    then odd generators.  ``twists[(g, h)]`` is the scalar for the
    single-unit crossing g.h -> lambda.h.g with g later than h in the
    canonical order; pairs listed in ``corrections`` (keyed by the unit
    signs of the two letters) additionally emit correction terms.
    """

    def __init__(self, ring, evens, odds, twists=None, corrections=None,
                 shifts=None, name=""):
        self.ring = ring
        self.name = name
        self.gen_names = tuple(n for n, _ in evens) + tuple(odds)
        self.n_even = len(evens)
        self.n_gens = len(self.gen_names)
        self.index = {n: i for i, n in enumerate(self.gen_names)}
        if len(self.index) != self.n_gens:
            raise ValueError("duplicate generator names")
        self.invertible = tuple(inv for _, inv in evens) + (False,) * len(odds)
        self.parity = (0,) * self.n_even + (1,) * len(odds)

        def gi(name):
            if name not in self.index:
                raise UnknownGenerator(name)
            return self.index[name]

        self._twist_pos = {}
        self._twist_neg = {}
        for (g, h), lam in (twists or {}).items():
            key = (gi(g), gi(h))
            if key[0] <= key[1]:
                raise ValueError(f"twist {g},{h} must name a later,earlier pair")
            self._twist_pos[key] = lam
            self._twist_neg[key] = lam.inv()
        self.corrections = {}
        self.linear_runs = {}
        for (g, h, sg, sh), (lam, terms) in (corrections or {}).items():
            words = tuple((c, self._resolve_word(w)) for c, w in terms)
            key = (gi(g), gi(h), sg, sh)
            self._check_odd_counts(key, words)
            self.corrections[key] = (lam, words)
            # crossings of the form g.h -> (lam h + c).g admit a closed
            # binomial expansion over whole runs of h, which avoids the
            # exponential branch cascade of unit-by-unit peeling
            if (not shifts and len(words) == 1
                    and words[0][1] == ((gi(g), 1),) and sg == 1):
                self.linear_runs[key] = (lam, words[0][0])
        self.shifts = {gi(g): fns for g, fns in (shifts or {}).items()}
        self.top = None
        self._word_cache = {}
        self._step_cache = {}
        self._views = {}

    def capped(self, top):
        """View of this presentation that keeps each coefficient of its
        word products at a monomial of degree g only through t^(top - g).

        For truncated-series scalars (they carry a ``cap``); the view
        shares the rules and has word caches of its own, one view per
        ``top``.  ``glpq.series`` states why the cap loses nothing.
        """
        view = self._views.get(top)
        if view is None:
            view = copy.copy(self)
            view.top = top
            view._word_cache, view._step_cache, view._views = {}, {}, {}
            self._views[top] = view
        return view

    def _check_odd_counts(self, key, words):
        """Reject a correction that lowers some odd generator's count.

        The dead-word and dead-pair shortcuts rely on every rule keeping
        at least as many copies of each odd generator as it consumes.
        """
        g, h = key[0], key[1]
        for _, word in words:
            for o in range(self.n_even, self.n_gens):
                have = sum(e for i, e in word if i == o)
                if have < (g == o) + (h == o):
                    raise ValueError(
                        f"correction for {self.gen_names[g]},"
                        f"{self.gen_names[h]} has fewer copies of odd "
                        f"generator {self.gen_names[o]} than its left side")

    def _resolve_word(self, word):
        out = []
        for g, e in word:
            i = g if isinstance(g, int) else self.index.get(g)
            if i is None:
                raise UnknownGenerator(g)
            out.append((i, int(e)))
        return tuple(out)

    def _twist(self, g, h, s):
        table = self._twist_pos if s > 0 else self._twist_neg
        return table.get((g, h))

    # -- element constructors ----------------------------------------------

    def zero_elt(self):
        return Element(self, {})

    def one_elt(self):
        return Element(self, {(0,) * self.n_gens: self.ring.one})

    def scalar_elt(self, s):
        if s.is_zero():
            return self.zero_elt()
        return Element(self, {(0,) * self.n_gens: s})

    def gen(self, name, exp=1):
        return self.word_elt([(name, exp)])

    def word_elt(self, word, coeff=None):
        """Element ``coeff * word``, built through the cached letter step."""
        coeff = self.ring.one if coeff is None else coeff
        letters = self._letters(self._resolve_word(word))
        if coeff.is_zero():
            return self.zero_elt()
        return Element(self, self._append(
            {(0,) * self.n_gens: coeff}, letters))

    def monomial_letters(self, mono):
        letters = []
        for g, e in enumerate(mono):
            if e > 0:
                letters.extend([(g, 1)] * e)
            elif e < 0:
                letters.extend([(g, -1)] * (-e))
        return letters

    # -- core rewriting -------------------------------------------------------

    def _letters(self, word):
        letters = []
        for g, e in word:
            if e == 0:
                continue
            if self.parity[g]:
                if e < 0:
                    raise NonInvertibleNegativePower(self.gen_names[g])
            elif e < 0 and not self.invertible[g]:
                raise NonInvertibleNegativePower(self.gen_names[g])
            s = 1 if e > 0 else -1
            letters.extend([(g, s)] * abs(e))
        return letters

    def normalize(self, word, coeff, strategy="leftmost"):
        """Rewrite ``word`` (sequence of (gen, exp) pairs) times ``coeff``.

        Returns a canonical dict monomial -> nonzero scalar.  Rewrites the
        whole word directly, with no cache; ``word_elt`` gives the same
        terms through the cached letter step.
        """
        out = {}
        self._reduce(self._letters(self._resolve_word(word)), coeff, out,
                     strategy)
        return out

    def _find_event(self, w, strategy):
        """Locate the next rewrite event: ('kill'|'cancel'|'swap', i)."""
        n = len(w)
        idx = range(n - 1) if strategy == "leftmost" else range(n - 2, -1, -1)
        for i in idx:
            (g, sg), (h, sh) = w[i], w[i + 1]
            if g == h:
                if self.parity[g]:
                    return "kill", i
                if sg != sh:
                    return "cancel", i
            elif g > h:
                return "swap", i
        return None, -1

    def _dead(self, w):
        # rewrite rules never lower odd-letter counts, so a repeated odd
        # generator forces the whole word to zero by nilpotency
        seen = 0
        for g, _ in w:
            if self.parity[g]:
                bit = 1 << g
                if seen & bit:
                    return True
                seen |= bit
        return False

    def _reduce(self, letters, coeff, out, strategy="leftmost"):
        if coeff.is_zero():
            return
        stack = [(coeff, letters)]
        while stack:
            c, w = stack.pop()
            if self._dead(w):
                continue
            while True:
                kind, i = self._find_event(w, strategy)
                if kind is None:
                    mono = [0] * self.n_gens
                    for g, s in w:
                        mono[g] += s
                    mono = tuple(mono)
                    prev = out.get(mono)
                    acc = c if prev is None else prev + c
                    if acc.is_zero():
                        out.pop(mono, None)
                    else:
                        out[mono] = acc
                    break
                if kind == "kill":
                    break
                if kind == "cancel":
                    w = w[:i] + w[i + 2:]
                    continue
                (g, sg), (h, sh) = w[i], w[i + 1]
                key = (g, h, sg, sh)
                rule = self.corrections.get(key)
                if rule is None:
                    lam = self._twist(g, h, sg * sh)
                    if lam is not None:
                        c = c * lam
                    w = w[:i] + [w[i + 1], w[i]] + w[i + 2:]
                    continue
                run = self.linear_runs.get(key)
                if run is not None:
                    self._expand_run(c, w, i, key, run, stack)
                    break
                lam, corr = rule
                for cs, cw in corr:
                    nw = w[:i] + self._letters(cw) + w[i + 2:]
                    nc = c * cs
                    if not nc.is_zero():
                        stack.append((nc, nw))
                c = c * lam
                w = w[:i] + [w[i + 1], w[i]] + w[i + 2:]

    def _expand_run(self, c, w, i, key, run, stack):
        """Binomially cross one letter over a whole run: g.h^k ->
        sum_j C(k,j) lam^j c^(k-j) h^j g."""
        g, h, sg, sh = key
        lam, cc = run
        k = 1
        n = len(w)
        while i + 1 + k < n and w[i + 1 + k] == (h, sh):
            k += 1
        prefix, suffix = w[:i], w[i + 1 + k:]
        lam_pows = [self.ring.one]
        cc_pows = [self.ring.one]
        for _ in range(k):
            lam_pows.append(lam_pows[-1] * lam)
            cc_pows.append(cc_pows[-1] * cc)
        for j in range(k + 1):
            coeff = c * lam_pows[j] * cc_pows[k - j]
            cb = comb(k, j)
            if cb != 1:
                coeff = coeff * cb
            if coeff.is_zero():
                continue
            stack.append((coeff, prefix + [(h, sh)] * j + [(g, sg)] + suffix))

    def _word_step(self, mono, letter):
        """Cached canonical terms of (canonical monomial).(single letter)."""
        key = (mono, letter)
        hit = self._step_cache.get(key)
        if hit is None:
            out = {}
            self._reduce(self.monomial_letters(mono) + [letter],
                         self.ring.one, out)
            if self.top is not None:
                out = self._cap_terms(out)
            hit = tuple(out.items())
            self._step_cache[key] = hit
        return hit

    def _cap_terms(self, terms):
        """Terms with each coefficient cut to cap ``top - degree``; ``one``
        is kept as it is, so the ``is one`` shortcuts still fire."""
        one = self.ring.one
        out = {}
        for mono, lam in terms.items():
            cap = self.top - sum(mono)
            if lam is not one and lam.cap > cap:
                lam = lam.with_cap(cap)
                if lam.is_zero():
                    continue
            out[mono] = lam
        return out

    def _append(self, acc, letters):
        """Canonical terms of (sum of acc) times the letters, one letter
        at a time through the cached ``_word_step``."""
        one = self.ring.one
        for letter in letters:
            new = {}
            for mono, sc in acc.items():
                for mono2, lam in self._word_step(mono, letter):
                    nc = sc if lam is one else (
                        lam if sc is one else sc * lam)
                    prev = new.get(mono2)
                    nc = nc if prev is None else prev + nc
                    if nc.is_zero():
                        new.pop(mono2, None)
                    else:
                        new[mono2] = nc
            acc = new
        return acc

    def word_product(self, m1, m2):
        """Canonical terms of the concatenation of two canonical monomials.

        Computed by appending the right factor letter by letter, which
        shares the expensive reordering work across all pairs.  When the
        last generator of ``m1`` comes before the first generator of
        ``m2``, or both are the same even generator, the concatenation
        is already canonical up to cancelling inverse letters, which has
        coefficient 1: the product is the exponent sum, with no rewriting.
        """
        key = (m1, m2)
        hit = self._word_cache.get(key)
        if hit is None:
            last = max((g for g, e in enumerate(m1) if e), default=-1)
            first = next((g for g, e in enumerate(m2) if e), self.n_gens)
            if last < first or (last == first and not self.parity[last]):
                hit = ((tuple(map(add, m1, m2)), self.ring.one),)
            else:
                out = self._append({m1: self.ring.one},
                                   self.monomial_letters(m2))
                if self.top is not None:
                    out = self._cap_terms(out)
                hit = tuple(out.items())
            self._word_cache[key] = hit
        return hit

    def cross_left(self, mono, scalar):
        """Move a coefficient left across the odd letters of ``mono``."""
        if not self.shifts:
            return scalar
        for g in range(self.n_gens - 1, self.n_even - 1, -1):
            if mono[g] and g in self.shifts:
                scalar = self.shifts[g][1](scalar)
        return scalar

    def mono_parity(self, mono):
        return sum(mono[self.n_even:]) % 2

    def __repr__(self):
        return f"Presentation({self.name or ','.join(self.gen_names)})"


class Element:
    """Canonical scalar-weighted sum of monomials; immutable value."""

    __slots__ = ("pres", "terms")

    def __init__(self, pres, terms):
        self.pres = pres
        self.terms = terms

    def _check(self, other):
        if self.pres is not other.pres:
            raise PresentationMismatch(f"{self.pres} vs {other.pres}")

    def is_zero(self):
        return not self.terms

    def parity(self):
        """'even', 'odd' or 'mixed'; the zero element counts as even."""
        if not self.terms:
            return "even"
        ps = {self.pres.mono_parity(m) for m in self.terms}
        if len(ps) > 1:
            return "mixed"
        return "odd" if ps.pop() else "even"

    # -- additive structure ---------------------------------------------------

    def __add__(self, other):
        self._check(other)
        t = dict(self.terms)
        for m, c in other.terms.items():
            prev = t.get(m)
            acc = c if prev is None else prev + c
            if acc.is_zero():
                t.pop(m, None)
            else:
                t[m] = acc
        return Element(self.pres, t)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Element(self.pres, {m: -c for m, c in self.terms.items()})

    def smul(self, scalar):
        """Left multiplication by a coefficient."""
        if scalar.is_zero():
            return self.pres.zero_elt()
        t = {}
        for m, c in self.terms.items():
            nc = scalar * c
            if not nc.is_zero():
                t[m] = nc
        return Element(self.pres, t)

    # -- multiplicative structure ------------------------------------------------

    def __mul__(self, other):
        self._check(other)
        return mul_pairs(self.pres, ((t1, t2) for t1 in self.terms.items()
                                     for t2 in other.terms.items()))

    def __pow__(self, n):
        if n < 0:
            return invert_even_unit(self) ** (-n)
        return power(self.pres.one_elt(), self, n)

    # -- comparisons ----------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.pres is other.pres and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.pres), frozenset(self.terms)))

    def __repr__(self):
        if not self.terms:
            return "Element(0)"
        bits = []
        for m in sorted(self.terms):
            word = "*".join(f"{self.pres.gen_names[g]}^{e}" if e != 1 else
                            self.pres.gen_names[g]
                            for g, e in enumerate(m) if e) or "1"
            bits.append(f"({self.terms[m]})*{word}")
        return "Element(" + " + ".join(bits) + ")"


def mul_pairs(pres, pairs, words=None):
    """Sum of the products (c1*m1).(c2*m2) over the given term pairs.

    ``pairs`` yields ((m1, c1), (m2, c2)); the full product of two
    elements passes every pair, a truncated product only those that can
    land inside its window.  A pair whose monomials share an odd
    generator is zero (see the module docstring) and is skipped first.
    Word products come from ``words``, a capped view of ``pres``, when
    given; the result is an element of ``pres`` either way.
    """
    one = pres.ring.one
    odd = range(pres.n_even, pres.n_gens)
    words = pres if words is None else words
    out = {}
    for (m1, c1), (m2, c2) in pairs:
        if any(m1[g] and m2[g] for g in odd):
            continue
        c2s = pres.cross_left(m1, c2)
        c = c2s if c1 is one else (c1 if c2s is one else c1 * c2s)
        if c.is_zero():
            continue
        for mono, lam in words.word_product(m1, m2):
            nc = c if lam is one else (lam if c is one else c * lam)
            prev = out.get(mono)
            acc = nc if prev is None else prev + nc
            if acc.is_zero():
                out.pop(mono, None)
            else:
                out[mono] = acc
    return Element(pres, out)


def power(one, base, n):
    """base**n for n >= 0 by square-and-multiply, starting from ``one``."""
    r = one
    while n:
        if n & 1:
            r = r * base
        n >>= 1
        if n:
            base = base * base
    return r


def commutator(x, y):
    return x * y - y * x


def anticommutator(x, y):
    return x * y + y * x


_UNIT_SERIES_TERMS = 8    # terms tried before a tail counts as non-nilpotent


def invert_even_unit(u):
    """Two-sided inverse of m.(1 + n) with m an invertible even monomial.

    The nilpotent tail is inverted by the terminating geometric series.
    Raises NotAUnit when no pure-even pivot term exists or the series
    fails to terminate.
    """
    pres = u.pres
    even_terms = [(m, c) for m, c in u.terms.items()
                  if not any(m[pres.n_even:])]
    if not even_terms:
        raise NotAUnit("no pure even monomial in the element")
    m0, c0 = min(even_terms, key=lambda mc: (sum(abs(e) for e in mc[0]), mc[0]))
    try:
        c0_inv = c0.inv()
    except Exception as exc:
        raise NotAUnit(f"pivot coefficient not invertible: {exc}") from exc
    # exact inverse of the pivot word: reversed letters with flipped signs
    rev = [(g, -e) for g, e in reversed(list(enumerate(m0))) if e]
    try:
        v0 = pres.word_elt(rev, c0_inv)
    except NonInvertibleNegativePower as exc:
        raise NotAUnit(str(exc)) from exc
    r = u * v0 - pres.one_elt()
    acc = pres.one_elt()
    term = pres.one_elt()
    for _ in range(_UNIT_SERIES_TERMS):
        if term.is_zero():
            break
        term = -(term * r)
        acc = acc + term
    else:
        if not term.is_zero():
            raise NotAUnit("correction series does not terminate")
    return v0 * acc
