"""Normal-ordering engine for parity-graded presentations.

Elements are finite scalar-weighted sums of canonical monomials over a
:class:`Presentation`.  Multiplication rewrites words into canonical
order using the presentation's scalar twists and correction rules; odd
generators are nilpotent and may carry a coefficient shift: the map that
moves a coefficient from the right of that generator to its left
(``Presentation.cross_left``).

Dead pairs: odd generators square to zero, and no rule lowers the number
of copies of any odd generator in a word (a twist swaps two letters, a
cancellation removes an even pair, and ``Presentation.__init__`` rejects
a correction word with fewer copies of some odd generator than the pair
it replaces).  A word holding an odd generator twice therefore rewrites
to zero, so the product of two monomials that both carry the same odd
generator is zero.  ``_reduce`` drops such words unread, and
``mul_pairs`` skips such term pairs before it touches their
coefficients or calls ``word_product``.

Two word builders: ``word_product`` multiplies two canonical monomials,
in the closed form below when it applies and otherwise by appending
letters one at a time through the cached single-letter step
``_word_step``.  The appending starts from the longest prefix p of the
right factor m2 whose product with m1 is already in the word cache:
``_prefix_product`` walks down the prefixes of m2 in a loop, one unit of
its last generator at a time, and caches the product of m1 with each
longer prefix as it appends the letters again.  Those products are the
ones ``word_product`` returns for them (normal forms are unique, and a
capped view cuts each of them as the first bullet of the weight-cap
argument in ``glpq.series`` allows), so a later power of the same
generator, longer or shorter, starts where this one stopped.  The cache
then holds one entry per prefix built: ``d^3*(((a^64)^64)^2)`` peaks at
39 MB against 29 MB with only the requested products cached.
``word_elt`` multiplies the runs of a word (the powers of one generator)
through ``word_product``, so it reads the same caches.  And
``normalize`` rewrites the whole word directly with ``_reduce``, with no
cache, under a choice of strategy; it is the reference for the
confluence tests.  ``_reduce`` merges equal pending words, so a word
that branches at every crossing (beta.A^k in the affine presentation)
costs polynomial, not exponential, work.

Letter steps.  Let mono = m'.y be canonical with last letter y after
the appended letter x, and let y.x -> lam x.y + sum c w be the rule of
the pair (lam = 1 and no w for a plain twist).  Then

    mono.x = lam (m'.x).y + sum c (m'.w),

so a step is built from the step of a shorter prefix, whose terms are
then stepped by y (mostly a plain append), and from the correction
words appended to m' letter by letter.  Rule scalars multiply at the
left, as in ``_reduce``; shifts stay in ``mul_pairs`` and
``cross_left``.  Normal forms are unique (Bergman's diamond lemma), so
this order of rewriting gives the same terms as any other.  ``_chain``
walks down the prefixes in a loop to the longest one whose step is
known (a plain append, a memo entry or a cache entry) and builds the
longer ones upward.  A sub-step it cannot read runs as another frame on
the explicit stack of ``_steps``, so no Python recursion grows with the
word.  The sub-steps of one miss live in a memo that is dropped
afterwards: ``_step_cache`` holds only the requested (mono, letter)
entries.

Odd mask: every sub-step carries the set M of odd generators that its
caller still appends.  By the dead-pair argument, a term holding one of
them is zero once that letter arrives, and so is every term rewritten
from it.  A step therefore drops each correction branch whose word
meets M or the odd letters of m', and the step of m'.x runs under
M + {y} when y is odd.  Only corrections insert letters, so a masked
step equals the full step with the terms that meet M removed; a cached
full step is read under a mask that way.

Termination: ``Presentation.__init__`` also requires every correction
word to add an odd generator or to have fewer than two letters.  Give a
masked step of the word u = mono.x the measure (k, len u, inv u), where
k counts the odd generators in neither u nor M, and inv u the pairs of
u out of canonical order.  Each odd generator occurs at most once in u
and M together, so k >= 0.  Every sub-step is smaller in lexicographic
order:

* m'.x moves y into the mask and is one letter shorter;
* a term n of m'.x was rewritten either through a correction that added
  an odd generator (k falls), or by rules that never lengthen a word,
  so n.y is shorter than u or a sorted permutation of it (inv falls
  to 0);
* a step of m'.w either added an odd generator with w (k falls) or has
  at most len m' + 1 letters.

So the recurrence ends.  Without the mask it need not: for
a^-6.d^-2.a^-1, the d^-1.a^-1 correction re-inserts d^-2.beta.gamma
forever.

Closed-form word products.  Let m1 and m2 be canonical and share no odd
generator.  Appending m2 letter by letter, a letter x of m2 on generator
h moves left past exactly the letters of m1 on generators g > h: the
letters of m2 before it lie on generators <= h, and the letters of m1 on
generators <= h stay to its left.  A cancellation only meets a letter of
x's own generator, after x has crossed everything it crosses, so it
removes no letter that another letter still has to cross.  Each letter
of m1[g] therefore crosses each letter of m2[h] exactly once, and
nothing else crosses.  When every correction branch of every such
crossing is dead, the product is the single monomial m1 + m2 with scalar

    prod over g > h of lam(g, sg, h, sh) ^ (|m1[g]| |m2[h]|),

the twists of the crossings (sg, sh the signs of m1[g], m2[h]).  A
branch inserted at the crossing y.x is dead when its word holds an odd
generator that the word still holds elsewhere, since no rule lowers an
odd count (the dead-pair argument).  The other letters of the word are
those of m1 and m2 except y and x, and an odd generator occurs at most
once among all of them, so the test is: the branch's odd bits meet
odd(m1) | odd(m2) with the bits of y and x removed.  The bits of y and x
must leave the mask because the branch replaces those two letters: the
affine beta.A -> q^-1 A.beta + (q^-1 - 1) beta keeps a live branch whose
only odd letter is the crossing beta.  Normal forms are unique, so this
monomial is the one the letter-by-letter build reaches.
``word_product`` uses it whenever it applies and appends letters
otherwise.  A canonical concatenation (the last generator of m1 comes
before the first of m2, or both are the same even generator) has no
crossing g > h and shares no odd generator, so the closed form returns
it as m1 + m2 with coefficient ``one``.
"""

from __future__ import annotations

import copy
from heapq import heappop, heappush
from itertools import compress
from operator import add, mul

from .errors import (AlgebraError, NonInvertibleNegativePower, NotAUnit,
                     PresentationMismatch, UnknownGenerator)
from .poly import power


class Presentation:
    """Generators, canonical order and rewrite data for one algebra.

    Canonical order is the declaration order: even generators first,
    then odd generators.  ``twists[(g, h)]`` is the scalar for the
    single-unit crossing g.h -> lambda.h.g with g later than h in the
    canonical order; pairs listed in ``corrections`` (keyed by the unit
    signs of the two letters) additionally emit correction terms.
    ``shifts[g]`` maps a coefficient standing right of the odd generator
    g to the one standing left of it.  ``one`` is the unit of the
    coefficients, which carry their own arithmetic (operators plus
    ``is_zero`` and ``inv``).
    """

    def __init__(self, one, evens, odds, twists=None, corrections=None,
                 shifts=None, name=""):
        self.one = one
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
        for (g, h, sg, sh), (lam, terms) in (corrections or {}).items():
            words = tuple((c, self._resolve_word(w)) for c, w in terms)
            key = (gi(g), gi(h), sg, sh)
            self._check_corrections(key, words)
            self.corrections[key] = (lam, words)
        self.shifts = {gi(g): fn for g, fn in (shifts or {}).items()}
        self._odd_bit = tuple(p << g for g, p in enumerate(self.parity))
        self._swaps = {(g, sg, h, sh): self._swap_rule((g, h, sg, sh))
                       for g in range(self.n_gens) for h in range(g)
                       for sg in (1, -1) for sh in (1, -1)}
        self.top = None
        self._word_cache = {}
        self._step_cache = {}
        # twist powers of the closed-form word products, keyed by the id
        # of a scalar held in _swaps and the exponent
        self._powers = {}
        self._views = {}
        # monomial -> (sort key, string), filled by glpq.printing; a
        # capped view shares it
        self.print_table = {}

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
            view._word_cache, view._step_cache = {}, {}
            view._powers, view._views = {}, {}
            self._views[top] = view
        return view

    def _check_corrections(self, key, words):
        """Reject a correction that lowers some odd generator's count, or
        that keeps every count and does not shorten the word.

        The dead-word and dead-pair shortcuts rely on the first rule, and
        the termination argument of the module docstring on both.
        """
        g, h = key[0], key[1]
        for _, word in words:
            raised = False
            for o in range(self.n_even, self.n_gens):
                have = sum(e for i, e in word if i == o)
                need = (g == o) + (h == o)
                if have < need:
                    raise ValueError(
                        f"correction for {self.gen_names[g]},"
                        f"{self.gen_names[h]} has fewer copies of odd "
                        f"generator {self.gen_names[o]} than its left side")
                raised = raised or have > need
            if not raised and sum(abs(e) for _, e in word) > 1:
                raise ValueError(
                    f"correction for {self.gen_names[g]},"
                    f"{self.gen_names[h]} neither adds an odd generator "
                    "nor shortens the word")

    def _swap_rule(self, key):
        """(lam, branches) for the crossing g.h of ``key``: lam is the
        scalar of h.g, None for 1; each live correction branch is
        (scalar, letters, odd bits, odd bits of the letters after each
        one).  A correction word holding an odd generator twice is
        zero and is left out."""
        rule = self.corrections.get(key)
        if rule is None:
            return self._twist(key[0], key[1], key[2] * key[3]), ()
        lam, words = rule
        branches = []
        for c, word in words:
            letters = self._letters(word)
            bits = [self._odd_bit[z] for z, _ in letters]
            odd = [b for b in bits if b]
            if len(set(odd)) < len(odd):
                continue
            tails = [sum(bits[i + 1:]) for i in range(len(bits))]
            branches.append((c, tuple(letters), sum(bits), tuple(tails)))
        return (None if lam is self.one else lam), tuple(branches)

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
        return Element(self, {(0,) * self.n_gens: self.one})

    def scalar_elt(self, s):
        if s.is_zero():
            return self.zero_elt()
        return Element(self, {(0,) * self.n_gens: s})

    def gen(self, name, exp=1):
        return self.word_elt([(name, exp)])

    def word_elt(self, word, coeff=None):
        """Element ``coeff * word``, built one run of a generator at a time
        through ``word_product``.  The coefficient stays at the left, so
        no shift applies."""
        coeff = self.one if coeff is None else coeff
        runs = self._runs(self._resolve_word(word))
        if coeff.is_zero():
            return self.zero_elt()
        one = self.one
        zero = (0,) * self.n_gens
        acc = {zero: coeff}
        for g, e in runs:
            if self.parity[g] and e > 1:
                return self.zero_elt()          # an odd square
            run = zero[:g] + (e,) + zero[g + 1:]
            new = {}
            for mono, sc in acc.items():
                add_products(new, one, sc, one, self.word_product(mono, run))
            acc = new
        return Element(self, acc)

    def monomial_letters(self, mono):
        letters = []
        for g, e in enumerate(mono):
            if e > 0:
                letters.extend([(g, 1)] * e)
            elif e < 0:
                letters.extend([(g, -1)] * (-e))
        return letters

    # -- core rewriting -------------------------------------------------------

    def _runs(self, word):
        """The (generator, exponent) pairs of a resolved word whose
        exponent is not zero; raises NonInvertibleNegativePower for a
        negative power of an odd or non-invertible generator."""
        runs = []
        for g, e in word:
            if e:
                if e < 0 and not self.invertible[g]:
                    raise NonInvertibleNegativePower(self.gen_names[g])
                runs.append((g, e))
        return runs

    def _letters(self, word):
        letters = []
        for g, e in self._runs(word):
            letters.extend([(g, 1 if e > 0 else -1)] * abs(e))
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
        """Locate the next rewrite event of a live word: ('cancel'|'swap',
        i).  Odd letters are positive, so a letter next to its inverse is
        even."""
        n = len(w)
        idx = range(n - 1) if strategy == "leftmost" else range(n - 2, -1, -1)
        for i in idx:
            (g, sg), (h, sh) = w[i], w[i + 1]
            if g == h:
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
        """Add the canonical terms of ``coeff`` times the word into ``out``.

        Rewrites one event at a time, at the leftmost or rightmost event
        of the word.  Every event lowers the measure (k, length,
        inversions) of the module docstring, with k counting the odd
        generators not in the word: a twist lowers the inversions, a
        cancellation the length, and a correction branch either adds an
        odd generator or has at most one letter (a branch that repeats an
        odd generator is dead).  So the pending word of largest measure
        is taken first: no word turns up again once it is taken, and
        equal words meet while pending and are rewritten once, with
        their coefficients added.
        """
        pending, queue = {}, []
        self._pend(pending, queue, tuple(letters), coeff)
        while queue:
            w = heappop(queue)[-1]
            c = pending.pop(w)
            if c.is_zero():
                continue
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
                continue
            if kind == "cancel":
                self._pend(pending, queue, w[:i] + w[i + 2:], c)
                continue
            (g, sg), (h, sh) = w[i], w[i + 1]
            swapped = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
            rule = self.corrections.get((g, h, sg, sh))
            if rule is None:
                lam = self._twist(g, h, sg * sh)
                self._pend(pending, queue, swapped,
                           c if lam is None else c * lam)
                continue
            lam, corr = rule
            for cs, cw in corr:
                self._pend(pending, queue,
                           w[:i] + tuple(self._letters(cw)) + w[i + 2:],
                           c * cs)
            self._pend(pending, queue, swapped, c * lam)

    def _pend(self, pending, queue, w, c):
        """Queue the word ``w`` with coefficient ``c``, or add ``c`` to it
        if it is pending; a dead word is dropped unread.  The queue key
        is (odd generators, -length, -inversions), so the word with the
        largest measure comes first."""
        if self._dead(w):
            return
        prev = pending.get(w)
        if prev is not None:
            pending[w] = prev + c
            return
        pending[w] = c
        odd = sum(self.parity[g] for g, _ in w)
        inv = sum(g > h for i, (g, _) in enumerate(w) for h, _ in w[i + 1:])
        heappush(queue, (odd, -len(w), -inv, w))

    def _word_step(self, mono, letter):
        """Cached canonical terms of (canonical monomial).(single letter)."""
        key = (mono, letter)
        hit = self._step_cache.get(key)
        if hit is None:
            hit = self._plain_step(mono, letter)
            if hit is None:
                hit = self._steps(mono, letter)
            self._step_cache[key] = hit
        return hit

    def _plain_step(self, mono, letter):
        """Terms of mono.letter when no rule applies: a dead pair, or an
        append up to cancelling an inverse letter; None otherwise."""
        g, s = letter
        if mono[g] and self.parity[g]:
            return ()
        last = self.n_gens - 1
        while last > g and not mono[last]:
            last -= 1
        if last > g:
            return None
        return ((mono[:g] + (mono[g] + s,) + mono[g + 1:], self.one),)

    def _known_step(self, mono, letter, mask, memo):
        """Terms of mono.letter without the generators in ``mask``, if a
        plain step, the memo or the cache has them; None otherwise."""
        hit = self._plain_step(mono, letter)
        if hit is None:
            hit = memo.get((mono, letter, mask))
            if hit is None:
                hit = self._step_cache.get((mono, letter))
                if hit is not None and mask:
                    hit = tuple(t for t in hit
                                if not self._odd_bits(t[0]) & mask)
        return hit

    def _odd_bits(self, mono):
        return sum(compress(self._odd_bit, mono))

    def _steps(self, mono, letter):
        """Terms of mono.letter by the prefix recurrence of the module
        docstring.  Each ``_chain`` frame yields the sub-steps it cannot
        read; they run as frames on an explicit stack, so no Python
        recursion grows with the word.  The memo lives for this call."""
        memo = {}
        stack = [self._chain(mono, letter, 0, memo)]
        terms = None
        while True:
            try:
                request = stack[-1].send(terms)
            except StopIteration as done:
                stack.pop()
                if not stack:
                    return done.value
                terms = done.value
            else:
                stack.append(self._chain(*request, memo))
                terms = None

    def _chain(self, mono, x, mask, memo):
        """Frame of ``_steps`` for mono.x under ``mask``: walks down the
        prefixes to the longest one whose step is known, then builds the
        step of each longer prefix from the one below it."""
        one = self.one
        levels = []
        m = mask
        terms = self._known_step(mono, x, m, memo)
        while terms is None:
            h = self.n_gens - 1
            while not mono[h]:
                h -= 1
            sh = 1 if mono[h] > 0 else -1
            prefix = mono[:h] + (mono[h] - sh,) + mono[h + 1:]
            levels.append((mono, prefix, (h, sh), m))
            mono = prefix
            m |= self._odd_bit[h]
            terms = self._known_step(mono, x, m, memo)
        for mono, prefix, y, m in reversed(levels):
            lam, branches = self._swaps[y + x]
            out = {}
            for n, mu in terms:
                sub = self._known_step(n, y, m, memo)
                if sub is None:
                    sub = yield n, y, m
                add_products(out, one, mu, one, sub)
            if lam is not None:
                scaled = ((n, c * lam) for n, c in out.items())
                out = {n: c for n, c in scaled if not c.is_zero()}
            for cs, word, bits, tails in branches:
                if bits & (m | self._odd_bits(prefix)):
                    continue
                acc = ((prefix, cs),)
                for z, tail in zip(word, tails):
                    new = {}
                    for n, c in acc:
                        sub = self._known_step(n, z, m | tail, memo)
                        if sub is None:
                            sub = yield n, z, m | tail
                        add_products(new, one, c, one, sub)
                    acc = new.items()
                add_products(out, one, one, one, acc)
            if self.top is not None:
                out = self._cap_terms(out)
            terms = tuple(out.items())
            memo[(mono, x, m)] = terms
        return terms

    def _cap_terms(self, terms):
        """Terms with each coefficient cut to cap ``top - degree``; ``one``
        is kept as it is, so the ``is one`` shortcuts still fire."""
        one = self.one
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
        one = self.one
        for letter in letters:
            new = {}
            for mono, sc in acc.items():
                add_products(new, one, sc, one,
                             self._word_step(mono, letter))
            acc = new
        return acc

    def word_product(self, m1, m2):
        """Canonical terms of the concatenation of two canonical monomials.

        Written down in closed form when every crossing of the two can
        only twist (see the module docstring); otherwise built from the
        longest prefix of the right factor whose product with m1 is
        cached (``_prefix_product``).
        """
        key = (m1, m2)
        hit = self._word_cache.get(key)
        if hit is None:
            out = self._twist_product(m1, m2)
            if out is None:
                return self._prefix_product(m1, m2)
            if self.top is not None:
                out = self._cap_terms(out)
            hit = tuple(out.items())
            self._word_cache[key] = hit
        return hit

    def _prefix_product(self, m1, m2):
        """Terms of m1.m2 from the longest prefix p of m2 with (m1, p) in
        the word cache (or from m1 alone): the walk down drops one unit of
        the last generator of m2 at a time, and the letters it dropped are
        appended again through ``_append``.  The product with each longer
        prefix is cut on a capped view and cached, so a later product with
        a longer or a shorter power starts where this one stopped."""
        cache = self._word_cache
        letters = []
        prefix = m2
        h = self.n_gens - 1
        while True:
            while h >= 0 and not prefix[h]:
                h -= 1
            if h < 0:
                acc = {m1: self.one}
                break
            s = 1 if prefix[h] > 0 else -1
            letters.append((h, s))
            prefix = prefix[:h] + (prefix[h] - s,) + prefix[h + 1:]
            hit = cache.get((m1, prefix))
            if hit is not None:
                acc = dict(hit)
                break
        for g, s in reversed(letters):
            prefix = prefix[:g] + (prefix[g] + s,) + prefix[g + 1:]
            acc = self._append(acc, ((g, s),))
            if self.top is not None:
                acc = self._cap_terms(acc)
            hit = tuple(acc.items())
            cache[(m1, prefix)] = hit
        return hit

    def _twist_product(self, m1, m2):
        """Terms of m1.m2 by the closed form of the module docstring, or
        None when the monomials share an odd generator or a correction
        of some crossing may survive."""
        odd = self._odd_bits(m1)
        odd2 = self._odd_bits(m2)
        if odd & odd2:
            return None
        odd |= odd2
        bit = self._odd_bit
        n = self.n_gens
        counts = {}
        for h in range(n - 1):
            eh = m2[h]
            if not eh:
                continue
            sh = 1 if eh > 0 else -1
            for g in range(h + 1, n):
                eg = m1[g]
                if not eg:
                    continue
                lam, branches = self._swaps[(g, 1 if eg > 0 else -1, h, sh)]
                mask = odd & ~(bit[g] | bit[h])
                for branch in branches:
                    if not branch[2] & mask:
                        return None
                if lam is not None:
                    # crossings that share a scalar object share one power
                    k = counts.get(id(lam), (lam, 0))[1] + abs(eg * eh)
                    counts[id(lam)] = (lam, k)
        one = self.one
        c = one
        for key, (lam, k) in counts.items():
            lamk = self._powers.get((key, k))
            if lamk is None:
                lamk = self._powers[(key, k)] = power(None, lam, k)
            c = lamk if c is one else c * lamk
        return {tuple(map(add, m1, m2)): c}

    def cross_left(self, mono, scalar):
        """Move a coefficient left across the odd letters of ``mono``."""
        if not self.shifts:
            return scalar
        for g in range(self.n_gens - 1, self.n_even - 1, -1):
            if mono[g] and g in self.shifts:
                scalar = self.shifts[g](scalar)
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
        one = self.pres.one
        add_products(t, one, one, one, other.terms.items())
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
        return Element(self.pres, mul_pairs(
            self.pres, ((t1, t2) for t1 in self.terms.items()
                        for t2 in other.terms.items())))

    def __pow__(self, n):
        return self.power(n)

    def power(self, n, mul=mul):
        """self**n with every product made by ``mul(x, y)``."""
        if n < 0:
            return invert_even_unit(self, mul).power(-n, mul)
        return power(None, self, n, mul) if n else self.pres.one_elt()

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


def add_products(out, one, c1, c2, terms):
    """Add c1*c2 times each (mono, lam) of ``terms`` into the dict ``out``
    of canonical coefficients; no product is taken with ``one``.  The
    accumulator of ``mul_pairs`` for any scalar ring."""
    c = c2 if c1 is one else (c1 if c2 is one else c1 * c2)
    if c.is_zero():
        return
    for mono, lam in terms:
        nc = c if lam is one else (lam if c is one else c * lam)
        prev = out.get(mono)
        nc = nc if prev is None else prev + nc
        if nc.is_zero():
            out.pop(mono, None)
        else:
            out[mono] = nc


def mul_pairs(pres, pairs, words=None, add=add_products):
    """Terms of the sum of the products (c1*m1).(c2*m2) over the given
    term pairs.

    ``pairs`` yields ((m1, c1), (m2, c2)); the full product of two
    elements passes every pair, a truncated product only those that can
    land inside its window.  A pair whose monomials share an odd
    generator is zero (see the module docstring) and is skipped first.
    Word products come from ``words``, a capped view of ``pres``, when
    given.  ``add(out, one, c1, c2, terms)`` adds each pair's coefficients
    into the returned dict ``out``: c1, c2 moved left across m1, and the
    terms of the word product.  ``add_products`` keeps canonical
    coefficients there; ``coeff.add_laurent_products`` keeps raw windows
    for ``coeff.settle_laurent_sums``.
    """
    words = pres if words is None else words
    one = pres.one
    odd_bit = pres._odd_bit
    out = {}
    for (m1, c1), (m2, c2) in pairs:
        # odd bits in C, with no Python frame; a per-product memo of them
        # is no faster, and slower for products of one or two pairs
        if sum(compress(odd_bit, m1)) & sum(compress(odd_bit, m2)):
            continue
        add(out, one, c1, pres.cross_left(m1, c2), words.word_product(m1, m2))
    return out


def commutator(x, y):
    return x * y - y * x


def anticommutator(x, y):
    return x * y + y * x


_UNIT_SERIES_TERMS = 8    # terms tried before a tail counts as non-nilpotent


def invert_even_unit(u, mul=mul):
    """Two-sided inverse of m.(1 + n) with m an invertible even monomial.

    The nilpotent tail is inverted by the terminating geometric series.
    Raises NotAUnit when no pure-even pivot term exists or the series
    fails to terminate.  Every product is ``mul(x, y)``.
    """
    pres = u.pres
    even_terms = [(m, c) for m, c in u.terms.items()
                  if not any(m[pres.n_even:])]
    if not even_terms:
        raise NotAUnit("no pure even monomial in the element")
    m0, c0 = min(even_terms, key=lambda mc: (sum(abs(e) for e in mc[0]), mc[0]))
    try:
        c0_inv = c0.inv()
    except AlgebraError as exc:
        raise NotAUnit(f"pivot coefficient not invertible: {exc}") from exc
    # exact inverse of the pivot word: reversed letters with flipped signs
    rev = [(g, -e) for g, e in reversed(list(enumerate(m0))) if e]
    try:
        v0 = pres.word_elt(rev, c0_inv)
    except NonInvertibleNegativePower as exc:
        raise NotAUnit(str(exc)) from exc
    if len(u.terms) == 1:
        return v0                # u * v0 = 1: no correction series
    r = mul(u, v0) - pres.one_elt()
    acc = pres.one_elt()
    term = pres.one_elt()
    for _ in range(_UNIT_SERIES_TERMS):
        if term.is_zero():
            break
        term = -mul(term, r)
        acc = acc + term
    else:
        if not term.is_zero():
            raise NotAUnit("correction series does not terminate")
    return mul(v0, acc)
