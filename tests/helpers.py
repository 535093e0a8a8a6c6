"""Shared randomized generators and naive references for the engine
property tests."""

import sys
from fractions import Fraction

from glpq.coeff import RatFunc, TruncLaurent
from glpq.dsl import MAX_EXPONENT
from glpq.errors import DivisionByZero, DslSyntaxError, UnknownIdentifier
from glpq.nc import Element
from glpq.poly import Pol, SymbolSet, _pol, poly_gcd
from glpq.series import INF, TruncElement
from glpq.tside import tside

# the interpreter's limit on the digits int() and str() convert (CPython
# 3.10.7 and later); None where it is missing or switched off
INT_MAX_STR_DIGITS = getattr(sys, "get_int_max_str_digits",
                             lambda: 0)() or None


def random_word(rng, max_len=12, exp_bound=3):
    ctx = tside()
    word = []
    for _ in range(rng.randint(0, max_len)):
        gen = rng.choice(("a", "d", "beta", "gamma"))
        if gen in ("beta", "gamma"):
            word.append((gen, rng.choice((1, 1, 1, 2))))
        else:
            e = rng.randint(-exp_bound, exp_bound)
            if e:
                word.append((gen, e))
    return word


def random_scalar(rng):
    ctx = tside()
    s = ctx.scalar(rng.randint(-4, 4))
    if rng.random() < 0.5:
        s = s + ctx.p ** rng.randint(-1, 1) * rng.randint(-2, 2)
    if s.is_zero():
        s = ctx.one
    return s


def random_element(rng, n_terms=3, max_len=6):
    ctx = tside()
    e = ctx.pres.zero_elt()
    for _ in range(rng.randint(1, n_terms)):
        e = e + ctx.pres.word_elt(random_word(rng, max_len), random_scalar(rng))
    return e


def renormalize(e):
    """Push every stored term through the rewriting engine once more."""
    pres = e.pres
    out = pres.zero_elt()
    for mono, coeff in e.terms.items():
        word = [(g, exp) for g, exp in enumerate(mono) if exp]
        out = out + pres.word_elt(word, coeff)
    return out


def random_homogeneous(rng, parity, max_len=5):
    """Random element all of whose monomials share the given parity."""
    ctx = tside()
    for _ in range(200):
        e = random_element(rng, n_terms=2, max_len=max_len)
        if e.is_zero():
            continue
        terms = {m: c for m, c in e.terms.items()
                 if ctx.pres.mono_parity(m) == parity}
        if terms:
            return Element(ctx.pres, terms)
    raise AssertionError("could not draw a homogeneous element")


def naive_normal_form(pres, letters, coeff):
    """Reference rewriter: canonical terms of ``coeff`` times the word of
    unit letters ``letters`` ((generator index, +1 or -1) pairs).

    Rewrites one rule at a time at the rightmost reducible pair: an odd
    square dies, an even letter next to its inverse cancels, and a pair
    out of canonical order is swapped with its twist or its correction
    terms.  No cache, no dead-word shortcut, no odd mask.
    Rightmost first sorts the odd letters that a correction inserts
    before it crosses more even letters, so a word with a repeated odd
    generator reaches its odd square quickly; leftmost first keeps
    spawning corrections inside such words and takes minutes on
    six-letter inputs like d^-2*beta*gamma*a^-2.
    """
    out = {}
    stack = [(coeff, list(letters))]
    while stack:
        c, w = stack.pop()
        if c.is_zero():
            continue
        for i in range(len(w) - 2, -1, -1):
            (g, sg), (h, sh) = w[i], w[i + 1]
            rest = w[i + 2:]
            if g == h and pres.parity[g]:
                break
            if g == h and sg != sh:
                stack.append((c, w[:i] + rest))
                break
            if g > h:
                swapped = w[:i] + [(h, sh), (g, sg)] + rest
                rule = pres.corrections.get((g, h, sg, sh))
                if rule is None:
                    lam = pres._twist(g, h, sg * sh)
                    stack.append((c if lam is None else c * lam, swapped))
                    break
                lam, corr = rule
                stack.append((c * lam, swapped))
                for cs, cw in corr:
                    units = [(k, 1 if e > 0 else -1)
                             for k, e in cw for _ in range(abs(e))]
                    stack.append((c * cs, w[:i] + units + rest))
                break
        else:
            mono = [0] * pres.n_gens
            for g, s in w:
                mono[g] += s
            mono = tuple(mono)
            out[mono] = out[mono] + c if mono in out else c
    return {m: c for m, c in out.items() if not c.is_zero()}


def mono_units(mono):
    """Unit letters of a canonical monomial, in order."""
    return [(g, 1 if e > 0 else -1) for g, e in enumerate(mono)
            for _ in range(abs(e))]


def naive_element_product(x, y):
    """Reference Element product: the naive normal form of every term
    pair, with the right coefficient first moved left across the odd
    letters of the left monomial, rightmost letter first."""
    pres = x.pres
    out = pres.zero_elt()
    for m1, c1 in x.terms.items():
        for m2, c2 in y.terms.items():
            for g in reversed(range(pres.n_gens)):
                if m1[g] and g in pres.shifts:
                    c2 = pres.shifts[g](c2)
            terms = naive_normal_form(pres, mono_units(m1) + mono_units(m2),
                                      c1 * c2)
            out = out + Element(pres, terms)
    return out


def naive_product(a, b):
    """Reference TruncElement product: c1*c2*lam for every term pair and
    every term of its uncapped word product, summed with plain
    TruncLaurent ``*`` and ``+``; the trim discards what lies outside
    the window."""
    pres = a.pres
    one = pres.one
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            c2 = pres.cross_left(m1, c2)
            for mono, lam in pres.word_product(m1, m2):
                c = naive_times(one, c1, c2, lam)
                out[mono] = out[mono] + c if mono in out else c
    terms = {m: c for m, c in out.items() if not c.is_zero()}
    prec = min(a.prec + b.min_weight(), b.prec + a.min_weight(), INF)
    return TruncElement(a.ctx, Element(pres, terms), prec)


def naive_times(one, *factors):
    """Product of the factors by plain ``*``, leaving out those that are
    ``one``, which is exact; ``one`` when every factor is."""
    out = one
    for f in factors:
        if f is not one:
            out = f if out is one else out * f
    return out


def naive_power(te, n):
    """Reference TruncElement power by repeated naive multiplication."""
    if n < 0:
        return naive_power(te.ctx.invert_unit(te), -n)
    out = te.ctx.one_te()
    for _ in range(n):
        out = naive_product(out, te)
    return out


def naive_laurent_mul(a, b):
    """Reference TruncLaurent product: the whole convolution, handed to
    the normalizing constructor (which drops the slots past the cap,
    strips zeros and divides out the content)."""
    cap = min(a.cap + b.valuation(), b.cap + a.valuation())
    if a.is_zero() or b.is_zero():
        return TruncLaurent.zero(cap)
    nums = [0] * (len(a.nums) + len(b.nums) - 1)
    for i, x in enumerate(a.nums):
        for j, y in enumerate(b.nums):
            nums[i + j] += x * y
    return TruncLaurent(a.lead + b.lead, nums, a.den * b.den, cap)


def naive_laurent_add(a, b):
    """Reference TruncLaurent sum: both windows merged over the product
    of the denominators and handed to the normalizing constructor."""
    lead = min(a.lead, b.lead)
    den = a.den * b.den
    nums = [0] * (max(a.lead + len(a.nums), b.lead + len(b.nums)) - lead)
    for s in (a, b):
        for i, n in enumerate(s.nums, s.lead - lead):
            nums[i] += n * (den // s.den)
    return TruncLaurent(lead, nums, den, min(a.cap, b.cap))


def laurent_dump(s):
    """Every stored datum of a truncated Laurent series."""
    return s.lead, s.nums, s.den, s.cap


def trunc_dump(te):
    """Every stored datum of a truncated element: its window and, per
    monomial, the coefficient's numerators, denominator and cap."""
    return te.prec, {m: laurent_dump(c) for m, c in te.terms.items()}


def naive_ratfunc(num, den):
    """Reference reduction: one PRS gcd of the whole pair, divided out,
    then the sign rule; no shortcut by operand shape."""
    if not num.is_zero():
        g = poly_gcd(num, den)
        num, den = num.divexact(g), den.divexact(g)
    return RatFunc(num, den, reduce=False)


def naive_ratfunc_mul(a, b):
    """Reference RatFunc product: reduces the full product of the
    cleared polynomial pairs."""
    (an, ad), (bn, bd) = a.cleared(), b.cleared()
    return naive_ratfunc(an * bn, ad * bd)


def naive_ratfunc_add(a, b):
    """Reference RatFunc sum over the full product of the cleared
    denominators."""
    (an, ad), (bn, bd) = a.cleared(), b.cleared()
    return naive_ratfunc(an * bd + bn * ad, ad * bd)


def naive_divexact(f, g):
    """Reference exact quotient, the loop ``Pol.divexact`` used before it
    divided in place: each step adds a new Pol, a shifted and scaled
    copy of the divisor, to the remainder."""
    syms = f.syms
    if g.is_zero():
        raise DivisionByZero("polynomial division by zero")
    if g.is_one():
        return f
    z = syms.zero
    if g.is_const():
        k = g.const_value()
        t = {}
        for e, c in f.terms.items():
            q, r = divmod(c, k)
            if r:
                raise ArithmeticError("inexact constant division")
            t[e] = q
        return _pol(syms, t)
    if g.is_monomial():
        (dk, dc), = g.terms.items()
        s = dk - z
        t = {}
        for k, c in f.terms.items():
            q, r = divmod(c, dc)
            k -= s
            if r or k & z != z:
                raise ArithmeticError("inexact monomial division")
            t[k] = q
        syms.check(t)
        return _pol(syms, t)
    rem = f
    out = {}
    lk, lc = g.leading()
    while rem.terms:
        rk, rc = rem.leading()
        qk = rk - lk + z
        if qk & z != z:
            raise ArithmeticError("inexact division (monomial mismatch)")
        syms.check((qk,))
        qc, r = divmod(rc, lc)
        if r:
            raise ArithmeticError("inexact division (coefficient)")
        out[qk] = out.get(qk, 0) + qc
        rem = rem + g.shift(qk - z).mul_int(-qc)
    return _pol(syms, out)


def subst_power_blocks(n_max):
    """The closed-form sides of ``mside.power_block_identities`` built the
    substitution way: each map applied to the expanded F_n and G_n.  The
    maps are read from :mod:`glpq.mside` at call time, so a patched map
    reaches both routes."""
    from glpq import mside as ms
    from glpq.report import Identity
    ctx = ms.mside()
    tau = ctx.tau_rf
    sc = ctx.pres.scalar_elt
    m = ctx.M()
    for n in range(1, n_max + 1):
        if n > 1:
            m = m * ctx.M()
        f, g = ctx.f_closed(n), ctx.g_closed(n)
        sides = (
            ("A", m.a11, sc(ctx.x_rf ** n) - (ctx.mu * ctx.nu).smul(
                ms._shift_munu_inv_rf(f))),
            ("B", m.a12, ctx.mu.smul(ms._shift_mu_inv_rf(g))),
            ("C", m.a21, ctx.nu.smul(ms._shift_nu_inv_rf(tau(g)))),
            ("D", m.a22, sc(ctx.y_rf ** n) - (ctx.nu * ctx.mu).smul(
                ms._shift_munu_inv_rf(tau(f)))),
        )
        for block, lhs, rhs in sides:
            yield Identity(f"power.{block}.n={n}", "", lhs, rhs)


def naive_subst(f, mapping):
    """Reference substitution: one Pol per term, the constant times the
    powers of the mapped symbols, shifted and added to the running sum."""
    syms = f.syms
    out = Pol.const(syms, 0)
    for k, c in f.terms.items():
        e = syms.unpack(k)
        rest = list(e)
        term = Pol.const(syms, c)
        for i, ex in enumerate(e):
            name = syms.names[i]
            if ex and name in mapping:
                rest[i] = 0
                term = term * mapping[name] ** ex
        out = out + term.shift(syms.offset(rest))
    return out


# -- reference printer: one term at a time, each key unpacked and each
# coefficient a Fraction, with no table -----------------------------------


def naive_term_str(syms, exps, c, with_sign=False):
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


def naive_pol_str(p, den=1):
    """A polynomial over the positive int ``den``, highest key first."""
    if not p.terms:
        return "0"
    syms = p.syms
    return " ".join(naive_term_str(syms, syms.unpack(k),
                                   Fraction(p.terms[k], den), with_sign=i > 0)
                    for i, k in enumerate(sorted(p.terms, reverse=True)))


def _naive_plain_str(r):
    num, den = r.num, r.den
    if len(den.terms) == 1:
        return naive_pol_str(num, den.const_value())
    num, den = r.cleared()
    inv = f"({naive_pol_str(den)})^-1"
    if num.is_const() and abs(num.const_value()) == 1:
        return inv if num.const_value() > 0 else f"-{inv}"
    text = naive_pol_str(num)
    if len(num.terms) > 1:
        text = f"({text})"
    return f"{text}*{inv}"


_T = SymbolSet(("t",))


def naive_scalar_str(x):
    """Reference ``str`` of a RatFunc (E-parts included) or a
    TruncLaurent."""
    if isinstance(x, TruncLaurent):
        if not x.nums:
            return "0"
        terms = [(e, n) for e, n in enumerate(x.nums, x.lead) if n]
        return " ".join(naive_term_str(_T, (e,), Fraction(n, x.den),
                                       with_sign=i > 0)
                        for i, (e, n) in enumerate(terms))
    if not x.syms.laurent:
        return _naive_plain_str(x)
    out = []
    for mono, r in x._laurent_parts():
        rs = _naive_plain_str(r)
        es = "*".join(n if e == 1 else f"{n}^{e}" for n, e in mono)
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


def naive_print_element(e):
    """Reference ``print_element``: terms sorted by a key computed per
    term, each monomial and coefficient printed afresh."""
    pres = e.pres
    if not e.terms:
        return "0"

    def sort_key(m):
        odd = m[pres.n_even:]
        return sum(odd), tuple(-x for x in m[:pres.n_even]), odd

    out = []
    for i, m in enumerate(sorted(e.terms, key=sort_key)):
        coeff = e.terms[m]
        mono = "*".join(pres.gen_names[g] if x == 1 else
                        f"{pres.gen_names[g]}^{x}"
                        for g, x in enumerate(m) if x)
        s = naive_scalar_str(coeff)
        sign = "+"
        body = s
        if s.startswith("-"):
            sign = "-"
            body = s[1:] if " " not in s else naive_scalar_str(-coeff)
        if " " in body:
            body = f"({body})"
        term = (mono if body == "1" else f"{body}*{mono}") if mono else body
        if i == 0:
            out.append(term if sign == "+" else f"-{term}")
        else:
            out.append(f"{sign} {term}")
    return " ".join(out)


# -- reference parser: the token list of (kind, value, position) triples
# read through peek and take, every number a Fraction --------------------

_REF_SYMBOLS = "+-*^()[],"
_REF_DIGITS = "0123456789"


def naive_tokenize(text):
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _REF_DIGITS:
            j = i
            while j < n and text[j] in _REF_DIGITS:
                j += 1
            if j + 1 < n and text[j] == "/" and text[j + 1] in _REF_DIGITS:
                k = j + 1
                while k < n and text[k] in _REF_DIGITS:
                    k += 1
                den = int(text[j + 1:k])
                if den == 0:
                    raise DslSyntaxError("zero denominator in rational literal",
                                         i)
                out.append(("num", Fraction(int(text[i:j]), den), i))
                i = k
            else:
                out.append(("num", Fraction(int(text[i:j])), i))
                i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("ident", text[i:j], i))
            i = j
            continue
        if ch in _REF_SYMBOLS:
            out.append((ch, ch, i))
            i += 1
            continue
        raise DslSyntaxError(f"unexpected character {ch!r}", i)
    out.append(("end", None, n))
    return out


class _NaiveParser:
    def __init__(self, tokens, names):
        self.toks = tokens
        self.pos = 0
        self.names = names

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind=None):
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            raise DslSyntaxError(f"unexpected token {tok[1]!r}", tok[2],
                                 expected=(kind,))
        self.pos += 1
        return tok

    def parse_expr(self):
        if self.peek()[0] == "-":
            self.take()
            node = ("neg", self.parse_term())
        else:
            node = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.parse_term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.peek()[0] == "*":
            self.take()
            node = ("mul", node, self.parse_factor())
        return node

    def parse_factor(self):
        node = self.parse_atom()
        if self.peek()[0] == "^":
            self.take()
            sign = 1
            if self.peek()[0] == "-":
                self.take()
                sign = -1
            tok = self.take("num")
            if tok[1].denominator != 1:
                raise DslSyntaxError("exponent must be an integer", tok[2])
            n = sign * int(tok[1])
            if abs(n) > MAX_EXPONENT:
                raise DslSyntaxError(
                    f"exponent {n} exceeds the bound {MAX_EXPONENT}", tok[2])
            node = ("pow", node, n)
        return node

    def parse_atom(self):
        tok = self.peek()
        if tok[0] == "num":
            self.take()
            return ("num", tok[1])
        if tok[0] == "ident":
            self.take()
            if self.names is not None and tok[1] not in self.names:
                raise UnknownIdentifier(
                    f"{tok[1]!r} is not defined in this context")
            return ("sym", tok[1])
        if tok[0] == "(":
            self.take()
            node = self.parse_expr()
            self.take(")")
            return node
        if tok[0] == "[":
            self.take()
            a = self.parse_expr()
            self.take(",")
            b = self.parse_expr()
            self.take("]")
            return ("brk", a, b)
        raise DslSyntaxError(f"unexpected token {tok[1]!r}", tok[2],
                             expected=("ident", "num", "(", "["))


def naive_parse(text, names=None):
    """Reference parser; ``names`` is the set of defined identifiers, or
    None to accept any."""
    p = _NaiveParser(naive_tokenize(text), names)
    node = p.parse_expr()
    p.take("end")
    return node
