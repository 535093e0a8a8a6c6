"""Expression language for entering and printing algebra elements.

Grammar (binding tightest last):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' signed_int)?
    atom   := ident | rational | '(' expr ')' | '[' expr ',' expr ']'

Identifiers are resolved against the active context (the defining
algebra, the exponent algebra, or the truncated-series sector); the
bracket atom is the commutator.  Rational literals are INT or INT/INT,
with INT a run of ASCII digits 0-9; an INT of more digits than Python
converts to an int (``sys.get_int_max_str_digits``) is a syntax error.
A tree holds an INT literal as an ``int`` and an INT/INT one as a
``Fraction``.
An exponent whose absolute value exceeds :data:`MAX_EXPONENT` is a
syntax error: a power of a generator expands into one letter per unit
of exponent, so an unbounded exponent would mean unbounded work.  The
exponent bound does not bound the size of a power of a sum, so every
product the evaluation makes first checks that its term pairs (the
terms of one factor times those of the other) number at most
:data:`MAX_PRODUCT_PAIRS`, and raises
:class:`~glpq.errors.ProductTooLarge` otherwise.  That covers a ``*``,
both sides of a commutator, and inside a power each squaring, each
multiplication and each step of the series that inverts an exact unit
(a series-sector inversion is bounded by its weight window).
Parsing and evaluation recurse once per bracket level, so at most
:data:`MAX_NESTING` brackets may be open at once, and one more is a
syntax error at the bracket that opens it; a chain of ``+``, ``-`` and
``*`` is evaluated in a loop, so a flat expression of any length
recurses no deeper than its brackets.

A :class:`Context` keeps a table of the powers ``g^n`` of its named
bindings (generators and parameters), filled on use: the first ``g^n``
of an expression is computed and stored, and every later one, in this
or any later expression, returns the stored immutable value.  The
grammar bounds the table to ``len(bindings) * (2*MAX_EXPONENT + 1)``
entries.  Powers of literals and of parenthesised bases are not stored,
nor is a power whose evaluation raised.  The table is not synchronized:
share a context across threads only under a lock.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from operator import add, sub

from .errors import DslSyntaxError, ProductTooLarge, UnknownIdentifier
from .nc import commutator
from .printing import print_element

# largest |n| accepted in ``factor ^ n``; the paper's powers stay far below
MAX_EXPONENT = 64
# most brackets, round or square, open at any point of an expression:
# each level costs the parser three frames and evaluation a few more
MAX_NESTING = 100
# most term pairs one product may multiply while an expression is
# evaluated: (a + d + beta)^64 needs 9,216 in its largest product, and
# (a + d + a^-1 + d^-1 + beta + gamma)^16 needs 81,796 and is refused
MAX_PRODUCT_PAIRS = 16384

# -- tokens ------------------------------------------------------------------

_SYMBOLS = "+-*^()[],"
_DIGITS = "0123456789"      # str.isdigit also accepts digits int() rejects


def _int(text, i, j):
    """The int of the digit run ``text[i:j]``; a run of more digits than
    int() converts is a syntax error at ``i``."""
    try:
        return int(text[i:j])
    except ValueError:
        raise DslSyntaxError(
            f"integer literal of {j - i} digits exceeds the limit of "
            f"{sys.get_int_max_str_digits()} digits", i) from None


def tokenize(text):
    """Token kinds, values and positions of ``text`` as three lists that
    end in an ``end`` token.  A number's value is an int, or a Fraction
    for INT/INT."""
    kinds, values, where = [], [], []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in _SYMBOLS:
            kinds.append(ch)
            values.append(ch)
            where.append(i)
            i += 1
            continue
        if ch in _DIGITS:
            j = i + 1
            while j < n and text[j] in _DIGITS:
                j += 1
            if j + 1 < n and text[j] == "/" and text[j + 1] in _DIGITS:
                k = j + 2
                while k < n and text[k] in _DIGITS:
                    k += 1
                den = _int(text, j + 1, k)
                if den == 0:
                    raise DslSyntaxError("zero denominator in rational literal",
                                         i)
                value = Fraction(_int(text, i, j), den)
                j = k
            else:
                value = _int(text, i, j)
            kinds.append("num")
            values.append(value)
            where.append(i)
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            kinds.append("ident")
            values.append(text[i:j])
            where.append(i)
            i = j
            continue
        if ch.isspace():
            i += 1
            continue
        raise DslSyntaxError(f"unexpected character {ch!r}", i)
    kinds.append("end")
    values.append(None)
    where.append(n)
    return kinds, values, where


# -- parser -------------------------------------------------------------------


class _Parser:
    """Recursive descent over the token lists of :func:`tokenize`; each rule
    reads the kind at ``pos`` by index and advances past what it
    consumed."""

    def __init__(self, text, names):
        self.kinds, self.values, self.where = tokenize(text)
        self.pos = 0
        self.names = names
        self.depth = 0

    def error(self, expected):
        """The syntax error for the token at ``pos``."""
        value = self.values[self.pos]
        if self.kinds[self.pos] == "num":
            value = Fraction(value)     # shown as the rational it stands for
        return DslSyntaxError(f"unexpected token {value!r}",
                              self.where[self.pos], expected=expected)

    def expect(self, kind):
        if self.kinds[self.pos] != kind:
            raise self.error((kind,))
        self.pos += 1

    def parse_expr(self):
        kinds = self.kinds
        if kinds[self.pos] == "-":
            self.pos += 1
            node = ("neg", self.parse_term())
        else:
            node = self.parse_term()
        kind = kinds[self.pos]
        while kind == "+" or kind == "-":
            self.pos += 1
            node = ("add" if kind == "+" else "sub", node, self.parse_term())
            kind = kinds[self.pos]
        return node

    def parse_term(self):
        node = self.parse_factor()
        kinds = self.kinds
        while kinds[self.pos] == "*":
            self.pos += 1
            node = ("mul", node, self.parse_factor())
        return node

    def parse_factor(self):
        """An atom and its optional exponent."""
        pos = self.pos
        kind = self.kinds[pos]
        self.pos = pos + 1
        if kind == "ident":
            name = self.values[pos]
            if self.names is not None and name not in self.names:
                raise UnknownIdentifier(
                    f"{name!r} is not defined in this context")
            node = ("sym", name)
        elif kind == "num":
            node = ("num", self.values[pos])
        elif kind == "(" or kind == "[":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise DslSyntaxError(
                    f"brackets nested deeper than {MAX_NESTING}",
                    self.where[pos])
            node = self.parse_expr()
            if kind == "(":
                self.expect(")")
            else:
                self.expect(",")
                node = ("brk", node, self.parse_expr())
                self.expect("]")
            self.depth -= 1
        else:
            self.pos = pos
            raise self.error(("ident", "num", "(", "["))
        kinds = self.kinds
        pos = self.pos
        if kinds[pos] != "^":
            return node
        pos += 1
        sign = 1
        if kinds[pos] == "-":
            pos += 1
            sign = -1
        self.pos = pos
        if kinds[pos] != "num":
            raise self.error(("num",))
        self.pos = pos + 1
        value = self.values[pos]
        if value.denominator != 1:
            raise DslSyntaxError("exponent must be an integer", self.where[pos])
        n = sign * value.numerator
        if abs(n) > MAX_EXPONENT:
            raise DslSyntaxError(
                f"exponent {n} exceeds the bound {MAX_EXPONENT}",
                self.where[pos])
        return ("pow", node, n)


def parse(text, context=None):
    """Parse to an expression tree; identifiers checked when a context
    (or its name) is supplied."""
    names = None
    if context is not None:
        names = get_context(context).names if isinstance(context, str) \
            else context.names
    p = _Parser(text, names)
    node = p.parse_expr()
    p.expect("end")
    return node


# -- tree printing (round-trip stable) ------------------------------------------

_PREC = {"add": 1, "sub": 1, "neg": 1, "mul": 2, "pow": 3,
         "num": 4, "sym": 4, "brk": 4}


# chain kind -> (operator, least precedence of a bare left operand, the
# same for the right operand)
_INFIX = {"add": (" + ", 1, 2), "sub": (" - ", 1, 2), "mul": ("*", 2, 3)}


def print_tree(node):
    kind = node[0]
    if kind == "num":
        return str(node[1])
    if kind == "sym":
        return node[1]
    if kind == "brk":
        return f"[{print_tree(node[1])}, {print_tree(node[2])}]"
    if kind == "neg":
        return "-" + _child(node[1], 2)
    if kind in _INFIX:
        # a chain leans left: walk down the left operands that print bare
        # in a loop, as Context.eval does, so no Python recursion grows
        # with its length
        spine = [node]
        while (node[1][0] in _INFIX
               and _PREC[node[1][0]] >= _INFIX[node[0]][1]):
            node = node[1]
            spine.append(node)
        parts = [_child(node[1], _INFIX[node[0]][1])]
        for kind, _, right in reversed(spine):
            op, _, right_prec = _INFIX[kind]
            parts += (op, _child(right, right_prec))
        return "".join(parts)
    if kind == "pow":
        return _child(node[1], 4) + f"^{node[2]}"
    raise ValueError(f"unknown node {kind}")


def _child(node, min_prec):
    s = print_tree(node)
    if _PREC[node[0]] < min_prec:
        return f"({s})"
    return s


# -- evaluation contexts ----------------------------------------------------------


def _check_pairs(x, y):
    """Raise ProductTooLarge unless x*y has at most MAX_PRODUCT_PAIRS
    term pairs."""
    pairs = len(x.terms) * len(y.terms)
    if pairs > MAX_PRODUCT_PAIRS:
        raise ProductTooLarge(f"a product of {pairs} term pairs exceeds "
                              f"the bound {MAX_PRODUCT_PAIRS}")


def _mul(x, y):
    _check_pairs(x, y)
    return x * y


_CHAIN = {"add": add, "sub": sub, "mul": _mul}


class Context:
    """Named bindings, the constructor of numeric literals and the table
    of binding powers (see the module docstring)."""

    def __init__(self, name, bindings, const):
        self.name = name
        self.bindings = bindings
        self.names = frozenset(bindings)
        self.const = const
        self.powers = {}          # (name, n) -> bindings[name]**n

    def eval(self, node):
        kind = node[0]
        if kind == "num":
            return self.const(node[1])
        if kind == "sym":
            try:
                return self.bindings[node[1]]
            except KeyError:
                raise UnknownIdentifier(node[1]) from None
        if kind == "neg":
            return -self.eval(node[1])
        if kind in _CHAIN:
            # a chain a + b - c*d ... leans left: walk down its left side
            # in a loop, so no Python recursion grows with its length
            spine = []
            while node[0] in _CHAIN:
                spine.append(node)
                node = node[1]
            acc = self.eval(node)
            for kind, _, right in reversed(spine):
                acc = _CHAIN[kind](acc, self.eval(right))
            return acc
        if kind == "brk":
            x, y = self.eval(node[1]), self.eval(node[2])
            _check_pairs(x, y)
            return commutator(x, y)
        if kind == "pow":
            base, n = node[1], node[2]
            if base[0] != "sym":
                return self.eval(base).power(n, _mul)
            key = (base[1], n)
            hit = self.powers.get(key)
            if hit is None:
                hit = self.powers[key] = self.eval(base).power(n, _mul)
            return hit
        raise ValueError(f"unknown node {kind}")


@lru_cache(maxsize=8)
def _tside_context():
    from .tside import tside
    ctx = tside()
    bindings = {
        "a": ctx.a, "d": ctx.d, "beta": ctx.beta, "gamma": ctx.gamma,
        "p": ctx.pres.scalar_elt(ctx.p), "q": ctx.pres.scalar_elt(ctx.q),
    }
    return Context("tside", bindings,
                   lambda v: ctx.pres.scalar_elt(ctx.scalar(v)))


@lru_cache(maxsize=8)
def _mside_context():
    from .coeff import RatFunc
    from .mside import M_SYMS, mside
    ctx = mside()
    sc = ctx.pres.scalar_elt
    bindings = {
        "x": ctx.x, "y": ctx.y, "mu": ctx.mu, "nu": ctx.nu,
        "p": sc(ctx.p), "q": sc(ctx.q), "phi": sc(ctx.phi),
        "psi": sc(ctx.psi), "E1": sc(ctx.E1), "E2": sc(ctx.E2),
    }
    return Context("mside", bindings,
                   lambda v: sc(RatFunc.const(M_SYMS, v)))


@lru_cache(maxsize=8)
def _series_dsl_context(cfg=None):
    from .coeff import TruncLaurent
    from .series import SeriesConfig, series_context
    cfg = cfg or SeriesConfig()
    ctx = series_context(cfg)
    bindings = {
        "A": ctx.A, "D": ctx.D, "beta": ctx.beta, "gamma": ctx.gamma,
        "p": ctx.scalar_te(ctx.p), "q": ctx.scalar_te(ctx.q),
        "t": ctx.scalar_te(TruncLaurent.t_power(1, ctx.K)),
    }
    return Context("series", bindings, lambda v: ctx.scalar_te(ctx.tl(v)))


def get_context(name, series_cfg=None):
    if name == "tside":
        return _tside_context()
    if name == "mside":
        return _mside_context()
    if name == "series":
        return _series_dsl_context(series_cfg)
    raise ValueError(f"unknown context {name!r}")


def evaluate(text, context, series_cfg=None):
    ctx = get_context(context, series_cfg) if isinstance(context, str) \
        else context
    return ctx.eval(parse(text, ctx))


def print_canonical(element):
    """Canonical string form; reparses to an equal element."""
    return print_element(element)
