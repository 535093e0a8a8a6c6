"""Expression language for entering and printing algebra elements.

Grammar (binding tightest last):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' signed_int)?
    atom   := ident | rational | '(' expr ')' | '[' expr ',' expr ']'

Identifiers are resolved against the active context (the defining
algebra, the exponent algebra, or the truncated-series sector); the
bracket atom is the commutator.  Rational literals are INT or INT/INT,
with INT a run of ASCII digits 0-9.
An exponent whose absolute value exceeds :data:`MAX_EXPONENT` is a
syntax error: a power of a generator expands into one letter per unit
of exponent, so an unbounded exponent would mean unbounded work.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import DslSyntaxError, UnknownIdentifier
from .printing import print_element

# largest |n| accepted in ``factor ^ n``; the paper's powers stay far below
MAX_EXPONENT = 64

# -- tokens ------------------------------------------------------------------

_SYMBOLS = "+-*^()[],"
_DIGITS = "0123456789"      # str.isdigit also accepts digits int() rejects


def tokenize(text):
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            if j + 1 < n and text[j] == "/" and text[j + 1] in _DIGITS:
                k = j + 1
                while k < n and text[k] in _DIGITS:
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
        if ch in _SYMBOLS:
            out.append((ch, ch, i))
            i += 1
            continue
        raise DslSyntaxError(f"unexpected character {ch!r}", i)
    out.append(("end", None, n))
    return out


# -- parser -------------------------------------------------------------------


class _Parser:
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


def parse(text, context=None):
    """Parse to an expression tree; identifiers checked when a context
    (or its name) is supplied."""
    names = None
    if context is not None:
        names = get_context(context).names if isinstance(context, str) \
            else context.names
    p = _Parser(tokenize(text), names)
    node = p.parse_expr()
    p.take("end")
    return node


# -- tree printing (round-trip stable) ------------------------------------------

_PREC = {"add": 1, "sub": 1, "neg": 1, "mul": 2, "pow": 3,
         "num": 4, "sym": 4, "brk": 4}


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
    if kind in ("add", "sub"):
        op = " + " if kind == "add" else " - "
        return _child(node[1], 1) + op + _child(node[2], 2)
    if kind == "mul":
        return _child(node[1], 2) + "*" + _child(node[2], 3)
    if kind == "pow":
        return _child(node[1], 4) + f"^{node[2]}"
    raise ValueError(f"unknown node {kind}")


def _child(node, min_prec):
    s = print_tree(node)
    if _PREC[node[0]] < min_prec:
        return f"({s})"
    return s


# -- evaluation contexts ----------------------------------------------------------


class Context:
    """Named bindings plus the constructor of numeric literals."""

    def __init__(self, name, bindings, const):
        self.name = name
        self.bindings = bindings
        self.names = frozenset(bindings)
        self.const = const

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
        if kind == "add":
            return self.eval(node[1]) + self.eval(node[2])
        if kind == "sub":
            return self.eval(node[1]) - self.eval(node[2])
        if kind == "mul":
            return self.eval(node[1]) * self.eval(node[2])
        if kind == "brk":
            a, b = self.eval(node[1]), self.eval(node[2])
            return a * b - b * a
        if kind == "pow":
            return self.eval(node[1]) ** node[2]
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
    from .mside import MCoefficient, mside
    ctx = mside()
    bindings = {
        "x": ctx.x, "y": ctx.y, "mu": ctx.mu, "nu": ctx.nu,
        "p": ctx.scalar(ctx.p), "q": ctx.scalar(ctx.q),
        "phi": ctx.scalar(ctx.phi), "psi": ctx.scalar(ctx.psi),
        "E1": ctx.scalar(ctx.E1), "E2": ctx.scalar(ctx.E2),
    }
    return Context("mside", bindings,
                   lambda v: ctx.pres.scalar_elt(MCoefficient.const(v)))


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
