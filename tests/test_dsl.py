import hashlib
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glpq import dsl, nc
from glpq.dsl import (MAX_EXPONENT, MAX_NESTING, Context, evaluate,
                      get_context, parse, print_canonical, print_tree,
                      tokenize)
from glpq.errors import (DslSyntaxError, NotAUnit, ProductTooLarge,
                         UnknownIdentifier)
from glpq.nc import commutator
from glpq.printing import print_element
from glpq.tside import tside

from helpers import INT_MAX_STR_DIGITS, naive_parse, random_element


class TestParse:
    def test_product(self):
        assert parse("d*a") == ("mul", ("sym", "d"), ("sym", "a"))

    def test_precedence(self):
        tree = parse("a + d*beta^2")
        assert tree == ("add", ("sym", "a"),
                        ("mul", ("sym", "d"), ("pow", ("sym", "beta"), 2)))

    def test_signed_exponent_and_rational(self):
        assert parse("q^-1") == ("pow", ("sym", "q"), -1)
        assert parse("3/2") == ("num", __import__("fractions").Fraction(3, 2))

    def test_bracket(self):
        assert parse("[a, d]") == ("brk", ("sym", "a"), ("sym", "d"))

    def test_unary_minus(self):
        assert parse("-a + d") == ("add", ("neg", ("sym", "a")), ("sym", "d"))

    def test_syntax_error_position(self):
        with pytest.raises(DslSyntaxError) as err:
            parse("a + * d")
        assert err.value.pos == 4

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifier):
            parse("a * zz", "tside")

    def test_unbalanced(self):
        with pytest.raises(DslSyntaxError):
            parse("(a + d")


class TestEvaluate:
    def test_defining_relation_normalizes_to_zero(self):
        e = evaluate("[a,d] - (p - q^-1)*gamma*beta", "tside")
        assert e.is_zero()

    def test_odd_square(self):
        assert evaluate("beta^2", "tside").is_zero()

    def test_mside_brackets(self):
        assert evaluate("[x,y]", "mside").is_zero()
        assert print_canonical(evaluate("[x,mu]", "mside")) == "phi*mu"

    def test_psi_materialized(self):
        assert evaluate("phi + psi - 2", "mside").is_zero()

    def test_series_context(self):
        e = evaluate("beta*A - q^-1*A*beta", "series")
        # the residue is the correction term (q^-1 - 1)*beta
        got = print_canonical(e)
        assert "beta" in got and "A" not in got

    def test_negative_power_of_odd_fails_at_eval(self):
        tree = parse("beta^-1", "tside")      # parses fine
        with pytest.raises(NotAUnit):
            get_context("tside").eval(tree)


class TestRoundTrips:
    CORPUS = [
        "d*a", "a*d + (q - p^-1)*beta*gamma", "[a,d] - (p - q^-1)*gamma*beta",
        "beta^2", "(a + d)^3", "-a - d", "3/2*a*d^-2", "[a,[a,d]]",
        "p*q^-1*gamma*beta",
    ]

    def test_tree_roundtrip_on_corpus(self):
        for text in self.CORPUS:
            tree = parse(text)
            assert parse(print_tree(tree)) == tree

    def test_tree_roundtrip_random(self):
        rng = random.Random(14)
        names = ["a", "d", "beta", "gamma", "p", "q"]

        def rand_tree(depth):
            if depth == 0:
                if rng.random() < 0.4:
                    import fractions
                    return ("num", fractions.Fraction(rng.randint(1, 9),
                                                      rng.randint(1, 9)))
                return ("sym", rng.choice(names))
            kind = rng.choice(("add", "sub", "mul", "pow", "brk", "neg"))
            if kind == "pow":
                return ("pow", rand_tree(depth - 1), rng.randint(-3, 3))
            if kind == "neg":
                return ("neg", rand_tree(depth - 1))
            return (kind, rand_tree(depth - 1), rand_tree(depth - 1))

        for _ in range(300):
            tree = rand_tree(rng.randint(1, 3))
            assert parse(print_tree(tree)) == tree

    @pytest.mark.parametrize("text", [
        "*".join(["p"] * 1500),
        " + ".join(["p"] * 1500),
        "a" + " - a*p" * 1500,
        "(a + d)" + "*(a - p)^2" * 1500,
    ], ids=["product", "sum", "difference", "bracketed"])
    def test_long_chain_prints_in_a_loop(self, text):
        # a left-deep chain of 1,500 operands prints without a Python
        # frame per operand, as it parses and evaluates (the trees are
        # too deep for tuple equality, so the text is compared)
        assert print_tree(parse(text)) == text

    def test_element_print_parse_fixpoint(self):
        ctx = get_context("tside")
        rng = random.Random(15)
        for _ in range(40):
            e = random_element(rng, n_terms=3, max_len=5)
            printed = print_canonical(e)
            again = ctx.eval(parse(printed, ctx))
            assert again == e
            assert print_canonical(again) == printed

    def test_zero_prints_as_zero(self):
        assert print_canonical(tside().pres.zero_elt()) == "0"
        ctx = get_context("tside")
        assert ctx.eval(parse("0")).is_zero()


def test_tokenizer_rejects_garbage():
    with pytest.raises(DslSyntaxError):
        tokenize("a ? d")


def test_exponent_bound():
    assert parse(f"a^{MAX_EXPONENT}") == ("pow", ("sym", "a"), MAX_EXPONENT)
    for text in (f"a^{MAX_EXPONENT + 1}", f"(a + d)^-{MAX_EXPONENT + 1}"):
        with pytest.raises(DslSyntaxError, match="exceeds the bound"):
            parse(text)


@pytest.mark.parametrize("opening, closing", [("(", ")"), ("[a, ", "]")])
def test_nesting_bound(opening, closing):
    # MAX_NESTING levels parse; one more is a syntax error at the bracket
    # that opens it
    n = MAX_NESTING
    assert parse(opening * n + "a" + closing * n) is not None
    text = opening * (n + 1) + "a" + closing * (n + 1)
    with pytest.raises(DslSyntaxError, match="nested deeper than") as info:
        parse(text)
    assert info.value.pos == n * len(opening)


def test_nesting_at_the_bound_evaluates():
    # the deepest admitted nesting, a negation, sum, product, power and
    # commutator in every two levels, runs under a lowered recursion
    # limit
    text = "a"
    for _ in range(MAX_NESTING // 2):
        text = f"-(d + d*[a, {text}]^2)"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(700)
    try:
        evaluate(text, "tside")
    finally:
        sys.setrecursionlimit(limit)


# Printed canonical forms with general and monomial denominators, as the
# plain gcd reduction of every full product printed them.  Any route
# that reduces a rational function has to land on these strings.  A
# numerator of 1 or -1 over several denominator terms prints as the
# bare inverse, (den)^-1 or -(den)^-1.
GOLDEN = [
    ("tside", "(p*q - 1)*(p - q^-1)^-1", "q"),
    ("tside", "(p*q - 1)*(p - q^-1)^-1*a", "q*a"),
    ("tside", "(p + q)*(p*q - 1)^-1*beta*gamma",
     "((p + q)*(p*q - 1)^-1)*beta*gamma"),
    ("tside", "(p - q^-1)^-1*a + (p*q - 1)^-2*d",
     "(q*(p*q - 1)^-1)*a + ((p^2*q^2 - 2*p*q + 1)^-1)*d"),
    ("tside", "(p^2 - q^-2)*(p - q^-1)^-1*d", "(p + q^-1)*d"),
    ("tside", "(2*p + 4)*(6*p*q - 6)^-1*a", "((p + 2)*(3*p*q - 3)^-1)*a"),
    ("tside", "3/2*p^-2*q*a + (q^-1 - 1/3)*d^-1",
     "3/2*p^-2*q*a - (1/3 - q^-1)*d^-1"),
    ("tside", "(p^-1 - q)*(p^2*q)^-1*a*d", "-(p^-2 - p^-3*q^-1)*a*d"),
    ("tside", "(p*q - 1)^-1*(p - q^-1)*q^-1*gamma - 2*p^-1*q^-3*a^-1",
     "-2*p^-1*q^-3*a^-1 + q^-2*gamma"),
    ("mside", "(x - y + phi)^-1*mu", "((phi + x - y)^-1)*mu"),
    ("mside", "(x^2 - y^2 + 2*phi)*(x - y + phi)^-1*mu*nu",
     "((x^2 - y^2 + 2*phi)*(phi + x - y)^-1)*mu*nu"),
    ("mside", "[x,mu]*(x - y + phi)^-1 + (x - y - psi)^-1*nu",
     "((phi + x - y - 2)^-1)*nu + (phi*(phi + x - y)^-1)*mu"),
    ("mside", "(x^2 - 1)*(2*x - 2)^-1*E1^-1", "((1/2*x + 1/2)*E1^-1)"),
    # a monomial factor next to a denominator with several terms: the
    # printer multiplies it back into the denominator
    ("tside", "q^-1*(p - q)^-1*a", "((p*q - q^2)^-1)*a"),
    ("mside", "phi^-1*(x - y)^-1*mu", "((phi*x - phi*y)^-1)*mu"),
    ("mside", "(x - y + phi)^-1*p^-1*x*nu", "(x*(p*phi + p*x - p*y)^-1)*nu"),
]


@pytest.mark.parametrize("ctx, text, printed", GOLDEN)
def test_golden_printed_forms(ctx, text, printed):
    assert print_element(evaluate(text, ctx)) == printed


# Scalars that are 1 or -1 over a denominator with several terms, bare
# and next to other terms, in both exact contexts.
UNIT_NUMERATORS = [
    ("tside", "(p*q - 1)^-1"),
    ("tside", "-(p*q - 1)^-1*a"),
    ("tside", "(p + q)^-1*a - (p*q - 1)^-2*beta*gamma + d"),
    ("mside", "-(x - y + phi)^-1*mu + (x + 1)^-1*nu"),
    ("mside", "(x - y + phi)^-1*E1 - (x + 1)^-1*E2^-1*mu"),
]


@pytest.mark.parametrize("ctx, text", UNIT_NUMERATORS)
def test_unit_numerator_prints_bare_inverse(ctx, text):
    element = evaluate(text, ctx)
    printed = print_element(element)
    assert "1*(" not in printed
    assert evaluate(printed, ctx) == element


# -- the table of binding powers ------------------------------------------------


def fresh_context(name):
    """A context over the shared bindings with its own, empty power table;
    the contexts of get_context are cached and shared by every test."""
    shared = get_context(name)
    return Context(name, shared.bindings, shared.const)


def plain_eval(ctx, node):
    """Naive reference evaluator: no power table and no work bound."""
    kind = node[0]
    if kind == "num":
        return ctx.const(node[1])
    if kind == "sym":
        return ctx.bindings[node[1]]
    if kind == "neg":
        return -plain_eval(ctx, node[1])
    if kind == "pow":
        return plain_eval(ctx, node[1]) ** node[2]
    x, y = plain_eval(ctx, node[1]), plain_eval(ctx, node[2])
    if kind == "add":
        return x + y
    if kind == "sub":
        return x - y
    if kind == "mul":
        return x * y
    return commutator(x, y)


def same_value(x, y):
    """Equal stored data: the terms, and the window of a series value."""
    return (x.pres is y.pres and x.terms == y.terms
            and getattr(x, "prec", None) == getattr(y, "prec", None))


# generators and parameters of each context: (invertible, not invertible)
POWER_NAMES = {
    "tside": (("a", "d", "p", "q"), ("beta", "gamma")),
    "mside": (("x", "y", "p", "q", "phi", "E1"), ("mu", "nu")),
    "series": (("p", "q", "t"), ("A", "D", "beta", "gamma")),
}


def power_queries(rng, ctx, n):
    """Seeded queries that repeat binding powers, negative ones on
    invertible bindings only, so that every query evaluates."""
    units, others = POWER_NAMES[ctx]

    def atom():
        r = rng.random()
        if r < 0.55:
            return f"{rng.choice(units)}^{rng.choice((-3, -2, -1, 2, 3))}"
        if r < 0.8:
            return f"{rng.choice(others)}^{rng.randint(1, 3)}"
        return rng.choice(("2", "1/3") + units + others)

    def word():
        return "*".join(atom() for _ in range(rng.randint(1, 3)))

    def total():
        out = word()
        for _ in range(rng.randint(0, 2)):
            out += rng.choice((" + ", " - ")) + word()
        return out

    queries = []
    for _ in range(n):
        r = rng.random()
        if r < 0.2:
            queries.append(f"[{total()}, {word()}]")
        elif r < 0.35:
            queries.append(f"({total()})^2*{word()}")
        else:
            queries.append(total())
    return queries


def sym_powers(node):
    """(name, n) of every binding power in a tree."""
    if node[0] == "pow" and node[1][0] == "sym":
        yield node[1][1], node[2]
    for child in node[1:]:
        if isinstance(child, tuple):
            yield from sym_powers(child)


class TestPowerTable:
    @pytest.mark.parametrize("name, seed, n", [
        ("tside", 21, 300), ("mside", 22, 200), ("series", 23, 80)])
    def test_stream_matches_a_table_free_evaluation(self, name, seed, n):
        ctx = fresh_context(name)
        for text in power_queries(random.Random(seed), name, n):
            tree = parse(text, ctx)
            got, ref = ctx.eval(tree), plain_eval(ctx, tree)
            assert print_canonical(got) == print_canonical(ref), text
            assert same_value(got, ref), text
        assert ctx.powers
        # no stored value was changed by the products it took part in
        for (g, k), value in ctx.powers.items():
            assert same_value(value, ctx.bindings[g] ** k), (g, k)

    def test_each_negative_power_is_inverted_once(self, monkeypatch):
        ctx = fresh_context("tside")
        calls = []
        plain = nc.invert_even_unit

        def counting(u, *args):
            calls.append(u)
            return plain(u, *args)

        monkeypatch.setattr(nc, "invert_even_unit", counting)
        negative = set()
        for text in power_queries(random.Random(24), "tside", 300):
            tree = parse(text, ctx)
            negative.update((g, k) for g, k in sym_powers(tree) if k < 0)
            ctx.eval(tree)
        assert len(negative) > 4
        assert len(calls) == len(negative)

    @pytest.mark.parametrize("name", ["tside", "mside", "series"])
    def test_table_stays_within_its_bound(self, name):
        ctx = fresh_context(name)
        assert ctx.powers == {}
        bound = len(ctx.bindings) * (2 * MAX_EXPONENT + 1)
        for _ in range(2):
            for g in ctx.bindings:
                for k in range(-MAX_EXPONENT, MAX_EXPONENT + 1):
                    try:
                        ctx.eval(parse(f"{g}^{k}", ctx))
                    except NotAUnit:
                        pass
                    assert len(ctx.powers) <= bound
        assert all(g in ctx.bindings and abs(k) <= MAX_EXPONENT
                   for g, k in ctx.powers)

    def test_literal_and_parenthesised_bases_are_not_stored(self):
        ctx = fresh_context("tside")
        for text in ("2^3", "(a)^2", "(a + d)^2", "(a^2)^-1", "3/2^-1"):
            ctx.eval(parse(text, ctx))
        assert set(ctx.powers) == {("a", 2)}

    @pytest.mark.parametrize("name, text", [
        ("tside", "beta^-1"), ("tside", "gamma^-2"), ("mside", "mu^-1"),
        ("series", "A^-1")])
    def test_failed_power_is_not_stored(self, name, text):
        ctx = fresh_context(name)
        tree = parse(text, ctx)
        messages = set()
        for _ in range(3):
            with pytest.raises(NotAUnit) as info:
                ctx.eval(tree)
            messages.add(str(info.value))
        assert len(messages) == 1
        assert ctx.powers == {}


# -- the work bound on products ---------------------------------------------------

SIX_TERMS = "(a + d + a^-1 + d^-1 + beta + gamma)"


class TestProductBound:
    def test_largest_admitted_power_prints_unchanged(self):
        # 9,216 term pairs in its largest product
        printed = print_canonical(evaluate("(a + d + beta)^64", "tside"))
        assert len(printed) == 204054
        assert hashlib.sha256(printed.encode()).hexdigest() == \
            "cdfc11890d12492301f334275e1c019ce853f163fa1dfc408ecade09a5a8b264"

    @pytest.mark.parametrize("n", [16, 32, MAX_EXPONENT])
    def test_squaring_inside_a_power_is_checked(self, n):
        # one pow node and no '*' node: the refused product is a squaring
        with pytest.raises(ProductTooLarge, match="81796 term pairs"):
            evaluate(f"{SIX_TERMS}^{n}", "tside")

    @pytest.mark.parametrize("text", [f"{SIX_TERMS}^8*{SIX_TERMS}^8",
                                      f"[{SIX_TERMS}^8, {SIX_TERMS}^8]"])
    def test_product_and_commutator_are_checked(self, text):
        with pytest.raises(ProductTooLarge, match="81796 term pairs"):
            evaluate(text, "tside")

    def test_products_of_the_inversion_series_are_checked(self):
        # the correction series of a unit with a non-nilpotent tail runs
        # up to eight products, which grow with every step
        with pytest.raises(ProductTooLarge):
            evaluate(f"({SIX_TERMS}^4)^-1", "tside")

    def test_every_product_kind_meets_the_bound(self, monkeypatch):
        monkeypatch.setattr(dsl, "MAX_PRODUCT_PAIRS", 3)
        ctx = fresh_context("tside")
        for text in ("(a + d)^2", "(a + d)*(a + d)", "[a + d, a + d]",
                     "(a + beta)^-2"):
            with pytest.raises(ProductTooLarge, match="4 term pairs"):
                ctx.eval(parse(text, ctx))
        # a power of a single term pairs one term per product
        assert print_canonical(ctx.eval(parse("a^64*d^-64", ctx))) == \
            "a^64*d^-64"
        with pytest.raises(ProductTooLarge):
            evaluate("(A + D)^2", fresh_context("series"))
        # the powers the table stores are checked as well, and a refused
        # one is not stored
        monkeypatch.setattr(dsl, "MAX_PRODUCT_PAIRS", 0)
        ctx = fresh_context("tside")
        with pytest.raises(ProductTooLarge, match="1 term pairs"):
            ctx.eval(parse("a^2", ctx))
        assert ctx.powers == {}


# -- golden digests of seeded streams ------------------------------------------

# Per context: atoms, and scalars that prefix a word.  The scalars cover
# signed and fractional literals, constant and non-constant denominators,
# E-parts in the exponent algebra, and negative t powers in the series
# sector, so that answers print coefficients with negative leads.
STREAM_VOCAB = {
    "tside": (("a", "d", "beta", "gamma", "a^2", "a^-1", "d^3", "d^-2"),
              ("2", "3/2", "12345678901234567890", "p", "q^-1",
               "(p - q^-1)", "(p*q - 1)^-1", "(p + q)^-1*p",
               "(2*p + 4)*(6*p*q - 6)^-1", "(-7/3*q^2)")),
    "mside": (("x", "y", "mu", "nu", "x^2", "E1^-1", "E2^2"),
              ("E1^-1", "E2^-2", "(E1 + x*E2)", "(x - y + phi)^-1",
               "(x - y + phi)^-1*mu", "(x + 1)^-1*E1", "psi", "p^-1",
               "(x - y)", "3/2")),
    "series": (("A", "D", "beta", "gamma", "A^2", "D^2"),
               ("t^-1", "t^-2", "(1 + t)^-1", "(t + t^2)^-1", "1/2",
                "q^-1", "p", "t", "(q - p^-1)", "(-5/4*t^-3)")),
}


def golden_stream(name, seed, n):
    """Seeded expressions over the context's vocabulary: sums of words,
    leading minus signs, commutators and squares of sums."""
    rng = random.Random(seed)
    atoms, scalars = STREAM_VOCAB[name]

    def word():
        out = "*".join(rng.choice(atoms) for _ in range(rng.randint(1, 3)))
        return f"{rng.choice(scalars)}*{out}" if rng.random() < 0.6 else out

    def total(k):
        out = ("-" if rng.random() < 0.2 else "") + word()
        for _ in range(rng.randint(0, k)):
            out += rng.choice((" + ", " - ")) + word()
        return out

    queries = []
    for _ in range(n):
        r = rng.random()
        if r < 0.2:
            queries.append(f"[{total(1)}, {word()}]")
        elif r < 0.3:
            queries.append(f"({total(1)})^2")
        else:
            queries.append(total(2))
    return queries


def tree_data(node):
    """A parse tree with each number literal as its (numerator,
    denominator) pair, so that equal literals give equal data whatever
    their number type."""
    if node[0] == "num":
        return ("num", node[1].numerator, node[1].denominator)
    return tuple(tree_data(c) if isinstance(c, tuple) else c for c in node)


def sha(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestGoldenStreams:
    # sha256 of the printed answers and of the parse trees of each stream;
    # a change to the lexer, the parser, the product or the printer has to
    # keep every answer and every tree
    @pytest.mark.parametrize("name, seed, n, answers, trees", [
        ("tside", 31, 300,
         "38ad690a2ad21e9e5457dbbae90236ff8c35ae28c5117f56c5d1cd1cdbb7d520",
         "ab8dbadd345f6bdbd1f951299912c71ebf2021d7cc4133c40fe9d5ba59715b5f"),
        ("mside", 32, 200,
         "26e1995fab2528c2ad9c9861141f26a17fe14c7a2eb905d1eab97c71ea5bbf81",
         "bc274c6c669821ed0594adf95bd71ebca982d79c5ab852755828ad52d8f83092"),
        ("series", 33, 80,
         "84b7c469ea52a44adc17f7d7460d9f22f4eda2d3b1c2e688b8335540ca6f94e6",
         "4e45f096fdafcc187ca12dbb48003629514a4386fb920bba92ddb7e3e2a7158b"),
    ])
    def test_stream_digests(self, name, seed, n, answers, trees):
        ctx = get_context(name)
        queries = golden_stream(name, seed, n)
        parsed = [parse(text, ctx) for text in queries]
        printed = [print_canonical(ctx.eval(tree)) for tree in parsed]
        assert sha(printed) == answers
        assert sha(repr(tree_data(tree)) for tree in parsed) == trees


# Malformed inputs with the message and position each is rejected at.
# Characters are rejected before any token is parsed, and a number token
# shows as the Fraction it stands for.
MALFORMED = [
    ("a 2", "unexpected token Fraction(2, 1) at position 2 (expected end)",
     2),
    ("2 3", "unexpected token Fraction(3, 1) at position 2 (expected end)",
     2),
    ("a^3/2", "exponent must be an integer at position 2", 2),
    ("1/0", "zero denominator in rational literal at position 0", 0),
    ("a^1/00", "zero denominator in rational literal at position 2", 2),
    ("(a + d", "unexpected token None at position 6 (expected ))", 6),
    ("a^65", "exponent 65 exceeds the bound 64 at position 2", 2),
    ("a^-65", "exponent -65 exceeds the bound 64 at position 3", 3),
    ("2/3/4", "unexpected character '/' at position 3", 3),
    ("a + * d", "unexpected token '*' at position 4 "
     "(expected ident, num, (, [)", 4),
    ("", "unexpected token None at position 0 (expected ident, num, (, [)",
     0),
    ("a^", "unexpected token None at position 2 (expected num)", 2),
    ("a^-", "unexpected token None at position 3 (expected num)", 3),
    ("a^b", "unexpected token 'b' at position 2 (expected num)", 2),
    ("[a, d", "unexpected token None at position 5 (expected ])", 5),
    ("[a d]", "unexpected token 'd' at position 3 (expected ,)", 3),
    ("a)", "unexpected token ')' at position 1 (expected end)", 1),
    ("a^2^3", "unexpected token '^' at position 3 (expected end)", 3),
    ("--a", "unexpected token '-' at position 1 "
     "(expected ident, num, (, [)", 1),
    ("[a,]", "unexpected token ']' at position 3 "
     "(expected ident, num, (, [)", 3),
    ("a^(2)", "unexpected token '(' at position 2 (expected num)", 2),
    ("0x1", "unexpected token 'x1' at position 1 (expected end)", 1),
    ("a ? d", "unexpected character '?' at position 2", 2),
    ("a + * d ?", "unexpected character '?' at position 8", 8),
    ("\u00b2", "unexpected character '\u00b2' at position 0", 0),
]


@pytest.mark.parametrize("text, message, pos", MALFORMED)
def test_malformed_input_message(text, message, pos):
    with pytest.raises(DslSyntaxError) as info:
        parse(text)
    assert str(info.value) == message
    assert info.value.pos == pos


def parse_outcome(parse_fn, *args):
    """The tree data of a parse, or the kind, message, position and
    expected kinds of its error."""
    try:
        return "tree", tree_data(parse_fn(*args))
    except DslSyntaxError as exc:
        return "syntax", str(exc), exc.pos, exc.expected
    except UnknownIdentifier as exc:
        return "unknown", str(exc)


def same_parse(text, name=None):
    """parse and the reference parser agree on ``text``, with the names
    of the context ``name`` or with any name; returns the outcome."""
    got = parse_outcome(parse, text, name)
    names = None if name is None else get_context(name).names
    assert got == parse_outcome(naive_parse, text, names), text
    return got


class TestAgainstTheReferenceParser:
    @pytest.mark.parametrize("text", [row[0] for row in MALFORMED])
    def test_malformed_table(self, text):
        assert same_parse(text)[0] == "syntax"

    def test_golden_streams(self):
        for name, seed, n in (("tside", 31, 300), ("mside", 32, 200),
                              ("series", 33, 80)):
            for text in golden_stream(name, seed, n):
                assert same_parse(text, name)[0] == "tree"

    @settings(max_examples=600, deadline=None)
    @given(st.lists(st.sampled_from(
        ["a", "d", "beta", "zz", "_x1", "2", "3/2", "1/0", "07", "65", "4/2",
         "+", "-", "*", "^", "(", ")", "[", "]", ",", " ", "/", "?", "\u00b2",
         "\u00e9", "\t"]), max_size=14))
    def test_token_soup(self, parts):
        text = "".join(parts)
        same_parse(text)
        same_parse(text, "tside")

    def test_literal_types(self):
        assert parse("2*a^3") == ("mul", ("num", 2), ("pow", ("sym", "a"), 3))
        assert type(parse("2")[1]) is int
        assert type(parse("4/2")[1]) is Fraction
        assert parse("a^4/2") == ("pow", ("sym", "a"), 2)


@pytest.mark.skipif(INT_MAX_STR_DIGITS is None,
                    reason="int() has no digit limit here")
class TestLongIntegerLiterals:
    LIMIT = INT_MAX_STR_DIGITS

    @pytest.mark.parametrize("template, pos", [
        ("{}*a", 0), ("a + 1/{}", 6), ("a + {}/3", 4), ("a^{}", 2)])
    def test_rejected_with_position(self, template, pos):
        text = template.format("7" * (self.LIMIT + 1))
        with pytest.raises(DslSyntaxError) as info:
            parse(text)
        assert info.value.pos == pos
        assert str(info.value) == (
            f"integer literal of {self.LIMIT + 1} digits exceeds the limit "
            f"of {self.LIMIT} digits at position {pos}")

    def test_longest_literal_is_accepted(self):
        digits = "7" * self.LIMIT
        assert parse(f"{digits}*a") == ("mul", ("num", int(digits)),
                                        ("sym", "a"))
