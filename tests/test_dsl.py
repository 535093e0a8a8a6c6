import random

import pytest

from glpq.dsl import (MAX_EXPONENT, evaluate, get_context, parse,
                      print_canonical, print_tree, tokenize)
from glpq.errors import DslSyntaxError, NotAUnit, UnknownIdentifier
from glpq.printing import print_element
from glpq.tside import tside

from helpers import random_element


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
