import hashlib
import json
import os
import subprocess
import sys

import pytest

import glpq
from glpq import series, tside
from glpq.cli import main
from glpq.dsl import Context, get_context, parse
from glpq.mside import mside
from glpq.report import Identity, run_exact

from helpers import INT_MAX_STR_DIGITS


class TestNormalizeCommand:
    def test_tside(self, capsys):
        assert main(["normalize", "--ctx", "tside", "d*a"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "a*d + (q - p^-1)*beta*gamma"

    def test_commutator(self, capsys):
        assert main(["normalize", "--ctx", "tside", "[a,d]"]) == 0
        out = capsys.readouterr().out.strip()
        tree = parse(out, "tside")
        ctx = get_context("tside")
        direct = ctx.eval(parse("a*d - d*a", ctx))
        assert ctx.eval(tree) == direct

    def test_mside_zero(self, capsys):
        assert main(["normalize", "--ctx", "mside", "[x,y]"]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_syntax_error_exit_code(self, capsys):
        assert main(["normalize", "--ctx", "tside", "a + * d"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_identifier_exit_code(self):
        assert main(["normalize", "--ctx", "tside", "zz*a"]) == 2

    @pytest.mark.parametrize("expr", ["(E1 + E2)^-1", "(x*E1 + E2)^-1*mu"])
    def test_sum_of_exponentials_is_not_a_unit(self, expr, capsys):
        assert main(["normalize", "--ctx", "mside", expr]) == 1
        assert "only single exponential terms are invertible" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("ctx, expr", [
        ("tside", "beta^-1"), ("tside", "gamma^-2"), ("mside", "mu^-1"),
        ("series", "A^-1")])
    def test_non_invertible_power_exit_code_repeats(self, ctx, expr, capsys):
        errors = set()
        for _ in range(2):
            assert main(["normalize", "--ctx", ctx, expr]) == 1
            errors.add(capsys.readouterr().err)
        assert len(errors) == 1 and "error:" in errors.pop()
        tree = parse(expr, ctx)
        assert (tree[1][1], tree[2]) not in get_context(ctx).powers

    def test_product_over_the_work_bound_is_a_usage_error(self, capsys):
        expr = "(a + d + a^-1 + d^-1 + beta + gamma)^32"
        assert main(["normalize", expr]) == 2
        assert "exceeds the bound" in capsys.readouterr().err

    def test_zero_denominator_exit_code(self, capsys):
        assert main(["normalize", "1/0"]) == 2
        assert "error: zero denominator" in capsys.readouterr().err

    def test_huge_exponent_rejected_at_parse_time(self, capsys, monkeypatch):
        # a^100000000 would expand into 10^8 letters if it reached the engine
        def no_eval(*args):
            raise AssertionError("the expression was evaluated")
        monkeypatch.setattr(Context, "eval", no_eval)
        assert main(["normalize", "a^100000000"]) == 2
        assert "exceeds the bound" in capsys.readouterr().err

    @pytest.mark.parametrize("expr, printed", [
        ("(((a^64)^64)^64)", "a^262144"),
        ("((((((a^64)^64)^64)^64)^64)^64)", "a^68719476736"),
    ])
    def test_nested_generator_powers_finish(self, expr, printed):
        # square-and-multiply meets only canonical concatenations here, so
        # no word of 64^k letters is ever rewritten
        proc = _normalize_in_child(expr)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == printed

    @pytest.mark.parametrize("expr, printed", [
        ("(d^64)^4*a", "a*d^256 + (q - p^-256*q^-255)*d^255*beta*gamma"),
        ("(d^64)^16*a", None),
        ("(d^-64)^16*a^-1", None),
        ("a^-6*d^-2*a^-1",
         "a^-7*d^-2 + (p^3*q^4 - p*q^2)*a^-8*d^-3*beta*gamma"),
    ])
    def test_deep_letter_steps_finish(self, expr, printed):
        # one letter crosses 256 or 1,024 copies of d: the prefix chain
        # of that step is walked in a loop, not by recursion; the last
        # word ends only because the odd mask drops dead branches
        proc = _normalize_in_child(expr)
        assert proc.returncode == 0, proc.stderr
        assert "RecursionError" not in proc.stderr
        if printed is not None:
            assert proc.stdout.strip() == printed

    @pytest.mark.parametrize("expr", ["a^\u00b2", "\u0663*a", "1/\u0663"])
    def test_non_ascii_digits_are_syntax_errors(self, expr, capsys):
        # str.isdigit accepts these, int() does not
        assert main(["normalize", "--ctx", "tside", expr]) == 2
        assert "error: unexpected character" in capsys.readouterr().err

    def test_series_negative_valuations(self, capsys):
        # operand valuations -3 and -1 widen the word-product cap by 4;
        # without that slack the printed coefficients change
        expr = "(t^-3*D + beta)*(t^-1*A + gamma)*(A+D)"
        assert main(["normalize", "--ctx", "series", expr]) == 0
        assert capsys.readouterr().out.strip() == (
            "t^-4*A^2*D"
            " + t^-4*A*D^2"
            " + (t^-1 - 2 + 2*t - 4/3*t^2 + 2/3*t^3)*A^2*beta"
            " + (t^-3 - t^-2 + 1/2*t^-1 - 1/6 + 1/24*t - 1/120*t^2"
            " + 1/720*t^3)*A*D*gamma"
            " + (t^-1 - 2 + 2*t - 4/3*t^2 + 2/3*t^3)*A*D*beta"
            " - (3 - 9/2*t + 7/2*t^2 - 15/8*t^3 + 31/40*t^4)*A*beta"
            " + (t^-3 - t^-2 + 1/2*t^-1 - 1/6 + 1/24*t - 1/120*t^2"
            " + 1/720*t^3)*D^2*gamma"
            " - (2*t^-2 - t^-1 + 1/3 - 1/12*t + 1/60*t^2 - 1/360*t^3"
            " + 1/2520*t^4)*D*gamma"
            " - (1 - 3/2*t + 7/6*t^2 - 5/8*t^3 + 31/120*t^4)*D*beta"
            " + (2*t - 2*t^2 + 7/6*t^3 - 1/2*t^4 + 31/180*t^5)*beta"
            " + (4*t^-3 - 4*t^-2 + 14/3*t^-1 - 7/3 + 1/30*t + 89/90*t^2"
            " - 1133/1260*t^3)*A*beta*gamma"
            " + (2*t^-3 - 4*t^-2 + 13/3*t^-1 - 7/3 + 1/60*t + 89/90*t^2"
            " - 2267/2520*t^3)*D*beta*gamma"
            " - (8*t^-2 - 8*t^-1 + 20/3 - 89/45*t^2 + 9/5*t^3"
            " - 127/126*t^4)*beta*gamma")

    @pytest.mark.parametrize("expr, printed", [
        ("(((((p^64)^64)^64)^64)^64)^64*a", "p^68719476736*a"),
        ("(((((p^-64)^64)^64)^64)^64)^64*q*a", "p^-68719476736*q*a"),
    ])
    def test_nested_powers_keep_exact_exponents(self, capsys, expr, printed):
        # 64^6 = 2^36 fits a packed exponent field
        assert main(["normalize", "--ctx", "tside", expr]) == 0
        assert capsys.readouterr().out.strip() == printed

    @pytest.mark.parametrize("ctx, expr", [
        ("tside", "((((((p^64)^64)^64)^64)^64)^64)^64*a"),
        ("tside", "((((((p^-64)^64)^64)^64)^64)^64)^64*q*a"),
        ("mside", "((((((phi^64)^64)^64)^64)^64)^64)^64*(x - y)^-1*mu"),
    ])
    def test_exponent_beyond_the_field_is_a_usage_error(self, capsys, ctx,
                                                        expr):
        # 64^7 = 2^42 would carry into the next field: a typed error
        assert main(["normalize", "--ctx", ctx, expr]) == 2
        assert "exponents must lie in [-2^38, 2^38)" in capsys.readouterr().err

    @pytest.mark.skipif(INT_MAX_STR_DIGITS is None,
                        reason="int() and str() have no digit limit here")
    @pytest.mark.parametrize("ctx, expr, message", [
        ("tside", "7" * 5000 + "*a",
         "error: integer literal of 5000 digits exceeds the limit of "
         f"{INT_MAX_STR_DIGITS} digits at position 0"),
        ("tside", "(((2)^64)^64)^64*a",
         "error: a coefficient of more than "
         f"{INT_MAX_STR_DIGITS} digits is too large to print"),
        ("series", "(((2)^64)^64)^64*A",
         "error: a coefficient of more than "
         f"{INT_MAX_STR_DIGITS} digits is too large to print"),
    ])
    def test_digits_beyond_the_conversion_limit(self, ctx, expr, message,
                                                capsys):
        # int() and str() refuse more digits than the interpreter's limit;
        # both ends of normalize turn that into one usage error
        assert main(["normalize", "--ctx", ctx, expr]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [message]


def _normalize_in_child(expr, ctx="tside"):
    """``glpq normalize --ctx ctx expr`` in a child process, so that a
    regression fails on the timeout instead of hanging the run."""
    src = os.path.dirname(os.path.dirname(glpq.__file__))
    code = ("import sys; from glpq.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    return subprocess.run(
        [sys.executable, "-c", code, "normalize", "--ctx", ctx, expr],
        capture_output=True, text=True, timeout=10,
        env=dict(os.environ, PYTHONPATH=src))


@pytest.mark.parametrize("expr, printed", [
    ("*".join(["p"] * 1500), "p^1500"),
    (" + ".join(["p"] * 1500), "1500*p"),
    ("a" + " - a*p" * 1500, "-(1500*p - 1)*a"),
], ids=["product", "sum", "difference"])
def test_long_flat_chains_print_their_answer(expr, printed):
    proc = _normalize_in_child(expr)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == printed


@pytest.mark.parametrize("expr, printed", [
    ("d*((a^64)^64)", "a^4096*d + (q - p^-4096*q^-4095)*a^4095*beta*gamma"),
    ("d^3*(((a^64)^64)^2)",
     "a^8192*d^3 + (q + p^-1 + p^-2*q^-1 - p^-8192*q^-8191"
     " - p^-8193*q^-8192 - p^-8194*q^-8193)*a^8191*d^2*beta*gamma"),
], ids=["d.a^4096", "d^3.a^8192"])
def test_long_word_products_print_their_answer(expr, printed):
    # the right factor is built from its cached prefixes in a loop, one
    # letter at a time, so no Python recursion grows with its exponent
    proc = _normalize_in_child(expr)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == printed


@pytest.mark.parametrize("ctx, expr, message", [
    ("tside", "(" * 400 + "a" + ")" * 400,
     "error: brackets nested deeper than 100 at position 100"),
    ("tside", "[a, " * 400 + "d" + "]" * 400,
     "error: brackets nested deeper than 100 at position 400"),
    # the primitive PRS stalls on this gcd (it is 1); the work budget
    # ends it
    ("mside", "((p*q*x^2*phi^2 - p^2*x - q*x)*(p*q*x^2 - p^2*q^2*x*phi^2"
     " - phi))*(18*q^2*phi^2*(p*x + q*phi)^2)^-1*mu",
     "error: polynomial gcd needs more than 10000 steps"),
    # x^(2^24) + 1 over x + 1: a long division of 2^24 steps that ends
    # inexact; the work budget ends it first
    ("mside", "((((x^64)^64)^64)^64 + 1)*(x + 1)^-1*mu",
     "error: exact division needs more than 1000000 term updates"),
], ids=["parentheses", "commutators", "gcd", "division"])
def test_deep_or_stalling_input_is_a_usage_error(ctx, expr, message):
    proc = _normalize_in_child(expr, ctx)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [message]


class TestEvalCommand:
    def test_scalar(self, capsys):
        code = main(["eval", "--ctx", "tside",
                     "(p*q - 1)*(p - q^-1)^-1", "--assign", "p=2,q=3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "3" in out

    def test_zero(self, capsys):
        assert main(["eval", "--ctx", "tside", "[a,d] - (p - q^-1)*gamma*beta",
                     "--assign", "p=2,q=3"]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_bad_assignment_exit_code(self, capsys):
        assert main(["eval", "a", "--assign", "p=x"]) == 2
        assert "error: bad --assign pair 'p=x'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_assignment_is_a_usage_error(self, value, capsys):
        assert main(["eval", "p", "--assign", f"p={value}"]) == 2
        assert f"error: bad --assign pair 'p={value}'" in \
            capsys.readouterr().err

    def test_mside_term_without_exponentials(self, capsys):
        # only the terms that carry E1 or E2 read them
        assert main(["eval", "--ctx", "mside", "x", "--assign", "x=1"]) == 0
        assert capsys.readouterr().out.strip() == "1: 1"

    @pytest.mark.parametrize("ctx, expr, assign, missing", [
        ("series", "t", "", "t"),
        ("mside", "E1*x", "x=1", "E1"),
        ("tside", "p*a", "q=1", "p"),
    ])
    def test_missing_symbol_exit_code(self, ctx, expr, assign, missing,
                                      capsys):
        assert main(["eval", "--ctx", ctx, expr, "--assign", assign]) == 1
        assert capsys.readouterr().err.strip() == f"error: {missing}"

    @pytest.mark.parametrize("ctx, expr, assign", [
        ("series", "t^-1", "t=0"),
        ("mside", "E1^-1", "E1=0,E2=1,p=2,q=3,phi=1,x=1,y=2"),
        ("mside", "E2^-2*mu", "E1=1,E2=0,p=2,q=3,phi=1,x=1,y=2"),
    ])
    def test_zero_under_a_negative_power_exit_code(self, ctx, expr, assign,
                                                   capsys):
        assert main(["eval", "--ctx", ctx, expr, "--assign", assign]) == 1
        assert "under" in capsys.readouterr().err

    @pytest.mark.parametrize("ctx, expr, assign, err", [
        ("tside", "p^2*a", "p=1e200,q=1", "coefficient"),
        ("tside", "((10^64)^64)*a", "p=1,q=1", "coefficient"),
        ("series", "t^-64*A", "t=1e-5", "coefficient"),
        ("mside", "E1^3*mu", "p=1,q=1,phi=1,x=1,y=1,E1=1e200,E2=1",
         "coefficient"),
        ("tside", "p*q*a", "p=1e200,q=1e200", "coefficient"),
        # the true value is 1/2; num / inf would print 0
        ("tside", "p^2*(p^2 + q^2)^-1*a", "p=1.1e154,q=1.1e154",
         "denominator"),
    ])
    def test_overflow_exit_code(self, ctx, expr, assign, err, capsys):
        assert main(["eval", "--ctx", ctx, expr, "--assign", assign]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == \
            f"error: {err} outside the float range"

    def test_series_eval(self, capsys):
        assert main(["eval", "--ctx", "series", "t^-1 + 2*A",
                     "--assign", "t=0.5"]) == 0
        assert capsys.readouterr().out.split("\n")[:2] == ["1: 2", "A: 2"]


class TestSuiteCommand:
    def test_small_suite_json(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code = main(["suite", "appendix", "--k-max", "2",
                     "--json", str(path)])
        assert code == 0
        doc = json.loads(path.read_text())
        assert set(doc) == {"suite", "params", "checks", "elapsed_ms"}
        assert doc["suite"] == "appendix"
        assert all(set(c) == {"id", "anchor", "status", "witness"}
                   for c in doc["checks"])
        assert all(c["status"] == "pass" for c in doc["checks"])

    def test_series_suite_single_ray(self, tmp_path):
        path = tmp_path / "series.json"
        code = main(["suite", "series", "--rays", "1,2", "--N", "4",
                     "--K", "8", "--weight", "6", "--json", str(path)])
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["params"]["rays"] == ["1,2"]

    def test_exit_one_on_failure(self, tmp_path, capsys):
        # a failing check surfaces as exit code 1 with a witness that
        # reparses in the expression grammar
        ctx = mside()
        bad = Identity("intentional", "x*y = y*x + mu",
                       ctx.x * ctx.y, ctx.y * ctx.x + ctx.mu)
        rep = run_exact("demo", [bad])
        assert not rep.ok
        witness = rep.checks[0].witness
        parsed = parse(witness, "mside")
        assert get_context("mside").eval(parsed) == -ctx.mu

    @pytest.mark.parametrize("argv", [
        ["suite", "series", "--rays", "1,-1"],
        ["suite", "series", "--K", "7"],
        ["suite", "all", "--rays", "1,2", "--K", "10", "--weight", "11"],
        ["suite", "series", "--rays", "1,1", "--K", "8", "--weight", "8"],
    ])
    def test_bad_series_config_is_usage_error(self, argv, capsys,
                                              monkeypatch):
        # every config is built before the first suite runs
        def no_suite(*args):
            raise AssertionError("a suite ran before the configs were checked")
        monkeypatch.setattr(tside, "verify_section2", no_suite)
        monkeypatch.setattr(series, "verify_series", no_suite)
        assert main(argv) == 2
        assert "error" in capsys.readouterr().err

    def test_suite_all_golden_digest(self, tmp_path, capsys):
        # pins every id, anchor, status, witness and param of the default
        # report; only the timing is left out
        path = tmp_path / "all.json"
        assert main(["suite", "all", "--json", str(path)]) == 0
        doc = json.loads(path.read_text())
        doc.pop("elapsed_ms")
        assert len(doc["checks"]) == 661
        digest = hashlib.sha256(
            json.dumps(doc, sort_keys=True).encode()).hexdigest()
        assert digest == ("18730bfb4eb605629eb40e925fd02aeeb43d200f"
                          "85189101a1eed749f239f037")

    @pytest.mark.parametrize("argv", [
        ["suite", "appendix", "--k-max", "-2"],
        ["suite", "section3", "--n-max", "-1"],
        ["suite", "mside", "--n-max", "0"],
        ["suite", "section2", "--n-bound", "0"],
        ["suite", "section2", "--m-bound", "-3"],
        ["suite", "all", "--k-max", "0"],
        ["spotcheck", "all", "--trials", "-1"],
        ["spotcheck", "section2", "--trials", "0"],
    ])
    def test_sizes_below_one_are_usage_errors(self, argv, capsys,
                                              monkeypatch):
        # a size below 1 used to pass with no checks at all
        def no_suite(*args):
            raise AssertionError("a suite ran with a size below 1")
        for name in ("verify_section2", "verify_section3", "verify_appendix"):
            monkeypatch.setattr(tside, name, no_suite)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err


class TestSpotcheckCommand:
    def test_deterministic_with_seed(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        for p in (p1, p2):
            code = main(["spotcheck", "appendix", "--trials", "3",
                         "--seed", "11", "--json", str(p)])
            assert code == 0
        d1, d2 = (json.loads(p.read_text()) for p in (p1, p2))
        d1.pop("elapsed_ms"), d2.pop("elapsed_ms")
        assert d1 == d2

    def test_seed_changes_nothing_on_pass_status(self, tmp_path):
        p = tmp_path / "c.json"
        assert main(["spotcheck", "section2", "--trials", "2",
                     "--seed", "3", "--json", str(p)]) == 0
        doc = json.loads(p.read_text())
        assert doc["params"]["trials"] == 2
        assert all(c["status"] == "pass" for c in doc["checks"])
