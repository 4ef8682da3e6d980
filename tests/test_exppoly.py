"""ExpPoly algebra, the expression grammar, and the normal form."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from tiltbound.exppoly import (
    MAX_DEGREE,
    MAX_EXPONENT,
    MAX_PRODUCT,
    ExpPoly,
    ExprSyntaxError,
    T,
    W,
    derivative,
    normalize,
    parse_expression,
    parse_rational,
    rational_str,
)


def poly(terms):
    return ExpPoly({k: Fraction(v) for k, v in terms.items()})


class TestArithmetic:
    def test_builders(self):
        p = 2 * W + T - 1
        assert p == poly({(1, 0): 2, (0, 1): 1, (0, 0): -1})

    def test_product(self):
        assert W * T == poly({(1, 1): 1})
        assert (W + T) * (W - T) == poly({(2, 0): 1, (0, 2): -1})

    def test_power(self):
        assert (W + 1) ** 2 == poly({(2, 0): 1, (1, 0): 2, (0, 0): 1})
        assert T**0 == ExpPoly.constant(1)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            ExpPoly.constant(0.5)

    def test_eval_at_zero(self):
        p = poly({(0, 0): 1, (0, 2): -1, (1, 3): 7})
        assert p.eval_at_zero() == 0
        assert (p + 3).eval_at_zero() == 3

    def test_evaluate(self):
        p = poly({(1, 1): 1})  # w e^w
        assert p.evaluate(2.0) == pytest.approx(2.0 * math.exp(2.0), rel=1e-15)

    def test_serialization_round_trip(self):
        p = poly({(0, -1): Fraction(-1, 2), (0, 1): Fraction(1, 2), (1, 0): -1})
        assert ExpPoly.from_term_list(p.to_term_list()) == p

    def test_rational_text_codec(self):
        for q in (0, 7, -3, Fraction(-1, 2), Fraction(10**30 + 1, 3)):
            text = rational_str(q)
            assert text == f"{q.numerator}/{q.denominator}"
            back = parse_rational(text)
            assert back == q and type(back) is type(q)
        assert type(parse_rational("4/2")) is int
        for bad in (0.5, 1, None, [1, 2]):
            with pytest.raises(TypeError):
                parse_rational(bad)
        with pytest.raises(ZeroDivisionError):
            parse_rational("1/0")
        with pytest.raises(TypeError):
            ExpPoly.from_term_list([[0, 0, 0.5]])

    @pytest.mark.parametrize("operand", [0.5, 1e300, math.nan])
    def test_float_operands_raise(self, operand):
        for combine in (
            lambda: W + operand, lambda: operand + W, lambda: W - operand,
            lambda: operand - W, lambda: W * operand, lambda: operand * W,
        ):
            with pytest.raises(TypeError):
                combine()


class TestNormalize:
    def test_clears_negative_powers_and_scales(self):
        # sinh w - w, times 2t
        raw = poly({(0, 1): Fraction(1, 2), (0, -1): Fraction(-1, 2), (1, 0): -1})
        assert normalize(raw) == poly({(0, 2): 1, (0, 0): -1, (1, 1): -2})

    def test_already_normal(self):
        p = T - 1 - W
        assert normalize(p) == p

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            normalize(ExpPoly.zero())

    def test_strips_common_monomial(self):
        assert normalize(W * T - W * W * T) == poly({(0, 0): 1, (1, 0): -1})

    def test_sign_preserved_on_random_inputs(self, rng):
        for _ in range(100):
            terms = {}
            for _ in range(int(rng.integers(1, 6))):
                i = int(rng.integers(0, 4))
                k = int(rng.integers(-3, 4))
                c = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
                if c:
                    terms[(i, k)] = terms.get((i, k), Fraction(0)) + c
            raw = ExpPoly(terms)
            if raw.is_zero:
                continue
            normal = normalize(raw)
            for w in rng.uniform(0.05, 4.0, size=100):
                a, b = raw.evaluate(float(w)), normal.evaluate(float(w))
                # allow either to be a numerical zero
                if abs(a) > 1e-9 and abs(b) > 1e-9:
                    assert (a > 0) == (b > 0)


class TestDerivative:
    def test_product_rule_monomial(self):
        assert derivative(W * T) == T + W * T

    def test_contract_example(self):
        p = poly({(0, 2): 1, (1, 1): -2, (0, 0): -1})  # t^2 - 2wt - 1
        assert derivative(p) == poly({(0, 2): 2, (0, 1): -2, (1, 1): -2})

    def test_constant(self):
        assert derivative(ExpPoly.constant(5)) == ExpPoly.zero()

    def test_linearity(self, rng):
        for _ in range(20):
            a = poly({(int(rng.integers(0, 3)), int(rng.integers(0, 3))): int(rng.integers(1, 5))})
            b = poly({(int(rng.integers(0, 3)), int(rng.integers(0, 3))): int(rng.integers(1, 5))})
            assert derivative(a + b) == derivative(a) + derivative(b)
            assert derivative(a * b) == derivative(a) * b + a * derivative(b)

    def test_matches_finite_differences(self):
        p = parse_expression("1 + exp(w)^2*(w + 2*w*exp(w) - exp(w)^2*(1+w))")
        dp = derivative(p)
        for w in (0.5, 1.0, 2.0):
            h = 1e-6
            numeric = (p.evaluate(w + h) - p.evaluate(w - h)) / (2 * h)
            assert dp.evaluate(w) == pytest.approx(numeric, rel=1e-6)


def assert_canonical(p: ExpPoly):
    """Every coefficient is an int, or a Fraction that is not integral."""
    for _, _, c in p.terms():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(p)


class TestCanonicalForm:
    def test_no_integral_fraction_survives(self):
        p = parse_expression("1/2*w^2 + 0.5*exp(w) - 3/3 + sinh(2*w) + w/2")
        q = parse_expression("2.0*w - 4/2*exp(w)*cosh(w) + w/2 + w/2")
        assert q == poly({(1, 0): 3, (0, 2): -1, (0, 0): -1})
        for r in (
            p, q, p + q, p - q, p * q, (p + q) ** 3, -p, 2 * p, p * Fraction(2),
            normalize(p * q), derivative(p), derivative(normalize(p)),
            ExpPoly.from_term_list(p.to_term_list()), ExpPoly({(0, 0): Fraction(4, 2)}),
        ):
            assert_canonical(r)

    def test_chain_after_normalize_is_integral(self):
        expr = normalize(parse_expression("1/3*w*cosh(w) + (w/7 - 4*(2+w))*sinh(w)"))
        while expr.w_degree > 0:  # the prover's chain
            assert all(type(c) is int for _, _, c in expr.terms())
            expr = derivative(expr)
            assert all(type(c) is int for _, _, c in expr.terms())
            expr = normalize(expr)


class TestParser:
    def test_plain_polynomial(self):
        assert parse_expression("w^2 - 2*w + 1") == poly({(2, 0): 1, (1, 0): -2, (0, 0): 1})

    def test_exponentials(self):
        assert parse_expression("exp(w)") == T
        assert parse_expression("exp(2*w)") == poly({(0, 2): 1})
        assert parse_expression("exp(w)^3") == poly({(0, 3): 1})
        assert parse_expression("exp(0)") == ExpPoly.constant(1)

    def test_hyperbolics(self):
        assert parse_expression("sinh(w)") == poly({(0, 1): Fraction(1, 2), (0, -1): Fraction(-1, 2)})
        assert parse_expression("cosh(w)") == poly({(0, 1): Fraction(1, 2), (0, -1): Fraction(1, 2)})
        assert parse_expression("2*sinh(w)") == poly({(0, 1): 1, (0, -1): -1})

    def test_decimals_are_exact(self):
        assert parse_expression("0.5*w") == poly({(1, 0): Fraction(1, 2)})

    def test_division_by_constant(self):
        assert parse_expression("w/2") == poly({(1, 0): Fraction(1, 2)})

    def test_unary_minus(self):
        assert parse_expression("-w + +w - w") == poly({(1, 0): -1})

    def test_precedence(self):
        assert parse_expression("2*w^2") == poly({(2, 0): 2})
        assert parse_expression("(2*w)^2") == poly({(2, 0): 4})

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "w +",
            "exp(w^2)",  # nonlinear exponent
            "sinh(w/2)",  # non-integer multiple
            "1/w",  # division by a non-constant
            "q + 1",
            "w ^ 1.5",
            "exp(w",
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ExprSyntaxError):
            parse_expression(text)

    @pytest.mark.parametrize("text", ["\u00b2", "\u0663*w", "w^\u00b3", "1\u00a0+ w"])
    def test_numbers_and_blanks_are_ascii(self, text):
        # str.isdigit accepts the superscripts and the Arabic-Indic three:
        # int() then leaked a ValueError for the one and read the other as 3
        with pytest.raises(ExprSyntaxError, match="unexpected character"):
            parse_expression(text)

    def test_hyperbolics_at_zero(self):
        # the half-sums (t^0 - t^0)/2 and (t^0 + t^0)/2
        assert parse_expression("sinh(0*w)") == ExpPoly.zero()
        assert parse_expression("cosh(w - w)") == ExpPoly.constant(1)

    def test_round_trip_against_float_eval(self, rng):
        p = parse_expression("w*cosh(w) + (w - 4*(2+w))*sinh(w)")
        for _ in range(20):
            w = float(rng.uniform(0.1, 3.0))
            direct = w * math.cosh(w) + (w - 4 * (2 + w)) * math.sinh(w)
            assert p.evaluate(w) == pytest.approx(direct, rel=1e-12)



def _dense(extra: str = "") -> str:
    """The square of 64 (65 with extra) monomials w^i e^(kw) of degree at most 14."""
    return "(" + "+".join(f"w^{i}*exp({k}*w)" for i in range(8) for k in range(8)) + extra + ")^2"


class TestCaps:
    """What one text may build is capped; a text over a cap is refused before it is built."""

    @pytest.mark.parametrize(
        "text, fragment",  # of the error message, naming the cap
        [
            ("(1+w+exp(w))^200", "exponent over"),  # 20,301 terms
            ("exp(w)^20000 - 2", "exponent over"),  # a degree-20,000 Sturm base case
            ("exp(w)^100000 - 2", "exponent over"),
            (f"w^{MAX_EXPONENT + 1}", "exponent over"),
            ("((2^32)^32)^32", "256 bits"),  # unchecked, each level multiplies the bits by 32
            ("(2^16)^16", "256 bits"),  # 17 bits times 16
            ("(1+w+exp(w))^32", "4096 pairs"),  # squares 153 terms
            (_dense("+exp(-w)"), "4096 pairs"),  # 65 x 65
            (f"exp({MAX_DEGREE + 1}*w) - 2", "i + |k| above"),
            (f"w^{MAX_DEGREE + 1}", "i + |k| above"),
            (f"1 + w^20*exp(-{MAX_DEGREE - 19}*w)", "i + |k| above"),
            (f"cosh({MAX_DEGREE + 1}*w)", "i + |k| above"),
        ],
    )
    def test_rejected(self, text, fragment):
        with pytest.raises(ExprSyntaxError, match=re.escape(fragment)):
            parse_expression(text)

    def test_accepted_at_the_caps(self):
        assert parse_expression(f"2^{MAX_EXPONENT}") == ExpPoly.constant(2**MAX_EXPONENT)
        assert parse_expression("(2^16)^15") == ExpPoly.constant(2**240)
        assert parse_expression(f"exp({MAX_DEGREE}*w)") == ExpPoly.monomial(1, 0, MAX_DEGREE)
        assert parse_expression(f"w^20*exp(-{MAX_DEGREE - 20}*w)").t_degrees == (-20, -20)
        assert 64 * 64 == MAX_PRODUCT and len(parse_expression(_dense())._terms) == 15 * 15
        assert len(parse_expression("(1+w+exp(w))^16")._terms) == 153
        # a monomial that cancels is not in the result
        text = f"w^{MAX_DEGREE + 1} - w^{MAX_DEGREE + 1} + 1"
        assert parse_expression(text) == ExpPoly.constant(1)


# -- an independent oracle: random expression trees, rendered and evaluated ---

# Function arguments as text, with the multiple n of w that each denotes.
ARGUMENTS = (
    ("w", 1), ("3*w", 3), ("0*w", 0), ("-2*w", -2), ("4*w/2", 2), ("0", 0),
    ("-w", -1), ("2.0*w", 2), ("w + w - 3*w", -1), ("6*w/3 - w", 1),
)
NUMBERS = ("0", "1", "2", "7", "12", "007", "0.5", "2.25", "3.", "10.0", "0.125")
BLANKS = ("", " ", "  ", "\t")
STRAY = ("\u00b2", "\u0663", "$", "#", "\u00a0", "!", "=", "[", "_", "'")


def _exp(n: int) -> ExpPoly:
    return ExpPoly.monomial(1, 0, n)


FUNCTIONS = {
    "exp": _exp,
    "sinh": lambda n: (_exp(n) - _exp(-n)) * Fraction(1, 2),
    "cosh": lambda n: (_exp(n) + _exp(-n)) * Fraction(1, 2),
}


def pick(rng, options):
    return options[int(rng.integers(0, len(options)))]


def _wrap(node, level: int) -> str:
    """The node's text, parenthesized when it binds looser than level."""
    text, precedence, _ = node
    return text if precedence >= level else f"({text})"


def random_tree(rng, depth: int, constant: bool = False):
    """(text, precedence, value): a rendered expression and its ExpPoly.

    Precedence is 1 for a sum, 2 a product, 3 a signed factor, 4 a power and
    5 an atom.  A child is parenthesized only where the grammar needs it,
    so the parser's precedence and associativity are exercised.  A constant
    tree has no w and no function.
    """
    kind = int(rng.integers(0, 3 if depth <= 0 else 10))
    if kind == 0 or (constant and kind in (1, 2)):
        text = pick(rng, NUMBERS)
        return text, 5, ExpPoly.constant(Fraction(text))
    if kind == 1:
        return "w", 5, W
    if kind == 2:
        name, (arg, n) = pick(rng, list(FUNCTIONS)), pick(rng, ARGUMENTS)
        return f"{name}({pick(rng, BLANKS)}{arg})", 5, FUNCTIONS[name](n)
    a = random_tree(rng, depth - 1, constant)
    if kind == 3:
        return f"({a[0]}{pick(rng, BLANKS)})", 5, a[2]
    if kind == 4:  # one to three stacked unary signs
        text, value = _wrap(a, 3), a[2]
        for _ in range(int(rng.integers(1, 4))):
            sign = pick(rng, "+-")
            text, value = sign + pick(rng, BLANKS) + text, value if sign == "+" else -value
        return text, 3, value
    if kind == 5:
        n = int(rng.integers(0, 4))
        return f"{_wrap(a, 5)}{pick(rng, BLANKS)}^{n}", 4, a[2] ** n
    if kind == 6:  # division by a nonzero constant
        d = random_tree(rng, 1, constant=True)
        if d[2].is_zero:
            d = ("7", 5, ExpPoly.constant(7))
        value = a[2] * (1 / Fraction(d[2].coeff(0, 0)))
        return f"{_wrap(a, 2)}{pick(rng, BLANKS)}/{_wrap(d, 3)}", 2, value
    op = "*+-"[kind - 7]
    b = random_tree(rng, depth - 1, constant)
    if op == "*":
        return f"{_wrap(a, 2)}*{pick(rng, BLANKS)}{_wrap(b, 3)}", 2, a[2] * b[2]
    value = a[2] + b[2] if op == "+" else a[2] - b[2]
    return f"{_wrap(a, 1)}{pick(rng, BLANKS)}{op} {_wrap(b, 2)}", 1, value


def random_texts(rng, count: int) -> list[tuple[str, ExpPoly]]:
    return [random_tree(rng, 4)[::2] for _ in range(count)]


class TestParserOracle:
    def test_parse_equals_the_tree_evaluated_with_exppoly_operators(self, rng):
        seen = set()
        for text, value in random_texts(rng, 400):
            assert parse_expression(text) == value, text
            seen.update(
                feature
                for feature, pattern in [
                    ("decimal", r"[0-9]\.[0-9]"),
                    ("division", r"/\(?[0-9]"),
                    ("stacked signs", r"[-+]\s*[-+]"),
                    ("sinh(0*w)", r"sinh\(\s*0\*w"),
                    ("(-2*w)", r"\(\s*-2\*w"),
                    ("(4*w/2)", r"\(\s*4\*w/2"),
                    ("power", r"\^"),
                ]
                if re.search(pattern, text)
            )
        assert len(seen) == 7, seen

    def test_mutated_texts_raise_syntax_errors_only(self, rng):
        for text, _ in random_texts(rng, 200):
            mutants = [f"{text} * sinh(w/2)", f"1/w - ({text})", f"{text} + w^1.5"]
            if ")" in text:  # drop one closing parenthesis
                i = pick(rng, [i for i, ch in enumerate(text) if ch == ")"])
                mutants.append(text[:i] + text[i + 1 :])
            i = int(rng.integers(0, len(text) + 1))
            mutants.append(text[:i] + pick(rng, STRAY) + text[i:])
            for mutant in mutants:
                with pytest.raises(ExprSyntaxError):
                    parse_expression(mutant)
