from fractions import Fraction

import pytest

from planeaut import (
    Endo,
    MultiPoly,
    ParseError,
    PrimeField,
    RationalField,
    TFamily,
    parse_automorphism,
    parse_polynomial,
)
from planeaut.parsing import _MAX_DEPTH

Q = RationalField()
F2 = PrimeField(2)
F5 = PrimeField(5)

ROUND_TRIP_Q = [
    "(-x2, x2^2 + x1)",
    "(x2^3 - x1 + 1/2*x2, x2)",
    "(2*x1, 1/2*x2)",
    "(x2^2 + x1 + 1, x2, x1*x2)",
    "(x1, x2 + 1)",
]

ROUND_TRIP_FAMILY = [
    "(t*x1, t^-1*x2)",
    "(t*x2^2 + x1, x2)",
    "(t^4*x2^3 + 4*x1 + t^2*x2, 4*x2)",
    "((t^2 + 4*t)*x1, t^-1*x2)",
]


@pytest.mark.parametrize("src", ROUND_TRIP_Q)
def test_round_trip_endo(src):
    e = parse_automorphism(src, Q)
    assert isinstance(e, Endo)
    assert str(e) == src
    assert str(parse_automorphism(str(e), Q)) == src


@pytest.mark.parametrize("src", ROUND_TRIP_FAMILY)
def test_round_trip_family(src):
    f = parse_automorphism(src, F5)
    assert isinstance(f, TFamily)
    assert str(f) == src


def test_multi_term_laurent_coefficient():
    f = parse_automorphism("((t^2 - t)*x1, t^-1*x2)", F5)
    assert str(f) == "((t^2 + 4*t)*x1, t^-1*x2)"


def test_precedence():
    e = parse_automorphism("(2*x2^3 + x1, x2)", Q)
    comp = e.comps[0]
    assert comp.coeff((0, 3)) == Fraction(2)
    assert comp.coeff((1, 0)) == Fraction(1)
    # unary minus binds below ^: -x2^2 is -(x2^2)
    m = parse_automorphism("(-x2^2 + x1, x2)", Q)
    assert m.comps[0].coeff((0, 2)) == Fraction(-1)


def test_division_is_exact_scalar_division():
    e = parse_automorphism("(x1/2, x2)", Q)
    assert e.comps[0].coeff((1, 0)) == Fraction(1, 2)


def test_field_literal_error_over_f2():
    with pytest.raises(ParseError, match="cannot divide"):
        parse_automorphism("(x1 + 1/2, x2)", F2)


def test_bare_x_rejected():
    with pytest.raises(ParseError, match="variable needs an index") as exc:
        parse_automorphism("(x + 1, x2)", Q)
    assert exc.value.pos == 1


def test_unknown_variable_index():
    with pytest.raises(ParseError, match="unknown variable x3 in a 2-component map"):
        parse_automorphism("(x1, x3)", Q)


def test_unexpected_character():
    with pytest.raises(ParseError, match="unexpected character"):
        parse_automorphism("(x1 @ x2, x2)", Q)


def test_unclosed_tuple():
    with pytest.raises(ParseError, match="unexpected end of input|expected"):
        parse_automorphism("(x1, x2", Q)


def test_trailing_input():
    with pytest.raises(ParseError, match="trailing input"):
        parse_automorphism("(x1, x2) 1", Q)


def test_nonconstant_divisor():
    with pytest.raises(ParseError, match="must be a constant"):
        parse_automorphism("(x1 / x2, x2)", Q)


def test_negative_power_of_variable():
    with pytest.raises(ParseError, match="must be a constant"):
        parse_automorphism("(x1^-1, x2)", Q)


def test_negative_power_of_constant():
    e = parse_automorphism("(2^-1 * x1, x2)", Q)
    assert e.comps[0].coeff((1, 0)) == Fraction(1, 2)


def test_parse_polynomial():
    P = parse_polynomial("x1^2 - 1", Q)
    assert P == {2: Fraction(1), 0: Fraction(-1)}
    assert parse_polynomial("3", F5) == {0: 3}
    assert parse_polynomial("0", Q) == {}


def test_parse_polynomial_rejects_t():
    with pytest.raises(ParseError, match="t is not allowed") as exc:
        parse_polynomial("x1 + t", Q)
    assert exc.value.pos == 5


def test_parse_polynomial_rejects_x2():
    with pytest.raises(ParseError, match="unknown variable x2"):
        parse_polynomial("x1 + x2", Q)


def test_large_polynomial_round_trips():
    # ~3000 terms, as long as a degree-128 Henon iterate over F5
    terms = {(i, j): (3 * i + j) % 4 + 1 for i in range(60) for j in range(50)}
    e = Endo([MultiPoly(F5, 2, terms), MultiPoly.variable(F5, 2, 0)])
    assert parse_automorphism(str(e), F5) == e


def test_long_flat_sum_and_product():
    e = parse_automorphism("(" + " + ".join(["x1"] * 5000) + ", x2)", Q)
    assert e.comps[0].terms == {(1, 0): Fraction(5000)}
    e = parse_automorphism("(" + "*".join(["x1"] * 5000) + ", x2)", Q)
    assert e.comps[0].terms == {(5000, 0): Fraction(1)}


def test_parenthesis_nesting_is_bounded():
    depth = _MAX_DEPTH
    ok = parse_automorphism("(" + "(" * depth + "x1" + ")" * depth + ", x2)", Q)
    assert ok.comps[0].terms == {(1, 0): Fraction(1)}
    with pytest.raises(ParseError, match="nested deeper"):
        parse_automorphism("(" + "(" * (depth + 1) + "x1" + ")" * (depth + 1) + ", x2)", Q)
