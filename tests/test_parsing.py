import random
from fractions import Fraction

import pytest

from planeaut import (
    Endo,
    LaurentRing,
    MultiPoly,
    ParseError,
    PrimeField,
    RationalField,
    parse_automorphism,
    parse_polynomial,
)
from planeaut import parsing
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
    assert isinstance(f, Endo) and isinstance(f.ring, LaurentRing)
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


def _rand_factor(rng, nvars, family, depth, divisor=False):
    """An integer, x_i (rarely out of range), t in a family, or a
    parenthesized sum, maybe negated and raised to a power in -2..4; as a
    divisor mostly a nonzero integer or t."""
    pick = rng.random()
    if divisor and pick < 0.9:
        atom = "t" if family and pick < 0.2 else str(rng.randint(1, 7))
    elif pick < 0.3:
        atom = str(rng.randint(0, 7))
    elif pick < 0.75:
        atom = f"x{rng.randint(1, nvars + (rng.random() < 0.03))}"
    elif pick < 0.85 and family:
        atom = "t"
    elif depth < 2:
        atom = f"({_rand_sum(rng, nvars, family, depth + 1)})"
    else:
        atom = "x1"
    if rng.random() < 0.4:
        atom += f"^{rng.randint(-2, -1) if rng.random() < 0.05 else rng.randint(0, 4)}"
    return ("-" if rng.random() < 0.15 else "") + atom


def _rand_sum(rng, nvars, family, depth=0):
    terms = []
    for _ in range(rng.randint(1, 4)):
        term = _rand_factor(rng, nvars, family, depth)
        for _ in range(rng.randint(0, 3)):
            op = rng.choice(("*", "*", "*", "/"))
            term += op + _rand_factor(rng, nvars, family, depth, divisor=op == "/")
        terms.append(term)
    out = terms[0]
    for term in terms[1:]:
        out += rng.choice((" + ", " - ")) + term
    return out


def _outcome(src, K):
    try:
        return "ok", str(parse_automorphism(src, K))
    except ParseError as exc:
        return "error", str(exc), exc.pos


@pytest.mark.parametrize("K", [Q, F2, F5], ids=repr)
def test_monomial_summands_match_the_general_path(K, monkeypatch):
    """_eval reads each monomial summand straight into one term dict; with
    parsing._monomial switched off every summand goes through the general
    path, the oracle.  Both give the same map or family, or the same error
    at the same position, on seeded sums with divisions, negative powers,
    zero divisors, out-of-range variables and nested sums."""
    rng = random.Random(f"parse/{K!r}")
    srcs = []
    for i in range(300):
        family = i % 2 == 1
        srcs.append("(" + ", ".join(_rand_sum(rng, 2, family) for _ in range(2)) + ")")
    got = [_outcome(src, K) for src in srcs]
    monkeypatch.setattr(parsing, "_monomial", lambda *args: None)
    assert got == [_outcome(src, K) for src in srcs]
    kinds = [g[0] for g in got]
    assert kinds.count("ok") > 30 and kinds.count("error") > 30


def test_a_printed_iterate_parses_without_adding_polynomials(monkeypatch):
    """A printed 1,474-term F5 iterate is a sum of monomials: it parses
    into one term dict, with no MultiPoly addition (each one copied the
    accumulated sum)."""
    f = parse_automorphism("(x2 + x1^3, -x1 + 2*x2^3 + x2 + 1)", F5)
    g = f
    for _ in range(3):
        g = f.compose(g)
    src = str(g)
    added = []
    add = MultiPoly.__add__

    def counted(self, other):
        added.append(1)
        return add(self, other)

    monkeypatch.setattr(MultiPoly, "__add__", counted)
    assert parse_automorphism(src, F5) == g
    assert sum(len(p.terms) for p in g.comps) == 1474 and not added
