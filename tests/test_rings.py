from fractions import Fraction

import pytest

from planeaut import (
    MINUS_INF,
    LaurentRing,
    NotInvertibleError,
    PoleAtZeroError,
    PrimeField,
    RationalField,
    UnsupportedFieldError,
    field_from_name,
)
from planeaut.rings import (
    up_add,
    up_deg,
    up_divmod,
    up_eval,
    up_gcd_monic,
    up_mul,
    up_shift,
    up_to_str,
)


def test_rational_basics():
    Q = RationalField()
    assert Q.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert Q.invert(Fraction(-2, 7)) == Fraction(-7, 2)
    assert Q.pow(Fraction(2), -3) == Fraction(1, 8)
    with pytest.raises(NotInvertibleError):
        Q.invert(Fraction(0))


def test_rational_roots():
    Q = RationalField()
    assert Q.sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert Q.sqrt(Fraction(2)) is None
    assert sorted(Q.nth_roots(Fraction(16), 4)) == [Fraction(-2), Fraction(2)]
    assert Q.nth_roots(Fraction(-8), 3) == [Fraction(-2)]
    assert Q.nth_roots(Fraction(-4), 2) == []


def test_prime_field():
    F5 = PrimeField(5)
    assert F5.invert(3) == 2
    assert F5.pow(2, -1) == 3
    assert sorted(F5.nth_roots(4, 2)) == [2, 3]
    with pytest.raises(UnsupportedFieldError):
        PrimeField(6)


def test_prime_field_sample_stream_cycles():
    F3 = PrimeField(3)
    vals = []
    stream = F3.sample_stream()
    for _ in range(3):
        vals.append(next(stream))
    assert vals == [0, 1, 2]


def test_laurent_arithmetic():
    Q = RationalField()
    L = LaurentRing(Q)
    a = {-1: Fraction(2), 1: Fraction(3)}
    b = {0: Fraction(1), 2: Fraction(-1)}
    prod = L.mul(a, b)
    assert prod == {-1: Fraction(2), 1: Fraction(1), 3: Fraction(-3)}
    assert L.valuation(a) == -1
    assert L.valuation(L.zero) is MINUS_INF


def test_laurent_units_and_pole():
    Q = RationalField()
    L = LaurentRing(Q)
    u = {3: Fraction(2)}
    assert L.mul(L.invert(u), u) == L.one
    with pytest.raises(NotInvertibleError):
        L.invert({0: Fraction(1), 1: Fraction(1)})
    with pytest.raises(PoleAtZeroError):
        L.value_at_zero({-2: Fraction(1)})
    assert L.value_at_zero({0: Fraction(4), 2: Fraction(1)}) == Fraction(4)
    assert L.shift({0: Fraction(1)}, 5) == {5: Fraction(1)}


def test_laurent_specialize():
    F5 = PrimeField(5)
    L = LaurentRing(F5)
    a = {-1: 2, 1: 3}
    # 2/t + 3t at t = 2: 1 + 6 = 2 mod 5
    assert L.specialize(a, 2) == 2


def test_univariate_helpers():
    Q = RationalField()
    P = {2: Fraction(1), 0: Fraction(-1)}
    D = {1: Fraction(1), 0: Fraction(-1)}
    q, r = up_divmod(Q, P, D)
    assert r == {} and q == {1: Fraction(1), 0: Fraction(1)}
    assert up_gcd_monic(Q, P, D) == {1: Fraction(1), 0: Fraction(-1)}
    assert up_deg(Q, {}) is MINUS_INF
    assert up_eval(Q, P, Fraction(3)) == Fraction(8)
    # composition (x^2 - 1) o (2x + 1) = 4x^2 + 4x
    comp = up_shift(Q, P, Fraction(2), Fraction(1))
    assert comp == {2: Fraction(4), 1: Fraction(4)}
    # gaps, no constant term, 10^8
    S, b = {5: Fraction(1), 2: Fraction(3)}, {1: Fraction(2), 0: Fraction(1)}
    comp = up_shift(Q, S, Fraction(2), Fraction(1))
    for x in range(-2, 3):
        assert up_eval(Q, comp, Fraction(x)) == up_eval(Q, S, up_eval(Q, b, Fraction(x)))
    assert up_shift(Q, {}, Fraction(2), Fraction(1)) == {}
    assert up_shift(Q, {10 ** 8: Fraction(3)}, Fraction(-1), Q.zero) == {10 ** 8: Fraction(3)}
    assert up_mul(Q, D, D) == {2: Fraction(1), 1: Fraction(-2), 0: Fraction(1)}
    assert up_add(Q, P, {2: Fraction(-1)}) == {0: Fraction(-1)}
    assert up_to_str(Q, P, "u") == "1*u^2 + -1"


def test_field_from_name():
    assert isinstance(field_from_name("Q"), RationalField)
    assert field_from_name("Fp:7").p == 7
    with pytest.raises(UnsupportedFieldError):
        field_from_name("Fp:10")
    with pytest.raises(UnsupportedFieldError):
        field_from_name("R")
