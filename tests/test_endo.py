from fractions import Fraction

import pytest

from planeaut import (
    Endo,
    FieldExtensionRequiredError,
    InfinityPoint,
    MultiPoly,
    NoIndeterminacyError,
    PlaneAut,
    PrimeField,
    RationalField,
    degree_sequence,
    image_point_at_infinity,
    indeterminacy_point,
    is_algebraic,
    is_dynamically_regular,
    parse_automorphism,
)
from planeaut.rings import power

from conftest import degree_multiplicativity_test

Q = RationalField()


def henon(ring=Q, d=2):
    """(x2, -x1 + x2^d) with inverse (x2^d - x1... ) built from the formula."""
    one = ring.one
    fwd = Endo([MultiPoly(ring, 2, {(0, 1): one}),
                MultiPoly(ring, 2, {(1, 0): ring.neg(one), (0, d): one})])
    inv = Endo([MultiPoly(ring, 2, {(d, 0): one, (0, 1): ring.neg(one)}),
                MultiPoly(ring, 2, {(1, 0): one})])
    return PlaneAut(fwd, inv)


def test_compose_and_power():
    f = henon()
    ident = PlaneAut.identity(Q)
    assert f.compose(f.inverse()) == ident
    assert f.power(3).fwd == f.fwd.compose(f.fwd).compose(f.fwd)
    assert f.power(-2).fwd == f.inverse().power(2).fwd


def test_verify_rejects_wrong_inverse():
    f = henon()
    g = parse_automorphism("(x1 + x2^2, x2)", Q)
    from planeaut.errors import NotInvertibleError
    with pytest.raises(NotInvertibleError):
        PlaneAut(f.fwd, g)


def test_indeterminacy_henon():
    f = henon()
    assert indeterminacy_point(f.fwd) == InfinityPoint.normalize(Q, (Fraction(1), Fraction(0)))
    assert indeterminacy_point(f.inv) == InfinityPoint.normalize(Q, (Fraction(0), Fraction(1)))
    assert str(indeterminacy_point(f.fwd)) == "[0:1:0]"


def test_indeterminacy_needs_degree_two():
    aff = parse_automorphism("(x2, -x1)", Q)
    with pytest.raises(NoIndeterminacyError):
        indeterminacy_point(aff)


def test_indeterminacy_char_p_compression():
    F2 = PrimeField(2)
    # top form of first comp is x1^2 + x2^2 = (x1 + x2)^2 over F2
    e = parse_automorphism("(x1^2 + x2^2 + x1, x2)", F2)
    pt = indeterminacy_point(e)
    assert pt == InfinityPoint.normalize(F2, (1, 1))


def test_image_point():
    f = henon()
    x_pt = image_point_at_infinity(f)
    assert str(x_pt) == "[0:0:1]"


def test_degree_sequence_three_vars():
    f = parse_automorphism("(x1+x2^2, x2+x3^2, x3)", Q)
    assert degree_sequence(f, 4) == [2, 4, 4, 4]


def test_degree_multiplicativity():
    f = henon()
    rep = degree_multiplicativity_test(f, f)
    assert rep.multiplicative and rep.point_test is True and rep.consistent()
    g = parse_automorphism("(x1 + x2^3, x2)", Q)
    aut = PlaneAut(g, parse_automorphism("(x1 - x2^3, x2)", Q))
    rep2 = degree_multiplicativity_test(aut, aut.inverse())
    assert not rep2.multiplicative and rep2.consistent()


def test_algebraic_vs_regular():
    f = henon()
    assert not is_algebraic(f)
    assert is_dynamically_regular(f)
    g = parse_automorphism("(x1 + x2^3, x2)", Q)
    aut = PlaneAut(g, parse_automorphism("(x1 - x2^3, x2)", Q))
    assert is_algebraic(aut)
    assert not is_dynamically_regular(aut)
    assert not is_dynamically_regular(PlaneAut.identity(Q))


def test_closed_form_iterates():
    """f = (x1+x2^2, x2+x3^2, x3): the n-th iterate in closed form."""
    f = parse_automorphism("(x1+x2^2, x2+x3^2, x3)", Q)
    for n in range(1, 6):
        sq = sum(i * i for i in range(1, n))
        expected = parse_automorphism(
            f"({n}*x2^2 + {n * (n - 1)}*x2*x3^2 + {sq}*x3^4 + x1,"
            f" {n}*x3^2 + x2, x3)", Q)
        assert power(f, n, Endo.compose, Endo.identity(Q, 3)) == expected
