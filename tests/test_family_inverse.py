"""TFamily.inverse over K[t, 1/t] against the K(t) route it falls back to.

A family whose Jung-van der Kulk descent divides only by units of K[t, 1/t]
is inverted by plane_aut_from_endo over K[t, 1/t] itself; every other family
goes through _function_field_inverse, which factors over K(t).  That route is
the oracle here: both must give the same inverse, and the errors of
non-automorphisms keep their text."""
import random
from unittest import mock

import pytest

from planeaut import (
    Endo,
    FunctionField,
    LaurentRing,
    MultiPoly,
    NotInvertibleError,
    PrimeField,
    RationalField,
    TFamily,
    parse_automorphism,
    plane_aut_from_endo,
    pole_propagation_check,
    x_alpha,
)
from planeaut import degeneration
from planeaut.degeneration import _function_field_inverse, lift_endo
from conftest import SEED, rand_affine, rand_scalar

Q = RationalField()
F2 = PrimeField(2)
F5 = PrimeField(5)
F1000003 = PrimeField(1000003)

NON_TAME = "((1+t)*(x1 + x2^2) + x2, t*(x1 + x2^2) + x2)"


@pytest.fixture
def inversion_rings(monkeypatch):
    """The ring of every map plane_aut_from_endo factors for degeneration."""
    rings, factor = [], plane_aut_from_endo

    def spy(e):
        rings.append(e.ring)
        return factor(e)

    monkeypatch.setattr(degeneration, "plane_aut_from_endo", spy)
    return rings


def _diag(L, k):
    """(t^k x1, t^-k x2)."""
    one = L.base.one
    return Endo([MultiPoly(L, 2, {(1, 0): {k: one}}), MultiPoly(L, 2, {(0, 1): {-k: one}})])


def _shear(rng, L, j, d):
    """(x1 + c t^j x2^d, x2), c a nonzero scalar."""
    c = rand_scalar(rng, L.base, nonzero=True)
    return Endo([MultiPoly(L, 2, {(1, 0): L.one, (0, d): {j: c}}), MultiPoly.variable(L, 2, 1)])


def _families(K):
    """Seeded (family, units): A o (t^k x1, t^-k x2), k in +-1..3, A affine of
    any Jacobian, alone and composed with triangular Laurent factors on
    either side.  units says the descent divides by units of K[t, 1/t] only;
    it may not when a linear shear (d = 1) on the left adds a non-monomial
    to the leading coefficient of the first component."""
    rng = random.Random(f"{SEED}/families/{K!r}")
    L = LaurentRing(K)
    out = []
    for i, k in enumerate((1, -1, 2, -2, 3, -3)):
        scale = Endo([MultiPoly(K, 2, {(1, 0): rand_scalar(rng, K, nonzero=True)}),
                      MultiPoly.variable(K, 2, 1)])
        A = lift_endo(rand_affine(rng, K).to_endo().compose(scale), L)
        base = A.compose(_diag(L, k))
        d = 1 + i % 3
        left = _shear(rng, L, rng.randint(-3, 3), d)
        right = _shear(rng, L, rng.randint(-3, 3), rng.randint(1, 3))
        out += [(base, True), (left.compose(base), True), (base.compose(right), True),
                (left.compose(base).compose(right), d > 1)]
    return [(TFamily(e), units) for e, units in out]


@pytest.mark.parametrize("K", [Q, F2, F5, F1000003], ids=repr)
def test_laurent_inverse_matches_the_function_field_route(K, inversion_rings):
    L = LaurentRing(K)
    ident = Endo.identity(L, 2)
    for fam, units in _families(K):
        inversion_rings.clear()
        inv = fam.inverse().endo
        assert inversion_rings[0] == L
        if units:
            assert inversion_rings == [L], str(fam)
        assert inv == _function_field_inverse(fam), str(fam)
        assert fam.endo.compose(inv) == ident and inv.compose(fam.endo) == ident


@pytest.mark.parametrize("K", [Q, F5], ids=repr)
def test_non_unit_descent_falls_back_to_the_function_field(K, inversion_rings):
    fam = parse_automorphism(NON_TAME, K)
    oracle = _function_field_inverse(parse_automorphism(NON_TAME, K))
    inversion_rings.clear()
    inv = fam.inverse().endo
    assert inversion_rings == [LaurentRing(K), FunctionField(K)]
    assert inv == oracle
    want = {Q: "(-t^2*x1^2 + (2*t^2 + 2*t)*x1*x2 + (-t^2 - 2*t - 1)*x2^2 + x1 - x2, "
               "-t*x1 + (t + 1)*x2)",
            F5: "(4*t^2*x1^2 + (2*t^2 + 2*t)*x1*x2 + (4*t^2 + 3*t + 4)*x2^2 + x1 + 4*x2, "
                "4*t*x1 + (t + 1)*x2)"}
    assert str(inv) == want[K]


@pytest.mark.parametrize("K", [Q, F5], ids=repr)
@pytest.mark.parametrize("src,text", [
    ("((1+t)*x1, x2)", "inverse leaves K[t,1/t]; not a family automorphism"),
    ("(x1 + t*x2^2, x2 + x1^2)", "Jacobian determinant is not a nonzero constant"),
], ids=["non-unit-jacobian", "non-constant-jacobian"])
def test_non_automorphism_errors_keep_their_text(K, src, text):
    with pytest.raises(NotInvertibleError) as exc:
        parse_automorphism(src, K).inverse()
    assert str(exc.value) == text


def test_family_inversion_needs_the_plane():
    with pytest.raises(NotInvertibleError) as exc:
        parse_automorphism("(t*x1)", Q).inverse()
    assert str(exc.value) == "generic family inversion is implemented for the plane"


@pytest.mark.parametrize("K", [Q, F5], ids=repr)
def test_pole_checks_of_affine_families_never_reach_the_function_field(K):
    """The benchmark's family shape, A o (t^k x1, t^-k x2): inverting it for
    the pole propagation check divides only by units of K[t, 1/t]."""
    def refuse(*args):
        raise AssertionError("a K(t) value normalized")

    f = plane_aut_from_endo(parse_automorphism("(x2, -x1 + x2^2 + 1)", K))
    src = "((2)*t^2*x1 + (3)*t^-2*x2 + (1), (1)*t^2*x1 + (2)*t^-2*x2 + (4))"
    with mock.patch.object(FunctionField, "_norm", refuse):
        alpha = parse_automorphism(src, K)
        xs = x_alpha(alpha)
        rep = pole_propagation_check(f, alpha)
    two_thirds = K.mul(K.from_int(2), K.invert(K.from_int(3)))
    assert [str(p) for p in xs.points] == [f"[0:1:{K.to_str(two_thirds)}]"]    # [0:b:d]
    assert rep.hypothesis_met and rep.implication_holds and rep.dichotomy_holds
    assert alpha.compose(alpha.inverse()).endo == Endo.identity(alpha.ring, 2)
