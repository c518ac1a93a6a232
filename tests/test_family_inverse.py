"""degeneration._family_aut over K[t, 1/t]: the descent against the formal inverse.

A family whose Jung-van der Kulk descent divides only by units of K[t, 1/t]
is inverted by plane_aut_from_endo over K[t, 1/t] itself; every other family
goes through _formal_inverse, the truncated formal inverse, which divides
only by the Jacobian.  Both compute the family's inverse over the function
field K(t), which is unique, so they must agree; the specializations
t = c, c in K*, inverted over K, are the independent oracle.  The errors of
non-automorphisms keep their text."""
import random
import time
from unittest import mock

import pytest

from planeaut import (
    Endo,
    LaurentRing,
    MultiPoly,
    NotInvertibleError,
    PrimeField,
    RationalField,
    parse_automorphism,
    plane_aut_from_endo,
    pole_propagation_check,
    specialize,
    x_alpha,
)
from planeaut import degeneration
from planeaut.degeneration import _SPECIALIZATIONS, _formal_inverse, lift_endo
from conftest import SEED, rand_affine, rand_scalar

Q = RationalField()
F2 = PrimeField(2)
F5 = PrimeField(5)
F1000003 = PrimeField(1000003)

NON_TAME = "((1+t)*(x1 + x2^2) + x2, t*(x1 + x2^2) + x2)"


@pytest.fixture
def inversion_route(monkeypatch):
    """The ring of every map plane_aut_from_endo factors for degeneration,
    and "formal" for every _formal_inverse call; the formal inverse first
    factors the family over K at t = a for the first _SPECIALIZATIONS
    elements a of K*, and stops at the first that fails."""
    route, factor, formal = [], plane_aut_from_endo, _formal_inverse

    def spy_factor(e):
        route.append(e.ring)
        return factor(e)

    def spy_formal(e):
        route.append("formal")
        return formal(e)

    monkeypatch.setattr(degeneration, "plane_aut_from_endo", spy_factor)
    monkeypatch.setattr(degeneration, "_formal_inverse", spy_formal)
    return route


def _formal_route(K, points=_SPECIALIZATIONS):
    """The route of a formal inverse that factors the family at points
    elements of K*, or at all of them when K* is smaller."""
    return ["formal"] + [K] * (min(points, K.p - 1) if K.is_finite else points)


def _assert_specializations_invert(fam, inv):
    """inv(c) is the inverse of fam(c), inverted over K, for c in K*."""
    K = fam.ring.base
    for c in {K.from_int(n) for n in (1, 2, 3)} - {K.zero}:
        want = plane_aut_from_endo(specialize(fam, c)).inv
        assert specialize(inv, c) == want, (str(fam), c)


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
    return out


@pytest.mark.parametrize("K", [Q, F2, F5, F1000003], ids=repr)
def test_laurent_inverse_matches_the_function_field_route(K, inversion_route):
    """Both routes to the inverse over K(t) agree on every seeded family."""
    L = LaurentRing(K)
    ident = Endo.identity(L, 2)
    for fam, units in _families(K):
        inversion_route.clear()
        inv = degeneration._family_aut(fam).inv
        assert inversion_route in ([L], [L, *_formal_route(K)]), str(fam)
        if units:
            assert inversion_route == [L], str(fam)
        assert inv == _formal_inverse(fam), str(fam)
        assert fam.compose(inv) == ident and inv.compose(fam) == ident
        _assert_specializations_invert(fam, inv)


@pytest.mark.parametrize("K", [Q, F5], ids=repr)
def test_non_unit_descent_falls_back_to_the_function_field(K, inversion_route):
    """The descent over K[t, 1/t] divides by a non-unit, so the inverse over
    K(t) comes from the formal inverse, and lies in K[t, 1/t]."""
    fam = parse_automorphism(NON_TAME, K)
    inv = degeneration._family_aut(fam).inv
    assert inversion_route == [LaurentRing(K), *_formal_route(K)]
    _assert_specializations_invert(fam, inv)
    want = {Q: "(-t^2*x1^2 + (2*t^2 + 2*t)*x1*x2 + (-t^2 - 2*t - 1)*x2^2 + x1 - x2, "
               "-t*x1 + (t + 1)*x2)",
            F5: "(4*t^2*x1^2 + (2*t^2 + 2*t)*x1*x2 + (4*t^2 + 3*t + 4)*x2^2 + x1 + 4*x2, "
                "4*t*x1 + (t + 1)*x2)"}
    assert str(inv) == want[K]


UNIT = "inverse leaves K[t,1/t]; not a family automorphism"
JACOBIAN = "Jacobian determinant is not a nonzero constant"
TOP_FORMS = "top forms not proportional; not an automorphism"


@pytest.mark.parametrize("K,src,text", [
    (Q, "((1+t)*x1, x2)", UNIT),
    (F5, "((1+t)*x1, x2)", UNIT),
    (Q, "(x1 + t*x2^2, x2 + x1^2)", JACOBIAN),
    (F5, "(x1 + t*x2^2, x2 + x1^2)", JACOBIAN),
    # Jacobian 1 in characteristic 5: the descent's error stands
    (F5, "(x1 + t*x1^5, x2)", TOP_FORMS),
    (F5, "(x1 + t*x1^5 + x2^2, x2 + x1^5)", "top degrees incompatible; not an automorphism"),
    (F5, "((1+t)*x1 + x2^5, x2)", UNIT),
], ids=["non-unit-jacobian-Q", "non-unit-jacobian-F5", "non-constant-jacobian-Q",
        "non-constant-jacobian-F5", "top-forms-F5", "top-degrees-F5", "non-unit-jacobian-p-F5"])
def test_non_automorphism_errors_keep_their_text(K, src, text):
    with pytest.raises(NotInvertibleError) as exc:
        degeneration._family_aut(parse_automorphism(src, K))
    assert str(exc.value) == text


@pytest.mark.parametrize("K", [Q, F5], ids=repr)
def test_formal_inverse_of_a_translated_family(K):
    """Degree 4, Jacobian 2t and F(0) != 0 in both components: G is
    truncated in the centred variables and shifted after, since terms above
    degree 4 there fall below 4 once shifted."""
    left = parse_automorphism("(t*x1 + t*x2^2 + 2, x2 + 1)", K)
    right = parse_automorphism("(2*x2 + 1, -x1 + t^-1*x2^2 + t)", K)
    e = left.compose(right)
    assert e.degree == 4
    assert all(p.constant_value() for p in e.comps)
    inv = _formal_inverse(e)
    ident = Endo.identity(e.ring, 2)
    assert e.compose(inv) == ident and inv.compose(e) == ident
    assert inv == plane_aut_from_endo(e).inv


def test_only_a_non_unit_division_reaches_the_formal_inverse(inversion_route):
    """Jacobian 1 over F5 and degree 30, no automorphism: the descent fails
    without dividing by a non-unit, so K(t) gives no inverse either and its
    error stands at once, without the formal inverse's 29 iterations."""
    fam = parse_automorphism("(x1 + t*(x1^5 + x2 + 1)^5, x2 + (x1 + x2^5 + 1)^6)", F5)
    with pytest.raises(NotInvertibleError) as exc:
        degeneration._family_aut(fam)
    assert str(exc.value) == "top degrees incompatible; not an automorphism"
    assert inversion_route == [LaurentRing(F5)]


@pytest.mark.parametrize("inner,points", [
    ("(x1 + (t - 1)*x1^5, x2)", 2),
    ("(x1 + t*(x1^5 + 1)^3, x2 + (x1 + x2^5)^2)", 1),
    ("(x1 + (t - 1)*(x1^5 + 1)^3, x2 + (t - 1)*(x1 + x2^5)^2)", 2),
], ids=["automorphism-at-1", "degree-20", "degree-20-automorphism-at-1"])
def test_failed_formal_inverse_keeps_the_descent_error(inner, points, inversion_route):
    """NON_TAME o inner over F5 has Jacobian 1 but is no automorphism: its
    descent divides by a non-unit of K[t, 1/t], and the formal inverse
    returns None, so the descent's error stands.  The first and the third
    are automorphisms at t = 1 and fail the descent at t = 2; the second
    fails at t = 1 already.  Each stops before the iteration, whose terms
    grow on it: the third did not finish in 60 s when only t = 1 was
    checked."""
    outer = parse_automorphism(NON_TAME, F5)
    fam = outer.compose(parse_automorphism(inner, F5))
    start = time.perf_counter()
    with pytest.raises(NotInvertibleError) as exc:
        degeneration._family_aut(fam)
    assert time.perf_counter() - start < 2
    assert str(exc.value) == "not a unit of K[t,1/t]"
    assert inversion_route == [LaurentRing(F5), *_formal_route(F5, points)]


def test_a_formal_inverse_that_fails_its_composition_keeps_the_descent_error(
        inversion_route, monkeypatch):
    """NON_TAME o (x1 + (t + 1) x1^2, x2) over F2 has Jacobian 1 and is an
    automorphism at t = 1, and its formal inverse has no term of degree
    deg + 1 (in characteristic 2, (x + a x^2)^-1 = x + a x^2 + a^3 x^4 + ...),
    so only the composition check rejects it; the descent's error stands."""
    composed, compose = [], Endo.compose

    def counted(self, other):
        composed.append(1)
        return compose(self, other)

    fam = parse_automorphism(NON_TAME, F2).compose(
        parse_automorphism("(x1 + (t + 1)*x1^2, x2)", F2))
    monkeypatch.setattr(Endo, "compose", counted)
    with pytest.raises(NotInvertibleError) as exc:
        degeneration._family_aut(fam)
    assert str(exc.value) == "not a unit of K[t,1/t]"
    assert inversion_route == [LaurentRing(F2), *_formal_route(F2)]
    assert composed


@pytest.mark.parametrize("inner", [
    "(x1 + (t + 1)*x1^2 + x2^3, x2 + (t + 1)*(x1 + x2)^2)",
    "(x1 + (t + 1)*x2^2 + x2^3, x2 + (t + 1)*x1^2)",
], ids=["square-of-x1", "square-of-x2"])
def test_formal_inverse_rejects_a_term_of_degree_d_plus_one(inner, monkeypatch):
    """NON_TAME o inner over F2 has Jacobian 1 and is an automorphism at
    t = 1, the only element of F2*, but no automorphism: its formal inverse
    has a term of degree deg + 1, which no inverse has (Bass, Connell and
    Wright), so it is rejected before any composition."""
    def refuse(*args):
        raise AssertionError("the formal inverse composed")

    outer = parse_automorphism(NON_TAME, F2)
    e = outer.compose(parse_automorphism(inner, F2))
    assert e.jacobian() == MultiPoly.const(e.ring, 2, e.ring.one)
    monkeypatch.setattr(Endo, "compose", refuse)
    assert _formal_inverse(e) is None


def test_family_inversion_needs_the_plane():
    with pytest.raises(NotInvertibleError) as exc:
        degeneration._family_aut(parse_automorphism("(t*x1)", Q))
    assert str(exc.value) == "generic family inversion is implemented for the plane"


@pytest.mark.parametrize("K", [Q, F5], ids=repr)
def test_each_family_inverse_is_built_once_and_keeps_its_word(K, inversion_route,
                                                              monkeypatch):
    """pole_propagation_check inverts a tame family by one plane_aut_from_endo
    over K[t, 1/t], which certifies the inverse along the factor word and
    keeps the word; NON_TAME is inverted by its formal inverse, with no word."""
    built, family_aut = [], degeneration._family_aut

    def recorded(e):
        built.append(family_aut(e))
        return built[-1]

    monkeypatch.setattr(degeneration, "_family_aut", recorded)
    f = plane_aut_from_endo(parse_automorphism("(x2, -x1 + x2^2 + 1)", K))
    alpha = parse_automorphism("(2*t^2*x1 + 3*t^-2*x2 + 1, t^2*x1 + 2*t^-2*x2 + 4)", K)
    pole_propagation_check(f, alpha)
    assert inversion_route == [LaurentRing(K)]
    assert len(built) == 1 and built[0].fwd is alpha and built[0].word is not None
    inversion_route.clear()
    aut = degeneration._family_aut(parse_automorphism(NON_TAME, K))
    assert inversion_route == [LaurentRing(K), *_formal_route(K)]
    assert aut.word is None


@pytest.mark.parametrize("K", [Q, F5], ids=repr)
def test_pole_checks_of_affine_families_never_reach_the_function_field(K):
    """The benchmark's family shape, A o (t^k x1, t^-k x2): inverting it for
    the pole propagation check divides only by units of K[t, 1/t], so the
    descent inverts it and the formal inverse never runs."""
    def refuse(*args):
        raise AssertionError("the formal inverse ran")

    f = plane_aut_from_endo(parse_automorphism("(x2, -x1 + x2^2 + 1)", K))
    src = "((2)*t^2*x1 + (3)*t^-2*x2 + (1), (1)*t^2*x1 + (2)*t^-2*x2 + (4))"
    with mock.patch.object(degeneration, "_formal_inverse", refuse):
        alpha = parse_automorphism(src, K)
        xs = x_alpha(alpha)
        rep = pole_propagation_check(f, alpha)
    two_thirds = K.mul(K.from_int(2), K.invert(K.from_int(3)))
    assert [str(p) for p in xs.points] == [f"[0:1:{K.to_str(two_thirds)}]"]    # [0:b:d]
    assert rep.hypothesis_met and rep.implication_holds and rep.dichotomy_holds
    aut = degeneration._family_aut(alpha)
    assert aut.compose(aut.inverse()).fwd == Endo.identity(alpha.ring, 2)
