import random
from fractions import Fraction

import pytest

from planeaut import (
    AffineFactor,
    AmalgamWord,
    Endo,
    FieldExtensionRequiredError,
    InfinityPoint,
    JonquieresFactor,
    LaurentRing,
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

from conftest import (
    SEED,
    degree_multiplicativity_test,
    rand_affine,
    rand_jonquieres,
    rand_scalar,
    two_sided_composition,
)

Q = RationalField()
F5 = PrimeField(5)


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


def _laurent_factors(rng, L):
    """An affine and a triangular factor over L = K[t, 1/t], with unit
    scalars c t^k and two-term coefficients elsewhere."""
    K = L.base

    def unit():
        return L.term(rng.randint(-2, 2), rand_scalar(rng, K, nonzero=True))

    u = unit()
    a = AffineFactor(L, u, L.add(unit(), unit()), L.zero, L.invert(u), unit(), L.add(unit(), unit()))
    j = JonquieresFactor(L, unit(), {rng.choice((2, 3)): unit(), 1: L.add(unit(), unit())}, unit())
    return a.compose(AffineFactor.rotation(L)), j


def _inverse_pairs(rng, K, count):
    """count (fwd, inv) automorphism pairs over K: seeded words A J, J of
    degree 2 or 3, or A J A' J', J and J' of degree 2 (A J only over
    K[t, 1/t], where coefficients grow fast), recomposed with their inverse
    words, then over a field scaled by (c x1, x2), c a random Jacobian."""
    out = []
    for _ in range(count):
        if isinstance(K, LaurentRing):
            facs = list(_laurent_factors(rng, K))
        else:
            blocks = rng.choice((1, 2))
            facs = []
            for _ in range(blocks):
                facs += [rand_affine(rng, K), rand_jonquieres(rng, K, rng.choice((2, 4 - blocks)))]
        aut = AmalgamWord(K, facs).to_plane_aut()
        fwd, inv = aut.fwd, aut.inv
        if not isinstance(K, LaurentRing):
            c = rand_scalar(rng, K, nonzero=True)
            x1, x2 = (MultiPoly.variable(K, 2, i) for i in range(2))
            fwd = fwd.compose(Endo([x1.scale(c), x2]))
            inv = Endo([x1.scale(K.invert(c)), x2]).compose(inv)
        out.append((fwd, inv))
    return out


def _perturbed(rng, e):
    """e with one coefficient changed by one: of a term of e, or of a new
    monomial of degree <= deg e."""
    K = e.ring
    i = rng.randrange(2)
    terms = dict(e.comps[i].terms)
    if terms and rng.random() < 0.5:
        mono = rng.choice(sorted(terms))
    else:
        d = rng.randint(0, e.degree)
        mono = (rng.randint(0, d), 0)
        mono = (mono[0], d - mono[0])
    terms[mono] = K.add(terms.get(mono, K.zero), K.one)
    comps = list(e.comps)
    comps[i] = MultiPoly(K, 2, terms)
    return Endo(comps)


@pytest.mark.parametrize("K", [Q, PrimeField(2), F5, LaurentRing(F5)], ids=repr)
def test_is_inverse_matches_two_sided_composition(K):
    """One composition decides what two did, on accepted inverses, on
    inverses with one coefficient perturbed, and with the two maps in either
    order."""
    rng = random.Random(f"{SEED}/is_inverse/{K!r}")
    count = 10 if isinstance(K, LaurentRing) else 30
    verdicts = []
    for fwd, inv in _inverse_pairs(rng, K, count):
        for g in (inv, _perturbed(rng, inv)):
            for a, b in ((fwd, g), (g, fwd)):
                verdicts.append(a.is_inverse(b))
                assert verdicts[-1] == two_sided_composition(a, b), (str(a), str(b))
    assert verdicts.count(True) == verdicts.count(False) == 2 * count
    f = parse_automorphism("(x1 + x2^2, x2 + x3^2, x3)", Q)
    g = parse_automorphism("(x1 - (x2 - x3^2)^2, x2 - x3^2, x3)", Q)
    assert f.is_inverse(g) and g.is_inverse(f) and not f.is_inverse(f)
