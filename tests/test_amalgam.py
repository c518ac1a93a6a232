import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from planeaut import (
    AffineFactor,
    AmalgamWord,
    Endo,
    FieldExtensionRequiredError,
    HenonForm,
    InfinityPoint,
    JonquieresFactor,
    NotInvertibleError,
    NotSpecialError,
    PlaneAut,
    PrimeField,
    RationalField,
    SJRepresentative,
    factor_to_plane_aut,
    henon_invariants,
    henon_normalize,
    image_point_at_infinity,
    indeterminacy_point,
    jvdk_factor,
    parse_automorphism,
    plane_aut_from_endo,
    reduce_word,
)
from planeaut.amalgam import _cyclic_reduction
from conftest import (
    SEED,
    affine_image_at_infinity,
    rand_affine,
    rand_jonquieres,
    rand_scalar,
    rand_word,
    restart_cyclic_reduction,
    restart_reduce_word,
    word_to_plane_aut,
)

Q = RationalField()
F5 = PrimeField(5)
FIELDS = [Q, PrimeField(2), PrimeField(3), F5]

ONE = Fraction(1)


def J(P, a=ONE, c=Fraction(0), ring=Q):
    return JonquieresFactor(ring, a, P, c)


def test_affine_determinant_check():
    with pytest.raises(NotSpecialError):
        AffineFactor(Q, Fraction(2), Fraction(0), Fraction(0), Fraction(1))
    rot = AffineFactor.rotation(Q)
    assert str(rot.to_endo()) == "(x2, -x1)"
    assert rot.compose(rot.inverse()).is_identity


def test_affine_inverse_and_infinity_action():
    rng = random.Random(7)
    for _ in range(10):
        A = rand_affine(rng, Q)
        assert A.compose(A.inverse()).is_identity
    rot = AffineFactor.rotation(Q)
    pt = InfinityPoint.normalize(Q, (Fraction(0), Fraction(1)))
    assert str(affine_image_at_infinity(rot, pt)) == "[0:1:0]"
    sh = AffineFactor.shear(Q, Fraction(3))
    pt2 = InfinityPoint.normalize(Q, (Fraction(1), Fraction(3)))
    assert str(affine_image_at_infinity(sh, pt2)) == "[0:1:0]"


def test_jonquieres_inverse_and_compose():
    rng = random.Random(11)
    for K in (Q, F5):
        for _ in range(10):
            j = rand_jonquieres(rng, K, rng.choice((1, 2, 3)))
            prod = j.compose(j.inverse())
            assert prod.is_identity
            k = rand_jonquieres(rng, K, 2)
            assert j.compose(k).to_endo() == j.to_endo().compose(k.to_endo())


def test_intersection_conversions():
    A = AffineFactor(Q, Fraction(2), Fraction(3), Fraction(0), Fraction(1, 2),
                     Fraction(1), Fraction(-1))
    j = A.as_jonquieres()
    assert j.to_endo() == A.to_endo()
    assert j.as_affine().to_endo() == A.to_endo()
    generic = AffineFactor.rotation(Q)
    with pytest.raises(NotInvertibleError):
        generic.as_jonquieres()


def test_word_recompose_order():
    """factors [F1, F2] recompose to F1 o F2: apply F2 first."""
    A = AffineFactor.rotation(Q)            # (x2, -x1)
    j = J({2: Fraction(-1)})                 # (x1 - x2^2, x2)
    word = AmalgamWord(Q, [A, j])
    henon = word.recompose()
    assert str(henon) == "(x2, x2^2 - x1)"


def test_reduce_word_merges_and_absorbs():
    j1 = J({3: ONE})
    j2 = J({2: ONE})
    A = AffineFactor.rotation(Q)
    # same-tag neighbors merge
    w = reduce_word(AmalgamWord(Q, [j1, j2, A]))
    assert len(w.factors) == 2 and w.factors[0].tag == "J"
    assert w.recompose() == AmalgamWord(Q, [j1, j2, A]).recompose()
    # intersection factors are absorbed into a triangular neighbor
    tri = AffineFactor(Q, Fraction(1), Fraction(2), Fraction(0), Fraction(1))
    w2 = reduce_word(AmalgamWord(Q, [A, tri, j1]))
    assert len(w2.factors) == 2
    assert w2.recompose() == AmalgamWord(Q, [A, tri, j1]).recompose()
    # identities are dropped
    w3 = reduce_word(AmalgamWord(Q, [A, JonquieresFactor.identity(Q), A.inverse()]))
    assert all(not f.is_identity for f in w3.factors) or len(w3.factors) == 1


@pytest.mark.parametrize("K", FIELDS, ids=repr)
def test_reduce_word_matches_the_restart_loop(K):
    """The stack passes give the restart loop's word factor for factor on
    4,000 seeded words with identities, cancelling pairs and SAff ∩ SJ
    factors of both tags."""
    rng = random.Random(f"{SEED}/reduce/{K!r}")
    lengths = set()
    for _ in range(4000):
        w = rand_word(rng, K, rng.randint(0, 12))
        out = reduce_word(w)
        assert out == restart_reduce_word(w), str(w)
        lengths.add(len(out))
    assert {0, 1, 2, 3, 4, 5} <= lengths


@pytest.mark.parametrize("K", FIELDS, ids=repr)
def test_cyclic_reduction_matches_the_restart_rotation(K):
    """Settling each rotation at its seam gives the word and conjugator of
    reducing the whole rotated word again, on seeded reduced words with
    Jacobian 1 and (but over F2) another.  A word's map is never expanded,
    so the map is a namespace of what _cyclic_reduction reads."""
    rng = random.Random(f"{SEED}/cyclic/{K!r}")
    rotated = 0
    for i in range(1500):
        word = reduce_word(rand_word(rng, K, rng.randint(2, 12)))
        c = K.one if i % 2 else rand_scalar(rng, K, nonzero=True)
        f = SimpleNamespace(ring=K, jac=c, word=word, reduction=None)
        out, conj = _cyclic_reduction(f)
        want, want_conj = restart_cyclic_reduction(word, c)
        assert out == want and conj == want_conj, (str(word), c)
        rotated += bool(conj)
    assert rotated > 300


def test_word_text():
    """The text of a factor word, tag and map of each factor."""
    word = plane_aut_from_endo(parse_automorphism("(x2, -x1 + x2^2)", Q)).word
    assert str(word) == "A:(-x2, x1) . J:(x2^2 - x1, -x2)"
    assert str(AmalgamWord(Q, [])) == "[identity]"


def test_jvdk_henon():
    f = parse_automorphism("(x2, -x1 + x2^2)", Q)
    word = jvdk_factor(f)
    assert [fac.tag for fac in word.factors] == ["A", "J"]
    assert word.recompose() == f


def test_jvdk_triangular_and_affine():
    tri = parse_automorphism("(x1 + x2^3 - 2*x2, x2 - 1)", Q)
    w = jvdk_factor(tri)
    assert w.recompose() == tri
    aff = parse_automorphism("(x2 + 1, -x1)", Q)
    w2 = jvdk_factor(aff)
    assert w2.recompose() == aff and len(w2.factors) == 1


def test_jvdk_needs_jacobian_one():
    e = parse_automorphism("(2*x1, x2)", Q)
    with pytest.raises(NotSpecialError):
        jvdk_factor(e)


def test_jvdk_conjugated_henon_degree_nine():
    """j^-1 h j with j = (x1+x2^3, x2): merged right J's give degree 9."""
    h = parse_automorphism("(-x2, x1 + x2^2)", Q)
    j = parse_automorphism("(x1 + x2^3, x2)", Q)
    jinv = parse_automorphism("(x1 - x2^3, x2)", Q)
    f = jinv.compose(h).compose(j)
    assert f.degree == 9
    word = jvdk_factor(f)
    assert word.recompose() == f
    degs = [fac.degree for fac in word.factors if fac.tag == "J"]
    assert sorted(degs) == [3, 3]


def test_plane_aut_from_endo_general_jacobian():
    e = parse_automorphism("(2*x1 + x2^2, x2)", Q)  # Jacobian 2
    aut = plane_aut_from_endo(e)
    assert aut.verify()
    with pytest.raises(NotInvertibleError):
        plane_aut_from_endo(parse_automorphism("(x1*x2, x2)", Q))
    with pytest.raises(NotInvertibleError):
        plane_aut_from_endo(parse_automorphism("(x1^2, x2)", Q))


def test_henon_normalize_henon_word():
    f = plane_aut_from_endo(parse_automorphism("(x2, -x1 + x2^2)", Q))
    h = henon_normalize(f)
    assert isinstance(h, HenonForm)
    assert h.word.factors[0].tag == "A" and h.word.factors[-1].tag == "J"
    rep = h.word.recompose()
    assert h.conjugator.compose(f).compose(h.conjugator.inverse()).fwd == rep


def test_henon_normalize_strips_conjugation():
    h = parse_automorphism("(-x2, x1 + x2^2)", Q)
    j = parse_automorphism("(x1 + x2^3, x2)", Q)
    jinv = parse_automorphism("(x1 - x2^3, x2)", Q)
    f = plane_aut_from_endo(jinv.compose(h).compose(j))
    out = henon_normalize(f)
    assert isinstance(out, HenonForm)
    assert henon_invariants(out) == (2,)
    rep = out.word.recompose()
    assert out.conjugator.compose(f).compose(out.conjugator.inverse()).fwd == rep


def test_henon_normalize_triangular():
    f = plane_aut_from_endo(parse_automorphism("(2*x1 + x2^3, 1/2*x2)", Q))
    out = henon_normalize(f)
    assert isinstance(out, SJRepresentative)
    assert out.conjugator.compose(f).compose(out.conjugator.inverse()).fwd == \
        factor_to_plane_aut(out.factor).fwd


def test_henon_normalize_diagonalizes_affine_over_f5():
    f = plane_aut_from_endo(parse_automorphism("(x2, -x1)", F5))
    out = henon_normalize(f)
    assert isinstance(out, SJRepresentative)
    rep = factor_to_plane_aut(out.factor)
    assert out.conjugator.compose(f).compose(out.conjugator.inverse()).fwd == rep.fwd
    assert str(rep.fwd) == "(2*x1 + 4*x2, 3*x2)"


def test_henon_normalize_rotation_needs_extension_over_q():
    f = plane_aut_from_endo(parse_automorphism("(x2, -x1)", Q))
    with pytest.raises(FieldExtensionRequiredError):
        henon_normalize(f)


def test_henon_invariants_cyclic_min():
    rot = AffineFactor.rotation(F5)
    j3 = JonquieresFactor(F5, 1, {3: 1, 1: 2}, 0)
    j2 = JonquieresFactor(F5, 2, {2: 1}, 1)
    aut = word_to_plane_aut(AmalgamWord(F5, [rot, j3, rot, j2]))
    out = henon_normalize(aut)
    assert isinstance(out, HenonForm)
    assert henon_invariants(out) == (2, 3)


def test_henon_word_infinity_identities():
    """deg = product of J-degrees; I = [0:1:0]; X = a_m([0:1:0])."""
    rot = AffineFactor.rotation(F5)
    j3 = JonquieresFactor(F5, 1, {3: 1, 0: 4}, 2)
    j2 = JonquieresFactor(F5, 3, {2: 2}, 0)
    aut = word_to_plane_aut(AmalgamWord(F5, [rot, j3, rot, j2]))
    out = henon_normalize(aut)
    w = out.word
    prod = 1
    for fac in w.factors:
        if fac.tag == "J":
            prod *= fac.degree
    e = w.recompose()
    assert e.degree == prod == 6
    pole = InfinityPoint.normalize(F5, (1, 0))
    assert indeterminacy_point(e) == pole
    # the image point of the word is where its leading affine sends the pole
    rep = word_to_plane_aut(w)
    assert image_point_at_infinity(rep) == affine_image_at_infinity(w.factors[0], pole)
