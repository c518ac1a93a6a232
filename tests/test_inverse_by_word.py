"""plane_aut_from_endo certifies each inverse along the factor word.

amalgam._check_inverse_by_word walks e through the inverse factors to s_c
and s_c o inv through the factors, one factor at a time on the left, where
PlaneAut.verify composes fwd o inv and inv o fwd in full.  That old check,
conftest.two_sided_composition, is the oracle: every map the walk accepts
passes it, and a wrong inverse, a wrong factor inverse or a reversed
recomposition is rejected with the text the old check raised.

plane_aut_from_endo takes the Jacobian c from the linear part of the
descent's final affine map.  It differentiates up front only a family over
K[t, 1/t] of degree >= 2 or a map with fewer terms than its degree, and
otherwise only to choose the error of a rejected map;
conftest.jacobian_first_plane_aut, which multiplies the Jacobian out first,
is the oracle of its results and of its errors.
"""
import random
import time

import pytest

from conftest import (
    SEED,
    jacobian_first_plane_aut,
    rand_affine,
    rand_jonquieres,
    rand_scalar,
    two_sided_composition,
)
from planeaut import (
    AffineFactor,
    AmalgamWord,
    Endo,
    JonquieresFactor,
    LaurentRing,
    MultiPoly,
    NotInvertibleError,
    NotSpecialError,
    PlaneAut,
    PrimeField,
    RationalField,
    jvdk_factor,
    parse_automorphism,
    plane_aut_from_endo,
)
from planeaut.amalgam import _check_inverse_by_word
from planeaut.degeneration import lift_endo
from planeaut.errors import NonUnitError
from planeaut.poly import compose_chain

Q = RationalField()
F2, F5, F1000003 = PrimeField(2), PrimeField(5), PrimeField(1000003)
FIELDS = [Q, F2, F5, F1000003]
NOT_INVERSE = "forward and inverse do not compose to the identity"
MAPS_PER_FIELD = 16


def _scale(K, c):
    """s_c = (c x1, x2)."""
    return Endo([MultiPoly(K, 2, {(1, 0): c}), MultiPoly.variable(K, 2, 1)])


def _sample_map(rng, K):
    """recompose(w) o s_c for a word w of 1-4 alternating factors, triangular
    ones of degree 2 (or 3 over F_p), and c != 1 in a third of the maps."""
    facs, tag = [], rng.choice("AJ")
    for _ in range(rng.randint(1, 4)):
        facs.append(rand_affine(rng, K) if tag == "A" else
                    rand_jonquieres(rng, K, rng.choice((2, 3) if K.characteristic else (2,))))
        tag = "J" if tag == "A" else "A"
    e = AmalgamWord(K, facs).recompose()
    if rng.random() < 0.3:
        e = e.compose(_scale(K, rand_scalar(rng, K, nonzero=True)))
    return e


def _families(K):
    """A o (t^k x1, t^-k x2) over K[t, 1/t], A affine of any Jacobian, alone
    and followed by (x1 + c t^j x2^d, x2): the benchmark's family shape,
    which the descent inverts over K[t, 1/t]."""
    rng = random.Random(f"{SEED}/word-families/{K!r}")
    L = LaurentRing(K)
    one, out = K.one, []
    for k in (1, -1, 2, -2, 3, -3):
        A = lift_endo(rand_affine(rng, K).to_endo().compose(
            _scale(K, rand_scalar(rng, K, nonzero=True))), L)
        diag = Endo([MultiPoly(L, 2, {(1, 0): {k: one}}), MultiPoly(L, 2, {(0, 1): {-k: one}})])
        shear = Endo([MultiPoly(L, 2, {(1, 0): L.one,
                                       (0, rng.randint(1, 3)): {rng.randint(-3, 3): one}}),
                      MultiPoly.variable(L, 2, 1)])
        out += [A.compose(diag), A.compose(diag).compose(shear)]
    return out


def _corpus(K):
    rng = random.Random(f"{SEED}/word-check/{K!r}")
    return [_sample_map(rng, K) for _ in range(MAPS_PER_FIELD)] + _families(K)


def _terms(e):
    return sum(len(p.terms) for p in e.comps)


def _sparse_corpus(K):
    """Automorphisms with fewer terms than their degree, three per kind:
    A o J o s_c with J = (x1 + a x2^d, x2), d in 10..40, A affine and
    s_c = (c x1, x2); A o J2 o (x2, -x1) o J o s_c with J2 = (x1 + b x2^2,
    x2), of degree 2d; over F2 and F5, A o (x1 + a x2^q, x2) o B with q = 32
    or 25 and B affine, where x2^q o B has three terms; and
    A o (t^k x1, t^-k x2) o (x1 + t^j x2^d, x2) over K[t, 1/t]."""
    rng = random.Random(f"{SEED}/sparse/{K!r}")
    L, x2 = LaurentRing(K), MultiPoly.variable(K, 2, 1)
    rotation = AffineFactor.rotation(K).to_endo()
    out = []
    for _ in range(3):
        A = rand_affine(rng, K).to_endo()
        J = Endo([MultiPoly.variable(K, 2, 0) + (x2 ** rng.randint(10, 40)).scale(
            rand_scalar(rng, K, nonzero=True)), x2])
        s = _scale(K, rand_scalar(rng, K, nonzero=True))
        J2 = JonquieresFactor.elementary(K, {2: rand_scalar(rng, K, nonzero=True)}).to_endo()
        out += [A.compose(J).compose(s), A.compose(J2).compose(rotation).compose(J).compose(s)]
        if K.characteristic in (2, 5):
            q = {2: 32, 5: 25}[K.characteristic]
            frobenius = JonquieresFactor.elementary(K, {q: rand_scalar(rng, K, nonzero=True)})
            out.append(A.compose(frobenius.to_endo()).compose(rand_affine(rng, K).to_endo()))
        k = rng.choice((1, -1, 2, -2))
        diag = Endo([MultiPoly(L, 2, {(1, 0): {k: K.one}}), MultiPoly(L, 2, {(0, 1): {-k: K.one}})])
        shear = Endo([MultiPoly(L, 2, {(1, 0): L.one,
                                       (0, rng.randint(10, 30)): {rng.randint(-3, 3): K.one}}),
                      MultiPoly.variable(L, 2, 1)])
        out.append(lift_endo(A, L).compose(diag).compose(shear))
    assert all(e.degree > _terms(e) for e in out)
    return out


@pytest.mark.parametrize("K", FIELDS, ids=repr)
def test_every_accepted_map_passes_the_two_sided_composition(K, monkeypatch):
    """Seeded maps over K and families over K[t, 1/t]: plane_aut_from_endo
    never calls PlaneAut.verify, and each map it accepts passes the old
    check; the walk accepts the map's own inverse and word."""
    def refuse(self):
        raise AssertionError("PlaneAut.verify ran")

    for e in _corpus(K):
        with monkeypatch.context() as m:
            m.setattr(PlaneAut, "verify", refuse)
            aut = plane_aut_from_endo(e)
        assert two_sided_composition(aut.fwd, aut.inv), str(e)
        _check_inverse_by_word(e, aut.inv, aut.word, aut.jac)


@pytest.mark.parametrize("K", FIELDS, ids=repr)
def test_one_wrong_coefficient_in_the_inverse_is_rejected(K):
    """Each coefficient of inv, in turn, plus one: the old check fails, and
    the walk raises its text."""
    for e in _corpus(K)[:6]:
        aut = plane_aut_from_endo(e)
        R = e.ring
        for i, comp in enumerate(aut.inv.comps):
            for exps, v in comp.terms.items():
                terms = dict(comp.terms)
                terms[exps] = R.add(v, R.one)
                comps = list(aut.inv.comps)
                comps[i] = MultiPoly(R, 2, terms)
                bad = Endo(comps)
                assert not two_sided_composition(e, bad)
                with pytest.raises(NotInvertibleError) as exc:
                    _check_inverse_by_word(e, bad, aut.word, aut.jac)
                assert str(exc.value) == NOT_INVERSE


@pytest.mark.parametrize("K", FIELDS, ids=repr)
def test_the_word_and_inverse_of_another_map_are_rejected(K):
    """The word and inverse of f, checked against g: s_c o inv walks to the
    identity through f's word, and only the walk of g through f's inverse
    factors can tell."""
    maps = [plane_aut_from_endo(e) for e in _corpus(K)[:8]]
    pairs = [(f, g) for f, g in zip(maps, maps[1:]) if f.fwd != g.fwd and K.eq(f.jac, g.jac)]
    assert len(pairs) >= 3
    for f, g in pairs:
        _check_inverse_by_word(f.fwd, f.inv, f.word, f.jac)
        with pytest.raises(NotInvertibleError) as exc:
            _check_inverse_by_word(g.fwd, f.inv, f.word, f.jac)
        assert str(exc.value) == NOT_INVERSE


@pytest.mark.parametrize("K", [Q, F5], ids=repr)
@pytest.mark.parametrize("src", ["(t*x1 + x2^2, 1/t*x2)", "(t*x1 + x2, 1/t*x2)"],
                         ids=["walk", "matrix"])
def test_a_wrong_non_unit_jacobian_is_rejected_alike_on_both_paths(K, src):
    """A family of Jacobian 1 checked against c = 1 + t, a non-unit of
    K[t, 1/t]: e walked through the inverse factors is compared with s_c,
    not divided by c, so the walk (degree 2) raises what the 2x3 matrix
    product (degree 1) raises, NotInvertibleError and not NonUnitError."""
    e = parse_automorphism(src, K)
    aut = plane_aut_from_endo(e)
    assert isinstance(e.ring, LaurentRing) and e.ring.eq(aut.jac, e.ring.one)
    with pytest.raises(NotInvertibleError) as exc:
        _check_inverse_by_word(e, aut.inv, aut.word, {0: K.one, 1: K.one})
    assert type(exc.value) is NotInvertibleError and str(exc.value) == NOT_INVERSE


def _shifted_inverse(cls, build):
    """cls.inverse followed by the translation (x1 + 1, x2) or (x1, x2 + 1)."""
    inverse = cls.inverse

    def wrong(self):
        return build(inverse(self))
    return wrong


MUTATIONS = {
    "jonquieres-inverse": (JonquieresFactor, "inverse", _shifted_inverse(
        JonquieresFactor, lambda g: JonquieresFactor(g.ring, g.a, g.P, g.ring.add(g.c, g.ring.one)))),
    "affine-inverse": (AffineFactor, "inverse", _shifted_inverse(
        AffineFactor, lambda g: AffineFactor(g.ring, g.a, g.b, g.c, g.d,
                                             g.ring.add(g.e, g.ring.one), g.f))),
    "reversed-recompose": (AmalgamWord, "recompose", lambda self: Endo(compose_chain(
        Endo.identity(self.ring, 2).comps, [fac.term_dicts() for fac in self.factors]))),
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
@pytest.mark.parametrize("K", [Q, F5], ids=repr)
def test_mutations_of_the_inverse_are_rejected(K, name, monkeypatch):
    """A wrong factor inverse or a recomposition in the reversed order makes
    a wrong word or a wrong inverse: plane_aut_from_endo rejects the map."""
    cls, attr, mutant = MUTATIONS[name]
    henon = parse_automorphism("(x2, -x1 + x2^2 + 1)", K)
    cubic = parse_automorphism("(x2 + 1, -x1 + x2^3 + 2*x2)", K)
    shear = parse_automorphism("(x1, x2 + 2*x1 + 3)", K)
    maps = [henon, henon.compose(cubic),
            shear.compose(parse_automorphism("(x1 + x2^3 + 2*x2, x2 + 1)", K))]
    for e in maps:
        plane_aut_from_endo(e)
    monkeypatch.setattr(cls, attr, mutant)
    for e in maps:
        with pytest.raises(NotInvertibleError) as exc:
            plane_aut_from_endo(e)
        assert str(exc.value) == NOT_INVERSE, str(e)


def test_a_hostile_inverse_or_word_fails_before_its_degree_is_built(compose_spy):
    """A degree-2 map with an inverse of degree 80, or with a one-factor
    word of degree 60: the old check would substitute degree-80 arguments,
    and the walk would raise a degree-2 map to the 60th power.  Each walk
    stops before a step above degree 2 is built, so the work stays bounded
    at any hostile degree."""
    e = parse_automorphism("(x2, -x1 + x2^2 + 1)", Q)
    aut = plane_aut_from_endo(e)
    x2 = MultiPoly.variable(Q, 2, 1)
    hostile_inv = Endo([aut.inv.comps[0], aut.inv.comps[1] + x2 ** 80])
    hostile_word = AmalgamWord(Q, [JonquieresFactor.elementary(Q, {60: Q.one})])
    compose_spy.clear()
    for inv, word in ((hostile_inv, aut.word), (aut.inv, hostile_word)):
        with pytest.raises(NotInvertibleError) as exc:
            _check_inverse_by_word(e, inv, word, aut.jac)
        assert str(exc.value) == NOT_INVERSE
    assert max(compose_spy, default=0) <= e.degree
    start = time.perf_counter()
    huge = AmalgamWord(Q, [JonquieresFactor.elementary(Q, {10 ** 6: Q.one})])
    with pytest.raises(NotInvertibleError):
        _check_inverse_by_word(e, aut.inv, huge, aut.jac)
    assert time.perf_counter() - start < 1


def test_a_degree_8_map_builds_nothing_above_degree_8(compose_spy):
    """The old check on a degree-8 map over Q substitutes degree-8 arguments
    into degree-8 maps (degree 64 before the terms cancel); factoring and
    certifying the map builds nothing above degree 8."""
    e = parse_automorphism("(x1 + x2, x2)", Q).compose(
        parse_automorphism("(x2, -x1 + x2^2)", Q)).compose(
        parse_automorphism("(x2, -x1 + x2^4 + x2)", Q)).compose(
        parse_automorphism("(x1, x1 + x2)", Q))
    assert [p.degree for p in e.comps] == [8, 8]
    compose_spy.clear()
    aut = plane_aut_from_endo(e)
    assert [p.degree for p in aut.inv.comps] == [8, 8]
    assert compose_spy and max(compose_spy) <= 8
    compose_spy.clear()
    assert two_sided_composition(aut.fwd, aut.inv)
    assert max(compose_spy) == 64


# -- c from the descent, the Jacobian only for the error --------------------

def _counted_jacobians(monkeypatch):
    calls, differentiate = [], Endo.jacobian

    def counted(self):
        calls.append(self)
        return differentiate(self)

    monkeypatch.setattr(Endo, "jacobian", counted)
    return calls


@pytest.mark.parametrize("K", FIELDS, ids=repr)
def test_accepted_maps_match_the_jacobian_first_oracle(K, monkeypatch):
    """Seeded maps over K, about a third of them of Jacobian != 1, and
    families over K[t, 1/t], all with at least as many terms as their
    degree, and sparser automorphisms over both: plane_aut_from_endo
    differentiates none of the maps over K with at least as many terms as
    their degree and none of the families of degree 1, and every other map
    once, up front; all give the oracle's fwd, inv, jac and word."""
    corpus = _corpus(K)
    assert all(e.degree <= _terms(e) for e in corpus)
    expected = [jacobian_first_plane_aut(e) for e in corpus]
    # F2* = {1}
    assert K is F2 or sum(not e.ring.eq(a.jac, e.ring.one)
                          for e, a in zip(corpus, expected)) >= len(corpus) // 4
    sparse = _sparse_corpus(K)
    expected_sparse = [jacobian_first_plane_aut(e) for e in sparse]
    calls = _counted_jacobians(monkeypatch)
    for e, old in zip(corpus + sparse, expected + expected_sparse):
        aut = plane_aut_from_endo(e)
        assert (aut.fwd, aut.inv, aut.word) == (old.fwd, old.inv, old.word), str(e)
        assert e.ring.eq(aut.jac, old.jac)
        first = (isinstance(e.ring, LaurentRing) and e.degree >= 2) or e.degree > _terms(e)
        assert len(calls) == first, str(e)
        calls.clear()


def _perturbed(rng, e):
    """e plus a term of degree 2 or 3 in one component, with a coefficient
    c t^k over K[t, 1/t]."""
    R, i, comps = e.ring, rng.randrange(2), list(e.comps)
    exps = rng.choice(((2, 0), (1, 1), (0, 2), (2, 1), (1, 2)))
    if isinstance(R, LaurentRing):
        c = {rng.randint(-2, 2): rand_scalar(rng, R.base, nonzero=True)}
    else:
        c = rand_scalar(rng, R, nonzero=True)
    comps[i] = comps[i] + MultiPoly(R, 2, {exps: c})
    return Endo(comps)


REJECTED = {
    Q: ["(x1 + x2^2, x2 + x1^2)", "(x1^2, x2)", "(x1 + x2, x1 + x2)",
        "((x1 + x2)^2, (x1 + x2)^3)", "(0, x2)", "(1, 2)", "(0, 0)",
        "(x1)", "(x1^2)", "(x1, x2, x3)", "(x2^2, x1^3 + x2)", "(x1 + x2^3, x2 + x1^2)"],
    F2: ["(x1 + x1^2, x2)", "(x1^2 + x1, x2^2 + x2)", "(x1 + x2^2, x1 + x2^2)"],
    F5: ["(x1 + x1^5, x2)", "(x1 + x1^5 + x2^5, x2 + x1^10)", "(x1 + x2^2, x2 + x1^2)"],
    F1000003: ["(x1 + x2^2, 2*x2 + x1^2)", "(0, x1 + x2)"],
}
REJECTED_FAMILIES = {
    Q: ["((1+t)*x1, x2)", "((1+t)*x1 + x2^2, x2)", "((1+t)*(x1 + x2^2) + x2, t*(x1 + x2^2) + x2)",
        "(t*x1 + x2^2, x2 + x1^2)", "(0*x1 + t, x2)"],
    F2: ["((1+t)*(x1 + x2^2) + x2, t*(x1 + x2^2) + x2)", "(x1 + t*x1^2, x2)"],
    F5: ["((2+t)*x1 + x2^3, x2)", "(x1 + t*x1^5, x2)"],
    F1000003: ["((1 + t^2)*x1, t*x2)"],
}


def _outcome(build, e):
    """(fwd, inv, word) of the map build(e) accepts, or the type and text
    of what it raised."""
    try:
        aut = build(e)
    except Exception as exc:
        return type(exc), str(exc)
    return aut.fwd, aut.inv, aut.word


@pytest.mark.parametrize("K", FIELDS, ids=repr)
def test_rejected_maps_keep_the_oracles_error(K):
    """Non-constant and zero Jacobians, maps of the wrong arity, constant
    non-unit Jacobians over K[t, 1/t] and constant-Jacobian
    non-automorphisms over F_p, and seeded automorphisms, dense and sparse,
    with one more term (a few of which are automorphisms still), on both
    sides of the up-front rule: plane_aut_from_endo raises the
    oracle's exception type and text, or accepts what it accepts.  A
    non-unit division stays a NonUnitError, which degeneration._family_aut
    catches."""
    rng = random.Random(f"{SEED}/rejected/{K!r}")
    fixed = [parse_automorphism(src, K) for src in REJECTED[K]]
    fixed += [parse_automorphism(src, K) for src in REJECTED_FAMILIES[K]]
    inputs = fixed + [_perturbed(rng, e) for e in _corpus(K) + _sparse_corpus(K)]
    outcomes = []
    for e in inputs:
        old = _outcome(jacobian_first_plane_aut, e)
        assert _outcome(plane_aut_from_endo, e) == old, str(e)
        outcomes.append(old[0])
    assert all(isinstance(kind, type) for kind in outcomes[:len(fixed)])
    assert NonUnitError in outcomes
    assert sum(isinstance(kind, type) for kind in outcomes) >= len(inputs) * 3 // 4


@pytest.mark.parametrize("src", [
    "(x1^100000000 + x1^50000000*x2^50000000 + x2, x1^2 + x1*x2)",
    "(x1 + x2^1000, x2 + x1^2)",
    "(x1^100000000 + x2, x2 + x1^2)",
    "(x1^40 + " + " + ".join(f"x2^{j}" for j in range(1, 40)) + ", x2 + ("
    + " + ".join(f"t^{41**i}" for i in range(8)) + ")*x1)",
], ids=["degree-1e8", "degree-1000", "degree-1e8-powers-of-one-form",
        "degree-40-family-of-8-t-exponents"])
def test_hostile_maps_fail_on_their_jacobian_within_a_second(src, monkeypatch):
    """Maps over Q with fewer terms than their degree, and every family over
    Q[t, 1/t], are differentiated first: these fail on their Jacobian at
    once, where the descent would expand v^k first.  The top forms of the
    third, x1^(10^8) and x1^2, are powers of one linear form, so a screen on
    the top forms alone would let it through to the descent, which builds
    (x2 + x1^2)^(5*10^7).  The fourth has more terms (42) than its degree
    (40), but v = x2 + c x1 with c = t + t^41 + ... + t^(41^7): c^40 in the
    descent's v^40 alone has C(47, 7), about 6.3*10^7, t-terms."""
    e = parse_automorphism(src, Q)
    # sparse over Q, or a family that is not sparse in x
    assert (e.degree > _terms(e)) != isinstance(e.ring, LaurentRing)
    calls = _counted_jacobians(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(NotInvertibleError) as exc:
        plane_aut_from_endo(e)
    assert time.perf_counter() - start < 1
    assert len(calls) == 1
    assert (type(exc.value), str(exc.value)) == _outcome(jacobian_first_plane_aut, e) == (
        NotInvertibleError, "Jacobian determinant is not a nonzero constant")


@pytest.mark.parametrize("K,src", [
    (F5, "(x1 + x1^5, x2)"),
    (F2, "(x1^8 + x1, x2^8 + x2)"),
    (F5, "(x1 + x1^5 + x2^5, x2 + x1^10)"),
], ids=["F5-triangular", "F2-equal-degrees", "F5-degrees-5-10"])
def test_sparse_constant_jacobian_non_automorphisms_differentiate_once(K, src, monkeypatch):
    """Fewer terms than their degree and a nonzero constant Jacobian, yet no
    automorphism: the Jacobian is multiplied out once, up front, not again
    when the descent fails, and the descent's error stands."""
    e = parse_automorphism(src, K)
    assert e.degree > _terms(e)
    expected = _outcome(jacobian_first_plane_aut, e)
    calls = _counted_jacobians(monkeypatch)
    assert _outcome(plane_aut_from_endo, e) == expected
    assert len(calls) == 1 and calls[0].jacobian().is_constant
    assert expected[0] is NotInvertibleError and "not an automorphism" in expected[1]


def test_high_degree_automorphisms_differentiate_once(monkeypatch):
    """(3 x1 + x2^d, x2 + 1) over F5 has 4 terms: it is differentiated once,
    up front, at d = 5, 32 and 33, and not at all at d = 4; every one is
    still factored and certified."""
    calls = _counted_jacobians(monkeypatch)
    for d, count in ((4, 0), (5, 1), (32, 1), (33, 1)):
        e = parse_automorphism(f"(3*x1 + x2^{d}, x2 + 1)", F5)
        aut = plane_aut_from_endo(e)
        assert len(calls) == count and F5.eq(aut.jac, 3)
        calls.clear()
        assert aut.word == jacobian_first_plane_aut(e).word
        calls.clear()


def test_dense_henon_iterates_differentiate_nothing(monkeypatch):
    """f^6 (degree 64, 1,330 terms) and f^7 (degree 128, 5,218 terms) of the Q
    Henon map (x2, -x1 + 3/2 x2^2 - 2) have more terms than their degree:
    neither is differentiated, and f^6 gets the oracle's fwd, inv and word."""
    f = plane_aut_from_endo(parse_automorphism("(x2, -x1 + 3/2*x2^2 - 2)", Q))
    f6, f7 = f.power(6).fwd, f.power(7).fwd
    assert [(e.degree, _terms(e)) for e in (f6, f7)] == [(64, 1330), (128, 5218)]
    old = jacobian_first_plane_aut(f6)
    calls = _counted_jacobians(monkeypatch)
    aut = plane_aut_from_endo(f6)
    assert (aut.fwd, aut.inv, aut.word) == (old.fwd, old.inv, old.word)
    assert plane_aut_from_endo(f7).degree == 128
    assert calls == []


def test_jvdk_factor_of_a_dense_endo_differentiates_nothing(monkeypatch):
    """jvdk_factor of the plain Endo f^6 of the Q Henon map runs the descent
    of plane_aut_from_endo and reads c off it, so the dense map is not
    differentiated, and the word is the Jacobian-first oracle's.  A map of
    Jacobian 2 is an automorphism that still needs Jacobian 1, and a
    non-automorphism gets plane_aut_from_endo's error."""
    f = plane_aut_from_endo(parse_automorphism("(x2, -x1 + 3/2*x2^2 - 2)", Q))
    f6 = f.power(6).fwd
    old = jacobian_first_plane_aut(f6).word
    calls = _counted_jacobians(monkeypatch)
    assert jvdk_factor(f6) == old
    assert calls == []
    with pytest.raises(NotSpecialError) as exc:
        jvdk_factor(parse_automorphism("(x2, -2*x1 + x2^2)", Q))
    assert str(exc.value) == "factorization needs Jacobian determinant 1"
    for src in ("(x1 + x2^2, x2 + x1^2)", "(x1 + x1^5, x2)"):
        e = parse_automorphism(src, F5)
        assert _outcome(jvdk_factor, e) == _outcome(plane_aut_from_endo, e)


def test_a_dense_non_automorphism_fails_on_its_top_forms_before_v_to_the_k(monkeypatch):
    """(x1^D + x2 + ... + x2^(D-1), x1 + x2 + 1) over Q, D = 1000, has more
    terms than its degree, so it is not differentiated first.  The descent
    compares x1^D with (x1 + x2)^D, the top form of v^D built through
    x2 = 1, and fails before it builds v^D itself, about D^2/2 terms; the
    Jacobian then words the error."""
    D = 1000
    e = parse_automorphism(f"(x1^{D} + " + " + ".join(f"x2^{j}" for j in range(1, D))
                           + ", x1 + x2 + 1)", Q)
    assert e.degree < _terms(e)
    expected = _outcome(jacobian_first_plane_aut, e)
    powers, power = [], MultiPoly.__pow__

    def counted(self, n):
        powers.append(self.nvars)
        return power(self, n)

    monkeypatch.setattr(MultiPoly, "__pow__", counted)
    calls = _counted_jacobians(monkeypatch)
    assert _outcome(plane_aut_from_endo, e) == expected == (
        NotInvertibleError, "Jacobian determinant is not a nonzero constant")
    assert powers == [1] and len(calls) == 1
