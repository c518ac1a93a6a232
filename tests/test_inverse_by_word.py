"""plane_aut_from_endo certifies each inverse along the factor word.

amalgam._check_inverse_by_word walks e through the inverse factors and
s_c o inv through the factors, one factor at a time on the left, where
PlaneAut.verify composes fwd o inv and inv o fwd in full.  That old check,
conftest.two_sided_composition, is the oracle: every map the walk accepts
passes it, and a wrong inverse, a wrong factor inverse or a reversed
recomposition is rejected with the text the old check raised.
"""
import random
import time

import pytest

from conftest import SEED, rand_affine, rand_jonquieres, rand_scalar, two_sided_composition
from planeaut import (
    AffineFactor,
    AmalgamWord,
    Endo,
    JonquieresFactor,
    LaurentRing,
    MultiPoly,
    NotInvertibleError,
    PlaneAut,
    PrimeField,
    RationalField,
    parse_automorphism,
    plane_aut_from_endo,
)
from planeaut.amalgam import _check_inverse_by_word
from planeaut.degeneration import lift_endo
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
