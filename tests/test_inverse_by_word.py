"""plane_aut_from_endo certifies each inverse along the factor word.

amalgam._check_inverse_by_word walks e through the inverse factors and
s_c o inv through the factors, one factor at a time on the left, where
PlaneAut.verify composes fwd o inv and inv o fwd in full.  That old check,
conftest.two_sided_composition, is the oracle: every map the walk accepts
passes it, and a wrong inverse, a wrong factor inverse or a reversed
recomposition is rejected with the text the old check raised.

plane_aut_from_endo takes the Jacobian c from the linear part of the
descent's final affine map and differentiates only to choose the error of
a rejected map; conftest.jacobian_first_plane_aut, which multiplies the
Jacobian out first, is the oracle of its results and of its errors.
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
    PlaneAut,
    PrimeField,
    RationalField,
    parse_automorphism,
    plane_aut_from_endo,
)
from planeaut.amalgam import _JACOBIAN_FIRST_DEGREE, _check_inverse_by_word
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
    families over K[t, 1/t]: plane_aut_from_endo differentiates nothing and
    gives the oracle's fwd, inv, jac and word."""
    corpus = _corpus(K)
    expected = [jacobian_first_plane_aut(e) for e in corpus]
    # F2* = {1}
    assert K is F2 or sum(not e.ring.eq(a.jac, e.ring.one)
                          for e, a in zip(corpus, expected)) >= len(corpus) // 4
    calls = _counted_jacobians(monkeypatch)
    for e, old in zip(corpus, expected):
        aut = plane_aut_from_endo(e)
        assert (aut.fwd, aut.inv, aut.word) == (old.fwd, old.inv, old.word), str(e)
        assert e.ring.eq(aut.jac, old.jac)
    assert calls == []


def _perturbed(rng, e):
    """e plus a term of degree 2 or 3 in one component, with a coefficient
    c t^k over K[t, 1/t]."""
    R, i, comps = e.ring, rng.randrange(2), list(e.comps)
    exps = rng.choice(((2, 0), (1, 1), (0, 2), (2, 1), (1, 2)))
    if isinstance(R, LaurentRing):
        c = {rng.randint(-2, 2): rand_scalar(rng, R.base, nonzero=True)}
    else:
        c = rand_scalar(rng, R, nonzero=True)
    comps[i] = comps[i] + MultiPoly.monomial(R, 2, exps, c)
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
    non-automorphisms over F_p, and seeded automorphisms with one more term
    (a few of which are automorphisms still): plane_aut_from_endo raises the
    oracle's exception type and text, or accepts what it accepts.  A
    non-unit division stays a NonUnitError, which TFamily.inverse catches."""
    rng = random.Random(f"{SEED}/rejected/{K!r}")
    inputs = [parse_automorphism(src, K) for src in REJECTED[K]]
    inputs += [parse_automorphism(src, K).endo for src in REJECTED_FAMILIES[K]]
    inputs += [_perturbed(rng, e) for e in _corpus(K)]
    outcomes = []
    for e in inputs:
        old = _outcome(jacobian_first_plane_aut, e)
        assert _outcome(plane_aut_from_endo, e) == old, str(e)
        outcomes.append(old[0])
    assert all(isinstance(kind, type) for kind in outcomes[:len(inputs) - len(_corpus(K))])
    assert NonUnitError in outcomes
    assert sum(isinstance(kind, type) for kind in outcomes) >= len(inputs) * 3 // 4


@pytest.mark.parametrize("src", [
    "(x1^100000000 + x1^50000000*x2^50000000 + x2, x1^2 + x1*x2)",
    "(x1 + x2^1000, x2 + x1^2)",
    "(x1^100000000 + x2, x2 + x1^2)",
], ids=["degree-1e8", "degree-1000", "degree-1e8-powers-of-one-form"])
def test_hostile_maps_fail_on_their_jacobian_within_a_second(src, monkeypatch):
    """Above _JACOBIAN_FIRST_DEGREE the Jacobian is checked first: these
    maps fail on it at once, where the descent would expand v^k first.  The
    top forms of the third, x1^(10^8) and x1^2, are powers of one linear
    form, so a screen on the top forms alone would let it through to the
    descent, which builds (x2 + x1^2)^(5*10^7)."""
    e = parse_automorphism(src, Q)
    assert e.degree > _JACOBIAN_FIRST_DEGREE
    calls = _counted_jacobians(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(NotInvertibleError) as exc:
        plane_aut_from_endo(e)
    assert time.perf_counter() - start < 1
    assert len(calls) == 1
    assert (type(exc.value), str(exc.value)) == _outcome(jacobian_first_plane_aut, e) == (
        NotInvertibleError, "Jacobian determinant is not a nonzero constant")


def test_high_degree_automorphisms_differentiate_once(monkeypatch):
    """Above _JACOBIAN_FIRST_DEGREE an automorphism is differentiated once
    and still factored and certified; at the bound, not at all."""
    calls = _counted_jacobians(monkeypatch)
    for d, count in ((_JACOBIAN_FIRST_DEGREE, 0), (_JACOBIAN_FIRST_DEGREE + 1, 1)):
        e = parse_automorphism(f"(3*x1 + x2^{d}, x2 + 1)", F5)
        aut = plane_aut_from_endo(e)
        assert len(calls) == count and F5.eq(aut.jac, 3)
        calls.clear()
        assert aut.word == jacobian_first_plane_aut(e).word
        calls.clear()
