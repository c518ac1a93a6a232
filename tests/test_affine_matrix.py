"""Maps of degree <= 1 are certified by 2x3 matrix products.

For such a map, plane_aut_from_endo proves inv o e = id and
recompose(w) o s_c o inv = id as products of the 2x3 matrices read off the
stored polynomials (amalgam._check_inverse_by_word), and
amalgam._check_conjugation compares h o f with g o h the same way when h, f
and g all have degree <= 1.  The full compositions are the oracles:
conftest.two_sided_composition for inverses, conftest.two_sided_conjugation
for conjugations.  The maps are seeded, of any Jacobian over Q, F5 and
F1000003 (F2* = {1}), and families over Q[t, 1/t] and F5[t, 1/t] whose
determinants are t-monomials.
"""
import collections
import random

import pytest

from conftest import (
    SEED,
    rand_affine,
    rand_scalar,
    two_sided_composition,
    two_sided_conjugation,
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
    PlaneAutError,
    PrimeField,
    RationalField,
    plane_aut_from_endo,
)
from planeaut import amalgam, poly
from planeaut.amalgam import _check_conjugation, _check_inverse_by_word

Q = RationalField()
F2, F5, F1000003 = PrimeField(2), PrimeField(5), PrimeField(1000003)
FIELDS = [Q, F2, F5, F1000003]
RINGS = FIELDS + [LaurentRing(Q), LaurentRing(F5)]
NOT_INVERSE = "forward and inverse do not compose to the identity"
EXPS = ((1, 0), (0, 1), (0, 0))
MAPS_PER_RING = 12


def _endo(R, rows):
    """(a x1 + b x2 + e, c x1 + d x2 + f) for rows ((a, b, e), (c, d, f))."""
    return Endo([MultiPoly(R, 2, dict(zip(EXPS, row))) for row in rows])


def _field_map(rng, K):
    """An invertible map of degree 1 over K: a diagonal or triangular linear
    part now and then, any determinant."""
    while True:
        a, b, c, d, e, f = (rand_scalar(rng, K) for _ in range(6))
        shape = rng.randrange(4)
        if shape < 2:
            c = K.zero
        if shape == 0:
            b = K.zero
        if not K.is_zero(K.sub(K.mul(a, d), K.mul(b, c))):
            return _endo(K, ((a, b, e), (c, d, f)))


def _family_map(rng, L):
    """E1 o (u t^k x1, t^j x2) o E2 plus a translation over L = K[t, 1/t],
    E1 = (x1 + p x2, x2) and E2 = (x1, q x1 + x2), p, q and the translation
    Laurent polynomials of up to two terms: determinant u t^(k + j)."""
    K = L.base

    def laurent():
        return {rng.randint(-3, 3): rand_scalar(rng, K, nonzero=True)
                for _ in range(rng.randint(0, 2))}

    zero, one = L.zero, L.one
    u = rand_scalar(rng, K, nonzero=True)
    e1 = _endo(L, ((one, laurent(), zero), (zero, one, zero)))
    diag = _endo(L, (({rng.randint(-3, 3): u}, zero, zero), (zero, {rng.randint(-3, 3): K.one}, zero)))
    e2 = _endo(L, ((one, zero, laurent()), (laurent(), one, laurent())))
    return e1.compose(diag).compose(e2)


def _corpus(R):
    rng = random.Random(f"{SEED}/affine-matrix/{R!r}")
    sample = _family_map if isinstance(R, LaurentRing) else _field_map
    return [sample(rng, R) for _ in range(MAPS_PER_RING)]


def _scale(R, c):
    """s_c = (c x1, x2)."""
    return _endo(R, ((c, R.zero, R.zero), (R.zero, R.one, R.zero)))


def _moved(e):
    """e with one of its six matrix entries moved by 1, for each entry."""
    R = e.ring
    rows = [[p.coeff(m) for m in EXPS] for p in e.comps]
    for i in range(2):
        for j in range(3):
            moved = [list(row) for row in rows]
            moved[i][j] = R.add(moved[i][j], R.one)
            yield _endo(R, moved)


@pytest.mark.parametrize("R", RINGS, ids=repr)
def test_degree_one_maps_get_the_oracles_inverse_jacobian_and_word(R, compose_spy):
    """fwd is e, inv passes the two full compositions, jac is the constant
    Jacobian polynomial, and the word is one determinant-1 affine factor
    with recompose(w) o s_c = e; certifying it composes no polynomials."""
    corpus = _corpus(R)
    if R is not F2:
        assert sum(not R.eq(e.jacobian().constant_value(), R.one) for e in corpus) >= 4
    for e in corpus:
        compose_spy.clear()
        aut = plane_aut_from_endo(e)
        assert compose_spy == [], str(e)
        assert aut.fwd == e and aut.inv.degree == 1
        assert two_sided_composition(aut.fwd, aut.inv), str(e)
        assert R.eq(aut.jac, e.jacobian().constant_value())
        assert len(aut.word) == 1 and isinstance(aut.word.factors[0], AffineFactor)
        assert aut.word.recompose().compose(_scale(R, aut.jac)) == e


@pytest.mark.parametrize("R", RINGS, ids=repr)
def test_an_inverse_with_one_coefficient_moved_is_rejected(R):
    """Each of the six matrix entries of inv, in turn, plus 1: the full
    compositions fail, and the matrix check raises the walks' text."""
    for e in _corpus(R)[:6]:
        aut = plane_aut_from_endo(e)
        for bad in _moved(aut.inv):
            assert not two_sided_composition(e, bad)
            with pytest.raises(NotInvertibleError) as exc:
                _check_inverse_by_word(e, bad, aut.word, aut.jac)
            assert str(exc.value) == NOT_INVERSE


@pytest.mark.parametrize("R", RINGS, ids=repr)
def test_a_wrong_word_or_jacobian_is_rejected(R):
    """The map's own inverse with its word's translation moved by 1, with c
    moved by 1, with a degree-2 word, or an inverse of degree 2: the
    second identity, recompose(w) o s_c o inv = id, fails, or a map of
    degree 2 is read where only degree 1 can pass."""
    x2 = MultiPoly.variable(R, 2, 1)
    for e in _corpus(R)[:6]:
        aut = plane_aut_from_endo(e)
        (fac,) = aut.word.factors
        shifted = AffineFactor(R, fac.a, fac.b, fac.c, fac.d, fac.e, R.add(fac.f, R.one))
        quadratic = AmalgamWord(R, [fac, JonquieresFactor.elementary(R, {2: R.one})])
        cases = [(aut.inv, AmalgamWord(R, [shifted]), aut.jac),
                 (aut.inv, quadratic, aut.jac),
                 (Endo([aut.inv.comps[0] + x2 ** 2, aut.inv.comps[1]]), aut.word, aut.jac)]
        if not R.is_zero(R.add(aut.jac, R.one)):
            cases.append((aut.inv, aut.word, R.add(aut.jac, R.one)))
        for inv, word, c in cases:
            with pytest.raises(NotInvertibleError) as exc:
                _check_inverse_by_word(e, inv, word, c)
            assert str(exc.value) == NOT_INVERSE


@pytest.mark.parametrize("R", RINGS, ids=repr)
def test_the_word_and_inverse_of_another_map_are_rejected(R):
    """The word and inverse of f, checked against g != f:
    recompose(w) o s_c o inv = id still holds, and only inv o g = id can
    tell."""
    maps = [plane_aut_from_endo(e) for e in _corpus(R)[:6]]
    for f, g in zip(maps, maps[1:]):
        _check_inverse_by_word(f.fwd, f.inv, f.word, f.jac)
        assert not two_sided_composition(g.fwd, f.inv)
        with pytest.raises(NotInvertibleError) as exc:
            _check_inverse_by_word(g.fwd, f.inv, f.word, f.jac)
        assert str(exc.value) == NOT_INVERSE


def _triples(R):
    """(h, f, g) with g = h o f o h^-1, h and f of any Jacobian."""
    corpus = _corpus(R)
    out = []
    for h_e, f_e in zip(corpus[::2], corpus[1::2]):
        h, f = plane_aut_from_endo(h_e), plane_aut_from_endo(f_e)
        out.append((h, f, plane_aut_from_endo(h.fwd.compose(f.fwd).compose(h.inv))))
    return out


@pytest.mark.parametrize("R", RINGS, ids=repr)
def test_the_matrix_conjugation_check_agrees_with_the_full_compositions(R, compose_spy):
    """Valid triples pass both checks, and _check_conjugation composes no
    polynomials for them; with one coefficient of h, f or g moved by 1
    (where the moved map is still invertible), both checks give the same
    answer, which is no for nearly all of them."""
    moved_answers = []
    for h, f, g in _triples(R):
        compose_spy.clear()
        assert _check_conjugation(h, f, g)
        assert compose_spy == []
        assert two_sided_conjugation(h, f, g)
        for k in range(3):
            for bad in _moved((h, f, g)[k].fwd):
                try:
                    aut = plane_aut_from_endo(bad)
                except PlaneAutError:
                    continue
                triple = [h, f, g]
                triple[k] = aut
                answer = _check_conjugation(*triple)
                assert answer == two_sided_conjugation(*triple), (k, str(bad))
                moved_answers.append(answer)
    assert len(moved_answers) >= 6 * len(_triples(R))
    assert sum(moved_answers) <= len(moved_answers) // 10


@pytest.fixture
def lean_path(monkeypatch):
    """Counts of the checks amalgam._composites_agree runs, of the MultiPoly
    constructions made inside it, and of compose_chain calls anywhere in
    amalgam or poly."""
    counts, inside = collections.Counter(), []
    agree, chain, init = amalgam._composites_agree, amalgam.compose_chain, MultiPoly.__init__

    def spied_agree(*args):
        counts["checks"] += 1
        inside.append(1)
        try:
            return agree(*args)
        finally:
            inside.pop()

    def spied_init(self, *args, **kwargs):
        if inside:
            counts["polys_inside"] += 1
        init(self, *args, **kwargs)

    def spied_chain(*args):
        counts["chains"] += 1
        return chain(*args)

    monkeypatch.setattr(amalgam, "_composites_agree", spied_agree)
    monkeypatch.setattr(MultiPoly, "__init__", spied_init)
    for module in (amalgam, poly):
        monkeypatch.setattr(module, "compose_chain", spied_chain)
    return counts


@pytest.mark.parametrize("R", [Q, F1000003, LaurentRing(Q)], ids=repr)
def test_the_matrix_path_builds_no_polynomial_and_walks_nothing(R, lean_path):
    """On degree-1 maps, plane_aut_from_endo and _check_conjugation reach
    the one check, which builds no MultiPoly, and nothing calls
    compose_chain: the 2x3 matrices are read off the stored term dicts."""
    triples = _triples(R)
    lean_path.clear()
    for e in _corpus(R):
        plane_aut_from_endo(e)
    assert dict(lean_path) == {"checks": 2 * MAPS_PER_RING}
    lean_path.clear()
    for h, f, g in triples:
        assert _check_conjugation(h, f, g)
    assert dict(lean_path) == {"checks": len(triples)}


# -- AffineFactor: the determinant check -------------------------------------

@pytest.mark.parametrize("K", FIELDS, ids=repr)
def test_a_factor_built_from_outside_keeps_its_determinant_check(K):
    two = K.from_int(2)
    for a, b, c, d in [(K.zero, K.zero, K.zero, K.one), (two, K.zero, K.one, K.one)]:
        with pytest.raises(NotSpecialError, match=r"^affine factor must have determinant 1$"):
            AffineFactor(K, a, b, c, d)


@pytest.mark.parametrize("K", FIELDS, ids=repr)
def test_inverse_and_compose_equal_the_checked_construction(K):
    """inverse() and compose() skip the ad - bc = 1 check; their factors
    equal the ones the checking constructor builds from the same entries,
    and the maps the Endo compositions give."""
    rng = random.Random(SEED)
    for _ in range(MAPS_PER_RING):
        F, G = rand_affine(rng, K), rand_affine(rng, K, triangular=rng.random() < 0.3)
        inv, FG = F.inverse(), F.compose(G)
        for out in (inv, FG):
            assert type(out) is AffineFactor
            assert out == AffineFactor(K, out.a, out.b, out.c, out.d, out.e, out.f)
        assert FG.to_endo() == F.to_endo().compose(G.to_endo())
        assert F.compose(inv).is_identity and inv.compose(F).is_identity
