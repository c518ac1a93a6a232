import random
import sys
from fractions import Fraction

import pytest

import planeaut
import planeaut.cli
from planeaut import (
    Endo,
    NotAlgebraicError,
    NotSpecialError,
    PlaneAut,
    PlaneAutError,
    PrimeField,
    RationalField,
    RingMismatchError,
    UnsupportedFieldError,
    decide_conjugacy,
    decompose_v_delta,
    delta_map,
    henon_invariants,
    henon_normalize,
    in_v_subspace,
    is_algebraic,
    jvdk_factor,
    minimize_conjugator,
    n_map,
    normal_form,
    parse_automorphism,
    plane_aut_from_endo,
    solve_scalar_power_system,
    verify_conjugacy_certificate,
)
from planeaut.amalgam import AffineFactor, AmalgamWord, _cyclic_reduction, factor_to_plane_aut
from planeaut.conjugacy import ConjugacyResult, are_conjugate_algebraic
from planeaut.rings import up_add, up_eval
from conftest import (
    SEED,
    _algebraic_word_nontrivial,
    compose_is_algebraic,
    family_ii_rep,
    family_iv_element,
    rand_affine,
    rand_jonquieres,
    rand_univariate,
    sample_regular_word,
    word_to_plane_aut,
)

Q = RationalField()
F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


def aut(src, K=Q):
    return plane_aut_from_endo(parse_automorphism(src, K))


# -- difference and norm operators ------------------------------------------

def test_delta_map():
    assert delta_map(F5, {3: 1}) == {2: 3, 1: 3, 0: 1}
    assert delta_map(Q, {1: Fraction(1)}) == {0: Fraction(1)}


def test_n_map():
    # N(x^2) over F3: x^2 + (x+1)^2 + (x+2)^2 = 3x^2 + 6x + 5 = 2
    assert n_map(F3, {2: 1}) == {0: 2}
    with pytest.raises(UnsupportedFieldError):
        n_map(Q, {2: Fraction(1)})


def test_n_of_delta_vanishes():
    rng = random.Random(3)
    for K in (F2, F3, F5):
        for _ in range(8):
            r = rand_univariate(rng, K, 9)
            assert n_map(K, delta_map(K, r)) == {}


def test_v_subspace_membership():
    assert in_v_subspace(F3, {2: 1, 8: 2})
    assert not in_v_subspace(F3, {3: 1})
    assert in_v_subspace(F2, {1: 1, 3: 1})
    with pytest.raises(UnsupportedFieldError):
        in_v_subspace(Q, {1: Fraction(1)})


def test_decompose_squares_plus_x_over_f2():
    dec = decompose_v_delta(F2, {2: 1, 1: 1})
    assert dec.v == {} and dec.r == {3: 1, 1: 1}
    assert dec.verify(F2)


def test_decompose_random():
    rng = random.Random(5)
    for K in (F2, F3, F5):
        for _ in range(10):
            F = rand_univariate(rng, K, 12)
            dec = decompose_v_delta(K, F)
            assert dec.verify(K)
            assert up_add(K, dec.v, delta_map(K, dec.r)) == F


def test_decompose_needs_char_p():
    with pytest.raises(UnsupportedFieldError):
        decompose_v_delta(Q, {2: Fraction(1)})


# -- scalar power systems ----------------------------------------------------

def test_power_system_two_equations():
    verdict, roots = solve_scalar_power_system(Q, {2: Fraction(4), 3: Fraction(8)})
    assert verdict == "yes" and roots == [Fraction(2)]


def test_power_system_single_equation():
    verdict, roots = solve_scalar_power_system(Q, {2: Fraction(4)})
    assert verdict == "yes" and sorted(roots) == [Fraction(-2), Fraction(2)]


def test_power_system_closure_inconsistent():
    verdict, roots = solve_scalar_power_system(Q, {2: Fraction(4), 3: Fraction(7)})
    assert verdict == "no" and roots == []


def test_power_system_needs_extension():
    verdict, roots = solve_scalar_power_system(Q, {3: Fraction(2)})
    assert verdict == "yes" and roots == []


# -- normal forms ------------------------------------------------------------

def test_normal_form_family_i():
    nf = normal_form(aut("(2*x1 + x2^3, 1/2*x2)"))
    assert nf.family == "I" and nf.multiplier == Fraction(2)
    assert str(nf.aut.fwd) == "(2*x1, 1/2*x2)"
    # idempotent on the representative
    nf2 = normal_form(nf.aut)
    assert nf2.family == "I" and nf2.conjugator.fwd == PlaneAut.identity(Q).fwd


def test_normal_form_family_ii():
    nf = normal_form(aut("(x1 + x2^2 + 1, x2)"))
    assert nf.family == "II"
    assert nf.P == {2: Fraction(1), 0: Fraction(1)}
    assert nf.conjugator.fwd == PlaneAut.identity(Q).fwd


def test_normal_form_family_iii():
    f = aut("(2*x1 + x2^3 + x2, 3*x2)", F5)
    nf = normal_form(f)
    assert nf.family == "III" and nf.multiplier == 2 and nf.order == 4
    assert nf.P == {0: 1}
    assert str(nf.aut.fwd) == "(x2^3 + 2*x1, 3*x2)"
    assert nf.conjugator.compose(f).compose(nf.conjugator.inverse()).fwd == nf.aut.fwd


def test_normal_form_family_iv_f2_delta_part_dies():
    """x2 + x2^2 = (x+1)^3 + (x+1) - (x^3 + x): pure difference part."""
    f = aut("(x1 + x2 + x2^2, x2 + 1)", F2)
    nf = normal_form(f)
    assert nf.family == "IV"
    assert nf.P == {}
    assert str(nf.aut.fwd) == "(x1, x2 + 1)"


def test_normal_form_family_iv_f3_survivor():
    f = aut("(x1 + x2^2, x2 + 1)", F3)
    nf = normal_form(f)
    assert nf.family == "IV" and nf.P == {0: 1}
    assert str(nf.aut.fwd) == "(x2^2 + x1, x2 + 1)"


def test_normal_form_family_iv_char_zero():
    f = aut("(x1 + x2^2 - 3*x2, x2 + 1)")
    nf = normal_form(f)
    assert nf.family == "IV" and nf.P == {}
    assert str(nf.aut.fwd) == "(x1, x2 + 1)"


def test_normal_form_conjugation_identity_nontrivial():
    h = aut("(x1 + x2^2, x2)")
    f0 = aut("(x1 + x2^3, x2)")
    f = h.compose(f0).compose(h.inverse())
    nf = normal_form(f)
    assert nf.family == "II"
    assert nf.conjugator.compose(f).compose(nf.conjugator.inverse()).fwd == nf.aut.fwd


def test_normal_form_rejections():
    with pytest.raises(NotSpecialError):
        normal_form(aut("(2*x1, x2)"))
    with pytest.raises(NotAlgebraicError) as exc:
        normal_form(aut("(x2, -x1 + x2^2)"))
    assert str(exc.value) == "unbounded degree growth; no triangular normal form"


# -- conjugacy decisions -----------------------------------------------------

def test_family_i_decisions():
    f = aut("(2*x1, 1/2*x2)")
    g_same = aut("(2*x1 + x2^3, 1/2*x2)")
    res = decide_conjugacy(f, g_same)
    assert res.verdict == "yes"
    assert verify_conjugacy_certificate(f, g_same, res.conjugator).valid
    g_inv = aut("(1/2*x1, 2*x2)")
    res2 = decide_conjugacy(f, g_inv)
    assert res2.verdict == "yes"
    assert verify_conjugacy_certificate(f, g_inv, res2.conjugator).valid
    g_no = aut("(3*x1, 1/3*x2)")
    assert decide_conjugacy(f, g_no).verdict == "no"


def test_family_ii_yes_with_certificate():
    f = aut("(x1 + x2^2, x2)")
    g = aut("(x1 + 8*x2^2 + 8*x2 + 2, x2)")  # Q(x) = 2 P(2x + 1)
    res = decide_conjugacy(f, g)
    assert res.verdict == "yes"
    assert verify_conjugacy_certificate(f, g, res.conjugator).valid


def test_family_ii_no_and_unknown():
    f = aut("(x1 + x2^2, x2)")
    assert decide_conjugacy(f, aut("(x1 + 4*x2^2 + 4, x2)")).verdict == "no"
    res = decide_conjugacy(f, aut("(x1 + 2*x2^2, x2)"))
    assert res.verdict == "unknown"  # needs a cube root of 2


def test_family_ii_char_divides_degree():
    f = aut("(x1 + x2^5, x2)", F5)
    g = aut("(x1 + x2^5 + 1, x2)", F5)  # (x2 + 1)^5 = x2^5 + 1
    res = decide_conjugacy(f, g)
    assert res.verdict == "yes"
    assert verify_conjugacy_certificate(f, g, res.conjugator).valid


def test_family_iii_decisions():
    f = aut("(2*x1 + x2^3, 3*x2)", F5)
    res = decide_conjugacy(f, f)
    assert res.verdict == "yes"
    assert verify_conjugacy_certificate(f, f, res.conjugator).valid
    g_sup = aut("(2*x1 + x2^3 + x2^7, 3*x2)", F5)
    assert decide_conjugacy(f, g_sup).verdict == "no"
    g_mult = aut("(3*x1 + x2^3, 2*x2)", F5)
    assert decide_conjugacy(f, g_mult).verdict == "no"


def test_family_iii_scaled_conjugate():
    f = aut("(2*x1 + x2^3, 3*x2)", F5)
    h = aut("(2*x1, 3*x2)", F5)
    g = h.compose(f).compose(h.inverse())
    res = decide_conjugacy(f, g)
    assert res.verdict == "yes"
    assert verify_conjugacy_certificate(f, g, res.conjugator).valid


def test_family_iv_translation_conjugates():
    for K, Q_poly in ((F2, {2: 1, 1: 1}), (F3, {2: 2})):
        rep = family_iv_element(K, Q_poly)
        u = aut("(x1, x2 + 1)", K)
        g = u.compose(rep).compose(u.inverse())
        res = decide_conjugacy(rep, g)
        assert res.verdict == "yes"
        assert verify_conjugacy_certificate(rep, g, res.conjugator).valid


def test_family_iv_definite_no():
    f = aut("(x1 + x2^2, x2 + 1)", F3)
    g = aut("(x1 + 2*x2^2, x2 + 1)", F3)
    res = decide_conjugacy(f, g)
    assert res.verdict == "no"


def test_family_iv_char_zero_translations():
    f = aut("(x1 + x2^2, x2 + 1)")
    g = aut("(x1 - 5*x2^3, x2 + 1)")
    res = decide_conjugacy(f, g)
    assert res.verdict == "yes"
    assert verify_conjugacy_certificate(f, g, res.conjugator).valid


def test_cross_family_bridge():
    f = aut("(x1 + 3, x2)")       # family II with constant P
    g = aut("(x1, x2 + 1)")       # family IV translation
    res = decide_conjugacy(f, g)
    assert res.verdict == "yes"
    assert verify_conjugacy_certificate(f, g, res.conjugator).valid
    res2 = decide_conjugacy(g, f)
    assert res2.verdict == "yes"
    assert verify_conjugacy_certificate(g, f, res2.conjugator).valid


def test_cross_family_no():
    f = aut("(x1 + x2^2, x2)")    # II, nonconstant
    g = aut("(x1, x2 + 1)")       # IV
    assert decide_conjugacy(f, g).verdict == "no"
    d = aut("(2*x1, 1/2*x2)")     # I
    assert decide_conjugacy(d, f).verdict == "no"


def test_henon_dispatch():
    hen = aut("(x2, -x1 + x2^2)")
    alg = aut("(x1 + x2^2, x2)")
    assert decide_conjugacy(hen, alg).verdict == "no"
    assert decide_conjugacy(alg, hen).verdict == "no"
    hen3 = aut("(x2, -x1 + x2^3)")
    assert decide_conjugacy(hen, hen3).verdict == "no"   # degree data differ
    res = decide_conjugacy(hen, hen)
    assert res.verdict == "unknown"                      # invariants agree


def _decide_by_iterate(f, g):
    """The dispatcher that decided growth by deg(f o f) <= deg f before
    building normal forms or Henon data from scratch: the oracle of the
    dispatch that reads growth off the factor word."""
    af, ag = compose_is_algebraic(f), compose_is_algebraic(g)
    if af != ag:
        return ConjugacyResult(
            "no", reason="one map has bounded degree growth, the other does not",
            family_f="algebraic" if af else "Henon",
            family_g="algebraic" if ag else "Henon")
    if af:
        return are_conjugate_algebraic(f, g)
    hf = henon_normalize(f)
    hg = henon_normalize(g)
    inv_f, inv_g = henon_invariants(hf), henon_invariants(hg)
    checks = [f"cyclic degree data {list(inv_f)} / {list(inv_g)}"]
    if inv_f != inv_g:
        return ConjugacyResult("no", reason="cyclic Jonquieres degree data differ",
                               family_f="Henon", family_g="Henon", checks=checks)
    return ConjugacyResult(
        "unknown",
        reason="invariants agree; conjugacy of Henon words is not decided",
        family_f="Henon", family_g="Henon", checks=checks)


def _outcome(decide, f, g):
    try:
        return decide(f, g).describe()
    except PlaneAutError as exc:
        return type(exc).__name__, str(exc)


def _scaled_maps(rng, K):
    """Seeded h o (W o s_c) o h^-1: W an algebraic or a Henon word, s_c =
    (c x1, x2) for each c in 2..5 that is not 0 or 1 in K, and h affine or
    J o affine."""
    out = []
    for i, c in enumerate(sorted({K.from_int(c) for c in range(2, 6)} - {K.zero, K.one})):
        s_c = aut(f"({K.to_str(c)}*x1, x2)", K)
        for word in (_algebraic_word_nontrivial(rng, K, max_deg=2),
                     sample_regular_word(rng, K, 2)):
            h = factor_to_plane_aut(rand_affine(rng, K))
            if i % 2 == 0 and len(out) % 2 == 0:
                h = factor_to_plane_aut(rand_jonquieres(rng, K, 2)).compose(h)
            out.append(h.compose(word_to_plane_aut(word)).compose(s_c).compose(h.inverse()))
    return out


def _dispatch_pairs(K):
    """Seeded pairs: algebraic and Henon maps against affine conjugates, each
    other and the other kind, plus maps of Jacobian != 1 on either side."""
    rng = random.Random(f"{SEED}/dispatch/{K!r}")
    alg = [word_to_plane_aut(_algebraic_word_nontrivial(rng, K, max_deg=3))
           for _ in range(5)]
    alg += [family_ii_rep(K, rand_univariate(rng, K, 3, nonzero=True)),
            family_iv_element(K, rand_univariate(rng, K, 2)),
            aut("(x2, -x1)", K)]
    hen = [word_to_plane_aut(sample_regular_word(rng, K, 2)) for _ in range(3)]
    hen.append(word_to_plane_aut(sample_regular_word(rng, K, 2, two_blocks=True)))
    odd = [aut("(2*x1, x2)", K), aut("(x2, -2*x1 + x2^2)", K)]
    pairs = []
    for f in alg + hen:
        h = factor_to_plane_aut(rand_affine(rng, K))
        if f.degree == 2 and f in alg:
            h = factor_to_plane_aut(rand_jonquieres(rng, K, 2)).compose(h)
        pairs.append((f, h.compose(f).compose(h.inverse())))
    pairs += list(zip(alg, alg[1:])) + [(hen[0], hen[1]), (hen[3], hen[2])]
    pairs += [(a, b) for a, b in zip(alg, hen)] + [(b, a) for a, b in zip(alg, hen)]
    pairs += [(o, x) for o in odd for x in (alg[0], hen[0], odd[0], odd[1])]
    pairs += [(x, o) for o in odd for x in (alg[0], hen[0])]
    scaled = _scaled_maps(rng, K)
    pairs += list(zip(scaled, scaled[1:])) + [(o, alg[1]) for o in scaled[::2]]
    pairs += [(hen[1], o) for o in scaled[1::2]]
    return pairs


@pytest.mark.parametrize("K", [Q, F3, F5], ids=repr)
def test_decide_conjugacy_matches_the_iterate_dispatcher(K):
    seen = set()
    for f, g in _dispatch_pairs(K):
        want = _outcome(_decide_by_iterate, f, g)
        assert _outcome(decide_conjugacy, f, g) == want, (str(f), str(g))
        seen.add(want["verdict"] if isinstance(want, dict) else want[0])
    assert {"yes", "no", "unknown", "NotSpecialError"} <= seen


@pytest.mark.parametrize("K", [Q, F3, F5], ids=repr)
def test_growth_of_scaled_maps_matches_iterates(K):
    x1, x2 = Endo.identity(K, 2).comps
    kinds = set()
    for f in _scaled_maps(random.Random(f"{SEED}/scaled/{K!r}"), K):
        f = plane_aut_from_endo(f.fwd)
        s_c = Endo([x1.scale(f.jac), x2])
        assert not f.is_special
        assert f.word.recompose().compose(s_c) == f.fwd
        algebraic, (word, conj) = is_algebraic(f), _cyclic_reduction(f)
        assert algebraic == compose_is_algebraic(f), str(f)
        kinds.add(algebraic)
        h = AmalgamWord(K, conj).to_plane_aut()
        assert word.recompose().compose(s_c) == h.compose(f).compose(h.inverse()).fwd
    assert kinds == {True, False}


def _growth_corpus(K):
    """Seeded maps over K: algebraic and Henon words, as maps with no word,
    with the word plane_aut_from_endo stores, as squares, inverses and
    affine conjugates built by PlaneAut.power and compose (which store no
    word), plus maps of Jacobian != 1 (none over F2)."""
    rng = random.Random(f"{SEED}/growth/{K!r}")
    out = [PlaneAut.identity(K), aut("(x2, -x1 + 1)", K)]
    for _ in range(3):
        for word in (_algebraic_word_nontrivial(rng, K, max_deg=2),
                     sample_regular_word(rng, K, 2)):
            f = word_to_plane_aut(word)
            h = factor_to_plane_aut(rand_affine(rng, K))
            out += [f, plane_aut_from_endo(f.fwd), f.power(2), f.power(-1),
                    h.compose(f).compose(h.inverse())]
    return out + _scaled_maps(rng, K)


@pytest.mark.parametrize("K", [Q, F2, F3, F5, F7], ids=repr)
def test_is_algebraic_matches_the_composed_square(K):
    seen = set()
    for f in _growth_corpus(K):
        wordless = f.word is None
        algebraic = is_algebraic(f)
        assert algebraic == compose_is_algebraic(f), str(f)
        seen.add((algebraic, f.is_special, wordless))
    assert {(a, True, w) for a in (True, False) for w in (True, False)} <= seen
    if K != F2:
        assert {(True, False, True), (False, False, True)} <= seen


@pytest.fixture
def no_iterates_on_special_maps(monkeypatch):
    """Endo.compose raises on a self-composition f o f, the square the
    growth test does not build; amalgam._reduction_ops calls are counted,
    plane_aut_from_endo's included."""
    calls = []
    reduction_ops, compose = planeaut.amalgam._reduction_ops, Endo.compose

    def guarded(self, other):
        if self is other:
            raise AssertionError(f"deg(f o f) computed for {self}")
        return compose(self, other)

    def counted(e):
        calls.append(e)
        return reduction_ops(e)

    monkeypatch.setattr(Endo, "compose", guarded)
    monkeypatch.setattr(planeaut.amalgam, "_reduction_ops", counted)
    return calls


@pytest.mark.parametrize("f,g,verdict", [
    ("(x1 + x2^2, x2)", "(x1 + 8*x2^2 + 8*x2 + 2, x2)", "yes"),
    ("(2*x1 + x2^3, 1/2*x2)", "(3*x1, 1/3*x2)", "no"),
    ("(x2, -x1 + x2^2)", "(x2, -x1 + x2^2 + 1)", "unknown"),
    ("(x2, -x1 + x2^2)", "(x2, -x1 + x2^3)", "no"),
    ("(x2, -x1)", "(x2, -x1 + x2^2)", "no"),
], ids=["algebraic-yes", "algebraic-no", "henon-unknown", "henon-no", "mixed"])
def test_decide_factors_each_map_once(f, g, verdict, no_iterates_on_special_maps):
    assert decide_conjugacy(aut(f), aut(g)).verdict == verdict
    assert len(no_iterates_on_special_maps) == 2
    assert jvdk_factor(aut(f)).recompose() == parse_automorphism(f, Q)
    assert len(no_iterates_on_special_maps) == 3


def test_composed_map_is_factored_once(no_iterates_on_special_maps):
    f, h = aut("(x1 + x2^3, x2)"), aut("(x1, x2 + x1^2)")
    g = h.compose(f).compose(h.inverse())
    assert g.degree == 12 and g.word is None
    no_iterates_on_special_maps.clear()
    for _ in range(3):
        normal_form(g)
    jvdk_factor(g)
    henon_normalize(g)
    assert len(no_iterates_on_special_maps) == 1
    assert g.word.recompose() == g.fwd


@pytest.fixture
def normalizations(monkeypatch):
    """Cyclic reduction steps, the calls of amalgam._settle made by
    _cyclic_reduction, one per rotation (the words of conjugators, reduced
    as they are built, are not counted), and calls of _finish_normalization
    (the start of every normal form and Henon form), in every module that
    binds it."""
    calls = {"cyclic_steps": 0, "_finish_normalization": 0}
    settle = planeaut.amalgam._settle

    def settle_step(*args, **kwargs):
        if sys._getframe(1).f_code.co_name == "_cyclic_reduction":
            calls["cyclic_steps"] += 1
        return settle(*args, **kwargs)

    monkeypatch.setattr(planeaut.amalgam, "_settle", settle_step)
    for mod in (planeaut.amalgam, planeaut.conjugacy):
        def counted(*args, _fn=mod._finish_normalization):
            calls["_finish_normalization"] += 1
            return _fn(*args)
        monkeypatch.setattr(mod, "_finish_normalization", counted)
    return calls


def _conjugated_pair(rep, K, seed):
    """Texts of h1 o rep o h1^-1 and h2 o rep o h2^-1, h1 and h2 affine and
    not triangular, so that each word takes a cyclic reduction step."""
    rng = random.Random(f"{SEED}/{seed}")
    f = aut(rep, K)
    h1, h2 = (factor_to_plane_aut(AffineFactor.rotation(K).compose(rand_affine(rng, K)))
              for _ in range(2))
    return tuple(str(h.compose(f).compose(h.inverse())) for h in (h1, h2))


def _reduction_steps(normalizations, K, *texts):
    """Steps of one cyclic reduction of each map, fresh."""
    maps = [aut(src, K) for src in texts]
    normalizations["cyclic_steps"] = 0
    for m in maps:
        _cyclic_reduction(m)
    return normalizations["cyclic_steps"]


@pytest.mark.parametrize("rep,K,verdict", [
    ("(x1 + x2^2 + 1, x2)", Q, "yes"),
    ("(2*x1 + x2^2, 3*x2)", F5, "yes"),
    ("(x1 + x2^2, x2 + 1)", F3, "yes"),
], ids=["II-Q", "I-F5", "IV-F3"])
def test_normal_form_then_decide_normalizes_each_map_once(rep, K, verdict, normalizations):
    src_f, src_g = _conjugated_pair(rep, K, rep)
    once = _reduction_steps(normalizations, K, src_f, src_g)
    f, g = aut(src_f, K), aut(src_g, K)
    assert _reduction_steps(normalizations, K, src_f) > 0
    normalizations.update(cyclic_steps=0, _finish_normalization=0)
    nf = normal_form(f)
    res = decide_conjugacy(f, g)
    assert normalizations == {"cyclic_steps": once, "_finish_normalization": 2}
    assert normal_form(f) is nf and res.verdict == verdict
    assert nf.describe() == normal_form(aut(src_f, K)).describe()
    assert res.describe() == decide_conjugacy(aut(src_f, K), aut(src_g, K)).describe()


def test_henon_normalize_then_decide_reduces_each_map_once(normalizations):
    src_f, src_g = _conjugated_pair("(x2, -x1 + x2^2 + 1)", Q, "henon")
    once = _reduction_steps(normalizations, Q, src_f, src_g)
    assert _reduction_steps(normalizations, Q, src_f) > 0
    f, g = aut(src_f), aut(src_g)
    normalizations["cyclic_steps"] = 0
    degs = henon_invariants(henon_normalize(f))
    res = decide_conjugacy(f, g)
    assert normalizations["cyclic_steps"] == once
    assert degs == (2,) and res.verdict == "unknown"
    assert res.describe() == decide_conjugacy(aut(src_f), aut(src_g)).describe()


def test_jvdk_factor_reads_the_stored_jacobian(monkeypatch):
    f, scaled = aut("(x2, -x1 + x2^2)"), aut("(2*x1 + x2^2, x2)")

    def recomputed(self):
        raise AssertionError(f"Jacobian of {self} computed again")

    monkeypatch.setattr(Endo, "jacobian", recomputed)
    assert jvdk_factor(f) is f.word
    with pytest.raises(NotSpecialError, match="factorization needs Jacobian determinant 1"):
        jvdk_factor(scaled)


@pytest.mark.parametrize("K", [Q, F5], ids=repr)
def test_plane_auts_take_their_jacobian_from_their_parts(monkeypatch, K):
    """plane_aut_from_endo differentiates nothing on an automorphism, nor do
    compose, inverse, power, identity and factor_to_plane_aut, and each
    stored Jacobian equals the one differentiated from fwd."""
    rng = random.Random(f"{SEED}/jacobians/{K!r}")
    calls, differentiate = [], Endo.jacobian

    def counted(self):
        calls.append(self)
        return differentiate(self)

    monkeypatch.setattr(Endo, "jacobian", counted)
    f, g = aut("(3*x1 + x2^2, x2 + 1)", K), aut("(x2, -2*x1 + x2^2)", K)
    assert len(calls) == 0
    built = [f, g, f.compose(g), g.inverse(), f.power(3), g.power(-2), PlaneAut.identity(K),
             factor_to_plane_aut(rand_jonquieres(rng, K, 3)),
             factor_to_plane_aut(rand_affine(rng, K))]
    assert len(calls) == 0
    for h in built:
        assert K.eq(h.jac, differentiate(h.fwd).constant_value()), h


@pytest.mark.parametrize("f,g,outcome", [
    ("(2*x1, x2)", "(x2, -x1 + x2^2)", "no"),
    ("(x2, -x1)", "(x2, -2*x1 + x2^2)", "no"),
    ("(2*x1, x2)", "(3*x1, x2)", "normal forms are for Jacobian-1 automorphisms"),
    ("(x2, -2*x1 + x2^2)", "(x2, -x1 + x2^2)", "factorization needs Jacobian determinant 1"),
], ids=["algebraic-henon", "henon-algebraic", "algebraic-pair", "henon-pair"])
def test_non_special_maps_decide_without_iterates(f, g, outcome,
                                                  no_iterates_on_special_maps):
    res = _outcome(decide_conjugacy, aut(f), aut(g))
    assert (res["verdict"] if isinstance(res, dict) else res[1]) == outcome
    assert len(no_iterates_on_special_maps) == 2


@pytest.mark.parametrize("src,family", [("(2*x1 + x2^3, 1/2*x2)", "family I"),
                                        ("(x2, -x1 + x2^2)", "Henon")])
def test_classify_factors_once(src, family, no_iterates_on_special_maps, capsys):
    assert planeaut.cli.main(["classify", src]) == 0
    assert capsys.readouterr().out.startswith(f"verdict: {family}\n")
    assert len(no_iterates_on_special_maps) == 1


@pytest.mark.parametrize("f,g", [("(x2, -x1 + x2^2)", "(x2, -x1 + x2^2)"),
                                 ("(2*x1, 1/2*x2)", "(x1 + x2^2, x2)")])
def test_decide_rejects_maps_over_different_rings(f, g):
    with pytest.raises(RingMismatchError) as exc:
        decide_conjugacy(aut(f, Q), aut(g, F5))
    assert str(exc.value) == "conjugacy of maps over Q and F5"


# -- certificates and minimization ------------------------------------------

def test_certificate_report_bounds():
    f = aut("(x2, -x1 + x2^2)")
    h = aut("(x1, x2 - 1)")
    g = h.compose(f).compose(h.inverse())
    rep = verify_conjugacy_certificate(f, g, h)
    assert rep.valid and rep.square_bound and rep.linear_bound
    bad = verify_conjugacy_certificate(f, g, aut("(x1, x2 + 7)"))
    assert not bad.valid


def test_minimize_conjugator_strips_powers():
    f = aut("(x2, -x1 + x2^2)")
    h = aut("(x1 + 1, x2 - 2)")
    g = h.compose(f).compose(h.inverse())
    polluted = h.compose(f.power(2))
    assert polluted.compose(f).compose(polluted.inverse()).fwd == g.fwd
    slim = minimize_conjugator(f, polluted)
    assert slim.degree <= h.degree
    assert slim.compose(f).compose(slim.inverse()).fwd == g.fwd
    assert slim.degree ** 2 <= g.degree or g.degree < 2
