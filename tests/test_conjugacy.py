import random
from fractions import Fraction

import pytest

from planeaut import (
    NotAlgebraicError,
    NotSpecialError,
    PlaneAut,
    PrimeField,
    RationalField,
    UnsupportedFieldError,
    decide_conjugacy,
    decompose_v_delta,
    delta_map,
    in_v_subspace,
    minimize_conjugator,
    n_map,
    normal_form,
    parse_automorphism,
    plane_aut_from_endo,
    solve_scalar_power_system,
    verify_conjugacy_certificate,
)
from planeaut.rings import up_add, up_eval
from conftest import family_iv_element, rand_univariate

Q = RationalField()
F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


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
