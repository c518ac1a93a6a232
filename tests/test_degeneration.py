import random
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

from conftest import (
    SEED,
    _algebraic_word_nontrivial,
    compose_then_raise_pole_check,
    conjugated_in_full,
    family_ii_rep,
    family_iv_by_full_conjugation,
    full_conjugate_valuation,
    rand_affine,
    rand_scalar,
    rand_univariate,
    ring_power,
    sample_regular_word,
    sampled_x_alpha,
    word_to_plane_aut,
)
from planeaut import (
    DegenerationWitness,
    Endo,
    LaurentRing,
    MultiPoly,
    NoPoleError,
    NotInvertibleError,
    PlaneAut,
    PlaneAutError,
    PoleAtZeroError,
    PrimeField,
    RationalField,
    RingMismatchError,
    UnsupportedFieldError,
    degenerate_family_ii,
    degenerate_family_iii,
    degenerate_family_iv,
    lift_plane_aut,
    parse_automorphism,
    plane_aut_from_endo,
    pole_propagation_check,
    specialize,
    valuation,
    value_at_zero,
    x_alpha,
)
from planeaut import degeneration
from planeaut.degeneration import lift_endo

Q = RationalField()
F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)
F1000003 = PrimeField(1000003)


def fam(src, K=Q):
    out = parse_automorphism(src, K)
    if isinstance(out.ring, LaurentRing):
        return out
    return lift_endo(out, LaurentRing(K))


def fam_aut(src, K=Q):
    return degeneration._family_aut(fam(src, K))


# -- one-parameter families --------------------------------------------------

def test_family_requires_laurent_coefficients():
    e = parse_automorphism("(x1, x2)", Q)
    with pytest.raises(RingMismatchError):
        valuation(e)


def test_lifting_refuses_a_map_over_another_field():
    f = plane_aut_from_endo(parse_automorphism("(x1 + 1/2*x2^2, x2)", Q))
    L5 = LaurentRing(F5)
    alpha = fam_aut("(t*x1, 1/t*x2 + 3)", F5)
    for lift in (lambda: lift_endo(f.fwd, L5), lambda: lift_plane_aut(f, L5),
                 lambda: degeneration._conjugated_family(f, alpha)):
        with pytest.raises(RingMismatchError) as exc:
            lift()
        assert str(exc.value) == "map over Q lifted to F5[t,1/t]"
    assert lift_plane_aut(f, LaurentRing(Q)).ring == LaurentRing(Q)


def test_family_valuation_and_value_at_zero():
    f = fam("(x1 + t*x2^2, x2)")
    assert valuation(f) == 0
    at0 = value_at_zero(f)
    assert str(at0) == "(x1, x2)"

    g = fam("(t*x1, 1/t * x2)")
    assert valuation(g) == -1
    with pytest.raises(PoleAtZeroError):
        value_at_zero(g)


def test_family_specialize():
    f = fam("(x1 + t*x2^2, x2)")
    at2 = specialize(f, Fraction(2))
    assert str(at2) == "(2*x2^2 + x1, x2)"
    assert plane_aut_from_endo(at2).is_special
    with pytest.raises(PoleAtZeroError):
        specialize(f, Fraction(0))


def test_family_substitute_t_power():
    g = fam_aut("(t*x1, 1/t * x2)")
    g2 = degeneration._substitute_t_power(g, 3)
    assert str(g2.fwd) == "(t^3*x1, t^-3*x2)"
    assert valuation(g2.fwd) == -3


def test_substitute_t_power_commutes_with_specialization():
    """F(t^m) at t = c is F at c^m, for negative m too; m = 0 would merge
    the coefficients of different powers of t and is refused: over F5,
    t^1 and 4 t^2 on x2^2 would leave 4 x2^2 where t = 1 leaves none."""
    g = fam_aut("(x1 + t*x2^2 + 4*t^2*x2^2, x2)", F5)
    with pytest.raises(PlaneAutError):
        degeneration._substitute_t_power(g, 0)
    h = fam_aut("(t*x1 + t^-2*x2^3 + 2, 3*t^2*x2 + t)", F5)
    for f in (g, h, fam_aut("(2*t*x1 + 1/t*x2^2 - 3, x2 + t^3)")):
        K = f.ring.base
        for m in (-2, -1, 2, 3):
            fm = degeneration._substitute_t_power(f, m)
            for c in (K.one, K.one + K.one, K.neg(K.one)):
                assert specialize(fm.fwd, c) == specialize(f.fwd, K.pow(c, m)), (str(f), m, c)


def test_substitute_t_power_defers_a_deferred_inverse():
    """A deferred inverse is not built by the substitution, and is mapped
    t -> t^m when it is first read."""
    built = []
    g = fam("(x1 + t*x2^2, x2)")

    def inverse():
        built.append(1)
        return fam("(x1 - t*x2^2, x2)")

    g3 = degeneration._substitute_t_power(PlaneAut(g, inverse, verify=False), 3)
    assert not built
    assert str(g3.inv) == "(-t^3*x2^2 + x1, x2)" and built == [1]


def test_family_compose_and_inverse_cache():
    g = fam_aut("(t*x1, 1/t * x2)")
    assert str(g.compose(g.inverse()).fwd) == "(x1, x2)"
    inv = g.inverse()
    assert g.inverse().fwd is inv.fwd    # computed once
    assert inv.inverse().fwd == g.fwd


def test_function_field_inverse():
    f = fam_aut("(x1 + t*x2^2, x2)")
    inv = f.inverse()
    assert str(inv.fwd) == "(-t*x2^2 + x1, x2)"
    assert str(f.compose(inv).fwd) == "(x1, x2)"


def test_inverse_can_leave_laurent_coefficients():
    L = LaurentRing(Q)
    one_plus_t = {0: Fraction(1), 1: Fraction(1)}
    x1 = MultiPoly.variable(L, 2, 0)
    x2 = MultiPoly.variable(L, 2, 1)
    f = Endo([x1.scale(one_plus_t), x2])
    with pytest.raises(NotInvertibleError):
        degeneration._family_aut(f)


def test_family_rejects_wrong_inverse():
    g = fam("(t*x1, 1/t * x2)")
    with pytest.raises(NotInvertibleError):
        PlaneAut(g, fam("(t*x1, t*x2)"))


# -- image of affine points at t = 0 ----------------------------------------

def test_x_alpha_needs_pole():
    with pytest.raises(NoPoleError):
        x_alpha(fam("(x1 + t*x2^2, x2)"))


def test_x_alpha_diagonal():
    xs = x_alpha(fam("(t*x1, 1/t * x2)"))
    assert xs.m == 1
    assert [str(p) for p in xs.points] == ["[0:0:1]"]
    assert xs.under_approximation


def test_x_alpha_finite_field():
    xs = x_alpha(fam("(x1 + 1/t * x2, x2)", F3))
    # reduced map (x2, 0): every sample with x2 != 0 lands on [0:1:0]
    assert [str(p) for p in xs.points] == ["[0:1:0]"]


def test_x_alpha_reads_the_lowest_slice():
    """alpha_tilde is the t^-m coefficient of the family; every other slice,
    constants included, drops out."""
    xs = x_alpha(fam("(t^-2*x1 + t^-1*x2^2 + 3, x2 + t^-2*x1^2 + t*x1)"))
    assert xs.m == 2
    assert xs.alpha_tilde == parse_automorphism("(x1, x1^2)", Q)


# -- pole propagation --------------------------------------------------------

def test_pole_propagation_vacuous():
    f = plane_aut_from_endo(parse_automorphism("(x2, -x1 + x2^2)", Q))
    rep = pole_propagation_check(f, fam("(x1 + t*x2, x2)"))
    assert not rep.hypothesis_met
    assert rep.implication_holds and rep.dichotomy_holds
    assert rep.x_points == ()
    assert any("no pole" in n for n in rep.notes)


def test_pole_propagation_hypothesis_met():
    f = plane_aut_from_endo(parse_automorphism("(x2, -x1 + x2^2)", Q))
    rep = pole_propagation_check(f, fam("(t*x1, 1/t * x2)"))
    assert str(rep.i_f) == "[0:1:0]"
    assert [str(p) for p in rep.x_points] == ["[0:0:1]"]
    assert rep.hypothesis_met
    assert rep.conjugate_valuation < 0
    assert rep.implication_holds and rep.dichotomy_holds


# -- degenerations of the algebraic families ---------------------------------

def test_degenerate_family_ii():
    w = degenerate_family_ii(Q, {2: Fraction(1), 0: Fraction(3)})
    assert w.family_tag == "ii"
    assert str(w.family.fwd) == "(t^3*x2^2 + x1 + 3*t, x2)"
    assert str(w.limit) == "(x1, x2)"
    assert w.verify()
    for c in (Fraction(1), Fraction(-2), Fraction(1, 3)):
        assert w.specialization_check(c)


def test_degenerate_family_iii():
    w = degenerate_family_iii(Q, Fraction(-1), 2, {1: Fraction(1), 0: Fraction(1)})
    assert w.family_tag == "iii"
    assert str(w.family.fwd) == "(t^4*x2^3 - x1 + t^2*x2, -x2)"
    assert str(w.limit) == "(-x1, -x2)"
    assert w.verify()
    assert w.specialization_check(Fraction(2))


def test_degenerate_family_iii_f5():
    w = degenerate_family_iii(F5, 2, 4, {0: 1})
    assert str(w.limit) == "(2*x1, 3*x2)"
    assert w.verify()
    for c in (1, 2, 3):
        assert w.specialization_check(c)


def test_degenerate_family_iii_rejects_bad_root():
    with pytest.raises(PlaneAutError):
        degenerate_family_iii(Q, Fraction(1), 2, {0: Fraction(1)})   # not primitive
    with pytest.raises(PlaneAutError):
        degenerate_family_iii(F5, 4, 4, {0: 1})                      # order 2, not 4
    with pytest.raises(PlaneAutError):
        degenerate_family_iii(F5, 2, 4, {})                          # empty body
    with pytest.raises(PlaneAutError) as exc:
        degenerate_family_iii(Q, Fraction(2), 2, {0: Fraction(1)})   # not a root at all
    assert str(exc.value) == "zeta must be a primitive m-th root of unity, m >= 2"


def test_degenerate_family_iv_f2():
    w = degenerate_family_iv(F2, {1: 1}, variant="F1")
    assert w.family_tag == "iv-F1"
    assert w.params["d"] == 1 and w.params["q"] == 2
    assert str(w.family.fwd) == "(t*x2^4 + t^3*x1^2 + x1, t*x2^2 + t^2*x1 + x2 + 1)"
    assert str(w.limit) == "(x1, x2 + 1)"
    assert w.verify()
    assert w.specialization_check(1)


def test_degenerate_family_iv_f2_variant_two():
    w = degenerate_family_iv(F2, {1: 1}, variant="F2")
    assert w.params["m"] == 6
    assert str(w.limit) == "(x1, x2)"
    assert w.verify()
    assert w.specialization_check(1)


def test_degenerate_family_iv_f3():
    w = degenerate_family_iv(F3, {2: 2}, variant="F1")
    assert w.params == {"d": 2, "mu": 2, "q": 3, "lambda": 2}
    assert str(w.limit) == "(x1, x2 + 1)"
    assert w.verify()
    for c in (1, 2):
        assert w.specialization_check(c)


def test_degenerate_family_iv_translation_only():
    w1 = degenerate_family_iv(F2, {}, variant="F1")
    assert str(w1.limit) == "(x1, x2 + 1)" and w1.verify()
    w2 = degenerate_family_iv(F2, {}, variant="F2")
    assert str(w2.limit) == "(x1, x2)" and w2.verify()


def test_degenerate_family_iv_needs_char_p():
    with pytest.raises(UnsupportedFieldError):
        degenerate_family_iv(Q, {1: Fraction(1)})
    with pytest.raises(PlaneAutError):
        degenerate_family_iv(F2, {1: 1}, variant="F9")


@pytest.mark.parametrize("K", [F2, F3, F5], ids=repr)
def test_frobenius_matches_the_power(K):
    # P^q over F_p[t, 1/t] for q = p, p^2, as degenerate_family_iv takes it:
    # P ** q, which relabels exponents, against ring-method products, with
    # negative t-exponents in the coefficients
    rng = random.Random(f"frobenius/{K!r}")
    L = LaurentRing(K)
    p = K.characteristic
    for _ in range(2):
        P = MultiPoly(L, 2, {(rng.randint(0, 3), rng.randint(0, 3)):
                             {rng.randint(-3, 3): rng.randrange(1, p) for _ in range(2)}
                             for _ in range(3)})
        for q in (p, p * p):
            assert (P ** q).terms == ring_power(L, 2, P.terms, q)


def test_x_alpha_is_sampled_once_per_family(monkeypatch):
    """x_alpha keeps the sample set of the family it sampled last, and
    pole_propagation_check reuses it; another family samples again."""
    calls, samples = [], degeneration._affine_samples

    def counted(*args):
        calls.append(args)
        return samples(*args)

    monkeypatch.setattr(degeneration, "_affine_samples", counted)
    f = plane_aut_from_endo(parse_automorphism("(x2, -x1 + x2^2 + 1)", Q))
    alpha = fam("(2*t^2*x1 + 3*t^-2*x2 + 1, t^2*x1 + 2*t^-2*x2 + 4)")
    xs = x_alpha(alpha)
    rep = pole_propagation_check(f, alpha)
    assert len(calls) == 1 and x_alpha(alpha) is xs
    assert rep.x_points == xs.points
    fresh = x_alpha(fam(str(alpha)))
    assert fresh.describe() == xs.describe() and len(calls) == 2


# -- pole valuations off int forms, each witness family composed once -------

def _pole_families(rng, K):
    """Families over K[t, 1/t] that the check inverts: A o (t^k x1, t^-k x2)
    o (x1 + a(t) x2^j, x2) o (x1 + b(t), x2), A affine over K and a(t),
    b(t) Laurent polynomials of one to three terms, so most have a pole
    and non-monomial coefficients; a family lifted from K, without a pole;
    and one inverted only by its formal inverse."""
    L = LaurentRing(K)

    def laurent():
        return {rng.randint(-3, 3): rand_scalar(rng, K, nonzero=True)
                for _ in range(rng.randint(1, 3))}

    out = []
    for k in (1, -1, 2, 0):
        A = lift_plane_aut(plane_aut_from_endo(rand_affine(rng, K).to_endo()), L).fwd
        diag = Endo([MultiPoly(L, 2, {(1, 0): {k: K.one}}), MultiPoly(L, 2, {(0, 1): {-k: K.one}})])
        shear = Endo([MultiPoly(L, 2, {(1, 0): L.one, (0, rng.randint(1, 2)): laurent()}),
                      MultiPoly.variable(L, 2, 1)])
        shift = Endo([MultiPoly(L, 2, {(1, 0): L.one, (0, 0): laurent()}),
                      MultiPoly.variable(L, 2, 1)])
        out.append(A.compose(diag).compose(shear).compose(shift))
    out.append(fam("(x1 + x2^2 + 1, x2 - 1)", K))
    out.append(fam("((1+t)*(x1 + x2^2) + x2, t*(x1 + x2^2) + x2)", K))
    return out


@pytest.mark.parametrize("K", [Q, F2, F5], ids=repr)
def test_pole_check_matches_the_compose_then_raise_oracle(K):
    """Seeded maps against seeded families: the report reads the same,
    byte for byte, as the old path that composed both conjugates over
    K[t, 1/t] and took the valuations of the raised families."""
    rng = random.Random(f"{SEED}/pole-check/{K!r}")
    maps = [word_to_plane_aut(sample_regular_word(rng, K, 2)) for _ in range(3)]
    maps += [word_to_plane_aut(_algebraic_word_nontrivial(rng, K, 3)) for _ in range(3)]
    vacuous = 0
    for alpha in _pole_families(rng, K):
        for f in maps:
            rep = pole_propagation_check(f, alpha).describe()
            assert rep == compose_then_raise_pole_check(f, Endo(alpha.comps)), (str(f), str(alpha))
            vacuous += rep["alpha_valuation"] == "0"
    assert vacuous >= len(maps)


def test_pole_check_reports_a_failed_dichotomy():
    """alpha = (x1 + 1/t, x2) commutes with f = (x1 + x2^2, x2): both
    conjugates are f, pole-free, so the report says the dichotomy fails."""
    f = plane_aut_from_endo(parse_automorphism("(x1 + x2^2, x2)", Q))
    alpha = fam("(x1 + 1/t, x2)")
    rep = pole_propagation_check(f, alpha)
    assert (rep.conjugate_valuation, rep.inverse_conjugate_valuation) == (0, 0)
    assert rep.implication_holds and not rep.dichotomy_holds
    assert rep.describe() == compose_then_raise_pole_check(f, alpha)


def _both_valuations(f, alpha, valuate):
    """nu(alpha^-1 o f o alpha) and nu(alpha o f^-1 o alpha^-1) by valuate."""
    ainv = degeneration._family_aut(alpha).inv
    return valuate(ainv, f.fwd, alpha), valuate(alpha, f.inv, ainv)


@pytest.mark.parametrize("K", [Q, F2, F5, F1000003], ids=repr)
def test_conjugate_valuation_matches_the_full_composition_oracle(K):
    """The windowed valuations equal those of the full composition on
    seeded maps and families, on the cancelling pair (x1 + x2^2, x2) and
    (x1 + 1/t, x2), on a first window that cancels over F2, on a family
    without a pole, and on direct calls whose outer or inner map has a zero
    component or whose first window cut a term the last one needs."""
    rng = random.Random(f"{SEED}/conjugate-valuation/{K!r}")
    maps = [word_to_plane_aut(sample_regular_word(rng, K, 2)) for _ in range(2)]
    maps += [word_to_plane_aut(_algebraic_word_nontrivial(rng, K, 3)) for _ in range(2)]
    shear = plane_aut_from_endo(parse_automorphism("(x1 + x2^2, x2)", K))
    for alpha in _pole_families(rng, K):
        for f in maps + [shear]:
            assert (_both_valuations(f, alpha, degeneration._conjugate_valuation)
                    == _both_valuations(f, alpha, full_conjugate_valuation)), (str(f), str(alpha))
    assert _both_valuations(shear, fam("(x1 + 1/t, x2)", K),
                            degeneration._conjugate_valuation) == (0, 0)
    if K is F2:
        # the first window of alpha o f^-1 o alpha^-1 cancels in x1 at t^-7
        # (1 + 1 = 0) and keeps t^-2 in x2, but x1 reaches t^-3
        f = plane_aut_from_endo(parse_automorphism("(x2^2 + x1 + 1, x2^2 + x1 + x2 + 1)", K))
        alpha = fam("(t^-1*x2^2 + t^-1*x1 + t^-4, t*x2 + 1)", K)
        assert _both_valuations(f, alpha, degeneration._conjugate_valuation) == (
            _both_valuations(f, alpha, full_conjugate_valuation)) == (-10, -3)
    no_pole = fam("(x1 + t*x2^2 + t^3, x2 + t)", K)
    assert _both_valuations(maps[0], no_pole, degeneration._conjugate_valuation) == (
        _both_valuations(maps[0], no_pole, full_conjugate_valuation))
    L, f = LaurentRing(K), maps[0].fwd
    zero = MultiPoly.zero(L, 2)
    alpha = fam("(x1 + t^-2*x2^2, x2 + t^-1)", K)
    for outer, inner in [(Endo([zero, zero]), alpha), (Endo([zero, alpha.comps[1]]), alpha),
                         (alpha, Endo([zero, alpha.comps[1]])), (alpha, Endo([zero, zero]))]:
        assert (degeneration._conjugate_valuation(outer, f, inner)
                == full_conjugate_valuation(outer, f, inner)), (str(outer), str(inner))
    assert degeneration._conjugate_valuation(Endo([zero, zero]), f, alpha) == 0
    # the first window cuts x2 off the inner map, then cancels the outer x1
    # component and keeps t^4 in x2, though outer o f o inner = (-x2, ...)
    outer, f, inner = (fam("(x1 - x2, t^5*x2)", K), parse_automorphism("(x1, x1 + x2)", K),
                       fam("(t^-1*x1 + x2, x2)", K))
    assert degeneration._conjugate_valuation(outer, f, inner) == 0
    assert full_conjugate_valuation(outer, f, inner) == 0


def test_roadmap_pole_checks_read_few_slices():
    """Two pole checks whose conjugates have thousands of terms in full but
    one term in the lowest slice: h^3 for h = (x2, -x1 + 2 x2^3 + x2) over
    F5 and g^3 for the Henon map g = (x2, -x1 + 3/2 x2^2 - 2) over Q.  Both
    valuations are pinned; composing the conjugates in full took 5 s and
    16 s."""
    start = time.perf_counter()
    for K, h, a, pinned in [
            (F5, "(x2, -x1 + 2*x2^3 + x2)", "(x1 + t^-1*x2^4 + t^3*x2^7, x2 + t^-1)", (-186, -312)),
            (Q, "(x2, -x1 + 3/2*x2^2 - 2)", "(x1 + t^-1*x2^3 + t*x2^5, x2 + t^-2)", (-79, -179))]:
        f = plane_aut_from_endo(parse_automorphism(h, K)).power(3)
        rep = pole_propagation_check(f, fam(a, K))
        assert (rep.conjugate_valuation, rep.inverse_conjugate_valuation) == pinned
    assert time.perf_counter() - start < 5


def _x_alpha_slices(rng, K):
    """(family, rank of its lowest slice): A o (t^k x1, t^-k x2) for seeded
    affine A over K and k = 1, -1, 2, (x1 + t^-1 x2^2, x2), and the rank-two
    (t^-1 x1, t^-1 x2) and (t^-1 x1 + t^-1 x2^2, t^-1 x2)."""
    L = LaurentRing(K)
    out = []
    for k in (1, -1, 2):
        A = lift_plane_aut(plane_aut_from_endo(rand_affine(rng, K).to_endo()), L).fwd
        diag = Endo([MultiPoly(L, 2, {(1, 0): {k: K.one}}), MultiPoly(L, 2, {(0, 1): {-k: K.one}})])
        out.append((A.compose(diag), 1))
    out.append((fam("(x1 + t^-1*x2^2, x2)", K), 1))
    out.append((fam("(t^-1*x1, t^-1*x2)", K), 2))
    out.append((fam("(t^-1*x1 + t^-1*x2^2, t^-1*x2)", K), 2))
    return out


@pytest.mark.parametrize("K", [Q, F2, F5, F1000003], ids=repr)
def test_x_alpha_matches_the_sampled_oracle(K, monkeypatch):
    """x_alpha reads the same as the 25-sample loop; a rank-one slice stops
    at its first nonzero sample, a rank-two slice takes every sample (all 4
    points of F2^2)."""
    rng = random.Random(f"{SEED}/x-alpha/{K!r}")
    taken, samples = [], degeneration._affine_samples

    def counted(*args):
        for y in samples(*args):
            taken.append(y)
            yield y

    monkeypatch.setattr(degeneration, "_affine_samples", counted)
    ys = list(samples(K, 2, degeneration._X_ALPHA_SAMPLES))
    for alpha, rank in _x_alpha_slices(rng, K):
        taken.clear()
        xs = x_alpha(alpha)
        nonzero = (i for i, y in enumerate(ys)
                   if any(not K.is_zero(v) for v in xs.alpha_tilde.evaluate(y)))
        assert taken == (ys if rank == 2 else ys[:next(nonzero, len(ys) - 1) + 1]), str(alpha)
        assert xs.describe() == sampled_x_alpha(alpha).describe(), str(alpha)
    if K is F1000003:
        # every sample has y1 = 0 over F1000003, so no point survives
        alpha = fam("(t^-1*x1, 2*t^-1*x1)", K)
        xs = x_alpha(alpha)
        assert xs.points == () and xs.describe() == sampled_x_alpha(alpha).describe()


def _witnesses():
    return [("ii", lambda: degenerate_family_ii(Q, {2: Fraction(1), 0: Fraction(3)})),
            ("iii", lambda: degenerate_family_iii(F5, 2, 4, {0: 1, 1: 3})),
            ("iv-F1", lambda: degenerate_family_iv(F3, {2: 2, 0: 1}, variant="F1")),
            ("iv-F2", lambda: degenerate_family_iv(F2, {1: 1}, variant="F2"))]


@pytest.mark.parametrize("tag,build", _witnesses(), ids=[t for t, _ in _witnesses()])
def test_each_witness_composes_its_family_once(tag, build, compose_spy, monkeypatch):
    """Every conjugation of a witness runs through _conjugated_family, two
    substitutions each, and f is conjugated once: by the whole conjugator
    for ii and iii, by alpha for iv, whose F1 family and each F2 candidate
    m conjugate A = alpha^-1 o f o alpha by an affine or diagonal map.  No
    witness is verified as it is built, and A's inverse is not built.  The
    family inverse is built when it is first read, by one more conjugation
    by alpha for iv, kept, and equals conjugator^-1 o f^-1 o conjugator."""
    calls, inner = [], degeneration._conjugated_family

    def recorded(g, c):
        calls.append((g, c, inner(g, c)))
        return calls[-1][2]

    monkeypatch.setattr(degeneration, "_conjugated_family", recorded)
    compose_spy.clear()
    w = build()
    iv = tag.startswith("iv")
    candidates = w.params["m"] if tag == "iv-F2" else 1
    assert len(calls) == iv + candidates
    assert compose_spy.callers["conjugate"] == 2 * len(calls)
    assert "verify" not in compose_spy.within
    (g, c, A), = [call for call in calls if call[0] is w.source]
    if iv:
        assert c.degree == w.params["q"]          # alpha
        assert [call[0].fwd for call in calls[1:]] == (
            [A.fwd] if tag == "iv-F1"
            else [degeneration._substitute_t_power(A, k).fwd for k in range(1, candidates + 1)])
        assert all(call[1].degree == 1 for call in calls[1:])
        assert callable(A._inv)
    inv = w.family.inv
    assert compose_spy.callers["conjugate"] == 2 * len(calls) + 2 + 2 * iv
    assert not callable(A._inv)
    assert w.family.inv is inv
    assert compose_spy.callers["conjugate"] == 2 * len(calls) + 2 + 2 * iv
    L, c = w.family.ring, w.conjugator
    assert inv == c.inv.compose(lift_endo(w.source.inv, L)).compose(c.fwd)
    ident = Endo.identity(L, 2)
    assert w.family.fwd.compose(inv) == ident and inv.compose(w.family.fwd) == ident
    assert w.verify()


@pytest.mark.parametrize("tag,build", _witnesses(), ids=[t for t, _ in _witnesses()])
def test_a_witness_conjugator_inverse_is_built_once(tag, build):
    """verify() and specialization_check read the conjugator's inverse; one
    given as a function is built the first time, and kept."""
    w, built = build(), []
    inv = w.conjugator.inv

    def inverse():
        built.append(1)
        return inv

    c = PlaneAut(w.conjugator.fwd, inverse, verify=False)
    w = DegenerationWitness(w.source, w.family_tag, c, w.family, w.limit, w.params)
    assert w.verify() and built == [1]
    K = w.source.ring
    assert all(w.specialization_check(a) for a in (K.one, K.neg(K.one)))
    assert w.verify() and built == [1]


def _family_iv_inputs(rng, K):
    """Q = {}, a nonzero constant and seeded Q of degree at most 1 to 6."""
    return [{}, {0: rand_scalar(rng, K, nonzero=True)}] + [
        rand_univariate(rng, K, deg, nonzero=True) for deg in range(1, 7)]


@pytest.mark.parametrize("K", [F2, F3, F5, F7], ids=repr)
def test_family_iv_witness_matches_the_full_conjugation_oracle(K):
    """Both variants, read off A = alpha^-1 o f o alpha, equal the
    construction that conjugated f in full by the whole conjugator: family,
    conjugator and its inverse, limit and m."""
    rng = random.Random(f"{SEED}/family-iv-oracle/{K!r}")
    for Q in _family_iv_inputs(rng, K):
        for variant in ("F1", "F2"):
            w = degenerate_family_iv(K, Q, variant)
            f, c, family, m = family_iv_by_full_conjugation(K, Q, variant)
            assert w.source.fwd == f.fwd
            assert w.family.fwd == family, (Q, variant)
            assert w.conjugator.fwd == c.fwd
            assert w.conjugator.inv == c.inv
            assert w.limit == value_at_zero(family)
            assert w.params.get("m") == m and w.verify()


@pytest.mark.parametrize("K", [Q, F5], ids=repr)
def test_diagonal_witnesses_match_the_full_conjugation_oracle(K):
    """Families ii and iii equal f conjugated in full by (x1 / t, t x2)."""
    rng = random.Random(f"{SEED}/diagonal-oracle/{K!r}")
    c = degeneration._diag_t(LaurentRing(K)).inverse()
    zeta, m = (K.neg(K.one), 2) if K is Q else (2, 4)
    for deg in (0, 2, 4):
        P = rand_univariate(rng, K, deg, nonzero=True)
        for w in (degenerate_family_ii(K, P), degenerate_family_iii(K, zeta, m, P)):
            assert w.conjugator.fwd == c.fwd
            assert w.family.fwd == conjugated_in_full(w.source, c), (w.family_tag, P)
            assert w.limit == value_at_zero(w.family.fwd)
        assert degenerate_family_ii(K, P).source.fwd == family_ii_rep(K, P).fwd


def test_family_iv_f2_search_is_fast():
    """The F2 search conjugates A(t^m) by a diagonal map for each m instead
    of f by alpha(t^m), so m = 40 candidates over F5 with the witness's
    verify() and three specializations stay well under 2 s; conjugating f
    by each candidate took several seconds."""
    start = time.perf_counter()
    w = degenerate_family_iv(F5, {4: 1, 9: 2}, "F2")
    assert w.params["m"] == 40 and w.verify()
    assert all(w.specialization_check(c) for c in (1, 2, 3))
    assert time.perf_counter() - start < 2.0


def test_family_iv_f1_witness_is_fast():
    """The conjugations by alpha raise polynomials to q = 25 and to
    p - 1 + pk: built by relabelling exponents, the F1 witness with its
    verify() and a specialization takes a few milliseconds, where building
    those powers by squaring took about 200 ms."""
    start = time.perf_counter()
    w = degenerate_family_iv(F5, {4: 2, 9: 3}, "F1")
    assert w.params["q"] == 25 and w.verify() and w.specialization_check(2)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("tag,build", _witnesses(), ids=[t for t, _ in _witnesses()])
def test_one_changed_family_coefficient_fails_verify(tag, build):
    """verify() still conjugates in full: each coefficient of the family,
    in turn, plus one at t^0 makes it false."""
    w = build()
    L = w.family.ring
    for i, comp in enumerate(w.family.fwd.comps):
        for exps, c in comp.terms.items():
            terms = dict(comp.terms)
            terms[exps] = L.add(c, L.one)
            comps = list(w.family.fwd.comps)
            comps[i] = MultiPoly(L, 2, terms)
            bad = DegenerationWitness(w.source, w.family_tag, w.conjugator,
                                      SimpleNamespace(fwd=Endo(comps)), w.limit, w.params)
            assert not bad.verify(), (i, exps)


# -- verify() and specialization_check against the full conjugation -----------

def _differential_witnesses(K):
    """Valid witnesses over K: families ii and iii over Q and F7, iv (F1 and
    F2) over F2, F3, F5 and F7."""
    if K.characteristic == 0:
        return [degenerate_family_ii(K, {2: Fraction(1), 0: Fraction(3)}),
                degenerate_family_ii(K, {3: Fraction(-2), 1: Fraction(1, 2)}),
                degenerate_family_iii(K, Fraction(-1), 2, {1: Fraction(1), 0: Fraction(1)})]
    out = [degenerate_family_iv(K, {1: 1}, variant) for variant in ("F1", "F2")]
    out.append(degenerate_family_iv(K, {K.characteristic: 1, 0: 1}, "F1"))
    if K is F7:
        out += [degenerate_family_ii(K, {2: 3, 0: 1}), degenerate_family_iii(K, 2, 3, {0: 1, 1: 5})]
    return out


def _moved(rng, e, k):
    """The family or conjugator e with the t^k coefficient of one of its
    terms moved by 1."""
    L, i = e.ring, rng.randrange(2)
    terms = dict(e.comps[i].terms)
    exps = rng.choice(sorted(terms))
    terms[exps] = L.add(terms[exps], {k: L.base.one})
    comps = list(e.comps)
    comps[i] = MultiPoly(L, 2, terms)
    return Endo(comps)


def _specialized_oracle(w, s):
    return specialize(conjugated_in_full(w.source, w.conjugator), s) == specialize(w.family.fwd, s)


@pytest.mark.parametrize("K", [Q, F2, F3, F5, F7], ids=repr)
def test_witness_checks_agree_with_the_full_conjugation(K):
    """verify() and specialization_check walk the conjugator through f and
    its inverse; conftest.conjugated_in_full, c^-1 o f o c composed in full,
    is the oracle.  Valid witnesses pass both.  Each witness is then checked
    with one coefficient of F moved by t, which keeps its limit, or one of
    c or c^-1 moved by 1 or t: both checks give the oracle's answer, and at
    least one moved witness fails."""
    rng = random.Random(f"{SEED}/witness-differential/{K!r}")
    points = [a for a in (1, 2, 3) if not K.is_zero(K.from_int(a))]
    verdicts = []
    for w in _differential_witnesses(K):
        assert conjugated_in_full(w.source, w.conjugator) == w.family.fwd
        assert w.verify() and all(w.specialization_check(K.from_int(a)) for a in points)
        c, L = w.conjugator, w.conjugator.ring
        for trial in range(6):
            family, fwd, inv = w.family, c.fwd, c.inv
            if trial % 3 == 0:
                family = SimpleNamespace(fwd=_moved(rng, family.fwd, 1))
            elif trial % 3 == 1:
                fwd = _moved(rng, fwd, rng.randrange(2))
            else:
                inv = _moved(rng, inv, rng.randrange(2))
            bad = DegenerationWitness(w.source, w.family_tag, SimpleNamespace(fwd=fwd, inv=inv, ring=L),
                                      family, w.limit, w.params)
            want = conjugated_in_full(bad.source, bad.conjugator) == bad.family.fwd
            assert bad.verify() == want, (w.family_tag, trial)
            for a in points:
                s = K.from_int(a)
                assert bad.specialization_check(s) == _specialized_oracle(bad, s), (w.family_tag, a)
            verdicts.append(want)
    assert not all(verdicts)
