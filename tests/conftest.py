"""Shared fixtures: seeded random words, pairs and families.

Sampling is budget-aware: regular (Henon-type) words are kept at degrees
where exact fifth iterates stay affordable, degree 2 over Q and degrees
2-4 over F5, while algebraic words use the full factor-degree cap.  The
caps from the word samplers are maxima, not a promise of uniformity.
"""

import collections
import functools
import operator
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

import pytest

from planeaut import (
    MINUS_INF,
    AffineFactor,
    AmalgamWord,
    ArityMismatchError,
    Endo,
    InfinityPoint,
    JonquieresFactor,
    LaurentRing,
    MultiPoly,
    NoIndeterminacyError,
    NotInvertibleError,
    PlaneAut,
    PrimeField,
    RationalField,
    factor_to_plane_aut,
    image_point_at_infinity,
    indeterminacy_point,
    valuation,
    value_at_zero,
    x_alpha,
)
from planeaut import amalgam, degeneration, endo, poly
from planeaut.degeneration import PolePropagationReport, lift_endo
from planeaut.rings import power, up_add, up_deg, up_mul

SEED = 20260823


@pytest.fixture
def rng():
    return random.Random(SEED)


@pytest.fixture(scope="session")
def QQ():
    return RationalField()


@pytest.fixture(scope="session")
def F2():
    return PrimeField(2)


@pytest.fixture(scope="session")
def F3():
    return PrimeField(3)


@pytest.fixture(scope="session")
def F5():
    return PrimeField(5)


def rand_scalar(rng, K, nonzero=False):
    if hasattr(K, "p"):
        lo = 1 if nonzero else 0
        return rng.randrange(lo, K.p)
    num = rng.randint(-3, 3)
    if nonzero:
        while num == 0:
            num = rng.randint(-3, 3)
    den = rng.choice((1, 1, 1, 2))
    return Fraction(num, den)


def rand_affine(rng, K, triangular=False):
    """Random determinant-1 affine factor; triangular means c = 0."""
    a = rand_scalar(rng, K, nonzero=True)
    b = rand_scalar(rng, K)
    c = K.zero if triangular else rand_scalar(rng, K)
    # d = (1 + b c) / a
    d = K.mul(K.add(K.one, K.mul(b, c)), K.invert(a))
    e = rand_scalar(rng, K)
    f = rand_scalar(rng, K)
    return AffineFactor(K, a, b, c, d, e, f)


def rand_jonquieres(rng, K, deg):
    a = rand_scalar(rng, K, nonzero=True)
    P = {deg: rand_scalar(rng, K, nonzero=True)}
    for k in range(deg):
        if rng.random() < 0.5:
            cv = rand_scalar(rng, K)
            if not K.is_zero(cv):
                P[k] = cv
    c = rand_scalar(rng, K)
    return JonquieresFactor(K, a, P, c)


def word_to_plane_aut(word: AmalgamWord) -> PlaneAut:
    fwd = word.recompose()
    inv = Endo.identity(word.ring, 2)
    for fac in word.factors:
        inv = fac.inverse().to_endo().compose(inv)
    return PlaneAut(fwd, inv)


def sample_algebraic_word(rng, K, max_deg=4):
    """A word whose cyclic reduction has at most one triangular factor."""
    deg = rng.choice(tuple(d for d in (2, 2, 3, 3, 4) if d <= max_deg))
    shape = rng.randrange(5)
    if shape == 0:
        facs = [rand_jonquieres(rng, K, deg)]
    elif shape == 1:
        facs = [rand_affine(rng, K, triangular=True), rand_jonquieres(rng, K, deg)]
    elif shape == 2:
        facs = [rand_jonquieres(rng, K, deg), rand_affine(rng, K, triangular=True)]
    elif shape == 3:
        facs = [rand_affine(rng, K, triangular=True), rand_jonquieres(rng, K, deg),
                rand_affine(rng, K, triangular=True)]
    else:
        facs = [rand_affine(rng, K)]
    return AmalgamWord(K, facs)


def sample_regular_word(rng, K, deg, two_blocks=False):
    """A Henon-type word: affine factors here are generic, so the cyclic
    word keeps its triangular degrees.  Resampled until actually regular."""
    for _ in range(60):
        if two_blocks:
            facs = [rand_affine(rng, K), rand_jonquieres(rng, K, deg),
                    rand_affine(rng, K), rand_jonquieres(rng, K, deg)]
        else:
            shape = rng.randrange(3)
            if shape == 0:
                facs = [rand_affine(rng, K), rand_jonquieres(rng, K, deg)]
            elif shape == 1:
                facs = [rand_jonquieres(rng, K, deg), rand_affine(rng, K)]
            else:
                facs = [rand_affine(rng, K), rand_jonquieres(rng, K, deg),
                        rand_affine(rng, K)]
        aut = word_to_plane_aut(AmalgamWord(K, facs))
        if not compose_is_algebraic(aut):
            return AmalgamWord(K, facs)
    raise AssertionError("could not sample a regular word")


def _algebraic_word_nontrivial(rng, K, max_deg=4):
    """Degree-1 maps satisfy both dichotomy arms at once, so the suite
    only keeps algebraic words of degree >= 2."""
    while True:
        w = sample_algebraic_word(rng, K, max_deg)
        if word_to_plane_aut(w).degree >= 2:
            return w


def dichotomy_corpus(rng, QQ, F5):
    """Words for the degree-dichotomy and round-trip suites: (field, word).

    Rational-coefficient strata are capped where iterate degrees or
    numerators blow exact arithmetic past the time budget: factor degree 4
    and iterated degree 3 appear over F5, where coefficients stay small.
    """
    out = []
    for _ in range(55):
        out.append((QQ, _algebraic_word_nontrivial(rng, QQ, max_deg=3)))
    for _ in range(40):
        out.append((QQ, sample_regular_word(rng, QQ, 2)))
    for _ in range(55):
        out.append((F5, _algebraic_word_nontrivial(rng, F5)))
    for _ in range(63):
        out.append((F5, sample_regular_word(rng, F5, 2)))
    # degree-3 iterates reach degree 243 by m=5: seconds each, so only a few,
    # and only words whose iterates stay sparse enough to finish in time
    picked = 0
    while picked < 3:
        w = sample_regular_word(rng, F5, 3)
        f = word_to_plane_aut(w)
        cube = f.fwd.compose(f.fwd.compose(f.fwd))
        if len(cube.comps[0].terms) + len(cube.comps[1].terms) < 300:
            out.append((F5, w))
            picked += 1
    return out


def rand_univariate(rng, K, max_deg, nonzero=False):
    P = {}
    for k in range(max_deg + 1):
        if rng.random() < 0.4:
            c = rand_scalar(rng, K)
            if not K.is_zero(c):
                P[k] = c
    if nonzero and not P:
        P[rng.randrange(max_deg + 1)] = rand_scalar(rng, K, nonzero=True)
    return P


def family_ii_rep(K, P) -> PlaneAut:
    x1 = MultiPoly.variable(K, 2, 0)
    x2 = MultiPoly.variable(K, 2, 1)
    Ppoly = MultiPoly(K, 2, {(0, k): c for k, c in P.items()})
    return PlaneAut(Endo([x1 + Ppoly, x2]), Endo([x1 - Ppoly, x2]))


def family_iv_element(K, Q) -> PlaneAut:
    """(x1 + Q(x2), x2 + 1) with its inverse (x1 - Q(x2 - 1), x2 - 1)."""
    x1 = MultiPoly.variable(K, 2, 0)
    x2 = MultiPoly.variable(K, 2, 1)
    one = MultiPoly.const(K, 2, K.one)
    Qp = MultiPoly(K, 2, {(0, k): c for k, c in Q.items()})
    Qshift = Qp.compose([x1, x2 - one])
    return PlaneAut(Endo([x1 + Qp, x2 + one]), Endo([x1 - Qshift, x2 - one]))


def horner_compose(F, a, b):
    """The substitution a(b) by Horner over the exponents of a that occur,
    each gap between them one power of b by repeated squaring: the kernel's
    substitution before rings.up_shift, kept as the oracle of up_shift."""
    exps = sorted(a, reverse=True)
    acc, gaps = {}, {}
    for k, below in zip(exps, exps[1:] + [0]):
        acc = up_add(F, acc, {0: a[k]})
        if k > below:
            if k - below not in gaps:
                gaps[k - below] = power(b, k - below, functools.partial(up_mul, F), {0: F.one})
            acc = up_mul(F, acc, gaps[k - below])
    return acc


def ring_mul(R, a, b):
    """The product of two term dicts by the ring's own add and mul, pairing
    every term with every term: MultiPoly.__mul__'s dict loop before the int
    kernel, kept as its oracle."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = R.add(out.get(e, R.zero), R.mul(ca, cb))
            if R.is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
    return out


def ring_power(R, nvars, a, n):
    """a^n for a term dict a in nvars variables, n >= 0, by ring_mul
    products, squaring left to right over the bits of n: the oracle of the
    int kernel's powers (poly._powers)."""
    out = {(0,) * nvars: R.one}
    for bit in bin(n)[2:]:
        out = ring_mul(R, out, out)
        if bit == "1":
            out = ring_mul(R, out, a)
    return out


def ring_compose_many(polys, args):
    """[p.compose(args) for p in polys] by ring methods: poly.compose_many
    before the int kernel, with its gap-power table built by ring_mul, kept
    as its oracle."""
    R, nv = args[0].ring, args[0].nvars
    one = {(0,) * nv: R.one}
    mul = functools.partial(ring_mul, R)
    used = [set() for _ in args]
    for p in polys:
        for e in p.terms:
            for i, k in enumerate(e):
                if k:
                    used[i].add(k)
    powers = []
    for a, ks in zip(args, used):
        table, gaps = {}, {1: a.terms}
        prev, last = None, 0
        for k in sorted(ks):
            g = k - last
            if g not in gaps:
                gaps[g] = power(a.terms, g, mul, one)
            prev = gaps[g] if prev is None else mul(prev, gaps[g])
            table[k] = prev
            last = k
        powers.append(table)
    out = []
    for p in polys:
        acc = {}
        for e, c in p.terms.items():
            term = one
            for i, k in enumerate(e):
                if k:
                    term = mul(term, powers[i][k])
            for te, tc in term.items():
                s = R.add(acc.get(te, R.zero), R.mul(c, tc))
                if R.is_zero(s):
                    acc.pop(te, None)
                else:
                    acc[te] = s
        out.append(MultiPoly(R, nv, acc))
    return out


def monomial_reduction_ops(e: Endo):
    """amalgam._reduction_ops before one factor per stage, kept as its oracle:
    the affine move is read off the image point at infinity, and each top
    monomial c x2^k is subtracted as its own elementary factor by a full
    Endo.compose."""
    if e.nvars != 2:
        raise ArityMismatchError(f"a plane map has 2 variables, got {e.nvars}")
    R = e.ring
    work = e
    ops = []
    while work.degree >= 2:
        y1, y2 = image_point_at_infinity(work).coords
        if R.is_zero(y1):
            move = AffineFactor.rotation(R)
        elif R.is_zero(y2):
            move = None
        else:
            move = AffineFactor.shear(R, y2)
        if move is not None:
            work = move.to_endo().compose(work)
            ops.append(move)
        e2 = work.comps[1].degree
        if e2 is MINUS_INF or e2 < 1:
            raise NotInvertibleError("degenerate second component; not an automorphism")
        while work.comps[0].degree > e2:
            d1 = work.comps[0].degree
            if d1 % e2 != 0:
                raise NotInvertibleError("top degrees incompatible; not an automorphism")
            k = d1 // e2
            top1 = work.comps[0].homogeneous_part(d1)
            top2k = work.comps[1].homogeneous_part(e2) ** k
            exp, lead = top2k.leading_term()
            c = R.mul(top1.coeff(exp), R.invert(lead))
            if top1 != top2k.scale(c):
                raise NotInvertibleError("top forms not proportional; not an automorphism")
            sub = JonquieresFactor.elementary(R, {k: R.neg(c)})
            work = sub.to_endo().compose(work)
            ops.append(sub)
            after = work.comps[0].degree
            if after is not MINUS_INF and after >= d1:
                raise NotInvertibleError("degree reduction stalled; not an automorphism")
    return ops, work


def restart_reduce_word(w: AmalgamWord) -> AmalgamWord:
    """amalgam.reduce_word before it settled factors onto a stack, kept as
    its oracle: each round deletes the leftmost identity, else merges the
    leftmost same-tag pair, else absorbs the leftmost intersection factor
    into a neighbour, and restarts from the first factor."""
    facs = list(w.factors)
    changed = True
    while changed:
        changed = False
        # drop interior identities
        for i, fac in enumerate(facs):
            if fac.is_identity and len(facs) > 1:
                del facs[i]
                changed = True
                break
        if changed:
            continue
        # same-tag neighbours merge
        for i in range(len(facs) - 1):
            if facs[i].tag == facs[i + 1].tag:
                facs[i] = facs[i].compose(facs[i + 1])
                del facs[i + 1]
                changed = True
                break
        if changed:
            continue
        # intersection factors convert into a triangular neighbour
        for i, fac in enumerate(facs):
            if not fac.in_intersection or len(facs) == 1:
                continue
            right = facs[i + 1] if i + 1 < len(facs) else None
            left = facs[i - 1] if i > 0 else None
            if right is not None and right.tag != fac.tag:
                if fac.tag == "A":
                    facs[i] = fac.as_jonquieres().compose(right)
                else:
                    facs[i] = fac.as_affine().compose(right)
                del facs[i + 1]
            elif left is not None and left.tag != fac.tag:
                if fac.tag == "A":
                    facs[i - 1] = left.compose(fac.as_jonquieres())
                else:
                    facs[i - 1] = left.compose(fac.as_affine())
                del facs[i]
            else:
                continue
            changed = True
            break
    return AmalgamWord(w.ring, facs)


def restart_cyclic_reduction(word: AmalgamWord, c) -> tuple:
    """(word, conj) of amalgam._cyclic_reduction before it settled each
    rotation at its seam, kept as its oracle: the first factor moves to the
    end, twisted by s_c = (c x1, x2), and the whole rotated word is reduced
    again by restart_reduce_word."""
    R, conj = word.ring, ()
    while len(word) > 1 and (word.factors[0].tag, word.factors[-1].tag) != ("A", "J"):
        first = word.factors[0]
        conj = (first.inverse(),) + conj
        last = first if R.eq(c, R.one) else amalgam._twist(first, c)
        word = restart_reduce_word(AmalgamWord(R, word.factors[1:] + (last,)))
    return word, conj


def rand_word(rng, K, length=8) -> AmalgamWord:
    """A seeded unreduced word of length factors or a few more: generic
    affine and triangular factors, identities of both tags, SAff ∩ SJ
    factors of both tags (triangular affine maps, and triangular maps of
    degree <= 1), and cancelling pairs u, u^-1 of a subword u of one to
    three such factors, whose merges cancel across the seam and leave
    same-tag or intersection neighbours behind."""
    def one():
        kind = rng.randrange(8)
        if kind < 3:
            return rand_affine(rng, K)
        if kind < 6:
            return rand_jonquieres(rng, K, rng.choice((2, 3)))
        if kind == 6:
            return rng.choice((rand_affine(rng, K, triangular=True),
                               rand_jonquieres(rng, K, rng.choice((0, 1)))))
        return rng.choice((AffineFactor(K, K.one, K.zero, K.zero, K.one),
                           JonquieresFactor.identity(K)))

    facs = []
    while len(facs) < length:
        if rng.random() < 0.15:
            u = [one() for _ in range(rng.randint(1, 3))]
            facs += u + [fac.inverse() for fac in reversed(u)]
        else:
            facs.append(one())
    return AmalgamWord(K, facs)


def two_sided_composition(fwd: Endo, inv: Endo) -> bool:
    """fwd o inv = id and inv o fwd = id by two full compositions, each of
    which builds intermediates of degree deg fwd * deg inv: PlaneAut.verify,
    the check plane_aut_from_endo made before it walked the factor word,
    kept as the oracle of amalgam._check_inverse_by_word."""
    ident = Endo.identity(fwd.ring, fwd.nvars)
    return fwd.compose(inv) == ident and inv.compose(fwd) == ident


def two_sided_conjugation(h: PlaneAut, f: PlaneAut, g: PlaneAut) -> bool:
    """g = h o f o h^-1 by two full compositions, which build degree
    deg h * deg f and then deg h * deg f * deg h before they cancel to deg g:
    the check of conjugacy certificates and normal forms before they walked
    f through the conjugator's word, kept as the oracle of
    amalgam._check_conjugation.  It reads h.inv, so it builds a deferred
    inverse."""
    return h.fwd.compose(f.fwd).compose(h.inv) == g.fwd


def compose_degree_sequence(f, m: int) -> list:
    """[deg f, ..., deg f^m] with f^(k+1) = f o f^k substituted into the
    expanded f by Endo.compose and raised every time: endo.degree_sequence
    before it iterated along the factor word on int forms, kept as its
    oracle."""
    e = f.fwd if isinstance(f, PlaneAut) else f
    out, g = [], e
    for k in range(m):
        if k:
            g = e.compose(g)
        out.append(g.degree)
    return out


def compose_is_dynamically_regular(f: PlaneAut) -> bool:
    """deg(f o f) = deg(f)^2 >= 4 with f o f composed in full, the test
    endo.is_dynamically_regular made before it built f o f along the word."""
    return f.degree >= 2 and f.fwd.compose(f.fwd).degree == f.degree ** 2


def compose_power(f: PlaneAut, m: int) -> PlaneAut:
    """f^m as f o f^k and f^-1 o f^-k, each substituted into the expanded
    f or f^-1 by Endo.compose, m < 0 through f.inverse(): PlaneAut.power
    before it iterated along the factor word, kept as its oracle."""
    if m < 0:
        return compose_power(f.inverse(), -m)
    fwd = inv = Endo.identity(f.ring, 2)
    for _ in range(m):
        fwd, inv = f.fwd.compose(fwd), f.inv.compose(inv)
    return PlaneAut(fwd, inv, verify=False)


def compose_is_algebraic(f: PlaneAut) -> bool:
    """Bounded degree growth as deg(f o f) <= deg(f), with f o f composed in
    full: the growth test before it was read off the cyclically reduced
    factor word, kept as the oracle of amalgam.is_algebraic."""
    return f.fwd.compose(f.fwd).degree <= f.degree


def affine_image_at_infinity(fac: AffineFactor, pt: InfinityPoint) -> InfinityPoint:
    """The image of pt = [0 : y1 : y2] under the affine factor fac, whose
    linear part maps it to [0 : a y1 + b y2 : c y1 + d y2]."""
    R = fac.ring
    y1, y2 = pt.coords
    return InfinityPoint.normalize(R, (R.add(R.mul(fac.a, y1), R.mul(fac.b, y2)),
                                       R.add(R.mul(fac.c, y1), R.mul(fac.d, y2))))


def _infinity_ladder(ring):
    """[0:1:u] for u in the ring's sample stream, then [0:0:1] once a finite
    ring runs out."""
    for u in ring.sample_stream():
        yield (ring.one, u)
    yield (ring.zero, ring.one)


def sampled_image_at_infinity(f) -> InfinityPoint:
    """X_f evaluated at samples [0:1:u], u = 0, 1, 2, ... (then [0:0:1])
    skipping I_f; two samples must agree, and for a PlaneAut the result is
    cross-checked against the indeterminacy point of the inverse:
    endo.image_point_at_infinity before it read X_f off the top forms, kept
    as its oracle."""
    e = f.fwd if isinstance(f, PlaneAut) else f
    if e.degree is MINUS_INF or e.degree < 2:
        raise NoIndeterminacyError("degree-1 maps do not contract the line at infinity")
    ring = e.ring
    i_pt = indeterminacy_point(e)
    top = e.highest_part()
    samples = []
    for y in _infinity_ladder(ring):
        pt = InfinityPoint.normalize(ring, y)
        if pt == i_pt:
            continue
        vals = (top.comps[0].evaluate(y), top.comps[1].evaluate(y))
        if ring.is_zero(vals[0]) and ring.is_zero(vals[1]):
            continue
        samples.append(InfinityPoint.normalize(ring, vals))
        if len(samples) == 2:
            break
    if len(samples) < 2 or samples[0] != samples[1]:
        raise NotInvertibleError("line at infinity is not contracted to a single point")
    if isinstance(f, PlaneAut):
        if indeterminacy_point(f.inverse()) != samples[0]:
            raise NotInvertibleError("image at infinity disagrees with the inverse's "
                                     "indeterminacy point")
    return samples[0]


@dataclass
class MultiplicativityReport:
    f_degree: int
    g_degree: int
    composite_degree: int
    multiplicative: bool
    x_of_f: InfinityPoint | None
    i_of_g: InfinityPoint | None
    point_test: bool | None
    note: str = ""

    def consistent(self) -> bool:
        return self.point_test is None or self.point_test == self.multiplicative


def degree_multiplicativity_test(f: PlaneAut, g: PlaneAut) -> MultiplicativityReport:
    """Does deg(g o f) = deg(g) deg(f)?  Decided by composing g o f in full
    and by the point test X_f != I_g; both routes must agree, so the report
    checks image_point_at_infinity and indeterminacy_point against the
    composed degree."""
    comp = g.fwd.compose(f.fwd)
    direct = comp.degree == g.degree * f.degree
    x = i = None
    pt = None
    note = ""
    if f.degree >= 2 and g.degree >= 2:
        x = image_point_at_infinity(f)
        i = indeterminacy_point(g)
        pt = x != i
    else:
        note = "a degree-1 factor composes multiplicatively"
    rep = MultiplicativityReport(f.degree, g.degree, comp.degree, direct, x, i, pt, note)
    if not rep.consistent():
        raise NotInvertibleError("degree drop does not match the point test; invalid input")
    return rep


def jacobian_first_plane_aut(e: Endo) -> PlaneAut:
    """amalgam.plane_aut_from_endo before it took c from the descent, kept as
    its oracle: the Jacobian determinant is multiplied out first, a map
    whose Jacobian is not a nonzero constant is rejected at once, and c is
    that constant."""
    jac = e.jacobian()
    if not jac.is_constant or jac.is_zero:
        raise NotInvertibleError("Jacobian determinant is not a nonzero constant")
    R, c = e.ring, jac.constant_value()
    word = amalgam._factor(e, c)
    inv = word.inverse_word().recompose()
    if not R.eq(c, R.one):
        inv = Endo([inv.comps[0].scale(R.invert(c)), inv.comps[1]])
    amalgam._check_inverse_by_word(e, inv, word, c)
    aut = PlaneAut(e, inv, verify=False)
    aut.word = word
    return aut


def compose_then_raise_pole_check(f: PlaneAut, alpha) -> dict:
    """degeneration.pole_propagation_check's describe() before it read the
    valuations off int forms, kept as its oracle: f and f^-1 are lifted to
    K[t, 1/t], both conjugates are composed and raised as families, and
    their valuations are read off the Laurent coefficients."""
    L = alpha.ring
    ainv = degeneration._family_aut(alpha).inv
    lifted = [e.map_coeffs(L.from_base, L) for e in (f.fwd, f.inv)]
    conj = ainv.compose(lifted[0]).compose(alpha)
    conj_inv = alpha.compose(lifted[1]).compose(ainv)
    v, vc, vci = valuation(alpha), valuation(conj), valuation(conj_inv)
    i_pt = indeterminacy_point(f.fwd)
    if v is not MINUS_INF and v >= 0:
        rep = PolePropagationReport(v, False, i_pt, (), vc, vci, True, True,
                                    ["alpha has no pole; the propagation hypothesis is vacuous"])
        return rep.describe()
    xs = x_alpha(alpha)
    hypothesis = any(pt != i_pt for pt in xs.points)
    notes = [] if xs.points else ["no sample point survived; hypothesis undetermined"]
    pole, pole_inv = vc is MINUS_INF or vc < 0, vci is MINUS_INF or vci < 0
    return PolePropagationReport(v, hypothesis, i_pt, xs.points, vc, vci, not hypothesis or pole,
                                 pole or pole_inv, notes).describe()


def full_conjugate_valuation(outer: Endo, f: Endo, inner: Endo):
    """degeneration._conjugate_valuation before it read the lowest t-slices,
    kept as its oracle: (outer o f) o inner composed in full on int forms,
    f lowered over K with a zero t-slot and the first substitution's reduced
    int form substituted into straight away, and the least t-exponent of the
    nonzero terms taken; 0 for the zero map."""
    L = outer.ring
    f_args = []
    for p in f.comps:
        m, den, flat = poly._lower(L.base, p.terms)
        f_args.append((den, {(*e, 0): v for e, v in flat.items()}))
    first = [poly._reduced(m, den, acc) for den, acc in
             poly._compose_lowered(L, m, [poly._lower(L, p.terms)[1:] for p in outer.comps],
                                   f_args, f.nvars)]
    second = poly._compose_lowered(L, m, first,
                                   [poly._lower(L, p.terms)[1:] for p in inner.comps], f.nvars)
    return min((e[-1] for _, acc in second for e, v in acc.items() if (v % m if m else v)),
               default=0)


def sampled_x_alpha(fam: Endo) -> degeneration.XAlphaSet:
    """degeneration.x_alpha before it stopped at the first nonzero sample of
    a rank-one slice, kept as its oracle, without the memo: every one of the
    _X_ALPHA_SAMPLES affine sample points y is sent through the lowest
    t-slice alpha_tilde, and the distinct normalized images of the nonzero
    ones are kept in order."""
    v = valuation(fam)
    K, m = fam.ring.base, -v
    tilde = fam.map_coeffs(lambda c: c.get(-m, K.zero), K)
    points = []
    for y in degeneration._affine_samples(K, fam.nvars, degeneration._X_ALPHA_SAMPLES):
        vals = tilde.evaluate(y)
        if all(K.is_zero(val) for val in vals):
            continue
        pt = InfinityPoint.normalize(K, vals)
        if pt not in points:
            points.append(pt)
    return degeneration.XAlphaSet(m, tilde, tuple(points))


def conjugated_in_full(f: PlaneAut, c: PlaneAut) -> Endo:
    """c^-1 o f o c over K[t, 1/t], f over K lifted and composed with the
    whole conjugator c."""
    return c.inv.compose(lift_endo(f.fwd, c.ring)).compose(c.fwd)


def family_iv_by_full_conjugation(K, Q: dict, variant: str):
    """(f, conjugator, family, m) of degenerate_family_iv's witness as it was
    built before the family was read off A = alpha^-1 o f o alpha, kept as
    its oracle: F1 conjugates f in full by alpha o c_aff^-1, and F2 conjugates
    f in full by each alpha(t^m) o (t x1, 1/t x2)^-1 in turn, m = 1, 2, ...,
    until the family has no pole and the identity at t = 0 (m is None for
    F1).  Only the construction is kept, none of the shape checks."""
    Q = {k: c for k, c in Q.items() if not K.is_zero(c)}
    f = factor_to_plane_aut(JonquieresFactor(K, K.one, Q, K.one))
    L = LaurentRing(K)
    if not Q:
        c = (PlaneAut(Endo.identity(L, 2), Endo.identity(L, 2), verify=False)
             if variant == "F1" else degeneration._diag_t(L))
        return f, c, conjugated_in_full(f, c), None
    d = up_deg(K, Q)
    mu, q = Q[d], K.characteristic
    while q <= d:
        q *= K.characteristic
    alpha = degeneration._family_iv_alpha(L, d, q, K.pow(mu, -q))
    if variant == "F1":
        x1, x2 = MultiPoly.variable(K, 2, 0), MultiPoly.variable(K, 2, 1)
        c_aff = PlaneAut(lift_endo(Endo([x2.scale(K.neg(mu)), x1.scale(K.invert(mu))]), L),
                         lift_endo(Endo([x2.scale(mu), x1.scale(K.neg(K.invert(mu)))]), L))
        c = alpha.compose(c_aff.inverse())
        return f, c, conjugated_in_full(f, c), None
    diag_inv = degeneration._diag_t(L).inverse()
    for m in range(1, 200):
        c = degeneration._substitute_t_power(alpha, m).compose(diag_inv)
        fam = conjugated_in_full(f, c)
        v = valuation(fam)
        if v is not MINUS_INF and v >= 0 and value_at_zero(fam) == Endo.identity(K, 2):
            return f, c, fam, m
    raise AssertionError("no m up to 200 degenerates f")


@pytest.fixture
def compose_spy(monkeypatch):
    """The largest degree each composition builds, one entry per call of
    poly._compose_lowered, which runs every poly.compose_many call and every
    step of poly.compose_chain: the largest sum of e_i * deg(arg_i) over the
    monomials x^e substituted, the degree of the largest monomial image, which
    the output keeps unless its top terms cancel.  Its callers attribute
    counts the calls per caller: the name of the first function outside
    poly.py and endo.py on the call stack.  Its within counts the calls
    under each function: every name on the call stack, once per call, so
    within["inv"] counts the compositions that build a deferred
    PlaneAut inverse."""
    degrees, inner = ComposeRecord(), poly._compose_lowered

    def spy(R, m, polys, args, nv):
        degs = [max((sum(e[:nv]) for e in flat), default=0) for _, flat in args]
        degrees.append(max((sum(map(operator.mul, e, degs)) for _, flat in polys for e in flat),
                           default=0))
        frame = sys._getframe(1)
        while frame.f_code.co_filename in _KERNEL_FILES:
            frame = frame.f_back
        degrees.callers[frame.f_code.co_name] += 1
        names, frame = set(), sys._getframe(1)
        while frame is not None:
            names.add(frame.f_code.co_name)
            frame = frame.f_back
        degrees.within.update(names)
        return inner(R, m, polys, args, nv)

    monkeypatch.setattr(poly, "_compose_lowered", spy)
    return degrees


@pytest.fixture
def imul_spy(monkeypatch):
    """The work of poly._imul, the one int product, as a Counter: calls, and
    term_products, len(a) * len(b) summed over the calls.  Every product of
    MultiPoly.__mul__, __pow__ and the compositions passes through it, so
    the counts record the work done without timing it."""
    counts, inner = collections.Counter(), poly._imul

    def spy(a, b, m):
        counts["calls"] += 1
        counts["term_products"] += len(a) * len(b)
        return inner(a, b, m)

    monkeypatch.setattr(poly, "_imul", spy)
    return counts


_KERNEL_FILES = {poly.__file__, endo.__file__}


class ComposeRecord(list):
    """compose_spy's degrees, one per composition, and its callers and within
    Counters."""

    def __init__(self):
        super().__init__()
        self.callers = collections.Counter()
        self.within = collections.Counter()

    def clear(self):
        super().clear()
        self.callers.clear()
        self.within.clear()
