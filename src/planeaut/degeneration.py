"""One-parameter families of plane maps with coefficients in K[t, 1/t].

A family is an Endo over K[t, 1/t]: its coefficients are Laurent
polynomials in the parameter t.  Its valuation is the minimal t-exponent
over all coefficients; the family has a value at t=0 exactly when the
valuation is >= 0, and substituting any c in K* gives an endomorphism
over K (valuation, value_at_zero, specialize).  A family with its inverse
is a PlaneAut over K[t, 1/t]: _family_aut factors it by
plane_aut_from_endo over K[t, 1/t] and keeps the word, or falls back to
its formal inverse, and conjugators and witness families are such maps.

Two constructions live here.  First, the at-infinity limit set X_alpha of
a family with a pole: factor out t^{-m}, m = -valuation, reduce at t=0 and
record where affine sample points land on the line at infinity, stopping
at the first one when that lowest slice has rank one; a sampled X_alpha
point away from the indeterminacy point of a fixed automorphism f forces
the conjugate family alpha^-1 f alpha to keep a pole.  The pole check,
pole_propagation_check, reads the valuations of alpha^-1 f alpha and
alpha f^-1 alpha^-1 off their lowest t-slices: each substitution of the
chain keeps only the t-exponents a window above its tropical lower bound
can reach, and the window doubles until the answer is certain.  Second, the
explicit degenerations: every non-diagonal normal-form family member f
admits a family F(t) of conjugates of f, polynomial in t, whose value at
t=0 drops out of the conjugacy class of f.  _conjugated_family builds them
all; family IV's are conjugates of A = alpha^-1 f alpha, built once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .amalgam import (
    JonquieresFactor,
    _check_jacobian,
    _composites_agree,
    factor_to_plane_aut,
    plane_aut_from_endo,
)
from .conjugacy import _mult_order, expand_family_poly
from .endo import Endo, InfinityPoint, PlaneAut, indeterminacy_point
from .errors import (
    NonUnitError,
    NoPoleError,
    NotInvertibleError,
    PlaneAutError,
    PoleAtZeroError,
    RingMismatchError,
    UnsupportedFieldError,
)
from .poly import MultiPoly, _compose_lowered, _lower, _reduced
from .rings import MINUS_INF, LaurentRing, _iroot, up_deg


def valuation(fam: Endo):
    """The least t-exponent over all coefficients of a family over
    K[t, 1/t]; 0 for the zero family."""
    L = fam.ring
    if not isinstance(L, LaurentRing):
        raise RingMismatchError("a family needs Laurent coefficients")
    return min((L.valuation(c) for comp in fam.comps for c in comp.terms.values()), default=0)


def value_at_zero(fam: Endo) -> Endo:
    """The family at t = 0, over K; PoleAtZeroError if it has a pole there."""
    v = valuation(fam)
    if v is not MINUS_INF and v < 0:
        raise PoleAtZeroError(f"family has a pole at t=0 (valuation {v})", valuation=v)
    L = fam.ring
    return fam.map_coeffs(L.value_at_zero, L.base)


def specialize(fam: Endo, c) -> Endo:
    """The family at t = c, c a nonzero base-field value."""
    L = fam.ring
    if L.base.is_zero(c):
        raise PoleAtZeroError("use value_at_zero for t=0", valuation=valuation(fam))
    return fam.map_coeffs(lambda a: L.specialize(a, c), L.base)


def _substitute_t_power(fam: PlaneAut, m: int) -> PlaneAut:
    """fam with t -> t^m on every coefficient, m != 0 (t^0 would merge the
    powers of t); the inverse is mapped when it is first read."""
    if m == 0:
        raise PlaneAutError("t -> t^0 merges the powers of t; m must be nonzero")
    L = fam.ring
    fn = lambda a: {m * e: c for e, c in a.items()}
    return PlaneAut(fam.fwd.map_coeffs(fn, L), lambda: fam.inv.map_coeffs(fn, L), verify=False)


def _family_aut(e: Endo) -> PlaneAut:
    """The family e over K[t, 1/t] with its inverse: plane_aut_from_endo runs
    over K[t, 1/t] itself, whose check along the factor word certifies the
    inverse, and the word is kept; a descent that divides by a non-unit of
    K[t, 1/t] raises NonUnitError there and falls back to _formal_inverse,
    the family's formal inverse over K[t, 1/t], with no word.  If that fails
    its composition check too, the descent's error stands.  Any other
    descent error is the same over K(t), so no inverse exists and it stands
    at once."""
    if e.nvars != 2:
        raise NotInvertibleError("generic family inversion is implemented for the plane")
    try:
        return plane_aut_from_endo(e)
    except NonUnitError:
        inv = _formal_inverse(e)
        if inv is None:
            raise
        return PlaneAut(e, inv, verify=False)


def lift_endo(e: Endo, lring: LaurentRing) -> Endo:
    """e over K[t, 1/t]; RingMismatchError unless e is over K."""
    if lring.base != e.ring:
        raise RingMismatchError(f"map over {e.ring!r} lifted to {lring!r}")
    return e.map_coeffs(lring.from_base, lring)


def lift_plane_aut(f: PlaneAut, lring: LaurentRing) -> PlaneAut:
    """f over K[t, 1/t], with f's inverse lifted only when it is first read;
    RingMismatchError unless f is over K."""
    return PlaneAut(lift_endo(f.fwd, lring), lambda: lift_endo(f.inv, lring), verify=False)


def _truncate(p: MultiPoly, k: int) -> MultiPoly:
    """p without its terms of degree above k."""
    return MultiPoly(p.ring, p.nvars, {e: c for e, c in p.terms.items() if sum(e) <= k},
                     _clean=False)


# Points t = a of K* at which _formal_inverse descends before it iterates.
_SPECIALIZATIONS = 3


def _nonzero_samples(K, count: int) -> list:
    """The first count nonzero values of K's sample stream, fewer if K has fewer."""
    return list(itertools.islice((a for a in K.sample_stream() if not K.is_zero(a)), count))


def _formal_inverse(e: Endo):
    """The inverse of a plane family over K[t, 1/t] as the truncation of its
    formal inverse, or None when e is no automorphism: e at one of the first
    _SPECIALIZATIONS points t = a of K* fails the descent over K, the
    formal inverse has a term of degree d + 1, or e o inv is not the
    identity (one composition decides both sides, Endo.is_inverse).

    With F0 = e - e(0) = L x + H, H of order >= 2, the iteration
    G <- L^-1 (x - H(G)), truncated to degree k for k = 2..d+1, d = deg e,
    gives F0^-1 up to degree d + 1, whose degree-(d + 1) part must vanish:
    a plane automorphism over a domain whose Jacobian c is a unit has an
    inverse of degree <= d, and L^-1 divides only by c (Bass, Connell and
    Wright, "The Jacobian conjecture: reduction of degree and formal
    expansion of the inverse", Bull. AMS 1982).  The inverse of e is then
    G(x - e(0)); G is truncated in the centred variables, before that
    shift."""
    R, c = e.ring, _check_jacobian(e).constant_value()
    if len(c) != 1:
        raise NotInvertibleError("inverse leaves K[t,1/t]; not a family automorphism")
    # e at t = a, a in K*, is an automorphism of K^2 if e is one of
    # K[t, 1/t]^2; the descent over the field K checks that at once, and
    # spares most non-automorphisms the iteration, whose terms they let grow
    for a in _nonzero_samples(R.base, _SPECIALIZATIONS):
        try:
            plane_aut_from_endo(specialize(e, a))
        except NotInvertibleError:
            return None
    ci = R.invert(c)
    ident = Endo.identity(R, 2)
    x = ident.comps
    # the entries of L over c
    (l11, l12), (l21, l22) = ([R.mul(p.coeff(m), ci) for m in ((1, 0), (0, 1))]
                              for p in e.comps)
    H = [MultiPoly(R, 2, {m: v for m, v in p.terms.items() if sum(m) >= 2}, _clean=False)
         for p in e.comps]

    def solve(u, v):
        """L^-1 (u, v), L^-1 being the adjugate of L over c."""
        return [u.scale(l22) - v.scale(l12), v.scale(l11) - u.scale(l21)]

    zero, one = MultiPoly.zero(R, 2), MultiPoly.const(R, 2, R.one)
    G = solve(*x)
    d = e.degree
    for k in range(2, d + 2):
        # G has no constant term, so G_1^i G_2^j has no term below degree
        # i + j, and the terms of H with i + j > k add nothing
        pw = [[one] for _ in G]
        for g, row in zip(G, pw):
            while len(row) <= k:
                row.append(_truncate(row[-1] * g, k))
        HG = [sum((_truncate(pw[0][i] * pw[1][j], k).scale(v)
                   for (i, j), v in h.terms.items() if i + j <= k), zero) for h in H]
        G = solve(x[0] - HG[0], x[1] - HG[1])
    if max(g.degree for g in G) > d:
        return None
    shift = [xi - MultiPoly.const(R, 2, p.constant_value()) for xi, p in zip(x, e.comps)]
    inv = Endo(G).compose(Endo(shift))
    return inv if _composites_agree(R, [inv.term_dicts(), e.term_dicts()],
                                    [ident.term_dicts()]) else None


# -- the limit set at infinity ----------------------------------------------

@dataclass
class XAlphaSet:
    """Sampled image of affine points on the line at infinity, at t=0,
    through the lowest t-slice alpha_tilde = (t^m alpha) at t = 0.

    An under-approximation by construction: sample points with
    alpha_tilde(y) = 0 are skipped and only finitely many y are tried; a
    rank-one slice has one point, read off its first nonzero sample.
    """
    m: int
    alpha_tilde: Endo
    points: tuple
    under_approximation: bool = True

    def describe(self):
        return {"m": self.m, "reduced": str(self.alpha_tilde),
                "points": [str(p) for p in self.points],
                "under_approximation": self.under_approximation}


def _round_root(x: int, n: int) -> int:
    """The integer nearest to the n-th root of x >= 0: the floor k, plus one
    when x >= (k + 1/2)^n, i.e. 2^n x >= (2k + 1)^n."""
    k = _iroot(x, n)
    return k + (2 ** n * x >= (2 * k + 1) ** n)


def _affine_samples(K, n, cap):
    # over F_p the first cap tuples of the product use only its first cap elements
    size = cap if K.is_finite else max(2, _round_root(cap, n) + 1)
    base = list(itertools.islice(K.sample_stream(), size))
    return itertools.islice(itertools.product(base, repeat=n), cap)


# Sample points of x_alpha.
_X_ALPHA_SAMPLES = 25

# The last family x_alpha sampled and its X_alpha, so that
# pole_propagation_check on the same family object reuses the samples.
_last_x_alpha = (None, None)


def x_alpha(fam: Endo) -> XAlphaSet:
    """The sampled X_alpha of the family fam over K[t, 1/t]: the images of
    the affine sample points under its lowest t-slice alpha_tilde.  When
    every component p of alpha_tilde is a K-multiple of the first nonzero
    one, lead (p c0 = lead p[e0] for a term c0 x^e0 of lead), every sample
    with alpha_tilde(y) != 0 lands on one point, so sampling stops at the
    first.  Sampling the family last sampled again, the same object,
    returns the same set."""
    global _last_x_alpha
    if _last_x_alpha[0] is fam:
        return _last_x_alpha[1]
    v = valuation(fam)
    if v is MINUS_INF or v >= 0:
        raise NoPoleError(f"family valuation is {v}; X_alpha needs a pole")
    m = -v
    K = fam.ring.base
    tilde = fam.map_coeffs(lambda c: c.get(-m, K.zero), K)
    lead = next(p for p in tilde.comps if p.terms)
    e0, c0 = next(iter(lead.terms.items()))
    rank_one = all(p.scale(c0) == lead.scale(p.coeff(e0)) for p in tilde.comps)
    points = []
    for y in _affine_samples(K, fam.nvars, _X_ALPHA_SAMPLES):
        vals = tilde.evaluate(y)
        if all(K.is_zero(val) for val in vals):
            continue
        pt = InfinityPoint.normalize(K, vals)
        if pt not in points:
            points.append(pt)
        if rank_one:
            break
    _last_x_alpha = (fam, XAlphaSet(m, tilde, tuple(points)))
    return _last_x_alpha[1]


# -- pole propagation --------------------------------------------------------

@dataclass
class PolePropagationReport:
    alpha_valuation: object
    hypothesis_met: bool
    i_f: InfinityPoint
    x_points: tuple
    conjugate_valuation: object          # nu(alpha^-1 f alpha)
    inverse_conjugate_valuation: object  # nu(alpha f^-1 alpha^-1)
    implication_holds: bool
    dichotomy_holds: bool
    notes: list = field(default_factory=list)

    def describe(self):
        return {
            "alpha_valuation": str(self.alpha_valuation),
            "hypothesis_met": self.hypothesis_met,
            "indeterminacy": str(self.i_f) if self.i_f else None,
            "x_alpha_points": [str(p) for p in self.x_points],
            "conjugate_valuation": str(self.conjugate_valuation),
            "inverse_conjugate_valuation": str(self.inverse_conjugate_valuation),
            "implication_holds": self.implication_holds,
            "dichotomy_holds": self.dichotomy_holds,
            "notes": list(self.notes),
        }


def _conjugate_valuation(outer: Endo, f: Endo, inner: Endo):
    """The valuation of outer o f o inner, for outer and inner over
    K[t, 1/t] and f over K, read off its lowest t-slices: the chain
    inner -> f -> outer is walked on int forms, f lowered over K with a zero
    t-slot, keeping only what a window of w t-exponents can reach
    (_window_step), for w = 1, 2, 4, ...  After the last step a component
    with a kept term has the valuation of its least one, and a component
    without has valuation at least its horizon L + w, so the least kept
    exponent is the answer once it is at most every horizon.  A window that
    cut no term was the full composition: its least exponent, or 0 for the
    zero map, as valuation.  Widening on failure, as when alpha commutes
    with f and the first window cancels, is the restart-on-failure form of
    relaxed power-series arithmetic (van der Hoeven, "Relax, but don't be
    too lazy", J. Symb. Comp. 2002).  Nothing is raised back to Laurent
    coefficients."""
    L = outer.ring
    f_step = []
    for p in f.comps:
        m, den, flat = _lower(L.base, p.terms)
        f_step.append((den, {(*e, 0): v for e, v in flat.items()}))
    steps = (f_step, [_lower(L, p.terms)[1:] for p in outer.comps])
    args = [_lower(L, p.terms)[1:] for p in inner.comps]
    # the least t-exponent of each argument, inf for a zero one
    exact = [min((e[-1] for e in flat), default=math.inf) for _, flat in args]
    w = 1
    while True:
        cur, bounds, cut = args, exact, False
        for step in steps:
            cur, bounds, cut_here = _window_step(L, m, step, cur, bounds, w, f.nvars)
            cut = cut or cut_here
        least = min((e[-1] for _, flat in cur for e in flat), default=None)
        if not cut:
            return 0 if least is None else least
        if least is not None and all(least <= b + w for b in bounds):
            return least
        w *= 2


def _window_step(R, m, step, args, bounds, w, nv):
    """p(args) for each int form p of step, exact on the t-exponents below
    its bound L + w: (outputs, their bounds L, whether a term was cut).
    Each argument's t-exponents are at least its bound b (inf for a zero
    argument), so a step term c x^e t^k adds nothing below its tropical
    bound k + sum e_i b_i, and L is the least of these; a term on a zero
    argument vanishes.  A step term of bound >= L + w, or an argument term
    of t-exponent >= b + w, adds only at L + w or above, so both are cut
    before _compose_lowered, and the output keeps its terms below L + w."""
    cut = False
    trimmed = []
    for (den, flat), b in zip(args, bounds):
        keep = {e: v for e, v in flat.items() if e[-1] < b + w}
        cut = cut or len(keep) < len(flat)
        trimmed.append((den, keep))
    polys, lows = [], []
    for den, P in step:
        tropical = {e: k for e in P
                    if (k := e[-1] + sum(j * b for j, b in zip(e, bounds) if j)) != math.inf}
        low = min(tropical.values(), default=math.inf)
        keep = {e: P[e] for e, k in tropical.items() if k < low + w}
        cut = cut or len(keep) < len(tropical)
        polys.append((den, keep))
        lows.append(low)
    out = []
    for (den, acc), low in zip(_compose_lowered(R, m, polys, trimmed, nv), lows):
        den, acc = _reduced(m, den, acc)
        keep = {e: v for e, v in acc.items() if e[-1] < low + w}
        cut = cut or len(keep) < len(acc)
        out.append((den, keep))
    return out, lows, cut


def pole_propagation_check(f: PlaneAut, alpha: Endo) -> PolePropagationReport:
    """Check two statements on f and the family alpha: a sampled X_alpha
    point away from I_f forces a pole on alpha^-1 f alpha (the implication),
    and one of alpha^-1 f alpha and alpha f^-1 alpha^-1 keeps a pole (the
    dichotomy).  The report says whether each holds; the dichotomy fails
    when, say, alpha commutes with f, as (x1 + 1/t, x2) does with
    (x1 + x2^2, x2).  The two valuations are read off the lowest t-slices
    (_conjugate_valuation), without building either conjugate family;
    alpha's inverse is built once (_family_aut).
    RingMismatchError if alpha is not a family over the field of f."""
    v = valuation(alpha)
    if f.ring != alpha.ring.base:
        raise RingMismatchError(f"map over {f.ring!r} against a family over {alpha.ring!r}")
    ainv = _family_aut(alpha).inv
    vc = _conjugate_valuation(ainv, f.fwd, alpha)
    vci = _conjugate_valuation(alpha, f.inv, ainv)
    notes = []
    i_pt = indeterminacy_point(f.fwd)
    if v is not MINUS_INF and v >= 0:
        notes.append("alpha has no pole; the propagation hypothesis is vacuous")
        return PolePropagationReport(v, False, i_pt, (), vc, vci, True, True, notes)
    xs = x_alpha(alpha)
    hypothesis = any(pt != i_pt for pt in xs.points)
    if not xs.points:
        notes.append("no sample point survived; hypothesis undetermined")
    implication = (not hypothesis) or vc < 0
    dichotomy = vc < 0 or vci < 0
    return PolePropagationReport(v, hypothesis, i_pt, xs.points, vc, vci,
                                 implication, dichotomy, notes)


# -- explicit degenerations --------------------------------------------------

@dataclass
class DegenerationWitness:
    """F = conjugator^-1 o f o conjugator over K[t,1/t], with ord-0 value.

    The degenerate_family_* constructors build family by conjugation (family
    IV from alpha^-1 o f o alpha) and check its limit; verify() and
    specialization_check walk the conjugator through f and its inverse and
    compare (amalgam._composites_agree), for a witness built elsewhere."""
    source: PlaneAut
    family_tag: str
    conjugator: PlaneAut
    family: PlaneAut
    limit: Endo
    params: dict = field(default_factory=dict)

    def verify(self) -> bool:
        c, F = self.conjugator, self.family.fwd
        side = [c.fwd, lift_endo(self.source.fwd, c.ring), c.inv]
        v = valuation(F)
        return (_composites_agree(c.ring, [e.term_dicts() for e in side], [F.term_dicts()])
                and (v is MINUS_INF or v >= 0) and value_at_zero(F) == self.limit)

    def specialization_check(self, c) -> bool:
        """F(c) = conjugator(c)^-1 o f o conjugator(c) for a nonzero c."""
        h = self.conjugator
        side = [specialize(h.fwd, c), self.source.fwd, specialize(h.inv, c)]
        if side[1].ring != side[0].ring:
            raise RingMismatchError("compose over different rings")
        return _composites_agree(self.source.ring, [e.term_dicts() for e in side],
                                 [specialize(self.family.fwd, c).term_dicts()])

    def describe(self):
        R = self.source.ring
        params = {}
        for k, v in self.params.items():
            params[k] = v if isinstance(v, int) else R.to_str(v)
        return {"family": self.family_tag,
                "source": str(self.source.fwd),
                "conjugator": str(self.conjugator),
                "degenerated": str(self.family),
                "limit": str(self.limit),
                "params": params}


def _diag_t(lring: LaurentRing) -> PlaneAut:
    """(t x1, 1/t x2)."""
    x1 = MultiPoly(lring, 2, {(1, 0): {1: lring.base.one}})
    x2 = MultiPoly(lring, 2, {(0, 1): {-1: lring.base.one}})
    ix1 = MultiPoly(lring, 2, {(1, 0): {-1: lring.base.one}})
    ix2 = MultiPoly(lring, 2, {(0, 1): {1: lring.base.one}})
    return PlaneAut(Endo([x1, x2]), Endo([ix1, ix2]), verify=False)


def _conjugated_family(g: PlaneAut, conjugator: PlaneAut) -> PlaneAut:
    """conjugator^-1 o g o conjugator, for g over K[t, 1/t] or over K, which
    is lifted.  Its inverse conjugator^-1 o g^-1 o conjugator is built by
    the same formula, from g's inverse, only when it is first read."""
    if not isinstance(g.ring, LaurentRing):
        g = lift_plane_aut(g, conjugator.ring)
    cinv = conjugator.inv

    def conjugate(e):
        return cinv.compose(e).compose(conjugator.fwd)

    return PlaneAut(conjugate(g.fwd), lambda: conjugate(g.inv), verify=False)


def _witness(f, tag, conjugator, fam, expected_limit, params=None) -> DegenerationWitness:
    """The witness of f along conjugator, whose family fam = conjugator^-1 o
    f o conjugator the caller built by conjugation (_conjugated_family), so
    its limit at t = 0 is the one check left; verify() would check it again."""
    limit = value_at_zero(fam.fwd)
    if limit != expected_limit:
        raise PlaneAutError(f"degeneration limit mismatch for family {tag}")
    return DegenerationWitness(f, tag, conjugator, fam, limit, params or {})


def _degenerate_diagonal(ring, tag, zeta, m: int, P: dict, params) -> DegenerationWitness:
    """f = (zeta x1 + x2^{m-1} P(x2^m), zeta^-1 x2) degenerates to the
    diagonal (zeta x1, zeta^-1 x2) along conjugation by (x1 / t, t x2)."""
    f = factor_to_plane_aut(JonquieresFactor(ring, zeta, expand_family_poly(P, m)))
    L = LaurentRing(ring)
    zi = ring.invert(zeta)
    limit = Endo([MultiPoly(ring, 2, {(1, 0): zeta}),
                  MultiPoly(ring, 2, {(0, 1): zi})])
    h = _diag_t(L).inverse()
    w = _witness(f, tag, h, _conjugated_family(f, h), limit, params)
    expected = {(1, 0): {0: zeta}}
    for k, c in P.items():
        expected[(0, m - 1 + m * k)] = {m * (k + 1): c}
    if w.family.fwd != Endo([MultiPoly(L, 2, expected),
                             MultiPoly(L, 2, {(0, 1): {0: zi}})]):
        raise PlaneAutError(f"family ({tag}) degeneration has an unexpected shape")
    return w


def degenerate_family_ii(ring, P: dict) -> DegenerationWitness:
    """f = (x1 + P(x2), x2) degenerates to the identity along
    (x1 + t P(t x2), x2): the diagonal case zeta = 1, m = 1."""
    return _degenerate_diagonal(ring, "ii", ring.one, 1, P, {})


def degenerate_family_iii(ring, zeta, m: int, P: dict) -> DegenerationWitness:
    """f = (zeta x1 + x2^{m-1} P(x2^m), zeta^-1 x2) degenerates to the
    diagonal (zeta x1, zeta^-1 x2)."""
    if m < 2 or _mult_order(ring, zeta, m) != m:
        raise PlaneAutError("zeta must be a primitive m-th root of unity, m >= 2")
    if not P:
        raise PlaneAutError("family (iii) needs a nonzero survivor polynomial")
    return _degenerate_diagonal(ring, "iii", zeta, m, P, {"zeta": zeta, "m": m})


def _family_iv_alpha(lring: LaurentRing, d: int, q: int, lam) -> PlaneAut:
    """(t^-d x1, t^d x2 + lam x1^q + 1/t), inverted by _family_aut."""
    one = lring.base.one
    return _family_aut(Endo([
        MultiPoly(lring, 2, {(1, 0): {-d: one}}),
        MultiPoly(lring, 2, {(0, 1): {d: one}, (q, 0): {0: lam}, (0, 0): {-1: one}}),
    ]))


def degenerate_family_iv(ring, Q: dict, variant: str = "F1") -> DegenerationWitness:
    """f = (x1 + Q(x2), x2 + 1) over char p: two degenerations, one with
    value (x1, x2+1) at t=0 and one with value (x1, x2)."""
    p = ring.characteristic
    if p == 0:
        raise UnsupportedFieldError(
            "family (iv) degenerations need positive characteristic")
    if variant not in ("F1", "F2"):
        raise PlaneAutError(f"unknown variant {variant!r}; use F1 or F2")
    Q = {k: c for k, c in Q.items() if not ring.is_zero(c)}
    f = factor_to_plane_aut(JonquieresFactor(ring, ring.one, Q, ring.one))
    L = LaurentRing(ring)
    x1_K = MultiPoly(ring, 2, {(1, 0): ring.one})
    x2_K = MultiPoly(ring, 2, {(0, 1): ring.one})
    one_K = MultiPoly(ring, 2, {(0, 0): ring.one})
    if not Q:
        ident = PlaneAut.identity(L)
        c, limit = ((ident, Endo([x1_K, x2_K + one_K])) if variant == "F1"
                    else (_diag_t(L), Endo.identity(ring, 2)))
        return _witness(f, "iv-" + variant, c, _conjugated_family(f, c), limit)

    d = up_deg(ring, Q)
    mu = Q[d]
    q = p
    while q <= d:
        q *= p
    lam = ring.pow(mu, -q)
    alpha = _family_iv_alpha(L, d, q, lam)
    A = _conjugated_family(f, alpha)

    # A must be (x1 + mu + t P, x2 - lam t^{q-d} P^q) with P free of poles
    x1_L = MultiPoly(L, 2, {(1, 0): L.one})
    x2_L = MultiPoly(L, 2, {(0, 1): L.one})
    tP = A.fwd.comps[0] - x1_L - MultiPoly(L, 2, {(0, 0): L.from_base(mu)})
    P = tP.map_coeffs(lambda c: L.shift(c, -1), L)
    if any(L.valuation(c) < 0 for c in P.terms.values()):
        raise PlaneAutError("family (iv) auxiliary polynomial has a pole")
    expected_second = x2_L - (P ** q).scale({q - d: lam})
    if A.fwd.comps[1] != expected_second:
        raise PlaneAutError("family (iv) conjugate has an unexpected shape")

    # the defining identity: Q(t^d x2 + lam x1^q + 1/t) = mu/t^d + P/t^{d-1}
    S = alpha.fwd.comps[1]
    lhs = MultiPoly(L, 1, {(k,): L.from_base(c) for k, c in Q.items()}).compose([S])
    rhs = MultiPoly(L, 2, {(0, 0): {-d: mu}}) + P.map_coeffs(
        lambda c: L.shift(c, -(d - 1)), L)
    if lhs != rhs:
        raise PlaneAutError("family (iv) defining identity failed")

    # each witness conjugates A by the rest of its conjugator: with
    # c = alpha o r, c^-1 o f o c = r^-1 o A o r
    params = {"d": d, "mu": mu, "q": q, "lambda": lam}
    if variant == "F1":
        c_bwd = Endo([x2_K.scale(mu), x1_K.scale(ring.neg(ring.invert(mu)))])
        r = _family_aut(lift_endo(c_bwd, L))
        return _witness(f, "iv-F1", alpha.compose(r), _conjugated_family(A, r),
                        Endo([x1_K, x2_K + one_K]), params)

    # F2: substitute t -> t^m until the diagonal conjugate loses its pole;
    # f is free of t, so alpha(t^m)^-1 o f o alpha(t^m) = A(t^m)
    deg_x1 = max((e[0] for e in P.terms), default=0)
    cap = max(deg_x1, 2 + (2 + q * deg_x1) // (q - d)) + 2
    r = _diag_t(L).inverse()
    for m in range(1, cap + 1):
        fam = _conjugated_family(_substitute_t_power(A, m), r)
        v = valuation(fam.fwd)
        if v is not MINUS_INF and v >= 0 and value_at_zero(fam.fwd) == Endo.identity(ring, 2):
            params["m"] = m
            return _witness(f, "iv-F2", _substitute_t_power(alpha, m).compose(r), fam,
                            Endo.identity(ring, 2), params)
    raise PlaneAutError("family (iv) F2 search exhausted its bound")
