"""Factorization of plane automorphisms into affine and triangular pieces.

SAut(A^2) is generated by the special affine maps SAff (linear part in SL2
plus a translation) and the special triangular maps SJ, of the form
(a x1 + P(x2), a^-1 x2 + c).  A word here is a list of tagged factors
[F1, ..., Fn] standing for the composition F1 o F2 o ... o Fn.

The factorization loop is the constructive reading of the generation
theorem (Jung, van der Kulk): while deg f >= 2, one stage is an affine move
read off the component degrees, which leaves deg f1 > deg f2, then one
triangular factor, as the top form of f1 is a constant times a power of the
top form of f2 until their degrees meet.

A reduced word alternates tags, with no identity and no factor in SAff ∩ SJ
(the triangular affine maps) unless it has one factor.  reduce_word
settles factors onto a stack, one rule for both its passes (_settle).
Cyclic reduction of a reduced word either collapses to a single factor
(the map is conjugate into SJ) or stabilizes as an even alternating word
a_m j_m ... a_1 j_1 with every a_i outside SJ and every j_i outside SAff:
a Henon automorphism, whose degree is the product of the j_i degrees.
Each rotation settles only the factor it moves, at the seam.
A map of Jacobian c is recompose(word) o s_c with s_c = (c x1, x2) in
Aff ∩ J, so the word decides growth for every c (Jung-van der Kulk holds for
Aut(A^2) = Aff *_(Aff ∩ J) J); plane_aut_from_endo factors once, keeps it,
and _cyclic_reduction keeps the map's cyclic reduction the same way.

Every identity A o X = B o Y the package certifies (inverses, conjugations,
degeneration witnesses) is checked by _composites_agree: each side a list
of maps, multiplied as 2x3 matrices (linear part and translation) when all
have degree <= 1, else walked one map at a time on the left (compose_chain).
plane_aut_from_endo certifies the inverse inv = s_c^-1 o recompose(w^-1)
it builds along the word w = [F_1, ..., F_n] (_check_inverse_by_word): e
walked through F_1^-1, ..., F_n^-1 must give s_c, and inv through s_c,
F_n, ..., F_1 the identity, neither walk building a degree above deg e.

Conjugators are factor words too.  The cyclic reduction prepends F1^-1 to a
factor tuple at each rotation, the triangularization prepends its affine g,
and conjugacy.normal_form and the conjugacy decision prepend and join such
tuples; AmalgamWord.to_plane_aut reduces the result once, expands its map
once, and its inverse only when PlaneAut.inv is first read.  A conjugation
g = h o f o h^-1 is checked as h o f = g o h (_check_conjugation), f walked
through h's word, so h^-1 is not built at all.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .endo import Endo, PlaneAut
from .errors import (
    ArityMismatchError,
    FieldExtensionRequiredError,
    NotInvertibleError,
    NotSpecialError,
    PlaneAutError,
    RingMismatchError,
)
from .poly import MultiPoly, compose_chain
from .rings import MINUS_INF, LaurentRing, up_add, up_deg, up_scale, up_shift, up_to_str


_AFFINE_EXPS = ((1, 0), (0, 1), (0, 0))
_AFFINE_KEYS = frozenset(_AFFINE_EXPS)


def _affine_compose(R, M, N):
    """M o N for maps of degree <= 1 of any Jacobian, each as its 2x3 matrix
    ((a, b, e), (c, d, f)), the map (a x1 + b x2 + e, c x1 + d x2 + f)."""
    (na, nb, ne), (nc, nd, nf) = N
    add, mul = R.add, R.mul
    return tuple([(add(mul(a, na), mul(b, nc)), add(mul(a, nb), mul(b, nd)),
                   add(add(mul(a, ne), mul(b, nf)), e)) for a, b, e in M])


def _matrix(R, term_dicts):
    """The 2x3 matrix of a map of degree <= 1 given by the term dicts of its
    components."""
    z = R.zero
    return tuple([(t.get((1, 0), z), t.get((0, 1), z), t.get((0, 0), z)) for t in term_dicts])


class AffineFactor:
    """(a x1 + b x2 + e, c x1 + d x2 + f) with ad - bc = 1."""

    __slots__ = ("ring", "a", "b", "c", "d", "e", "f")
    tag = "A"

    def __init__(self, ring, a, b, c, d, e=None, f=None):
        self.ring = ring
        self.a, self.b, self.c, self.d = a, b, c, d
        self.e = ring.zero if e is None else e
        self.f = ring.zero if f is None else f
        det = ring.sub(ring.mul(a, d), ring.mul(b, c))
        if not ring.eq(det, ring.one):
            raise NotSpecialError("affine factor must have determinant 1")

    @classmethod
    def _det_one(cls, ring, a, b, c, d, e, f):
        """The factor of entries whose ad - bc = 1 holds by construction, as
        for inverse() and compose(): __init__ without the check."""
        self = object.__new__(cls)
        self.ring, self.a, self.b, self.c, self.d, self.e, self.f = ring, a, b, c, d, e, f
        return self

    @classmethod
    def rotation(cls, ring):
        """(x2, -x1), moving [0:0:1] to [0:1:0]; conjugates (a x1, a^-1 x2) to
        (a^-1 x1, a x2) and (x1, x2 + 1) to (x1 + 1, x2)."""
        return cls(ring, ring.zero, ring.one, ring.neg(ring.one), ring.zero)

    @classmethod
    def shear(cls, ring, r):
        """(x1, -r x1 + x2), moving [0:1:r] to [0:1:0]."""
        return cls(ring, ring.one, ring.zero, ring.neg(r), ring.one)

    @property
    def in_intersection(self) -> bool:
        return self.ring.is_zero(self.c)

    @property
    def is_identity(self) -> bool:
        R = self.ring
        return (R.eq(self.a, R.one) and R.is_zero(self.b) and R.is_zero(self.c)
                and R.eq(self.d, R.one) and R.is_zero(self.e) and R.is_zero(self.f))

    @property
    def rows(self):
        """The 2x3 matrix ((a, b, e), (c, d, f)) of the map."""
        return (self.a, self.b, self.e), (self.c, self.d, self.f)

    def term_dicts(self):
        """The term dicts of the two components."""
        R = self.ring
        return tuple({m: v for m, v in zip(_AFFINE_EXPS, row) if not R.is_zero(v)}
                     for row in self.rows)

    def to_endo(self) -> Endo:
        return Endo([MultiPoly(self.ring, 2, t, _clean=False) for t in self.term_dicts()])

    def inverse(self) -> "AffineFactor":
        R = self.ring
        a, b, c, d, e, f = self.a, self.b, self.c, self.d, self.e, self.f
        ie = R.sub(R.mul(b, f), R.mul(d, e))
        jf = R.sub(R.mul(c, e), R.mul(a, f))
        return AffineFactor._det_one(R, d, R.neg(b), R.neg(c), a, ie, jf)

    def compose(self, other: "AffineFactor") -> "AffineFactor":
        """self o other."""
        (a, b, e), (c, d, f) = _affine_compose(self.ring, self.rows, other.rows)
        return AffineFactor._det_one(self.ring, a, b, c, d, e, f)

    def as_jonquieres(self) -> "JonquieresFactor":
        if not self.in_intersection:
            raise NotInvertibleError("affine factor is not triangular")
        return JonquieresFactor(self.ring, self.a, {1: self.b, 0: self.e}, self.f)

    @property
    def degree(self) -> int:
        return 1

    def __eq__(self, other):
        if not isinstance(other, AffineFactor) or self.ring != other.ring:
            return False
        R = self.ring
        return all(R.eq(getattr(self, k), getattr(other, k)) for k in "abcdef")

    def __str__(self):
        return str(self.to_endo())

    def describe(self):
        R = self.ring
        return {"tag": "affine",
                "matrix": [[R.to_str(self.a), R.to_str(self.b)],
                           [R.to_str(self.c), R.to_str(self.d)]],
                "translation": [R.to_str(self.e), R.to_str(self.f)]}


class JonquieresFactor:
    """(a x1 + P(x2), a^-1 x2 + c) with a invertible; P as {exp: coeff}."""

    __slots__ = ("ring", "a", "P", "c")
    tag = "J"

    def __init__(self, ring, a, P, c=None):
        if ring.is_zero(a):
            raise NotInvertibleError("triangular factor needs an invertible scalar")
        self.ring = ring
        self.a = a
        self.P = {k: v for k, v in P.items() if not ring.is_zero(v)}
        self.c = ring.zero if c is None else c

    @classmethod
    def identity(cls, ring):
        return cls(ring, ring.one, {})

    @classmethod
    def elementary(cls, ring, P):
        """(x1 + P(x2), x2)."""
        return cls(ring, ring.one, P)

    @property
    def in_intersection(self) -> bool:
        d = up_deg(self.ring, self.P)
        return d is MINUS_INF or d <= 1

    @property
    def is_identity(self) -> bool:
        R = self.ring
        return R.eq(self.a, R.one) and not self.P and R.is_zero(self.c)

    @property
    def degree(self) -> int:
        d = up_deg(self.ring, self.P)
        return 1 if d is MINUS_INF else max(1, d)

    def term_dicts(self):
        """The term dicts of the two components."""
        R = self.ring
        comp1 = {(0, 1): R.invert(self.a)}
        if not R.is_zero(self.c):
            comp1[(0, 0)] = self.c
        return {(1, 0): self.a, **{(0, k): v for k, v in self.P.items()}}, comp1

    def to_endo(self) -> Endo:
        return Endo([MultiPoly(self.ring, 2, t, _clean=False) for t in self.term_dicts()])

    def inverse(self) -> "JonquieresFactor":
        R = self.ring
        ai = R.invert(self.a)
        # x2 component inverts to a x2 - a c; x1 picks up -a^-1 P(a x2 - a c)
        minus_ac = R.neg(R.mul(self.a, self.c))
        newP = up_scale(R, up_shift(R, self.P, self.a, minus_ac), R.neg(ai))
        return JonquieresFactor(R, ai, newP, minus_ac)

    def compose(self, other: "JonquieresFactor") -> "JonquieresFactor":
        """self o other."""
        R = self.ring
        a = R.mul(self.a, other.a)
        newP = up_add(R, up_scale(R, other.P, self.a),
                      up_shift(R, self.P, R.invert(other.a), other.c))
        c = R.add(R.mul(R.invert(self.a), other.c), self.c)
        return JonquieresFactor(R, a, newP, c)

    def as_affine(self) -> AffineFactor:
        if not self.in_intersection:
            raise NotInvertibleError("triangular factor has degree > 1")
        R = self.ring
        return AffineFactor(R, self.a, self.P.get(1, R.zero), R.zero,
                            R.invert(self.a), self.P.get(0, R.zero), self.c)

    def __eq__(self, other):
        if not isinstance(other, JonquieresFactor) or self.ring != other.ring:
            return False
        R = self.ring
        if not R.eq(self.a, other.a) or not R.eq(self.c, other.c):
            return False
        keys = set(self.P) | set(other.P)
        return all(R.eq(self.P.get(k, R.zero), other.P.get(k, R.zero)) for k in keys)

    def __str__(self):
        return str(self.to_endo())

    def describe(self):
        R = self.ring
        return {"tag": "jonquieres", "a": R.to_str(self.a),
                "P": up_to_str(R, self.P, "x2"), "c": R.to_str(self.c)}


def factor_to_plane_aut(fac) -> PlaneAut:
    """The map of one factor, built as a one-factor word."""
    return AmalgamWord(fac.ring, (fac,)).to_plane_aut()


class AmalgamWord:
    """A composition word of affine and triangular factors; its inverse word
    is built once and kept."""

    __slots__ = ("ring", "factors", "_inverse")

    def __init__(self, ring, factors):
        self.ring = ring
        self.factors = tuple(factors)
        self._inverse = None
        for fac in self.factors:
            if fac.ring != ring:
                raise RingMismatchError("word factors over different rings")

    def __len__(self):
        return len(self.factors)

    def __iter__(self):
        return iter(self.factors)

    def recompose(self) -> Endo:
        """F1 o ... o Fn, one factor at a time on the left of the identity; a
        single factor is its own polynomials."""
        if len(self.factors) == 1:
            return self.factors[0].to_endo()
        return Endo(compose_chain(Endo.identity(self.ring, 2).comps,
                                  [fac.term_dicts() for fac in reversed(self.factors)]))

    def chain_steps(self, c, inverse: bool = False) -> list:
        """F = recompose(self) o s_c, s_c = (c x1, x2), or with inverse
        F^-1 = s_c^-1 o recompose(self^-1), as poly.compose_chain steps, the
        first applied first: one per factor, and s_c first (s_c^-1 last), a
        step of its own, left out when c = 1."""
        R = self.ring
        steps = [fac.term_dicts() for fac in self._applied(inverse)]
        if R.eq(c, R.one):
            return steps
        scale = ({(1, 0): R.invert(c) if inverse else c}, {(0, 1): R.one})
        return steps + [scale] if inverse else [scale] + steps

    def step_groups(self, c, inverse: bool = False) -> list:
        """chain_steps in groups, to be composed group by group into the
        steps endo._iterates iterates F along: an affine factor standing
        just left of a triangular one is one group A o J with it, every
        other factor a group of its own, and s_c (s_c^-1) joins its
        neighbour.  The components of A o J are linear in x1 plus a
        polynomial in x2, so substituting into it raises only the second
        argument to powers."""
        steps = self.chain_steps(c, inverse)
        tags = [fac.tag for fac in self._applied(inverse)]
        if len(steps) > len(tags):
            tags = tags + ["s"] if inverse else ["s"] + tags
        groups = []
        for step, prev, tag in zip(steps, [None] + tags, tags):
            if groups and ("s" in (prev, tag) or (prev, tag) == ("J", "A")):
                groups[-1].append(step)
            else:
                groups.append([step])
        return groups

    def _applied(self, inverse):
        """The factors of the word, or of its inverse word, first applied first."""
        return reversed((self.inverse_word() if inverse else self).factors)

    def inverse_word(self) -> "AmalgamWord":
        if self._inverse is None:
            self._inverse = AmalgamWord(self.ring, [f.inverse() for f in reversed(self.factors)])
        return self._inverse

    def to_plane_aut(self) -> PlaneAut:
        """The map of the word, reduced once (reduce_word): fwd is recomposed
        now, the inverse from the inverse word only when it is first read,
        and the reduced word is kept as the map's word."""
        word = reduce_word(self)
        aut = PlaneAut(word.recompose(), lambda: word.inverse_word().recompose(), verify=False)
        aut.word = word
        return aut

    def __eq__(self, other):
        return (isinstance(other, AmalgamWord) and self.ring == other.ring
                and self.factors == other.factors)

    def __str__(self):
        if not self.factors:
            return "[identity]"
        return " . ".join(f"{f.tag}:{f}" for f in self.factors)

    def describe(self):
        return [f.describe() for f in self.factors]


def reduce_word(w: AmalgamWord) -> AmalgamWord:
    """Merge same-tag neighbours and absorb SAff-intersection factors.

    Identities are dropped first (the last is kept if all are); then one
    pass merges and one absorbs, each settling factor by factor onto a
    stack (_settle, _settle_end).  Absorbing only after every merge keeps
    the word of rewriting leftmost first, identities before merges before
    absorptions.  Recomposition is unchanged.
    """
    merged, out = [], []
    for fac in [f for f in w.factors if not f.is_identity] or w.factors[-1:]:
        _settle(merged, fac)
    for fac in merged:
        _settle(out, fac, absorb=True)
    _settle_end(out)
    return AmalgamWord(w.ring, out)


def _settle(stack: list, fac, absorb: bool = False) -> None:
    """Push fac onto a settled stack: merge it with a same-tag top and, with
    absorb, absorb an intersection top into it, until neither applies.  An
    identity is dropped; a lone one stays until the next factor comes."""
    while True:
        if stack and stack[-1].is_identity:
            stack.pop()
        if fac.is_identity:
            if not stack:
                stack.append(fac)
            return
        if stack and stack[-1].tag == fac.tag:
            fac = stack.pop().compose(fac)
        elif absorb and stack and stack[-1].in_intersection:
            fac = _retag(stack.pop()).compose(fac)
        else:
            stack.append(fac)
            return


def _settle_end(stack: list) -> None:
    """Push trailing intersection factors into their left neighbours."""
    while len(stack) > 1 and stack[-1].in_intersection:
        fac = _retag(stack.pop())
        _settle(stack, stack.pop().compose(fac), absorb=True)


def _retag(fac):
    """An SAff ∩ SJ factor as a factor of the other tag."""
    return fac.as_jonquieres() if fac.tag == "A" else fac.as_affine()


def _reduction_ops(e: Endo):
    """Left-compose one affine move and one triangular factor per stage until
    degree <= 1: the Jung-van der Kulk descent on the components (u, v).

    The move comes from the degrees: (v, -u) when deg u < deg v, v - r u
    with r the ratio of the top forms when they are equal, none when
    deg u > deg v.  Then u -= c v^k while deg u > deg v, with top(u) =
    c top(v)^k, checked before v^k is built, and the stage's subtractions
    are one (x1 + P(x2), x2).
    Returns (ops, final) with op_k o ... o op_1 o e = final and final affine.
    """
    if e.nvars != 2:
        raise ArityMismatchError(f"a plane map has 2 variables, got {e.nvars}")
    R = e.ring
    u, v = e.comps
    ops = []
    while max(u.degree, v.degree) >= 2:
        if u.degree < v.degree:
            ops.append(AffineFactor.rotation(R))
            u, v = v, -u
        elif u.degree == v.degree:
            exp, lead = u.leading_term()
            r = R.mul(v.coeff(exp), R.invert(lead))
            ops.append(AffineFactor.shear(R, r))
            v = v - u.scale(r)
        e2 = v.degree
        if not 1 <= e2 < u.degree:
            raise NotInvertibleError("top forms not proportional; not an automorphism")
        P = {}
        while u.degree > e2:
            d1 = u.degree
            if d1 % e2 != 0:
                raise NotInvertibleError("top degrees incompatible; not an automorphism")
            k = d1 // e2
            # top(v)^k through x2 = 1, one to one on the forms of a degree
            top = MultiPoly(R, 1, {a[:1]: x for a, x in v.homogeneous_part(e2).terms.items()})
            topk = MultiPoly(R, 2, {(a, d1 - a): x for (a,), x in (top ** k).terms.items()})
            top1 = u.homogeneous_part(d1)
            exp, lead = topk.leading_term()
            c = R.mul(top1.coeff(exp), R.invert(lead))
            if top1 != topk.scale(c):
                raise NotInvertibleError("top forms not proportional; not an automorphism")
            P[k] = R.neg(c)
            u = u + (v ** k).scale(P[k])
        ops.append(JonquieresFactor.elementary(R, P))
    return ops, Endo([u, v])


def _factor(e: Endo, c) -> AmalgamWord:
    """The reduced word w with e = recompose(w) o s_c, c the Jacobian of e and
    s_c = (c x1, x2)."""
    return _word_of_descent(e.ring, *_reduction_ops(e), c)


def _word_of_descent(R, ops, final, c) -> AmalgamWord:
    """The reduced word of _reduction_ops' (ops, final) for the map of
    Jacobian c: its last affine factor is final o s_c^-1."""
    ci = R.invert(c)
    (a, b, e), (cc, d, f) = _matrix(R, final.term_dicts())
    last = AffineFactor(R, R.mul(a, ci), b, R.mul(cc, ci), d, e, f)
    return reduce_word(AmalgamWord(R, [op.inverse() for op in ops] + [last]))


def _composites_agree(R, left, right, bound=None):
    """Whether two composites of plane maps over R agree, each side a
    nonempty list of compose_chain steps applied first to last; None when
    the walk of left refuses a step above bound, before building it.  Every
    identity the package certifies is checked here: as products of 2x3
    matrices (_affine_compose) when no map has a term off x1, x2 and 1, so
    no polynomial is built, else walking each side one map at a time on the
    left.  Values are compared with ==, as every ring keeps them canonical."""
    if all(map(_AFFINE_KEYS.issuperset, itertools.chain(*left, *right))):
        return _side_matrix(R, left) == _side_matrix(R, right)
    out = _walk(R, left, bound)
    return None if out is None else out == _walk(R, right)


def _side_matrix(R, side):
    out = _matrix(R, side[0])
    for step in side[1:]:
        out = _affine_compose(R, _matrix(R, step), out)
    return out


def _walk(R, side, bound=None):
    if len(side) == 1:
        return tuple(side[0])
    out = compose_chain([MultiPoly(R, 2, t, _clean=False) for t in side[0]], side[1:], bound)
    return None if out is None else tuple(p.terms for p in out)


def _check_inverse_by_word(e: Endo, inv: Endo, word: AmalgamWord, c) -> None:
    """Certify inv o e = id and e o inv = id for inv = s_c^-1 o G_n o ... o
    G_1, G_i = F_i^-1 for the word w = [F_1, ..., F_n] of e and
    s_c = (c x1, x2); NotInvertibleError if not.  Two walks
    (_composites_agree), neither dividing by c: e through G_1, ..., G_n must
    give s_c, so inv o e = id; inv through s_c, F_n, ..., F_1 the identity,
    so R o inv = id for R = F_1 o ... o F_n o s_c, and e = R o inv o e = R.
    w is reduced, so every partial product of a correct walk, a subword's
    map or its inverse, has degree <= deg e, the walks' bound, where
    fwd o inv builds degree (deg e)^2 before it cancels to (x1, x2)."""
    R = e.ring
    u, v = inv.term_dicts()
    if not R.eq(c, R.one):
        u = {m: R.mul(c, x) for m, x in u.items()}  # s_c o inv
    for left, c_out in (([e.term_dicts(), *word.chain_steps(R.one, inverse=True)], c),
                        ([(u, v), *word.chain_steps(R.one)], R.one)):
        if not _composites_agree(R, left, [({(1, 0): c_out}, {(0, 1): R.one})], e.degree):
            raise NotInvertibleError("forward and inverse do not compose to the identity")


def _check_conjugation(h: PlaneAut, f: PlaneAut, g: PlaneAut) -> bool:
    """g = h o f o h^-1, checked as h o f = g o h (_composites_agree), the
    same identity since h is an automorphism; RingMismatchError if the rings
    differ.  h o f walks f through the word of h = F_1 o ... o F_n o s_c,
    bounded by max(deg f, deg g * deg h), where h o f o h^-1 builds degree
    deg h * deg f * deg h; an h with no word or one factor, or a refused
    walk, is the one step h.fwd, unbounded.  g o h is h.fwd, then g."""
    if not f.ring == g.ring == h.ring:
        raise RingMismatchError(
            f"conjugation of maps over {f.ring!r} and {g.ring!r} by one over {h.ring!r}")
    R, start, right = h.ring, f.fwd.term_dicts(), [h.fwd.term_dicts(), g.fwd.term_dicts()]
    out = None
    if h.word is not None and len(h.word) > 1:
        out = _composites_agree(R, [start, *h.word.chain_steps(h.jac)], right,
                                max(f.degree, g.degree * h.degree))
    return _composites_agree(R, [start, right[0]], right) if out is None else out


def _check_jacobian(e: Endo) -> MultiPoly:
    """The Jacobian of e if it is a nonzero constant, else NotInvertibleError."""
    jac = e.jacobian()
    if not jac.is_constant or jac.is_zero:
        raise NotInvertibleError("Jacobian determinant is not a nonzero constant")
    return jac


def _descent(e: Endo):
    """(w, c) with e = recompose(w) o s_c, s_c = (c x1, x2), by one
    Jung-van der Kulk descent: the word of _reduction_ops and c, the
    determinant of the linear part of its final affine map.  Every descent
    op is invertible of Jacobian 1, so a descent that ends proves e an
    automorphism of Jacobian c.  Over K[t, 1/t] every division must be by a
    unit; LaurentRing.invert raises NonUnitError if not.

    The Jacobian polynomial is multiplied out up front for a family over
    K[t, 1/t] of degree >= 2 or a map with fewer terms than its degree
    (deg e > n), else only to word the error of a failed descent: "Jacobian
    determinant is not a nonzero constant" if it is not one, the original
    error, of its own type, if it is.  Over a field what the descent and the
    word check build has degree <= deg e, so O(deg e^2) terms, polynomial in
    the input when deg e <= n.  A sparser map can make the descent build
    (x2 + x1^2)^(5*10^7), for (x1^100000000 + x2, x2 + x1^2); its Jacobian
    is at most n^2 term products.  Over K[t, 1/t] n does not bound the
    t-terms: c^k in (x2 + c x1)^k, c of s generic terms, has
    C(k + s - 1, s - 1).  A family of degree <= 1 builds no power: its
    Jacobian is the determinant c read here, and a non-unit c raises
    NonUnitError when the word divides by it, as it did after the Jacobian
    was multiplied out."""
    first = ((isinstance(e.ring, LaurentRing) and e.degree >= 2)
             or e.degree > sum(len(p.terms) for p in e.comps))
    if first:
        _check_jacobian(e)
    try:
        ops, final = _reduction_ops(e)
        R = e.ring
        (a, b, _), (cc, d, _) = _matrix(R, final.term_dicts())
        c = R.sub(R.mul(a, d), R.mul(b, cc))
        if R.is_zero(c):
            raise NotInvertibleError("Jacobian determinant is not a nonzero constant")
        return _word_of_descent(R, ops, final, c), c
    except PlaneAutError:
        if not first:
            _check_jacobian(e)
        raise


def plane_aut_from_endo(e: Endo) -> PlaneAut:
    """Validate e as a plane automorphism: factor it once as recompose(w) o s_c
    (_descent), invert it as s_c^-1 o recompose(w^-1), certify both
    compositions with the identity along w (_check_inverse_by_word), which
    certifies w too, and keep w as the result's word."""
    word, c = _descent(e)
    R = e.ring
    inv = word.inverse_word().recompose()
    if not R.eq(c, R.one):
        inv = Endo([inv.comps[0].scale(R.invert(c)), inv.comps[1]])
    _check_inverse_by_word(e, inv, word, c)
    aut = PlaneAut(e, inv, verify=False)
    aut.word = word
    return aut


def _word(f: PlaneAut) -> AmalgamWord:
    """The word w of f = recompose(w) o s_c: the one plane_aut_from_endo kept,
    else (f built by composition) a fresh factorization, kept on f."""
    if f.word is None:
        f.word = _factor(f.fwd, f.jac)
    return f.word


def jvdk_factor(f) -> AmalgamWord:
    """Alternating special-affine / triangular word recomposing to f: the
    word a PlaneAut keeps, or an Endo's descent, which raises
    plane_aut_from_endo's error on a non-automorphism."""
    word, c = (None, f.jac) if isinstance(f, PlaneAut) else _descent(f)
    if not f.ring.eq(c, f.ring.one):
        raise NotSpecialError("factorization needs Jacobian determinant 1")
    return _word(f) if word is None else word


class _WordConjugated:
    """conjugator, the map of conjugator_word, expanded when first read."""

    @functools.cached_property
    def conjugator(self) -> PlaneAut:
        return self.conjugator_word.to_plane_aut()


@dataclass
class SJRepresentative(_WordConjugated):
    """An SJ element s and conjugator h with s = h o original o h^-1."""
    factor: JonquieresFactor
    conjugator_word: AmalgamWord


@dataclass
class HenonForm(_WordConjugated):
    """Reduced alternating word a_m j_m ... a_1 j_1 and conjugator h,
    with recompose(word) = h o original o h^-1."""
    word: AmalgamWord
    conjugator_word: AmalgamWord


def _triangularize_affine(fac: AffineFactor) -> tuple:
    """g with g o fac o g^-1 triangular, as (new_factor, g); needs an eigenvalue in K."""
    R = fac.ring
    tr = R.add(fac.a, fac.d)
    # eigenvalues are the roots of det(M - lam I) = lam^2 - tr lam + 1
    lam = None
    if R.is_finite and R.characteristic == 2:
        # 0 is never a root, and 1 is one exactly when tr = 0
        if R.is_zero(tr):
            lam = R.one
    else:
        s = R.sqrt(R.sub(R.mul(tr, tr), R.from_int(4)))
        if s is not None:
            half = R.invert(R.from_int(2))
            lam = R.mul(R.add(tr, s), half)
            if R.is_finite:
                # the smaller root, the one an ascending scan of F_p meets first
                lam = min(lam, R.mul(R.sub(tr, s), half))
    if lam is None:
        raise FieldExtensionRequiredError(
            "linear part has no eigenvalue in the base field")
    # eigenvector (lam - d, c); c != 0 here since fac is not already triangular
    v1, v2 = R.sub(lam, fac.d), fac.c
    if not R.is_zero(v1):
        w1, w2 = R.zero, R.invert(v1)
    else:
        w1, w2 = R.neg(R.invert(v2)), R.zero
    ginv = AffineFactor(R, v1, w1, v2, w2)
    g = ginv.inverse()
    new = g.compose(fac).compose(ginv)
    if not R.is_zero(new.c):
        raise NotInvertibleError("triangularization failed")
    return new, g


def _twist(fac, c):
    """s_c o fac o s_c^-1 for s_c = (c x1, x2): c scales the x1 row of fac and
    c^-1 its x1 column, so the tag, the degree and SAff ∩ SJ are kept."""
    R = fac.ring
    if fac.tag == "J":
        return JonquieresFactor(R, fac.a, up_scale(R, fac.P, c), fac.c)
    return AffineFactor(R, fac.a, R.mul(c, fac.b), R.mul(fac.c, R.invert(c)), fac.d,
                        R.mul(c, fac.e), fac.f)


def _cyclic_reduction(f: PlaneAut):
    """(word, conj): the factor word of f rotated until it has at most one
    factor or runs from an affine to a triangular factor, and the factors of
    its conjugator h, recompose(word) o s_c = h o f o h^-1 for c the Jacobian
    of f.  As F1^-1 o (F1 ... Fn o s_c) o F1 = (F2 ... Fn o s_c F1 s_c^-1) o
    s_c, F1 moves to the end twisted by s_c, and F1^-1 is prepended to conj.
    F2 ... Fn is reduced already, so only the moved factor is settled.
    f is algebraic exactly when len(word) <= 1.  Built once, kept on f."""
    if f.reduction is not None:
        return f.reduction
    R, c = f.ring, f.jac
    word = _word(f)
    conj = ()
    while len(word) > 1 and (word.factors[0].tag, word.factors[-1].tag) != ("A", "J"):
        first, *rest = word.factors
        conj = (first.inverse(),) + conj
        _settle(rest, first if R.eq(c, R.one) else _twist(first, c), absorb=True)
        _settle_end(rest)
        word = AmalgamWord(R, rest)
    f.reduction = (word, conj)
    return f.reduction


def is_algebraic(f: PlaneAut) -> bool:
    """Bounded degree growth under iteration, for every Jacobian: the cyclic
    reduction of the factor word of f has at most one factor, so f is
    conjugate into the affine or the triangular maps; otherwise f is a Henon
    map, whose iterates grow in degree as the powers of its cyclically
    reduced word (Friedland-Milnor)."""
    return len(_cyclic_reduction(f)[0]) <= 1


def _finish_normalization(f: PlaneAut, word: AmalgamWord, conj: tuple):
    """The SJRepresentative or HenonForm of f from its cyclic reduction
    (word, conj); f must have Jacobian 1."""
    if not f.is_special:
        raise NotSpecialError("factorization needs Jacobian determinant 1")
    h = AmalgamWord(word.ring, conj)
    if len(word) > 1:
        if len(word) % 2 or any(fac.in_intersection for fac in word.factors):
            raise NotInvertibleError("inconsistent reduced word")
        return HenonForm(word, h)
    if not word.factors:
        return SJRepresentative(JonquieresFactor.identity(word.ring), h)
    fac = word.factors[0]
    if fac.tag == "J" or fac.in_intersection:
        return SJRepresentative(fac if fac.tag == "J" else _retag(fac), h)
    new, g = _triangularize_affine(fac)
    return SJRepresentative(new.as_jonquieres(), AmalgamWord(word.ring, (g,) + conj))


def henon_normalize(f: PlaneAut):
    """Cyclic reduction to an SJRepresentative (algebraic case) or a HenonForm."""
    return _finish_normalization(f, *_cyclic_reduction(f))


def henon_invariants(h: HenonForm):
    """Jonquieres degree tuple of the word, canonical up to cyclic rotation."""
    degs = tuple(fac.degree for fac in h.word if fac.tag == "J")
    if not degs:
        return degs
    return min(tuple(degs[i:] + degs[:i]) for i in range(len(degs)))
