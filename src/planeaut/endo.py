"""Polynomial endomorphisms, plane automorphisms, and behaviour at infinity.

An Endo is an n-tuple of polynomials in n variables; compose(f, g) is f o g,
apply g first.  A PlaneAut is a validated automorphism of the affine plane:
it carries its inverse, or a function that builds it when first read, and
its Jacobian determinant is a nonzero constant.

Behaviour at infinity (n = 2): write d = deg f and let (a1, a2) be the
degree-d homogeneous parts.  The extension of f to the projective plane is
[x0^d : f1 : f2]; on the line at infinity x0 = 0 it is [0 : a1(y) : a2(y)].
The indeterminacy locus I_f is the common zero of a1, a2 on that line, a
single point for an automorphism of degree >= 2; the image X_f of the line
is likewise a single point, and X_f = I_{f inverse}.  Both are read exactly
off a1, a2, with no sampled point: I_f is the root of gcd(a1, a2) =
c (u - r)^m (or [0:0:1]), X_f the [0:c1:c2] with c2 a1 = c1 a2.

Degrees compose multiplicatively, deg(g o f) = deg(g) deg(f), exactly when
X_f avoids I_g.  Iterating this with g = f separates two regimes:
algebraic elements, deg(f o f) <= deg(f), and dynamically regular ones,
deg(f o f) = deg(f)^2.  Bounded growth is not decided by iterating:
amalgam.is_algebraic reads it off the cyclically reduced factor word, for
every Jacobian, algebraic when at most one factor is left.  The
word that amalgam.plane_aut_from_endo stores on every PlaneAut it builds,
its cyclic reduction and the map's normal form are each built once and kept
on the map.

degree_sequence, is_dynamically_regular and PlaneAut.power build each
iterate as f^(k+1) = f o f^k along the factor word of f: an affine factor
standing just left of a triangular one is one step A o J with it
(AmalgamWord.step_groups), whose components are linear in x1 plus a
polynomial in x2, so a step raises only the second argument to powers, and
poly.iterate_chain applies the steps on int forms, with f lowered once and
only a returned iterate raised.
A plain Endo, or a PlaneAut with no word, is one step, its own polynomials.
Every iterate is still multiplied out in full; its degree is carried from
step to step (poly.iterate_chain), and read off its terms only where a
step's top terms tie.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    ArityMismatchError,
    NoIndeterminacyError,
    NotInvertibleError,
    RingMismatchError,
    UnsupportedFieldError,
)
from .poly import MultiPoly, compose_chain, compose_many, iterate_chain
from .rings import MINUS_INF, up_deg, up_gcd_monic, up_shift


class Endo:
    """An n-tuple of polynomials in n variables over one ring."""

    __slots__ = ("ring", "nvars", "comps")

    def __init__(self, comps):
        comps = tuple(comps)
        if not comps:
            raise ArityMismatchError("empty component list")
        self.ring = comps[0].ring
        self.nvars = comps[0].nvars
        for c in comps:
            if c.ring != self.ring:
                raise RingMismatchError("components over different rings")
            if c.nvars != self.nvars:
                raise ArityMismatchError("components in different variable counts")
        if len(comps) != self.nvars:
            raise ArityMismatchError(f"{len(comps)} components in {self.nvars} variables")
        self.comps = comps

    @classmethod
    def identity(cls, ring, nvars: int):
        return cls([MultiPoly.variable(ring, nvars, i) for i in range(nvars)])

    @property
    def degree(self):
        return max(c.degree for c in self.comps)

    def compose(self, other: "Endo") -> "Endo":
        """self o other: apply other first."""
        if self.ring != other.ring:
            raise RingMismatchError("compose over different rings")
        if self.nvars != other.nvars:
            raise ArityMismatchError("compose with different variable counts")
        return Endo(compose_many(self.comps, other.comps))

    def is_inverse(self, other: "Endo") -> bool:
        """F o G = id and G o F = id for F = self, G = other, read off the
        one composition F o G.  For A = Q, F_p or K[t, 1/t], A[x] is
        Noetherian, and G* : p -> p o G on it is onto, as G* F* =
        (F o G)* = id.  The kernels of its powers stop growing at some n,
        and p = G*^n(q) in ker G* puts q in ker G*^(n+1) = ker G*^n, so
        p = 0.  G* is then bijective with inverse F*, and
        (G o F)* = F* G* = id."""
        return self.compose(other) == Endo.identity(self.ring, self.nvars)

    def highest_part(self) -> "Endo":
        """Component-wise degree-d homogeneous part, d = deg of the whole map."""
        d = self.degree
        if d is MINUS_INF:
            return self
        return Endo([c.homogeneous_part(d) for c in self.comps])

    def jacobian(self) -> MultiPoly:
        mat = [[c.partial(j) for j in range(self.nvars)] for c in self.comps]
        return _det(mat)

    def evaluate(self, values):
        return tuple(c.evaluate(values) for c in self.comps)

    def map_coeffs(self, fn, new_ring) -> "Endo":
        return Endo([c.map_coeffs(fn, new_ring) for c in self.comps])

    def __eq__(self, other):
        return (isinstance(other, Endo) and self.nvars == other.nvars
                and self.ring == other.ring and self.comps == other.comps)

    def __hash__(self):
        raise TypeError("Endo is not hashable")

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.comps) + ")"

    def __repr__(self):
        return f"Endo{self}"


def _det(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    if n == 2:
        return mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    acc = MultiPoly.zero(mat[0][0].ring, mat[0][0].nvars)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = mat[0][j] * _det(minor)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


class PlaneAut:
    """An automorphism of the affine plane together with its inverse.

    The inverse may be given as a function of no arguments that builds it;
    it is called the first time inv is read, and what it returns gets the
    ring and degree checks of an inverse given as an Endo.  A map built from
    a factor word (amalgam.AmalgamWord.to_plane_aut: conjugators, family
    representatives) is given its inverse that way.
    A family with its inverse is a PlaneAut over K[t, 1/t]
    (degeneration._family_aut), which keeps the word it was factored by, or
    has none when only its formal inverse inverts it.
    A map keeps what is derived from it the first time it is built: word,
    fwd = recompose(word) o (jac x1, x2), by its first factorization
    (amalgam.plane_aut_from_endo, or amalgam._word for a composed map) or
    the reduced word it was built from; reduction, its cyclic reduction
    (word, conjugator factors) (amalgam._cyclic_reduction); nf, its verified
    normal form (conjugacy.normal_form).
    The Jacobian of an automorphism is a constant, so jac is its value at the
    origin, read off the linear part of fwd; no PlaneAut differentiates.
    amalgam.plane_aut_from_endo takes the same constant from its descent
    and multiplies the Jacobian polynomial out only for a map it rejects, a
    family over K[t, 1/t] of degree >= 2 or a map with fewer terms than its
    degree.
    verify=True, the default, checks a map a library caller builds by hand,
    input from outside: verify() composes fwd o inv and inv o fwd in full,
    building the inverse if it is deferred.  Every PlaneAut the package
    builds passes verify=False, as its inverse is certified along the factor
    word, one factor at a time (amalgam.plane_aut_from_endo), or built from
    such maps, and conjugation identities walk the conjugator's word
    (amalgam._check_conjugation).  A map of degree <= 1 is certified by
    products of 2x3 matrices (linear part and translation) instead, both as
    an inverse and in a conjugation of three such maps."""

    __slots__ = ("fwd", "_inv", "jac", "word", "reduction", "nf")

    def __init__(self, fwd: Endo, inv, *, verify: bool = True):
        if fwd.nvars != 2:
            raise ArityMismatchError("PlaneAut lives on the plane")
        self.fwd = fwd
        self._inv = inv
        if not callable(inv):
            self._check_inverse(inv)
        if verify and not self.verify():
            raise NotInvertibleError("forward and inverse do not compose to the identity")
        R = fwd.ring
        (a, b), (c, d) = ([q.coeff(e) for e in ((1, 0), (0, 1))] for q in fwd.comps)
        jac = R.sub(R.mul(a, d), R.mul(b, c))
        if R.is_zero(jac):
            raise NotInvertibleError("Jacobian determinant is not a nonzero constant")
        self.jac = jac
        self.word = self.reduction = self.nf = None

    def _check_inverse(self, inv: Endo) -> None:
        if self.fwd.ring != inv.ring:
            raise RingMismatchError("forward and inverse over different rings")
        if self.fwd.degree != inv.degree:
            # equal in dimension 2 for every genuine automorphism
            raise NotInvertibleError("degree of forward and inverse differ")

    @property
    def inv(self) -> Endo:
        """The inverse map, built now if it was given as a function."""
        if callable(self._inv):
            inv = self._inv()
            self._check_inverse(inv)
            self._inv = inv
        return self._inv

    @classmethod
    def identity(cls, ring):
        e = Endo.identity(ring, 2)
        return cls(e, e, verify=False)

    @property
    def ring(self):
        return self.fwd.ring

    @property
    def degree(self):
        return self.fwd.degree

    @property
    def is_special(self) -> bool:
        return self.ring.eq(self.jac, self.ring.one)

    def inverse(self) -> "PlaneAut":
        """The inverse, which reads inv; a Jacobian-1 map with a word keeps
        the inverse word on it."""
        out = PlaneAut(self.inv, self.fwd, verify=False)
        if self.word is not None and self.is_special:
            out.word = self.word.inverse_word()
        return out

    def compose(self, other: "PlaneAut") -> "PlaneAut":
        """self o other; inverses compose in the opposite order."""
        return PlaneAut(self.fwd.compose(other.fwd), other.inv.compose(self.inv), verify=False)

    def power(self, m: int) -> "PlaneAut":
        """self^m as f o f^k (and f^-1 o f^-k), each iterate built from the
        last along the word of f (its inverse word for f^-1) by _iterates:
        substituting f^k into f raises its arguments only to deg f, where
        squaring, f^k o f^k, would raise them to deg f^k.  m < 0 goes
        through inverse()."""
        if m < 0:
            return self.inverse().power(-m)
        if not m:
            return PlaneAut.identity(self.ring)
        fwd, inv = (Endo(_iterates(self, m, inverse, keep=True)[1]) for inverse in (False, True))
        return PlaneAut(fwd, inv, verify=False)

    def verify(self) -> bool:
        return self.fwd.is_inverse(self.inv)

    def __eq__(self, other):
        return isinstance(other, PlaneAut) and self.fwd == other.fwd

    def __hash__(self):
        raise TypeError("PlaneAut is not hashable")

    def __str__(self):
        return str(self.fwd)

    def __repr__(self):
        return f"PlaneAut{self.fwd}"


# ---------------------------------------------------------------------------
# Points on the line at infinity.

@dataclass(frozen=True)
class InfinityPoint:
    """A point [0 : y1 : ... : yn] with the first nonzero coordinate scaled to 1."""

    coords: tuple

    @classmethod
    def normalize(cls, ring, coords):
        coords = tuple(coords)
        pivot = None
        for c in coords:
            if not ring.is_zero(c):
                pivot = c
                break
        if pivot is None:
            raise ValueError("all coordinates zero")
        inv = ring.invert(pivot)
        return cls(tuple(ring.mul(c, inv) for c in coords))

    def __str__(self):
        return "[0:" + ":".join(str(c) for c in self.coords) + "]"


def _as_plane_endo(f):
    e = f.fwd if isinstance(f, PlaneAut) else f
    if e.nvars != 2:
        raise ArityMismatchError("points at infinity are computed in the plane only")
    return e


def _binary_form_dict(p: MultiPoly):
    """Homogeneous 2-variable polynomial as {x2-exponent: coeff}."""
    return {e[1]: c for e, c in p.terms.items()}


def _single_root(F, h):
    """The root r of h = c (u - r)^m; NotInvertibleError if h has several.

    With m = p^s m', p the characteristic prime to m' (s = 0 over Q),
    c (u - r)^m = c (u^(p^s) - r^(p^s))^m' has u^(m - p^s) coefficient
    -m' c r^(p^s), and r^(p^s) = r on F_p.  Over F_p[t, 1/t],
    (sum b_j t^j)^(p^s) = sum b_j t^(j p^s), so r is r^(p^s) with every
    exponent divided by p^s, and UnsupportedFieldError is raised when p^s
    does not divide one.  One up_shift checks r.  Over Q and F_p a single
    root is in the field, so a failed check means several points.
    """
    m = up_deg(F, h)
    p, q = F.characteristic, 1
    while p and m // q % p == 0:
        q *= p
    lead = h[m]
    r = F.neg(F.mul(h.get(m - q, F.zero), F.invert(F.mul(lead, F.from_int(m // q)))))
    if q > 1 and not F.is_finite:
        if any(e % q for e in r):
            raise UnsupportedFieldError(f"point at infinity of multiplicity {m} over {F!r}; "
                                        "no Frobenius root there")
        r = {e // q: b for e, b in r.items()}
    if up_shift(F, {m: lead}, F.one, F.neg(r)) != h:
        raise NotInvertibleError("several points at infinity; not an automorphism")
    return r


def _common_infinity_zero(ring, a1: MultiPoly, a2: MultiPoly) -> InfinityPoint:
    """The single common zero of two binary forms on the line at infinity."""
    F = ring
    d1, d2 = _binary_form_dict(a1), _binary_form_dict(a2)
    deg = max(a1.degree if not a1.is_zero else 0, a2.degree if not a2.is_zero else 0)
    # multiplicity of the point [0:0:1], i.e. the power of y1 dividing each form
    s = deg
    for p, d in ((a1, d1), (a2, d2)):
        if d:
            s = min(s, p.degree - max(d))
    g = up_gcd_monic(F, d1, d2)
    gd = up_deg(F, g)
    if s > 0 and (gd is MINUS_INF or gd > 0):
        raise NotInvertibleError("several points at infinity; not an automorphism")
    if s > 0:
        return InfinityPoint.normalize(F, (F.zero, F.one))
    if gd is MINUS_INF or gd == 0:
        raise NotInvertibleError("no common zero at infinity; not an automorphism")
    r = _single_root(F, g)
    return InfinityPoint.normalize(F, (F.one, r))


def indeterminacy_point(f) -> InfinityPoint:
    """I_f: where the projective extension of f is undefined on the line at infinity."""
    e = _as_plane_endo(f)
    if e.degree is MINUS_INF or e.degree < 2:
        raise NoIndeterminacyError("degree-1 maps extend to automorphisms of the projective plane")
    top = e.highest_part()
    return _common_infinity_zero(e.ring, top.comps[0], top.comps[1])


def image_point_at_infinity(f) -> InfinityPoint:
    """X_f: the single point onto which f contracts the line at infinity.

    f sends [0:y1:y2] off I_f to [0 : a1(y) : a2(y)], a1, a2 its top forms:
    one point [0:c1:c2] exactly when c2 a1 = c1 a2, and c1, c2 are then the
    coefficients of a1, a2 at any monomial of either form.  Errors from
    indeterminacy_point come first, and for a PlaneAut X_f is cross-checked
    against the indeterminacy point of the inverse.
    """
    e = _as_plane_endo(f)
    if e.degree is MINUS_INF or e.degree < 2:
        raise NoIndeterminacyError("degree-1 maps do not contract the line at infinity")
    indeterminacy_point(e)
    a1, a2 = e.highest_part().comps
    mono = next(iter(a1.terms or a2.terms))
    c1, c2 = a1.coeff(mono), a2.coeff(mono)
    if a1.scale(c2) != a2.scale(c1):
        raise NotInvertibleError("line at infinity is not contracted to a single point")
    pt = InfinityPoint.normalize(e.ring, (c1, c2))
    if isinstance(f, PlaneAut) and indeterminacy_point(f.inverse()) != pt:
        raise NotInvertibleError("image at infinity disagrees with the inverse's "
                                 "indeterminacy point")
    return pt


# ---------------------------------------------------------------------------
# Degree dynamics.

def _iterates(f, count: int, inverse: bool = False, keep: bool = False):
    """poly.iterate_chain of f, an Endo or a PlaneAut (of f^-1 with inverse):
    (degrees of the first count iterates, the last one with keep).  A
    PlaneAut with a word is iterated along it, one composed group of
    AmalgamWord.step_groups per step; a map with no word, or one group, is
    one step, its own term dicts."""
    if isinstance(f, PlaneAut):
        e, word = f.inv if inverse else f.fwd, f.word
    else:
        e, word = f, None
    groups = [] if word is None else word.step_groups(f.jac, inverse)
    steps = [[p.terms for p in e.comps]]
    if len(groups) > 1:
        ident = Endo.identity(e.ring, 2).comps
        steps = [group[0] if len(group) == 1 else [p.terms for p in compose_chain(ident, group)]
                 for group in groups]
    return iterate_chain(e.comps, steps, count, keep)


def degree_sequence(f, m: int):
    """[deg f, deg f^2, ..., deg f^m], f an Endo or a PlaneAut.  f^(k+1) is
    built as f o f^k on int forms, along the factor word of f one grouped
    step at a time when it has one (_iterates), and no iterate is raised."""
    if m < 0:
        raise ValueError("negative iterate count")
    return _iterates(f, m)[0]


def is_dynamically_regular(f: PlaneAut) -> bool:
    """deg(f o f) = deg(f)^2 with deg f >= 2; equivalently X_f avoids I_f.
    deg(f o f) is the second entry of degree_sequence, and the points at
    infinity, I_f and I_(f^-1) = X_f, cross-check it."""
    if f.degree < 2:
        return False
    regular = degree_sequence(f, 2)[1] == f.degree ** 2
    if (indeterminacy_point(f.fwd) != indeterminacy_point(f.inv)) != regular:
        raise NotInvertibleError("degree growth disagrees with the indeterminacy points")
    return regular
