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
is likewise a single point, and X_f = I_{f inverse}.

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
    FieldExtensionRequiredError,
    NoIndeterminacyError,
    NotInvertibleError,
    RingMismatchError,
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

    @property
    def is_identity(self) -> bool:
        return self == Endo.identity(self.ring, self.nvars)

    def compose(self, other: "Endo") -> "Endo":
        """self o other: apply other first."""
        if self.ring != other.ring:
            raise RingMismatchError("compose over different rings")
        if self.nvars != other.nvars:
            raise ArityMismatchError("compose with different variable counts")
        return Endo(compose_many(self.comps, other.comps))

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
    A map keeps what is derived from it the first time it is built: word,
    fwd = recompose(word) o (jac x1, x2), by its first factorization
    (amalgam.plane_aut_from_endo, or amalgam._word for a composed map) or
    the reduced word it was built from; reduction, its cyclic reduction
    (word, conjugator factors) (amalgam._cyclic_reduction); nf, its verified
    normal form (conjugacy.normal_form).
    The Jacobian of an automorphism is a constant, so jac is its value at the
    origin, read off the linear part of fwd; no PlaneAut differentiates.
    amalgam.plane_aut_from_endo takes the same constant from its descent
    and multiplies the Jacobian polynomial out only for a map it rejects or
    one of degree above amalgam._JACOBIAN_FIRST_DEGREE.  verify=True, the
    default, checks a map a library caller builds by hand, input from
    outside: verify() composes fwd o inv and inv o fwd in full, building the
    inverse if it is deferred.  Every PlaneAut the package builds passes
    verify=False, as its inverse is certified along the factor word, one
    factor at a time (amalgam.plane_aut_from_endo), or built from such maps,
    and conjugation identities walk the conjugator's word
    (amalgam._check_conjugation)."""

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

    @property
    def is_identity(self) -> bool:
        return self.fwd.is_identity

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
        return self.fwd.compose(self.inv).is_identity and self.inv.compose(self.fwd).is_identity

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
    """The root of h assuming h = c (u - r)^m; verified, else a field-extension error.

    In characteristic p the multiplicity m may be divisible by p; compressing
    through u -> u^(p^s) reduces to an exponent prime to the characteristic,
    and the p^s-th root of the compressed root is taken with F.pth_root.
    """
    m = up_deg(F, h)
    p = F.characteristic
    step, mm = 1, m
    while p and mm % p == 0:
        mm //= p
        step *= p
    if any(e % step for e in h):
        raise FieldExtensionRequiredError("point at infinity is not rational over the base field")
    lead = h[m]
    sub = h.get(m - step, F.zero)
    # compressed polynomial c (v - rho)^mm has v^(mm-1) coefficient -mm c rho
    rho = F.neg(F.mul(sub, F.invert(F.mul(lead, F.from_int(mm)))))
    r = rho
    s = step
    while s > 1:
        r = F.pth_root(r)
        s //= p
    if up_shift(F, {m: lead}, F.one, F.neg(r)) != h:
        raise FieldExtensionRequiredError("point at infinity is not rational over the base field")
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


def _infinity_ladder(ring):
    """[0:1:u] for u in the ring's sample stream, then [0:0:1] once a finite
    ring runs out."""
    for u in ring.sample_stream():
        yield (ring.one, u)
    yield (ring.zero, ring.one)


def image_point_at_infinity(f) -> InfinityPoint:
    """X_f: the single point onto which f contracts the line at infinity.

    Evaluated at deterministic samples [0:1:u], u = 0, 1, 2, ... skipping I_f;
    two samples must agree, and for a PlaneAut the result is cross-checked
    against the indeterminacy point of the inverse.
    """
    e = _as_plane_endo(f)
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
    infinity cross-check it when they are rational."""
    if f.degree < 2:
        return False
    regular = degree_sequence(f, 2)[1] == f.degree ** 2
    try:
        points_differ = indeterminacy_point(f.fwd) != indeterminacy_point(f.inv)
    except FieldExtensionRequiredError:
        return regular
    if points_differ != regular:
        raise NotInvertibleError("degree growth disagrees with the indeterminacy points")
    return regular
