"""Polynomial endomorphisms, plane automorphisms, and behaviour at infinity.

An Endo is an n-tuple of polynomials in n variables; compose(f, g) is f o g,
apply g first.  A PlaneAut is a validated automorphism of the affine plane:
it carries its inverse, and its Jacobian determinant is a nonzero constant.

Behaviour at infinity (n = 2): write d = deg f and let (a1, a2) be the
degree-d homogeneous parts.  The extension of f to the projective plane is
[x0^d : f1 : f2]; on the line at infinity x0 = 0 it is [0 : a1(y) : a2(y)].
The indeterminacy locus I_f is the common zero of a1, a2 on that line, a
single point for an automorphism of degree >= 2; the image X_f of the line
is likewise a single point, and X_f = I_{f inverse}.

Degrees compose multiplicatively, deg(g o f) = deg(g) deg(f), exactly when
X_f avoids I_g.  Iterating this with g = f separates two regimes:
algebraic elements, deg(f o f) <= deg(f), and dynamically regular ones,
deg(f o f) = deg(f)^2.
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
from .poly import MultiPoly, compose_many
from .rings import (
    MINUS_INF,
    up_deg,
    up_gcd_monic,
    up_pow,
    up_scale,
)


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

    def power(self, m: int) -> "Endo":
        if m < 0:
            raise ValueError("negative iterate of a plain endomorphism")
        out = Endo.identity(self.ring, self.nvars)
        for _ in range(m):
            out = self.compose(out)
        return out

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
    """An automorphism of the affine plane together with its inverse."""

    __slots__ = ("fwd", "inv", "jac")

    def __init__(self, fwd: Endo, inv: Endo, *, verify: bool = True):
        if fwd.nvars != 2:
            raise ArityMismatchError("PlaneAut lives on the plane")
        if fwd.ring != inv.ring:
            raise RingMismatchError("forward and inverse over different rings")
        if verify:
            if not fwd.compose(inv).is_identity or not inv.compose(fwd).is_identity:
                raise NotInvertibleError("forward and inverse do not compose to the identity")
        jac = fwd.jacobian()
        if not jac.is_constant or jac.is_zero:
            raise NotInvertibleError("Jacobian determinant is not a nonzero constant")
        if fwd.degree != inv.degree:
            # equal in dimension 2 for every genuine automorphism
            raise NotInvertibleError("degree of forward and inverse differ")
        self.fwd = fwd
        self.inv = inv
        self.jac = jac.constant_value()

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
        return PlaneAut(self.inv, self.fwd, verify=False)

    def compose(self, other: "PlaneAut") -> "PlaneAut":
        """self o other; inverses compose in the opposite order."""
        return PlaneAut(self.fwd.compose(other.fwd), other.inv.compose(self.inv), verify=False)

    def conjugate_by(self, h: "PlaneAut") -> "PlaneAut":
        """h o self o h^-1."""
        return h.compose(self).compose(h.inverse())

    def power(self, m: int) -> "PlaneAut":
        if m < 0:
            return self.inverse().power(-m)
        return PlaneAut(self.fwd.power(m), self.inv.power(m), verify=False)

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

    def apply_matrix(self, ring, mat):
        """Image under a linear map; mat is rows of ring values."""
        out = []
        for row in mat:
            acc = ring.zero
            for a, c in zip(row, self.coords):
                acc = ring.add(acc, ring.mul(a, c))
            out.append(acc)
        return InfinityPoint.normalize(ring, out)

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
    check = up_scale(F, up_pow(F, {1: F.one, 0: F.neg(r)}, m), lead)
    if check != h:
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

def degree_sequence(f, m: int):
    """[deg f, deg f^2, ..., deg f^m]."""
    e = f.fwd if isinstance(f, PlaneAut) else f
    out = []
    g = e
    for k in range(m):
        if k:
            g = e.compose(g)
        out.append(g.degree)
    return out


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
    """Does deg(g o f) = deg(g) deg(f)?  Decided directly and by the point test
    X_f != I_g; both routes must agree."""
    comp = g.fwd.compose(f.fwd)
    direct = comp.degree == g.degree * f.degree
    x = i = None
    pt = None
    note = ""
    if f.degree >= 2 and g.degree >= 2:
        try:
            x = image_point_at_infinity(f)
            i = indeterminacy_point(g)
            pt = x != i
        except FieldExtensionRequiredError:
            note = "points at infinity not rational; point test skipped"
    else:
        note = "a degree-1 factor composes multiplicatively"
    rep = MultiplicativityReport(f.degree, g.degree, comp.degree, direct, x, i, pt, note)
    if not rep.consistent():
        raise NotInvertibleError("degree drop does not match the point test; invalid input")
    return rep


def is_algebraic(f: PlaneAut) -> bool:
    """Bounded degree growth under iteration: deg(f o f) <= deg(f)."""
    d2 = f.fwd.compose(f.fwd).degree
    return d2 <= f.degree


def is_dynamically_regular(f: PlaneAut) -> bool:
    """deg(f o f) = deg(f)^2 with deg f >= 2; equivalently X_f avoids I_f."""
    if f.degree < 2:
        return False
    regular = f.fwd.compose(f.fwd).degree == f.degree ** 2
    try:
        points_differ = indeterminacy_point(f.fwd) != indeterminacy_point(f.inv)
    except FieldExtensionRequiredError:
        return regular
    if points_differ != regular:
        raise NotInvertibleError("degree growth disagrees with the indeterminacy points")
    return regular
