"""Sparse multivariate polynomials over an exact coefficient ring.

A polynomial is a dict mapping exponent tuples (length nvars, entries >= 0)
to nonzero ring values; the zero polynomial is the empty dict.  Construction
always prunes zero coefficients, so structural equality of the dicts is
polynomial equality.

Term order everywhere (printing, leading terms) is graded lexicographic:
compare total degree first, then the exponent tuple; iteration for output is
descending, so x1^2 comes before x1*x2 before x2^2.

deg(0) is the MINUS_INF sentinel from rings.py, never an integer.
"""

from __future__ import annotations

import operator
from typing import Sequence

from .errors import ArityMismatchError, RingMismatchError
from .rings import MINUS_INF, power, up_add, up_neg


def _gradlex_key(exps):
    return (sum(exps), exps)


class MultiPoly:
    __slots__ = ("ring", "nvars", "terms", "_deg")

    def __init__(self, ring, nvars: int, terms: dict, *, _clean: bool = True):
        self.ring = ring
        self.nvars = nvars
        if _clean:
            terms = {e: c for e, c in terms.items() if not ring.is_zero(c)}
        self.terms = terms
        self._deg = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ring, nvars):
        return cls(ring, nvars, {}, _clean=False)

    @classmethod
    def const(cls, ring, nvars, c):
        if ring.is_zero(c):
            return cls.zero(ring, nvars)
        return cls(ring, nvars, {(0,) * nvars: c}, _clean=False)

    @classmethod
    def variable(cls, ring, nvars, i):
        """The variable x_{i+1} (0-based index i)."""
        if not 0 <= i < nvars:
            raise ArityMismatchError(f"variable index {i} out of range for {nvars} variables")
        e = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(ring, nvars, {e: ring.one}, _clean=False)

    @classmethod
    def monomial(cls, ring, nvars, exps, c):
        if ring.is_zero(c):
            return cls.zero(ring, nvars)
        return cls(ring, nvars, {tuple(exps): c}, _clean=False)

    @classmethod
    def from_int(cls, ring, nvars, n):
        return cls.const(ring, nvars, ring.from_int(n))

    # -- basic queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self):
        if self._deg is None:
            self._deg = max((sum(e) for e in self.terms), default=MINUS_INF)
        return self._deg

    @property
    def is_constant(self) -> bool:
        d = self.degree
        return d is MINUS_INF or d == 0

    def constant_value(self):
        return self.terms.get((0,) * self.nvars, self.ring.zero)

    def coeff(self, exps):
        return self.terms.get(tuple(exps), self.ring.zero)

    def leading_term(self):
        """(exponents, coefficient) of the graded-lex leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=_gradlex_key)
        return e, self.terms[e]

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring!r} vs {other.ring!r}")
        if self.nvars != other.nvars:
            raise ArityMismatchError(f"{self.nvars} vs {other.nvars} variables")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        return MultiPoly(self.ring, self.nvars, up_add(self.ring, self.terms, other.terms),
                         _clean=False)

    def __neg__(self):
        return MultiPoly(self.ring, self.nvars, up_neg(self.ring, self.terms), _clean=False)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        R = self.ring
        radd, rmul, rzero = R.add, R.mul, R.zero
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                s = radd(out.get(e, rzero), rmul(ca, cb))
                if R.is_zero(s):
                    out.pop(e, None)
                else:
                    out[e] = s
        return MultiPoly(R, self.nvars, out, _clean=False)

    def scale(self, c):
        R = self.ring
        if R.is_zero(c):
            return MultiPoly.zero(R, self.nvars)
        return MultiPoly(R, self.nvars, {e: R.mul(x, c) for e, x in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return power(self, n, operator.mul, MultiPoly.const(self.ring, self.nvars, self.ring.one))

    def compose(self, args: Sequence["MultiPoly"]):
        """Substitute args[i] for x_{i+1}; args live over the same ring."""
        if len(args) != self.nvars:
            raise ArityMismatchError(f"need {self.nvars} substitution arguments, got {len(args)}")
        if not args:
            raise ArityMismatchError("compose needs at least one variable")
        R = self.ring
        for a in args:
            if a.ring != R:
                raise RingMismatchError("substitution over a different ring")
        nv = args[0].nvars
        # cache argument powers; exponents in plane-automorphism work are small
        maxexp = [0] * self.nvars
        for e in self.terms:
            for i, k in enumerate(e):
                if k > maxexp[i]:
                    maxexp[i] = k
        powers = []
        for i, a in enumerate(args):
            ps = [MultiPoly.const(R, nv, R.one)]
            for _ in range(maxexp[i]):
                ps.append(ps[-1] * a)
            powers.append(ps)
        acc = MultiPoly.zero(R, nv)
        for e, c in self.terms.items():
            term = MultiPoly.const(R, nv, c)
            for i, k in enumerate(e):
                if k:
                    term = term * powers[i][k]
            acc = acc + term
        return acc

    def evaluate(self, values):
        """Evaluate at a point; values are ring values, one per variable."""
        if len(values) != self.nvars:
            raise ArityMismatchError("wrong number of coordinates")
        R = self.ring
        acc = R.zero
        for e, c in self.terms.items():
            v = c
            for i, k in enumerate(e):
                if k:
                    v = R.mul(v, R.pow(values[i], k))
            acc = R.add(acc, v)
        return acc

    # -- structure ----------------------------------------------------------

    def homogeneous_part(self, d: int):
        return MultiPoly(self.ring, self.nvars,
                         {e: c for e, c in self.terms.items() if sum(e) == d}, _clean=False)

    def highest_part(self):
        d = self.degree
        if d is MINUS_INF:
            return self
        return self.homogeneous_part(d)

    def partial(self, i: int):
        """Partial derivative with respect to x_{i+1}."""
        R = self.ring
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = e[:i] + (e[i] - 1,) + e[i + 1:]
                d = R.mul(c, R.from_int(e[i]))
                if not R.is_zero(d):
                    out[ne] = R.add(out.get(ne, R.zero), d)
        return MultiPoly(R, self.nvars, out)

    def map_coeffs(self, fn, new_ring):
        """Apply fn to every coefficient, landing in new_ring."""
        return MultiPoly(new_ring, self.nvars, {e: fn(c) for e, c in self.terms.items()})

    # -- comparison / display ----------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.ring == other.ring
                and self.nvars == other.nvars and self.terms == other.terms)

    def __hash__(self):
        raise TypeError("MultiPoly is not hashable")

    def __str__(self):
        return poly_str(self)

    def __repr__(self):
        return f"MultiPoly({self})"


def _monomial_str(exps) -> str:
    parts = []
    for i, k in enumerate(exps):
        if k == 1:
            parts.append(f"x{i + 1}")
        elif k > 1:
            parts.append(f"x{i + 1}^{k}")
    return "*".join(parts)


def poly_str(p: MultiPoly) -> str:
    """Canonical text form: graded-lex descending, explicit * and ^."""
    if p.is_zero:
        return "0"
    R = p.ring
    out = []
    order = sorted(p.terms, key=_gradlex_key, reverse=True)
    multi = len(order) > 1
    for e in order:
        c = p.terms[e]
        neg, mag = R.split_sign(c)
        mono = _monomial_str(e)
        cs = R.to_str(mag)
        if R.needs_parens(mag) and (mono or multi):
            cs = f"({cs})"
        if not mono:
            body = cs
        elif R.eq(mag, R.one):
            body = mono
        else:
            body = f"{cs}*{mono}"
        if not out:
            out.append(("-" if neg else "") + body)
        else:
            out.append(("- " if neg else "+ ") + body)
    return " ".join(out)
