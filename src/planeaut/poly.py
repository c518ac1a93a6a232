"""Sparse multivariate polynomials over an exact coefficient ring.

A polynomial is a dict mapping exponent tuples (length nvars, entries >= 0)
to nonzero ring values; the zero polynomial is the empty dict.  Construction
always prunes zero coefficients, so structural equality of the dicts is
polynomial equality.

Term order everywhere (printing, leading terms) is graded lexicographic:
compare total degree first, then the exponent tuple; iteration for output is
descending, so x1^2 comes before x1*x2 before x2^2.

deg(0) is the MINUS_INF sentinel from rings.py, never an integer.

Multiplication has two kernels with equal results.  The dict loop pairs every
term of one factor with every term of the other.  Over F_p and Q a large
product goes through Kronecker substitution instead (Schoenhage 1982; Harvey,
"Faster polynomial multiplication via multipoint Kronecker substitution",
J. Symb. Comp. 2009): each exponent tuple maps to one slot of the product's
dense exponent box, each factor is packed into one integer with a fixed-width
byte field per slot, wide enough that no carry crosses a field, CPython's
Karatsuba bignum multiply does the convolution, and the product is read back
through to_bytes.  Over Q the factors are first cleared of denominators, and
a sign offset on every field makes the signed product fields read back
unsigned.  __mul__ takes the packed kernel when the factors have at least
_PACK_MIN_PRODUCTS term products, the ring is F_p or Q, and the box has at
most _PACK_SLOTS_PER_PRODUCT slots per term product (so sparse factors with
huge exponents never allocate a dense integer); otherwise the dict loop, which
stays as the oracle in tests.

compose substitutes into every term from one table of argument powers: only
the powers whose exponents occur are built, each from the previous one times
the argument raised to the gap, and all terms are summed into one dict.
compose_many shares that table across the components of a map.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from array import array
from fractions import Fraction
from typing import Sequence

from .errors import ArityMismatchError, RingMismatchError
from .rings import MINUS_INF, PrimeField, RationalField, power, up_add, up_neg

# Below this many term products the dict loop is as fast as packing or faster
# (the two cross between 16 and 32 products on 1- and 2-variable inputs).
_PACK_MIN_PRODUCTS = 64
# A dense exponent box larger than this many slots per term product stays on
# the dict loop: its unpacking would cost more than the loop saves.
_PACK_SLOTS_PER_PRODUCT = 4
_PACKED_RINGS = (PrimeField, RationalField)
# Field widths in bytes that an array typecode holds; others go through
# int.to_bytes / int.from_bytes one field at a time.
_ARRAY_CODES = {array(t).itemsize: t for t in "BHILQ"}


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
        a, b = self.terms, other.terms
        if len(a) * len(b) >= _PACK_MIN_PRODUCTS and type(R) in _PACKED_RINGS:
            out = _mul_packed(R, self.nvars, a, b)
            if out is not None:
                return MultiPoly(R, self.nvars, out, _clean=False)
        radd, rmul, rzero = R.add, R.mul, R.zero
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
        return compose_many([self], args)[0]

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


def compose_many(polys: Sequence[MultiPoly], args: Sequence[MultiPoly]) -> list:
    """[p.compose(args) for p in polys], building each argument power once."""
    nvars = len(args)
    for p in polys:
        if p.nvars != nvars:
            raise ArityMismatchError(f"need {p.nvars} substitution arguments, got {nvars}")
    if not args:
        raise ArityMismatchError("compose needs at least one variable")
    R = args[0].ring
    if any(x.ring != R for x in (*polys, *args)):
        raise RingMismatchError("substitution over a different ring")
    nv = args[0].nvars
    one = MultiPoly.const(R, nv, R.one)
    used = [set() for _ in range(nvars)]
    for p in polys:
        for e in p.terms:
            for i, k in enumerate(e):
                if k:
                    used[i].add(k)
    powers = []
    for a, ks in zip(args, used):
        table, gaps = {}, {1: a}
        prev, last = None, 0
        for k in sorted(ks):
            g = k - last
            if g not in gaps:
                gaps[g] = power(a, g, operator.mul, one)
            prev = gaps[g] if prev is None else prev * gaps[g]
            table[k] = prev
            last = k
        powers.append(table)
    radd, rmul, is_zero = R.add, R.mul, R.is_zero
    out = []
    for p in polys:
        acc = {}
        for e, c in p.terms.items():
            term = one
            for i, k in enumerate(e):
                if k:
                    term = powers[i][k] if term is one else term * powers[i][k]
            for te, tc in term.terms.items():
                s = radd(acc[te], rmul(c, tc)) if te in acc else rmul(c, tc)
                if is_zero(s):
                    acc.pop(te, None)
                else:
                    acc[te] = s
        out.append(MultiPoly(R, nv, acc, _clean=False))
    return out


def _mul_packed(R, nvars, a, b):
    """Product of two term dicts over F_p or Q by Kronecker substitution, or
    None when the product's dense exponent box has too many slots."""
    widths = [max(e[i] for e in a) + max(e[i] for e in b) + 1 for i in range(nvars)]
    nslots = math.prod(widths)
    if nslots > _PACK_SLOTS_PER_PRODUCT * len(a) * len(b):
        return None
    strides = [math.prod(widths[i + 1:]) for i in range(nvars)]
    grid = itertools.product(*map(range, widths))
    # one output field sums at most min(len(a), len(b)) term products
    n = min(len(a), len(b))
    if type(R) is PrimeField:
        p = R.p
        k = _field_bytes(n * (p - 1) ** 2)
        # reduced here: a polynomial may be built from ints outside range(p),
        # which the dict loop reduces as it goes
        prod = (_pack(((e, c % p) for e, c in a.items()), strides, k, nslots)
                * _pack(((e, c % p) for e, c in b.items()), strides, k, nslots))
        return {e: r for e, v in zip(grid, _unpack(prod, k, nslots)) if v and (r := v % p)}
    da = math.lcm(*(c.denominator for c in a.values()))
    db = math.lcm(*(c.denominator for c in b.values()))
    ia = {e: c.numerator * (da // c.denominator) for e, c in a.items()}
    ib = {e: c.numerator * (db // c.denominator) for e, c in b.items()}
    bound = n * max(map(abs, ia.values())) * max(map(abs, ib.values()))
    # fields hold [-half, half) and read back as value + half in [0, 2 half)
    k = _field_bytes(2 * bound + 1)
    half = 1 << (8 * k - 1)
    prod = _pack_signed(ia, strides, k, nslots) * _pack_signed(ib, strides, k, nslots)
    prod += int.from_bytes(half.to_bytes(k, "little") * nslots, "little")
    d = da * db
    return {e: Fraction(v - half, d)
            for e, v in zip(grid, _unpack(prod, k, nslots)) if v != half}


def _field_bytes(bound):
    """Bytes in a field holding 0..bound: 1, 2, 4 or 8 when that suffices,
    so that an array typecode reads the fields."""
    k = (bound.bit_length() + 7) // 8 or 1
    return k if k > 8 else 1 << (k - 1).bit_length()


def _pack(items, strides, k, nslots):
    """sum(c * 256^(k * slot(e))) for (e, c) in items, every c in [0, 256^k)."""
    code = _ARRAY_CODES.get(k)
    if code is not None:
        buf = array(code, [0]) * nslots
        for e, c in items:
            buf[sum(map(operator.mul, e, strides))] = c
        if sys.byteorder == "big":
            buf.byteswap()
    else:
        buf = bytearray(nslots * k)
        for e, c in items:
            o = sum(map(operator.mul, e, strides)) * k
            buf[o:o + k] = c.to_bytes(k, "little")
    return int.from_bytes(buf, "little")


def _pack_signed(terms, strides, k, nslots):
    pos = ((e, c) for e, c in terms.items() if c > 0)
    neg = ((e, -c) for e, c in terms.items() if c < 0)
    return _pack(pos, strides, k, nslots) - _pack(neg, strides, k, nslots)


def _unpack(n, k, nslots):
    """The nslots fields of k bytes of n >= 0, lowest first."""
    raw = n.to_bytes(nslots * k, "little")
    code = _ARRAY_CODES.get(k)
    if code is not None:
        vals = array(code, raw)
        if sys.byteorder == "big":
            vals.byteswap()
        return vals
    mv = memoryview(raw)
    return (int.from_bytes(mv[o:o + k], "little") for o in range(0, nslots * k, k))


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
