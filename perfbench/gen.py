"""Seeded input generation for the benchmark, independent of the library.

Every task is produced as expression text plus the answer it must give.
Maps are built as words of affine and triangular factors and expanded
here with a small polynomial arithmetic of our own, so that neither the
inputs nor the expected answers come from the code under test.  The
samplers follow the shapes of the test-suite samplers (small rational
scalars, determinant-1 affine factors, triangular factors) but live in this
file, so a change to the tests cannot move the inputs.  Every coefficient
they draw is nonzero: the shape of each input is fixed by its stratum and
only the values depend on the seed, which keeps the cost of a stratum
steady from seed to seed.

A polynomial is {(i, j): coeff} in x1, x2 with no zero coefficients; a
map is a pair of polynomials.  Coefficients are Fraction over Q and ints
in range(p) over F_p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class Field:
    """Q (p = 0) or F_p, with plain Python values."""

    def __init__(self, p: int = 0):
        self.p = p
        self.name = "Q" if p == 0 else f"Fp:{p}"
        self.zero = Fraction(0) if p == 0 else 0
        self.one = Fraction(1) if p == 0 else 1

    def norm(self, c):
        return Fraction(c) if self.p == 0 else c % self.p

    def add(self, a, b):
        return a + b if self.p == 0 else (a + b) % self.p

    def mul(self, a, b):
        return a * b if self.p == 0 else (a * b) % self.p

    def neg(self, a):
        return -a if self.p == 0 else (-a) % self.p

    def inv(self, a):
        if self.p == 0:
            return 1 / a
        return pow(a, self.p - 2, self.p)

    def scalar(self, rng, nonzero=False):
        """Small scalars: numerators in [-3, 3], halves now and then."""
        if self.p:
            return rng.randrange(1 if nonzero else 0, self.p)
        num = rng.randint(-3, 3)
        while nonzero and num == 0:
            num = rng.randint(-3, 3)
        return Fraction(num, rng.choice((1, 1, 1, 2)))


# -- polynomials in x1, x2 -----------------------------------------------------

X1 = (1, 0)
X2 = (0, 1)
ONE = (0, 0)


def padd(K, a, b):
    out = dict(a)
    for e, c in b.items():
        s = K.add(out.get(e, K.zero), c)
        if s == 0:
            out.pop(e, None)
        else:
            out[e] = s
    return out


def pscale(K, a, c):
    if c == 0:
        return {}
    return {e: K.mul(x, c) for e, x in a.items()}


def pmul(K, a, b):
    out = {}
    for (i, j), c in a.items():
        for (k, l), d in b.items():
            e = (i + k, j + l)
            s = K.add(out.get(e, K.zero), K.mul(c, d))
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
    return out


def pdegree(a) -> int:
    return max((i + j for i, j in a), default=-1)


def linear(K, a, b, e):
    """a x1 + b x2 + e."""
    return {k: v for k, v in ((X1, K.norm(a)), (X2, K.norm(b)), (ONE, K.norm(e))) if v != 0}


def substitute(K, poly, m):
    """poly(m[0], m[1]) with cached powers of both arguments."""
    powers = ([{ONE: K.one}], [{ONE: K.one}])
    for i, j in poly:
        for v, k in ((0, i), (1, j)):
            ps = powers[v]
            while len(ps) <= k:
                ps.append(pmul(K, ps[-1], m[v]))
    out = {}
    for (i, j), c in poly.items():
        out = padd(K, out, pscale(K, pmul(K, powers[0][i], powers[1][j]), c))
    return out


def compose(K, f, g):
    """f o g (apply g first)."""
    return (substitute(K, f[0], g), substitute(K, f[1], g))


def poly_text(K, a) -> str:
    if not a:
        return "0"
    parts = []
    for (i, j) in sorted(a, key=lambda e: (e[0] + e[1], e), reverse=True):
        c = a[(i, j)]
        neg = K.p == 0 and c < 0
        mag = -c if neg else c
        mono = "*".join(s for s in (f"x1^{i}" if i > 1 else "x1" if i else "",
                                    f"x2^{j}" if j > 1 else "x2" if j else "") if s)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{str(mag)}*{mono}"
        if parts:
            parts.append(("- " if neg else "+ ") + body)
        else:
            parts.append(("-" if neg else "") + body)
    return " ".join(parts)


def map_text(K, f) -> str:
    return f"({poly_text(K, f[0])}, {poly_text(K, f[1])})"


# -- factors -------------------------------------------------------------------

@dataclass
class Affine:
    """(a x1 + b x2 + e, c x1 + d x2 + f), ad - bc = 1."""
    a: object
    b: object
    c: object
    d: object
    e: object
    f: object

    def to_map(self, K):
        return (linear(K, self.a, self.b, self.e), linear(K, self.c, self.d, self.f))

    def inverse(self, K):
        a, b, c, d = self.d, K.neg(self.b), K.neg(self.c), self.a
        e = K.neg(K.add(K.mul(a, self.e), K.mul(b, self.f)))
        f = K.neg(K.add(K.mul(c, self.e), K.mul(d, self.f)))
        return Affine(a, b, c, d, e, f)

    def inverse_map(self, K):
        return self.inverse(K).to_map(K)


@dataclass
class Jonq:
    """(a x1 + P(x2), a^-1 x2 + c); P as {exponent: coeff}."""
    a: object
    P: dict
    c: object

    def to_map(self, K):
        first = {X1: self.a, **{(0, k): v for k, v in self.P.items()}}
        return (first, linear(K, 0, K.inv(self.a), self.c))

    def inverse_map(self, K):
        """(a^-1 (x1 - P(a x2 - a c)), a x2 - a c)."""
        ai = K.inv(self.a)
        x2_new = linear(K, 0, self.a, K.neg(K.mul(self.a, self.c)))
        Pl = substitute(K, {(0, k): v for k, v in self.P.items()}, ({}, x2_new))
        return (pscale(K, padd(K, {X1: K.one}, pscale(K, Pl, K.neg(K.one))), ai), x2_new)


def word_map(K, word):
    """F1 o F2 o ... o Fn."""
    out = word[-1].to_map(K)
    for fac in reversed(word[:-1]):
        out = compose(K, fac.to_map(K), out)
    return out


def conjugate(K, h, rep_map):
    """h o rep o h^-1 for a factor word h."""
    out = rep_map
    for fac in reversed(h):
        out = compose(K, fac.to_map(K), compose(K, out, fac.inverse_map(K)))
    return out


def rand_affine(rng, K, triangular=False):
    """Determinant-1 affine factor with nonzero a, b, e, f; c is nonzero too
    (the factor lies outside SJ) unless triangular."""
    a = K.scalar(rng, nonzero=True)
    b = K.scalar(rng, nonzero=True)
    c = K.zero if triangular else K.scalar(rng, nonzero=True)
    d = K.mul(K.add(K.one, K.mul(b, c)), K.inv(a))
    return Affine(a, b, c, d, K.scalar(rng, nonzero=True), K.scalar(rng, nonzero=True))


def rand_poly1(rng, K, deg, low=0):
    """{k: c} with a nonzero coefficient at every k in [low, deg]."""
    return {k: K.scalar(rng, nonzero=True) for k in range(low, deg + 1)}


def rand_jonq(rng, K, deg):
    """(a x1 + P(x2), a^-1 x2 + c) with P of degree deg and full support."""
    return Jonq(K.scalar(rng, nonzero=True), rand_poly1(rng, K, deg), K.scalar(rng, nonzero=True))


def normalize_point(K, y1, y2) -> str:
    """Text of the point [0:y1:y2] with its first nonzero coordinate 1."""
    if y1 != 0:
        return f"[0:1:{str(K.mul(y2, K.inv(y1)))}]"
    return "[0:0:1]"
