"""Exact coefficient rings and the sparse-dict kernel they share.

Every ring here is a stateless descriptor whose methods operate on plain
Python values; coefficients are never wrapped in per-value objects, which
keeps the polynomial layer fast while staying exact (no floats anywhere).

    RationalField       values are fractions.Fraction
    PrimeField(p)       values are int in range(p), p prime
    LaurentRing(F)      values are dict {t-exponent: F-value}, no zero entries

LaurentRing models K[t, 1/t] with K = Q or F_p; no ring here models K(t).
A family over K[t, 1/t] whose Jung-van der Kulk descent divides by a
non-unit is inverted by its formal inverse, which divides only by the
Jacobian (degeneration._formal_inverse).

Ring contract, besides the arithmetic methods (add, neg, mul, invert, pow,
is_zero, ...):

    is_finite           True only for PrimeField, on which the Frobenius
                        x -> x^p is the identity
    sample_stream()     an iterator of ring values; a finite ring yields each
                        element once, in ascending order, and stops; an
                        infinite ring yields distinct values and never stops

The up_* functions are the one sparse-dict kernel: a value is a dict
{key: coeff} with no zero coefficients.  add / neg take any keys, and
poly.MultiPoly uses them on exponent tuples; mul adds keys with +, so it
needs int exponents (+ concatenates tuples).  MultiPoly products, powers
and compositions over Q, F_p and K[t, 1/t] run on poly.py's int kernel,
never through up_mul.  power(x, n, mul, one) is the one repeated-squaring
routine, behind LaurentRing.pow, the gap powers poly._powers builds on the
int kernel's term dicts (for MultiPoly.__pow__ and every composition) and
the Cantor-Zassenhaus split of PrimeField.roots; Q and F_p use Python's own
** and pow.  PlaneAut.power composes f o f^k instead, which keeps the
substituted arguments at deg f.

up_shift(F, P, a, b) = P(a x + b), a != 0, is the one univariate
substitution, over any ring here (the F_p shift equations run it over
LaurentRing(F) with b = t).  It sums each term's binomial expansion over
binomials(n, p), the j with C(n, j) != 0 in characteristic p: by Lucas,
prod(n_i + 1) of them for the base-p digits n_i of n.  b = 0 keeps P sparse.

Over F_p no routine scans the field; each runs in time polynomial in log p
(and, for nth_roots, in the g = gcd(n, p - 1) roots it lists):

    is_prime            deterministic Miller-Rabin on the first 13 primes,
                        exact below 3.3e24; UnsupportedFieldError above
    PrimeField.sqrt     the smaller of the two roots, as an int in
                        range(p), or None; _root with g = 2, which is
                        Tonelli-Shanks
    PrimeField.nth_roots
                        x^n = a reduced to x^g = b, g = gcd(n, p - 1); one
                        root x and a zeta of order g from _root, and the g
                        roots x zeta^j, j < g, sorted: the order an ascending
                        scan of F_p would give, which callers rely on
    PrimeField._root    Adleman-Manders-Miller on plain ints: g factored by
                        trial division, and for each prime q of g, with
                        q^e || p - 1, a Pohlig-Hellman discrete log in the
                        q-Sylow subgroup of F_p^*, found from the first q-th
                        power non-residue 2, 3, ...; O(log p) products per
                        prime plus O(e^2) powers x^q and a table of q entries
    PrimeField.roots    the roots of a univariate f, ascending: those of
                        gcd(f, x^p - x), split by Cantor-Zassenhaus with the
                        shifts x + 0, x + 1, ... on the up_* kernel

The degree / valuation of 0 is the dedicated sentinel MINUS_INF, never an
integer.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    NonUnitError,
    NotInvertibleError,
    PoleAtZeroError,
    UnsupportedFieldError,
)


class _MinusInfinity:
    """Sentinel for deg(0) and v(0): below every integer, absorbing under +."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return self is not other

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return self is other

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __neg__(self):
        raise ArithmeticError("cannot negate -inf")

    def __repr__(self):
        return "-inf"


MINUS_INF = _MinusInfinity()


def _iroot(x: int, n: int) -> int:
    """Floor of the n-th root of x >= 0."""
    if x < 0:
        raise ValueError("negative radicand")
    if x in (0, 1) or n == 1:
        return x
    r = 1 << ((x.bit_length() + n - 1) // n)
    while True:
        nr = ((n - 1) * r + x // r ** (n - 1)) // n
        if nr >= r:
            return r
        r = nr


# Deterministic Miller-Rabin: the first 13 primes as bases decide every
# n below this bound (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _prime_powers(n: int):
    """[(q, k), ...]: the primes q of n >= 1, ascending, with their
    exponents k, by trial division."""
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            k = 0
            while n % q == 0:
                n //= q
                k += 1
            out.append((q, k))
        q += 1
    if n > 1:
        out.append((n, 1))
    return out


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    if p >= _MR_BOUND:
        raise UnsupportedFieldError(f"{p} is too large to certify as prime")
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for q in _MR_BASES:
        x = pow(q, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field Q with Fraction values."""

    characteristic = 0
    is_finite = False

    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_zero(self, a):
        return a == 0

    def eq(self, a, b):
        return a == b

    def from_int(self, n: int):
        return Fraction(n)

    def invert(self, a):
        if a == 0:
            raise NotInvertibleError("division by zero in Q")
        return Fraction(1) / a

    def pow(self, a, n: int):
        if n < 0:
            return self.invert(a) ** (-n)
        return a ** n

    def sqrt(self, a):
        """Exact square root in Q, or None."""
        if a < 0:
            return None
        rn, rd = _iroot(a.numerator, 2), _iroot(a.denominator, 2)
        r = Fraction(rn, rd)
        return r if r * r == a else None

    def nth_roots(self, a, n: int):
        """All solutions x in Q of x^n = a."""
        if a == 0:
            return [self.zero]
        if a < 0 and n % 2 == 0:
            return []
        rn = _iroot(abs(a.numerator), n)
        rd = _iroot(a.denominator, n)
        r = Fraction(rn, rd)
        if r ** n != abs(a):
            return []
        if a < 0:
            return [-r]
        return [r, -r] if n % 2 == 0 else [r]

    def sample_stream(self):
        n = 0
        while True:
            yield Fraction(n)
            n += 1

    def split_sign(self, a):
        return (a < 0, -a if a < 0 else a)

    def to_str(self, a):
        return str(a)

    def needs_parens(self, a):
        return False

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField:
    """The field F_p, p prime, with int values in range(p)."""

    is_finite = True

    def __init__(self, p: int):
        if not is_prime(p):
            raise UnsupportedFieldError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def is_zero(self, a):
        return a == 0

    def eq(self, a, b):
        return a == b

    def from_int(self, n: int):
        return n % self.p

    def invert(self, a):
        if a % self.p == 0:
            raise NotInvertibleError(f"division by zero in F{self.p}")
        return pow(a, -1, self.p)

    def pow(self, a, n: int):
        if n < 0:
            return pow(self.invert(a), -n, self.p)
        return pow(a, n, self.p)

    def sqrt(self, a):
        """The smaller square root of a in range(p), or None: _root's q = 2
        case, which is Tonelli-Shanks."""
        p = self.p
        a %= p
        if a == 0 or p == 2:
            return a
        if pow(a, (p - 1) // 2, p) != 1:
            return None
        r = self._root(a, 2)[0]
        return min(r, p - r)

    def nth_roots(self, a, n: int):
        """All x in F_p with x^n = a, ascending.

        x^n = a is x^g = b with g = gcd(n, p - 1) and b = a^s, s (n/g) = 1
        mod (p - 1)/g; its g roots are x zeta^j, j < g, for the root x and
        the zeta of order g that _root gives.
        """
        if n < 1:
            raise ValueError("nth_roots needs n >= 1")
        p = self.p
        a %= p
        if a == 0:
            return [0]
        g = math.gcd(n, p - 1)
        m = (p - 1) // g
        if pow(a, m, p) != 1:
            return []
        x, zeta = self._root(pow(a, pow(n // g, -1, m), p), g)
        roots = []
        for _ in range(g):
            roots.append(x)
            x = x * zeta % p
        return sorted(roots)

    def _root(self, b, g):
        """(x, zeta): x^g = b and zeta of order g, for g | p - 1 and b a
        nonzero g-th power (Adleman-Manders-Miller).

        p - 1 = s t with s built from the primes of g, so g | s and
        gcd(g, t) = 1; x = b^u, u = g^-1 mod t, has x^g = b err with
        err = b^(g u - 1) in the subgroup of order s.  For a prime q of g,
        q^e || p - 1 and q^f || g, c = z^((p - 1)/q^e) generates the q-Sylow
        subgroup for the first q-th power non-residue z = 2, 3, ..., and
        c^(q^(e - f)) has order q^f.  The q-part d of err is a power of
        c^(q^f).  While d != 1, its order q^j and last = d^(q^(j - 1)), of
        order q, give the lowest base-q digit of its discrete log
        (Pohlig-Hellman), and x and d are multiplied by the y and y^g, y of
        order q^(f + j), that clear that digit; for q = 2 this loop is
        Tonelli-Shanks.
        """
        p = self.p
        sylow, t = [], p - 1
        for q, f in _prime_powers(g):
            e = 0
            while t % q == 0:
                t //= q
                e += 1
            sylow.append((q, e, f))
        u = pow(g, -1, t)
        x, s = pow(b, u, p), (p - 1) // t
        err = pow(b, g * u - 1, p) if s > g else 1
        zeta = 1
        for q, e, f in sylow:
            z = 2
            while (omega := pow(z, (p - 1) // q, p)) == 1:
                z += 1
            c = pow(z, (p - 1) // q**e, p)
            zeta = zeta * pow(c, q ** (e - f), p) % p
            m = s // q**e
            d = pow(err, m * pow(m, -1, q**e), p) if e > f else 1
            if d == 1:
                continue
            # undo[last] = i: (v^i)^(g q^(j - 1)) = last^-1 for v of order
            # q^(f + j), as v^(q^(f + j - 1)) is omega for every such v
            undo = {pow(omega, -(g // q**f) * i % q, p): i for i in range(q)}
            v, jv = c, e - f
            while d != 1:
                last, h, j = d, pow(d, q, p), 1
                while h != 1:
                    last = h
                    h = pow(h, q, p)
                    j += 1
                v, jv = pow(v, q ** (jv - j), p), j
                y = pow(v, undo[last], p)
                x = x * y % p
                d = d * pow(y, g, p) % p
        return x, zeta

    def roots(self, f):
        """All x in F_p with f(x) = 0, ascending; f a {degree: coeff} dict.

        r = f mod (x^p - x) has the values of f on F_p: range(p) if r = 0,
        else the roots of gcd(r, x^p - x), x^p taken by powering x mod r.
        """
        p = self.p
        r = up_divmod(self, f, {p: 1, 1: p - 1})[1]
        if not r:
            return range(p)
        mulmod = lambda u, v: up_divmod(self, up_mul(self, u, v), r)[1]
        return self._split_linear(
            up_gcd_monic(self, up_sub(self, power({1: 1}, p, mulmod, {0: 1}), {1: 1}), r))

    def _split_linear(self, f, delta=0):
        """The roots, ascending, of the monic f, a product of distinct linear
        factors; gcd(f, (x + d)^((p-1)/2) - 1) splits f for some
        d = delta, delta + 1, ...  (p odd whenever deg f >= 2).  Only roots
        needs it: nth_roots finds its roots in F_p^* without polynomials."""
        deg = up_deg(self, f)
        if deg < 2:
            return [(-f.get(0, 0)) % self.p] if deg == 1 else []
        mulmod = lambda u, v: up_divmod(self, up_mul(self, u, v), f)[1]
        while True:
            h = power({1: 1, 0: delta} if delta else {1: 1},
                      (self.p - 1) // 2, mulmod, {0: 1})
            d = up_gcd_monic(self, up_sub(self, h, {0: 1}), f)
            if 0 < up_deg(self, d) < deg:
                return sorted(self._split_linear(d, delta + 1)
                              + self._split_linear(up_divmod(self, f, d)[0], delta + 1))
            delta += 1

    def sample_stream(self):
        return iter(range(self.p))

    def split_sign(self, a):
        return (False, a)

    def to_str(self, a):
        return str(a)

    def needs_parens(self, a):
        return False

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"F{self.p}"


class LaurentRing:
    """K[t, 1/t] over a base field K; values are {exponent: coefficient} dicts."""

    is_finite = False

    def __init__(self, base):
        self.base = base
        self.characteristic = base.characteristic
        self.zero = {}
        self.one = {0: base.one}

    def term(self, exponent: int, coeff):
        return {} if self.base.is_zero(coeff) else {exponent: coeff}

    @property
    def t(self):
        return {1: self.base.one}

    def from_base(self, c):
        return self.term(0, c)

    def add(self, a, b):
        return up_add(self.base, a, b)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        return up_neg(self.base, a)

    def mul(self, a, b):
        return up_mul(self.base, a, b)

    def is_zero(self, a):
        return not a

    def eq(self, a, b):
        return a == b

    def from_int(self, n: int):
        return self.from_base(self.base.from_int(n))

    def invert(self, a):
        if len(a) != 1:
            raise NonUnitError("not a unit of K[t,1/t]")
        ((e, c),) = a.items()
        return {-e: self.base.invert(c)}

    def pow(self, a, n: int):
        if n < 0:
            return self.pow(self.invert(a), -n)
        return power(a, n, self.mul, self.one)

    def valuation(self, a):
        return min(a) if a else MINUS_INF

    def shift(self, a, k: int):
        """Multiply by t^k."""
        return {e + k: c for e, c in a.items()}

    def value_at_zero(self, a):
        v = self.valuation(a)
        if v is not MINUS_INF and v < 0:
            raise PoleAtZeroError(valuation=v)
        return a.get(0, self.base.zero)

    def specialize(self, a, c):
        """Evaluate at t = c, c a nonzero base-field value."""
        return up_eval(self.base, a, c)

    def split_sign(self, a):
        if len(a) == 1:
            ((e, c),) = a.items()
            neg, mag = self.base.split_sign(c)
            if neg:
                return (True, {e: mag})
        return (False, a)

    def to_str(self, a):
        if not a:
            return "0"
        F = self.base
        parts = []
        for e in sorted(a, reverse=True):
            c = a[e]
            neg, mag = F.split_sign(c)
            if e == 0:
                body = F.to_str(mag)
            else:
                tpow = "t" if e == 1 else f"t^{e}"
                body = tpow if F.eq(mag, F.one) else f"{F.to_str(mag)}*{tpow}"
            if not parts:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append(("- " if neg else "+ ") + body)
        return " ".join(parts)

    def needs_parens(self, a):
        return len(a) > 1

    def __eq__(self, other):
        return isinstance(other, LaurentRing) and other.base == self.base

    def __hash__(self):
        return hash(("laurent", self.base))

    def __repr__(self):
        return f"{self.base!r}[t,1/t]"


# ---------------------------------------------------------------------------
# The sparse-dict kernel.  add and neg take any keys (MultiPoly's tuples
# too); mul and the rest are univariate, {degree: coeff}.  No zero entries.

def power(x, n: int, mul, one):
    """x^n for n >= 0 by repeated squaring: the product starts at the lowest
    set bit, so it never multiplies by one (x^1 is x itself, not a copy), and
    never squares past the top bit."""
    if not n:
        return one
    while not n & 1:
        x = mul(x, x)
        n >>= 1
    out = x
    while n := n >> 1:
        x = mul(x, x)
        if n & 1:
            out = mul(out, x)
    return out

def up_deg(F, d):
    return max(d) if d else MINUS_INF

def up_add(F, a, b):
    out = dict(a)
    for e, c in b.items():
        s = F.add(out.get(e, F.zero), c)
        if F.is_zero(s):
            out.pop(e, None)
        else:
            out[e] = s
    return out

def up_neg(F, a):
    return {e: F.neg(c) for e, c in a.items()}

def up_sub(F, a, b):
    return up_add(F, a, up_neg(F, b))

def up_scale(F, a, c):
    if F.is_zero(c):
        return {}
    return {e: F.mul(x, c) for e, x in a.items()}

def up_mul(F, a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            s = F.add(out.get(e, F.zero), F.mul(ca, cb))
            if F.is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
    return out

def up_divmod(F, a, b):
    if not b:
        raise ZeroDivisionError("univariate division by zero")
    db = up_deg(F, b)
    inv_lead = F.invert(b[db])
    q, r = {}, dict(a)
    while r and up_deg(F, r) >= db:
        dr = up_deg(F, r)
        c = F.mul(r[dr], inv_lead)
        q[dr - db] = c
        for e, x in b.items():
            s = F.sub(r.get(e + dr - db, F.zero), F.mul(x, c))
            if F.is_zero(s):
                r.pop(e + dr - db, None)
            else:
                r[e + dr - db] = s
    return q, r

def up_monic(F, a):
    if not a:
        return a
    return up_scale(F, a, F.invert(a[up_deg(F, a)]))

def up_gcd_monic(F, a, b):
    a, b = dict(a), dict(b)
    while b:
        a, b = b, up_divmod(F, a, b)[1]
    return up_monic(F, a)

def binomials(n: int, p: int) -> dict:
    """{j: C(n, j)} over the j with C(n, j) != 0 in characteristic p: the
    whole row for p = 0; for p > 0, by Lucas, the products of the digit rows
    C(n_i, j_i) mod p, each row built in O(n_i) with the inverse recurrence
    1/i = -(p // i) / (p mod i) mod p."""
    if p == 0:
        return {j: math.comb(n, j) for j in range(n + 1)}
    out, place = {0: 1}, 1
    while n:
        n, d = divmod(n, p)
        inv, row = [0, 1], [1]
        for i in range(2, d + 1):
            inv.append(-(p // i) * inv[p % i] % p)
        for i in range(d):
            row.append(row[-1] * (d - i) * inv[i + 1] % p)
        out = {j + i * place: c * r % p for j, c in out.items() for i, r in enumerate(row)}
        place *= p
    return out

def up_shift(F, P, a, b):
    """The substitution P(a x + b), a != 0: each term c x^n expands to sum
    C(n, j) c a^j b^(n-j) x^j over binomials(n, char F), each power raised once,
    so char p visits only Lucas-nonzero terms; b = 0 keeps the support of P."""
    if F.is_zero(b):
        return {n: F.mul(c, F.pow(a, n)) for n, c in P.items()}
    out, apow, bpow = {}, {}, {}
    for n, c in P.items():
        for j, binom in binomials(n, F.characteristic).items():
            aj = apow[j] if j in apow else apow.setdefault(j, F.pow(a, j))
            bk = bpow[n - j] if n - j in bpow else bpow.setdefault(n - j, F.pow(b, n - j))
            out[j] = F.add(out.get(j, F.zero), F.mul(F.mul(c, F.from_int(binom)), F.mul(aj, bk)))
    return {j: c for j, c in out.items() if not F.is_zero(c)}

def up_eval(F, a, x):
    acc = F.zero
    for e, c in a.items():
        acc = F.add(acc, F.mul(c, F.pow(x, e)))
    return acc

def up_to_str(F, a, var="t"):
    if not a:
        return "0"
    parts = []
    for e in sorted(a, reverse=True):
        c = F.to_str(a[e])
        parts.append(c if e == 0 else (f"{c}*{var}" if e == 1 else f"{c}*{var}^{e}"))
    return " + ".join(parts)


def field_from_name(name: str):
    """Parse a field descriptor: "Q" or "Fp:<prime>"."""
    if name == "Q":
        return RationalField()
    if name.startswith("Fp:"):
        try:
            p = int(name[3:])
        except ValueError:
            raise UnsupportedFieldError(f"bad field descriptor {name!r}") from None
        return PrimeField(p)
    raise UnsupportedFieldError(f"bad field descriptor {name!r}")
