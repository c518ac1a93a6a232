"""Sparse multivariate polynomials over an exact coefficient ring.

A polynomial is a dict mapping exponent tuples (length nvars, entries >= 0)
to nonzero ring values; the zero polynomial is the empty dict.  Construction
always prunes zero coefficients, so structural equality of the dicts is
polynomial equality.

Term order everywhere (printing, leading terms) is graded lexicographic:
compare total degree first, then the exponent tuple; iteration for output is
descending, so x1^2 comes before x1*x2 before x2^2.

deg(0) is the MINUS_INF sentinel from rings.py, never an integer.

Products, powers and compositions run on one int kernel: lower, one int
product or composition, raise.  _lower turns a term dict over F_p, Q or
K[t, 1/t] (K = F_p or Q) into its int form (m, den, {exponents: int}): over
F_p the terms as they are, m = p; over Q the numerators over the common
denominator den, m = 0; over K[t, 1/t] the t-exponent appended as one more
exponent slot, which may be negative.  _raise turns an int result back with
one % p or one Fraction(v, den) per output term, Laurent terms regrouped by
their x-exponents.  Every ring in rings.py lowers, so MultiPoly has no
product path on ring methods.

_imul, the one int product, has two kernels with equal results.  The dict
loop pairs every term of one factor with every term of the other, sums the
int products and reduces mod m once.  From _PACK_MIN_PRODUCTS term products
on it goes through Kronecker substitution instead (Schoenhage 1982; Harvey,
"Faster polynomial multiplication via multipoint Kronecker substitution",
J. Symb. Comp. 2009): each exponent tuple maps to one slot of the product's
dense exponent box, whose every slot starts at the product's least exponent
there (so negative t-exponents pack, and boxes shrink), each factor is
packed into one integer with a fixed-width byte field per slot, wide enough
that no carry crosses a field, CPython's Karatsuba bignum multiply does the
convolution, and the product is read back through to_bytes into an array
(or, for fields over 8 bytes, a list) of its fields.  Over Q every field
gets an offset of half its range, then has that top bit flipped, so it
reads back as its value in two's complement.  An empty slot reads back as
0 over both, and itertools.compress pairs the box's exponent tuples with
the nonzero fields in C, so unpacking spends no Python step on an empty
slot; packing computes each term's slot with the strides unrolled for the
2- and 3-slot exponents of plane maps and their t-families.  A square
(_imul(a, a, m), as rings.power and the argument tables call it) is packed
once and its integer multiplied by itself, which CPython runs as a squaring.
A box of more than _PACK_SLOTS_PER_PRODUCT slots per term product stays on
the dict loop, so sparse factors with huge exponents never allocate a dense
integer.  conftest.ring_mul, the dict loop on ring methods, is the oracle.

Powers of an int form are built in one place, _powers, for both
MultiPoly.__pow__ and the argument tables of compositions.  Below p, and
over Q always, it runs the gap chain: the exponents ascending, each power
the previous one times the argument raised to the gap by squaring.  Over
F_p and F_p[t, 1/t] a power k >= p is Phi(a^(k div p)) a^(k mod p), each
quotient built once.  The p-th power map is additive in characteristic p
(von zur Gathen and Gerhard, "Modern Computer Algebra", Section 14), and
c^p = c mod p for every int c, so Phi multiplies every exponent slot, the
t-slot too, by p and keeps the int values: a^(p^j) costs no product, and
the rest are products of a sparse relabelled power with a power below p.

compose substitutes into every term from one table of argument powers: only
the powers whose exponents occur are built, by _powers, and all terms are
summed into one dict.
compose_many shares that table across the components of a map, and builds
it on int forms: a term's t-exponent shifts the last slot of its image, and
each term is scaled so that every output has one denominator.
conftest.ring_compose_many is its oracle.  _compose_lowered, the body of
compose_many, takes the substituted polynomials as int forms too, so one
substitution's output feeds the next without a raise: compose_chain applies
a list of maps one at a time on the left that way, so a factor word is
recomposed or walked with one lowering and one raising, and
degeneration.pole_propagation_check reads its valuations off int forms,
their operands cut to the lowest t-slices before each call.
iterate_chain applies the same steps again and again to build the iterates
of a map and raises at most the last iterate.  It carries each component's
degree from step to step: over the integral domains K[x] and K[t, 1/t][x]
the image of x^e has degree e . deg(args), so a component whose step
polynomial has one top monomial keeps that degree, and only a tie, which
may cancel, or a zero component reads the degree off the terms.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from array import array
from fractions import Fraction
from typing import Sequence

from .errors import ArityMismatchError, RingMismatchError
from .rings import (
    MINUS_INF,
    LaurentRing,
    PrimeField,
    power,
    up_add,
    up_neg,
)

# From this many term products on, _imul packs.  Timed on the products the
# decide workload makes (2-core machine, int dict loop against packing, per
# bucket of term products): at 16-23 the loop is 1.4x (F_p) and 1.6x (Q)
# faster, at 24-31 even over F_p and 1.4x faster over Q, at 32-39 packing
# is 1.16x faster over F_p and even over Q, at 48-63 1.2-1.4x faster over
# F_p and even over Q, and from 64 (F_p) and 80 (Q) on 1.5x and more.
_PACK_MIN_PRODUCTS = 32
# A dense exponent box larger than this many slots per term product stays on
# the dict loop: its unpacking would cost more than the loop saves.
_PACK_SLOTS_PER_PRODUCT = 4
# Field widths in bytes that an array typecode holds; others go through
# int.to_bytes / int.from_bytes one field at a time.
_ARRAY_CODES = {array(t).itemsize: t for t in "BHILQ"}
_SIGNED_CODES = {array(t).itemsize: t for t in "bhilq"}
# From this many terms on, a monomial image larger than _compose_lowered's
# sum so far becomes the sum, and the smaller sum is added into it.
_SUM_SWAP_MIN = 32


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
        if self.ring is not other.ring and self.ring != other.ring:
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
        if type(R) is PrimeField:
            # F_p terms are their own int form, and _imul's reduced result
            # is already the raised one
            return MultiPoly(R, self.nvars, _imul(self.terms, other.terms, R.p), _clean=False)
        m, da, a = _lower(R, self.terms)
        _, db, b = _lower(R, other.terms)
        return MultiPoly(R, self.nvars, _raise(R, m, da * db, _imul(a, b, m)), _clean=False)

    def scale(self, c):
        R = self.ring
        if R.is_zero(c):
            return MultiPoly.zero(R, self.nvars)
        return MultiPoly(R, self.nvars, {e: R.mul(x, c) for e, x in self.terms.items()})

    def __pow__(self, n: int):
        """self^n on the int form, built by _powers: by squaring below p and
        over Q; over F_p and F_p[t, 1/t] from n >= p on as the Frobenius
        relabelling of self^(n div p) times self^(n mod p), so self^(p^j)
        multiplies nothing."""
        if n < 0:
            raise ValueError("negative power of a polynomial")
        R = self.ring
        m, den, a = _lower(R, self.terms)
        one = {(0,) * (self.nvars + (type(R) is LaurentRing)): 1}
        return MultiPoly(R, self.nvars,
                         _raise(R, m, den ** n, _powers(a, (n,), m, one)[n] if n else one),
                         _clean=False)

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
    """[p.compose(args) for p in polys], building each argument power once:
    polys and arguments lowered, one _compose_lowered, every output raised."""
    nvars = len(args)
    for p in polys:
        if p.nvars != nvars:
            raise ArityMismatchError(f"need {p.nvars} substitution arguments, got {nvars}")
    if not args:
        raise ArityMismatchError("compose needs at least one variable")
    R = args[0].ring
    if any(x.ring is not R and x.ring != R for x in (*polys, *args)):
        raise RingMismatchError("substitution over a different ring")
    nv = args[0].nvars
    ms, dens, bases = zip(*(_lower(R, a.terms) for a in args))
    m = ms[0]
    return [MultiPoly(R, nv, _raise(R, m, den, acc), _clean=False)
            for den, acc in _compose_lowered(R, m, [_lower(R, p.terms)[1:] for p in polys],
                                             list(zip(dens, bases)), nv)]


def _compose_lowered(R, m, polys, args, nv):
    """The int forms (den, flat) of p(args) for each int form p = (den, flat)
    over R, with args int forms in nv variables, mod m; flat values are not
    reduced.

    The table holds the argument powers whose exponents occur in the polys,
    built by _powers: the gap chain below p, and from p on over F_p and
    F_p[t, 1/t] the Frobenius relabelling, so the image of x1^(p^j) is
    read off the argument without a product.  The term c x^e of p adds
    c D^(top - e) times the image of x^e, D the argument denominators and
    top the largest exponents of p, so every output shares the denominator
    d_p D^top; a Laurent term c t^k shifts the image's last slot by k.  An
    image of at least _SUM_SWAP_MIN terms, more than the sum so far, is
    scaled into a new dict in one comprehension, and the old sum is added
    into it; a smaller image is added into the sum term by term."""
    nvars = len(args)
    dens, bases = zip(*args)
    # dens is empty when every argument has denominator 1
    dens = dens if math.prod(dens) != 1 else ()
    laurent = type(R) is LaurentRing
    mul, one = functools.partial(_imul, m=m), {(0,) * (nv + laurent): 1}
    monos = {}
    for _, P in polys:
        monos.update(dict.fromkeys((e[:nvars] for e in P) if laurent else P))
    powers = []
    for a, ks in zip(bases, map(set, zip(*monos))):
        ks.discard(0)
        powers.append(_powers(a, ks, m, one))
    out = []
    for den, P in polys:
        if dens:
            top = [max(col) for col in itertools.islice(zip(*P), nvars)]
            den *= math.prod(map(pow, dens, top))
        acc = {}
        for e, c in P.items():
            if dens:
                c *= math.prod(map(pow, dens, map(operator.sub, top, e)))
            if laurent:
                e, k = e[:nvars], e[nvars]
            term = monos[e]
            if term is None:
                # the image of x^e, built once for all polys
                term = one
                for table, j in zip(powers, e):
                    if j:
                        term = table[j] if term is one else mul(term, table[j])
                monos[e] = term
            shift = laurent and k
            if len(term) >= _SUM_SWAP_MIN and len(term) > len(acc):
                old = acc
                if shift:
                    acc = {(*te[:-1], te[-1] + k): c * tc for te, tc in term.items()}
                else:
                    acc = dict(term) if c == 1 else {te: c * tc for te, tc in term.items()}
                for te, v in old.items():
                    acc[te] = acc.get(te, 0) + v
                continue
            for te, tc in term.items():
                if shift:
                    te = (*te[:-1], te[-1] + k)
                acc[te] = acc.get(te, 0) + c * tc
        out.append((den, acc))
    return out


def _powers(a, ks, m, one):
    """A dict holding a^k for each k in ks, ks > 0, for the int form a mod m,
    and the powers built on the way; one is the int form of 1.  Exponents
    below p, and every exponent over Q (m = 0), go through the gap chain,
    each gap raised once by squaring.  From p on, over F_p and F_p[t, 1/t],
    a^k = Phi(a^(k div p)) a^(k mod p), Phi multiplying every exponent slot
    by p and keeping the values (see the module docstring), so a^(p^j)
    makes no product."""
    low, high = sorted(ks), []
    if m and low and low[-1] >= m:
        # the quotients and remainders down to the exponents below p
        todo, low = set(low), set()
        while todo:
            k = todo.pop()
            if k < m:
                low.add(k)
            elif k not in high:
                high.append(k)
                todo.update(j for j in divmod(k, m) if j)
        low = sorted(low)
        high.sort()
    out, gaps = {}, {1: a}
    prev, last = None, 0
    for k in low:
        g = k - last
        if g not in gaps:
            gaps[g] = power(a, g, functools.partial(_imul, m=m), one)
        prev = gaps[g] if prev is None else _imul(prev, gaps[g], m)
        out[k] = prev
        last = k
    for k in high:
        q, r = divmod(k, m)
        frob = {tuple(m * j for j in e): c for e, c in out[q].items()}
        out[k] = _imul(frob, out[r], m) if r else frob
    return out


def compose_chain(start: Sequence[MultiPoly], steps, bound=None):
    """steps[-1] o ... o steps[0] o start, each step a map given as its
    component term dicts over the ring of start: one step at a time on the
    left, on int forms, so start is lowered once and the result raised once.
    Over Q each partial product is divided by the content it shares with its
    denominator.

    None, before the step is built, when a step would build a monomial image
    of degree above bound.  For a triangular step (a u + P(v), a^-1 v + c)
    or an affine one, after a partial product of degree <= bound, that is
    exactly when the next partial product has degree above bound: a^-1 v + c
    and the affine combinations stay within it, and deg P(v) > deg u leaves
    nothing to cancel deg P(v) in a u + P(v)."""
    R, nv = start[0].ring, start[0].nvars
    ms, dens, flats = zip(*(_lower(R, p.terms) for p in start))
    m, cur = ms[0], list(zip(dens, flats))
    for step in steps:
        if bound is not None:
            degs = [max((sum(e[:nv]) for e in flat), default=0) for _, flat in cur]
            if any(sum(map(operator.mul, e, degs)) > bound for p in step for e in p):
                return None
        lowered = [_lower(R, p)[1:] for p in step]
        cur = [_reduced(m, den, acc) for den, acc in _compose_lowered(R, m, lowered, cur, nv)]
    return [MultiPoly(R, nv, _raise(R, m, den, flat), _clean=False) for den, flat in cur]


def iterate_chain(start: Sequence[MultiPoly], steps, count: int, keep: bool = False):
    """(degrees, last) of the iterates X_1 = start, X_(k+1) = S o X_k, k < count,
    for S = steps[-1] o ... o steps[0], steps as in compose_chain: degrees
    is [deg X_1, ..., deg X_count], counting the variables and not a Laurent
    t-exponent, and last is X_count as polynomials with keep, else None.

    start and the steps are lowered once, and each X_(k+1) is built from
    X_k one step at a time on int forms, as compose_chain walks, so no
    iterate is raised but the kept one.  X_count is the same map whichever
    steps S is cut into; the products are not: a step linear in x1 raises
    only the second argument to powers, where the whole map expanded raises
    both and multiplies them together.

    The degree of each component is carried from step to step
    (_top_degree) and read off its terms (_degree) only for start and where
    a step's top terms tie."""
    R, nv = start[0].ring, start[0].nvars
    ms, dens, flats = zip(*(_lower(R, p.terms) for p in start))
    m, cur = ms[0], list(zip(dens, flats))
    lowered = [[_lower(R, p)[1:] for p in step] for step in steps]
    degs = [_degree(flat, nv) for flat in flats]
    degrees = []
    for k in range(count):
        if k:
            for step in lowered:
                tops = [_top_degree(m, P, degs) for _, P in step]
                cur = [_reduced(m, den, acc)
                       for den, acc in _compose_lowered(R, m, step, cur, nv)]
                degs = [_degree(flat, nv) if d is None else d
                        for d, (_, flat) in zip(tops, cur)]
        degrees.append(max(degs))
    if not (keep and count):
        return degrees, None
    return degrees, [MultiPoly(R, nv, _raise(R, m, den, flat), _clean=False) for den, flat in cur]


def _degree(flat, nv):
    """The degree in the first nv exponent slots of an int form's terms, so
    not counting a Laurent t-exponent; MINUS_INF when it has none."""
    return max((sum(e[:nv]) for e in flat), default=MINUS_INF)


def _top_degree(m, P, degs):
    """deg p(args) for the int form P of p and arguments of degrees degs,
    or None when it cannot be told without the terms.  K[x] and
    K[t, 1/t][x] are integral domains, so the image of x^e has degree
    e . degs exactly; when one x^e of p has the largest e . degs and a
    coefficient nonzero mod m (over K[t, 1/t], several t-exponents of one
    x^e), every other image has a smaller degree and nothing cancels.  A
    tie may cancel, and a zero argument has no degree: None."""
    if any(d is MINUS_INF for d in degs):
        return None
    n, best, top = len(degs), -1, None
    for e, c in P.items():
        if not (c % m if m else c):
            continue
        d = sum(map(operator.mul, e, degs))
        if d > best:
            best, top = d, e[:n]
        elif d == best and e[:n] != top:
            top = None
    return None if top is None else best


def _reduced(m, den, flat):
    """The int form (den, flat) with its values in range(m) and no zeros, or,
    over Q (m = 0), divided by gcd(den, values)."""
    if m:
        return den, {e: r for e, v in flat.items() if (r := v % m)}
    flat = {e: v for e, v in flat.items() if v}
    g = math.gcd(den, *flat.values())
    if g == 1:
        return den, flat
    return den // g, {e: v // g for e, v in flat.items()}


def _lower(R, terms):
    """The int form (m, den, flat) of a term dict over F_p, Q or K[t, 1/t]
    with K one of those: flat holds ints, the terms are {e: v / den} mod m
    (m = p over F_p, 0 over Q), and a Laurent coefficient's t-exponent is
    one more slot at the end of e.  Over F_p the ints are the terms as they
    are, maybe outside range(p)."""
    if type(R) is LaurentRing:
        terms = {(*e, k): c for e, lc in terms.items() for k, c in lc.items()}
        R = R.base
    if type(R) is PrimeField:
        return R.p, 1, terms
    den = math.lcm(*(c.denominator for c in terms.values()))
    return 0, den, {e: c.numerator * (den // c.denominator) for e, c in terms.items()}


def _raise(R, m, den, flat):
    """The term dict over R of the int form (m, den, flat): one v % m or one
    Fraction(v, den) per nonzero term, Laurent terms regrouped by their
    x-exponents."""
    if m:
        flat = {e: r for e, v in flat.items() if (r := v % m)}
    else:
        flat = {e: Fraction(v, den) for e, v in flat.items() if v}
    if type(R) is not LaurentRing:
        return flat
    out = {}
    for e, c in flat.items():
        x = e[:-1]
        if x in out:
            out[x][e[-1]] = c
        else:
            out[x] = {e[-1]: c}
    return out


def _imul(a, b, m):
    """The product of two int term dicts, its values reduced mod m when
    m > 0 and none zero: the dict loop, accumulating then reducing once, or
    Kronecker packing from _PACK_MIN_PRODUCTS term products on."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) * len(b) >= _PACK_MIN_PRODUCTS:
        out = _kronecker(a, b, m)
        if out is not None:
            return out
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(operator.add, ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    if m:
        return {e: r for e, v in out.items() if (r := v % m)}
    return {e: v for e, v in out.items() if v}


def _kronecker(a, b, m):
    """The product of two int term dicts, reduced mod m, by Kronecker
    substitution, or None when the product's dense exponent box has too many
    slots.  Each slot of the box starts at the product's least exponent
    there, so negative exponents pack too.  A square (a is b) is transposed,
    slotted and packed once, and its packed integer multiplied by itself,
    which CPython's bignum multiply runs as a squaring.  The read-back walks
    the box in C (itertools.compress over the fields that are set), so a
    Python step is spent only on an occupied slot."""
    sq = a is b
    span_a = [(min(c), max(c)) for c in zip(*a)]
    span_b = span_a if sq else [(min(c), max(c)) for c in zip(*b)]
    widths = [ha - la + hb - lb + 1 for (la, ha), (lb, hb) in zip(span_a, span_b)]
    nslots = math.prod(widths)
    if nslots > _PACK_SLOTS_PER_PRODUCT * len(a) * len(b):
        return None
    strides = [math.prod(widths[i + 1:]) for i in range(len(widths))]
    slots_a = _slots(a, strides, sum(la * s for (la, _), s in zip(span_a, strides)))
    slots_b = slots_a if sq else _slots(b, strides,
                                        sum(lb * s for (lb, _), s in zip(span_b, strides)))
    grid = itertools.product(*(range(la + lb, la + lb + w)
                               for (la, _), (lb, _), w in zip(span_a, span_b, widths)))
    # one output field sums at most min(len(a), len(b)) term products
    n = min(len(a), len(b))
    if m:
        k = _field_bytes(n * (m - 1) ** 2)
        # reduced here: F_p terms may hold ints outside range(p)
        pa = _pack(zip(slots_a, map(m.__rmod__, a.values())), k, nslots)
        prod = pa * (pa if sq else _pack(zip(slots_b, map(m.__rmod__, b.values())), k, nslots))
        vals = _unpack(prod, k, nslots)
        return {e: r for e, v in zip(itertools.compress(grid, vals), filter(None, vals))
                if (r := v % m)}
    bound = n * max(map(abs, a.values())) * max(map(abs, b.values()))
    # fields hold values in [-half, half)
    k = _field_bytes(2 * bound + 1)
    half = 1 << (8 * k - 1)
    pa = _pack_signed(slots_a, a.values(), k, nslots)
    prod = pa * (pa if sq else _pack_signed(slots_b, b.values(), k, nslots))
    # value + half in every field, then its top bit flipped: each field
    # holds the value in two's complement, and an empty field is zero
    halves = int.from_bytes(half.to_bytes(k, "little") * nslots, "little")
    vals = _unpack((prod + halves) ^ halves, k, nslots, signed=True)
    return dict(zip(itertools.compress(grid, vals), filter(None, vals)))


def _field_bytes(bound):
    """Bytes in a field holding 0..bound: 1, 2, 4 or 8 when that suffices,
    so that an array typecode reads the fields."""
    k = (bound.bit_length() + 7) // 8 or 1
    return k if k > 8 else 1 << (k - 1).bit_length()


def _slots(terms, strides, off):
    """[e . strides - off for e in terms], unrolled for the 2- and 3-slot
    exponents of plane maps and their t-families; the last stride is 1."""
    if len(strides) == 2:
        s0 = strides[0]
        return [i * s0 + j - off for i, j in terms]
    if len(strides) == 3:
        s0, s1 = strides[0], strides[1]
        return [i * s0 + j * s1 + k - off for i, j, k in terms]
    return [sum(map(operator.mul, e, strides)) - off for e in terms]


def _pack(pairs, k, nslots):
    """sum(c * 256^(k * s)) over the pairs (s, c), every c in [0, 256^k)."""
    code = _ARRAY_CODES.get(k)
    if code is not None:
        buf = array(code, [0]) * nslots
        for s, c in pairs:
            buf[s] = c
        if sys.byteorder == "big":
            buf.byteswap()
    else:
        buf = bytearray(nslots * k)
        for s, c in pairs:
            buf[s * k:s * k + k] = c.to_bytes(k, "little")
    return int.from_bytes(buf, "little")


def _pack_signed(slots, values, k, nslots):
    """The packed ints of signed values: positive fields minus negative ones."""
    pos = ((s, c) for s, c in zip(slots, values) if c > 0)
    neg = ((s, -c) for s, c in zip(slots, values) if c < 0)
    return _pack(pos, k, nslots) - _pack(neg, k, nslots)


def _unpack(n, k, nslots, signed=False):
    """The nslots fields of k bytes of n >= 0, lowest first, as a sequence;
    signed reads each field in two's complement."""
    raw = n.to_bytes(nslots * k, "little")
    code = (_SIGNED_CODES if signed else _ARRAY_CODES).get(k)
    if code is not None:
        vals = array(code, raw)
        if sys.byteorder == "big":
            vals.byteswap()
        return vals
    mv = memoryview(raw)
    return [int.from_bytes(mv[o:o + k], "little", signed=signed)
            for o in range(0, nslots * k, k)]


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
