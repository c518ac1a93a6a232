"""The three workloads: seeded task lists with their expected answers.

Each workload interleaves its strata in a fixed cycle, so any run-length
prefix of the task list holds the same mix.  Why each workload exists:

dynamics  few, large multiplications: iterates of regular (Henon-type)
          words up to degree 128, where MultiPoly multiplication dominates.
decide    many small multiplications and Fraction arithmetic spread over
          every layer: the full classify / decide / degenerate pipeline on
          conjugates of known family I-IV representatives.
largep    the same pipeline over primes near 10^6, where root finding and
          order scans in the rings layer dominate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from gen import (
    ONE,
    X1,
    X2,
    Field,
    Jonq,
    conjugate,
    map_text,
    normalize_point,
    pdegree,
    rand_affine,
    rand_jonq,
    rand_poly1,
    word_map,
)


@dataclass
class DynTask:
    """degree_sequence(f, k) must be [d, d^2, ..., d^k]; f is regular."""
    stratum: str
    field: str
    f: str
    k: int
    d: int


@dataclass
class ConjTask:
    """The classify / decide / degenerate pipeline with its known answers."""
    stratum: str
    field: str
    f: str
    g: str
    degree: int               # deg f, from the independent expansion
    family: str               # "I" .. "IV" or "Henon"
    multipliers: tuple        # accepted normal-form multipliers (text), I and III
    order: int                # root-of-unity order for III, else 0
    henon_degrees: tuple      # cyclic Jonquieres degrees for Henon maps
    verdict: str              # decide_conjugacy(f, g)
    alpha: str                # a t-family with a pole at t = 0
    x_points: tuple           # its X_alpha, as point text


# -- dynamics ------------------------------------------------------------------

def _regular_word(rng, K, deg, shape):
    """A Henon-type word: its affine factor lies outside SJ, which keeps
    iterates reduced, so deg f^k = deg^k."""
    A = rand_affine(rng, K)
    J = rand_jonq(rng, K, deg)
    return [A, J] if shape == "AJ" else [J, A]


def _quadratic_henon(rng, K):
    """(x2, -x1 + a x2^2 + c) with a, c nonzero, which keeps iterates dense."""
    a = K.scalar(rng, nonzero=True)
    c = K.scalar(rng, nonzero=True)
    return ({X2: K.one}, {X1: K.neg(K.one), (0, 2): a, ONE: c})


# (stratum, field characteristic, shape, factor degree, iterates).  The two
# deep tasks in ten are the same stratum, so p90 falls inside it.
DYNAMICS_CYCLE = (
    ("q2-small", 0, "AJ", 2, 5),
    ("f5d2-small", 5, "AJ", 2, 6),
    ("f5-henon-deep", 5, "henon", 2, 7),
    ("f5d3-small", 5, "AJ", 3, 4),
    ("q2-mid", 0, "JA", 2, 5),
    ("q-henon", 0, "henon", 2, 5),
    ("f5d2-small", 5, "AJ", 2, 6),
    ("f5-henon-deep", 5, "henon", 2, 7),
    ("f5d3-small", 5, "AJ", 3, 4),
    ("f5d2-mid", 5, "JA", 2, 6),
)


def dynamics(seed: int, n: int):
    rng = random.Random(f"dynamics/{seed}")
    out = []
    for i in range(n):
        stratum, p, shape, deg, k = DYNAMICS_CYCLE[i % len(DYNAMICS_CYCLE)]
        K = Field(p)
        if shape == "henon":
            m = _quadratic_henon(rng, K)
        else:
            m = word_map(K, _regular_word(rng, K, deg, shape))
        out.append(DynTask(stratum, K.name, map_text(K, m), k, deg))
    return out


# -- the classify / decide / degenerate pipeline ------------------------------

@dataclass(frozen=True)
class Stratum:
    """The shape of one kind of conjugacy task; only coefficients are random."""
    name: str
    p: int                  # 0 for Q
    family: str             # "I" .. "IV" or "Henon"
    verdict: str            # of decide_conjugacy(f, g)
    conj_f: str = "AJ"      # conjugator shapes, see _conjugator
    conj_g: str = "AJ"
    deg: int = 0            # II: deg P; III and IV: deg of the compressed P
    order: int = 2          # III: order of the root of unity
    swap: bool = False      # I, yes: g has the inverse multiplier


def rep_I(K, a):
    return Jonq(a, {}, K.zero)


def rep_II(K, P):
    return Jonq(K.one, P, K.zero)


def rep_III(K, z, m, P):
    return Jonq(z, {m - 1 + m * k: c for k, c in P.items()}, K.zero)


def rep_IV(K, P):
    p = K.p
    return Jonq(K.one, {p - 1 + p * k: c for k, c in P.items()} if p else {}, K.one)


def _alpha(rng, K):
    """A o (t^k x1, t^-k x2): X_alpha is the single point [0:b:d]."""
    A = rand_affine(rng, K)
    k = rng.choice((1, 2))
    first = [f"{str(A.a)}*t^{k}*x1", f"{str(A.b)}*t^-{k}*x2", str(A.e)]
    second = [f"{str(A.c)}*t^{k}*x1", f"{str(A.d)}*t^-{k}*x2", str(A.f)]
    if A.d == 0:
        del second[1]
    text = "(" + ", ".join(" + ".join(f"({t})" for t in comp) for comp in (first, second)) + ")"
    return text, (normalize_point(K, A.b, A.d),)


def _conjugator(rng, K, shape):
    """A factor word h; affine only (A, or triangular At) over large primes."""
    if shape == "A":
        return [rand_affine(rng, K)]
    if shape == "At":
        return [rand_affine(rng, K, triangular=True)]
    if shape == "AJ":
        return [rand_affine(rng, K), rand_jonq(rng, K, 2)]
    if shape == "JA":
        return [rand_jonq(rng, K, 2), rand_affine(rng, K)]
    raise ValueError(shape)


def _primitive_root(rng, K):
    """A generator of F_p^* from the top tenth of the field."""
    p = K.p
    n, factors, q = p - 1, set(), 2
    while q * q <= n:
        while n % q == 0:
            factors.add(q)
            n //= q
        q += 1
    if n > 1:
        factors.add(n)
    while True:
        a = rng.randrange(p * 9 // 10, p - 1)
        if all(pow(a, (p - 1) // q, p) != 1 for q in factors):
            return a


def _unit(rng, K, exclude):
    """A multiplier outside exclude.  Over a large prime it is a primitive
    root whose inverse, like itself, lies in the top tenth of F_p: every order
    scan then runs p - 1 steps and every eigenvalue scan, which stops at the
    smaller of the two, at least 0.9 p."""
    while True:
        if K.p in LARGE_PRIMES:
            a = _primitive_root(rng, K)
            if min(a, K.inv(a)) < 0.9 * K.p:
                continue
        else:
            a = K.scalar(rng, nonzero=True)
        if a not in exclude:
            return a


def _root_of_unity(rng, K, m):
    """z with z^m = 1 and no smaller power 1."""
    p = K.p
    if p == 0:
        assert m == 2
        return K.neg(K.one)
    while True:
        z = pow(rng.randrange(2, p), (p - 1) // m, p)
        if all(pow(z, m // q, p) != 1 for q in (2, 3) if m % q == 0):
            return z


def _pair(rng, K, s):
    """(rep_f, rep_g, accepted multipliers) for a pair with a known verdict."""
    one = K.one
    if s.family == "I":
        a = _unit(rng, K, (one,))
        if s.verdict == "no":
            b = _unit(rng, K, (one, a, K.inv(a)))
        else:
            b = K.inv(a) if s.swap else a
        return rep_I(K, a), rep_I(K, b), (str(a), str(K.inv(a)))
    if s.family == "II":
        if s.verdict == "unknown":
            # x2^3 against 2 x2^3: needs a^4 = 2, which has no root in Q or
            # F5; over F3 the exhaustive scan finds no pair either
            c = K.scalar(rng, nonzero=True)
            return rep_II(K, {3: c}), rep_II(K, {3: K.mul(K.norm(2), c)}), ()
        P = rand_poly1(rng, K, s.deg, low=1)
        if s.verdict == "yes":
            return rep_II(K, P), rep_II(K, P), ()
        return rep_II(K, P), rep_II(K, rand_poly1(rng, K, s.deg + 1, low=1)), ()
    if s.family == "III":
        z = _root_of_unity(rng, K, s.order)
        rep = rep_III(K, z, s.order, rand_poly1(rng, K, s.deg))
        mults = (str(z), str(K.inv(z)))
        if s.verdict == "yes":
            return rep, rep, mults
        return rep, rep_II(K, rand_poly1(rng, K, 2, low=1)), mults
    if s.family == "IV":
        rep = rep_IV(K, rand_poly1(rng, K, s.deg) if K.p else {})
        if s.verdict == "yes":
            return rep, rep, ()
        return rep, rep_II(K, rand_poly1(rng, K, 2, low=1)), ()
    raise ValueError(s.family)


def _conj_task(rng, s):
    K = Field(s.p)
    alpha, points = _alpha(rng, K)
    if s.family == "Henon":
        dg = 3 if s.verdict == "no" else 2
        f = word_map(K, _regular_word(rng, K, 2, "AJ"))
        g = word_map(K, _regular_word(rng, K, dg, "AJ"))
        return ConjTask(s.name, K.name, map_text(K, f), map_text(K, g), 2, "Henon",
                        (), 0, (2,), s.verdict, alpha, points)
    rf, rg, mults = _pair(rng, K, s)
    f = conjugate(K, _conjugator(rng, K, s.conj_f), rf.to_map(K))
    g = conjugate(K, _conjugator(rng, K, s.conj_g), rg.to_map(K))
    return ConjTask(s.name, K.name, map_text(K, f), map_text(K, g),
                    max(pdegree(f[0]), pdegree(f[1])), s.family, mults,
                    s.order if s.family == "III" else 0, (), s.verdict, alpha, points)


S = Stratum
# The dense degree-8 stratum costs about a third of the whole cycle, so it
# appears once in 32 tasks.
DECIDE_CYCLE = (
    S("q-I", 0, "I", "yes"),
    S("f5-II", 5, "II", "yes", deg=2),
    S("f3-III", 3, "III", "yes", deg=0),
    S("f2-IV", 2, "IV", "yes", deg=1),
    S("q-II-unknown", 0, "II", "unknown"),
    S("f5-I-no", 5, "I", "no"),
    S("q-deg8", 0, "II", "yes", "JA", "AJ", deg=2),
    S("f3-II-no", 3, "II", "no", deg=2),
    S("q-III", 0, "III", "yes", deg=1),
    S("f5-IV", 5, "IV", "yes", deg=0),
    S("f5-henon-no", 5, "Henon", "no"),
    S("q-henon-unknown", 0, "Henon", "unknown"),
    S("f2-II", 2, "II", "yes", deg=3),
    S("f5-II-unknown", 5, "II", "unknown"),
    S("q-IV", 0, "IV", "yes"),
    S("f5-III-no", 5, "III", "no", deg=0, order=4),
    S("f3-I", 3, "I", "yes"),
    S("q-II-no", 0, "II", "no", deg=2),
    S("f5-III", 5, "III", "yes", deg=0, order=4),
    S("f3-IV", 3, "IV", "yes", deg=1),
    S("q-II-unknown", 0, "II", "unknown"),
    S("f5-I-swap", 5, "I", "yes", swap=True),
    S("q-I-no", 0, "I", "no"),
    S("f3-III-no", 3, "III", "no", deg=1),
    S("q-III-0", 0, "III", "yes", deg=0),
    S("f2-IV-no", 2, "IV", "no", deg=0),
    S("q-henon-no", 0, "Henon", "no"),
    S("f3-henon-unknown", 3, "Henon", "unknown"),
    S("f5-II-no", 5, "II", "no", deg=3),
    S("f3-II-unknown", 3, "II", "unknown"),
    S("q-I", 0, "I", "yes"),
    S("f2-II-no", 2, "II", "no", deg=2),
)

LARGE_PRIMES = (1000003, 999983)
P1, P2 = LARGE_PRIMES
# Family I multipliers make every order and eigenvalue scan run nearly the
# whole field (see _unit); the diagonalizable maps add eigenvalue scans to
# the order scans of the large-order ones.  The shares
# 10/10/40/40 (cheapest first) put the median inside the large-order
# stratum and p90 inside the diagonalizable one.
LARGEP_CYCLE = (
    S("large-order", P2, "I", "no", "At", "At"),
    S("diag-sl2", P1, "I", "yes", "A", "A"),
    S("II", P2, "II", "yes", "A", "A", deg=2),
    S("large-order", P1, "I", "yes", "At", "At"),
    S("diag-sl2", P2, "I", "yes", "A", "A", swap=True),
    S("large-order", P2, "I", "yes", "At", "At", swap=True),
    S("diag-sl2", P1, "I", "no", "A", "A"),
    S("III", P1, "III", "yes", "A", "A", deg=0, order=3),
    S("large-order", P1, "I", "no", "At", "At"),
    S("diag-sl2", P2, "I", "yes", "A", "A"),
)


def decide(seed: int, n: int):
    rng = random.Random(f"decide/{seed}")
    return [_conj_task(rng, DECIDE_CYCLE[i % len(DECIDE_CYCLE)]) for i in range(n)]


def largep(seed: int, n: int):
    rng = random.Random(f"largep/{seed}")
    return [_conj_task(rng, LARGEP_CYCLE[i % len(LARGEP_CYCLE)]) for i in range(n)]


WORKLOADS = {"dynamics": dynamics, "decide": decide, "largep": largep}
CYCLES = {"dynamics": DYNAMICS_CYCLE, "decide": DECIDE_CYCLE, "largep": LARGEP_CYCLE}
