"""The one univariate substitution P(a x + b) against the Horner oracle.

rings.up_shift sums the binomial expansion of each term over the binomials
that rings.binomials lists as nonzero in the ring's characteristic (Lucas in
char p).  The Horner substitution it replaced, conftest.horner_compose, is
the oracle; binomials is checked against math.comb mod p.  The two timed
probes at p = 10007 are the cases the dense expansion made slow: building a
family-IV representative and certifying a family-II `yes` when p divides
the degree.
"""
import math
import random
import time
from fractions import Fraction

import pytest

from planeaut import JonquieresFactor, LaurentRing, PrimeField, RationalField
from planeaut import factor_to_plane_aut
from planeaut.conjugacy import _decide_family_ii
from planeaut.rings import binomials, up_scale, up_shift
from conftest import SEED, horner_compose

Q = RationalField()
F5 = PrimeField(5)
L3 = LaurentRing(PrimeField(3))
RINGS = [Q, PrimeField(2), PrimeField(3), F5, PrimeField(7), PrimeField(10007), L3]


def _value(rng, K, nonzero=False):
    """A seeded ring value, nonzero on request."""
    while True:
        if K is Q:
            v = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7)))
        elif isinstance(K, PrimeField):
            v = rng.randrange(K.p)
        else:
            v = {e: c for e, c in ((e, rng.randrange(3)) for e in range(-1, 2)) if c}
        if not (nonzero and K.is_zero(v)):
            return v


def _poly(rng, K, exps):
    P = {e: _value(rng, K) for e in exps}
    return {e: c for e, c in P.items() if not K.is_zero(c)}


def _cases(rng, K):
    """(P, a, b): the zero polynomial, b = 0, a = 1, a != 1, dense and sparse
    P, and for a small characteristic exponents past p and p^2."""
    p = K.characteristic
    top = 3 * p * p if 0 < p < 20 else 24
    out = [({}, _value(rng, K, True), _value(rng, K, True)),
           (_poly(rng, K, range(6)), K.one, K.zero),
           (_poly(rng, K, range(6)), _value(rng, K, True), K.zero)]
    for _ in range(12):
        exps = rng.sample(range(top), rng.randint(1, 6))
        a = K.one if rng.random() < 0.3 else _value(rng, K, True)
        b = K.zero if rng.random() < 0.2 else _value(rng, K)
        out.append((_poly(rng, K, exps), a, b))
    return out


@pytest.mark.parametrize("K", RINGS, ids=repr)
def test_up_shift_matches_horner(K):
    rng = random.Random(f"{SEED}/up-shift/{K!r}")
    for P, a, b in _cases(rng, K):
        want = horner_compose(K, P, {1: a} if K.is_zero(b) else {1: a, 0: b})
        assert up_shift(K, P, a, b) == want, (P, a, b)


def test_up_shift_with_b_zero_keeps_huge_exponents_sparse():
    # over Q only a = -1 keeps the coefficient of x^(10^8) small
    for K, a in ((Q, Fraction(-1)), (F5, 3), (PrimeField(10007), 17)):
        P = {10 ** 8: K.one, 10 ** 8 - 3: K.from_int(2), 5: K.one}
        got = up_shift(K, P, a, K.zero)
        assert got == horner_compose(K, P, {1: a})
        assert set(got) == set(P)


def test_up_shift_over_k_t_gives_the_shift_equations():
    """P(a x + t) over K[t]: its x^j coefficient, as a polynomial in t,
    evaluates at t = b to the x^j coefficient of P(a x + b)."""
    K = PrimeField(7)
    rng = random.Random(f"{SEED}/up-shift/equations")
    L = LaurentRing(K)
    for _ in range(10):
        P = _poly(rng, K, rng.sample(range(60), 4))
        a = rng.randrange(1, 7)
        eqns = up_shift(L, {e: {0: c} for e, c in P.items()}, {0: a}, L.t)
        for b in range(7):
            at_b = {j: L.specialize(c, b) for j, c in eqns.items()}
            assert {j: c for j, c in at_b.items() if c} == up_shift(K, P, a, b)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_binomials_match_math_comb(p):
    for n in range(p ** 3):
        want = {j: math.comb(n, j) % p for j in range(n + 1)}
        assert binomials(n, p) == {j: c for j, c in want.items() if c}, n


def test_binomials_in_characteristic_zero_are_the_whole_row():
    for n in (0, 1, 7, 40):
        assert binomials(n, 0) == {j: math.comb(n, j) for j in range(n + 1)}


def test_binomials_digit_row_near_p_is_fast():
    p = 100003
    start = time.perf_counter()
    row = binomials(p - 1, p)
    assert time.perf_counter() - start < 1.0
    # C(p - 1, j) = (-1)^j mod p
    assert len(row) == p and all(c == (1 if j % 2 == 0 else p - 1) for j, c in row.items())


# -- timed probes at p = 10007 -------------------------------------------------

def test_family_iv_representative_builds_fast():
    p = 10007
    K = PrimeField(p)
    start = time.perf_counter()
    f = factor_to_plane_aut(JonquieresFactor(K, K.one, {p - 1: 1, 2 * p - 1: 2}, K.one))
    assert time.perf_counter() - start < 5.0
    assert f.inv.comps[1].terms == {(0, 1): 1, (0, 0): p - 1}
    assert f.jac == 1


def test_family_ii_yes_with_p_dividing_the_degree_is_fast():
    p = 10007
    K = PrimeField(p)
    P = {p: 1, 2: 1}
    Q = up_scale(K, up_shift(K, P, 2, 1), 2)
    start = time.perf_counter()
    got = _decide_family_ii(K, P, Q)
    assert time.perf_counter() - start < 5.0
    assert got[:2] == ("yes", (2, 1))
