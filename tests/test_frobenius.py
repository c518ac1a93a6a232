"""Powers of int forms in characteristic p (poly._powers): from k >= p on,
a^k is the Frobenius relabelling of a^(k div p) times a^(k mod p), checked
against ring-method products (conftest.ring_power) and against the gap
chain that builds every power below p, with the products counted."""

import random

import pytest

from conftest import ring_compose_many, ring_power
from planeaut import LaurentRing, MultiPoly, PrimeField
from planeaut import poly
from planeaut.poly import _lower, _powers, compose_chain, compose_many
from planeaut.rings import power

F2, F3, F5, F7 = (PrimeField(p) for p in (2, 3, 5, 7))
FIELDS = [F2, F3, F5, F7]
RINGS = FIELDS + [LaurentRing(K) for K in FIELDS]


def _value(rng, K, tterms=2):
    """A nonzero value of K as an int outside range(p) half of the time,
    negative or >= p; over K[t, 1/t] 1 to tterms terms with t-exponents in
    -3..2."""
    if isinstance(K, LaurentRing):
        return {rng.randint(-3, 2): _value(rng, K.base) for _ in range(rng.randint(1, tterms))}
    v = rng.randrange(1, K.p)
    return v + K.p * rng.choice([0, 0, -2, -1, 1, 3])


def _poly(rng, R, nterms, maxexp, tterms=2):
    return MultiPoly(R, 2, {(rng.randint(0, maxexp), rng.randint(0, maxexp)):
                            _value(rng, R, tterms) for _ in range(nterms)})


def _exponents(p):
    """p - 1, p, p + 1, p^2 - 1, p^2, p^3, and exponents with mixed base-p
    digits: some digits zero, some p - 1, several levels deep."""
    return [p - 1, p, p + 1, p * p - 1, p * p, p ** 3,
            (p - 1) * p + 1, (p - 1) * p * p + 1, p ** 3 + p - 1, 2 * p ** 3 + p + 1]


@pytest.mark.parametrize("R", RINGS, ids=repr)
def test_powers_match_ring_products(R):
    rng = random.Random(f"frobenius-powers/{R!r}")
    p = R.characteristic
    for k in _exponents(p):
        # three terms below p^2 give products that collide; from p^2 on two
        # terms, and from p^3 on one t-term per coefficient, keep the
        # ring-method oracle small
        a = _poly(rng, R, 3 if k < p * p else 2, 2, 1 if k >= p ** 3 else 2)
        assert (a ** k).terms == ring_power(R, 2, a.terms, k), k


@pytest.mark.parametrize("K", FIELDS, ids=repr)
def test_unreduced_int_forms_power_like_their_residues(K):
    """_powers on an int form whose values lie outside range(p), both
    negative and >= p, one of them a multiple of p, equals the powers of its
    residues: c^p = c mod p holds for every int c."""
    rng = random.Random(f"frobenius-unreduced/{K!r}")
    p = K.p
    # three residues up to p^2 + p, two up to p^3 + p
    for a, top in (({(1, 0): -1, (0, 1): p + 1, (2, 1): -3 * p + 2, (1, 1): 2 * p}, p * p + p),
                   ({(1, 0): -p - 1, (0, 2): 2 * p - 1, (1, 1): -p}, p ** 3 + p)):
        residues = {e: v % p for e, v in a.items() if v % p}
        ks = set(rng.sample(range(1, top), min(6, top - 1))) | {p, p * p + 1}
        table = _powers(a, ks, p, {(0, 0): 1})
        assert ks <= set(table)
        for k in ks:
            got = {e: v % p for e, v in table[k].items() if v % p}
            assert got == ring_power(K, 2, residues, k), k


def _gap_chain(a, ks, m, one):
    """The argument table _compose_lowered built before the Frobenius
    branch: ascending exponents, each the previous power times a raised to
    the gap."""
    mul = lambda x, y: poly._imul(x, y, m)
    table, gaps, prev, last = {}, {1: a}, None, 0
    for k in sorted(ks):
        g = k - last
        if g not in gaps:
            gaps[g] = power(a, g, mul, one)
        prev = gaps[g] if prev is None else mul(prev, gaps[g])
        table[k] = prev
        last = k
    return table


@pytest.mark.parametrize("R", RINGS, ids=repr)
def test_tables_spanning_p_match_the_gap_chain(R):
    rng = random.Random(f"frobenius-table/{R!r}")
    p = R.characteristic
    args = [_poly(rng, R, 3, 2) for _ in range(2)]
    # exponents on both sides of p, p^2 and 2p, so the table takes both branches
    ks = {1, 2, p - 1, p, p + 1, 2 * p + 1, p * p, p * p + p - 1}
    for arg in args:
        m, _, a = _lower(R, arg.terms)
        one = {(0,) * len(next(iter(a))): 1}
        got, want = _powers(a, ks, m, one), _gap_chain(a, ks, m, one)
        for k in ks:
            assert ({e: v % m for e, v in got[k].items() if v % m}
                    == {e: v % m for e, v in want[k].items() if v % m}), k
    P = MultiPoly(R, 2, {(k, j): _value(rng, R) for k, j in
                         ((0, p + 1), (p, 1), (p * p, 0), (2, p - 1), (1, 0))})
    assert compose_many([P], args)[0].terms == ring_compose_many([P], args)[0].terms


@pytest.mark.parametrize("R", RINGS, ids=repr)
def test_frobenius_powers_make_no_product(R, imul_spy):
    """a ** p^j and the image of x1^q, q = p^j, under a step relabel
    exponents only: no _imul call."""
    rng = random.Random(f"frobenius-spy/{R!r}")
    p = R.characteristic
    a = _poly(rng, R, 4, 3)
    args = [_poly(rng, R, 4, 2) for _ in range(2)]
    images = []
    for j in (1, 2, 3):
        q = p ** j
        a ** q
        images.append((q, compose_many([MultiPoly(R, 2, {(q, 0): R.one})], args)[0],
                       compose_chain(args, [[{(q, 0): R.one, (0, 1): R.one}, {(1, 0): R.one}]])))
    assert imul_spy["calls"] == 0
    for q, image, (first, second) in images:
        assert image == args[0] ** q and first == image + args[1] and second == args[0] ** 1
    # a power with a nonzero digit below p multiplies
    a ** (p + 1)
    assert imul_spy["calls"] >= 1
