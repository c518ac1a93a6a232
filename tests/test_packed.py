"""The Kronecker-packed multiplication kernel against the ring-method dict loop.

MultiPoly.__mul__ packs large products over F_p and Q into one integer
(poly._kronecker on the int forms of poly._lower); the ring-method dict loop
conftest.ring_mul is the oracle.  Every case compares the terms dicts exactly
and checks that the packed result holds no zero coefficient.
"""
import math
import random
import time
from fractions import Fraction

import pytest

from conftest import ring_mul
from planeaut import LaurentRing, MultiPoly, PrimeField, RationalField, parse_automorphism
from planeaut import poly
from planeaut.poly import _PACK_MIN_PRODUCTS, _field_bytes, _kronecker, _lower, _raise

Q = RationalField()
F2 = PrimeField(2)
F5 = PrimeField(5)
F1000003 = PrimeField(1000003)
F_M61 = PrimeField(2 ** 61 - 1)
RINGS = [Q, F2, F5, F1000003, F_M61]


def rand_coeff(rng, K):
    if K is Q:
        num = rng.choice([rng.randint(-9, 9), rng.randint(-10 ** 30, 10 ** 30)]) or 1
        return Fraction(num, rng.choice([1, 1, 2, 3, 7, 10 ** 12 + 39]))
    return rng.randrange(1, K.p)


def rand_terms(rng, K, nvars, nterms, maxexp):
    return {tuple(rng.randint(0, maxexp) for _ in range(nvars)): rand_coeff(rng, K)
            for _ in range(nterms)}


def _mul_packed(K, a, b):
    """The product of two term dicts by Kronecker packing of their int forms,
    or None when the packed kernel declines them."""
    m, da, ia = _lower(K, a)
    _, db, ib = _lower(K, b)
    out = _kronecker(ia, ib, m)
    return None if out is None else _raise(K, m, da * db, out)


def assert_kernels_agree(K, nvars, a, b):
    """The packed kernel runs on a and b and agrees with the oracle."""
    packed = _mul_packed(K, a, b)
    assert packed is not None
    assert packed == ring_mul(K, a, b)
    assert not any(K.is_zero(c) for c in packed.values())
    assert (MultiPoly(K, nvars, a) * MultiPoly(K, nvars, b)).terms == packed


@pytest.mark.parametrize("K", RINGS, ids=repr)
@pytest.mark.parametrize("nvars,maxexp", [(1, 40), (2, 9), (3, 3)])
def test_random_products(K, nvars, maxexp):
    rng = random.Random(f"packed/{K!r}/{nvars}")
    for _ in range(6):
        a = rand_terms(rng, K, nvars, rng.randint(12, 40), maxexp)
        b = rand_terms(rng, K, nvars, rng.randint(12, 40), maxexp)
        assert_kernels_agree(K, nvars, a, b)


def test_narrow_and_wide_fields():
    # F2 products fit one byte per field; F_(2^61-1) needs more than eight,
    # which the packed kernel reads back through int.from_bytes
    assert _field_bytes(40 * (F2.p - 1) ** 2) == 1
    assert _field_bytes(40 * (F5.p - 1) ** 2) == 2
    assert _field_bytes(40 * (F1000003.p - 1) ** 2) == 8
    assert _field_bytes(40 * (F_M61.p - 1) ** 2) > 8


@pytest.mark.parametrize("K", RINGS, ids=repr)
def test_signs_and_sizes_of_coefficients(K):
    # all-negative, all-maximal and mixed-sign factors
    rng = random.Random(f"signs/{K!r}")
    top = K.neg(K.one)
    a = {(i, j): top for i in range(9) for j in range(9 - i)}
    b = {e: rand_coeff(rng, K) for e in a}
    assert_kernels_agree(K, 2, a, a)
    assert_kernels_agree(K, 2, a, b)
    assert_kernels_agree(K, 2, b, {e: K.neg(c) for e, c in b.items()})
    # in one variable the middle coefficient of a*a reaches the field bound
    for c in (top, K.from_int(-10 ** 30)):
        line = {(i,): c for i in range(150)}
        assert_kernels_agree(K, 1, line, line)


def test_inner_coefficients_cancel():
    # a nonzero product has a nonzero leading term, so at most the inner
    # coefficients can cancel: (x1 - 1) * sum x1^i = x1^n - 1
    n = 80
    for K in RINGS:
        geo = {(i,): K.one for i in range(n)}
        diff = {(1,): K.one, (0,): K.neg(K.one)}
        assert _mul_packed(K, diff, geo) == {(n,): K.one, (0,): K.neg(K.one)}
        assert_kernels_agree(K, 1, diff, geo)
    # over F5, (1 + x1 + x2)^12 * (1 + x1 + x2)^13 = 1 + x1^25 + x2^25: the
    # raw fields are nonzero multiples of 5 that reduce to zero
    lin = MultiPoly(F5, 2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
    a, b = (lin ** 12).terms, (lin ** 13).terms
    assert _mul_packed(F5, a, b) == {(0, 0): 1, (25, 0): 1, (0, 25): 1}
    assert_kernels_agree(F5, 2, a, b)


def test_unreduced_prime_field_ints():
    # ints outside range(p) are accepted as F_p coefficients
    a = {(i,): 9 for i in range(12)}
    b = {(i,): -i - 1 for i in range(12)}
    assert_kernels_agree(F5, 1, a, a)
    assert_kernels_agree(F5, 1, a, b)


@pytest.mark.parametrize("K", RINGS, ids=repr)
def test_single_term_and_zero_operands(K):
    rng = random.Random(f"single/{K!r}")
    big = {(i, j): rand_coeff(rng, K) for i in range(13) for j in range(13 - i)}
    for mono in ({(0, 0): rand_coeff(rng, K)}, {(3, 5): rand_coeff(rng, K)}):
        assert_kernels_agree(K, 2, mono, big)
        assert_kernels_agree(K, 2, big, mono)
    zero = MultiPoly.zero(K, 2)
    assert (zero * MultiPoly(K, 2, big)).terms == {}
    assert (MultiPoly(K, 2, big) * zero).terms == {}


def test_degree_128_henon_iterate_squared():
    f = parse_automorphism("(x2, -x1 + x2^2 + x2 + 2)", F5)
    g = f
    for _ in range(6):
        g = f.compose(g)
    c = g.comps[1]
    assert (c.degree, len(c.terms)) == (128, 2318)
    assert_kernels_agree(F5, 2, c.terms, c.terms)


@pytest.mark.parametrize("K", [Q, F5], ids=repr)
def test_sparse_huge_exponents_stay_on_dict_loop(K):
    rng = random.Random(f"sparse/{K!r}")
    a = {(10 ** 6 - rng.randrange(1000), rng.randrange(10 ** 6)): rand_coeff(rng, K)
         for _ in range(40)}
    b = {(rng.randrange(10 ** 6), 10 ** 6 - rng.randrange(1000)): rand_coeff(rng, K)
         for _ in range(40)}
    assert len(a) * len(b) >= _PACK_MIN_PRODUCTS
    start = time.perf_counter()
    assert _mul_packed(K, a, b) is None
    prod = MultiPoly(K, 2, a) * MultiPoly(K, 2, b)
    assert time.perf_counter() - start < 1.0
    assert prod.terms == ring_mul(K, a, b)


# -- the read-back walks only occupied slots ---------------------------------

def _box_slots(a, b):
    """The slots of the dense exponent box _kronecker packs a * b into."""
    cols_a, cols_b = list(zip(*a)), list(zip(*b))
    return math.prod(max(x) - min(x) + max(y) - min(y) + 1 for x, y in zip(cols_a, cols_b))


def _sparse_boxes(K):
    """Products whose box is less than a tenth full: a diagonal times a
    diagonal in two variables, a geometric series times (x1 - 1), and over
    F5 (1 + x1)^24 (1 + x1) = 1 + x1^25, whose inner fields reduce to 0."""
    rng = random.Random(f"sparse-box/{K!r}")
    diag = [{(i, i): rand_coeff(rng, K) for i in range(n)} for n in (8, 12)]
    geo = {(i,): K.one for i in range(40)}
    cases = [(diag[0], diag[0]), (diag[0], diag[1]), (geo, {(1,): K.one, (0,): K.neg(K.one)})]
    if K is F5:
        cases.append(((MultiPoly(K, 1, {(0,): 1, (1,): 1}) ** 24).terms, {(0,): 1, (1,): 1}))
    return cases


@pytest.mark.parametrize("K", RINGS, ids=repr)
def test_boxes_under_a_tenth_full(K):
    for a, b in _sparse_boxes(K):
        packed = _mul_packed(K, a, b)
        assert packed is not None and len(packed) < _box_slots(a, b) / 10
        assert_kernels_agree(K, len(next(iter(a))), a, b)


@pytest.fixture
def field_widths(monkeypatch):
    """The field width in bytes of every product _kronecker reads back; each
    read-back must be a sequence, as it is walked twice."""
    widths, unpack = set(), poly._unpack

    def spy(n, k, nslots, **signed):
        out = unpack(n, k, nslots, **signed)
        assert len(out) == nslots and list(out) == list(out)
        widths.add(k if k <= 8 else "wide")
        return out

    monkeypatch.setattr(poly, "_unpack", spy)
    return widths


def test_every_field_width_over_prime_fields(field_widths):
    """Fields of 1, 2, 4 and 8 bytes and wider, over F2, F5, F1009,
    F1000003 and F(2^61 - 1)."""
    rng = random.Random("widths/F_p")
    for K in (F2, F5, PrimeField(1009), F1000003, F_M61):
        for nvars, size in ((1, 30), (2, 6)):
            a = rand_terms(rng, K, nvars, 3 * size, size)
            b = rand_terms(rng, K, nvars, 3 * size, size)
            assert_kernels_agree(K, nvars, a, b)
    assert field_widths == {1, 2, 4, 8, "wide"}


def test_every_field_width_over_q_with_negative_values(field_widths):
    """Signed fields over Q, from one byte to wider than eight: integer
    coefficients of both signs up to 3, 30, 3000, 10^8 and 10^12."""
    rng = random.Random("widths/Q")
    for top in (3, 30, 3000, 10 ** 8, 10 ** 12):
        for nvars, size in ((1, 20), (2, 5)):
            a = {e: Fraction(rng.choice((-1, 1)) * rng.randint(1, top)) or 1
                 for e in rand_terms(rng, Q, nvars, 2 * size, size)}
            b = {e: Fraction(rng.choice((-1, 1)) * rng.randint(1, top))
                 for e in rand_terms(rng, Q, nvars, 2 * size, size)}
            assert min(a.values()) < 0 < max(a.values())
            assert_kernels_agree(Q, nvars, a, b)
    assert field_widths == {1, 2, 4, 8, "wide"}


@pytest.mark.parametrize("K", [Q, F5, F1000003], ids=repr)
def test_laurent_products_with_negative_t_slots(K, monkeypatch):
    """Products over K[t, 1/t] with t-exponents down to -6 pack, with the
    t-slot offset below zero, and agree with the ring-method loop."""
    rng = random.Random(f"laurent-slots/{K!r}")
    L = LaurentRing(K)
    packed, kronecker = [], poly._kronecker

    def spy(a, b, m):
        out = kronecker(a, b, m)
        packed.append(out is not None and min(e[-1] for e in a) < 0)
        return out

    monkeypatch.setattr(poly, "_kronecker", spy)
    for _ in range(4):
        a, b = ({(rng.randint(0, 2), rng.randint(0, 2)):
                 {rng.randint(lo, lo + 3): rand_coeff(rng, K) for _ in range(rng.randint(1, 3))}
                 for _ in range(10)} for lo in (-6, -2))
        assert (MultiPoly(L, 2, a) * MultiPoly(L, 2, b)).terms == ring_mul(L, a, b)
    assert packed and all(packed)
