"""The Kronecker-packed multiplication kernel against the dict loop.

MultiPoly.__mul__ packs large products over F_p and Q into one integer; its
schoolbook dict loop, run with packing switched off, is the oracle.  Every
case compares the two terms dicts exactly and checks that the packed result
holds no zero coefficient.
"""
import math
import random
import time
from fractions import Fraction
from unittest import mock

import pytest

from planeaut import MultiPoly, PrimeField, RationalField, parse_automorphism, poly
from planeaut.poly import _PACK_MIN_PRODUCTS, _field_bytes, _mul_packed

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


def _mul_dict(K, nvars, a, b):
    """The product by MultiPoly.__mul__'s dict loop."""
    with mock.patch.object(poly, "_PACK_MIN_PRODUCTS", math.inf):
        return (MultiPoly(K, nvars, a) * MultiPoly(K, nvars, b)).terms


def assert_kernels_agree(K, nvars, a, b):
    """The packed kernel runs on a and b, and both kernels give one dict."""
    packed = _mul_packed(K, nvars, a, b)
    assert packed is not None
    assert packed == _mul_dict(K, nvars, a, b)
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
        assert _mul_packed(K, 1, diff, geo) == {(n,): K.one, (0,): K.neg(K.one)}
        assert_kernels_agree(K, 1, diff, geo)
    # over F5, (1 + x1 + x2)^12 * (1 + x1 + x2)^13 = 1 + x1^25 + x2^25: the
    # raw fields are nonzero multiples of 5 that reduce to zero
    lin = MultiPoly(F5, 2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
    a, b = (lin ** 12).terms, (lin ** 13).terms
    assert _mul_packed(F5, 2, a, b) == {(0, 0): 1, (25, 0): 1, (0, 25): 1}
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
    assert _mul_packed(K, 2, a, b) is None
    prod = MultiPoly(K, 2, a) * MultiPoly(K, 2, b)
    assert time.perf_counter() - start < 1.0
    assert prod.terms == _mul_dict(K, 2, a, b)
