"""The int kernel of poly.py against the ring-method oracles.

MultiPoly.__mul__, __pow__ and compose_many lower a polynomial over F_p, Q
or K[t, 1/t] to int term dicts (poly._lower), work on ints and raise the
result once (poly._raise).  conftest.ring_mul and conftest.ring_compose_many,
the dict loop and composition on the ring's own add and mul, are the
oracles; every case compares the terms dicts exactly.
"""
import collections
import math
import random
import time
from fractions import Fraction
from unittest import mock

import pytest

from conftest import ring_compose_many, ring_mul
from planeaut import (
    Endo,
    LaurentRing,
    MultiPoly,
    PlaneAut,
    PrimeField,
    RationalField,
    poly,
    rings,
)
from planeaut.poly import (
    _PACK_MIN_PRODUCTS,
    _kronecker,
    _lower,
    _raise,
    compose_chain,
    compose_many,
)

Q = RationalField()
F2, F5 = PrimeField(2), PrimeField(5)
F1000003, F_M61 = PrimeField(1000003), PrimeField(2 ** 61 - 1)
BASES = [Q, F2, F5, F1000003, F_M61]
RINGS = BASES + [LaurentRing(Q), LaurentRing(F5), LaurentRing(F1000003)]


def base_coeff(rng, K):
    """A nonzero value of K: over Q numerators up to 10^30 and denominators
    up to 10^12 + 39; over F_p ints in range(-3p, 3p) that are not multiples
    of p, so also outside range(p)."""
    if K == Q:
        num = rng.choice([rng.randint(-9, 9), rng.randint(-10 ** 30, 10 ** 30)]) or 1
        return Fraction(num, rng.choice([1, 1, 2, 3, 7, 10 ** 12 + 39]))
    return rng.randrange(1, K.p) + K.p * rng.randint(-3, 2)


def coeff(rng, R):
    """A value of R; Laurent values have 1-3 terms with t-exponents in -4..3."""
    if isinstance(R, LaurentRing):
        return {rng.randint(-4, 3): base_coeff(rng, R.base) for _ in range(rng.randint(1, 3))}
    return base_coeff(rng, R)


def rand_terms(rng, R, nvars, nterms, maxexp):
    return {tuple(rng.randint(0, maxexp) for _ in range(nvars)): coeff(rng, R)
            for _ in range(nterms)}


def rand_poly(rng, R, nvars, nterms, maxexp):
    return MultiPoly(R, nvars, rand_terms(rng, R, nvars, nterms, maxexp))


def assert_reduced(p):
    """No zero value, F_p values in range(p), Laurent values without zero entries."""
    R = p.ring
    base = R.base if isinstance(R, LaurentRing) else R
    for c in p.terms.values():
        for v in (c.values() if isinstance(R, LaurentRing) else [c]):
            assert not base.is_zero(v)
            if isinstance(base, PrimeField):
                assert 0 < v < base.p


@pytest.mark.parametrize("R", RINGS, ids=repr)
@pytest.mark.parametrize("nvars,maxexp", [(1, 12), (2, 4), (3, 2)])
def test_products_match_the_ring_loop(R, nvars, maxexp):
    rng = random.Random(f"imul/{R!r}/{nvars}")
    # term products below and above _PACK_MIN_PRODUCTS, and the int dict
    # loop alone on the larger ones
    for na, nb in ((1, 1), (1, 5), (3, 4), (6, 9), (12, 14)):
        a, b = (rand_poly(rng, R, nvars, n, maxexp) for n in (na, nb))
        got = a * b
        assert got.terms == ring_mul(R, a.terms, b.terms)
        assert_reduced(got)
        with mock.patch.object(poly, "_PACK_MIN_PRODUCTS", math.inf):
            assert (a * b).terms == got.terms


@pytest.mark.parametrize("R", RINGS, ids=repr)
def test_powers_match_the_ring_loop(R):
    rng = random.Random(f"ipow/{R!r}")
    a = rand_poly(rng, R, 2, 4, 2)
    want = {(0, 0): R.one}
    for n in range(6):
        assert (a ** n).terms == want, n
        want = ring_mul(R, want, a.terms)


@pytest.mark.parametrize("R", RINGS, ids=repr)
def test_squares_match_the_ring_loop(R, monkeypatch):
    """_imul(a, a, m), the square rings.power and the argument tables ask
    for, on the dict loop and packed: over Q with fields wider than 8 bytes,
    over F_p up to p = 2^61 - 1, and over K[t, 1/t] with negative
    t-exponents."""
    rng = random.Random(f"isquare/{R!r}")
    unpack, widths = poly._unpack, set()

    def spy(n, k, nslots, **signed):
        widths.add(k)
        return unpack(n, k, nslots, **signed)

    monkeypatch.setattr(poly, "_unpack", spy)
    for nvars, n, maxexp in ((1, 3, 6), (1, 12, 20), (2, 10, 4), (2, 30, 6), (3, 12, 2)):
        terms = rand_terms(rng, R, nvars, n, maxexp)
        m, den, a = _lower(R, terms)
        assert _raise(R, m, den * den, poly._imul(a, a, m)) == ring_mul(R, terms, terms)
        if isinstance(R, LaurentRing):
            assert min(e[-1] for e in a) < 0
    assert widths
    if R == Q:
        assert max(widths) > 8


def _counted(monkeypatch, names):
    """A Counter of the calls of each named function of poly.py."""
    calls = collections.Counter()
    for name in names:
        def spy(*args, _name=name, _inner=getattr(poly, name), **kw):
            calls[_name] += 1
            return _inner(*args, **kw)

        monkeypatch.setattr(poly, name, spy)
    return calls


@pytest.mark.parametrize("R", [Q, F5], ids=repr)
def test_a_square_packs_once(R, monkeypatch):
    """A square's terms are slotted and packed once; the same terms in a
    second dict are packed again, as any other product."""
    rng = random.Random(f"packonce/{R!r}")
    m, _, a = _lower(R, rand_terms(rng, R, 2, 12, 4))
    calls = _counted(monkeypatch, ["_slots", "_pack", "_pack_signed"])
    square = _kronecker(a, a, m)
    once = dict(calls)
    calls.clear()
    assert _kronecker(a, dict(a), m) == square
    assert {name: 2 * n for name, n in once.items()} == calls
    assert once == ({"_slots": 1, "_pack_signed": 1, "_pack": 2} if R == Q
                    else {"_slots": 1, "_pack": 1})


@pytest.mark.parametrize("R", RINGS, ids=repr)
@pytest.mark.parametrize("nvars,nv", [(1, 1), (2, 2), (3, 3), (1, 3), (3, 2)])
def test_compositions_match_the_ring_composition(R, nvars, nv):
    rng = random.Random(f"icompose/{R!r}/{nvars}/{nv}")
    for _ in range(3):
        polys = [rand_poly(rng, R, nvars, rng.randint(1, 6), 3) for _ in range(2)]
        args = [rand_poly(rng, R, nv, rng.randint(1, 4), 2) for _ in range(nvars)]
        got = compose_many(polys, args)
        assert got == ring_compose_many(polys, args)
        for g in got:
            assert_reduced(g)


@pytest.mark.parametrize("R", RINGS, ids=repr)
def test_chains_match_one_composition_per_step(R):
    """compose_chain keeps int forms between the steps, and over Q divides
    out the content each partial product shares with its denominator: the
    result is compose_many step by step, and a bound below the largest
    monomial image a step builds gives None."""
    rng = random.Random(f"ichain/{R!r}")
    for _ in range(4):
        start = [rand_poly(rng, R, 2, rng.randint(1, 4), 1) for _ in range(2)]
        steps = [[rand_terms(rng, R, 2, rng.randint(1, 3), 1) for _ in range(2)]
                 for _ in range(rng.randint(1, 3))]
        want, built = start, []
        for step in steps:
            degs = [max(p.degree, 0) for p in want]
            built.append(max(e[0] * degs[0] + e[1] * degs[1] for p in step for e in p))
            want = compose_many([MultiPoly(R, 2, p) for p in step], want)
        got = compose_chain(start, steps)
        assert got == want
        for g in got:
            assert_reduced(g)
        assert compose_chain(start, steps, max(built)) == want
        assert compose_chain(start, steps, max(built) - 1) is None


@pytest.mark.parametrize("R", [Q, F2, F1000003, LaurentRing(Q), LaurentRing(F5)], ids=repr)
def test_every_ring_lowers_to_an_int_form(R):
    """MultiPoly has no ring-method path: _lower takes every ring, gives
    ints (the t-exponent as one more slot) and _raise gives the terms back."""
    rng = random.Random(f"lower/{R!r}")
    # R.add reduces F_p values into range(p)
    p = MultiPoly(R, 2, {e: R.add(R.zero, c) for e, c in rand_terms(rng, R, 2, 6, 3).items()})
    m, den, flat = _lower(R, p.terms)
    base = R.base if isinstance(R, LaurentRing) else R
    assert m == (base.p if isinstance(base, PrimeField) else 0)
    assert type(den) is int and den >= 1
    assert all(type(v) is int for v in flat.values())
    assert all(len(e) == 2 + isinstance(R, LaurentRing) for e in flat)
    assert MultiPoly(R, 2, _raise(R, m, den, flat)) == p


@pytest.mark.parametrize("R", RINGS, ids=repr)
def test_cancellation_to_zero(R):
    rng = random.Random(f"cancel/{R!r}")
    g = rand_poly(rng, R, 2, 5, 3)
    x1, x2 = (MultiPoly.variable(R, 2, i) for i in range(2))
    # x1 - x2 at (g, g) is 0, and so is x1^3 x2 - x1 x2^3
    for p in (x1 - x2, x1 ** 3 * x2 - x1 * x2 ** 3):
        assert compose_many([p], [g, g])[0].terms == {}
        assert ring_compose_many([p], [g, g])[0].terms == {}
    assert (g * MultiPoly.zero(R, 2)).terms == {}
    if not isinstance(R, PrimeField):
        return
    # ints that are multiples of p are zero in F_p
    zero_mod_p = MultiPoly(R, 2, {(1, 0): R.p, (0, 2): -2 * R.p})
    assert (zero_mod_p * g).terms == {} == ring_mul(R, zero_mod_p.terms, g.terms)
    big = MultiPoly(R, 2, {(i, j): R.p * (i + 1) for i in range(9) for j in range(9)})
    assert (big * big).terms == {}
    assert compose_many([big], [g, g])[0].terms == {}


@pytest.mark.parametrize("R", [Q, F5, F_M61, LaurentRing(Q), LaurentRing(F5)], ids=repr)
def test_sparse_huge_exponents_stay_off_the_packed_path(R):
    rng = random.Random(f"ihuge/{R!r}")
    a = {(10 ** 6 - rng.randrange(1000), rng.randrange(10 ** 6)): coeff(rng, R)
         for _ in range(40)}
    b = {(rng.randrange(10 ** 6), 10 ** 6 - rng.randrange(1000)): coeff(rng, R)
         for _ in range(40)}
    assert len(a) * len(b) >= _PACK_MIN_PRODUCTS
    start = time.perf_counter()
    m, _, ia = _lower(R, a)
    assert _kronecker(ia, _lower(R, b)[2], m) is None
    prod = MultiPoly(R, 2, a) * MultiPoly(R, 2, b)
    # a huge power of a sparse argument: x1^(10^6) + x2^3 at (c x1^3, x2),
    # c = 2 t^-5 over K[t, 1/t]
    one = R.one
    p = MultiPoly(R, 2, {(10 ** 6, 0): one, (0, 3): one})
    arg = MultiPoly(R, 2, {(3, 0): {-5: 2} if isinstance(R, LaurentRing) else R.from_int(2)})
    composed = compose_many([p], [arg, MultiPoly.variable(R, 2, 1)])[0]
    assert time.perf_counter() - start < 1.0
    assert prod.terms == ring_mul(R, a, b)
    assert composed == ring_compose_many([p], [arg, MultiPoly.variable(R, 2, 1)])[0]
    assert composed.degree == 3 * 10 ** 6


def test_negative_valuations_pack_with_an_offset():
    # products whose every t-exponent is negative, large enough to pack
    rng = random.Random("offset")
    for R in (LaurentRing(Q), LaurentRing(F5)):
        a = {(i, j): {-20 - rng.randrange(5): base_coeff(rng, R.base)}
             for i in range(8) for j in range(8 - i)}
        m, _, ia = _lower(R, a)
        assert _kronecker(ia, ia, m) is not None
        got = MultiPoly(R, 2, a) * MultiPoly(R, 2, a)
        assert got.terms == ring_mul(R, a, a)
        assert min(k for c in got.terms.values() for k in c) < -40


def test_one_fraction_per_output_term_and_no_fraction_arithmetic():
    made = []

    class Counting(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(1)
            return super().__new__(cls, *args, **kwargs)

    def no_arithmetic(*args):
        raise AssertionError("Fraction arithmetic in the int kernel")

    rng = random.Random("fractions")
    a, b = (rand_poly(rng, Q, 2, 9, 3) for _ in range(2))
    args = [rand_poly(rng, Q, 2, 3, 2) for _ in range(2)]
    want_mul = ring_mul(Q, a.terms, b.terms)
    want_compose = ring_compose_many([a, b], args)
    ops = ["__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
           "__truediv__", "__rtruediv__", "__pow__"]
    with mock.patch.object(poly, "Fraction", Counting), \
            mock.patch.multiple(Fraction, **{op: no_arithmetic for op in ops}):
        prod = a * b
        n_mul = len(made)
        composed = compose_many([a, b], args)
        n_compose = len(made) - n_mul
    assert prod.terms == want_mul
    assert 0 < n_mul <= len(prod.terms)
    assert composed == want_compose
    assert 0 < n_compose <= sum(len(c.terms) for c in composed)


def test_laurent_products_and_family_compositions_skip_up_mul():
    def refuse(*args):
        raise AssertionError("a Laurent value multiplied by up_mul")

    L = LaurentRing(F5)
    x1, x2 = (MultiPoly.variable(L, 2, i) for i in range(2))
    t, tinv = MultiPoly.const(L, 2, {1: 1}), MultiPoly.const(L, 2, {-1: 1})
    f = PlaneAut(Endo([x1 + t * x2 ** 2, x2]), Endo([x1 - t * x2 ** 2, x2]))
    g = PlaneAut(Endo([tinv * x1, t * x2 + x1 ** 3]), Endo([t * x1, tinv * x2 - t ** 2 * x1 ** 3]))
    a, b = (x1 + tinv) ** 3, t * x2 - x1 ** 2
    want_mul = ring_mul(L, a.terms, b.terms)
    want_compose = ring_compose_many(f.fwd.comps, g.fwd.comps)
    with mock.patch.object(rings, "up_mul", refuse):
        prod = a * b
        fg, fg_inv = f.fwd.compose(g.fwd), g.inv.compose(f.inv)
    assert prod.terms == want_mul
    assert list(fg.comps) == want_compose
    ident = Endo.identity(L, 2)
    assert fg.compose(fg_inv) == ident
