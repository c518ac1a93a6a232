"""F_p scalar routines that run in time polynomial in log p.

Each fast routine is checked against a brute-force scan of the field kept
here as the oracle: square roots, n-th roots, the eigenvalue chosen when an
affine factor is triangularized, the multiplicative order in normal_form,
and primality.  The smoke tests run the CLI over primes where a scan of the
field would not finish.
"""
import math
import random
import time

import pytest

from planeaut import (
    FieldExtensionRequiredError,
    JonquieresFactor,
    PrimeField,
    UnsupportedFieldError,
    factor_to_plane_aut,
    normal_form,
)
from planeaut import conjugacy, rings
from planeaut.amalgam import _triangularize_affine
from planeaut.cli import main
from planeaut.rings import is_prime
from conftest import rand_affine


def _trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


SMALL_PRIMES = [p for p in range(200) if _trial_division(p)]


def _scan_roots(p, n):
    """{a: [x in range(p) with x^n = a], ascending} by one pass over the field."""
    table = {}
    for x in range(p):
        table.setdefault(pow(x, n, p), []).append(x)
    return table


def _scan_eigenvalue(K, tr):
    """The first nonzero root of lam^2 - tr lam + 1 in ascending order, or None."""
    for lam in range(1, K.p):
        if (lam * lam - tr * lam + 1) % K.p == 0:
            return lam
    return None


def _scan_order(K, a):
    m, acc = 1, a
    while acc != 1:
        acc = acc * a % K.p
        m += 1
    return m


# -- sqrt and nth_roots ------------------------------------------------------

@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_sqrt_matches_scan(p):
    F = PrimeField(p)
    squares = _scan_roots(p, 2)
    for a in range(p):
        roots = squares.get(a)
        assert F.sqrt(a) == (roots[0] if roots else None), (p, a)


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_nth_roots_match_scan_in_order(p):
    F = PrimeField(p)
    for n in range(1, 13):
        table = _scan_roots(p, n)
        for a in range(p):
            assert F.nth_roots(a, n) == table.get(a, []), (p, a, n)


def test_roots_at_a_large_prime():
    p = 10**18 + 3
    F = PrimeField(p)
    roots = F.nth_roots(8, 3)
    assert roots == sorted(roots) and 2 in roots
    assert all(pow(x, 3, p) == 8 for x in roots)
    assert F.sqrt(4) == 2
    r = F.sqrt(5)
    assert r is None or (r * r % p == 5 and r <= p - r)


def test_nth_roots_rejects_nonpositive_exponent():
    with pytest.raises(ValueError):
        PrimeField(7).nth_roots(1, 0)


# p - 1 = 2^6 3, 2^8, 2^4 3^3, 2^6 3^2, 2^8 3: deep 2- and 3-Sylow subgroups
SMOOTH_PRIMES = [193, 257, 433, 577, 769]


@pytest.mark.parametrize("p", SMOOTH_PRIMES)
def test_nth_roots_match_scan_on_deep_sylow_subgroups(p):
    F = PrimeField(p)
    for n in (4, 8, 9, 16, 18, 27, 48, p - 1, 2 * (p - 1)):
        table = _scan_roots(p, n)
        for a in range(p):
            assert F.nth_roots(a, n) == table.get(a, []), (p, a, n)


@pytest.mark.parametrize("p", SMOOTH_PRIMES)
def test_sqrt_is_the_first_square_root(p):
    F = PrimeField(p)
    for a in range(p):
        roots = F.nth_roots(a, 2)
        assert F.sqrt(a) == (roots[0] if roots else None), (p, a)


# p - 1 = 2^4 3^3 5 463; 2 3^2 5^2 7 11 13 31 41 61 151 331 1321;
# 2 3 17 131 1427 52445056723
LARGE_PRIME_EXPONENTS = {
    1000081: [2, 8, 16, 32, 54, 81, 240, 720, 926],
    2**61 - 1: [2, 4, 18, 27, 50, 90, 450, 1321],
    10**18 + 3: [2, 6, 12, 34, 2854],
}


@pytest.mark.parametrize("p", sorted(LARGE_PRIME_EXPONENTS))
def test_nth_roots_at_large_primes(p):
    """a = y^n has exactly gcd(n, p - 1) roots, distinct, ascending, y among
    them; a non-residue has none; sqrt is the first root of x^2 = a."""
    F = PrimeField(p)
    rng = random.Random(p)
    for n in LARGE_PRIME_EXPONENTS[p]:
        g = math.gcd(n, p - 1)
        for _ in range(3):
            y = rng.randrange(1, p)
            a = pow(y, n, p)
            roots = F.nth_roots(a, n)
            assert len(roots) == g and y in roots, (n, y)
            assert all(u < v for u, v in zip(roots, roots[1:]))
            assert all(pow(x, n, p) == a for x in roots)
            if n == 2:
                assert F.sqrt(a) == roots[0]
        c = next(c for c in range(2, p) if pow(c, (p - 1) // g, p) != 1)
        assert F.nth_roots(c, n) == [], n
        if n == 2:
            assert F.sqrt(c) is None


def test_nth_roots_use_no_polynomial_arithmetic(monkeypatch):
    """The 240 roots of x^240 = 1 at p = 1000081 come from F_p^* alone: no
    product or division of polynomials, no Cantor-Zassenhaus split."""
    def refuse(*args):
        raise AssertionError("polynomial arithmetic in nth_roots")

    monkeypatch.setattr(rings, "up_mul", refuse)
    monkeypatch.setattr(rings, "up_divmod", refuse)
    monkeypatch.setattr(PrimeField, "_split_linear", refuse)
    p = 1000081
    start = time.perf_counter()
    roots = PrimeField(p).nth_roots(1, 240)
    elapsed = time.perf_counter() - start
    assert len(set(roots)) == 240 and roots == sorted(roots) and roots[0] == 1
    assert all(pow(x, 240, p) == 1 for x in roots)
    assert elapsed < 0.1


# -- the eigenvalue of _triangularize_affine ---------------------------------

@pytest.mark.parametrize("p", [3, 5, 7, 23, 101])
def test_triangularize_eigenvalue_matches_scan(p):
    K = PrimeField(p)
    rng = random.Random(7000 + p)
    seen = {"split": 0, "no root": 0}
    for _ in range(120):
        fac = rand_affine(rng, K)
        if K.is_zero(fac.c):
            continue
        lam = _scan_eigenvalue(K, K.add(fac.a, fac.d))
        if lam is None:
            seen["no root"] += 1
            with pytest.raises(FieldExtensionRequiredError):
                _triangularize_affine(fac)
            continue
        seen["split"] += 1
        new, g = _triangularize_affine(fac)
        assert new.a == lam and K.is_zero(new.c)
        assert g.compose(fac).compose(g.inverse()).to_endo() == new.to_endo()
    assert seen["split"] and seen["no root"]


# -- the order in normal_form ------------------------------------------------

_MULT_ORDER = conjugacy._mult_order


def _old_mult_order(ring, a, bound):
    """The order search with the former bound p - 1 over F_p."""
    return _MULT_ORDER(ring, a, ring.characteristic - 1)


def _family_i_iii_conjugate(rng, K):
    """h o (a x1 + P(x2), a^-1 x2) o h^-1 with a != 1; P's top exponent is
    often order(a) - 1, the largest exponent a bounded search must reach."""
    p = K.p
    gen = next(g for g in range(2, p) if _scan_order(K, g) == p - 1)
    if rng.random() < 0.6:
        k = rng.choice([k for k in range(2, 5) if (p - 1) % k == 0])
        unit = rng.choice([j for j in range(1, k) if math.gcd(j, k) == 1])
        a = pow(gen, (p - 1) // k * unit, p)
        top = k - 1 if rng.random() < 0.5 else rng.randrange(k - 1, 4)
    else:
        a = rng.randrange(2, p)
        top = rng.randrange(0, 4)
    P = {top: rng.randrange(1, p)}
    for n in range(top):
        if rng.random() < 0.5:
            P[n] = rng.randrange(1, p)
    rep = factor_to_plane_aut(JonquieresFactor(K, a, P))
    h = factor_to_plane_aut(rand_affine(rng, K))
    return h.compose(rep).compose(h.inverse())


@pytest.mark.parametrize("p", [5, 7, 13, 31, 101])
def test_normal_form_order_matches_full_scan(p, monkeypatch):
    K = PrimeField(p)
    # each pass builds its maps from the seed: a map keeps its normal form,
    # so the second pass must not see the first pass's maps
    def maps():
        rng = random.Random(9000 + p)
        return [_family_i_iii_conjugate(rng, K) for _ in range(20)]

    fast = [normal_form(f) for f in maps()]
    consulted = []

    def old_mult_order(ring, a, bound):
        consulted.append(a)
        return _old_mult_order(ring, a, bound)

    monkeypatch.setattr(conjugacy, "_mult_order", old_mult_order)
    slow = [normal_form(f) for f in maps()]
    assert len(consulted) == len(slow)
    families = set()
    for a, b in zip(fast, slow):
        families.add(a.family)
        assert (a.family, a.multiplier, a.order, a.P) == (b.family, b.multiplier, b.order, b.P)
        assert a.aut.fwd == b.aut.fwd and a.conjugator.fwd == b.conjugator.fwd
    assert families == {"I", "III"}


# -- is_prime ----------------------------------------------------------------

def test_is_prime_matches_trial_division():
    assert all(is_prime(n) == _trial_division(n) for n in range(-2, 10**5))


@pytest.mark.parametrize("n", [561, 2047, 41041, 3215031751, 10**18 + 3, 2**61 - 1])
def test_is_prime_on_pseudoprimes_and_large_primes(n):
    # 561 and 41041 are Carmichael numbers, 2047 a strong pseudoprime to
    # base 2, 3215031751 one to bases 2, 3, 5 and 7
    expected = n in (10**18 + 3, 2**61 - 1)
    assert is_prime(n) is expected


def test_is_prime_refuses_beyond_certified_bound():
    # the smallest strong pseudoprime to all 13 bases
    with pytest.raises(UnsupportedFieldError, match="too large to certify"):
        is_prime(3317044064679887385961981)
    assert is_prime(2 * 10**30) is False


# -- the CLI at large primes -------------------------------------------------

DIAG_MAP = "(x1 + x2 + 1, 170630*x1 + 170631*x2)"   # eigenvalues 777777, 392858

# outputs of the field-scanning implementation at p = 1000003
CLASSIFY_DIAG = """\
verdict: family I
family: I
multiplier: 392858
order: null
polynomial: null
representative: (392858*x1, 777777*x2)
conjugator: (541965*x1 + 50748*x2 + 508786, 829373*x1 + 222227*x2 + 392857)
check conjugation: true
"""
CONJ_DIAG = """\
verdict: yes
families: ["I", "I"]
reason: inverse multipliers, swapped by (x2, -x1)
conjugator: (829373*x1 + 222227*x2 + 392857, 458038*x1 + 949255*x2 + 491217)
check notes: ["normal forms I / I", "certificate verified by composition"]
check certificate: {"valid": true, "degrees": {"f": 1, "g": 1, "h": 1}, \
"square_bound": true, "linear_bound": true}
"""
CLASSIFY_SHEAR = """\
verdict: family II
family: II
multiplier: null
order: null
polynomial: 1*x2^2
representative: (x2^2 + x1, x2)
conjugator: (x1, x2)
check conjugation: true
"""

# x^240 = 1 at p = 1000081 (the family-II scalar system of x2^239): the
# root 1 gives the identity conjugator
CONJ_SHEAR_239 = """\
verdict: yes
families: ["II", "II"]
reason: scalar system solved in the base field
conjugator: (x1, x2)
check notes: ["normal forms II / II", "family-II solve: scalar system solved in the base field", \
"certificate verified by composition"]
check certificate: {"valid": true, "degrees": {"f": 239, "g": 239, "h": 1}, \
"square_bound": true, "linear_bound": true}
"""
# family III with z = 499501 of order 3 at p = 1000003: a^3 = 3 has the roots
# 50050, 950053, 999903, and the conjugator takes the smallest
CONJ_III_CUBE = """\
verdict: yes
families: ["III", "III"]
reason: diagonal scalar found in the base field
conjugator: (50050*x1, 664997*x2)
check notes: ["normal forms III / III", "power system over exponents [3]", \
"certificate verified by composition"]
check certificate: {"valid": true, "degrees": {"f": 2, "g": 2, "h": 1}, \
"square_bound": true, "linear_bound": true}
"""


@pytest.mark.parametrize("argv,expected", [
    (["classify", DIAG_MAP, "--field", "Fp:1000003"], CLASSIFY_DIAG),
    (["conj-test", DIAG_MAP, "(777777*x1, 392858*x2)", "--field", "Fp:1000003"], CONJ_DIAG),
    (["classify", "(x1 + x2^2, x2)", "--field", "Fp:1000000000000000003"], CLASSIFY_SHEAR),
    (["conj-test", "(x1 + x2^239, x2)", "(x1 + x2^239, x2)", "--field", "Fp:1000081"],
     CONJ_SHEAR_239),
    (["conj-test", "(499501*x1 + x2^2, 500501*x2)", "(499501*x1 + 3*x2^2, 500501*x2)",
      "--field", "Fp:1000003"], CONJ_III_CUBE),
], ids=["classify-diag", "conj-test-diag", "classify-shear-1e18", "conj-test-shear-239",
        "conj-test-iii-cube"])
def test_large_prime_cli(argv, expected, capsys):
    start = time.perf_counter()
    rc = main(argv)
    elapsed = time.perf_counter() - start
    assert rc == 0
    assert capsys.readouterr().out == expected
    assert elapsed < 2.0
