"""The F_p shift equations of families II and IV, solved by one gcd.

Q(x) = a P(a x + b) (family II when p divides the degree) and
N(P)(x + c) = N(Q)(x) (family IV) are decided from the roots of the gcd of
their x^j coefficients, and the period sum N comes from a closed form.  The
field scans these replaced are kept here as the oracles: the (a, b) scan of
family II, the shift scan of family IV on p-th powers taken by powering the
representative map, and N as a loop over the p shifts.  A scan meets the
smallest a, then the smallest b (the smallest c), so verdicts, certificates
and reasons must match, apart from the family-II `yes` reason.
"""
import math
import random
import time

import pytest

from planeaut import JonquieresFactor, PrimeField, factor_to_plane_aut
from planeaut.cli import main
from planeaut.conjugacy import (
    NormalForm,
    _compress,
    _decide_family_ii,
    _decide_family_iv,
    _kill_delta,
    n_map,
)
from planeaut.rings import MINUS_INF, up_add, up_deg, up_gcd_monic, up_scale, up_sub
from conftest import SEED, horner_compose

FIELDS = [PrimeField(p) for p in (2, 3, 5, 7)]


# -- the scans, as they stood before the gcd -----------------------------------

def _certified(ring, P, Q, a, b):
    return up_scale(ring, horner_compose(ring, P, {1: a, 0: b}), a) == Q


def _scan_family_ii(ring, P, Q):
    """The p | d branch of _decide_family_ii: every (a, b) in F_p* x F_p."""
    p = ring.characteristic
    for ai in range(1, p):
        a = ring.from_int(ai)
        for bi in range(p):
            b = ring.from_int(bi)
            if _certified(ring, P, Q, a, b):
                return ("yes", (a, b), "found by exhaustive scan")
    return ("unknown", None,
            "no conjugating pair over this field; extensions not examined")


def _pth_power_poly(nf):
    """P~ with rep^p = (x1 + P~(x2), x2), from the p-th power of the map."""
    ring = nf.ring
    c0, c1 = nf.aut.power(ring.characteristic).fwd.comps
    assert c1.terms == {(0, 1): ring.one}
    assert c0.terms.get((1, 0)) == ring.one
    return {e[1]: c for e, c in c0.terms.items() if e != (1, 0)}


def _shift_poly(ring, P, c):
    return horner_compose(ring, P, {1: ring.one, 0: c})


def _scan_family_iv(ring, nf_f, nf_g):
    """_decide_family_iv with its shift scan over F_p."""
    p = ring.characteristic
    Pt = _pth_power_poly(nf_f)
    Qt = _pth_power_poly(nf_g)
    if up_deg(ring, Pt) != up_deg(ring, Qt):
        return ("no", None, "p-th power degrees differ")
    for ci in range(p):
        c = ring.from_int(ci)
        if _shift_poly(ring, Pt, c) == Qt:
            return ("yes", c, f"shift c = {ring.to_str(c)} matches the p-th powers")
    degP = up_deg(ring, Pt)
    if degP is MINUS_INF:
        return ("no", None, "p-th powers differ and admit no shift")
    eqns = []
    for j in range(degP + 1):
        poly_c = {}
        for n, cn in Pt.items():
            if n < j:
                continue
            coeff = ring.mul(cn, ring.from_int(math.comb(n, j)))
            if not ring.is_zero(coeff):
                poly_c[n - j] = ring.add(poly_c.get(n - j, ring.zero), coeff)
        poly_c = {e: c for e, c in poly_c.items() if not ring.is_zero(c)}
        qj = Qt.get(j, ring.zero)
        if not ring.is_zero(qj):
            poly_c = up_sub(ring, poly_c, {0: qj})
        if poly_c:
            eqns.append(poly_c)
    if not eqns:
        return ("no", None, "p-th powers differ and admit no shift")
    g = eqns[0]
    for e in eqns[1:]:
        g = up_gcd_monic(ring, g, e)
        if up_deg(ring, g) == 0:
            break
    if up_deg(ring, g) == 0:
        return ("no", None, "no shift exists over any extension")
    return ("unknown", None, "a shift exists only over a field extension")


def _n_map_loop(ring, P):
    acc = {}
    for i in range(ring.characteristic):
        acc = up_add(ring, acc, horner_compose(ring, P, {1: ring.one, 0: ring.from_int(i)}))
    return acc


# -- seeded inputs -------------------------------------------------------------

def _poly(rng, K, deg, low=0):
    """A polynomial of exact degree deg with random lower terms."""
    P = {e: rng.randrange(K.p) for e in range(low, deg)}
    P[deg] = rng.randrange(1, K.p)
    return {e: c for e, c in P.items() if c}


def _iv_form(K, P):
    nf = NormalForm("IV", K, P=P)
    nf.aut = factor_to_plane_aut(JonquieresFactor(K, K.one, nf.expanded(), K.one))
    return nf


# -- family II, p | d ----------------------------------------------------------

@pytest.mark.parametrize("K", FIELDS, ids=repr)
def test_family_ii_matches_the_pair_scan(K):
    rng = random.Random(f"{SEED}/shift-ii/{K!r}")
    p = K.p
    verdicts = {"yes": 0, "unknown": 0}
    for i in range(80):
        d = p * rng.choice((1, 1, 2)) if p < 7 else p
        P = _poly(rng, K, d)
        if i % 2:
            a, b = rng.randrange(1, p), rng.randrange(p)
            Q = up_scale(K, horner_compose(K, P, {1: a, 0: b}), a)
        else:
            Q = _poly(rng, K, d, low=rng.randrange(2))
        got, want = _decide_family_ii(K, P, Q), _scan_family_ii(K, P, Q)
        assert got[:2] == want[:2], (P, Q)
        if got[0] == "yes":
            assert got[2] == "scalar and shift equations solved in the base field"
        else:
            assert got[2] == want[2]
        verdicts[got[0]] += 1
    assert verdicts["yes"] >= 40 and verdicts["unknown"] >= 5, verdicts


# -- family IV -----------------------------------------------------------------

def test_family_iv_matches_the_shift_scan():
    verdicts = {"yes": 0, "no": 0, "unknown": 0}
    for K in FIELDS:
        rng = random.Random(f"{SEED}/shift-iv/{K!r}")
        p = K.p
        for i in range(30):
            P = _poly(rng, K, rng.randrange(3))
            if i % 3 == 0:
                # Q~ the V-part of P~(x + c), whose period sum is N(P~)(x + c)
                shifted = horner_compose(K, _iv_form(K, P).expanded(), {1: 1, 0: rng.randrange(p)})
                Q = _compress(_kill_delta(K, shifted)[0], p)
            elif i % 3 == 1:
                Q = _poly(rng, K, max(P))
            else:
                Q = {e: c for e, c in P.items() if e}
                Q[0] = rng.randrange(1, p)
            nf_f, nf_g = _iv_form(K, P), _iv_form(K, Q)
            got, want = _decide_family_iv(K, nf_f, nf_g), _scan_family_iv(K, nf_f, nf_g)
            assert got == want, (K, P, Q)
            verdicts[got[0]] += 1
    assert min(verdicts.values()) >= 3, verdicts


# -- the period sum ------------------------------------------------------------

@pytest.mark.parametrize("K", FIELDS, ids=repr)
def test_n_map_matches_the_shift_loop(K):
    rng = random.Random(f"{SEED}/n-map/{K!r}")
    p = K.p
    for _ in range(80):
        P = {e: rng.randrange(1, p) for e in rng.sample(range(4 * p), rng.randrange(1, 5))}
        assert n_map(K, P) == _n_map_loop(K, P), P


def test_n_map_at_a_large_prime_is_fast():
    p = 1000003
    start = time.perf_counter()
    got = n_map(PrimeField(p), {p + 5: 1, 2 * p - 1: 3})
    assert time.perf_counter() - start < 1.0
    assert got == {p: p - 3, 1: 3}


# -- PrimeField.roots ----------------------------------------------------------

def _times_root(K, f, r, m):
    """f (x - r)^m."""
    for _ in range(m):
        f = up_sub(K, {e + 1: c for e, c in f.items()}, up_scale(K, f, r))
    return f


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_roots_match_a_field_scan(p):
    K = PrimeField(p)
    rng = random.Random(f"{SEED}/roots/{p}")
    vanishing = up_scale(K, {p: 1, 1: p - 1}, rng.randrange(1, p))
    cases = [{}, {0: 1}, {0: rng.randrange(1, p)}, {1: 1}, {3: 1, 1: 1},
             vanishing, up_add(K, vanishing, {0: 1}),
             {e + 1: c for e, c in vanishing.items()}]
    for _ in range(60):
        roots = rng.sample(range(p), rng.randrange(min(p, 4) + 1))
        f = {0: rng.randrange(1, p)}
        for r in roots:
            f = _times_root(K, f, r, rng.randrange(1, 3))
        cases.append(f)
        cases.append({e: rng.randrange(p) for e in rng.sample(range(3 * p), 3)})
    for f in cases:
        f = {e: c for e, c in f.items() if c}
        scan = [x for x in range(p)
                if sum(c * pow(x, e, p) for e, c in f.items()) % p == 0]
        assert list(K.roots(f)) == scan, (p, f)


# -- timed probes --------------------------------------------------------------

def test_family_ii_with_p_dividing_the_degree_is_fast(capsys):
    start = time.perf_counter()
    rc = main(["conj-test", "(x1 + x2^10007 + x2^2, x2)",
               "(x1 + 3*x2^10007 + 2*x2^2 + x2, x2)", "--field", "Fp:10007"])
    elapsed = time.perf_counter() - start
    assert rc == 0
    assert capsys.readouterr().out.startswith("verdict: unknown\n")
    assert elapsed < 5.0


def test_family_iv_shift_gcd_at_a_large_prime_is_fast():
    # the forms alone; test_up_shift.py times building such a map
    K = PrimeField(10007)
    nf_f, nf_g = NormalForm("IV", K, P={0: 1, 1: 2}), NormalForm("IV", K, P={0: 3, 1: 2})
    start = time.perf_counter()
    got = _decide_family_iv(K, nf_f, nf_g)
    assert time.perf_counter() - start < 1.0
    assert got[0] == "unknown"
