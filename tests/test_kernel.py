"""Differential tests for the shared sparse-dict kernel, the one powering
routine and the sampling contract, each against the straightforward loop it
replaced."""
import itertools
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

import planeaut
from planeaut import (
    Endo,
    FunctionField,
    LaurentRing,
    MultiPoly,
    PlaneAut,
    PrimeField,
    RationalField,
    parse_automorphism,
    plane_aut_from_endo,
)
from planeaut.cli import _nonzero_samples
from planeaut.degeneration import _affine_samples
from planeaut.endo import _infinity_ladder
from planeaut.poly import compose_many
from planeaut.rings import power, up_mul, up_pow

Q = RationalField()
F3 = PrimeField(3)
F5 = PrimeField(5)


def _repeated(x, n, mul, one):
    out = one
    for _ in range(n):
        out = mul(out, x)
    return out


def _poly(ring, src):
    return parse_automorphism(f"({src}, x2)", ring).comps[0]


L3 = LaurentRing(F3)
FF5 = FunctionField(F5)
# name -> (pow under test, mul, one, base)
POWERS = {
    "Q": (lambda x, n: power(x, n, Q.mul, Q.one), Q.mul, Q.one, Fraction(-3, 2)),
    "F5": (lambda x, n: power(x, n, F5.mul, F5.one), F5.mul, F5.one, 3),
    "Laurent(F3)": (L3.pow, L3.mul, L3.one, {-1: 2, 0: 1, 2: 1}),
    "FunctionField(F5)": (FF5.pow, FF5.mul, FF5.one, ({1: 1, 0: 2}, {2: 1, 0: 3})),
    "up_pow(Q)": (lambda x, n: up_pow(Q, x, n), lambda a, b: up_mul(Q, a, b),
                  {0: Q.one}, {0: Fraction(1, 2), 1: Fraction(-2), 3: Fraction(1)}),
    "MultiPoly(Q)": (lambda x, n: x ** n, lambda a, b: a * b,
                     MultiPoly.const(Q, 2, Q.one), _poly(Q, "1/2*x1 - x2^2 + 3")),
    "MultiPoly(F5)": (lambda x, n: x ** n, lambda a, b: a * b,
                      MultiPoly.const(F5, 2, F5.one), _poly(F5, "2*x1*x2 + x2 + 4")),
}


@pytest.mark.parametrize("name", sorted(POWERS))
def test_power_matches_repeated_multiplication(name):
    pow_, mul, one, x = POWERS[name]
    for n in range(10):
        assert pow_(x, n) == _repeated(x, n, mul, one), n


def test_power_skips_the_last_squaring():
    calls = []

    def mul(a, b):
        calls.append((a, b))
        return a * b

    for n in range(1, 40):
        calls.clear()
        assert power(3, n, mul, 1) == 3 ** n
        assert len(calls) == (n.bit_length() - 1) + bin(n).count("1")


def _linear_power(f, m):
    if m < 0:
        f, m = f.inverse(), -m
    out = PlaneAut.identity(f.ring)
    for _ in range(m):
        out = f.compose(out)
    return out


@pytest.mark.parametrize("src,ring", [("(x2, -x1 + x2^2 + 1)", Q),
                                      ("(x2, -x1 + 2*x2^2 + x2)", F5),
                                      ("(2*x1 + x2^2, 1/2*x2)", Q)])
def test_plane_aut_power_matches_linear_compose(src, ring):
    f = plane_aut_from_endo(parse_automorphism(src, ring))
    for m in range(-3, 5):
        got, want = f.power(m), _linear_power(f, m)
        assert got.fwd == want.fwd and got.inv == want.inv, m


def _ladder_compose(f, args):
    """Substitution by a linear ladder of argument powers, summed term by term."""
    R, nv = f.ring, args[0].nvars
    maxexp = [max((e[i] for e in f.terms), default=0) for i in range(f.nvars)]
    powers = []
    for i, a in enumerate(args):
        ps = [MultiPoly.const(R, nv, R.one)]
        for _ in range(maxexp[i]):
            ps.append(ps[-1] * a)
        powers.append(ps)
    acc = MultiPoly.zero(R, nv)
    for e, c in f.terms.items():
        term = MultiPoly.const(R, nv, c)
        for i, k in enumerate(e):
            if k:
                term = term * powers[i][k]
        acc = acc + term
    return acc


def _gapped_poly(rng, ring, nvars, coeff, exps, nterms):
    terms = {tuple(rng.choice(exps) for _ in range(nvars)): coeff(rng)
             for _ in range(rng.randint(1, nterms))}
    return MultiPoly(ring, nvars, terms)


COEFFS = {
    "Q": (Q, lambda rng: Fraction(rng.randint(-5, 5), rng.randint(1, 3))),
    "F5": (F5, lambda rng: rng.randrange(5)),
    "Laurent(F3)": (L3, lambda rng: {rng.randint(-2, 2): rng.randint(1, 2)}),
}


@pytest.mark.parametrize("name", sorted(COEFFS))
@pytest.mark.parametrize("nvars", [2, 3])
def test_compose_matches_ladder(name, nvars):
    ring, coeff = COEFFS[name]
    rng = random.Random(f"compose/{name}/{nvars}")
    for _ in range(8):
        # exponents with gaps in the substituted polynomials, small arguments
        polys = [_gapped_poly(rng, ring, nvars, coeff, (0, 1, 3, 4, 9), 6)
                 for _ in range(nvars)]
        args = [_gapped_poly(rng, ring, nvars, coeff, (0, 1, 2), 3) for _ in range(nvars)]
        args[0] = args[0] + MultiPoly.variable(ring, nvars, 0)
        want = [_ladder_compose(f, args) for f in polys]
        assert [f.compose(args) for f in polys] == want
        assert compose_many(polys, args) == want
        assert Endo(polys).compose(Endo(args)) == Endo(want)


def test_only_prime_fields_are_finite():
    assert PrimeField(7).is_finite
    for ring in (Q, LaurentRing(F5), FunctionField(F5), FunctionField(Q)):
        assert not ring.is_finite


def test_finite_sample_stream_stops_after_each_element():
    assert list(PrimeField(7).sample_stream()) == list(range(7))
    assert list(itertools.islice(Q.sample_stream(), 4)) == [0, 1, 2, 3]


def test_infinity_ladder_over_q_and_fp():
    q = list(itertools.islice(_infinity_ladder(Q), 5))
    assert q == [(1, Fraction(u)) for u in range(5)]
    assert list(_infinity_ladder(F3)) == [(1, 0), (1, 1), (1, 2), (0, 1)]


def test_nonzero_samples_over_q_and_fp():
    assert _nonzero_samples(Q, 3) == [1, 2, 3]
    assert _nonzero_samples(PrimeField(2), 3) == [1]
    assert _nonzero_samples(F5, 3) == [1, 2, 3]


def _full_enumeration_samples(elements, n, cap):
    return list(itertools.islice(itertools.product(elements, repeat=n), cap))


@pytest.mark.parametrize("p", [2, 5, 7, 23, 1000003])
def test_affine_samples_match_full_enumeration(p):
    K = PrimeField(p)
    elements = [K.from_int(i) for i in range(p)]
    for n in (1, 2, 3):
        for cap in (1, 4, 25, 100):
            got = list(_affine_samples(K, n, cap))
            assert got == _full_enumeration_samples(elements, n, cap), (n, cap)


def test_readme_entry_points_import_from_the_package():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    table = readme.split("Main entry points", 1)[1].split("\n\n", 2)[1]
    rows = [line for line in table.splitlines() if line.startswith("|")][2:]
    names = [name for row in rows for name in re.findall(r"`(\w+)`", row.split("|")[2])]
    assert len(names) >= 25
    missing = [name for name in names if not hasattr(planeaut, name)]
    assert not missing
