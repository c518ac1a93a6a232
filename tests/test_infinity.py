"""The two points at infinity, read exactly off the top forms a1, a2:
I_f as the root of gcd(a1, a2) = c (u - r)^m, X_f as the [0:c1:c2] with
c2 a1 = c1 a2.  Checked against the sampled image point kept in conftest
(sampled_image_at_infinity), I_f against the sampled X of the inverse, and
regularity against f o f composed in full."""
import random

import pytest

from planeaut import (
    AmalgamWord,
    InfinityPoint,
    LaurentRing,
    NotInvertibleError,
    PrimeField,
    RationalField,
    UnsupportedFieldError,
    image_point_at_infinity,
    indeterminacy_point,
    is_dynamically_regular,
    parse_automorphism,
)

from conftest import (
    compose_is_dynamically_regular,
    rand_affine,
    rand_jonquieres,
    sampled_image_at_infinity,
)

Q = RationalField()
F5 = PrimeField(5)
FIELDS = [Q, PrimeField(2), PrimeField(3), F5, PrimeField(7), PrimeField(1000003)]


def _seeded_maps(K, count, seed):
    """count plane automorphisms of degree >= 2 over K from seeded words:
    A J A^-1 (algebraic, triangular degree 2 to 5, so p | m over F2, F3 and
    F5), A J A' and A J A' J' (regular unless A' A or A' is triangular,
    degrees up to 5 and 6), with generic affine factors and random
    Jacobians."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        shape = rng.randrange(3)
        if shape < 2:
            a = rand_affine(rng, K)
            facs = [a, rand_jonquieres(rng, K, rng.choice((2, 3, 4, 5))),
                    a.inverse() if shape == 0 else rand_affine(rng, K)]
        else:
            d1, d2 = rng.choice(((2, 2), (2, 3), (3, 2)))
            facs = [rand_affine(rng, K), rand_jonquieres(rng, K, d1),
                    rand_affine(rng, K), rand_jonquieres(rng, K, d2)]
        f = AmalgamWord(K, facs).to_plane_aut()
        if f.degree >= 2:
            out.append(f)
    return out


@pytest.mark.parametrize("K", FIELDS, ids=repr)
def test_points_at_infinity_match_the_sampled_oracle(K):
    maps = _seeded_maps(K, 350, 2200 + (K.characteristic or 0))
    regular = 0
    for f in maps:
        x = image_point_at_infinity(f)
        assert x == sampled_image_at_infinity(f), str(f)
        assert indeterminacy_point(f) == sampled_image_at_infinity(f.inv), str(f)
        reg = is_dynamically_regular(f)
        assert reg == compose_is_dynamically_regular(f), str(f)
        assert reg == (x != indeterminacy_point(f))
        regular += reg
    assert 0 < regular < len(maps)


@pytest.mark.parametrize("K", [Q, F5], ids=repr)
def test_line_contracted_to_two_points_is_refused(K):
    e = parse_automorphism("(x1^3, x1*x2^2 - x1^2*x2)", K)
    assert indeterminacy_point(e) == InfinityPoint.normalize(K, (K.zero, K.one))
    with pytest.raises(NotInvertibleError, match="not contracted to a single point"):
        image_point_at_infinity(e)


@pytest.mark.parametrize("K", [Q, F5, PrimeField(2)], ids=repr)
def test_two_common_zeros_are_several_points(K):
    e = parse_automorphism("(x2^2 - x1*x2, 2*x2^2 - 2*x1*x2)", K)
    with pytest.raises(NotInvertibleError, match="several points at infinity"):
        indeterminacy_point(e)


def test_multiplicity_divisible_by_p_over_laurent_is_refused():
    """a1 = x2^5 + t x1^5 = (x2 - r x1)^5 with r^5 = -t: r is no Laurent
    polynomial, as 5 does not divide the exponent of t."""
    e = parse_automorphism("(x2^5 + t*x1^5 + x1, x2)", F5)
    assert isinstance(e.ring, LaurentRing)
    with pytest.raises(UnsupportedFieldError):
        indeterminacy_point(e)


@pytest.mark.parametrize("K,src,root", [
    (F5, "(x2^5 + t^5*x1^5 + x1, x2)", {1: 4}),
    (F5, "(x2^25 + t^50*x1^25 + x1, x2)", {2: 4}),
    (F5, "(x2^5 + (t^5 + t^-5)*x1^5 + x1, x2)", {1: 4, -1: 4}),
    (PrimeField(3), "(x2^6 + t^3*x1^3*x2^3 + t^6*x1^6 + x1, x2)", {1: 1}),
], ids=["F5-m5", "F5-m25", "F5-two-terms", "F3-m6"])
def test_multiplicity_divisible_by_p_over_laurent_takes_the_root(K, src, root):
    """a1 = (x2 - r x1)^m with p | m and r a Laurent polynomial: r is the
    p^s-th root of r^(p^s), every exponent of t divided by p^s, and the
    top form vanishes at I_f = [0:1:r]."""
    e = parse_automorphism(src, K)
    L = e.ring
    pt = indeterminacy_point(e)
    assert pt == InfinityPoint.normalize(L, (L.one, root))
    assert e.highest_part().comps[0].evaluate(pt.coords) == L.zero

