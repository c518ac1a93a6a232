"""The Jung-van der Kulk descent, one stage per affine move.

amalgam._reduction_ops reads each stage's affine move off the component
degrees and subtracts the stage's whole triangular part as one elementary
factor.  The per-monomial descent it replaced, conftest.monomial_reduction_ops,
which took the move from the image point at infinity, is the oracle: the
factor word and the inverse that plane_aut_from_endo builds must not change.
"""
import random

import pytest

import planeaut.amalgam
from planeaut import (
    AffineFactor,
    AmalgamWord,
    Endo,
    MultiPoly,
    NotInvertibleError,
    PrimeField,
    RationalField,
    parse_automorphism,
    plane_aut_from_endo,
)
from planeaut.amalgam import _factor, _reduction_ops
from planeaut.cli import main
from conftest import SEED, monomial_reduction_ops, rand_affine, rand_jonquieres, rand_scalar

FIELDS = [RationalField()] + [PrimeField(p) for p in (2, 3, 5, 7)]
MAPS_PER_FIELD = 64


def _sample_map(rng, K):
    """A word of 1-4 alternating factors, triangular ones of degree 2 (or 3
    over F_p, where coefficients stay small), affine ones sometimes turned by
    (x2, -x1) so that every move occurs, then scaled by (c x1, x2) or
    (x1, c x2) on either side for a Jacobian c != 1 where the field has one."""
    facs = []
    tag = rng.choice("AJ")
    for _ in range(rng.randint(1, 4)):
        if tag == "A":
            fac = rand_affine(rng, K)
            if rng.random() < 0.3:
                fac = AffineFactor.rotation(K).compose(fac)
        else:
            fac = rand_jonquieres(rng, K, rng.choice((2, 2, 3) if K.characteristic else (2,)))
        facs.append(fac)
        tag = "J" if tag == "A" else "A"
    e = AmalgamWord(K, facs).recompose()
    if rng.random() < 0.3:
        c = rand_scalar(rng, K, nonzero=True)
        x1, x2 = MultiPoly.variable(K, 2, 0), MultiPoly.variable(K, 2, 1)
        s = Endo([x1.scale(c), x2]) if rng.random() < 0.5 else Endo([x1, x2.scale(c)])
        e = s.compose(e) if rng.random() < 0.5 else e.compose(s)
    return e


@pytest.mark.parametrize("K", FIELDS, ids=str)
def test_word_and_inverse_match_the_monomial_descent(K, monkeypatch):
    rng = random.Random(SEED + (K.characteristic or 0))
    maps = [_sample_map(rng, K) for _ in range(MAPS_PER_FIELD)]
    new = [plane_aut_from_endo(e) for e in maps]
    kinds = set()
    for e in maps:
        ops, _ = _reduction_ops(e)
        tags = [op.tag for op in ops]
        # one J per stage: every J but the first follows an affine move
        assert all(tags[i - 1] == "A" for i in range(1, len(tags)) if tags[i] == "J")
        kinds.update("rotation" if K.is_zero(op.a) else "shear" for op in ops if op.tag == "A")
        kinds.add(f"{tags.count('J')} stages")
    monkeypatch.setattr(planeaut.amalgam, "_reduction_ops", monomial_reduction_ops)
    for e, aut in zip(maps, new):
        old = plane_aut_from_endo(e)
        assert aut.word.describe() == old.word.describe(), str(e)
        assert aut.inv == old.inv, str(e)
    assert {"rotation", "shear", "0 stages", "1 stages", "2 stages"} <= kinds
    assert K.characteristic == 2 or not all(aut.is_special for aut in new)


def test_dense_triangular_map_is_one_stage(monkeypatch):
    # the p - 1 subtractions of the one stage are one factor
    K = PrimeField(101)
    e = parse_automorphism("(x1 + (x2 - 5)^100, x2 + 1)", K)
    ops, final = _reduction_ops(e)
    assert [op.tag for op in ops] == ["J"] and final.degree == 1
    words = []
    reduce_word = planeaut.amalgam.reduce_word

    def recorded(w):
        words.append(len(w))
        return reduce_word(w)

    monkeypatch.setattr(planeaut.amalgam, "reduce_word", recorded)
    word = _factor(e, K.one)
    assert len(words) == 1 and words[0] <= 2
    assert word.recompose() == e


@pytest.mark.parametrize("src,p,message", [
    ("(x1^2 + x1, x2^2 + x2)", 2, "top forms not proportional"),
    ("(x2 + x1^3, x1 + x2^3 + x1^3)", 3, "top forms not proportional"),
    ("(x1 + x1^5, x2)", 5, "top forms not proportional"),
    ("(x1 + x1^3, x2 + x1^2)", 3, "top degrees incompatible"),
], ids=["F2-equal-degrees", "F3-equal-degrees", "F5-triangular", "F3-degrees-3-2"])
def test_constant_jacobian_non_automorphism_is_not_invertible(src, p, message, capsys):
    K = PrimeField(p)
    e = parse_automorphism(src, K)
    jac = e.jacobian()
    assert jac.is_constant and not jac.is_zero
    with pytest.raises(NotInvertibleError, match=message):
        plane_aut_from_endo(e)
    assert main(["inverse", src, "--field", f"Fp:{p}"]) == 1
    assert capsys.readouterr().err == f"error: {message}; not an automorphism\n"
