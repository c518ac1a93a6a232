"""Acceptance suite: one test per numbered contract criterion.

Run with -v for one pass/fail line per criterion.  All arithmetic is exact,
so every comparison below is bit-for-bit equality (tolerance 0).
"""
import json
import random
from fractions import Fraction

import pytest

from planeaut import (
    Endo,
    HenonForm,
    InfinityPoint,
    LaurentRing,
    MultiPoly,
    NotAlgebraicError,
    PlaneAut,
    PrimeField,
    RationalField,
    SJRepresentative,
    TFamily,
    decide_conjugacy,
    decompose_v_delta,
    degenerate_family_ii,
    degenerate_family_iii,
    degenerate_family_iv,
    degree_sequence,
    delta_map,
    henon_normalize,
    image_point_at_infinity,
    in_v_subspace,
    indeterminacy_point,
    is_algebraic,
    jvdk_factor,
    minimize_conjugator,
    n_map,
    normal_form,
    parse_automorphism,
    pole_propagation_check,
    verify_conjugacy_certificate,
)
from planeaut.cli import main as cli_main
from planeaut.rings import up_add, up_compose, up_deg, up_scale

from conftest import (
    SEED,
    dichotomy_corpus,
    family_ii_rep,
    family_iv_element,
    rand_jonquieres,
    rand_scalar,
    rand_univariate,
    sample_regular_word,
    word_to_plane_aut,
)
from test_cli import CASES as CLI_CASES, GOLDEN

Q = RationalField()
F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


@pytest.fixture(scope="module")
def corpus():
    return dichotomy_corpus(random.Random(SEED + 17), Q, F5)


def _diag(K, a):
    x1 = MultiPoly.variable(K, 2, 0)
    x2 = MultiPoly.variable(K, 2, 1)
    ai = K.invert(a)
    return PlaneAut(Endo([x1.scale(a), x2.scale(ai)]),
                    Endo([x1.scale(ai), x2.scale(a)]))


def _triangular(K, R_poly, c):
    """(x1 + R(x2), x2 + c) with its exact inverse."""
    x1 = MultiPoly.variable(K, 2, 0)
    x2 = MultiPoly.variable(K, 2, 1)
    cc = MultiPoly.const(K, 2, c)
    fwd_r = sum((x2.__pow__(e).scale(v) for e, v in R_poly.items()),
                MultiPoly.zero(K, 2))
    shifted = up_compose(K, R_poly, {1: K.one, 0: K.neg(c)})
    bwd_r = sum((x2.__pow__(e).scale(v) for e, v in shifted.items()),
                MultiPoly.zero(K, 2))
    return PlaneAut(Endo([x1 + fwd_r, x2 + cc]),
                    Endo([x1 - bwd_r, x2 - cc]))


# -- criterion 1: degree sequence and the closed-form iterates ---------------

def test_criterion_01_degree_sequence_and_closed_form_iterates():
    f = parse_automorphism("(x1 + x2^2, x2 + x3^2, x3)", Q)
    assert degree_sequence(f, 4) == [2, 4, 4, 4]
    power = f
    for n in range(1, 6):
        if n > 1:
            power = f.compose(power)
        sq = sum(i * i for i in range(1, n))
        closed = parse_automorphism(
            f"({n}*x2^2 + {n * (n - 1)}*x2*x3^2 + {sq}*x3^4 + x1, "
            f"{n}*x3^2 + x2, x3)", Q)
        assert power == closed


# -- criterion 2: the degree dichotomy on a random word corpus ---------------

def test_criterion_02_degree_dichotomy_and_regular_multiplicativity(corpus):
    assert len(corpus) >= 200
    regular_seen = 0
    for K, word in corpus:
        f = word_to_plane_aut(word)
        d = f.degree
        assert 2 <= d
        e2 = f.fwd.compose(f.fwd)
        bounded = e2.degree <= d
        multiplicative = e2.degree == d * d
        assert bounded != multiplicative
        if multiplicative:
            regular_seen += 1
            em = e2
            for m in range(3, 6):
                em = f.fwd.compose(em)
                assert em.degree == d ** m
    assert regular_seen >= 80


def test_normal_form_raises_exactly_on_non_algebraic_maps(corpus):
    for K, word in corpus:
        f = word_to_plane_aut(word)
        try:
            normal_form(f)
            raised = False
        except NotAlgebraicError:
            raised = True
        assert raised == (not is_algebraic(f))


# -- criterion 3: factorization round trip and infinity identities -----------

def test_criterion_03_jvdk_round_trip_and_henon_infinity_identities(corpus):
    henon_seen = algebraic_seen = 0
    for K, word in corpus:
        f = word_to_plane_aut(word)
        w = jvdk_factor(f)
        assert w.recompose() == f.fwd
        out = henon_normalize(f)
        if isinstance(out, HenonForm):
            assert not is_algebraic(f)
            prod = 1
            for fac in out.word.factors:
                if fac.tag == "J":
                    prod *= fac.degree
            rep = out.word.recompose()
            assert rep.degree == prod
            pole = InfinityPoint.normalize(K, (K.one, K.zero))
            assert indeterminacy_point(rep) == pole
            core = out.word.to_plane_aut()
            assert (image_point_at_infinity(core)
                    == out.word.factors[0].apply_to_infinity(pole))
            henon_seen += 1
        else:
            assert isinstance(out, SJRepresentative)
            assert is_algebraic(f)
            algebraic_seen += 1
    assert henon_seen >= 100 and algebraic_seen >= 100


# -- criterion 4: the difference / norm operator lemma at desk scale ---------

def _nullspace(K, rows, ncols):
    """Kernel basis of the matrix given as a list of row vectors over K."""
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if not K.is_zero(mat[i][c])),
                   None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = K.invert(mat[r][c])
        mat[r] = [K.mul(inv, v) for v in mat[r]]
        for i in range(len(mat)):
            if i != r and not K.is_zero(mat[i][c]):
                s = mat[i][c]
                mat[i] = [K.sub(a, K.mul(s, b)) for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [K.zero] * ncols
        vec[free] = K.one
        for i, pc in enumerate(pivots):
            vec[pc] = K.neg(mat[i][free])
        basis.append(vec)
    return basis


def test_criterion_04_decompose_monomials_and_kernel_image_identity():
    bound = 30
    for K in (F2, F3, F5):
        # every monomial decomposes as v + delta(r) with v in V
        for k in range(bound + 1):
            dec = decompose_v_delta(K, {k: K.one})
            assert dec.verify(K)
            assert in_v_subspace(K, dec.v)
            assert up_add(K, dec.v, delta_map(K, dec.r)) == {k: K.one}
        # image of delta sits inside the kernel of N
        for k in range(bound + 2):
            assert n_map(K, delta_map(K, {k: K.one})) == {}
        # every kernel element of N (on the truncation) is an explicit image
        rows = []
        images = [n_map(K, {k: K.one}) for k in range(bound + 1)]
        for e in range(bound + 1):
            rows.append([img.get(e, K.zero) for img in images])
        kernel = _nullspace(K, rows, bound + 1)
        assert kernel
        for vec in kernel:
            F = {k: c for k, c in enumerate(vec) if not K.is_zero(c)}
            assert n_map(K, F) == {}
            dec = decompose_v_delta(K, F)
            assert dec.v == {}
            assert delta_map(K, dec.r) == F


# -- criterion 5: order p exactly when the V-part vanishes -------------------

def test_criterion_05_order_p_iff_v_part_zero():
    rng = random.Random(SEED + 5)
    identity_branch = moving_branch = 0
    for K in (F2, F3):
        p = K.p
        id2 = Endo.identity(K, 2)
        for i in range(30):
            if i % 2:
                Q_poly = rand_univariate(rng, K, 6)
            else:
                Q_poly = delta_map(K, rand_univariate(rng, K, 5))
            f = family_iv_element(K, Q_poly)
            is_id = f.power(p).fwd == id2
            v_zero = decompose_v_delta(K, Q_poly).v == {}
            assert is_id == v_zero
            if is_id:
                identity_branch += 1
            else:
                moving_branch += 1
    assert identity_branch + moving_branch >= 50
    assert identity_branch >= 10 and moving_branch >= 10


# -- criterion 6: conjugacy decisions on constructed pairs -------------------

def _assert_yes(f, g):
    res = decide_conjugacy(f, g)
    assert res.verdict == "yes"
    assert verify_conjugacy_certificate(f, g, res.conjugator).valid


def _assert_no(f, g):
    assert decide_conjugacy(f, g).verdict == "no"


def test_criterion_06_family_i_multiplier_pairs():
    rng = random.Random(SEED + 61)
    pairs = 0
    q_mults = [Fraction(2), Fraction(3), Fraction(-2), Fraction(5, 2),
               Fraction(1, 3), Fraction(7), Fraction(-3, 4)]
    for a in q_mults:
        h1 = _triangular(Q, rand_univariate(rng, Q, 3), rand_scalar(rng, Q))
        h2 = _triangular(Q, rand_univariate(rng, Q, 2), rand_scalar(rng, Q))
        f = h1.compose(_diag(Q, a)).compose(h1.inverse())
        _assert_yes(f, h2.compose(_diag(Q, a)).compose(h2.inverse()))
        _assert_yes(f, _diag(Q, Fraction(1) / a))
        _assert_no(f, _diag(Q, a * a))
        _assert_no(f, _diag(Q, a + 1))
        pairs += 4
    for a, bad in ((2, 4), (3, 4)):
        f = _diag(F5, a)
        _assert_yes(f, _diag(F5, F5.invert(a)))
        _assert_no(f, _diag(F5, bad))
        pairs += 2
    assert pairs >= 30


def test_criterion_06_family_ii_scaled_shift_pairs():
    rng = random.Random(SEED + 62)
    pairs = 0
    for K, degs in ((Q, (2, 3, 4, 5, 6)), (F5, (2, 3, 4, 6))):
        for d in degs:
            P = rand_univariate(rng, K, d - 1)
            P[d] = rand_scalar(rng, K, nonzero=True)
            for _ in range(2):
                a = rand_scalar(rng, K, nonzero=True)
                b = rand_scalar(rng, K)
                Q_poly = up_scale(K, up_compose(K, P, {1: a, 0: b}), a)
                _assert_yes(family_ii_rep(K, P), family_ii_rep(K, Q_poly))
                pairs += 1
            bump = dict(P)
            bump[d + 1] = K.one
            _assert_no(family_ii_rep(K, P), family_ii_rep(K, bump))
            pairs += 1
    # char p dividing the degree
    P5 = {5: 1}
    for b in (1, 2):
        Q5 = up_compose(F5, P5, {1: 1, 0: b})
        _assert_yes(family_ii_rep(F5, P5), family_ii_rep(F5, Q5))
        pairs += 1
    _assert_no(family_ii_rep(F5, P5), family_ii_rep(F5, {6: 1, 5: 1}))
    # scalings that fail the closure consistency check
    _assert_no(family_ii_rep(Q, {3: Fraction(1), 2: Fraction(1)}),
               family_ii_rep(Q, {3: Fraction(1), 2: Fraction(2)}))
    pairs += 2
    assert pairs >= 30


def test_criterion_06_family_iv_translation_pairs():
    rng = random.Random(SEED + 63)
    pairs = 0
    for K in (F2, F3):
        for _ in range(10):
            Q_poly = rand_univariate(rng, K, 5)
            f = family_iv_element(K, Q_poly)
            u = _triangular(K, rand_univariate(rng, K, 3), rand_scalar(rng, K))
            _assert_yes(f, u.compose(f).compose(u.inverse()))
            pairs += 1
        negatives = 0
        while negatives < 6:
            Q1 = rand_univariate(rng, K, 6)
            Q2 = rand_univariate(rng, K, 6)
            if up_deg(K, n_map(K, Q1)) == up_deg(K, n_map(K, Q2)):
                continue
            _assert_no(family_iv_element(K, Q1), family_iv_element(K, Q2))
            negatives += 1
            pairs += 1
    assert pairs >= 30


# -- criterion 7: degeneration witnesses and their limits --------------------

def test_criterion_07_degeneration_limits_and_specializations():
    w_ii = degenerate_family_ii(Q, {2: Fraction(1), 0: Fraction(3)})
    assert str(w_ii.limit) == "(x1, x2)"
    assert w_ii.verify()
    for c in (Fraction(2), Fraction(-1), Fraction(1, 5)):
        assert w_ii.specialization_check(c)

    w_iii = degenerate_family_iii(Q, Fraction(-1), 2, {1: Fraction(1)})
    assert str(w_iii.limit) == "(-x1, -x2)"
    assert w_iii.verify()
    for c in (Fraction(1), Fraction(3), Fraction(-2)):
        assert w_iii.specialization_check(c)

    w_iii5 = degenerate_family_iii(F5, 2, 4, {0: 1, 1: 3})
    assert str(w_iii5.limit) == "(2*x1, 3*x2)"
    assert w_iii5.verify()
    for c in (1, 2, 4):
        assert w_iii5.specialization_check(c)

    w_f1 = degenerate_family_iv(F5, {1: 1}, variant="F1")
    assert str(w_f1.limit) == "(x1, x2 + 1)"
    assert w_f1.verify()
    for c in (1, 2, 3):
        assert w_f1.specialization_check(c)

    w_f2 = degenerate_family_iv(F5, {1: 1}, variant="F2")
    assert str(w_f2.limit) == "(x1, x2)"
    assert w_f2.verify()
    for c in (1, 3, 4):
        assert w_f2.specialization_check(c)

    # small fields: every nonzero specialization there is
    for K, Q_poly in ((F2, {1: 1}), (F3, {2: 2})):
        for variant, limit in (("F1", "(x1, x2 + 1)"), ("F2", "(x1, x2)")):
            w = degenerate_family_iv(K, Q_poly, variant=variant)
            assert str(w.limit) == limit
            assert w.verify()
            for c in range(1, K.p):
                assert w.specialization_check(c)


# -- criterion 8: pole propagation and the valuation dichotomy ---------------

def _pole_family(rng, K, L):
    x1 = MultiPoly.variable(L, 2, 0)
    x2 = MultiPoly.variable(L, 2, 1)
    k = rng.choice([1, 2])
    D = TFamily(Endo([x1.scale({k: K.one}), x2.scale({-k: K.one})]),
                Endo([x1.scale({-k: K.one}), x2.scale({k: K.one})]),
                check=False)
    c = rand_scalar(rng, K, nonzero=True)
    mono = (x2 ** rng.choice([1, 2])).scale({rng.randrange(-1, 2): c})
    U = TFamily(Endo([x1 + mono, x2]), Endo([x1 - mono, x2]), check=False)
    neg = {0: K.neg(K.one)}
    S = TFamily(Endo([x2, x1.scale(neg)]), Endo([x2.scale(neg), x1]),
                check=False)
    parts = rng.choice([[D, U], [U, D], [D, U, S]])
    alpha = parts[0]
    for part in parts[1:]:
        alpha = alpha.compose(part)
    return alpha


def test_criterion_08_pole_propagation_dichotomy_suite():
    rng = random.Random(SEED + 8)
    met = 0
    total = 0
    for K in (Q, F5):
        L = LaurentRing(K)
        for _ in range(25):
            f = word_to_plane_aut(sample_regular_word(rng, K, 2))
            alpha = _pole_family(rng, K, L)
            assert alpha.valuation < 0
            rep = pole_propagation_check(f, alpha)
            assert rep.implication_holds
            assert rep.dichotomy_holds
            if rep.hypothesis_met:
                met += 1
            total += 1
    assert total >= 50
    assert met >= 10


# -- criterion 9: minimized conjugators obey the degree bound ----------------

def test_criterion_09_minimized_conjugator_degree_bound():
    rng = random.Random(SEED + 9)
    checked = 0
    for i in range(30):
        K = Q if i % 2 else F5
        f = word_to_plane_aut(sample_regular_word(rng, K, 2))
        if i % 3 == 0:
            h0 = _triangular(K, {2: rand_scalar(rng, K, nonzero=True)},
                             rand_scalar(rng, K))
        else:
            h0 = _triangular(K, {1: rand_scalar(rng, K, nonzero=True),
                                 0: rand_scalar(rng, K)},
                             rand_scalar(rng, K))
        g = h0.compose(f).compose(h0.inverse())
        polluted = h0.compose(f.power(rng.choice([1, 2])))
        slim = minimize_conjugator(f, polluted)
        assert slim.compose(f).compose(slim.inverse()).fwd == g.fwd
        assert slim.degree <= h0.degree
        assert slim.degree ** 2 <= g.degree
        checked += 1
    assert checked >= 30


# -- criterion 10: CLI golden files and exit codes ---------------------------

def test_criterion_10_cli_golden_files_and_exit_codes(capsys):
    for name, argv in CLI_CASES.items():
        for fmt, ext in (("text", "txt"), ("json", "json")):
            rc = cli_main(argv + ["--format", fmt])
            out = capsys.readouterr().out
            assert rc == 0
            assert out == (GOLDEN / f"{name}.{ext}").read_text()
    # pole error
    assert cli_main(["xalpha", "(x1 + t*x2, x2)"]) == 1
    # parse error
    assert cli_main(["degseq", "(x1 +, x2)"]) == 2
    # field-literal error
    assert cli_main(["compose", "(x1 + 1/2, x2)", "(x1, x2)",
                     "--field", "Fp:2"]) == 2
    doc = json.loads
    capsys.readouterr()
    rc = cli_main(["xalpha", "(x1 + t*x2, x2)", "--format", "json"])
    payload = doc(capsys.readouterr().out)
    assert rc == 1 and payload["verdict"] == "error"
