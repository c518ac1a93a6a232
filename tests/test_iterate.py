"""Iterates built along the factor word on int forms.

degree_sequence, is_dynamically_regular and PlaneAut.power build f^(k+1)
as f o f^k one grouped step of the word of f at a time
(AmalgamWord.step_groups, poly.iterate_chain), where they composed f^k
into the expanded f and raised every iterate.  That old loop is the oracle:
conftest.compose_degree_sequence, compose_is_dynamically_regular and
compose_power.  The corpus runs over Q and F_p for p = 2, 3, 5, 1000003:
AJ, JA, AJA and AJAJ words, triangular and affine words alone, Jacobians
1-5, a composed map with no word, and plain maps (three variables, the
zero map, a map over K[t, 1/t]), which are one step each.

The products an iterate costs are counted with conftest.imul_spy, without
timing: substituting into A o J raises only the second argument to powers.
"""
import json
import random

import pytest

from conftest import (
    SEED,
    compose_degree_sequence,
    compose_is_dynamically_regular,
    compose_power,
    rand_affine,
    rand_jonquieres,
)
from planeaut import (
    MINUS_INF,
    AffineFactor,
    AmalgamWord,
    Endo,
    JonquieresFactor,
    MultiPoly,
    PlaneAut,
    PrimeField,
    RationalField,
    degree_sequence,
    is_dynamically_regular,
    parse_automorphism,
    plane_aut_from_endo,
    poly,
)
from planeaut.cli import main as cli_main
from planeaut.poly import iterate_chain

Q = RationalField()
FIELDS = [Q, PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(1000003)]
SHAPES = ("AJ", "JA", "AJA", "AJAJ", "J", "A")
# iterates stop below this degree: deg f^m = deg(f)^m on a regular word
MAX_ITERATE_DEGREE = 64


def _scaled(e: Endo, c) -> Endo:
    """e o s_c, s_c = (c x1, x2)."""
    K = e.ring
    return e.compose(Endo([MultiPoly(K, 2, {(1, 0): c}), MultiPoly.variable(K, 2, 1)]))


def _word(rng, K, shape):
    return AmalgamWord(K, [rand_affine(rng, K) if tag == "A" else rand_jonquieres(rng, K, 2)
                           for tag in shape])


def _corpus(K):
    """(name, map): each shape as a reduced word's map, of Jacobian 1, and as
    a validated map of Jacobian 2, 3, 4 or 5 (1 where that is 0 in K), a
    composed map with no word, and the plain maps."""
    rng = random.Random(f"{SEED}/iterate/{K!r}")
    out = []
    for i, shape in enumerate(SHAPES):
        w = _word(rng, K, shape)
        c = K.from_int(2 + i % 4)
        c = K.one if K.is_zero(c) else c
        out.append((f"{shape}-word", w.to_plane_aut()))
        out.append((f"{shape}-jac{c}", plane_aut_from_endo(_scaled(w.recompose(), c))))
    # J o A, a word of the JA shape
    composed = out[8][1].compose(out[10][1])
    assert composed.word is None
    out.append(("composed", composed))
    out.append(("three-vars", parse_automorphism("(x1 + x2^2, x2 + x3^2, x3)", K)))
    out.append(("zero", Endo([MultiPoly.zero(K, 2)] * 2)))
    out.append(("laurent", parse_automorphism("(t*x1 + 1/t*x2^2 + t^2, x2 + t^-3)", K)))
    return out


def _depth(f):
    """The largest m <= 6 with deg(f)^m <= MAX_ITERATE_DEGREE."""
    d = f.degree
    if d is MINUS_INF or d <= 1:
        return 6
    m = 0
    while m < 6 and d ** (m + 1) <= MAX_ITERATE_DEGREE:
        m += 1
    return m


@pytest.mark.parametrize("K", FIELDS, ids=repr)
def test_degree_sequence_matches_the_compose_loop(K):
    for name, f in _corpus(K):
        top = _depth(f)
        want = compose_degree_sequence(f, top)
        for m in range(top + 1):
            assert degree_sequence(f, m) == want[:m], (name, m)


@pytest.mark.parametrize("K", FIELDS, ids=repr)
def test_regularity_and_powers_match_the_compose_loop(K):
    for name, f in _corpus(K):
        if not isinstance(f, PlaneAut):
            continue
        assert is_dynamically_regular(f) == compose_is_dynamically_regular(f), name
        top = min(_depth(f), 3)
        for m in range(-top, top + 1):
            got, want = f.power(m), compose_power(f, m)
            assert got.fwd == want.fwd and got.inv == want.inv, (name, m)


def test_the_corpus_covers_every_grouping():
    """Words of each shape survive the descent, and c != 1 joins a group of
    several factors both ways."""
    tags, merged = set(), set()
    for K in FIELDS:
        for name, f in _corpus(K):
            if isinstance(f, PlaneAut) and f.word is not None:
                tags.add("".join(fac.tag for fac in f.word))
                for inverse in (False, True):
                    groups = f.word.step_groups(f.jac, inverse)
                    if not K.eq(f.jac, K.one) and len(groups) > 1:
                        merged.add((inverse, max(map(len, groups))))
    assert {"AJ", "JA", "AJA", "AJAJ", "J", "A"} <= tags
    assert {(False, 3), (True, 3)} <= merged


def test_plain_maps_count_only_variable_exponents():
    K = PrimeField(5)
    e = parse_automorphism("(t*x1 + 1/t*x2^2 + t^2, x2 + t^-3)", K)
    assert degree_sequence(e, 4) == [2, 2, 2, 2]
    zero = Endo([MultiPoly.zero(Q, 2)] * 2)
    assert degree_sequence(zero, 3) == [MINUS_INF] * 3
    assert degree_sequence(parse_automorphism("(x1 + x2^2, x2 + x3^2, x3)", Q), 4) == [2, 4, 4, 4]


@pytest.mark.parametrize("m", [-1, -5])
def test_a_negative_iterate_count_is_refused(m):
    f = plane_aut_from_endo(parse_automorphism("(x2, -x1 + x2^2)", Q))
    for g in (f, f.fwd):
        with pytest.raises(ValueError):
            degree_sequence(g, m)


def _two_factor_map(shape):
    """J o A or A o J over Q, J = (2 x1 + x2^2 + x2, 1/2 x2 + 1) and A a
    generic affine map."""
    facs = {"A": AffineFactor(Q, 1, 2, 1, 3, 1, -1), "J": JonquieresFactor(Q, 2, {2: 1, 1: 1}, 1)}
    return plane_aut_from_endo(AmalgamWord(Q, [facs[tag] for tag in shape]).recompose())


def test_an_iterate_of_a_ja_word_costs_one_product(imul_spy):
    """f^2 = J o (A o f): A's step is affine, and J's raises only the second
    argument to its square, where f o f squares both and multiplies them."""
    f = _two_factor_map("JA")
    assert [fac.tag for fac in f.word] == ["J", "A"]
    imul_spy.clear()
    assert degree_sequence(f, 2) == [2, 4]
    assert imul_spy == {"calls": 1, "term_products": 36}
    imul_spy.clear()
    assert compose_degree_sequence(f, 2) == [2, 4]
    assert imul_spy == {"calls": 3, "term_products": 63}


def test_an_aj_word_costs_no_more_than_the_compose_loop(imul_spy, compose_spy):
    """A o J is one step, the expanded map itself: one substitution per
    iterate, and no more products than the compose loop."""
    f = _two_factor_map("AJ")
    assert [fac.tag for fac in f.word] == ["A", "J"]
    imul_spy.clear()
    compose_spy.clear()
    new = degree_sequence(f, 5)
    got = dict(imul_spy)
    assert len(compose_spy) == 4
    imul_spy.clear()
    assert compose_degree_sequence(f, 5) == new == [2, 4, 8, 16, 32]
    assert got["calls"] <= imul_spy["calls"]
    assert got["term_products"] <= imul_spy["term_products"]


@pytest.fixture
def degree_reads(monkeypatch):
    """The number of times poly.iterate_chain reads a component's degree
    off its terms."""
    reads, inner = [], poly._degree

    def spy(flat, nv):
        reads.append(len(flat))
        return inner(flat, nv)

    monkeypatch.setattr(poly, "_degree", spy)
    return reads


@pytest.mark.parametrize("K", [Q, PrimeField(2), PrimeField(5)], ids=repr)
def test_carried_degrees_read_the_terms_where_top_images_cancel(K, degree_reads):
    """(x1 - x2^2, x2) o (x1 + x2^2, x2) = (x1, x2): the step's images of
    x1 and x2^2 tie at degree 2 and cancel, so the degree is read off the
    terms; so does x1 + k x2^2 at k = 0 in K."""
    start = parse_automorphism("(x1 + x2^2, x2)", K)
    step = parse_automorphism("(x1 - x2^2, x2)", K)
    want, g = [], start
    for k in range(5):
        if k:
            g = step.compose(g)
        want.append(g.degree)
    degree_reads.clear()
    assert iterate_chain(start.comps, [[p.terms for p in step.comps]], 5)[0] == want
    assert want[1] == 1 and len(degree_reads) > 2
    if isinstance(K, PrimeField):
        # a step coefficient p is zero in F_p: its x2^3 is no top term
        zero_top = [{(1, 0): 1, (0, 3): K.p}, {(0, 1): 1}]
        assert iterate_chain(start.comps, [zero_top], 2)[0] == [2, 2]
    assert degree_sequence(start, 6) == compose_degree_sequence(start, 6)


@pytest.mark.parametrize("K", [Q, PrimeField(5)], ids=repr)
def test_carried_degrees_with_a_zero_component(K):
    """A zero argument has no degree to carry: (x1^2 + x2, 0) keeps its
    zero component, and (x2, 0) o (x2, 0) is the zero map."""
    for src in ("(x1^2 + x2, 0)", "(x2, 0)", "(x1^2 + x2, x1)"):
        f = parse_automorphism(src, K)
        assert degree_sequence(f, 5) == compose_degree_sequence(f, 5), src
    assert degree_sequence(parse_automorphism("(x2, 0)", K), 3) == [1, MINUS_INF, MINUS_INF]


@pytest.mark.parametrize("K", [Q, PrimeField(5)], ids=repr)
def test_carried_degrees_over_laurent_rings(K, degree_reads):
    """Over K[t, 1/t] one x-monomial with several t-exponents is one top
    term: the Henon-type family carries every degree after the start's.
    (x1 + t x2^2, x2) ties at every step, and over F5 its fifth iterate
    cancels to degree 1."""
    henon = parse_automorphism("(x2, -t*x1 + (t + t^-2)*x2^2)", K)
    degree_reads.clear()
    assert degree_sequence(henon, 5) == compose_degree_sequence(henon, 5) == [2, 4, 8, 16, 32]
    assert len(degree_reads) == 2
    tied = parse_automorphism("(x1 + t*x2^2, x2)", K)
    want = compose_degree_sequence(tied, 6)
    assert degree_sequence(tied, 6) == want
    assert want == ([2, 2, 2, 2, 1, 2] if K != Q else [2] * 6)


def test_a_quadratic_henon_map_reads_no_degree_after_the_first_iterate(degree_reads):
    f = plane_aut_from_endo(parse_automorphism("(x2, -x1 + 2*x2^2 + 1)", PrimeField(5)))
    degree_reads.clear()
    assert degree_sequence(f, 7) == [2 ** k for k in range(1, 8)]
    assert len(degree_reads) == 2 and max(degree_reads) <= 3


def test_degseq_iterates_an_automorphism_along_its_word(compose_spy, capsys):
    """planeaut degseq validates a 2-variable map first, so the JA map
    steps along its word, A then J; a map that is no automorphism iterates
    as its own polynomials."""
    src = "(x1^2 + 6*x1*x2 + 9*x2^2 + x1 + x2 + 2, 1/2*x1 + 3/2*x2 + 1/2)"
    f = plane_aut_from_endo(parse_automorphism(src, Q))
    assert [fac.tag for fac in f.word] == ["J", "A"]
    compose_spy.clear()
    assert cli_main(["degseq", src, "--n", "5", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["data"]["degrees"] == [2, 4, 8, 16, 32]
    assert compose_spy.within["iterate_chain"] == 2 * 4
    compose_spy.clear()
    assert cli_main(["degseq", "(x1^2, x2)", "--n", "3", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["data"]["degrees"] == [2, 4, 8]
    assert compose_spy.within["iterate_chain"] == 2
