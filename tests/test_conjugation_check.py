"""amalgam._check_conjugation against the two-sided oracle, the deferred
inverses of word-built conjugators, and the ring checks at the entry points
of certificates and pole reports."""

import functools
import random
import time

import pytest

from planeaut import (
    AffineFactor,
    AmalgamWord,
    Endo,
    FieldExtensionRequiredError,
    MultiPoly,
    PlaneAut,
    PlaneAutError,
    PrimeField,
    RationalField,
    RingMismatchError,
    decide_conjugacy,
    normal_form,
    parse_automorphism,
    plane_aut_from_endo,
    pole_propagation_check,
    verify_conjugacy_certificate,
)
from planeaut import amalgam, conjugacy
from planeaut.amalgam import JonquieresFactor, _check_conjugation
from conftest import (
    SEED,
    _algebraic_word_nontrivial,
    family_ii_rep,
    family_iv_element,
    rand_affine,
    rand_jonquieres,
    two_sided_composition,
    two_sided_conjugation,
    word_to_plane_aut,
)

Q = RationalField()
F2, F3, F5, F1000003 = PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(1000003)
FIELDS = [Q, F2, F5, F1000003]


def _conjugate(rng, K, rep: PlaneAut, facs) -> PlaneAut:
    """H o rep o H^-1 for H the map of facs, validated from its polynomials."""
    H = word_to_plane_aut(AmalgamWord(K, facs))
    return plane_aut_from_endo(H.fwd.compose(rep.fwd).compose(H.inv))


def _yes_pairs(K, count=6):
    """Conjugates of one algebraic map each, by A J A (J of degree 2) and by
    an affine A; its factors have degree <= 2 over Q, where the oracle's
    coefficients grow, and <= 3 over F_p."""
    rng = random.Random(f"{SEED}/conjugation/{K!r}")
    pairs = []
    for _ in range(count):
        rep = word_to_plane_aut(_algebraic_word_nontrivial(rng, K, max_deg=2 if K == Q else 3))
        aja = [rand_affine(rng, K), rand_jonquieres(rng, K, 2), rand_affine(rng, K)]
        pairs.append((_conjugate(rng, K, rep, aja), _conjugate(rng, K, rep, [rand_affine(rng, K)])))
    return pairs


@functools.lru_cache(maxsize=None)
def _certificates(K):
    """(h, f, g) with g = h o f o h^-1: every normal form and every decided
    conjugator of the seeded pairs."""
    out = []
    for f, g in _yes_pairs(K):
        try:
            nf_f, nf_g = normal_form(f), normal_form(g)
        except FieldExtensionRequiredError:
            continue
        res = decide_conjugacy(f, g)
        assert res.verdict == "yes", res.reason
        out += [(nf_f.conjugator, f, nf_f.aut), (nf_g.conjugator, g, nf_g.aut),
                (res.conjugator, f, g)]
    assert len(out) >= 9
    return tuple(out)


def _perturbed(rng, m: PlaneAut) -> PlaneAut:
    """m with one coefficient moved by 1, validated again by
    plane_aut_from_endo: a PlaneAut must be an automorphism, and a stale
    inverse would make the oracle wrong, not the check.  A random term of a
    random component is tried first, then the constant term, which always
    gives an automorphism."""
    K, i = m.ring, rng.randrange(2)
    for e in (rng.choice(sorted(m.fwd.comps[i].terms)), (0, 0)):
        comps = list(m.fwd.comps)
        terms = dict(comps[i].terms)
        terms[e] = K.add(terms.get(e, K.zero), K.one)
        comps[i] = MultiPoly(K, 2, terms)
        try:
            return plane_aut_from_endo(Endo(comps))
        except PlaneAutError:
            continue
    raise AssertionError(f"no automorphism near {m}")


@pytest.mark.parametrize("K", FIELDS, ids=repr)
def test_check_agrees_with_the_two_sided_oracle(K):
    certs = _certificates(K)
    for h, f, g in certs:
        assert _check_conjugation(h, f, g) and two_sided_conjugation(h, f, g), str(f)
    rng = random.Random(f"{SEED}/perturbed/{K!r}")
    verdicts = []
    for i, (h, f, g) in enumerate(certs):
        trio = [h, f, g]
        trio[i % 3] = _perturbed(rng, trio[i % 3])
        want = two_sided_conjugation(*trio)
        assert _check_conjugation(*trio) == want, [str(m) for m in trio]
        verdicts.append(want)
    assert not all(verdicts)


@pytest.fixture
def walks(monkeypatch):
    """What each compose_chain call of amalgam returned: None when the walk
    refused a step, else the polynomials."""
    out, chain = [], amalgam.compose_chain

    def recorded(*args):
        out.append(chain(*args))
        return out[-1]

    monkeypatch.setattr(amalgam, "compose_chain", recorded)
    return out


@pytest.mark.parametrize("K", FIELDS, ids=repr)
def test_fallback_paths_agree_with_the_oracle(K, walks):
    # a conjugator with no word, as PlaneAut.compose builds them: h o f and
    # g o h, each one unbounded step h.fwd or g
    for h, f, g in _certificates(K)[:3]:
        bare = PlaneAut(h.fwd, h.inv, verify=False)
        walks.clear()
        assert _check_conjugation(bare, f, g) and two_sided_conjugation(bare, f, g)
        assert len(walks) == 2 and walks[0] == walks[1]
    # h = J A J of degree 4 against f of degree 3 and g = id: the walk is
    # bounded by max(3, 1 * 4) and J o A o (J o f) reaches degree 6
    rng = random.Random(f"{SEED}/refused/{K!r}")
    h = AmalgamWord(K, [rand_jonquieres(rng, K, 2), AffineFactor.rotation(K),
                        rand_jonquieres(rng, K, 2)]).to_plane_aut()
    assert len(h.word) == 3
    f = family_ii_rep(K, {3: K.one})
    g = PlaneAut.identity(K)
    walks.clear()
    assert _check_conjugation(h, f, g) is False
    # the bounded walk refuses, then h o f and g o h are one step each
    assert len(walks) == 3 and walks[0] is None and None not in walks[1:]
    assert two_sided_conjugation(h, f, g) is False


def test_a_scaled_conjugator_walks_through_its_jacobian():
    """A conjugator of Jacobian 3 keeps the word of its Jacobian-1 part; the
    walk takes s_3 = (3 x1, x2) first."""
    h = plane_aut_from_endo(parse_automorphism("(x2 + 9*x1^2 + 1, -3*x1 + 2)", Q))
    f = plane_aut_from_endo(parse_automorphism("(x1 + x2^2 + 1, x2)", Q))
    g = plane_aut_from_endo(h.fwd.compose(f.fwd).compose(h.inv))
    assert Q.eq(h.jac, 3) and len(h.word) > 1
    assert _check_conjugation(h, f, g) and two_sided_conjugation(h, f, g)
    assert not _check_conjugation(h, g, f) and not two_sided_conjugation(h, g, f)
    assert verify_conjugacy_certificate(f, g, h).valid


# -- the certificate of are_conjugate_algebraic -------------------------------

def _family_pairs():
    """(tag, f, g) conjugate pairs of every branch of are_conjugate_algebraic:
    family I with equal multipliers (no family conjugator) and with inverse
    ones (the rotation), II, III, IV over F3 and Q (no family conjugator in
    characteristic 0) and the II/IV bridge.  g is also moved by an affine
    map, so the normal forms' conjugators are not trivial, except in the
    rotation's pair, whose multipliers the move could make equal."""
    rng = random.Random(f"{SEED}/family-pairs")
    aut = lambda src, K=Q: plane_aut_from_endo(parse_automorphism(src, K))
    rep3 = aut("(-x1 + x2^3, -x2)")
    iv3 = family_iv_element(F3, {2: 2, 5: 1})
    pairs = [
        ("I", aut("(2*x1, 1/2*x2)"), aut("(2*x1 + x2^3, 1/2*x2)")),
        ("I-swap", aut("(2*x1, 1/2*x2)"), aut("(1/2*x1, 2*x2)")),
        ("II", aut("(x1 + x2^2, x2)"), aut("(x1 + 8*x2^2 + 8*x2 + 2, x2)")),
        ("III", rep3, _conjugate(rng, Q, rep3, [JonquieresFactor(Q, 2, {})])),
        ("IV", iv3, _conjugate(rng, F3, iv3, [JonquieresFactor(F3, 1, {}, 1)])),
        ("IV-Q", aut("(x1 + x2^2, x2 + 1)"), aut("(x1 - 5*x2^3, x2 + 1)")),
        ("II-IV", aut("(x1 + 3, x2)"), aut("(x1, x2 + 1)")),
    ]
    return [(tag, f, g if tag == "I-swap" else _conjugate(rng, f.ring, g, [rand_affine(rng, f.ring)]))
            for tag, f, g in pairs]


def test_family_pairs_reach_every_branch():
    reasons = {tag: decide_conjugacy(f, g).reason for tag, f, g in _family_pairs()}
    assert reasons == {
        "I": "equal multipliers",
        "I-swap": "inverse multipliers, swapped by (x2, -x1)",
        "II": "scalar system solved in the base field",
        "III": "diagonal scalar found in the base field",
        "IV": "shift c = 0 matches the p-th powers",
        "IV-Q": "both are the translation",
        "II-IV": "translation matches a constant shear across families"}


@pytest.mark.parametrize("K", FIELDS + [F3], ids=repr)
def test_every_yes_passes_the_full_checks(K, monkeypatch):
    """A yes certificate is checked on the two representatives, and still
    passes verify_conjugacy_certificate and the two-sided oracle on f and
    g."""
    checked, inner = [], conjugacy._composites_agree

    def spy(R, left, right, bound=None):
        checked.append((left[0], right[-1]))
        return inner(R, left, right, bound)

    monkeypatch.setattr(conjugacy, "_composites_agree", spy)
    pairs = [(f, g) for _, f, g in _family_pairs() if f.ring == K]
    if K != F3:
        pairs += _yes_pairs(K)
    for f, g in pairs:
        nf_f, nf_g = normal_form(f), normal_form(g)
        checked.clear()
        res = decide_conjugacy(f, g)
        h = res.conjugator
        assert res.verdict == "yes", res.reason
        assert checked == [(nf_f.aut.fwd.term_dicts(), nf_g.aut.fwd.term_dicts())]
        assert verify_conjugacy_certificate(f, g, h).valid and two_sided_conjugation(h, f, g)


def _perturbing(monkeypatch, name, perturb):
    """Patch conjugacy.<name> so that its result goes through perturb."""
    inner = getattr(conjugacy, name)
    monkeypatch.setattr(conjugacy, name, lambda *args: perturb(args[0], inner(*args)))


@pytest.mark.parametrize("tag", ["I", "I-swap", "II", "III", "IV"])
def test_a_wrong_family_conjugator_is_refused(tag, monkeypatch):
    """Each family conjugator moved off the right one makes
    are_conjugate_algebraic raise; with no family conjugator, a wrong yes
    compares two different representatives."""
    (f, g), = [(f, g) for t, f, g in _family_pairs() if t == tag]
    K = f.ring
    if tag == "I":
        # multipliers 2 and 3, taken as equal
        rng = random.Random(SEED)
        g = _conjugate(rng, K, plane_aut_from_endo(parse_automorphism("(3*x1, 1/3*x2)", K)),
                       [rand_affine(rng, K)])
        normal_form(f), normal_form(g)
        monkeypatch.setattr(K, "eq", lambda a, b: True)
    elif tag == "I-swap":
        # (x2 + 1, -x1) for the rotation (x2, -x1)
        monkeypatch.setattr(AffineFactor, "rotation", classmethod(
            lambda cls, R: cls(R, R.zero, R.one, R.neg(R.one), R.zero, R.one)))
    elif tag == "II":
        _perturbing(monkeypatch, "_decide_family_ii", lambda R, res: (
            res[0], (res[1][0], R.add(res[1][1], R.one)), res[2]))
    elif tag == "III":
        _perturbing(monkeypatch, "solve_scalar_power_system", lambda R, res: (
            res[0], [R.add(r, R.one) for r in res[1]]))
    else:
        _perturbing(monkeypatch, "_family_iv_conjugator", lambda R, h: h.compose(
            JonquieresFactor(R, R.one, {}, R.one)))
    with pytest.raises(PlaneAutError, match="assembled conjugator failed"):
        decide_conjugacy(f, g)


# -- deferred inverses --------------------------------------------------------

@pytest.mark.parametrize("K", [Q, F5], ids=repr)
def test_deciding_a_yes_pair_expands_no_conjugator_inverse(K, compose_spy):
    f, g = _yes_pairs(K, 1)[0]
    f, g = plane_aut_from_endo(f.fwd), plane_aut_from_endo(g.fwd)
    compose_spy.clear()
    nf_f, nf_g = normal_form(f), normal_form(g)
    res = decide_conjugacy(f, g)
    cert = verify_conjugacy_certificate(f, g, res.conjugator)
    assert res.verdict == "yes" and cert.valid
    assert len(compose_spy) > 0 and compose_spy.within["inv"] == 0
    for h in (nf_f.conjugator, nf_g.conjugator, res.conjugator):
        eager = word_to_plane_aut(h.word)
        assert h.inv == eager.inv
        assert two_sided_composition(h.fwd, h.inv) and h.verify()
    assert compose_spy.within["inv"] > 0


@pytest.mark.parametrize("K", FIELDS, ids=repr)
def test_word_built_conjugators_verify(K):
    for h, _, _ in _certificates(K):
        assert h.word is not None and h.verify()
        back = h.inverse()
        assert back.word == h.word.inverse_word() and back.inv == h.fwd


def test_a_deferred_inverse_gets_the_checks_of_an_eager_one():
    x1, x2 = Endo.identity(Q, 2).comps
    f = Endo([x1 + x2 ** 2, x2])
    bad = PlaneAut(f, lambda: Endo([x1, x2]), verify=False)
    with pytest.raises(PlaneAutError, match="degree of forward and inverse differ"):
        bad.inv
    other = PlaneAut(f, lambda: Endo.identity(F5, 2), verify=False)
    with pytest.raises(RingMismatchError, match="forward and inverse over different rings"):
        other.inv
    with pytest.raises(PlaneAutError, match="do not compose to the identity"):
        PlaneAut(f, lambda: Endo([x1 + x2 ** 2, x2]))
    assert PlaneAut(f, lambda: Endo([x1 - x2 ** 2, x2])).inv == Endo([x1 - x2 ** 2, x2])


# -- the degree-32 conjugate ---------------------------------------------------

@functools.lru_cache(maxsize=None)
def _degree_32_conjugate() -> Endo:
    """H o rep o H^-1 over Q, H = A J A J A with J of degree 2 and rep a
    family-II map of degree 2: dense, of degree 4 * 2 * 4."""
    rng = random.Random(f"{SEED}/degree32")
    facs = [rand_affine(rng, Q)]
    for _ in range(2):
        facs += [rand_jonquieres(rng, Q, 2), rand_affine(rng, Q)]
    H = word_to_plane_aut(AmalgamWord(Q, facs))
    e = H.fwd.compose(family_ii_rep(Q, {2: 1, 0: 1}).fwd).compose(H.inv)
    assert e.degree == 32 and sum(len(c.terms) for c in e.comps) > 500
    return e


def test_degree_32_conjugate_normal_form_is_fast():
    best = None
    for _ in range(3):
        f = plane_aut_from_endo(_degree_32_conjugate())
        t0 = time.perf_counter()
        nf = normal_form(f)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    assert nf.family == "II" and best < 0.2, best


def test_degree_32_conjugate_builds_nothing_above_the_bound(compose_spy):
    f = plane_aut_from_endo(_degree_32_conjugate())
    compose_spy.clear()
    nf = normal_form(f)
    assert len(compose_spy) > 0
    assert max(compose_spy) <= max(f.degree, nf.aut.degree * nf.conjugator.degree)


# -- rings ---------------------------------------------------------------------

def test_certificates_refuse_maps_over_different_rings():
    f = plane_aut_from_endo(parse_automorphism("(x2, -x1 + 1/2*x2^2)", Q))
    g = plane_aut_from_endo(parse_automorphism("(x2, -x1 + 3*x2^2)", F5))
    for h in (PlaneAut.identity(Q), PlaneAut.identity(F5)):
        with pytest.raises(RingMismatchError, match="conjugation of maps over"):
            verify_conjugacy_certificate(f, g, h)
    with pytest.raises(RingMismatchError, match="conjugation of maps over"):
        verify_conjugacy_certificate(f, f, PlaneAut.identity(F5))


def test_pole_check_refuses_a_map_over_another_field():
    f = plane_aut_from_endo(parse_automorphism("(x2, -x1 + 1/2*x2^2)", Q))
    alpha = parse_automorphism("(t*x1, 1/t*x2 + 3)", F5)
    with pytest.raises(RingMismatchError):
        pole_propagation_check(f, alpha)
    same = parse_automorphism("(t*x1, 1/t*x2 + 3)", Q)
    assert pole_propagation_check(f, same).describe()["dichotomy_holds"]
