"""Normal forms and conjugacy decisions for algebraic plane automorphisms.

Every algebraic element of SAut(A^2) is conjugate into SJ and from there,
by explicit triangular conjugations, into one of four families:

    I    (a x1, a^-1 x2)                       a not 0 or 1
    II   (x1 + P(x2), x2)
    III  (z x1 + x2^{m-1} P(x2^m), z^-1 x2)    z a primitive m-th root of 1
    IV   (x1 + x2^{p-1} P(x2^p), x2 + 1)       char p, or (x1, x2+1) in char 0

Conjugacy between family members reduces to small scalar problems: family
I compares multipliers up to inversion, families II and III reduce to a
multiplicative power system for a diagonal scalar, family IV compares p-th
powers up to a shift of the variable.  Base fields here are not closed, so
decisions are three-valued: yes (with a certificate verified by
composition), no (an invariant obstruction), or unknown when the deciding
scalar equation has no root in the field but would have one in a closure.

Char-p bookkeeping uses the difference operator d(F) = F(x+1) - F(x), the
period sum N(F) = F(x) + F(x+1) + ... + F(x+p-1), and the subspace V
spanned by x^{p-1} P(x^p); K[x] = V + Im(d) is a direct sum and
Im(d) = Ker(N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .amalgam import (
    AffineFactor,
    HenonForm,
    JonquieresFactor,
    factor_to_plane_aut,
    henon_invariants,
    henon_normalize,
)
from .endo import PlaneAut, is_algebraic
from .errors import (
    NotAlgebraicError,
    NotSpecialError,
    PlaneAutError,
    UnsupportedFieldError,
)
from .rings import (
    MINUS_INF,
    up_add,
    up_compose,
    up_deg,
    up_gcd_monic,
    up_scale,
    up_sub,
    up_to_str,
)


# -- char-p linear algebra ---------------------------------------------------

def delta_map(ring, P: dict) -> dict:
    """P(x+1) - P(x)."""
    shifted = up_compose(ring, P, {1: ring.one, 0: ring.one})
    return up_sub(ring, shifted, P)


def n_map(ring, P: dict) -> dict:
    """P(x) + P(x+1) + ... + P(x+p-1), char p only."""
    p = ring.characteristic
    if p == 0:
        raise UnsupportedFieldError("the period sum needs positive characteristic")
    acc = {}
    for i in range(p):
        acc = up_add(ring, acc, up_compose(ring, P, {1: ring.one, 0: ring.from_int(i)}))
    return acc


def in_v_subspace(ring, P: dict) -> bool:
    p = ring.characteristic
    return all(e % p == p - 1 for e in P)


def _kill_delta(ring, F: dict):
    """Split F = v + d(r): repeatedly subtract d(a/(m+1) x^{m+1}) while the top
    exponent m has m+1 invertible; other top terms move to v.  In char 0 the
    v part is always 0."""
    p = ring.characteristic
    v, r, work = {}, {}, dict(F)
    while work:
        m = max(work)
        a = work[m]
        if p == 0 or (m + 1) % p != 0:
            c = ring.mul(a, ring.invert(ring.from_int(m + 1)))
            r[m + 1] = c
            work = up_sub(ring, work, delta_map(ring, {m + 1: c}))
            if work and max(work) >= m:
                raise PlaneAutError("difference-operator elimination failed to descend")
        else:
            v[m] = a
            del work[m]
    return v, r


@dataclass
class CharPDecomposition:
    """F = v + d(r) with v in V."""
    F: dict
    v: dict
    r: dict

    def verify(self, ring) -> bool:
        return (up_add(ring, self.v, delta_map(ring, self.r)) == self.F
                and in_v_subspace(ring, self.v))


def decompose_v_delta(ring, F: dict) -> CharPDecomposition:
    if ring.characteristic == 0:
        raise UnsupportedFieldError("V-decomposition needs positive characteristic")
    v, r = _kill_delta(ring, F)
    out = CharPDecomposition(dict(F), v, r)
    if not out.verify(ring):
        raise PlaneAutError("decomposition identity failed")
    return out


def _compress(P: dict, step: int) -> dict:
    """{step - 1 + step*k: c} -> {k: c}; the inverse of expand_family_poly."""
    out = {}
    for e, c in P.items():
        if (e + 1) % step != 0:
            raise PlaneAutError("exponent outside the expected residue class")
        out[(e + 1) // step - 1] = c
    return out


def expand_family_poly(P: dict, step: int) -> dict:
    """x^(step-1) P(x^step) as a {degree: coeff} dict."""
    return {step - 1 + step * k: c for k, c in P.items()}


# -- normal forms ------------------------------------------------------------

@dataclass
class NormalForm:
    """Family representative with the conjugator that produced it.

    P holds the family polynomial: full for II, compressed by x2^m for III
    and by x2^p (after the x2^{p-1} prefactor) for IV.  The invariant is
    aut = conjugator o (original input) o conjugator^-1.
    """
    family: str
    ring: object
    multiplier: object = None
    order: int = None
    P: dict = field(default_factory=dict)
    aut: PlaneAut = None
    conjugator: PlaneAut = None

    def describe(self):
        R = self.ring
        data = {"family": self.family, "representative": str(self.aut.fwd)}
        if self.family in ("I", "III"):
            data["multiplier"] = R.to_str(self.multiplier)
        if self.family == "III":
            data["order"] = self.order
        if self.family in ("II", "III", "IV"):
            data["P"] = up_to_str(R, self.P, "u")
        data["conjugator"] = str(self.conjugator.fwd)
        return data

    def expanded(self) -> dict:
        """The family polynomial as it sits in the representative,
        x2^(s-1) P(x2^s): s = 1 for II, the order for III, p for IV."""
        step = {"III": self.order, "IV": self.ring.characteristic}.get(self.family, 1)
        return expand_family_poly(self.P, step)


def _rep_factor(nf: NormalForm) -> JonquieresFactor:
    ring = nf.ring
    if nf.family == "I":
        return JonquieresFactor(ring, nf.multiplier, {})
    if nf.family == "II":
        return JonquieresFactor(ring, ring.one, nf.expanded())
    if nf.family == "III":
        return JonquieresFactor(ring, nf.multiplier, nf.expanded())
    if nf.family == "IV":
        return JonquieresFactor(ring, ring.one, nf.expanded(), ring.one)
    raise PlaneAutError(f"unknown family {nf.family!r}")


def _mult_order(ring, a, bound):
    acc = a
    m = 1
    while not ring.eq(acc, ring.one):
        acc = ring.mul(acc, a)
        m += 1
        if m > bound:
            return None
    return m


def normal_form(f: PlaneAut) -> NormalForm:
    """Conjugate an algebraic special automorphism to its family representative.

    The returned conjugator h satisfies rep = h o f o h^-1, verified by
    composition.  Applied to a representative it returns the identity
    conjugator.
    """
    if not f.is_special:
        raise NotSpecialError("normal forms are for Jacobian-1 automorphisms")
    ring = f.ring
    sj = henon_normalize(f)
    if isinstance(sj, HenonForm):
        raise NotAlgebraicError("unbounded degree growth; no triangular normal form")
    fac = sj.factor
    h = sj.conjugator

    def conj(step: JonquieresFactor):
        nonlocal fac, h
        fac = step.compose(fac).compose(step.inverse())
        h = factor_to_plane_aut(step).compose(h)

    one = ring.one
    if not ring.eq(fac.a, one):
        a = fac.a
        if not ring.is_zero(fac.c):
            beta = ring.mul(ring.mul(a, fac.c), ring.invert(ring.sub(one, a)))
            conj(JonquieresFactor(ring, one, {}, beta))
            if not ring.is_zero(fac.c):
                raise PlaneAutError("translation part survived its elimination")
        # only an order dividing some n + 1, n in P, keeps a term alive, so
        # the search stops at max(P) + 1; a larger order leaves family I
        p = ring.characteristic
        order = _mult_order(ring, a, min(max(fac.P, default=0) + 1, p - 1 if p else 2))
        kill = {}
        for n, coeff in fac.P.items():
            if order is not None and (n + 1) % order == 0:
                continue
            denom = ring.sub(a, ring.pow(a, -n))
            kill[n] = ring.mul(coeff, ring.invert(denom))
        if kill:
            conj(JonquieresFactor(ring, one, kill))
        if not fac.P:
            nf = NormalForm("I", ring, multiplier=a)
        else:
            nf = NormalForm("III", ring, multiplier=a, order=order,
                            P=_compress(fac.P, order))
    else:
        if ring.is_zero(fac.c):
            nf = NormalForm("II", ring, P=dict(fac.P))
        else:
            c = fac.c
            if not ring.eq(c, one):
                conj(JonquieresFactor(ring, c, {}))
                if not ring.eq(fac.c, one):
                    raise PlaneAutError("translation scaling failed")
            v, r = _kill_delta(ring, fac.P)
            if r:
                conj(JonquieresFactor(ring, one, {e: ring.neg(cc) for e, cc in r.items()}))
            if fac.P != v:
                raise PlaneAutError("difference-part elimination failed")
            p = ring.characteristic
            nf = NormalForm("IV", ring, P=_compress(v, p) if p else {})

    rep = _rep_factor(nf)
    if rep != fac:
        raise PlaneAutError("normalized factor does not match its family shape")
    nf.aut = factor_to_plane_aut(rep)
    nf.conjugator = h
    if h.compose(f).compose(h.inverse()).fwd != nf.aut.fwd:
        raise PlaneAutError("normal-form conjugation identity failed")
    return nf


# -- scalar power systems ----------------------------------------------------

def _ext_gcd(a: int, b: int):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def solve_scalar_power_system(ring, system: dict):
    """Solve a^e = r_e for all (e, r_e) in the system, e >= 1, r_e nonzero.

    Returns ("no", []) when no solution exists in any field extension,
    ("yes", roots) with the in-field solutions (possibly empty: then a
    solution exists only in an extension).
    """
    if not system:
        return ("yes", [ring.one])
    exps = sorted(system)
    g = exps[0]
    combo = {exps[0]: 1}
    for e in exps[1:]:
        g2, s, t = _ext_gcd(g, e)
        combo = {k: c * s for k, c in combo.items()}
        combo[e] = combo.get(e, 0) + t
        g = g2
    tau = ring.one
    for e, c in combo.items():
        tau = ring.mul(tau, ring.pow(system[e], c))
    for e in exps:
        if not ring.eq(system[e], ring.pow(tau, e // g)):
            return ("no", [])
    roots = [a for a in ring.nth_roots(tau, g)
             if all(ring.eq(ring.pow(a, e), system[e]) for e in exps)]
    return ("yes", roots)


# -- conjugacy decisions -----------------------------------------------------

@dataclass
class ConjugacyResult:
    verdict: str                      # "yes" | "no" | "unknown"
    conjugator: PlaneAut = None       # g = conjugator o f o conjugator^-1
    reason: str = ""
    family_f: str = None
    family_g: str = None
    checks: list = field(default_factory=list)

    def describe(self):
        out = {"verdict": self.verdict, "reason": self.reason,
               "families": [self.family_f, self.family_g],
               "checks": list(self.checks)}
        if self.conjugator is not None:
            out["conjugator"] = str(self.conjugator.fwd)
        return out


def _swap_factor(ring) -> AffineFactor:
    """(x2, -x1); conjugates (a x1, a^-1 x2) to (a^-1 x1, a x2) and
    (x1, x2+1) to (x1+1, x2)."""
    return AffineFactor(ring, ring.zero, ring.one, ring.neg(ring.one), ring.zero)


def _decide_family_ii(ring, P, Q):
    """Is Q(x) = a P(a x + b) solvable?  Returns (verdict, (a, b) or None, reason)."""
    dP, dQ = up_deg(ring, P), up_deg(ring, Q)
    if dP is MINUS_INF and dQ is MINUS_INF:
        return ("yes", (ring.one, ring.zero), "both are the identity")
    if dP is MINUS_INF or dQ is MINUS_INF:
        return ("no", None, "only one side is the identity")
    if dP != dQ:
        return ("no", None, f"degrees differ ({dP} vs {dQ})")
    d = dP
    if d == 0:
        a = ring.mul(Q[0], ring.invert(P[0]))
        return ("yes", (a, ring.zero), "constant translations rescale to each other")
    p = ring.characteristic
    if p == 0 or d % p != 0:
        # depress both: the x^{d-1} coefficient can be translated away, after
        # which the shift b is forced and the system becomes diagonal
        sP = ring.neg(ring.mul(P.get(d - 1, ring.zero),
                               ring.invert(ring.mul(ring.from_int(d), P[d]))))
        sQ = ring.neg(ring.mul(Q.get(d - 1, ring.zero),
                               ring.invert(ring.mul(ring.from_int(d), Q[d]))))
        Ph = up_compose(ring, P, {1: ring.one, 0: sP})
        Qh = up_compose(ring, Q, {1: ring.one, 0: sQ})
        if set(Ph) != set(Qh):
            return ("no", None, "coefficient supports differ after depression")
        system = {j + 1: ring.mul(Qh[j], ring.invert(Ph[j])) for j in Ph}
        status, roots = solve_scalar_power_system(ring, system)
        if status == "no":
            return ("no", None, "scalar power system is inconsistent")
        for a in roots:
            b = ring.sub(sP, ring.mul(a, sQ))
            if _family_ii_certified(ring, P, Q, a, b):
                return ("yes", (a, b), "scalar system solved in the base field")
        return ("unknown", None,
                "requires field extension: the scalar equation has no root here")
    # p divides d: no depression; finite scan is complete for this field
    for ai in range(1, p):
        a = ring.from_int(ai)
        for bi in range(p):
            b = ring.from_int(bi)
            if _family_ii_certified(ring, P, Q, a, b):
                return ("yes", (a, b), "found by exhaustive scan")
    return ("unknown", None,
            "no conjugating pair over this field; extensions not examined")


def _family_ii_certified(ring, P, Q, a, b) -> bool:
    rhs = up_scale(ring, up_compose(ring, P, {1: a, 0: b}), a)
    return rhs == Q


def _pth_power_poly(nf: NormalForm) -> dict:
    """P~ with rep^p = (x1 + P~(x2), x2), for a family-IV normal form."""
    ring = nf.ring
    p = ring.characteristic
    power = nf.aut.power(p).fwd
    c0, c1 = power.comps
    if c1.terms != {(0, 1): ring.one}:
        raise PlaneAutError("p-th power is not a pure shear")
    out = {}
    for e, c in c0.terms.items():
        if e == (1, 0):
            if not ring.eq(c, ring.one):
                raise PlaneAutError("p-th power is not a pure shear")
            continue
        if e[0] != 0:
            raise PlaneAutError("p-th power is not a pure shear")
        out[e[1]] = c
    return out


def _shift_poly(ring, P, c):
    return up_compose(ring, P, {1: ring.one, 0: c})


def _decide_family_iv(ring, nf_f: NormalForm, nf_g: NormalForm):
    """Conjugacy via p-th powers: P~, Q~ must agree up to a shift of x."""
    p = ring.characteristic
    if p == 0:
        return ("yes", None, "both are the translation")
    Pt = _pth_power_poly(nf_f)
    Qt = _pth_power_poly(nf_g)
    if up_deg(ring, Pt) != up_deg(ring, Qt):
        return ("no", None, "p-th power degrees differ")
    for ci in range(p):
        c = ring.from_int(ci)
        if _shift_poly(ring, Pt, c) == Qt:
            return ("yes", c, f"shift c = {ring.to_str(c)} matches the p-th powers")
    # no shift in F_p; decide closure solvability by the gcd of the
    # coefficient equations in c
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
    return ("unknown", None,
            "a shift exists only over a field extension")


def _family_iv_conjugator(ring, nf_f: NormalForm, nf_g: NormalForm, c) -> PlaneAut:
    shifted = _shift_poly(ring, nf_f.expanded(), c)
    v2, r2 = _kill_delta(ring, shifted)
    if v2 != nf_g.expanded():
        raise PlaneAutError("shifted V-part mismatch in the family-IV certificate")
    u = JonquieresFactor(ring, ring.one, {}, ring.neg(c))
    e = JonquieresFactor(ring, ring.one, {k: ring.neg(cc) for k, cc in r2.items()})
    return factor_to_plane_aut(e.compose(u))


def are_conjugate_algebraic(f: PlaneAut, g: PlaneAut) -> ConjugacyResult:
    """Three-valued conjugacy decision between algebraic special automorphisms."""
    nf_f = normal_form(f)
    nf_g = normal_form(g)
    ring = f.ring
    checks = [f"normal forms {nf_f.family} / {nf_g.family}"]

    def finish(verdict, h_fam=None, reason=""):
        conj = None
        if verdict == "yes":
            conj = nf_g.conjugator.inverse().compose(h_fam).compose(nf_f.conjugator)
            if conj.compose(f).compose(conj.inverse()).fwd != g.fwd:
                raise PlaneAutError("assembled conjugator failed its composition check")
            checks.append("certificate verified by composition")
        return ConjugacyResult(verdict, conj, reason, nf_f.family, nf_g.family, checks)

    ident = PlaneAut.identity(ring)
    ff, fg = nf_f.family, nf_g.family
    if ff == fg == "I":
        a, b = nf_f.multiplier, nf_g.multiplier
        if ring.eq(a, b):
            return finish("yes", ident, "equal multipliers")
        if ring.eq(ring.mul(a, b), ring.one):
            return finish("yes", factor_to_plane_aut(_swap_factor(ring)),
                          "inverse multipliers, swapped by (x2, -x1)")
        return finish("no", reason="multipliers are neither equal nor inverse")
    if ff == fg == "II":
        verdict, ab, reason = _decide_family_ii(ring, nf_f.P, nf_g.P)
        checks.append(f"family-II solve: {reason}")
        if verdict == "yes":
            a, b = ab
            h = factor_to_plane_aut(JonquieresFactor(
                ring, a, {}, ring.neg(ring.mul(b, ring.invert(a)))))
            return finish("yes", h, reason)
        return finish(verdict, reason=reason)
    if ff == fg == "III":
        if not ring.eq(nf_f.multiplier, nf_g.multiplier) or nf_f.order != nf_g.order:
            return finish("no", reason="different diagonal root-of-unity data")
        if set(nf_f.P) != set(nf_g.P):
            return finish("no", reason="survivor supports differ")
        m = nf_f.order
        system = {m * (k + 1): ring.mul(nf_g.P[k], ring.invert(nf_f.P[k]))
                  for k in nf_f.P}
        status, roots = solve_scalar_power_system(ring, system)
        checks.append(f"power system over exponents {sorted(system)}")
        if status == "no":
            return finish("no", reason="scalar power system is inconsistent")
        if not roots:
            return finish("unknown",
                          reason="requires field extension for the diagonal scalar")
        h = factor_to_plane_aut(JonquieresFactor(ring, roots[0], {}))
        return finish("yes", h, "diagonal scalar found in the base field")
    if ff == fg == "IV":
        verdict, c, reason = _decide_family_iv(ring, nf_f, nf_g)
        checks.append(f"family-IV p-th-power test: {reason}")
        if verdict == "yes":
            h = ident if ring.characteristic == 0 else _family_iv_conjugator(
                ring, nf_f, nf_g, c)
            return finish("yes", h, reason)
        return finish(verdict, reason=reason)
    if {ff, fg} == {"II", "IV"}:
        nf_ii = nf_f if ff == "II" else nf_g
        nf_iv = nf_f if ff == "IV" else nf_g
        const_ii = set(nf_ii.P) == {0}
        if const_ii and not nf_iv.P:
            k = nf_ii.P[0]
            bridge = factor_to_plane_aut(JonquieresFactor(ring, k, {})).compose(
                factor_to_plane_aut(_swap_factor(ring)))
            h_fam = bridge if ff == "IV" else bridge.inverse()
            return finish("yes", h_fam,
                          "translation matches a constant shear across families")
        return finish("no", reason="families II and IV only meet at the translation")
    return finish("no", reason=f"distinct families {ff} and {fg}")


def decide_conjugacy(f: PlaneAut, g: PlaneAut) -> ConjugacyResult:
    """Top-level dispatcher, covering non-algebraic inputs by invariants."""
    af, ag = is_algebraic(f), is_algebraic(g)
    if af != ag:
        return ConjugacyResult(
            "no", reason="one map has bounded degree growth, the other does not",
            family_f="algebraic" if af else "Henon",
            family_g="algebraic" if ag else "Henon")
    if af:
        return are_conjugate_algebraic(f, g)
    hf = henon_normalize(f)
    hg = henon_normalize(g)
    inv_f, inv_g = henon_invariants(hf), henon_invariants(hg)
    checks = [f"cyclic degree data {list(inv_f)} / {list(inv_g)}"]
    if inv_f != inv_g:
        return ConjugacyResult("no", reason="cyclic Jonquieres degree data differ",
                               family_f="Henon", family_g="Henon", checks=checks)
    return ConjugacyResult(
        "unknown",
        reason="invariants agree; conjugacy of Henon words is not decided",
        family_f="Henon", family_g="Henon", checks=checks)


# -- certificates and degree bounds ------------------------------------------

@dataclass
class CertificateReport:
    valid: bool
    deg_f: int
    deg_g: int
    deg_h: int
    square_bound: bool      # deg(h)^2 <= deg(g)
    linear_bound: bool      # deg(h)  <= deg(g)

    def describe(self):
        return {"valid": self.valid,
                "degrees": {"f": self.deg_f, "g": self.deg_g, "h": self.deg_h},
                "square_bound": self.square_bound,
                "linear_bound": self.linear_bound}


def verify_conjugacy_certificate(f: PlaneAut, g: PlaneAut, h: PlaneAut) -> CertificateReport:
    """Exact check of g = h o f o h^-1 plus the two degree-bound reports."""
    valid = h.compose(f).compose(h.inverse()).fwd == g.fwd
    dh, dg = h.degree, g.degree
    return CertificateReport(valid, f.degree, dg, dh,
                             square_bound=dh * dh <= dg,
                             linear_bound=dh <= dg)


def minimize_conjugator(f: PlaneAut, h: PlaneAut) -> PlaneAut:
    """Minimize deg(h f^l) over l; h f^l conjugates f to the same element."""
    if f.degree <= 1:
        return h
    best = h
    for step in (f, f.inverse()):
        cur = h
        prev = h.degree
        rising = 0
        for _ in range(64):
            cur = cur.compose(step)
            d = cur.degree
            if d < best.degree:
                best = cur
            rising = rising + 1 if d >= prev else 0
            prev = d
            if rising >= 2:
                break
    return best
