"""Command-line front end.

Exit codes: 0 on success, 1 on domain errors (pole at t=0, not invertible,
wrong characteristic, missing roots in the field), 2 on usage and parse
errors, including field literals like 1/2 over F2.  JSON mode always emits
a single object {"verdict": ..., "data": ..., "checks": ...}.
"""

from __future__ import annotations

import argparse
import json
import sys

from .amalgam import (
    _check_conjugation,
    _composites_agree,
    henon_invariants,
    henon_normalize,
    jvdk_factor,
    plane_aut_from_endo,
)
from .conjugacy import (
    decide_conjugacy,
    decompose_v_delta,
    in_v_subspace,
    normal_form,
    verify_conjugacy_certificate,
)
from .degeneration import (
    DegenerationWitness,
    _family_aut,
    _nonzero_samples,
    degenerate_family_ii,
    degenerate_family_iii,
    degenerate_family_iv,
    lift_endo,
    lift_plane_aut,
    pole_propagation_check,
    x_alpha,
)
from .endo import Endo, degree_sequence, is_dynamically_regular
from .errors import NotAlgebraicError, ParseError, PlaneAutError, UnsupportedFieldError
from .parsing import parse_automorphism, parse_polynomial
from .rings import LaurentRing, field_from_name, up_to_str


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="planeaut",
        description="Exact computations with polynomial automorphisms of the plane.")
    sub = top.add_subparsers(dest="verb", required=True, metavar="verb")
    for verb, (n, help_text, _, _) in _VERBS.items():
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("exprs", nargs="*", metavar="expr",
                       help=f"{n} input expression(s)" if n > 1 else "input expression")
        p.add_argument("--field", default="Q", help="Q or Fp:<prime> (default Q)")
        p.add_argument("--format", default="text", choices=["text", "json"])
        p.add_argument("--file", help="read input expressions from a file, one per line")
        if verb == "degseq":
            p.add_argument("--n", type=_count, default=4, help="number of iterates")
        if verb == "degenerate":
            p.add_argument("--variant", default="F1", choices=["F1", "F2"],
                           help="which degeneration of a family-(iv) member")
    return top


def _count(text: str) -> int:
    """argparse type of --n: an int >= 0."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


# -- per-verb handlers: (field, inputs, args) -> (verdict, data, checks) -----

def _is_family(v) -> bool:
    return isinstance(v.ring, LaurentRing)


def _as_family(v, field) -> Endo:
    return v if _is_family(v) else lift_endo(v, LaurentRing(field))


def _require_endo(v, verb) -> Endo:
    if _is_family(v):
        raise PlaneAutError(f"{verb} expects a map over the base field, not a t-family")
    return v


def _cmd_compose(field, inputs, args):
    f, g = inputs
    if _is_family(f) or _is_family(g):
        f, g = _as_family(f, field), _as_family(g, field)
    return "ok", {"result": str(f.compose(g))}, {}


def _cmd_inverse(field, inputs, args):
    v = inputs[0]
    aut = _family_aut(v) if _is_family(v) else plane_aut_from_endo(v)
    return "ok", {"inverse": str(aut.inv)}, {"composition": aut.verify()}


def _cmd_factor(field, inputs, args):
    e = _require_endo(inputs[0], "factor")
    word = jvdk_factor(e)
    degs = [fac.degree for fac in word.factors]
    return "ok", {
        "factors": [fac.describe() for fac in word.factors],
        "degrees": degs,
        "length": len(word.factors),
    }, {"recomposition": _composites_agree(e.ring, word.chain_steps(e.ring.one), [e.term_dicts()])}


def _cmd_classify(field, inputs, args):
    aut = plane_aut_from_endo(_require_endo(inputs[0], "classify"))
    try:
        nf = normal_form(aut)
    except NotAlgebraicError:
        degs = henon_invariants(henon_normalize(aut))
        return "Henon", {"family": "Henon", "jonquieres_degrees": list(degs),
                         "word_length": len(degs)}, {}
    data = {"family": nf.family,
            "multiplier": field.to_str(nf.multiplier) if nf.multiplier is not None else None,
            "order": nf.order,
            "polynomial": (up_to_str(field, nf.expanded(), "x2")
                           if nf.family in ("II", "III", "IV") else None),
            "representative": str(nf.aut.fwd),
            "conjugator": str(nf.conjugator.fwd)}
    checks = {"conjugation": _check_conjugation(nf.conjugator, aut, nf.aut)}
    return f"family {nf.family}", data, checks


def _cmd_conj_test(field, inputs, args):
    f = plane_aut_from_endo(_require_endo(inputs[0], "conj-test"))
    g = plane_aut_from_endo(_require_endo(inputs[1], "conj-test"))
    res = decide_conjugacy(f, g)
    data = {"families": [res.family_f, res.family_g], "reason": res.reason,
            "conjugator": str(res.conjugator.fwd) if res.conjugator else None}
    checks = {"notes": list(res.checks)}
    if res.verdict == "yes":
        checks["certificate"] = verify_conjugacy_certificate(f, g, res.conjugator).describe()
    return res.verdict, data, checks


def _cmd_degseq(field, inputs, args):
    f = _require_endo(inputs[0], "degseq")
    if f.nvars == 2:
        # an automorphism iterates along its factor word; any other map as
        # its own polynomials
        try:
            f = plane_aut_from_endo(f)
        except PlaneAutError:
            pass
    return "ok", {"degrees": degree_sequence(f, args.n)}, {}


def _cmd_regular(field, inputs, args):
    aut = plane_aut_from_endo(_require_endo(inputs[0], "regular"))
    reg = is_dynamically_regular(aut)
    return str(reg).lower(), {"regular": reg, "degree": aut.degree}, {}


def _cmd_degenerate(field, inputs, args):
    aut = plane_aut_from_endo(_require_endo(inputs[0], "degenerate"))
    nf = normal_form(aut)
    if nf.family == "I":
        raise PlaneAutError("family I members are diagonal; no degeneration applies")
    if nf.family == "II":
        w = degenerate_family_ii(field, nf.P)
    elif nf.family == "III":
        w = degenerate_family_iii(field, nf.multiplier, nf.order, nf.P)
    else:
        w = degenerate_family_iv(field, nf.expanded(), args.variant)
    # re-anchor the witness on the input map: rep = h f h^-1 composes into it
    L = w.family.ring
    conj = lift_plane_aut(nf.conjugator.inverse(), L).compose(w.conjugator)
    w = DegenerationWitness(aut, w.family_tag, conj, w.family, w.limit, w.params)
    checks = {"conjugation_identity": w.verify(), "specializations": {}}
    for c in _nonzero_samples(field, 3):
        checks["specializations"][field.to_str(c)] = w.specialization_check(c)
    data = w.describe()
    data["normal_form_family"] = nf.family
    return "ok", data, checks


def _cmd_xalpha(field, inputs, args):
    fam = _as_family(inputs[0], field)
    xs = x_alpha(fam)
    return "ok", xs.describe(), {}


def _cmd_pole_check(field, inputs, args):
    aut = plane_aut_from_endo(_require_endo(inputs[0], "pole-check"))
    fam = _as_family(inputs[1], field)
    rep = pole_propagation_check(aut, fam)
    verdict = "consistent" if rep.implication_holds and rep.dichotomy_holds else "violated"
    return verdict, rep.describe(), {"implication": rep.implication_holds,
                                     "dichotomy": rep.dichotomy_holds}


def _cmd_decompose_vp(field, inputs, args):
    dec = decompose_v_delta(field, inputs[0])
    data = {"input": up_to_str(field, dec.F, "x1"),
            "v": up_to_str(field, dec.v, "x1"),
            "r": up_to_str(field, dec.r, "x1")}
    return "ok", data, {"identity": dec.verify(field),
                        "v_in_V": in_v_subspace(field, dec.v)}


# verb -> (arity, help, parser of one input, handler); the order is the --help order
_VERBS = {
    "compose": (2, "compose two maps (or families)", parse_automorphism, _cmd_compose),
    "inverse": (1, "invert a plane map or family", parse_automorphism, _cmd_inverse),
    "factor": (1, "affine/triangular factorization of a Jacobian-1 plane map",
               parse_automorphism, _cmd_factor),
    "classify": (1, "conjugacy normal form (families I-IV) or Henon data",
                 parse_automorphism, _cmd_classify),
    "conj-test": (2, "decide conjugacy of two plane maps", parse_automorphism, _cmd_conj_test),
    "degseq": (1, "degrees of the first n iterates", parse_automorphism, _cmd_degseq),
    "regular": (1, "test deg(f o f) = deg(f)^2", parse_automorphism, _cmd_regular),
    "degenerate": (1, "one-parameter degeneration of a normal-form member",
                   parse_automorphism, _cmd_degenerate),
    "xalpha": (1, "limit points at infinity of a family with a pole",
               parse_automorphism, _cmd_xalpha),
    "pole-check": (2, "pole propagation report for a map and a family",
                   parse_automorphism, _cmd_pole_check),
    "decompose-vp": (1, "split a polynomial over F_p as v + (r(x+1) - r(x))",
                     parse_polynomial, _cmd_decompose_vp),
}


# -- report emission ---------------------------------------------------------

def _emit(args, verdict, data, checks):
    if args.format == "json":
        print(json.dumps({"verdict": verdict, "data": data, "checks": checks},
                         indent=2, default=str))
        return
    print(f"verdict: {verdict}")
    for k, v in data.items():
        print(f"{k}: {v if isinstance(v, str) else json.dumps(v, default=str)}")
    for k, v in checks.items():
        print(f"check {k}: {v if isinstance(v, str) else json.dumps(v, default=str)}")


def _emit_error(args, exc, code):
    payload = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ParseError) and exc.pos is not None:
        payload["position"] = exc.pos
    if args.format == "json":
        print(json.dumps({"verdict": "error", "data": payload, "checks": {}},
                         indent=2))
    else:
        print(f"error: {payload['message']}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        field = field_from_name(args.field)
    except UnsupportedFieldError as exc:
        parser.error(str(exc))
    raw = list(args.exprs)
    if args.file:
        try:
            with open(args.file) as fh:
                raw += [line.strip() for line in fh if line.strip()]
        except (OSError, UnicodeDecodeError) as exc:
            parser.error(str(exc))
    arity, _, parse, handler = _VERBS[args.verb]
    if len(raw) != arity:
        parser.error(f"{args.verb} takes {arity} expression(s), got {len(raw)}")
    try:
        inputs = [parse(src, field) for src in raw]
        verdict, data, checks = handler(field, inputs, args)
    except ParseError as exc:
        return _emit_error(args, exc, 2)
    except PlaneAutError as exc:
        return _emit_error(args, exc, 1)
    _emit(args, verdict, data, checks)
    return 0


if __name__ == "__main__":
    sys.exit(main())
