"""Golden-file and exit-code coverage for the command line interface.

Regenerate the golden corpus by running each CASES entry through
planeaut.cli.main with --format text and --format json and freezing stdout.
"""
import json
import time
from pathlib import Path

import pytest

from planeaut import PlaneAut, cli
from planeaut.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "compose":      ["compose", "(x2, -x1 + x2^2)", "(x1, x2 + 1)"],
    "inverse":      ["inverse", "(x2, -x1 + x2^2)"],
    "factor":       ["factor", "(x2, -x1 + x2^2)"],
    "classify":     ["classify", "(2*x1 + x2^3, 1/2*x2)"],
    "conj-test":    ["conj-test", "(x1 + x2^2, x2)", "(x1 + 8*x2^2 + 8*x2 + 2, x2)"],
    "degseq":       ["degseq", "(x1 + x2^2, x2 + x3^2, x3)", "--n", "4"],
    "regular":      ["regular", "(-x2, x1 + x2^2)"],
    "degenerate":   ["degenerate", "(x1 + x2^2 + 1, x2)"],
    "xalpha":       ["xalpha", "(t*x1, t^-1*x2)"],
    "pole-check":   ["pole-check", "(x2, -x1 + x2^2)", "(t*x1, t^-1*x2)"],
    "decompose-vp": ["decompose-vp", "x1^2 + x1", "--field", "Fp:2"],
}


@pytest.mark.parametrize("fmt,ext", [("text", "txt"), ("json", "json")])
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, fmt, ext, capsys):
    rc = main(CASES[name] + ["--format", fmt])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == (GOLDEN / f"{name}.{ext}").read_text()


def test_json_outputs_are_single_objects():
    for name in CASES:
        doc = json.loads((GOLDEN / f"{name}.json").read_text())
        assert set(doc) == {"verdict", "data", "checks"}


# -- t-families -------------------------------------------------------------

NON_TAME = "((1+t)*(x1 + x2^2) + x2, t*(x1 + x2^2) + x2)"
NON_TAME_INVERSE = ("(-t^2*x1^2 + (2*t^2 + 2*t)*x1*x2 + (-t^2 - 2*t - 1)*x2^2 + x1 - x2, "
                    "-t*x1 + (t + 1)*x2)")


def test_family_inverse_text_and_json(capsys):
    assert main(["inverse", NON_TAME]) == 0
    assert capsys.readouterr().out == (
        f"verdict: ok\ninverse: {NON_TAME_INVERSE}\ncheck composition: true\n")
    assert main(["inverse", NON_TAME, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "verdict": "ok", "data": {"inverse": NON_TAME_INVERSE},
        "checks": {"composition": True}}


def test_family_inverse_composition_is_computed(monkeypatch, capsys):
    # a wrong inverse must show in the check, not a fixed true
    monkeypatch.setattr(cli, "_family_aut", lambda e: PlaneAut(e, e, verify=False))
    assert main(["inverse", NON_TAME, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["checks"] == {"composition": False}


# -- exit codes --------------------------------------------------------------

def test_parse_error_is_exit_2(capsys):
    rc = main(["degseq", "(x1 +, x2)"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_parse_error_json_carries_position(capsys):
    rc = main(["degseq", "(x1 +, x2)", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert doc["verdict"] == "error"
    assert doc["data"]["error"] == "ParseError"
    assert isinstance(doc["data"]["position"], int)


def test_field_literal_error_is_exit_2(capsys):
    rc = main(["compose", "(x1 + 1/2, x2)", "(x1, x2)", "--field", "Fp:2"])
    assert rc == 2
    assert "cannot divide" in capsys.readouterr().err


def test_bad_field_descriptor_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["degseq", "(x1, x2)", "--field", "Fp:9"])
    assert exc.value.code == 2


def test_wrong_arity_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compose", "(x1, x2)"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["xalpha", "(x1 + t*x2, x2)"],                 # no pole
    ["inverse", "(x1*x2, x2)"],                    # not invertible
    ["decompose-vp", "x1^2", "--field", "Q"],      # needs positive characteristic
    ["degenerate", "(2*x1 + x2^3, 1/2*x2)"],       # family I has no degeneration
], ids=["no-pole", "not-invertible", "char-zero", "family-I"])
def test_domain_errors_are_exit_1(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("argv,message", [
    (["xalpha", "(t*x1, x2)"], "family valuation is 0; X_alpha needs a pole"),
    (["inverse", "(t*x1 + x2, x2, x3)"], "generic family inversion is implemented for the plane"),
    (["pole-check", "(x2, -x1 + x2^2)", "(t^-1*x1, x2, x3)"],
     "generic family inversion is implemented for the plane"),
    (["inverse", "((1+t)*x1, x2)"], "inverse leaves K[t,1/t]; not a family automorphism"),
    (["inverse", "(t*x1^2, x2)"], "Jacobian determinant is not a nonzero constant"),
    (["compose", "(t*x1, x2, x3)", "(x1, x2)"], "compose with different variable counts"),
], ids=["xalpha-no-pole", "inverse-three-variables", "pole-check-three-variables",
        "inverse-non-unit-jacobian", "inverse-non-constant-jacobian", "compose-arity"])
def test_family_errors_are_exit_1(argv, message, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_factor_of_a_family_is_exit_1(capsys):
    assert main(["factor", "(x1 + t, x2)"]) == 1
    assert capsys.readouterr().err == (
        "error: factor expects a map over the base field, not a t-family\n")


@pytest.mark.parametrize("argv,nvars", [
    (["inverse", "(x1)"], 1),
    (["classify", "(x1, x2, x3)"], 3),
], ids=["one-variable", "three-variables"])
def test_non_plane_map_is_exit_1(argv, nvars, capsys):
    rc = main(argv)
    assert rc == 1
    assert capsys.readouterr().err == f"error: a plane map has 2 variables, got {nvars}\n"


def test_negative_iterate_count_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["degseq", "(x1, x2)", "--n", "-1"])
    assert exc.value.code == 2
    assert "--n: must be >= 0, got -1" in capsys.readouterr().err
    assert main(["degseq", "(x1, x2)", "--n", "0"]) == 0
    assert capsys.readouterr().out == "verdict: ok\ndegrees: []\n"


def test_non_integer_iterate_count_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["degseq", "(x2, -x1 + x2^2)", "--n", "x"])
    assert exc.value.code == 2
    assert "--n: invalid int value: 'x'" in capsys.readouterr().err


def test_domain_error_json_shape(capsys):
    rc = main(["xalpha", "(x1 + t*x2, x2)", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert doc["verdict"] == "error"
    assert doc["data"]["error"] == "NoPoleError"
    assert doc["checks"] == {}


# -- file input --------------------------------------------------------------

def test_file_input(tmp_path, capsys):
    src = tmp_path / "maps.txt"
    src.write_text("(x2, -x1 + x2^2)\n\n(x1, x2 + 1)\n")
    rc = main(["compose", "--file", str(src)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == (GOLDEN / "compose.txt").read_text()


def test_missing_file_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["inverse", "--file", str(tmp_path / "absent.txt")])
    assert exc.value.code == 2


def test_undecodable_file_is_usage_error(tmp_path, capsys):
    src = tmp_path / "maps.txt"
    src.write_bytes(b"\xff\xfe(x1, x2)\n")
    with pytest.raises(SystemExit) as exc:
        main(["factor", "--file", str(src)])
    assert exc.value.code == 2
    assert "can't decode" in capsys.readouterr().err


def test_deep_nesting_is_exit_2(capsys):
    rc = main(["inverse", "(" + "(" * 3000 + "x1" + ")" * 3000 + ", x2)"])
    assert rc == 2
    assert "nested deeper" in capsys.readouterr().err


@pytest.mark.parametrize("verb,line", [
    ("inverse", "inverse: (-x2^100000000 + x1, x2)\n"),
    ("factor", 'factors: [{"tag": "jonquieres", "a": "1", "P": "1*x2^100000000", "c": "0"}]\n'),
    ("classify", "representative: (x2^100000000 + x1, x2)\n"),
], ids=["inverse", "factor", "classify"])
def test_huge_exponent_inverse_is_fast(verb, line, capsys):
    # argument and substitution powers are built by squaring, not by a ladder
    # up to 10^8
    start = time.perf_counter()
    rc = main([verb, "(x1 + x2^100000000, x2)"])
    elapsed = time.perf_counter() - start
    assert rc == 0
    assert line in capsys.readouterr().out
    assert elapsed < 5.0


@pytest.mark.parametrize("field,src,line", [
    ("Fp:5", "(x1 + x2^48828125, x2 + 1)", "inverse: (4*x2^48828125 + x1 + 1, x2 + 4)\n"),
    ("Fp:2", "(x1 + x2^1073741824, x2 + 1)", "inverse: (x2^1073741824 + x1 + 1, x2 + 1)\n"),
], ids=["F5-5^11", "F2-2^30"])
def test_frobenius_exponent_inverse_is_fast(field, src, line, capsys):
    # (x2 + 1)^(p^k) = x2^(p^k) + 1 is built by relabelling exponents, where
    # squaring builds the dense (x2 + 1)^(2^i) on the way.  An exponent
    # p^k - 1 stays slow: (x2 + 1)^(p^k - 1) is genuinely dense, with p^k
    # terms, so such inputs are not claimed here.
    start = time.perf_counter()
    rc = main(["inverse", src, "--field", field])
    elapsed = time.perf_counter() - start
    assert rc == 0
    assert line in capsys.readouterr().out
    assert elapsed < 1.0


# -- the growth decision: Henon classify, mixed and non-special inputs ------

HENON_CLASSIFY_TEXT = ("verdict: Henon\nfamily: Henon\njonquieres_degrees: [2]\n"
                       "word_length: 1\n")


def test_classify_henon_text_and_json(capsys):
    assert main(["classify", "(x2, -x1 + x2^2)"]) == 0
    assert capsys.readouterr().out == HENON_CLASSIFY_TEXT
    assert main(["classify", "(x2, -x1 + x2^2)", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "verdict": "Henon",
        "data": {"family": "Henon", "jonquieres_degrees": [2], "word_length": 1},
        "checks": {}}


@pytest.mark.parametrize("f", ["(x2, -x1)", "(2*x1, x2)"], ids=["rotation", "non-special"])
def test_conj_test_algebraic_against_henon_is_no(f, capsys):
    # (x2, -x1) has no eigenvalue over Q, so it has no normal form: the
    # answer rests on degree growth alone
    assert main(["conj-test", f, "(x2, -x1 + x2^2)"]) == 0
    assert capsys.readouterr().out == (
        'verdict: no\nfamilies: ["algebraic", "Henon"]\n'
        "reason: one map has bounded degree growth, the other does not\n"
        "conjugator: null\ncheck notes: []\n")


@pytest.mark.parametrize("argv,message", [
    (["conj-test", "(2*x1, x2)", "(3*x1, x2)"],
     "normal forms are for Jacobian-1 automorphisms"),
    (["classify", "(2*x1, x2)"], "normal forms are for Jacobian-1 automorphisms"),
    (["conj-test", "(x2, -2*x1 + x2^2)", "(x2, -x1 + x2^2)"],
     "factorization needs Jacobian determinant 1"),
    (["conj-test", "(x2, -x1 + x2^2)", "(x2, -2*x1 + x2^2)"],
     "factorization needs Jacobian determinant 1"),
    (["classify", "(x2, -2*x1 + x2^2)"], "factorization needs Jacobian determinant 1"),
], ids=["conj-algebraic", "classify-algebraic", "conj-henon-f", "conj-henon-g",
        "classify-henon"])
def test_non_special_inputs_are_exit_1(argv, message, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def _json(argv, capsys):
    assert main(argv + ["--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("f,g,field,verdict,reason,conjugator", [
    ("(x1, x2)", "(x1, x2)", "Q", "yes", "both are the identity", "(x1, x2)"),
    ("(x1 + 1, x2)", "(x1 + 2, x2)", "Q", "yes",
     "constant translations rescale to each other", "(2*x1, 1/2*x2)"),
    ("(x1, x2)", "(x1 + 1, x2)", "Q", "no", "only one side is the identity", None),
    ("(2*x1 + x2^2, 4*x2)", "(2*x1 + 3*x2^2, 4*x2)", "Fp:7", "unknown",
     "requires field extension for the diagonal scalar", None),
    ("(2*x1 + x2^2 + x2^5, 4*x2)", "(2*x1 + x2^2 + 3*x2^5, 4*x2)", "Fp:7", "no",
     "scalar power system is inconsistent", None),
], ids=["identities", "translations", "one-identity", "f7-unknown", "f7-inconsistent"])
def test_conj_test_verdict_branches(f, g, field, verdict, reason, conjugator, capsys):
    doc = _json(["conj-test", f, g, "--field", field], capsys)
    assert (doc["verdict"], doc["data"]["reason"], doc["data"]["conjugator"]) == (
        verdict, reason, conjugator)
    if verdict == "yes":
        assert doc["checks"]["certificate"]["valid"]


def test_classify_swap_over_f2_is_family_ii(capsys):
    # trace 0 over F2: the eigenvalue 1 is read off the trace, not a square root
    doc = _json(["classify", "(x2, x1)", "--field", "Fp:2"], capsys)
    assert doc["verdict"] == "family II"
    assert doc["data"]["representative"] == "(x1 + x2, x2)"
    assert doc["checks"] == {"conjugation": True}


def test_compose_family_with_map_over_f5(capsys):
    doc = _json(["compose", "(t*x1, t^-1*x2)", "(x1 + x2^2, x2)", "--field", "Fp:5"], capsys)
    assert doc["data"]["result"] == "(t*x2^2 + t*x1, t^-1*x2)"


@pytest.mark.parametrize("argv", [
    ["(2*x1 + x2^2, 4*x2)", "--field", "Fp:7"],
    ["(x1 + x2^4, x2 + 1)", "--field", "Fp:5", "--variant", "F1"],
    ["(x1 + x2^4, x2 + 1)", "--field", "Fp:5", "--variant", "F2"],
], ids=["f7-iii", "f5-iv-F1", "f5-iv-F2"])
def test_degenerate_over_fp_checks_hold(argv, capsys):
    checks = _json(["degenerate"] + argv, capsys)["checks"]
    assert checks["conjugation_identity"]
    assert checks["specializations"] and all(checks["specializations"].values())


# -- hostile inputs ---------------------------------------------------------

P61 = f"Fp:{2 ** 61 - 1}"
HOSTILE = "(x1^100000000 + x2, x2 + x1^2)"
HOSTILE_MIXED = "(x1^100000000 + x1^50000000*x2^50000000 + x2, x1^2 + x1*x2)"
NESTED = "(" + "(" * 100 + "x1" + ")" * 100 + ", x2)"

# (exit code, argv).  Left out because they do not finish:
# - classify "(x1 + x2^1000000, x2 + 1)" --field Fp:3, a Jung stage at
#   degree 10^6 in characteristic p;
# - degseq "(x2, -x1 + x2^2)" --n 100000000, iterates of degree 2^k;
# - degseq HOSTILE --n 2 and compose HOSTILE HOSTILE, which build
#   (x2 + x1^2)^(10^8);
# - decompose-vp "x1^100000000" --field Fp:3, a difference equation of degree 10^8.
HOSTILE_SWEEP = [
    (1, ["inverse", "(x1)"]),
    (1, ["classify", "(x1)"]),
    (0, ["degseq", "(x1^2)", "--n", "3"]),
    (1, ["regular", "(x1^2)"]),
    (1, ["classify", "(x1, x2, x3)"]),
    (1, ["factor", "(x2, x3, x1)"]),
    (1, ["regular", "(x1, x2 + x1^2, x3)"]),
    (2, ["inverse", "()"]),
    (2, ["degseq", "()", "--n", "2"]),
    (1, ["factor", "(x1 + t, x2)"]),
    (1, ["classify", "(t*x1, t^-1*x2)"]),
    (1, ["degseq", "(x2, -x1 + t*x2^2)", "--n", "3"]),
    (1, ["regular", "(x2, -x1 + t*x2^2)"]),
    (1, ["degenerate", "(x1 + t*x2^2, x2)"]),
    (1, ["conj-test", "(t*x1, t^-1*x2)", "(x1, x2)"]),
    (1, ["pole-check", "(t*x1, t^-1*x2)", "(t*x1, t^-1*x2)"]),
    (1, ["inverse", "(0, 0)"]),
    (1, ["classify", "(0, 0)"]),
    (1, ["factor", "(0, 0)"]),
    (0, ["degseq", "(0, 0)", "--n", "3"]),
    (1, ["regular", "(0, 0)"]),
    (1, ["xalpha", "(0, 0)"]),
    (0, ["decompose-vp", "0", "--field", "Fp:3"]),
    (0, ["inverse", "(x2, -x1 + x2^2)", "--field", P61]),
    (0, ["classify", "(x1 + x2^2, x2)", "--field", P61]),
    (0, ["conj-test", "(x1 + x2^2, x2)", "(x1 + 3*x2^2, x2)", "--field", P61]),
    (0, ["degseq", "(x2, -x1 + x2^2)", "--n", "4", "--field", P61]),
    (0, ["degenerate", "(x1 + x2^2 + 1, x2)", "--field", P61]),
    (0, ["decompose-vp", "x1^3 + x1", "--field", P61]),
    # 2^89 - 1 is prime, above the bound of deterministic Miller-Rabin
    (2, ["inverse", "(x1, x2)", "--field", f"Fp:{2 ** 89 - 1}"]),
    (2, ["inverse", "(x1, x2)", "--field", "Fp:4"]),
    (0, ["xalpha", "(t^-1000000*x1, t^1000000*x2)"]),
    (0, ["inverse", "(t^1000000*x1, t^-1000000*x2)"]),
    (0, ["compose", "(t^1000000*x1, t^-1000000*x2)", "(t^-1000000*x1, t^1000000*x2)"]),
    (0, ["pole-check", "(x2, -x1 + x2^2)", "(x1 + t^-1000000, x2)"]),
    # degree <= 1: certified by 2x3 matrix products
    (1, ["inverse", "(x2, x2)"]),
    (1, ["inverse", "((t+1)*x1, x2)"]),
    (0, ["inverse", "(t*x1 + x2, t^-1*x2)"]),
    (0, ["inverse", "(2*x1 + t^-3, t*x2 + 1)"]),
    (0, ["conj-test", "(2*x1 + 3, 1/2*x2)", "(2*x1, 1/2*x2 + 5)", "--field", P61]),
    (1, ["pole-check", "(x1 + 1, x2)", "(t*x1, t^-1*x2)"]),
    # X_alpha of rank-one and rank-two slices, a cancelling pole check
    (0, ["xalpha", "(t^-1*x1, 2*t^-1*x1)", "--field", "Fp:1000003"]),
    (0, ["xalpha", "(t^-1*x1, t^-1*x2)"]),
    (0, ["xalpha", "(t^-1*x1 + t^-1*x2^2, t^-1*x2)"]),
    (0, ["pole-check", "(x1 + x2^2, x2)", "(x1 + 1/t, x2)"]),
    (1, ["inverse", HOSTILE]),
    (1, ["inverse", HOSTILE, "--field", "Fp:2"]),
    (1, ["classify", HOSTILE_MIXED]),
    (1, ["factor", HOSTILE]),
    (1, ["regular", HOSTILE]),
    (1, ["conj-test", HOSTILE, "(x2, -x1 + x2^2)"]),
    (1, ["degenerate", HOSTILE_MIXED]),
    (1, ["pole-check", HOSTILE, "(x1 + t^-1*x2^2, x2)"]),
    (0, ["degseq", HOSTILE, "--n", "1"]),
    (0, ["xalpha", "(x1^100000000 + t^-1*x2, x2 + x1^2)"]),
    (2, ["inverse", "(x1 + 1/0, x2)"]),
    (2, ["inverse", "(x1 + 1/2, x2)", "--field", "Fp:2"]),
    (2, ["inverse", "(x1^-1, x2)"]),
    (0, ["inverse", NESTED]),
    (2, ["inverse", NESTED.replace("x1", "(x1)")]),
    (2, ["degseq", "(x2, -x1 + x2^2)", "--n", "-1"]),
    (2, ["degseq", "(x2, -x1 + x2^2)", "--n", "x"]),
]


def test_hostile_inputs_exit_with_their_code_within_5_seconds(capsys):
    """Each hostile input ends in its exit code, 0, 1 or 2, with no other
    exception, and the sweep takes under 5 s."""
    start = time.perf_counter()
    for code, argv in HOSTILE_SWEEP:
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        assert rc == code, argv
    assert time.perf_counter() - start < 5
