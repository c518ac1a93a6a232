"""Golden-file and exit-code coverage for the command line interface.

Regenerate the golden corpus by running each CASES entry through
planeaut.cli.main with --format text and --format json and freezing stdout.
"""
import json
import time
from pathlib import Path

import pytest

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


def test_deep_nesting_is_exit_2(capsys):
    rc = main(["inverse", "(" + "(" * 3000 + "x1" + ")" * 3000 + ", x2)"])
    assert rc == 2
    assert "nested deeper" in capsys.readouterr().err


def test_huge_exponent_inverse_is_fast(capsys):
    # argument powers are built by squaring, not by a ladder up to 10^8
    start = time.perf_counter()
    rc = main(["inverse", "(x1 + x2^100000000, x2)"])
    elapsed = time.perf_counter() - start
    assert rc == 0
    assert "inverse: (-x2^100000000 + x1, x2)\n" in capsys.readouterr().out
    assert elapsed < 5.0
