"""End-to-end CLI behaviour: output shapes, determinism, exit codes."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import evoalg
from evoalg import FieldSpec, Matrix, ParseError
from evoalg.cli import AlgebraFile, main
from support import (
    CLOSED_WITHIN_TOL_REAL_ROWS,
    CLOSED_WITHIN_TOL_SPAN,
    CUBIC_OVERFLOW_REAL_ROWS,
    LARGEST_PRIME,
    NEAR_SINGULAR_REAL_ROWS,
    NEAR_TOL_REAL_ROWS,
    NO_CODIM1_OVER_Q_ROWS,
    ROOT_BEYOND_FLOATS_REAL_ROWS,
    SCALED_1E6_ROWS,
    SHIFT_NILPOTENT_ROWS,
    SMALL_LEAD_REAL_ROWS,
    TINY_CUBIC_REAL_ROWS,
    identity_rows,
    scalar_elimination,
)

REALS = {"kind": "R", "tol": 1e-9}


def module_env():
    """Environment for a ``python -m evoalg`` child that imports the same
    package as this process, whether it comes from an install or from
    pytest's path."""
    path = [str(Path(evoalg.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


def run_module(*argv, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "evoalg", *argv],
        capture_output=True,
        text=True,
        env=module_env(),
        timeout=timeout,
    )


def write_algebra(tmp_path, name, field, dim, rows):
    path = tmp_path / name
    obj = {"field": field, "dim": dim, "matrix": [[str(x) for x in row] for row in rows]}
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def dense3(tmp_path):
    return write_algebra(tmp_path, "dense3.alg", {"kind": "Q"}, 3, NO_CODIM1_OVER_Q_ROWS)


@pytest.fixture
def dense3_real(tmp_path):
    return write_algebra(
        tmp_path, "dense3r.alg", {"kind": "R", "tol": 1e-9}, 3, NO_CODIM1_OVER_Q_ROWS
    )


@pytest.fixture
def nilpotent_f2(tmp_path):
    return write_algebra(tmp_path, "nil.alg", {"kind": "Fp", "p": 2}, 3, SHIFT_NILPOTENT_ROWS)


@pytest.fixture
def identity2(tmp_path):
    return write_algebra(tmp_path, "id2.alg", {"kind": "Q"}, 2, [[1, 0], [0, 1]])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_human(dense3, capsys):
    code, out, err = run(capsys, "info", dense3)
    assert code == 0 and err == ""
    assert "field: Q" in out
    assert "dim: 3" in out
    assert "[1, -1, 1]" in out


def test_info_json_roundtrip(dense3, tmp_path, capsys):
    code, out, _ = run(capsys, "info", dense3, "--json")
    assert code == 0
    reparsed = AlgebraFile.from_json_obj(json.loads(out))
    assert reparsed == AlgebraFile.from_path(dense3)
    # Re-emitting the canonical output is a fixed point, byte for byte.
    second = tmp_path / "copy.alg"
    second.write_text(out)
    code2, out2, _ = run(capsys, "info", str(second), "--json")
    assert code2 == 0 and out2 == out


def test_info_canonicalizes_scalars(tmp_path, capsys):
    path = write_algebra(tmp_path, "messy.alg", {"kind": "Q"}, 2, [["2/4", "0"], ["0", "-3/3"]])
    code, out, _ = run(capsys, "info", str(path), "--json")
    assert code == 0
    assert json.loads(out)["matrix"] == [["1/2", "0"], ["0", "-1"]]


def test_regular_verdicts(dense3, nilpotent_f2, capsys):
    code, out, _ = run(capsys, "regular", dense3)
    assert code == 0 and out.strip() == "regular (det = -1)"
    code, out, _ = run(capsys, "regular", nilpotent_f2)
    assert code == 0 and out.strip() == "not regular (det = 0)"
    code, out, _ = run(capsys, "regular", dense3, "--json")
    assert json.loads(out) == {"regular": True, "determinant": "-1"}


def test_codim1_reports_zero(dense3, capsys):
    code, out, _ = run(capsys, "codim1", dense3)
    assert code == 0
    assert out.splitlines()[0] == "0 codimension-one subalgebras"


def test_codim1_verbose_diagnostics(dense3, capsys):
    code, out, _ = run(capsys, "codim1", dense3, "--verbose")
    assert code == 0
    assert "pair (1,2): rank 1; row (2, 1); closure check: 5 vs -2 -> fails" in out
    assert "pair (1,3): rank 1; row (1, 1); closure check: 3 vs 0 -> fails" in out
    assert "pair (2,3): rank 0; cubic x^3 - x - 1; nonzero roots: (none)" in out


def test_codim1_real_root(dense3_real, capsys):
    code, out, _ = run(capsys, "codim1", dense3_real, "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 1
    entry = obj["subalgebras"][0]
    assert entry["pair"] == [2, 3]
    assert entry["case"] == "root"
    assert 1.3247 <= float(entry["root"]) <= 1.3248


def test_codim1_rejects_nonregular(nilpotent_f2, capsys):
    code, out, err = run(capsys, "codim1", nilpotent_f2)
    assert code == 1
    assert out == ""
    assert "regular" in err


def test_onedim_lines(identity2, capsys):
    code, out, _ = run(capsys, "onedim", identity2)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "3 one-dimensional subalgebras"
    assert "  span{e1}" in lines
    assert "  span{e2}" in lines
    assert "  span{e1 + e2}" in lines


def test_onedim_vector_residual(dense3, capsys):
    code, out, _ = run(capsys, "onedim", dense3, "--vector", "0,0,0")
    assert code == 0
    assert "residual: (0, 0, 0)" in out
    assert "residual is zero: yes" in out
    code, out, _ = run(capsys, "onedim", dense3, "--vector", "1,1,1", "--json")
    obj = json.loads(out)
    assert obj["is_zero"] is False


def test_onedim_unsupported_combination(dense3, capsys):
    code, _, err = run(capsys, "onedim", dense3)
    assert code == 1
    assert "dimension 2" in err


def test_verify_nilpotent_span(nilpotent_f2, capsys):
    code, out, _ = run(capsys, "verify", nilpotent_f2, "--span", "0,1,0;0,0,1")
    assert code == 0
    assert "subalgebra: yes" in out
    assert "natural basis: unavailable (ambient algebra not regular)" in out


def test_verify_regular_span_shows_basis(identity2, capsys):
    code, out, _ = run(capsys, "verify", identity2, "--span", "1,0")
    assert code == 0
    assert "subalgebra: yes" in out
    assert "e1  (support {1})" in out


def test_verify_negative_verdict(identity2, capsys):
    code, out, _ = run(capsys, "verify", identity2, "--span", "1,2")
    assert code == 0
    assert out.strip() == "subalgebra: no"


def test_regular_near_singular_reals(tmp_path, capsys):
    path = write_algebra(tmp_path, "sing.alg", REALS, 3, NEAR_SINGULAR_REAL_ROWS)
    code, out, err = run(capsys, "regular", path)
    assert (code, out, err) == (0, "not regular (det = 0)\n", "")


def test_regular_small_real_pivots(tmp_path, capsys):
    path = write_algebra(tmp_path, "small.alg", REALS, 3, [[1e-4, 0, 0], [0, 1e-4, 0], [0, 0, 1e-4]])
    code, out, err = run(capsys, "regular", path)
    assert (code, out, err) == (0, "regular (det = 9.9999999999999998e-13)\n", "")
    code, out, _ = run(capsys, "regular", path, "--json")
    assert code == 0 and json.loads(out)["regular"] is True


@pytest.mark.parametrize(
    "entry",
    ['"1e-400"', "1e-400", '"-0.5e-330"', "-0.5e-330"],
    ids=["text", "number", "negative-text", "negative-number"],
)
def test_real_entry_that_underflows_is_usage_error(tmp_path, capsys, entry):
    # A nonzero decimal that rounds to 0.0 is refused, not read as a zero.
    path = tmp_path / "under.alg"
    path.write_text(f'{{"field": {{"kind": "R", "tol": 1e-9}}, "dim": 2, "matrix": [[{entry}, 0], [0, 1]]}}')
    code, out, err = run(capsys, "regular", str(path))
    assert (code, out) == (2, "")
    text = entry.strip('"')
    assert err == f"error: real scalar underflows to zero: {text!r}\n"


def test_real_entries_that_stay_nonzero_or_are_zero_are_read(tmp_path, capsys):
    # A subnormal that stays nonzero is kept; a zero with any exponent is zero.
    path = tmp_path / "tiny.alg"
    path.write_text('{"field": {"kind": "R", "tol": 1e-9}, "dim": 2, "matrix": [["4e-324", 0e-999], ["-0.0e-999", 1]]}')
    code, out, err = run(capsys, "info", str(path), "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["matrix"] == [["4.9406564584124654e-324", "0"], ["0", "1"]]


def test_boolean_dim_is_rejected(tmp_path, capsys):
    obj = {"field": {"kind": "Q"}, "dim": True, "matrix": [["2"]]}
    with pytest.raises(ParseError, match="dim must be a positive integer, got True"):
        AlgebraFile.from_json_obj(obj)
    path = tmp_path / "bool.alg"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "info", str(path), "--json")
    assert (code, out) == (2, "")
    assert "dim" in err


@pytest.mark.parametrize(
    "field, reason",
    [
        ({"kind": "R", "tol": True}, "tolerance must be a positive finite float, got True"),
        ({"kind": "Q", "p": 5, "tol": 3}, "rationals take no field parameters"),
        ({"kind": "Fp", "p": True}, "modulus must be prime, got True"),
        ({"kind": "R", "tol": 10**400}, "tolerance must be a positive finite float"),
        ({"kind": "R", "tol": 0.9}, "tolerance must be below 1/2, got 0.9"),
    ],
    ids=["R-tol-true", "Q-with-p-and-tol", "Fp-p-true", "R-tol-huge-int", "R-tol-0.9"],
)
def test_bad_field_descriptor_is_usage_error(tmp_path, capsys, field, reason):
    path = write_algebra(tmp_path, "field.alg", field, 1, [[1]])
    code, out, err = run(capsys, "info", path)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {reason}") and err.count("\n") == 1


def test_unknown_field_keys_are_ignored(tmp_path, capsys):
    path = write_algebra(tmp_path, "extra.alg", {"kind": "Fp", "p": 5, "note": "x"}, 1, [[2]])
    code, out, err = run(capsys, "info", path)
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == ["field: F_5", "dim: 1"]


def test_codim1_real_overflow_is_one_line_error(tmp_path, capsys):
    # The cubic's root near 1e600 has no float.
    path = write_algebra(tmp_path, "ovf.alg", REALS, 2, ROOT_BEYOND_FLOATS_REAL_ROWS)
    code, out, err = run(capsys, "codim1", path)
    assert (code, out) == (1, "")
    assert err.startswith("error: real root search overflows") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command, head",
    [("onedim", "3 one-dimensional subalgebras"), ("codim1", "3 codimension-one subalgebras")],
    ids=["onedim", "codim1"],
)
def test_real_root_whose_line_overflows_when_squared_is_answered(tmp_path, capsys, command, head):
    # The cubic's roots 1e-300 and 1e308 are correctly rounded, so their
    # lines are answers; only verify, which squares e1 + 1e308*e2 in floats,
    # overflows.
    path = write_algebra(tmp_path, "ovf.alg", REALS, 2, CUBIC_OVERFLOW_REAL_ROWS)
    code, out, err = run(capsys, command, path)
    assert (code, err) == (0, "")
    assert [line.split("  [")[0] for line in out.splitlines()] == [
        head,
        "  span{e1}",
        "  span{e1 + 1e-300*e2}",
        "  span{e1 + 1e+308*e2}",
    ]
    assert run(capsys, "verify", path, "--span", "1,1e308") == (1, "", "error: real scalar must be finite, got inf\n")


@pytest.mark.parametrize(
    "command, head", [("onedim", "3 one-dimensional subalgebras"), ("codim1", "3 codimension-one subalgebras")]
)
def test_real_cubic_with_a_small_leading_coefficient_keeps_every_root(tmp_path, capsys, command, head):
    # 1e-8*x^3 + x^2 - 3x + 2 has roots near -1e8, 1 and 2.
    path = write_algebra(tmp_path, "small.alg", REALS, 2, SMALL_LEAD_REAL_ROWS)
    code, out, err = run(capsys, command, path)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == head
    assert [line.split("  [")[0] for line in lines[1:]] == [
        "  span{e1 - 100000002.99999993*e2}",
        "  span{e1 + 1.0000000100000004*e2}",
        "  span{e1 + 1.9999999200000032*e2}",
    ]


@pytest.mark.parametrize(
    "command, head", [("onedim", "1 one-dimensional subalgebra"), ("codim1", "1 codimension-one subalgebra")]
)
def test_real_cubic_with_zero_linear_term_is_answered(tmp_path, capsys, command, head):
    path = write_algebra(tmp_path, "tiny.alg", REALS, 2, TINY_CUBIC_REAL_ROWS)
    code, out, err = run(capsys, command, path)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == head
    assert lines[1].startswith("  span{e1 - 0.0012599210498948732*e2}")


def test_codim1_answers_roots_that_a_float_recheck_would_refuse(tmp_path, capsys):
    # The three roots are the correctly rounded roots of the exact cubic;
    # squaring e1 + t*e2 in floats rounds once more and calls a line open.
    rows = [[-1.0, -1.3799238948488982e-12], [1.0, 9.28075082094008e-13]]
    path = write_algebra(tmp_path, "recheck.alg", {"kind": "R", "tol": 1e-12}, 2, rows)
    code, out, err = run(capsys, "codim1", path)
    assert (code, err) == (0, "")
    assert [line.split("  [")[0] for line in out.splitlines()] == [
        "3 codimension-one subalgebras",
        "  span{e1 - 1.0000000000002258*e2}",
        "  span{e1 + 1.3799238948488982e-12*e2}",
        "  span{e1 + 0.99999999999977407*e2}",
    ]


def test_codim1_near_tol_real_algebra_is_answered(tmp_path, capsys):
    path = write_algebra(tmp_path, "neartol.alg", REALS, 3, NEAR_TOL_REAL_ROWS)
    code, out, err = run(capsys, "codim1", path)
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "0 codimension-one subalgebras"


def _int_of(text):
    """An int from its decimal text at any length, 600 digits at a time."""
    sign, digits = (-1, text[1:]) if text.startswith("-") else (1, text)
    n = 0
    for i in range(0, len(digits), 600):
        chunk = digits[i : i + 600]
        n = n * 10 ** len(chunk) + int(chunk)
    return sign * n


def test_regular_with_a_determinant_below_the_float_range_is_one_line_error(tmp_path, capsys):
    path = write_algebra(tmp_path, "tiny.alg", REALS, 2, [["1e-200", "0"], ["0", "1e-200"]])
    code, out, err = run(capsys, "regular", path)
    assert (code, out) == (1, "")
    assert err == "error: real product leaves the normal float range, got 0.0\n"


def test_real_negative_zero_prints_as_zero(tmp_path, capsys):
    # closure_cubic negates a[q,q] = 0 into -0.0.
    path = write_algebra(tmp_path, "nz.alg", REALS, 2, [["0", "-2e-9"], ["1", "0"]])
    code, out, err = run(capsys, "codim1", path, "--json")
    assert (code, err) == (0, "")
    assert '"-0"' not in out
    assert json.loads(out)["diagnostics"][0]["cubic"] == ["1", "0", "0", "2.0000000000000001e-09"]


def test_regular_renders_a_determinant_of_any_length(tmp_path, capsys):
    # 400-digit numerators and denominators: the determinant has more digits
    # than the interpreter converts to text in one piece.
    rng = random.Random(8)
    lo, hi = 10**399, 10**400
    rows = [[f"{rng.randrange(lo, hi)}/{rng.randrange(lo, hi)}" for _ in range(8)] for _ in range(8)]
    path = write_algebra(tmp_path, "long.alg", {"kind": "Q"}, 8, rows)
    code, out, err = run(capsys, "regular", path)
    assert (code, err) == (0, "")
    assert out.startswith("regular (det = ") and out.endswith(")\n")
    num, den = out[len("regular (det = ") : -2].split("/")
    det = AlgebraFile.from_path(path).algebra().determinant().value
    assert len(num) > 4300 and Fraction(_int_of(num), _int_of(den)) == det


# Large moduli are read in a child with a time limit, so a primality test
# that stalls fails the test instead of stalling the suite.
def test_regular_over_large_prime_answers_quickly(tmp_path):
    p = 2**61 - 1
    path = write_algebra(tmp_path, "bigp.alg", {"kind": "Fp", "p": p}, 2, [[1, 2], [3, 4]])
    start = time.perf_counter()
    proc = run_module("regular", path, timeout=5)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stdout) == (0, f"regular (det = {p - 2})\n")
    assert elapsed < 1.0


def test_regular_in_dimension_32_over_the_largest_prime_answers_quickly(tmp_path):
    # The elimination takes O(n^2) operations on ints of O(n * log p) bits.
    p, rng = LARGEST_PRIME, random.Random(107)
    rows = [[rng.randrange(p) for _ in range(32)] for _ in range(32)]
    det = scalar_elimination(Matrix.from_rows(FieldSpec.prime_field(p), rows))[2]
    path = write_algebra(tmp_path, "bigp32.alg", {"kind": "Fp", "p": p}, 32, rows)
    start = time.perf_counter()
    proc = run_module("regular", path, timeout=5)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stdout) == (0, f"regular (det = {det.value})\n")
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "p, reason",
    [
        # A strong pseudoprime to every prime base up to 37.
        (318665857834031151167461, "must be prime"),
        (2**127 - 1, "too large"),
    ],
)
def test_unusable_large_modulus_is_usage_error(tmp_path, p, reason):
    path = write_algebra(tmp_path, "hugep.alg", {"kind": "Fp", "p": p}, 1, [[1]])
    proc = run_module("regular", path, timeout=5)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert reason in proc.stderr and proc.stderr.count("\n") == 1


def test_onedim_line_scan_past_the_guard_is_one_line_error(tmp_path):
    path = write_algebra(tmp_path, "bigp2.alg", {"kind": "Fp", "p": 2**61 - 1}, 2, [[1, 0], [0, 1]])
    proc = run_module("onedim", path, timeout=5)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_verify_real_span_at_large_magnitude(tmp_path, capsys):
    path = write_algebra(tmp_path, "big.alg", REALS, 5, SCALED_1E6_ROWS)
    span = "1,0,0,0,0;0,1,0,0,0;0,0,1,0,3.5615528128088303;0,0,0,1,0"
    code, out, _ = run(capsys, "verify", path, "--span", span)
    assert code == 0
    assert out.splitlines()[0] == "subalgebra: yes"


def test_natural_basis_success(identity2, capsys):
    code, out, _ = run(capsys, "natural-basis", identity2, "--span", "1,1", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["natural_basis"] == [["1", "1"]]
    assert obj["supports"] == [[1, 2]]


def test_natural_basis_failure_exit_code(identity2, capsys):
    code, _, err = run(capsys, "natural-basis", identity2, "--span", "1,2")
    assert code == 1
    assert "not closed" in err


def test_real_span_closed_within_tol_is_one_line_error(tmp_path, capsys):
    # Closed and regular within tol, but the canonical basis shares e3.
    path = write_algebra(tmp_path, "near.alg", REALS, 3, CLOSED_WITHIN_TOL_REAL_ROWS)
    want = (
        "error: basis vectors e1 + 2.2723073892530792*e3 and e2 - 2.7725008164085168*e3 share e3: "
        "the subspace is closed only within tol, no natural basis\n"
    )
    for argv in (["verify"], ["verify", "--json"], ["natural-basis"]):
        assert run(capsys, *argv, path, "--span", CLOSED_WITHIN_TOL_SPAN) == (1, "", want), argv


def test_codim1_real_coefficient_near_one_is_printed(tmp_path, capsys):
    # 0.99999999999977407 equals one within tol 1e-12, but renders unlike it.
    rows = [[-1.0, -1.3799238948488982e-12], [1.0, 9.28075082094008e-13]]
    path = write_algebra(tmp_path, "near1.alg", {"kind": "R", "tol": 1e-12}, 2, rows)
    code, out, _ = run(capsys, "codim1", path)
    assert code == 0
    assert out.splitlines()[3] == (
        "  span{e1 + 0.99999999999977407*e2}  "
        "[pair (1,2): v = e1 + 0.99999999999977407*e2 (cubic root 0.99999999999977407)]"
    )


def test_commands_refuse_before_the_regularity_elimination(tmp_path, capsys, monkeypatch):
    # The elimination of the structure matrix is the dearest check: a span
    # that is not closed, or onedim over Q in dimension three, is answered
    # without it, for singular algebras too.
    def refuse(self):
        raise AssertionError("the structure matrix was eliminated")

    monkeypatch.setattr(evoalg.EvolutionAlgebra, "_elimination", refuse)
    for name, rows in (("id3", identity_rows(3)), ("nil", SHIFT_NILPOTENT_ROWS)):
        path = write_algebra(tmp_path, f"{name}.alg", {"kind": "Q"}, 3, rows)
        assert run(capsys, "verify", path, "--span", "1,2,0") == (0, "subalgebra: no\n", "")
        code, out, err = run(capsys, "verify", path, "--span", "1,2,0", "--json")
        assert code == 0 and json.loads(out)["note"] == "not a subalgebra"
        code, _, err = run(capsys, "natural-basis", path, "--span", "1,2,0")
        assert code == 1 and err == "error: subspace is not closed under the product\n"
        code, _, err = run(capsys, "onedim", path)
        assert code == 1 and "supports dimension 2 only" in err
        a = AlgebraFile.from_path(path).algebra()
        with pytest.raises(evoalg.NotASubalgebra):
            evoalg.Subspace.span(a, [a.element([1, 2, 0])]).natural_basis()
        with pytest.raises(evoalg.UnsupportedFieldDimension):
            evoalg.solve_onedim(a)


def test_enumerate(nilpotent_f2, capsys):
    code, out, _ = run(capsys, "enumerate", nilpotent_f2)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "4 subalgebras"
    assert "  span{e3}  (dim 1)" in lines
    assert "  span{e2, e3}  (dim 2)" in lines


def test_enumerate_guard(nilpotent_f2, capsys):
    code, _, err = run(capsys, "enumerate", nilpotent_f2, "--max-size", "3")
    assert code == 1
    assert "guard" in err


def test_enumerate_over_q_rejected(dense3, capsys):
    code, _, err = run(capsys, "enumerate", dense3)
    assert code == 1
    assert "prime field" in err


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "info", "/nonexistent/nothing.alg")
    assert code == 2
    assert "cannot read" in err


def test_bad_scalar_is_usage_error(tmp_path, capsys):
    path = write_algebra(tmp_path, "bad.alg", {"kind": "Q"}, 2, [["1.5", "0"], ["0", "1"]])
    code, _, err = run(capsys, "info", str(path))
    assert code == 2
    assert "decimal" in err


BIG = "1" + "0" * 5000  # past the interpreter's default limit of 4300 digits per int conversion


@pytest.mark.parametrize(
    "field, entry, argv",
    [
        ({"kind": "Q"}, BIG, ["info"]),
        ({"kind": "Fp", "p": 7}, "1/" + BIG, ["codim1"]),
        ({"kind": "Q"}, "1", ["onedim", "--vector", "+" + BIG + ",1"]),
        ({"kind": "Fp", "p": 3}, "1", ["verify", "--span", "1," + BIG]),
    ],
    ids=["info-entry", "codim1-denominator", "onedim-vector", "verify-span"],
)
def test_integer_text_past_the_digit_limit_is_usage_error(tmp_path, capsys, field, entry, argv):
    path = write_algebra(tmp_path, "big.alg", field, 2, [[entry, "0"], ["0", "1"]])
    code, out, err = run(capsys, argv[0], path, *argv[1:])
    assert (code, out) == (2, "")
    assert f"more than {sys.get_int_max_str_digits()} digits" in err and err.count("\n") == 1, err


def test_bad_vector_arity(identity2, capsys):
    code, _, err = run(capsys, "onedim", identity2, "--vector", "1,2,3")
    assert code == 2
    assert "coordinates" in err


def test_schema_errors(tmp_path, capsys):
    path = tmp_path / "broken.alg"
    path.write_text('{"field": {"kind": "Z"}, "dim": 1, "matrix": [["1"]]}')
    code, _, err = run(capsys, "info", str(path))
    assert code == 2
    assert "kind" in err
    path.write_text("not json at all")
    code, _, err = run(capsys, "info", str(path))
    assert code == 2


@pytest.mark.parametrize(
    "data, message",
    [
        (b"\xff\xfe", "is not valid JSON"),
        (b"1" * 5000, f"error: integer of more than {sys.get_int_max_str_digits()} digits: 11111"),
        (b"[" * 100_000, "is not valid JSON"),
    ],
    ids=["bad-utf8", "digit-limit", "deep-nesting"],
)
def test_unreadable_json_is_usage_error(tmp_path, capsys, data, message):
    path = tmp_path / "odd.alg"
    path.write_bytes(data)
    code, out, err = run(capsys, "info", str(path))
    assert (code, out) == (2, "")
    assert message in err and err.count("\n") == 1


def test_output_is_deterministic(dense3, capsys):
    first = run(capsys, "codim1", dense3, "--verbose", "--json")
    second = run(capsys, "codim1", dense3, "--verbose", "--json")
    assert first == second


def test_codim1_on_dim2_file(identity2, capsys):
    code, out, _ = run(capsys, "codim1", identity2)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "3 codimension-one subalgebras"
    assert any("span{e1 + e2}" in line for line in lines)


def test_module_entry_point(dense3):
    proc = run_module("regular", dense3)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "regular (det = -1)"


def test_closed_stdout_ends_quietly(tmp_path):
    # As in `evoalg enumerate id4.alg | head -1`, with the reader gone
    # before the first write.
    path = write_algebra(tmp_path, "id4.alg", {"kind": "Fp", "p": 3}, 4, identity_rows(4))
    with subprocess.Popen(
        [sys.executable, "-m", "evoalg", "enumerate", path],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=module_env(),
    ) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=30) == 1
    assert err == ""


def test_usage_error_exit_code():
    proc = run_module("no-such-command", "x")
    assert proc.returncode == 2
