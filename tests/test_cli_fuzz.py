"""Seeded fuzzer of the command line: mutated algebra files through every
subcommand, with and without ``--json``.

Each case runs ``cli.main`` in-process under a SIGALRM timer and checks the
exit-code contract: the code is 0, 1 or 2; a nonzero exit prints exactly one
``error:`` line and nothing else on stderr; no exception escapes ``main``.
Argument misuse inside the library raises builtin exceptions, so an input
that reached one of them would escape here.

One known hang remains: the F_p root search evaluates the cubic at every
residue, so it runs past any time limit for a large p.  It has a strict
expected-failure case below.  The generator still draws p = 2^61 - 1 and
entries of 400 digits; a random case that runs into that loop is reported
as an expected failure, any other timeout fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import signal
import traceback

import pytest

from evoalg.cli import main

pytestmark = pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")

SEED = 20261018
CASES_PER_COMMAND = 20
TIME_LIMIT_S = 1.0
BIG_P = 2**61 - 1
HUGE = "9" * 400

COMMANDS = ("info", "regular", "codim1", "onedim", "verify", "natural-basis", "enumerate")
FIELDS = (
    {"kind": "Q"},
    {"kind": "Fp", "p": 2},
    {"kind": "Fp", "p": 3},
    {"kind": "Fp", "p": 5},
    {"kind": "Fp", "p": 7},
    {"kind": "Fp", "p": BIG_P},
    {"kind": "R", "tol": 1e-9},
    {"kind": "R", "tol": 1e-6},
)
ODD_SCALARS = (
    "", " ", "1/0", "0/0", "abc", "1.5", "1e999", "-0", "+3", "3/6", "1e-12", "0x10", "nan", "inf",
    "1/-2", "7/", "--1", " 2 ", "1e-320", "-1e308", HUGE, "1/" + "7" * 400, "٣",
)
ODD_ENTRIES = (3, 0.5, None, True, [1], {"a": 1})
ODD_FIELDS = (
    {"kind": "Z"},
    {"kind": "Fp", "p": 6},
    {"kind": "Fp", "p": True},
    {"kind": "Fp", "p": 5.0},
    {"kind": "Fp", "p": 2**127 - 1},
    {"kind": "Fp", "p": -5},
    {"kind": "Fp", "p": "5"},
    {"kind": "Fp"},
    {"kind": "R", "tol": True},
    {"kind": "R", "tol": 0},
    {"kind": "R", "tol": -1e-9},
    {"kind": "R", "tol": "1e-9"},
    {"kind": "R", "tol": 10**400},
    {"kind": "R", "tol": 1},
    {"kind": "R", "tol": 1e300},
    {"kind": "R", "tol": float("nan")},
    {"kind": "R"},
    {"kind": "Q", "p": 5, "tol": 3},
    {"kind": "Fp", "p": 5, "tol": 1e-9},
    {"kind": "R", "tol": 1e-9, "p": 3},
    {"kind": "Q", "note": "ignored"},
    {"kind": None},
    {"kind": ["Q"]},
    {},
    [],
    "Q",
)
ODD_DIMS = (0, -1, True, "3", 2.0, None)
ODD_FILES = (
    b"",
    b"not json",
    b"{",
    b"\xff\xfe\x00",
    b"1" * 5000,
    b"[" * 100_000,
    b"[]",
    b'{"field": {"kind": "Q"}, "dim": 1, "matrix": [["1"',
)


class _Hang(Exception):
    """The time limit of one case ran out."""


def _scalar(rng: random.Random, kind) -> str:
    if rng.random() < 0.4:
        return "0"
    if kind == "R":
        return rng.choice(("1", "-2", "0.5", "1e-10", "3.25e3", "-0.125", f"{rng.uniform(-3, 3):.6g}"))
    if rng.random() < 0.8:
        return str(rng.randint(-3, 3))
    return f"{rng.randint(-5, 5)}/{rng.randint(1, 4)}"


def _mutate(rng: random.Random, obj):
    """One random mutation of a file object.  A file that an earlier
    mutation left as no object, or without a square list of rows under
    ``"matrix"``, is returned as it is, with no draw."""
    rows = obj.get("matrix") if isinstance(obj, dict) else None
    if not isinstance(rows, list) or not rows:
        return obj
    n = len(rows)
    if not all(isinstance(r, list) and len(r) == n for r in rows):
        return obj
    what = rng.randrange(7)
    if what == 0:
        rows[rng.randrange(n)][rng.randrange(n)] = rng.choice(ODD_SCALARS)
    elif what == 1:
        rows[rng.randrange(n)][rng.randrange(n)] = rng.choice(ODD_ENTRIES)
    elif what == 2:
        obj["field"] = rng.choice(ODD_FIELDS)
    elif what == 3:
        obj["dim"] = rng.choice(ODD_DIMS + (n + 1, n - 1))
    elif what == 4:
        row = rows[rng.randrange(n)]
        choice = rng.randrange(4)
        if choice == 0:
            del rows[rng.randrange(n)]
        elif choice == 1:
            row.pop()
        elif choice == 2:
            row.append("0")
        else:
            rows[0] = "x"
    elif what == 5:
        obj.pop(rng.choice(("field", "dim", "matrix")), None)  # an earlier mutation may have deleted it
    else:
        return rng.choice(([], "x", 3, {"field": obj.get("field")}))
    return obj


def _file(rng: random.Random) -> tuple[bytes, str, int]:
    """File bytes, and the field kind and dimension the file was drawn with."""
    field = rng.choice(FIELDS)
    n = rng.randint(1, 4)
    kind = field["kind"]
    if rng.random() < 0.05:
        return rng.choice(ODD_FILES), kind, n
    if rng.random() < 0.3:
        rows = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    else:
        rows = [[_scalar(rng, kind) for _ in range(n)] for _ in range(n)]
    obj = {"field": dict(field), "dim": n, "matrix": rows}
    for _ in range(rng.choice((0, 0, 0, 1, 1, 2))):
        obj = _mutate(rng, obj)
    return json.dumps(obj).encode(), kind, n


def _vector(rng: random.Random, kind: str, n: int) -> str:
    n = n if rng.random() < 0.85 else rng.choice((n - 1, n + 1, 0))
    coords = [_scalar(rng, kind) if rng.random() < 0.9 else rng.choice(ODD_SCALARS) for _ in range(n)]
    return ",".join(coords)


def _extra_args(rng: random.Random, command: str, kind: str, n: int) -> list[str]:
    if command == "codim1" and rng.random() < 0.5:
        return ["--verbose"]
    if command == "onedim" and rng.random() < 0.5:
        return ["--vector=" + _vector(rng, kind, n)]
    if command in ("verify", "natural-basis"):
        vectors = [_vector(rng, kind, n) for _ in range(rng.randint(0, 3))]
        return ["--span=" + ";".join(vectors)]
    if command == "enumerate" and rng.random() < 0.3:
        return [f"--max-size={rng.choice((-1, 0, 1, 10, 1000))}"]
    return []


def _cases():
    rng = random.Random(SEED)
    cases = []
    for i in range(CASES_PER_COMMAND * len(COMMANDS) * 2):
        command = COMMANDS[i % len(COMMANDS)]
        as_json = (i // len(COMMANDS)) % 2 == 1
        data, kind, n = _file(rng)
        args = _extra_args(rng, command, kind, n) + (["--json"] if as_json else [])
        case_id = f"{i:03d}-{command}" + ("-json" if as_json else "")
        cases.append(pytest.param(command, args, data, id=case_id))
    return cases


def test_file_generator_draws_on_any_seed():
    # A mutation may meet a file that an earlier one left without a key or
    # without a matrix; the generator must still return bytes.
    for seed in range(200):
        rng = random.Random(seed)
        for _ in range(50):
            data, kind, n = _file(rng)
            assert isinstance(data, bytes)


def _on_alarm(signum, frame):
    raise _Hang(f"no answer within {TIME_LIMIT_S} s")


def _run(tmp_path, command, args, data):
    """Exit code, stdout and stderr of ``evoalg command FILE args``, in-process
    under the time limit."""
    path = tmp_path / "case.alg"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path), *args])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


def _known_hang(tb) -> str | None:
    """The known slow loop that the traceback of a timeout passes through, if any."""
    for frame, _ in traceback.walk_tb(tb):
        name = frame.f_code.co_name
        if name == "nonzero_roots" and type(frame.f_locals.get("self")).__name__ == "_PrimeField":
            return "F_p root search over every residue"
    return None


def _check_contract(code, out, err):
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
    else:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err


@pytest.mark.parametrize("command, args, data", _cases())
def test_cli_contract_on_mutated_files(tmp_path, command, args, data):
    try:
        result = _run(tmp_path, command, args, data)
    except _Hang as exc:
        reason = _known_hang(exc.__traceback__)
        if reason is None:
            raise
        pytest.xfail(f"known hang: {reason}")
    _check_contract(*result)


def _algebra_file(field, rows) -> bytes:
    return json.dumps({"field": field, "dim": len(rows), "matrix": rows}).encode()


@pytest.mark.xfail(strict=True, raises=_Hang, reason="known hang")
@pytest.mark.parametrize(
    "command, data",
    [
        # The one pair in dimension 2 has rank 0; its cubic is evaluated at 2^61 - 2 residues.
        ("codim1", _algebra_file({"kind": "Fp", "p": BIG_P}, [["1", "0"], ["0", "1"]])),
    ],
    ids=["fp-residue-scan"],
)
def test_known_hangs(tmp_path, command, data):
    _check_contract(*_run(tmp_path, command, [], data))


def test_q_cubic_with_a_400_digit_coefficient_is_answered(tmp_path):
    # The cubic x^3 - x^2 + x - N, N of 400 digits, has no rational root;
    # the root isolation costs a bisection step per bit of N.
    data = _algebra_file({"kind": "Q"}, [["1", HUGE], ["1", "1"]])
    assert _run(tmp_path, "onedim", [], data) == (0, "0 one-dimensional subalgebras\n", "")
