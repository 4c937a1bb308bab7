"""Mutation check: each mutant below breaks the library in one named way,
and the tier-1 tests selected with it must fail on the broken copy.

Run from anywhere, with the interpreter that runs the tests::

    python tests/mutation.py

For each mutant the script copies ``src/``, ``tests/`` and
``pyproject.toml`` into ``build/mutation/<name>/`` (ignored by git),
replaces the mutant's exact old text, which must occur once, with its new
text, and runs ``python -m pytest -x`` on its selection there.  A first
run on an unmutated copy checks that every selection passes.  The script
exits 1 if a mutant survives (its selection passes), if its old text is
not found exactly once (the code moved on: update the mutant, do not drop
it), if a selection errors instead of failing, or if the whole run takes
longer than ``BUDGET`` seconds.

To add a mutant, append a ``Mutant`` to ``MUTANTS``: a short name, the
file under ``src/evoalg/``, the exact old text, the new text and the
pytest node ids or ``-k`` arguments that must fail on it.  Keep the
selection narrow, so that the whole list fits the budget.

This file is not collected by pytest: its name does not start with
``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / "build" / "mutation"
BUDGET = 120.0  # seconds for the whole run


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    selection: tuple[str, ...]


FIELD = "tests/test_field.py::"
PAIR_SCAN = "tests/test_pair_scan.py::"
RANKS_MATCH = PAIR_SCAN + "test_pair_ranks_of_every_column_match_the_pair_submatrix"
SUBSPACE = "tests/test_subspace.py::"

MUTANTS = [
    # The one sweep that ranks every pair of a column (linalg._pair_ranks).
    Mutant(
        "sweep-tests-row-q",
        "linalg.py",
        "left = zeros(row, left, k)",
        "left = zeros(row, left, -1)",
        (RANKS_MATCH,),
    ),
    Mutant(
        "q-equal-i-on-the-first-pivot",
        "linalg.py",
        "(j, [q for q in qs if q == i])",
        "(i, [q for q in qs if q == i])",
        (RANKS_MATCH,),
    ),
    Mutant(
        "real-s-q-taken-lazily",
        "field.py",
        "        s = {q: self.mul(prow[q], inv) for q in qs}\n"
        "        return lambda row, left, k: [q for q in left if q == k or "
        "sub_mul(row[q], row[c], s[q]) == 0]",
        "        return lambda row, left, k: [q for q in left if q == k or "
        "sub_mul(row[q], row[c], self.mul(prow[q], inv)) == 0]",
        (PAIR_SCAN + "test_pair_rank_matches_rref_of_the_pair_submatrix",),
    ),
    Mutant(
        "retry-dropped",
        "finder.py",
        "        except NonFiniteValue:",
        "        except ArithmeticError:",
        (PAIR_SCAN + "test_a_column_whose_sweep_overflows_is_ranked_pair_by_pair",),
    ),
    # The packed-integer elimination over F_p (field._PrimeField.det_and_rank).
    Mutant(
        "w-minus-one",
        "field.py",
        "w = ((p - 1) * (1 + n * (p - 1))).bit_length()",
        "w = ((p - 1) * (1 + n * (p - 1))).bit_length() - 1",
        ("tests/test_linalg.py",),
    ),
    Mutant(
        "packed-sign-flip-dropped",
        "field.py",
        "rest[0], rest[i], det = rest[i], rest[0], -det",
        "rest[0], rest[i] = rest[i], rest[0]",
        ("tests/test_linalg.py",),
    ),
    Mutant(
        "packed-pivot-row-unreduced",
        "field.py",
        "prow |= ((u & mask) % p) << shift",
        "prow |= (u & mask) << shift",
        ("tests/test_linalg.py",),
    ),
    # The pivot rule over R: the first of the largest magnitudes.
    Mutant(
        "real-pivot-ties-reversed",
        "field.py",
        "return sorted((i for i, m in enumerate(mags) if m), key=mags.__getitem__)",
        "return sorted((i for i, m in reversed(list(enumerate(mags))) if m), key=mags.__getitem__)",
        (PAIR_SCAN + "test_the_first_among_equal_pivots_decides_over_r",),
    ),
    # The derivation that decides closure in the codimension-one search.
    Mutant(
        "drop-flags-swapped",
        "finder.py",
        "drop_q, drop_p = apq == 0, aqp == 0",
        "drop_p, drop_q = apq == 0, aqp == 0",
        ("tests/test_finder.py", "-k", "natural_basis_change or sound_everywhere"),
    ),
    Mutant(
        "closure-identity-sign-flipped",
        "finder.py",
        "kern.canonical(terms[0] + terms[1])",
        "kern.canonical(terms[0] - terms[1])",
        ("tests/test_finder.py", "-k", "natural_basis_change or sound_everywhere"),
    ),
    # Membership, closure and the natural basis (subspace.py).
    Mutant(
        "reduction-skips-the-last-row",
        "subspace.py",
        "for row, c in zip(rows, pivots):",
        "for row, c in zip(rows[:-1], pivots):",
        (SUBSPACE + "test_contains_matches_the_scalar_reference_on_seeded_draws",),
    ),
    Mutant(
        "supports-not-accumulated",
        "subspace.py",
        "seen |= sw",
        "seen = sw",
        (SUBSPACE + "test_real_span_closed_within_tol_has_no_natural_basis[first-and-last]",),
    ),
    Mutant(
        "closure-skips-the-squares",
        "subspace.py",
        "zip(rows[i:], supports[i:])",
        "zip(rows[i + 1 :], supports[i + 1 :])",
        (SUBSPACE + "test_sparse_closure_matches_scalar_reference",),
    ),
    # One zero rule over R: roots, scalar operators, evaluation and input.
    Mutant(
        "real-root-cut-reinstated",
        "field.py",
        "            if x == 0:\n                continue\n",
        "            if abs(x) <= self.tol:\n                continue\n",
        (FIELD + "test_real_root_near_the_float_limit_is_found",),
    ),
    Mutant(
        "real-zero-root-kept",
        "field.py",
        "            if x == 0:\n                continue\n",
        "",
        (FIELD + "test_real_root_that_rounds_to_zero_is_dropped",),
    ),
    Mutant(
        "scalar-sub-plain",
        "field.py",
        "NotImplemented if v is None else self._entry(self.value, -1, v)",
        "NotImplemented if v is None else FieldScalar(self.spec, self.value - v)",
        (FIELD + "test_real_difference_is_zero_exactly_where_equal",),
    ),
    Mutant(
        "evaluate-plain-horner",
        "field.py",
        "acc = kern.add_multiple((c,), acc, (v,))[0]",
        "acc = kern.canonical(kern.mul(acc, v) + c)",
        (FIELD + "test_real_difference_is_zero_exactly_where_equal",),
    ),
    Mutant(
        "underflow-check-dropped",
        "field.py",
        "if x == 0 and re.search(",
        "if False and re.search(",
        ("tests/test_cli.py", "-k", "underflows"),
    ),
]


def _copy(dest: Path) -> None:
    shutil.rmtree(dest, ignore_errors=True)
    skip = shutil.ignore_patterns("__pycache__")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(cwd: Path, selection, deadline: float) -> int | None:
    """The exit code of pytest on ``selection`` in ``cwd``, which imports
    the package from ``cwd/src``; None when the budget runs out."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection]
    try:
        timeout = max(1.0, deadline - time.monotonic())
        done = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    return done.returncode


def main() -> int:
    deadline = time.monotonic() + BUDGET
    failures = []

    baseline = WORK / "unmutated"
    _copy(baseline)
    for selection in dict.fromkeys(m.selection for m in MUTANTS):
        code = _pytest(baseline, selection, deadline)
        if code != 0:
            verdict = "budget exhausted" if code is None else f"pytest exit {code}"
            print(f"unmutated: {' '.join(selection)}: {verdict}")
            return 1
    print("unmutated: every selection passes")

    for m in MUTANTS:
        dest = WORK / m.name
        _copy(dest)
        path = dest / "src" / "evoalg" / m.file
        text = path.read_text(encoding="utf-8")
        if text.count(m.old) != 1:
            failures.append(f"{m.name}: old text found {text.count(m.old)} times in {m.file}")
            print(failures[-1])
            continue
        path.write_text(text.replace(m.old, m.new), encoding="utf-8")
        code = _pytest(dest, m.selection, deadline)
        verdict = {None: "budget exhausted", 0: "SURVIVED", 1: "killed"}.get(code, f"pytest exit {code}")
        print(f"{m.name}: {verdict}")
        if code != 1:
            failures.append(f"{m.name}: {verdict}")
        shutil.rmtree(dest, ignore_errors=True)
    shutil.rmtree(baseline, ignore_errors=True)
    print(f"{len(MUTANTS) - len(failures)} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
