"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance and runtime bound is pinned here; the heavy criteria
cross-check the pair-based search against the brute-force oracle over
prime fields.
"""

from __future__ import annotations

import itertools
import json
import random
import time

from evoalg import (
    Subspace,
    codim1_necessary,
    closure_cubic,
    enumerate_codim1,
    enumerate_subalgebras,
    nonzero_roots,
    pair_submatrix,
    solve_onedim,
)
from evoalg.cli import main as cli_main
from evoalg.finder import CASE_ROOT, codim1_for_pair, onedim_residual
from support import (
    F2,
    F3,
    NO_CODIM1_OVER_Q_ROWS,
    Q,
    R9,
    RANK2_PAIR_ROWS,
    SHIFT_NILPOTENT_ROWS,
    SWAP_2D_ROWS,
    all_regular_structures,
    bases_close,
    elem,
    identity_rows,
    make_algebra,
    random_regular_fp,
    random_regular_rational,
    subspace_keys,
)


def _report(label: str, ok: bool, elapsed: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    extra = f" {detail}" if detail else ""
    print(f"[acceptance] {label}: {status} ({elapsed:.3f} s){extra}")
    assert ok, f"{label} failed{extra}"


def _closure_residual(sub: Subspace) -> float:
    """Worst remainder coordinate when basis products are reduced."""
    worst = 0.0
    basis = sub.basis_elements()
    for i, u in enumerate(basis):
        for w in basis[i:]:
            v = list((u * w).coords)
            for row, c in zip(sub.basis.rows(), sub.pivot_cols):
                f = v[c]
                v = [a - f * b for a, b in zip(v, row)]
            if v:
                worst = max(worst, max(abs(x.value) for x in v))
    return worst


def test_c1_rational_dense_algebra_has_no_codim1(tmp_path, capsys):
    start = time.perf_counter()
    a = make_algebra(Q, NO_CODIM1_OVER_Q_ROWS)
    report = enumerate_codim1(a)
    diag = {(d.p, d.q): d for d in report.diagnostics}
    ok = report.count == 0
    ok &= diag[(2, 3)].rank == 0
    ok &= [c.value for c in diag[(2, 3)].cubic.coefficients()] == [1, 0, -1, -1]
    ok &= diag[(2, 3)].roots == ()
    ok &= diag[(1, 2)].rank == 1 and diag[(1, 3)].rank == 1
    ok &= diag[(1, 2)].closure_lhs.value == 5 and diag[(1, 2)].closure_rhs.value == -2
    ok &= diag[(1, 2)].closure_holds is False
    ok &= diag[(1, 3)].closure_lhs.value == 3 and diag[(1, 3)].closure_rhs.value == 0
    ok &= diag[(1, 3)].closure_holds is False

    # Same verdict through the CLI.
    path = tmp_path / "dense3.alg"
    path.write_text(
        json.dumps(
            {
                "field": {"kind": "Q"},
                "dim": 3,
                "matrix": [[str(x) for x in row] for row in NO_CODIM1_OVER_Q_ROWS],
            }
        )
    )
    code = cli_main(["codim1", str(path), "--verbose"])
    out = capsys.readouterr().out
    ok &= code == 0
    ok &= out.splitlines()[0] == "0 codimension-one subalgebras"
    ok &= "cubic x^3 - x - 1" in out
    ok &= "closure check: 5 vs -2 -> fails" in out
    ok &= "closure check: 3 vs 0 -> fails" in out
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _report("C1 dense rational algebra has no codimension-one subalgebras", ok, elapsed)


def test_c2_same_algebra_over_reals_has_one():
    start = time.perf_counter()
    a = make_algebra(R9, NO_CODIM1_OVER_Q_ROWS)
    report = enumerate_codim1(a)
    ok = report.count == 1
    f = report.found[0]
    ok &= (f.p, f.q) == (2, 3) and f.case == CASE_ROOT
    lam = f.root.value
    ok &= 1.3247 <= lam <= 1.3248
    ok &= abs(lam ** 3 - lam - 1.0) <= 1e-9
    ok &= abs(f.vector[0].value - 1.0) <= 1e-9  # v = e2 + lam*e3
    ok &= _closure_residual(f.subspace) <= 1e-9
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _report(
        "C2 over tolerance reals the cubic root yields exactly one subalgebra",
        ok,
        elapsed,
        f"lambda={lam:.6f}",
    )


def test_c3_rank_two_pair_blocks_despite_necessary_condition():
    start = time.perf_counter()
    a = make_algebra(Q, RANK2_PAIR_ROWS)
    ok = a.is_regular() and not a.determinant().is_zero()
    sub = pair_submatrix(a, 3, 4)
    ok &= sub.rank == 2
    ok &= [[x.value for x in row] for row in sub.matrix.rows()] == [[1, 2], [1, -1]]
    ok &= codim1_for_pair(a, 3, 4) == []
    ok &= codim1_necessary(a, 3, 4) is True
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _report("C3 rank-2 pair: necessary condition holds yet no subalgebra", ok, elapsed)


def test_c4_nilpotent_shift_subalgebras():
    start = time.perf_counter()
    ok = True
    for spec in (F2, F3):
        a = make_algebra(spec, SHIFT_NILPOTENT_ROWS)
        ok &= not a.is_regular()
        proper = [s for s in enumerate_subalgebras(a) if 0 < s.dim < 3]
        want = [
            Subspace.span(a, [a.basis_element(3)]),
            Subspace.span(a, [a.basis_element(2), a.basis_element(3)]),
        ]
        ok &= subspace_keys(proper) == subspace_keys(want)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _report("C4 nilpotent shift: proper subalgebras are span{e3}, span{e2,e3}", ok, elapsed)


def test_c5_natural_basis_for_every_subalgebra_f2_dim3():
    start = time.perf_counter()
    regular = all_regular_structures(2, 3)
    gl32 = (2 ** 3 - 1) * (2 ** 3 - 2) * (2 ** 3 - 4)  # independent |GL(3,2)|
    ok = len(regular) == gl32 == 168
    failures = 0
    checked = 0
    for rows in regular:
        a = make_algebra(F2, rows)
        for sub in enumerate_subalgebras(a):
            checked += 1
            basis = sub.natural_basis()
            for i, u in enumerate(basis):
                for w in basis[i + 1 :]:
                    if not (u * w).is_zero():
                        failures += 1
                    if set(u.support()) & set(w.support()):
                        failures += 1
    ok &= failures == 0
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    _report(
        "C5 every subalgebra of all 168 regular F_2 dim-3 algebras has a natural basis",
        ok,
        elapsed,
        f"checked={checked}",
    )


def _codim1_matches_oracle(a) -> bool:
    found = enumerate_codim1(a).subspaces()
    oracle = [s for s in enumerate_subalgebras(a) if s.dim == a.dim - 1]
    return subspace_keys(found) == subspace_keys(oracle)


def test_c6_codim1_completeness_against_oracle():
    start = time.perf_counter()
    discrepancies = 0
    for rows in all_regular_structures(2, 3):  # exhaustive
        if not _codim1_matches_oracle(make_algebra(F2, rows)):
            discrepancies += 1
    rng = random.Random(20260809)
    for _ in range(500):
        if not _codim1_matches_oracle(make_algebra(F3, random_regular_fp(3, 3, rng))):
            discrepancies += 1
    for _ in range(500):
        if not _codim1_matches_oracle(make_algebra(F2, random_regular_fp(2, 4, rng))):
            discrepancies += 1
    elapsed = time.perf_counter() - start
    ok = discrepancies == 0 and elapsed < 300.0
    _report(
        "C6 pair search equals oracle on F_2 dim 3 (exhaustive), F_3 dim 3 and F_2 dim 4 (500 each)",
        ok,
        elapsed,
        f"discrepancies={discrepancies}",
    )


def test_c7_onedim_bijection_with_oracle():
    start = time.perf_counter()
    discrepancies = 0
    cases = []
    cases.extend((F2, 2, rows) for rows in all_regular_structures(2, 2))
    cases.extend((F2, 3, rows) for rows in all_regular_structures(2, 3))
    cases.extend((F3, 2, rows) for rows in all_regular_structures(3, 2))
    rng = random.Random(424242)
    cases.extend((F3, 3, random_regular_fp(3, 3, rng)) for _ in range(300))
    for spec, n, rows in cases:
        a = make_algebra(spec, rows)
        p = spec.p
        solutions = 0
        for coords in itertools.product(range(p), repeat=n):
            if not any(coords):
                continue
            if onedim_residual(a, a.element(list(coords))).is_zero():
                solutions += 1
        oracle_lines = [s for s in enumerate_subalgebras(a) if s.dim == 1]
        if solutions != len(oracle_lines):
            discrepancies += 1
        if subspace_keys(solve_onedim(a)) != subspace_keys(oracle_lines):
            discrepancies += 1
    elapsed = time.perf_counter() - start
    ok = discrepancies == 0
    _report(
        "C7 nonzero closure-system solutions biject with oracle lines",
        ok,
        elapsed,
        f"cases={len(cases)} discrepancies={discrepancies}",
    )


def test_c8_dimension_two_closed_forms():
    start = time.perf_counter()
    swap = make_algebra(Q, SWAP_2D_ROWS)
    lines = solve_onedim(swap)
    ok = len(lines) == 1
    ok &= lines[0] == Subspace.span(swap, [elem(swap, [1, 1])])

    ident = make_algebra(Q, identity_rows(2))
    lines2 = solve_onedim(ident)
    want = [Subspace.span(ident, [elem(ident, v)]) for v in ([1, 0], [0, 1], [1, 1])]
    ok &= subspace_keys(lines2) == subspace_keys(want)
    ok &= all(s.is_subalgebra() for s in lines + lines2)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _report("C8 dimension-2 closed form finds exactly the closed lines", ok, elapsed)


def test_c9_real_enumeration_contains_rational_one():
    start = time.perf_counter()
    rng = random.Random(90210)
    missing = 0
    extras_checked = 0
    bad_extras = 0
    for _ in range(100):
        rows = random_regular_rational(3, rng)
        aq = make_algebra(Q, rows)
        ar = make_algebra(R9, [[float(x) for x in row] for row in rows])
        rational = enumerate_codim1(aq).found
        real = enumerate_codim1(ar).found
        for f in rational:
            if not any(bases_close(f.subspace, g.subspace, 1e-7) for g in real):
                missing += 1
        for g in real:
            if any(bases_close(f.subspace, g.subspace, 1e-7) for f in rational):
                continue
            extras_checked += 1
            # Extra entries must carry root provenance with an irrational
            # root: no rational root of the exact cubic may sit nearby.
            if g.case != CASE_ROOT:
                bad_extras += 1
                continue
            exact_roots = nonzero_roots(closure_cubic(aq, g.p, g.q))
            if any(abs(float(r.value) - g.root.value) <= 1e-6 for r in exact_roots):
                bad_extras += 1
    elapsed = time.perf_counter() - start
    ok = missing == 0 and bad_extras == 0
    _report(
        "C9 real enumeration contains the rational one; extras are irrational roots",
        ok,
        elapsed,
        f"missing={missing} extras={extras_checked} bad={bad_extras}",
    )
