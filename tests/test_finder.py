"""One-dimensional and codimension-one subalgebra search."""

from __future__ import annotations

import collections
import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from evoalg import (
    FieldScalar,
    FieldSpec,
    Matrix,
    NonFiniteValue,
    NotRegular,
    Subspace,
    TooLarge,
    UnsupportedFieldDimension,
    closure_condition,
    closure_cubic,
    codim1_necessary,
    enumerate_codim1,
    enumerate_subalgebras,
    enumerate_subspaces_of,
    pair_submatrix,
    solve_onedim,
)
from evoalg import finder
from evoalg.finder import (
    CASE_DROP_P,
    CASE_DROP_Q,
    CASE_ROOT,
    CASE_ROW,
    _codim1_subspace,
    _Search,
    codim1_for_pair,
    onedim_residual,
)
from support import (
    F2,
    F3,
    F5,
    FLAGGED_ROOT_REALS,
    FLAGGED_ROOT_ROWS,
    NEAR_TOL_REAL_ROWS,
    NEAR_TOL_REAL_ROWS_4,
    NO_CODIM1_OVER_Q_ROWS,
    Q,
    R9,
    RANK2_PAIR_ROWS,
    RELATIVE_RANK1_REAL_ROWS,
    RELATIVE_RANK1_REAL_ROWS_4,
    SCALED_1E6_ROWS,
    SHIFT_NILPOTENT_ROWS,
    SMALL_LEAD_REAL_ROWS,
    SWAP_2D_ROWS,
    TINY_CUBIC_REAL_ROWS,
    CLOSE_SMALL_ROOTS_REAL_ROWS,
    NEAR_EQUAL_ROOTS_REAL_ROWS,
    all_regular_structures,
    bases_close,
    changes_sign_around,
    elem,
    identity_rows,
    make_algebra,
    make_matrix,
    pairwise_deduplicated_codim1,
    random_regular_fp,
    random_regular_rational,
    sparse_int_rows,
    subspace_keys,
)


# -- one-dimensional system -------------------------------------------


def test_residual_zero_on_idempotents():
    a = make_algebra(Q, identity_rows(3))
    assert onedim_residual(a, elem(a, [1, 0, 0])).is_zero()
    assert onedim_residual(a, elem(a, [1, 1, 0])).is_zero()


def test_residual_detects_scaling():
    a = make_algebra(Q, identity_rows(3))
    res = onedim_residual(a, elem(a, [2, 0, 0]))
    assert [x.value for x in res.coords] == [2, 0, 0]


def test_residual_needs_regular():
    a = make_algebra(Q, SHIFT_NILPOTENT_ROWS)
    with pytest.raises(NotRegular):
        onedim_residual(a, a.basis_element(1))


def test_solve_onedim_identity_f2():
    a = make_algebra(F2, identity_rows(2))
    lines = solve_onedim(a)
    assert subspace_keys(lines) == subspace_keys(
        [Subspace.span(a, [elem(a, v)]) for v in ([1, 0], [0, 1], [1, 1])]
    )


def test_solve_onedim_swap_algebra():
    a = make_algebra(Q, SWAP_2D_ROWS)
    lines = solve_onedim(a)
    assert len(lines) == 1
    assert lines[0] == Subspace.span(a, [elem(a, [1, 1])])
    u = elem(a, [1, 1])
    assert u * u == u


def test_solve_onedim_identity_2d_rationals():
    a = make_algebra(Q, identity_rows(2))
    lines = solve_onedim(a)
    assert subspace_keys(lines) == subspace_keys(
        [Subspace.span(a, [elem(a, v)]) for v in ([1, 0], [0, 1], [1, 1])]
    )
    assert all(s.is_subalgebra() for s in lines)


def test_solve_onedim_dim2_over_reals():
    a = make_algebra(R9, [[0.0, 1.0], [1.0, 0.0]])
    lines = solve_onedim(a)
    assert len(lines) == 1
    assert abs(lines[0].basis.entry(0, 1).value - 1.0) <= 1e-9


def test_solve_onedim_rejects_nonregular():
    # Singular algebras inside the search's scope: Q in dimension two and
    # F_2 in dimension three.  The singular Q algebra in dimension three
    # is refused for its dimension first.
    for spec, rows in ((Q, [[0, 1], [0, 0]]), (F2, SHIFT_NILPOTENT_ROWS)):
        with pytest.raises(NotRegular):
            solve_onedim(make_algebra(spec, rows))
    with pytest.raises(UnsupportedFieldDimension):
        solve_onedim(make_algebra(Q, SHIFT_NILPOTENT_ROWS))


def test_solve_onedim_rejects_infinite_field_dim3():
    with pytest.raises(UnsupportedFieldDimension):
        solve_onedim(make_algebra(Q, identity_rows(3)))


def test_solve_onedim_refuses_a_line_scan_past_the_guard():
    # (p^2 - 1)/(p - 1) = p + 1 lines: refused before the first one is built.
    a = make_algebra(FieldSpec.prime_field(2**61 - 1), identity_rows(2))
    start = time.perf_counter()
    with pytest.raises(TooLarge):
        solve_onedim(a)
    assert time.perf_counter() - start < 1.0


def test_dim2_closed_form_matches_fp_enumeration():
    # Over a prime field in dimension two both strategies apply; the
    # closed form must agree with the line scan of solve_onedim.
    from evoalg.finder import _rank0_search

    for p, spec in ((2, F2), (3, F3)):
        for rows in all_regular_structures(p, 2):
            a = make_algebra(spec, rows)
            via_scan = subspace_keys(solve_onedim(a))
            via_form = subspace_keys([f.subspace for f in _rank0_search(a, 1, 2, _Search.of(a))[0]])
            assert via_scan == via_form


# -- pair submatrices and the closure conditions -----------------------

_BAD_PAIR = r"need distinct basis indices in 1\.\.3, got \(\d, \d\)"
_NO_PAIR_ROWS = "pair submatrix needs dimension >= 3, got 2"


def test_pair_submatrix_rank2():
    a = make_algebra(Q, RANK2_PAIR_ROWS)
    sub = pair_submatrix(a, 3, 4)
    assert [[x.value for x in row] for row in sub.matrix.rows()] == [[1, 2], [1, -1]]
    assert sub.rank == 2


def test_pair_submatrix_rank0():
    a = make_algebra(Q, NO_CODIM1_OVER_Q_ROWS)
    sub = pair_submatrix(a, 2, 3)
    assert [[x.value for x in row] for row in sub.matrix.rows()] == [[0, 0]]
    assert sub.rank == 0


def test_pair_submatrix_rank1():
    a = make_algebra(Q, NO_CODIM1_OVER_Q_ROWS)
    sub = pair_submatrix(a, 1, 2)
    assert [[x.value for x in row] for row in sub.matrix.rows()] == [[2, 1]]
    assert sub.rank == 1


def test_pair_submatrix_normalizes_order():
    a = make_algebra(Q, NO_CODIM1_OVER_Q_ROWS)
    sub = pair_submatrix(a, 2, 1)
    assert (sub.p, sub.q) == (1, 2)


def test_pair_submatrix_index_errors():
    a = make_algebra(Q, NO_CODIM1_OVER_Q_ROWS)
    with pytest.raises(ValueError, match=_BAD_PAIR):
        pair_submatrix(a, 1, 1)
    with pytest.raises(ValueError, match=_BAD_PAIR):
        pair_submatrix(a, 0, 2)
    with pytest.raises(ValueError, match=_NO_PAIR_ROWS):
        pair_submatrix(make_algebra(Q, identity_rows(2)), 1, 2)


@pytest.mark.parametrize("pair", [(2, 2), (0, 2), (2, 4)])
@pytest.mark.parametrize(
    "entry",
    [
        pair_submatrix,
        closure_cubic,
        codim1_necessary,
        lambda a, p, q: closure_condition(a, p, q, Q.one(), Q.zero()),
    ],
    ids=["pair_submatrix", "closure_cubic", "codim1_necessary", "closure_condition"],
)
def test_bad_indices_at_every_pair_entry_point(entry, pair):
    with pytest.raises(ValueError, match=_BAD_PAIR):
        entry(make_algebra(Q, NO_CODIM1_OVER_Q_ROWS), *pair)


def test_pair_error_precedence():
    small = make_algebra(Q, identity_rows(2))
    for entry in (pair_submatrix, codim1_necessary, codim1_for_pair):
        with pytest.raises(ValueError, match=_NO_PAIR_ROWS):
            entry(small, 1, 1)
    a = make_algebra(Q, NO_CODIM1_OVER_Q_ROWS)
    with pytest.raises(ValueError, match=_BAD_PAIR):
        closure_condition(a, 2, 2, Q.zero(), Q.zero())


def test_closure_cubic_keeps_pair_order():
    # Swapping p and q reverses the coefficients: the roots become reciprocals.
    a = make_algebra(Q, NO_CODIM1_OVER_Q_ROWS)
    forward = [c.value for c in closure_cubic(a, 2, 3).coefficients()]
    backward = [c.value for c in closure_cubic(a, 3, 2).coefficients()]
    assert backward == [-c for c in reversed(forward)]


def test_closure_condition_fails_on_both_rank1_pairs():
    a = make_algebra(Q, NO_CODIM1_OVER_Q_ROWS)
    assert not closure_condition(a, 1, 2, Q.from_int(2), Q.from_int(1))
    assert not closure_condition(a, 1, 3, Q.from_int(1), Q.from_int(1))


def test_closure_condition_trivial_axis():
    # (alpha, beta) = (1, 0) reduces the identity to a[p,q] = 0.
    a = make_algebra(Q, [[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    assert closure_condition(a, 1, 2, Q.one(), Q.zero())
    b = make_algebra(Q, [[1, 1, 0], [0, 2, 0], [0, 0, 3]])
    assert not closure_condition(b, 1, 2, Q.one(), Q.zero())


def test_closure_condition_zero_pair():
    a = make_algebra(Q, identity_rows(3))
    with pytest.raises(ValueError, match=r"coefficient pair \(0, 0\) spans nothing"):
        closure_condition(a, 1, 2, Q.zero(), Q.zero())


def test_closure_condition_refuses_a_non_scalar_or_another_field():
    a = make_algebra(Q, identity_rows(3))
    with pytest.raises(TypeError, match="expected a FieldScalar, got int"):
        closure_condition(a, 1, 2, 1, 0)
    with pytest.raises(TypeError, match="expected a FieldScalar, got int"):
        closure_condition(a, 1, 2, Q.one(), 0)
    with pytest.raises(ValueError, match="scalar over F_5 where Q is expected"):
        closure_condition(a, 1, 2, F5.one(), Q.zero())


def test_closure_condition_scale_invariant():
    rng = random.Random(61)
    for _ in range(40):
        a = make_algebra(Q, random_regular_rational(3, rng))
        alpha = Q.from_int(rng.randint(-3, 3))
        beta = Q.from_int(rng.randint(-3, 3))
        if alpha.is_zero() and beta.is_zero():
            continue
        c = Q.from_int(rng.choice([1, 2, 3, -1, -2]))
        assert closure_condition(a, 1, 3, alpha, beta) == closure_condition(
            a, 1, 3, c * alpha, c * beta
        )


def test_closure_cubic_coefficients():
    a = make_algebra(Q, NO_CODIM1_OVER_Q_ROWS)
    cubic = closure_cubic(a, 2, 3)
    assert [c.value for c in cubic.coefficients()] == [1, 0, -1, -1]
    assert cubic.render() == "x^3 - x - 1"

    ident = make_algebra(Q, identity_rows(3))
    cubic2 = closure_cubic(ident, 1, 2)
    assert [c.value for c in cubic2.coefficients()] == [0, -1, 1, 0]

    swap = make_algebra(Q, SWAP_2D_ROWS)
    cubic3 = closure_cubic(swap, 1, 2)
    assert [c.value for c in cubic3.coefficients()] == [1, 0, 0, -1]


# -- codimension-one search --------------------------------------------


def test_pair_search_empty_over_q():
    a = make_algebra(Q, NO_CODIM1_OVER_Q_ROWS)
    assert codim1_for_pair(a, 2, 3) == []


def test_pair_search_real_root():
    a = make_algebra(R9, NO_CODIM1_OVER_Q_ROWS)
    found = codim1_for_pair(a, 2, 3)
    assert len(found) == 1
    f = found[0]
    assert f.case == CASE_ROOT
    lam = f.root.value
    assert 1.3247 <= lam <= 1.3248
    assert abs(lam ** 3 - lam - 1.0) <= 1e-9
    assert f.subspace.is_subalgebra()


def test_pair_search_identity_rank0():
    a = make_algebra(Q, identity_rows(3))
    found = codim1_for_pair(a, 1, 2)
    got = subspace_keys([f.subspace for f in found])
    want = subspace_keys(
        [
            Subspace.span(a, [elem(a, [0, 0, 1]), elem(a, [1, 1, 0])]),
            Subspace.span(a, [elem(a, [1, 0, 0]), elem(a, [0, 0, 1])]),
            Subspace.span(a, [elem(a, [0, 1, 0]), elem(a, [0, 0, 1])]),
        ]
    )
    assert got == want
    assert sorted(f.case for f in found) == [CASE_DROP_P, CASE_DROP_Q, CASE_ROOT]


def test_pair_search_requires_regular():
    with pytest.raises(NotRegular):
        codim1_for_pair(make_algebra(Q, SHIFT_NILPOTENT_ROWS), 1, 2)


def test_enumerate_codim1_empty_over_q():
    report = enumerate_codim1(make_algebra(Q, NO_CODIM1_OVER_Q_ROWS))
    assert report.count == 0
    ranks = {(d.p, d.q): d.rank for d in report.diagnostics}
    assert ranks == {(1, 2): 1, (1, 3): 1, (2, 3): 0}


def test_enumerate_codim1_identity_dim3():
    a = make_algebra(Q, identity_rows(3))
    report = enumerate_codim1(a)
    assert report.count == 6
    for f in report.found:
        assert f.subspace.dim == 2
        assert f.subspace.is_subalgebra()


def test_enumerate_codim1_identity_dim3_f2():
    a = make_algebra(F2, identity_rows(3))
    report = enumerate_codim1(a)
    assert report.count == 6
    oracle_planes = [s for s in enumerate_subalgebras(a) if s.dim == 2]
    assert subspace_keys(report.subspaces()) == subspace_keys(oracle_planes)


def test_each_coordinate_hyperplane_is_built_once_per_search(monkeypatch):
    # Every pair of the 4-dim identity algebra has rank 0: one root line
    # and both coordinate hyperplanes, 18 candidates in all, of which the
    # 12 hyperplanes are only 4 distinct subspaces.  Each subspace is built
    # once, and a repeat is the same object.
    built, handed = [], []
    canonical, candidate = Subspace._canonical, finder._codim1_subspace
    monkeypatch.setattr(Subspace, "_canonical", lambda *args: built.append(canonical(*args)) or built[-1])
    monkeypatch.setattr(finder, "_codim1_subspace", lambda *args: handed.append(candidate(*args)) or handed[-1])
    report = enumerate_codim1(make_algebra(Q, identity_rows(4)))
    assert sum(len(d.roots) + d.drop_p + d.drop_q for d in report.diagnostics) == len(handed) == 18
    assert len(built) == report.count == 10
    assert {id(sub) for sub in handed} == {id(sub) for sub in built}


def _unsigned(rows):
    """Raw rows with every zero unsigned: ``-0.0 + 0`` is ``0.0``."""
    return tuple(tuple(x + 0 for x in row) for row in rows)


@pytest.mark.parametrize("spec", [Q, F2, FieldSpec.prime_field(7), R9], ids=["Q", "F2", "F7", "R"])
def test_closed_form_codim1_basis_is_the_rref_of_its_spanning_rows(spec):
    # On the zero algebra every subspace is closed, so any candidate is kept.
    rng, kern = random.Random(1401), spec._kernel
    pool = {"Q": ("1", "-2", "1/3", "-5/4", "7"), "Fp": ("1", "2", "3", "4", "5", "6")}.get(
        spec.kind, ("1", "-1", "49", "-49", "0.1", "-3.5", "1e-3", "6e5")
    )
    value = lambda: Matrix.from_rows(spec, [["0" if rng.random() < 0.3 else rng.choice(pool)]])._rows[0][0]
    coefficients = [(49.0, 3.0), (-2.0, 0.0), (-2.0, -0.0)] if spec.kind == "R" else []
    for _ in range(60):
        x, y = value(), value()
        coefficients.append((x, y) if x != 0 or y != 0 else (kern.one, y))
    for n in range(2, 7):
        a = make_algebra(spec, [[0] * n] * n)
        units = Matrix.identity(spec, n)._rows
        for x0, y0 in coefficients:
            p, q = sorted(rng.sample(range(1, n + 1), 2))
            inv = kern.inv(y0 if x0 == 0 else x0)  # the rank-1 row, as the search scales it
            for x, y in ((x0, y0), (kern.mul(x0, inv), kern.mul(y0, inv)), (kern.one, y0), (y0, x0)):
                if x == 0 and y == 0:
                    continue
                v = [kern.zero] * n
                v[p - 1], v[q - 1] = x, y
                spanning = [units[i] for i in range(n) if i not in (p - 1, q - 1)] + [tuple(v)]
                ref = Subspace(a, Matrix._trusted(spec, tuple(spanning), n))
                sub = _codim1_subspace(a, p, q, x, y, _Search.of(a))
                assert sub.pivot_cols == ref.pivot_cols
                assert repr(_unsigned(sub.basis._rows)) == repr(_unsigned(ref.basis._rows))
    if spec.kind == "R":
        assert kern.mul(49.0, kern.inv(49.0)) != 1.0  # the scaled row keeps a pivot below one


def test_candidate_whose_scaled_v_overflows_is_one_line_error():
    # v = 0.5*e1 + 1e308*e2 scales to e1 + 2e308*e2, beyond the floats.
    a = make_algebra(R9, [[0, 0], [0, 0]])
    with pytest.raises(NonFiniteValue) as exc:
        _codim1_subspace(a, 1, 2, 0.5, 1e308, _Search.of(a))
    assert str(exc.value) == (
        "candidate for pair (1,2) with v = 0.5*e1 + 1e+308*e2 overflows: real scalar must be finite, got inf"
    )


@pytest.mark.parametrize("spec", [Q, FieldSpec.prime_field(7), R9], ids=["Q", "F7", "R"])
def test_every_finding_basis_is_canonical(spec):
    # A candidate's basis shares the identity's unit rows and rewrites one
    # row; rref of that basis must hand back the same rows and pivots.
    rng, cases = random.Random(3001), collections.Counter()
    for n in range(2, 9):
        for _ in range(12):
            a = _sparse_regular_algebra(spec, n, rng)
            for f in enumerate_codim1(a).found:
                sub = f.subspace
                ref = Subspace(a, Matrix(spec, sub.basis.rows()))
                assert repr((sub.basis._rows, sub.pivot_cols)) == repr((ref.basis._rows, ref.pivot_cols)), f
                assert sub.dim == n - 1 and all(len(row) == n for row in sub.basis._rows), f
                cases[f.case] += 1
    assert all(cases[case] for case in (CASE_ROOT, CASE_ROW, CASE_DROP_P, CASE_DROP_Q)), cases


PAIR_DIAGNOSTICS_FIELDS = (
    "p", "q", "rank", "row", "closure_lhs", "closure_rhs", "closure_holds",
    "cubic", "roots", "drop_p", "drop_q", "flagged_roots",
)  # fmt: skip
RANK1_FAILING_ROWS = [[2, 0, 0], [-1, -1, 0], [2, 1, 1]]


def test_record_fields_defaults_and_immutability():
    assert finder.PairDiagnostics._fields == PAIR_DIAGNOSTICS_FIELDS
    assert finder.CodimOneFound._fields == ("subspace", "p", "q", "case", "vector", "root")
    d = finder.PairDiagnostics(p=1, q=2, rank=2)
    assert d[3:] == (None,) * 8 + ((),) and d == (1, 2, 2, *d[3:])
    sub = enumerate_codim1(make_algebra(Q, identity_rows(3))).found[0].subspace
    f = finder.CodimOneFound(subspace=sub, p=1, q=2, case=CASE_DROP_Q)
    assert (f.vector, f.root) == (None, None)
    for record, name in ((d, "rank"), (d, "extra"), (f, "case"), (f, "extra")):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)


def test_record_reprs_are_unchanged():
    diags = {(d.p, d.q): d for d in enumerate_codim1(make_algebra(Q, RANK2_PAIR_ROWS)).diagnostics}
    assert repr(diags[1, 2]) == (
        "PairDiagnostics(p=1, q=2, rank=0, row=None, closure_lhs=None, closure_rhs=None, closure_holds=None, "
        "cubic=LowDegreePoly(-x^2 + x over Q), roots=(FieldScalar(Q, 1),), drop_p=True, drop_q=True, "
        "flagged_roots=())"
    )
    assert repr(diags[1, 3]) == (
        "PairDiagnostics(p=1, q=3, rank=1, row=(FieldScalar(Q, 0), FieldScalar(Q, 1)), "
        "closure_lhs=FieldScalar(Q, 0), closure_rhs=FieldScalar(Q, 0), closure_holds=True, cubic=None, "
        "roots=None, drop_p=None, drop_q=None, flagged_roots=())"
    )
    assert repr(diags[3, 4]) == (
        "PairDiagnostics(p=3, q=4, rank=2, row=None, closure_lhs=None, closure_rhs=None, closure_holds=None, "
        "cubic=None, roots=None, drop_p=None, drop_q=None, flagged_roots=())"
    )
    report = enumerate_codim1(make_algebra(Q, RANK1_FAILING_ROWS))
    assert repr(report.diagnostics[0]) == (
        "PairDiagnostics(p=1, q=2, rank=1, row=(FieldScalar(Q, 2), FieldScalar(Q, 1)), "
        "closure_lhs=FieldScalar(Q, 7), closure_rhs=FieldScalar(Q, -2), closure_holds=False, cubic=None, "
        "roots=None, drop_p=None, drop_q=None, flagged_roots=())"
    )
    assert [repr(f) for f in report.found if f.case == CASE_ROW] == [
        "CodimOneFound(subspace=Subspace(span{e1, e2}, dim=2), p=1, q=3, case='rank1-row', "
        "vector=(FieldScalar(Q, 1), FieldScalar(Q, 0)), root=None)"
    ]
    found = enumerate_codim1(make_algebra(Q, [[-1, 0, 0], [0, 2, 0], [0, 0, 1]])).found
    assert [repr(f) for f in found if (f.p, f.q) == (1, 3)] == [
        "CodimOneFound(subspace=Subspace(span{e1 - e3, e2}, dim=2), p=1, q=3, case='root', "
        "vector=(FieldScalar(Q, 1), FieldScalar(Q, -1)), root=FieldScalar(Q, -1))",
        "CodimOneFound(subspace=Subspace(span{e1, e2}, dim=2), p=1, q=3, case='drop-q', vector=None, root=None)",
    ]
    assert [repr(f) for f in found if f.case == CASE_DROP_P] == [
        "CodimOneFound(subspace=Subspace(span{e2, e3}, dim=2), p=1, q=2, case='drop-p', vector=None, root=None)"
    ]


@pytest.mark.parametrize("spec", [Q, FieldSpec.prime_field(7), R9], ids=["Q", "F7", "R"])
def test_equal_records_are_equal_and_hash_alike(spec):
    rng = random.Random(3002)
    for _ in range(10):
        rows = _sparse_regular_algebra(spec, rng.randint(3, 6), rng).structure.rows()
        one, two = enumerate_codim1(make_algebra(spec, rows)), enumerate_codim1(make_algebra(spec, rows))
        for x, y in zip(one.diagnostics + one.found, two.diagnostics + two.found, strict=True):
            assert x is not y and x == y and hash(x) == hash(y)


def test_enumerate_codim1_dim2_delegates_to_lines():
    a = make_algebra(Q, SWAP_2D_ROWS)
    report = enumerate_codim1(a)
    assert subspace_keys(report.subspaces()) == subspace_keys(solve_onedim(a))
    assert report.diagnostics[0].rank == 0


def test_enumerate_codim1_dim2_prime_field_matches_oracle():
    a = make_algebra(F3, identity_rows(2))
    report = enumerate_codim1(a)
    oracle_lines = [s for s in enumerate_subalgebras(a) if s.dim == 1]
    assert subspace_keys(report.subspaces()) == subspace_keys(oracle_lines)
    assert report.count == 3


def test_enumerate_codim1_dimension_guard():
    with pytest.raises(UnsupportedFieldDimension, match="codimension-one search needs dimension >= 2, got 1"):
        enumerate_codim1(make_algebra(Q, [[2]]))


def test_enumerate_codim1_sound_everywhere():
    rng = random.Random(91)
    for _ in range(30):
        a = make_algebra(F3, random_regular_fp(3, 3, rng))
        for f in enumerate_codim1(a).found:
            assert f.subspace.is_subalgebra()
    for _ in range(20):
        a = make_algebra(Q, random_regular_rational(3, rng))
        for f in enumerate_codim1(a).found:
            assert f.subspace.is_subalgebra()
    # The search checks no candidate at run time: every finding must pass
    # the oracles of _check_findings, in dimensions up to six.
    for spec in (F2, FieldSpec.prime_field(7), R9, R12):
        found = 0
        for _ in range(25):
            report = enumerate_codim1(_sparse_regular_algebra(spec, rng.randint(2, 6), rng))
            _check_findings(report)
            found += report.count
        assert found >= 30, spec


def test_completeness_against_oracle_f2_dim3():
    for rows in all_regular_structures(2, 3):
        a = make_algebra(F2, rows)
        found = enumerate_codim1(a).subspaces()
        oracle = [s for s in enumerate_subalgebras(a) if s.dim == 2]
        assert subspace_keys(found) == subspace_keys(oracle)


def test_completeness_against_oracle_f5_sample():
    f5 = FieldSpec.prime_field(5)
    rng = random.Random(131)
    for _ in range(20):
        a = make_algebra(f5, random_regular_fp(5, 3, rng))
        found = enumerate_codim1(a).subspaces()
        oracle = [s for s in enumerate_subalgebras(a) if s.dim == 2]
        assert subspace_keys(found) == subspace_keys(oracle)


def test_rational_findings_reduce_to_prime_field_subalgebras():
    # An independent check of the answers over Q: the canonical basis of a
    # codimension-one subalgebra of an integer algebra, reduced mod p,
    # spans a closed hyperplane of the algebra mod p, found by the F_p
    # brute force, for each p dividing neither the determinant nor a
    # denominator of a finding.  The reduced basis is still in echelon form.
    rng, checked, with_fractions = random.Random(409), 0, 0
    for n, primes, count in ((3, (5, 7, 11), 12), (4, (5, 7, 11), 8), (5, (5,), 4)):
        for _ in range(count):
            rows = sparse_int_rows(n, rng)
            a = make_algebra(Q, rows)
            if not a.is_regular():
                continue
            det = a.determinant().value
            bases = [f.subspace.basis._rows for f in enumerate_codim1(a).found]
            denominators = {x.denominator for b in bases for row in b for x in row}
            for p in primes:
                if det % p == 0 or any(d % p == 0 for d in denominators):
                    continue
                fp = FieldSpec.prime_field(p)
                ap = make_algebra(fp, rows)
                closed = {s for s in enumerate_subspaces_of(ap, n - 1) if s.is_subalgebra()}
                for b in bases:
                    reduced = [[x.numerator * pow(x.denominator, -1, p) for x in row] for row in b]
                    assert Subspace(ap, make_matrix(fp, reduced)) in closed
                    checked += 1
                    with_fractions += any(x.denominator > 1 for row in b for x in row)
    assert checked > 100 and with_fractions > 10


def test_lemma_bijection_small_sample():
    # Nonzero solutions of the closure system biject with the lines the
    # oracle finds: each closed line holds exactly one idempotent.
    rng = random.Random(101)
    for p, spec in ((2, F2), (3, F3)):
        for _ in range(25):
            a = make_algebra(spec, random_regular_fp(p, 3, rng))
            solutions = 0
            for coords in itertools.product(range(p), repeat=3):
                if not any(coords):
                    continue
                if onedim_residual(a, a.element(list(coords))).is_zero():
                    solutions += 1
            oracle_lines = [s for s in enumerate_subalgebras(a) if s.dim == 1]
            assert solutions == len(oracle_lines)
            assert subspace_keys(solve_onedim(a)) == subspace_keys(oracle_lines)


# -- necessary condition ------------------------------------------------


def test_necessary_condition_on_rank2_pair():
    a = make_algebra(Q, RANK2_PAIR_ROWS)
    assert codim1_necessary(a, 3, 4)
    assert codim1_for_pair(a, 3, 4) == []  # necessity without sufficiency


def test_necessary_condition_examples():
    a = make_algebra(Q, NO_CODIM1_OVER_Q_ROWS)
    assert codim1_necessary(a, 2, 3)
    assert not codim1_necessary(a, 1, 3)
    assert not codim1_necessary(a, 1, 2)


def test_necessary_condition_guards():
    a = make_algebra(Q, NO_CODIM1_OVER_Q_ROWS)
    with pytest.raises(ValueError, match=_BAD_PAIR):
        codim1_necessary(a, 2, 2)
    with pytest.raises(ValueError, match=_NO_PAIR_ROWS):
        codim1_necessary(make_algebra(Q, identity_rows(2)), 1, 2)


def test_found_pairs_satisfy_necessary_condition():
    rng = random.Random(111)
    for p, spec in ((2, F2), (3, F3)):
        for _ in range(40):
            a = make_algebra(spec, random_regular_fp(p, 3, rng))
            for pp in range(1, 4):
                for qq in range(pp + 1, 4):
                    if codim1_for_pair(a, pp, qq):
                        assert codim1_necessary(a, pp, qq)


def test_necessary_condition_converse_dim3_reals():
    # Over the reals in dimension three the necessary condition plus
    # nonvanishing off-diagonal constants guarantees a subalgebra.
    rng = random.Random(121)
    hits = 0
    for _ in range(150):
        rows = random_regular_rational(3, rng)
        a = make_algebra(R9, [[float(x) for x in row] for row in rows])
        for pp, qq in ((1, 2), (1, 3), (2, 3)):
            apq = a.structure_constant(pp, qq)
            aqp = a.structure_constant(qq, pp)
            if apq.is_zero() or aqp.is_zero():
                continue
            if codim1_necessary(a, pp, qq):
                hits += 1
                assert codim1_for_pair(a, pp, qq)
    assert hits > 0


def test_diagnostics_record_raw_rows():
    report = enumerate_codim1(make_algebra(Q, NO_CODIM1_OVER_Q_ROWS))
    by_pair = {(d.p, d.q): d for d in report.diagnostics}
    d12 = by_pair[(1, 2)]
    assert [x.value for x in d12.row] == [2, 1]
    assert d12.closure_lhs.value == 5
    assert d12.closure_rhs.value == -2
    assert d12.closure_holds is False
    d13 = by_pair[(1, 3)]
    assert d13.closure_lhs.value == 3
    assert d13.closure_rhs.value == 0
    d23 = by_pair[(2, 3)]
    assert [c.value for c in d23.cubic.coefficients()] == [1, 0, -1, -1]
    assert d23.roots == ()
    assert d23.drop_p is False and d23.drop_q is False


def test_real_diagnostics_flag_near_tolerance_roots():
    # Frozen fixture: of the three correctly rounded roots only 1.0 has a
    # residual in the flag band.
    a = make_algebra(FLAGGED_ROOT_REALS, FLAGGED_ROOT_ROWS)
    report = enumerate_codim1(a)
    d12 = {(d.p, d.q): d for d in report.diagnostics}[(1, 2)]
    assert len(d12.roots) == 3
    assert [x.value for x in d12.flagged_roots] == [d12.roots[1].value]
    assert abs(d12.roots[1].value - 1.0) <= 1e-15


def test_real_flags_empty_for_well_conditioned_roots():
    a = make_algebra(R9, NO_CODIM1_OVER_Q_ROWS)
    for d in enumerate_codim1(a).diagnostics:
        assert d.flagged_roots == ()


def test_real_verification_handles_large_magnitudes():
    # Product coordinates reach ~1e9 here; the closure test over R is
    # scale-aware, so the root subalgebras are still accepted.
    r0 = 1200.0 + 1.0 / 3.0
    rows = [[-2.0 - r0, -2.0 * r0, 0.0], [1.0, r0 - 1.0, 0.0], [0.0, 0.0, 1.0]]
    a = make_algebra(R9, rows)
    report = enumerate_codim1(a)
    d12 = {(d.p, d.q): d for d in report.diagnostics}[(1, 2)]
    assert len(d12.roots) == 3
    assert report.count == 4  # three root planes plus one deduped rank-1 plane


def test_real_codim1_results_pass_public_closure_test():
    # Search and Subspace.contains share one closure rule over R, so every
    # reported subspace is closed by the public test at any magnitude.
    a = make_algebra(R9, SCALED_1E6_ROWS)
    report = enumerate_codim1(a)
    assert report.count > 0
    for sub in report.subspaces():
        assert sub.is_subalgebra()


def test_rank1_vector_is_normalized():
    # The returned direction has leading coefficient one even though the
    # submatrix row is recorded raw: M_{1,2} rows are (2,4) and (0,0), and
    # 16*a11 + 64*a21 = 32 = 8*a12 + 32*a22 makes the closure hold.
    rows = [[2, 0, 0, 0], [0, 1, 0, 0], [2, 4, 1, 0], [0, 0, 0, 1]]
    a = make_algebra(Q, rows)
    assert a.is_regular()
    found = codim1_for_pair(a, 1, 2)
    assert len(found) == 1
    f = found[0]
    assert f.case == CASE_ROW
    assert [x.value for x in f.vector] == [1, 2]
    report = enumerate_codim1(a)
    d = {(x.p, x.q): x for x in report.diagnostics}[(1, 2)]
    assert [x.value for x in d.row] == [2, 4]


@pytest.mark.parametrize("rows", [NEAR_TOL_REAL_ROWS, NEAR_TOL_REAL_ROWS_4], ids=["n3", "n4"])
def test_near_tol_real_algebras_match_the_exact_search(rows):
    # Entries near tol are no zeros: over R the search reads the pair ranks
    # and finds the hyperplanes (none) of the exact search on the same
    # binary values.
    real = enumerate_codim1(make_algebra(R9, rows))
    exact = enumerate_codim1(make_algebra(Q, [[Fraction(x) for x in row] for row in rows]))
    assert [d.rank for d in real.diagnostics] == [d.rank for d in exact.diagnostics]
    assert real.count == exact.count == 0


@pytest.mark.parametrize("rows", [RELATIVE_RANK1_REAL_ROWS, RELATIVE_RANK1_REAL_ROWS_4], ids=["n3", "n4"])
def test_real_rank1_closure_is_relative_to_its_products(rows):
    # Every product of the closure identity is far below tol here; compared
    # with its products, it fails, so no candidate is built.
    report = enumerate_codim1(make_algebra(R9, rows))
    assert report.count == 0
    assert all(d.closure_holds is False for d in report.diagnostics if d.rank == 1)


def _random_sparse_integer_rows(rng):
    n = rng.randint(3, 5)
    return [
        [rng.randint(-3, 3) if i == j or rng.random() < 0.35 else 0 for j in range(n)]
        for i in range(n)
    ]


def test_real_codim1_is_invariant_under_scaling():
    # sA and A have the same subalgebras, so the hyperplanes must agree.
    rng = random.Random(2024)
    checked = 0
    while checked < 40:
        rows = _random_sparse_integer_rows(rng)
        a = make_algebra(R9, [[float(x) for x in row] for row in rows])
        if not a.is_regular():
            continue
        checked += 1
        want = [sub.basis for sub in enumerate_codim1(a).subspaces()]
        for s in (1e-12, 1e-10, 1e-9, 1e-8, 1e-6, 1e-4, 1e-3, 1e-2, 1e2, 1e6):
            scaled = make_algebra(R9, [[x * s for x in row] for row in rows])
            assert [sub.basis for sub in enumerate_codim1(scaled).subspaces()] == want, (rows, s)


def test_real_codim1_contains_the_rational_one_at_every_scale():
    # Q in R: the hyperplanes of A over Q are those of sA, and the search
    # over R must find each of them at every scale s, without an error.
    rng = random.Random(2025)
    found = 0
    for _ in range(100):
        while True:
            ints = _random_sparse_integer_rows(rng)
            rows = [[Fraction(x, rng.choice((1, 2))) for x in row] for row in ints]
            exact = make_algebra(Q, rows)
            if exact.is_regular():
                break
        want = enumerate_codim1(exact).subspaces()
        found += len(want)
        for s in (1e-11, 1e-9, 1.0, 1e7):
            scaled = make_algebra(R9, [[float(x) * s for x in row] for row in rows])
            got = enumerate_codim1(scaled).subspaces()
            for sub in want:
                assert any(bases_close(sub, g, 1e-7) for g in got), (rows, s, sub.render())
    assert found >= 100


def _relabelled_rows(rows, perm):
    """Structure rows after renaming e_i to e_perm[i] (0-based)."""
    out = [[None] * len(rows) for _ in rows]
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            out[perm[i]][perm[j]] = x
    return out


def _relabelled(sub, algebra, perm):
    """The subspace ``sub`` with coordinate i moved to perm[i], in ``algebra``."""
    rows = []
    for row in sub.basis.rows():
        moved = [None] * len(row)
        for i, x in enumerate(row):
            moved[perm[i]] = x
        rows.append(moved)
    return Subspace(algebra, Matrix(algebra.spec, rows, ncols=algebra.dim))


def _assert_relabelled(got, want, context):
    # Subspace equality is the field's: exact over Q and F_p, over R up to
    # the cancellation rule, so signed zeros compare equal.
    assert len(got) == len(want) and all(w in got for w in want), context


@pytest.mark.parametrize("spec", [Q, F5, R9], ids=["Q", "F5", "R"])
def test_codim1_is_equivariant_under_relabelling(spec):
    # Renaming the basis permutes the subalgebras with it.
    rng = random.Random(31)
    checked = found = 0
    while checked < 40:
        rows = [[spec.from_int(x) for x in row] for row in _random_sparse_integer_rows(rng)]
        a = make_algebra(spec, rows)
        if not a.is_regular():
            continue
        checked += 1
        perm = rng.sample(range(a.dim), a.dim)
        b = make_algebra(spec, _relabelled_rows(rows, perm))
        want = [_relabelled(sub, b, perm) for sub in enumerate_codim1(a).subspaces()]
        _assert_relabelled(enumerate_codim1(b).subspaces(), want, (rows, perm))
        found += len(want)
    assert found >= 40


def test_fp_searches_are_equivariant_under_relabelling():
    rng = random.Random(37)
    for _ in range(15):
        n = rng.randint(3, 4)
        rows = random_regular_fp(5, n, rng)
        a = make_algebra(F5, rows)
        perm = rng.sample(range(n), n)
        b = make_algebra(F5, _relabelled_rows(rows, perm))
        for search in (solve_onedim, enumerate_subalgebras):
            want = [_relabelled(sub, b, perm) for sub in search(a)]
            _assert_relabelled(search(b), want, (rows, perm, search.__name__))


def _changed_basis(a, perm, lam):
    """``a`` in the natural basis e'_perm[i] = lam[i]*e_i (0-based, ``lam``
    nonzero scalars): a'[perm[i]][perm[j]] = lam[i]^2 * a[i][j] / lam[j]."""
    rows, n = a.structure.rows(), a.dim
    out = [[None] * n for _ in range(n)]
    for i, j in itertools.product(range(n), repeat=2):
        out[perm[i]][perm[j]] = lam[i] * lam[i] * rows[i][j] / lam[j]
    return make_algebra(a.spec, out)


def _in_changed_basis(sub, b, perm, lam):
    """The subspace ``sub`` in the algebra ``b`` of ``_changed_basis``: its
    coordinate c_j moves to perm[j] as c_j / lam[j]."""
    rows = []
    for row in sub.basis.rows():
        moved = [None] * b.dim
        for j, x in enumerate(row):
            moved[perm[j]] = x / lam[j]
        rows.append(moved)
    return Subspace(b, Matrix(b.spec, rows, ncols=b.dim))


_LAMBDAS_Q = [Fraction(x, y) for x in (1, -1, 2, -2, 3, 5, 7) for y in (1, 2, 3, 4)]


@pytest.mark.parametrize("spec", [Q, F2, F3, F5, FieldSpec.prime_field(7)], ids=["Q", "F2", "F3", "F5", "F7"])
def test_natural_basis_change(spec):
    # A regular algebra's natural basis is unique up to order and nonzero
    # scalings, so every answer must move with a change of it: regularity
    # stays, the determinant gains the factor prod(lam), and each subspace
    # the searches find maps through c_j -> c_j / lam_j (and each pair rank
    # to the renamed pair's).
    rng, checked, found = random.Random(1601), 0, 0
    exact = spec.kind == "Q"
    while checked < (150 if exact else 40):
        n = rng.randint(2, 7 if exact else 4)
        if rng.random() < 0.5:  # often singular
            rows = [[_entry(spec, rng) if rng.random() < 0.5 else 0 for _ in range(n)] for _ in range(n)]
            a = make_algebra(spec, rows)
        else:  # regular, with rank-0 and rank-1 pairs that have findings
            a = _sparse_regular_algebra(spec, n, rng)
        perm = rng.sample(range(n), n)
        if exact:
            lam = [FieldScalar(spec, rng.choice(_LAMBDAS_Q)) for _ in range(n)]
        else:
            lam = [spec.from_int(rng.randrange(1, spec.p)) for _ in range(n)]
        b, context = _changed_basis(a, perm, lam), (a.structure, perm, lam)
        assert b.is_regular() == a.is_regular(), context
        assert b.determinant() == math.prod(lam, start=spec.one()) * a.determinant(), context
        if not a.is_regular():
            continue
        checked += 1
        report, changed = enumerate_codim1(a), enumerate_codim1(b)
        ranks = {tuple(sorted((perm[d.p - 1] + 1, perm[d.q - 1] + 1))): d.rank for d in report.diagnostics}
        assert {(d.p, d.q): d.rank for d in changed.diagnostics} == ranks, context
        answers = [(report.subspaces(), changed.subspaces())]
        if not exact or n == 2:
            answers.append((solve_onedim(a), solve_onedim(b)))
        if not exact:
            answers.append((enumerate_subalgebras(a), enumerate_subalgebras(b)))
        for before, after in answers:
            want = [_in_changed_basis(sub, b, perm, lam) for sub in before]
            assert subspace_keys(after) == subspace_keys(want), context
            images = {sub.sort_key(): sub for sub in after}
            for sub, image in zip(before, want):
                moved = {frozenset(perm[k - 1] + 1 for k in s) for s in _natural_supports(sub)}
                assert set(_natural_supports(images[image.sort_key()])) == moved, context
            found += len(want)
    assert found >= 100


def _natural_supports(sub):
    """The supports of the natural basis of ``sub``, once checked: it is
    the canonical basis, its supports are pairwise disjoint and its cross
    products vanish."""
    basis = sub.natural_basis()
    assert basis == list(sub.basis_elements())
    supports = [frozenset(e.support()) for e in basis]
    for i, (u, su) in enumerate(zip(basis, supports)):
        for w, sw in zip(basis[i + 1 :], supports[i + 1 :]):
            assert not su & sw and (u * w).is_zero()
    return supports


def test_real_cubic_with_zero_linear_term_has_its_root():
    a = make_algebra(R9, TINY_CUBIC_REAL_ROWS)
    (line,) = solve_onedim(a)
    assert line.render() == "span{e1 - 0.0012599210498948732*e2}"
    (found,) = enumerate_codim1(a).found
    assert found.case == CASE_ROOT and abs(found.root.value + 2e-9 ** (1 / 3)) <= 1e-15


def test_real_cubic_with_a_small_leading_coefficient_has_three_lines():
    # The cubic 1e-8*x^3 + x^2 - 3x + 2 has three real roots; the line of
    # the one near 2 is closed, as is_subalgebra confirms.
    a = make_algebra(R9, SMALL_LEAD_REAL_ROWS)
    assert [line.render() for line in solve_onedim(a)] == [
        "span{e1 - 100000002.99999993*e2}",
        "span{e1 + 1.0000000100000004*e2}",
        "span{e1 + 1.9999999200000032*e2}",
    ]
    roots = [f.root.value for f in enumerate_codim1(a).found]
    assert roots[2] == 1.9999999200000032
    sub = _codim1_subspace(a, 1, 2, 1.0, roots[2], _Search.of(a))
    assert sub.is_subalgebra() and sub.render() == "span{e1 + 1.9999999200000032*e2}"


# -- one sameness rule: the field's equality ---------------------------

R12 = FieldSpec.approx_reals(1e-12)


def _entry(spec, rng):
    """A random nonzero entry; over R often within a factor of ten of tol."""
    if spec.kind == "Fp":
        return rng.randrange(1, spec.p)
    if spec.kind == "Q":
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.choice((1, 2, 3)))
    if rng.random() < 0.2:
        return rng.choice((-1, 1)) * spec.tol * 10 ** rng.uniform(-1, 1)
    return rng.choice((rng.randint(-4, 4) or 1, rng.uniform(-5, 5)))


def _sparse_regular_algebra(spec, n, rng):
    """Blocks of size one and two on the diagonal plus a few stray entries:
    rank-0 and rank-1 pairs, whose coordinate hyperplanes recur across pairs."""
    while True:
        rows = [[0] * n for _ in range(n)]
        i = 0
        while i < n:
            b = min(rng.choice((1, 2, 2)), n - i)
            for r, c in itertools.product(range(i, i + b), repeat=2):
                rows[r][c] = _entry(spec, rng) if rng.random() < 0.9 else 0
            i += b
        for _ in range(rng.randint(0, n)):
            rows[rng.randrange(n)][rng.randrange(n)] = _entry(spec, rng)
        a = make_algebra(spec, rows)
        if a.is_regular():
            return a


def _findings(found):
    return [(f.subspace.render(), f.p, f.q, f.case, repr(f.vector), repr(f.root)) for f in found]


@pytest.mark.parametrize("spec", [Q, F3, FieldSpec.prime_field(7), R9, R12], ids=["Q", "F3", "F7", "R9", "R12"])
def test_codim1_keeps_what_the_pairwise_equality_dedup_keeps(spec):
    rng, repeats = random.Random(1501), 0
    for _ in range(40):
        a = _sparse_regular_algebra(spec, rng.randint(3, 6), rng)
        report, want = enumerate_codim1(a), pairwise_deduplicated_codim1(a)
        assert _findings(report.found) == _findings(want)
        assert report.found == want
        candidates = sum(
            len(d.roots or ()) + bool(d.drop_p) + bool(d.drop_q) + bool(d.closure_holds) for d in report.diagnostics
        )
        repeats += candidates > report.count
    assert repeats >= 20  # algebras with a hyperplane reached from several pairs


def _lines(a):
    return [line.render() for line in solve_onedim(a)]


def _codim1_lines(a):
    return [sub.render() for sub in enumerate_codim1(a).subspaces()]


def _outcome(search, a):
    """What ``search(a)`` returns, or the type and message of what it raises."""
    try:
        return search(a)
    except NonFiniteValue as exc:
        return type(exc), str(exc)


def test_onedim_and_codim1_agree_in_dimension_two():
    for p in (2, 3, 5, 7):
        spec = FieldSpec.prime_field(p)
        for rows in all_regular_structures(p, 2):
            a = make_algebra(spec, rows)
            assert _lines(a) == _codim1_lines(a), rows
    rng = random.Random(1502)
    for spec in (Q, R9, R12):
        for _ in range(150):
            a = _sparse_regular_algebra(spec, 2, rng)
            assert _outcome(_lines, a) == _outcome(_codim1_lines, a), a.structure


def test_real_lines_merge_by_the_fields_equality():
    # Roots 1, 1 + 1e-9 and 2: the first two are equal at tol 1e-9, one line.
    a = make_algebra(R9, NEAR_EQUAL_ROOTS_REAL_ROWS)
    assert _lines(a) == _codim1_lines(a) == ["span{e1 + e2}", "span{e1 + 2*e2}"]
    assert [r.value for r in enumerate_codim1(a).diagnostics[0].roots] == [1.0, 2.0]
    # Roots about 2.7e-10 apart near 0.01: within tol, yet unequal, and both closed.
    b = make_algebra(R9, CLOSE_SMALL_ROOTS_REAL_ROWS)
    assert _lines(b) == _codim1_lines(b) == [
        "span{e1 + 0.010000000014864159*e2}",
        "span{e1 + 0.010000000285135842*e2}",
        "span{e1 + 2*e2}",
    ]
    assert all(line.is_subalgebra() for line in solve_onedim(b))


# -- the derivation decides closure; the tests check it ---------------


def _check_findings(report):
    """Check every finding of ``report`` against an oracle the search does
    not run: over R a root's line must come from a root of the pair's cubic
    read with the exact values of its float coefficients (zero at t, or a
    sign change between the floats next to t); every other finding must
    pass ``Subspace.is_subalgebra``.  Returns how many of those real root
    lines the float ``is_subalgebra``, which squares v once more, calls not
    closed."""
    cubics = {(d.p, d.q): d.cubic for d in report.diagnostics}
    rounded_out = 0
    for f in report.found:
        if f.case == CASE_ROOT and f.subspace.algebra.spec.kind == "R":
            assert changes_sign_around(cubics[f.p, f.q]._cs, f.root.value), f
            rounded_out += not f.subspace.is_subalgebra()
        else:
            assert f.subspace.is_subalgebra(), f
    return rounded_out


@pytest.mark.parametrize("spec", [R9, R12], ids=["R9", "R12"])
def test_near_tol_real_findings_hold_exactly(spec):
    # Sparse algebras with entries near tol, where a float re-check of a
    # root's line and the exact cubic can disagree: every finding passes
    # _check_findings, and the sweep must keep meeting root lines that only
    # the float re-check calls not closed.
    rng, rounded_out = random.Random(7), 0
    for _ in range(3000):
        rounded_out += _check_findings(enumerate_codim1(_sparse_regular_algebra(spec, rng.randint(2, 6), rng)))
    assert rounded_out >= 200


# -- a change of natural basis over R -----------------------------------


def _wide_real_entry(tol, rng):
    """45 % zero, 15 % from {1, -1, 2, 3}, 15 % in (-3, 3), 15 % within ten
    times tol and 10 % in (-1, 1) * 2^k, k in -40..40."""
    u = rng.random()
    if u < 0.45:
        return 0.0
    if u < 0.6:
        return float(rng.choice((1, -1, 2, 3)))
    if u < 0.75:
        return rng.uniform(-3, 3)
    if u < 0.9:
        return rng.uniform(-10, 10) * tol
    return rng.uniform(-1, 1) * 2.0 ** rng.randint(-40, 40)


def _codim1_subspaces(a):
    return enumerate_codim1(a).subspaces()


@pytest.mark.parametrize("spec", [R9, R12], ids=["R9", "R12"])
def test_real_natural_basis_change_in_dimension_two(spec):
    # A permutation times signed powers of two changes the natural basis
    # exactly in floats, so over R too every answer must move with it.  A
    # swap turns a root t of the pair's cubic into 1/t and a scaling into
    # 2^k * t, and a root is kept or dropped alike in both bases.
    rng, searched, found = random.Random(14), 0, 0
    for _ in range(3000):
        a = make_algebra(spec, [[_wide_real_entry(spec.tol, rng) for _ in range(2)] for _ in range(2)])
        perm = rng.sample(range(2), 2)
        lam = [FieldScalar(spec, rng.choice((1.0, -1.0)) * 2.0 ** rng.randint(-30, 30)) for _ in range(2)]
        b, context = _changed_basis(a, perm, lam), (a.structure, perm, lam)
        assert b.is_regular() == a.is_regular(), context
        if not a.is_regular():
            continue
        searched += 1
        for search in (solve_onedim, _codim1_subspaces):
            want = [_in_changed_basis(sub, b, perm, lam) for sub in search(a)]
            _assert_relabelled(search(b), want, context)
            found += len(want)
    assert searched >= 1400 and found >= 5000
