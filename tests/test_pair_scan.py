"""The pair scan of the codimension-one search: the ranks of the pairs of
one column p are read in place from the structure matrix in one sweep
(``linalg._pair_ranks``), with the pivot taken from one pivot order per
column.  They are checked against ``rref`` of the pair submatrix and
against the search on a copy of each pair's rows
(``support.reference_enumerate_codim1``)."""

from __future__ import annotations

import collections
import itertools
import random
from fractions import Fraction

import pytest

from evoalg import FieldSpec, Matrix, NonFiniteValue, enumerate_codim1, finder, pair_submatrix, rref
from evoalg.linalg import _pair_ranks
from support import (
    F2,
    F3,
    Q,
    R9,
    make_algebra,
    outcome,
    reference_enumerate_codim1,
    reference_pair_rank,
    reference_pair_rows,
)

F7 = FieldSpec.prime_field(7)
R12 = FieldSpec.approx_reals(1e-12)
FIELDS = [Q, F2, F7, R9, R12]
IDS = ["Q", "F2", "F7", "R9", "R12"]


def _entry(spec, rng, huge: bool):
    """A nonzero entry.  Over R: often within a factor of ten of tol, often
    of magnitude 2 (so that the first among equals decides a pivot), and,
    where ``huge``, sometimes near 1e300."""
    if spec.kind == "Q":
        return Fraction(rng.choice((-6, -3, -2, -1, 1, 2, 3, 6)), rng.choice((1, 2, 3)))
    if spec.kind == "Fp":
        return rng.randrange(1, spec.p)
    sign, kind = rng.choice((-1.0, 1.0)), rng.random()
    if kind < 0.25:
        return sign * spec.tol * 10 ** rng.uniform(-1, 1)
    if kind < 0.5:
        return sign * 2.0
    if huge and kind < 0.65:
        return sign * 1e300 * rng.uniform(0.5, 1.5)
    return rng.uniform(-4, 4)


def _rows(spec, n, density, rng, huge=False):
    """An n x n structure matrix with a mostly nonzero diagonal, which often
    outweighs its column, and about ``density`` of the other entries
    nonzero.  Zeros over R are -0.0 half the time."""
    zero = (lambda: rng.choice((0.0, -0.0))) if spec.kind == "R" else (lambda: 0)
    rows = [[_entry(spec, rng, huge) if rng.random() < density else zero() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        if rng.random() < 0.9:
            rows[i][i] = _entry(spec, rng, huge) * (1 if spec.kind == "Fp" else rng.choice((1, 1, 8)))
    return rows


@pytest.mark.parametrize("spec", FIELDS, ids=IDS)
def test_pair_rank_matches_rref_of_the_pair_submatrix(spec):
    rng = random.Random(91)
    kern = spec._kernel
    seen = {"pivot in the pair": 0, "tie for the pivot": 0, "overflow": 0}
    for _ in range(150):
        n = rng.randint(3, 6)
        a = make_algebra(spec, _rows(spec, n, rng.uniform(0.1, 1.0), rng, huge=rng.random() < 0.3))
        s = a.structure._rows
        for p, q in itertools.combinations(range(1, n + 1), 2):
            order = kern.pivot_order([row[p - 1] for row in s])
            column = [abs(s[k][p - 1]) for k in order]
            seen["pivot in the pair"] += bool(order) and order[0] in (p - 1, q - 1)
            seen["tie for the pivot"] += len(column) > 1 and column[0] == column[1]
            got = outcome(lambda: _pair_ranks(s, p - 1, [q - 1], order, kern)[q - 1])
            want = outcome(lambda: rref(pair_submatrix(a, p, q).matrix).rank)
            assert got == want, (a, p, q)
            seen["overflow"] += got[0] is NonFiniteValue if isinstance(got, tuple) else 0
    assert seen["pivot in the pair"] and (spec.kind != "R" or all(seen.values())), seen


def test_the_first_among_equal_pivots_decides_over_r():
    # Column 2 (index 1) holds -2, 2, 2 outside the pair (2, 4) and 8 in
    # both rows of the pair.  Pivoting on the first 2, as rref does, leaves
    # residuals of 1.5*tol, which cancel: rank 1.  Pivoting on the last
    # would leave one of 3*tol, above the threshold: rank 2.
    tol, kern = R9.tol, R9._kernel
    pair_rows = [(-2.0, -1 - 1.5 * tol), (2.0, 1.0), (2.0, 1 + 3 * tol)]
    rows = [[1.0] * 5 for _ in range(5)]
    for k, (x, y) in zip((0, 2, 4), pair_rows):
        rows[k][1], rows[k][3] = x, y
    rows[1][1] = rows[3][1] = 8.0
    a = make_algebra(R9, rows)
    order = kern.pivot_order([row[1] for row in a.structure._rows])
    assert order == [1, 3, 0, 2, 4]
    assert _pair_ranks(a.structure._rows, 1, [3], order, kern) == {3: 1}
    assert rref(pair_submatrix(a, 2, 4).matrix).rank == 1
    assert reference_pair_rank(pair_rows[::-1], kern) == 2


@pytest.mark.parametrize("spec", FIELDS, ids=IDS)
def test_pair_scan_matches_the_row_copy_search(spec):
    # 320 algebras per field, 1,600 in all: n = 2..6, densities 0.1-1.0,
    # over R a third with entries near 1e300.  Findings and diagnostics
    # are compared by repr, errors by type and message.  Over R some pair
    # ranks overflow, and some of those inside a search.
    rng = random.Random(93)
    overflows = {"search": 0, "pair rank": 0}
    for k in range(320):
        n, density = 2 + k % 5, 0.1 + 0.9 * rng.random()
        a = make_algebra(spec, _rows(spec, n, density, rng, huge=k % 3 == 0))
        new = outcome(lambda: repr(enumerate_codim1(a)))
        assert new == outcome(lambda: repr(reference_enumerate_codim1(a))), a
        overflows["search"] += isinstance(new, tuple) and new[0] is NonFiniteValue
        kern = spec._kernel
        for p, q in itertools.combinations(range(1, n + 1), 2):
            if n >= 3:
                want = outcome(lambda: reference_pair_rank(reference_pair_rows(a, p, q), kern))
                assert outcome(lambda: pair_submatrix(a, p, q).rank) == want, (a, p, q)
                overflows["pair rank"] += isinstance(want, tuple) and want[0] is NonFiniteValue
    assert spec.kind != "R" or all(overflows.values()), overflows


@pytest.mark.parametrize("spec", [Q, F7, R9], ids=["Q", "F7", "R"])
def test_the_search_copies_no_pair_rows(spec, monkeypatch):
    rng = random.Random(97)
    for _ in range(3):
        a = make_algebra(spec, _rows(spec, 8, 1.0, rng))
        while not a.is_regular():
            a = make_algebra(spec, _rows(spec, 8, 1.0, rng))
        want = repr(reference_enumerate_codim1(a))

        def refuse(*args):
            raise AssertionError("the search copied a pair's rows")

        monkeypatch.setattr(finder, "_pair_rows", refuse)
        assert repr(enumerate_codim1(a)) == want
        monkeypatch.undo()


def _column(a, p):
    """``_pair_ranks`` of column p (1-based) for every other column q, as
    the outcome of one sweep and of one call per q, keyed by the 1-based q."""
    s, kern = a.structure._rows, a.spec._kernel
    order = kern.pivot_order([row[p - 1] for row in s])
    qs = [q for q in range(1, a.dim + 1) if q != p]
    sweep = outcome(lambda: _pair_ranks(s, p - 1, [q - 1 for q in qs], order, kern))
    sweep = {q + 1: r for q, r in sweep.items()} if isinstance(sweep, dict) else sweep
    return sweep, {q: outcome(lambda: _pair_ranks(s, p - 1, [q - 1], order, kern)[q - 1]) for q in qs}


@pytest.mark.parametrize("spec", [Q, F2, F3, F7, R9, R12], ids=["Q", "F2", "F3", "F7", "R9", "R12"])
def test_pair_ranks_of_every_column_match_the_pair_submatrix(spec):
    # Every column of 240 seeded algebras per field, n = 3..10, densities
    # 0.1-1.0, over R a third with entries near 1e300: the sweep of column
    # p over every other q gives the rank of each pair (p, q) ranked alone,
    # and raises NonFiniteValue exactly where some pair ranked alone does.
    # Alone, each rank, or its overflow, is that of reference_pair_rank on a
    # copy of the pair's rows and of rref on that copy, except that rref
    # also overflows on rows after the first nonzero residual of a rank-2
    # pair.  Over Q the pivots include fractions and entries other than +-1.
    rng = random.Random(101)
    kern = spec._kernel
    seen = collections.Counter()
    for k in range(240):
        n = 3 + k % 8
        a = make_algebra(spec, _rows(spec, n, rng.uniform(0.1, 1.0), rng, huge=k % 3 == 0))
        s = a.structure._rows
        for p in range(1, n + 1):
            sweep, alone = _column(a, p)
            overflows = [q for q, got in alone.items() if isinstance(got, tuple)]
            if overflows:
                assert sweep[0] is NonFiniteValue and sweep in [alone[q] for q in overflows], (a, p)
                seen["overflow"] += 1
            else:
                assert sweep == alone, (a, p)
            order = kern.pivot_order([row[p - 1] for row in s])
            pivot = next((s[i][p - 1] for i in order if i != p - 1), 0)
            seen["pivot not a unit"] += abs(pivot) not in (0, 1)
            seen["fraction pivot"] += type(pivot) is Fraction
            seen["q = i pivots on the next row"] += len([i for i in order if i != p - 1]) > 1
            for q, got in alone.items():
                rows = reference_pair_rows(a, p, q)
                assert got == outcome(lambda: reference_pair_rank(rows, kern)), (a, p, q)
                want = outcome(lambda: rref(Matrix._trusted(spec, rows, 2)).rank)
                assert got == want or got == 2 and want[0] is NonFiniteValue, (a, p, q)
                seen[f"rank {got}" if isinstance(got, int) else "pair overflow"] += 1
    wanted = ["rank 0", "rank 1", "rank 2", "q = i pivots on the next row"]
    wanted += ["pivot not a unit", "fraction pivot"] if spec.kind == "Q" else []
    wanted += ["overflow", "pair overflow"] if spec.kind == "R" else []
    assert all(seen[key] for key in wanted), seen


# Hand-made Q algebras, n = 5, for column p = 1.  Pair (1, q) pivots on
# the first row i != 1 with a nonzero entry in column 1, or, where q = i,
# on the next one; the sweep then tests rows 2..5 in index order, each
# against the columns q still undecided but its own.
HAND_MADE = {
    # i = 2 = q: pair (1, 2) pivots on row 3 and keeps rows 3, 4, 5,
    # which are proportional, while rows 2 and 3 are not.
    "pivot row is q": ([[5, 0, 0, 0, 0], [1, 3, 0, 0, 0], [1, 1, 1, 0, 0], [2, 2, 0, 1, 0], [0, 0, 0, 0, 1]], 2, 1),
    # i = 2, and k0 = 3, the first row tested, is q: pair (1, 3) keeps
    # rows 2, 4, 5, which are proportional.
    "k0 is q": ([[1, 0, 0, 0, 0], [2, 1, 1, 0, 0], [0, 0, 3, 0, 0], [4, 0, 2, 1, 0], [0, 0, 0, 0, 1]], 3, 1),
    # Column 1's first nonzero sits in row 1 itself, so i = 3, and row 2
    # already has a nonzero residual 3*1 - 0*7 at column 4.
    "first nonzero in row p": ([[2, 0, 0, 0, 0], [0, 1, 0, 1, 0], [3, 0, 1, 7, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]], 4, 2),
    # i = 2: the minor 2*2 - 4*1 of row 3 at column 4 is zero, and pair
    # (1, 4) has rank 2 only at row 5.
    "zero minor, rank 2 later": ([[1, 0, 0, 0, 0], [2, 1, 0, 1, 0], [4, 0, 1, 2, 0], [0, 0, 0, 1, 0], [1, 0, 0, 5, 1]], 4, 2),
}


@pytest.mark.parametrize("case", HAND_MADE, ids=list(HAND_MADE))
def test_pair_ranks_on_hand_made_columns(case):
    rows, q, rank = HAND_MADE[case]
    a = make_algebra(Q, rows)
    assert a.is_regular()
    sweep, alone = _column(a, 1)
    assert sweep == alone and sweep[q] == rank, sweep
    assert pair_submatrix(a, 1, q).rank == rank == rref(pair_submatrix(a, 1, q).matrix).rank
    diag = enumerate_codim1(a).diagnostics[q - 2]
    assert (diag.p, diag.q, diag.rank) == (1, q, rank)
    assert repr(enumerate_codim1(a)) == repr(reference_enumerate_codim1(a))


def _spy(monkeypatch):
    """Record the columns and the qs (0-based) of every ``_pair_ranks`` call
    of the search."""
    calls = []
    ranks = finder._pair_ranks

    def spy(rows, p, qs, *rest):
        calls.append((p, list(qs)))
        return ranks(rows, p, qs, *rest)

    monkeypatch.setattr(finder, "_pair_ranks", spy)
    return calls


@pytest.mark.parametrize("spec", [Q, F7, R9], ids=["Q", "F7", "R"])
def test_each_column_is_ranked_in_one_sweep(spec, monkeypatch):
    # A dense n = 16 search in every field: one call per column p < n,
    # for every q > p at once.
    rng = random.Random(109)
    a = make_algebra(spec, _rows(spec, 16, 1.0, rng))
    while not a.is_regular():
        a = make_algebra(spec, _rows(spec, 16, 1.0, rng))
    calls = _spy(monkeypatch)
    assert len(enumerate_codim1(a).diagnostics) == 16 * 15 // 2
    assert calls == [(p, list(range(p + 1, 16))) for p in range(15)]


# Column 1 pivots on row 2 (ties go to the first).  Pair (1, 4) overflows
# at row 3 with +inf, pair (1, 3) at row 4 with -inf: the sweep meets row
# 3 first, the scan pair (1, 3) first.
OVERFLOW_ORDER_REAL_ROWS = [
    [1.0, 0.0, 0.0, 0.0],
    [1.0, 1.0, 1e308, -1e308],
    [1.0, 0.0, 1.0, 1e308],
    [1.0, 0.0, -1e308, 1.0],
]


def test_a_column_whose_sweep_overflows_is_ranked_pair_by_pair(monkeypatch):
    a = make_algebra(R9, OVERFLOW_ORDER_REAL_ROWS)
    assert a.is_regular()
    with pytest.raises(NonFiniteValue, match=r"got inf\Z"):
        _pair_ranks(a.structure._rows, 0, [1, 2, 3], [0, 1, 2, 3], R9._kernel)
    calls = _spy(monkeypatch)
    want = (NonFiniteValue, "real scalar must be finite, got -inf")
    assert outcome(lambda: enumerate_codim1(a)) == want
    assert calls == [(0, [1, 2, 3]), (0, [1]), (0, [2])]
    monkeypatch.undo()
    assert outcome(lambda: reference_enumerate_codim1(a)) == want
    ranks = [outcome(lambda: pair_submatrix(a, 1, q).rank) for q in (2, 3, 4)]
    assert ranks == [1, want, (NonFiniteValue, "real scalar must be finite, got inf")]


@pytest.mark.parametrize("spec", [Q, F2, F7, R9], ids=["Q", "F2", "F7", "R"])
def test_dense_large_searches_match_the_row_copy_search(spec):
    # Dense algebras, n = 8..12, densities 0.7-1.0, over R a third with
    # entries near 1e300, drawn until 20 per field are searched: findings
    # and diagnostics by repr, errors (singular draws) by type and message.
    rng = random.Random(107)
    seen = collections.Counter()
    while seen["searched"] < 20:
        k = sum(seen.values())
        a = make_algebra(spec, _rows(spec, 8 + k % 5, 0.7 + 0.3 * rng.random(), rng, huge=k % 3 == 0))
        new = outcome(lambda: repr(enumerate_codim1(a)))
        assert new == outcome(lambda: repr(reference_enumerate_codim1(a))), a
        seen["searched" if isinstance(new, str) else new[0].__name__] += 1
