"""The pair scan of the codimension-one search: each pair's rank is read
in place from columns p and q of the structure matrix, with the pivot
taken from one pivot order per column.  It is checked against ``rref`` of
the pair submatrix and against the search on a copy of each pair's rows
(``support.reference_pair_search``)."""

from __future__ import annotations

import collections
import itertools
import random
from fractions import Fraction

import pytest

from evoalg import FieldSpec, NonFiniteValue, enumerate_codim1, field, finder, pair_submatrix, rref
from evoalg.linalg import _pair_rank, _rank2_columns
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
            got = outcome(lambda: _pair_rank(s, p - 1, q - 1, order, kern))
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
    assert _pair_rank(a.structure._rows, 1, 3, order, kern) == 1 == rref(pair_submatrix(a, 2, 4).matrix).rank
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


def _prepass(a, p):
    """The pairs (p, q), 1-based, that ``_rank2_columns`` decides in column p."""
    s, kern = a.structure._rows, a.spec._kernel
    return sorted(q + 1 for q in _rank2_columns(s, p - 1, kern.pivot_order([row[p - 1] for row in s]), kern))


@pytest.mark.parametrize("spec", [Q, F2, F3, F7], ids=["Q", "F2", "F3", "F7"])
def test_the_minor_pre_pass_decides_only_rank2_pairs(spec):
    # Every column of 240 seeded algebras per field, n = 3..10, densities
    # 0.1-1.0: each pair the pre-pass decides has rank 2 by _pair_rank and
    # by rref.  Over Q the pivots include fractions and entries other than
    # +-1, so the minors are not those of a scaled pivot row.
    rng = random.Random(101)
    kern = spec._kernel
    seen = {"decided": 0, "left": 0, "pivot not a unit": 0, "fraction pivot": 0}
    for k in range(240):
        n = 3 + k % 8
        a = make_algebra(spec, _rows(spec, n, rng.uniform(0.1, 1.0), rng))
        s = a.structure._rows
        for p in range(1, n + 1):
            order = kern.pivot_order([row[p - 1] for row in s])
            decided = _prepass(a, p)
            pivot = next((s[i][p - 1] for i in order if i != p - 1), 0)
            seen["pivot not a unit"] += bool(decided) and abs(pivot) != 1
            seen["fraction pivot"] += bool(decided) and type(pivot) is Fraction
            for q in decided:
                assert _pair_rank(s, p - 1, q - 1, order, kern) == 2, (a, p, q)
                assert rref(pair_submatrix(a, p, q).matrix).rank == 2, (a, p, q)
            seen["decided"] += len(decided)
            seen["left"] += n - 1 - len(decided)
    assert seen["decided"] and seen["left"] and (spec.kind != "Q" or all(seen.values())), seen


# Hand-made Q algebras, n = 5, for column p = 1.  The pre-pass pivots on
# the first row i != 1 with a nonzero entry in column 1 and reads the
# first row k0 outside {1, i}; the pairs (1, i) and (1, k0) go to
# _pair_rank, whose pivot or first residual row differs for them.
HAND_MADE = {
    # i = 2 = q: the minor of rows (2, 3) at column 2 is 1*1 - 1*3 = -2,
    # but pair (1, 2) keeps rows 3, 4, 5, which are proportional.
    "pivot row is q": ([[5, 0, 0, 0, 0], [1, 3, 0, 0, 0], [1, 1, 1, 0, 0], [2, 2, 0, 1, 0], [0, 0, 0, 0, 1]], 2, 1),
    # i = 2, k0 = 3 = q: the minor at column 3 is 2*3 - 0*1 = 6, but pair
    # (1, 3) keeps rows 2, 4, 5, which are proportional.
    "k0 is q": ([[1, 0, 0, 0, 0], [2, 1, 1, 0, 0], [0, 0, 3, 0, 0], [4, 0, 2, 1, 0], [0, 0, 0, 0, 1]], 3, 1),
    # Column 1's first nonzero sits in row 1 itself, so i = 3 and k0 = 2;
    # the minor at column 4 is 3*1 - 0*7 = 3, so pair (1, 4) is decided.
    "first nonzero in row p": ([[2, 0, 0, 0, 0], [0, 1, 0, 1, 0], [3, 0, 1, 7, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]], 4, 2),
    # i = 2, k0 = 3: the minor at column 4 is 2*2 - 4*1 = 0, so pair
    # (1, 4) goes to _pair_rank, which finds rank 2 at row 5.
    "zero minor, rank 2 later": ([[1, 0, 0, 0, 0], [2, 1, 0, 1, 0], [4, 0, 1, 2, 0], [0, 0, 0, 1, 0], [1, 0, 0, 5, 1]], 4, 2),
}


@pytest.mark.parametrize("case", HAND_MADE, ids=list(HAND_MADE))
def test_the_minor_pre_pass_on_hand_made_columns(case):
    rows, q, rank = HAND_MADE[case]
    a = make_algebra(Q, rows)
    assert a.is_regular()
    decided = _prepass(a, 1)
    assert (q in decided) == (case == "first nonzero in row p"), decided
    assert pair_submatrix(a, 1, q).rank == rank == rref(pair_submatrix(a, 1, q).matrix).rank
    diag = enumerate_codim1(a).diagnostics[q - 2]
    assert (diag.p, diag.q, diag.rank) == (1, q, rank)
    assert repr(enumerate_codim1(a)) == repr(reference_enumerate_codim1(a))


def test_no_real_pair_reaches_the_minor_pre_pass(monkeypatch):
    # Over R a pair's rank follows the cancellation rule of sub_mul, so the
    # kernel has no minors: with the exact kernels' minors made to raise,
    # the R search is unchanged, while a Q search meets the patch.
    rng = random.Random(103)
    algebras = [make_algebra(R9, _rows(R9, n, 1.0, rng)) for n in (3, 6, 10)]
    want = [outcome(lambda: repr(reference_enumerate_codim1(a))) for a in algebras]

    def refuse(*args):
        raise AssertionError("the minor pre-pass ran")

    monkeypatch.setattr(field._Rationals, "minors", refuse)
    monkeypatch.setattr(field._PrimeField, "minors", refuse)
    assert [outcome(lambda: repr(enumerate_codim1(a))) for a in algebras] == want
    with pytest.raises(AssertionError, match="pre-pass ran"):
        enumerate_codim1(make_algebra(Q, [[1, 2, 0], [0, 1, 3], [4, 0, 1]]))


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


@pytest.mark.parametrize("spec", [F7, R9], ids=["F7", "R"])
def test_pairs_that_reach_pair_rank(spec, monkeypatch):
    # A dense n = 16 search: over F_7 the pre-pass decides most pairs, so
    # fewer than a quarter reach _pair_rank; over R every pair does.
    rng = random.Random(109)
    a = make_algebra(spec, _rows(spec, 16, 1.0, rng))
    while not a.is_regular():
        a = make_algebra(spec, _rows(spec, 16, 1.0, rng))
    calls = []
    rank = finder._pair_rank
    monkeypatch.setattr(finder, "_pair_rank", lambda *args: calls.append(args) or rank(*args))
    report = enumerate_codim1(a)
    pairs = 16 * 15 // 2
    assert len(report.diagnostics) == pairs
    assert len(calls) == pairs if spec.kind == "R" else len(calls) < pairs / 4, len(calls)
