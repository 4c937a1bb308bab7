"""The pair scan of the codimension-one search: each pair's rank is read
in place from columns p and q of the structure matrix, with the pivot
taken from one pivot order per column.  It is checked against ``rref`` of
the pair submatrix and against the search on a copy of each pair's rows
(``support.reference_pair_search``)."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from evoalg import FieldSpec, NonFiniteValue, enumerate_codim1, finder, pair_submatrix, rref
from evoalg.linalg import _pair_rank
from support import (
    F2,
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
