"""RREF, determinant, and inverse over all three field backends."""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from evoalg import (
    EvolutionAlgebra,
    FieldSpec,
    Matrix,
    NonFiniteValue,
    SingularMatrix,
    determinant,
    enumerate_codim1,
    inverse,
    linalg,
    rref,
)
from evoalg.field import _PRIME_TEST_LIMIT, _is_prime, _PrimeField, _Rationals, _Reals
from evoalg.linalg import _det_of, _elimination, _pair_ranks
from support import (
    F2,
    F3,
    F5,
    LARGEST_PRIME,
    NEAR_SINGULAR_REAL_ROWS,
    NO_CODIM1_OVER_Q_ROWS,
    Q,
    R9,
    SHIFT_NILPOTENT_ROWS,
    fraction_det,
    make_matrix,
    scalar_elimination,
)

F7 = FieldSpec.prime_field(7)


def _draw(spec, rng):
    """A random entry: often an exact zero, over R often within a factor of
    ten of the tolerance."""
    if rng.random() < 0.3:
        return 0
    if spec == Q:
        return Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
    if spec == R9:
        if rng.random() < 0.4:
            return rng.choice((-1, 1)) * spec.tol * 10 ** rng.uniform(-1, 1)
        return rng.uniform(-4, 4)
    return rng.randrange(spec.p)


def test_rref_swaps_to_identity():
    res = rref(make_matrix(Q, [[0, 1], [1, 1]]))
    assert res.rank == 2
    assert res.pivot_cols == (0, 1)
    assert res.rref == Matrix.identity(Q, 2)


def test_rref_dependent_rows_over_f2():
    # row3 = row1 + row2 over F_2, so the rank drops to 2.
    res = rref(make_matrix(F2, [[1, 1, 0], [0, 1, 1], [1, 0, 1]]))
    assert res.rank == 2


def test_rref_zero_matrix():
    res = rref(make_matrix(Q, [[0, 0, 0], [0, 0, 0], [0, 0, 0]]))
    assert res.rank == 0
    assert res.pivot_cols == ()


def test_rref_idempotent():
    rng = random.Random(5)
    for spec, draw in ((Q, lambda: Fraction(rng.randint(-5, 5))), (F3, lambda: rng.randrange(3))):
        for _ in range(30):
            m = make_matrix(spec, [[draw() for _ in range(4)] for _ in range(3)])
            once = rref(m)
            twice = rref(once.rref)
            assert once.rref == twice.rref
            assert once.pivot_cols == twice.pivot_cols


def test_rref_pivot_structure():
    rng = random.Random(6)
    for _ in range(40):
        m = make_matrix(F5, [[rng.randrange(5) for _ in range(4)] for _ in range(4)])
        res = rref(m)
        assert list(res.pivot_cols) == sorted(res.pivot_cols)
        for r, c in enumerate(res.pivot_cols):
            assert res.rref.entry(r, c).is_one()
            for other in range(res.rref.nrows):
                if other != r:
                    assert res.rref.entry(other, c).is_zero()
        for r in range(res.rank, res.rref.nrows):
            assert all(x.is_zero() for x in res.rref.row(r))


def test_rank_equals_transpose_rank():
    rng = random.Random(17)
    for spec, draw in ((Q, lambda: Fraction(rng.randint(-3, 3), rng.choice((1, 2)))),
                       (F2, lambda: rng.randrange(2))):
        for _ in range(40):
            m = make_matrix(spec, [[draw() for _ in range(3)] for _ in range(4)])
            assert rref(m).rank == rref(m.transpose()).rank


def test_rank_against_kernel_count():
    # Independent check over tiny fields: |kernel| = p^(n - rank).
    for p, spec in ((2, F2), (3, F3)):
        rng = random.Random(p)
        for _ in range(20):
            rows = [[rng.randrange(p) for _ in range(3)] for _ in range(3)]
            m = make_matrix(spec, rows)
            rank = rref(m).rank
            kernel = 0
            for vec in itertools.product(range(p), repeat=3):
                if all(
                    sum(rows[i][j] * vec[j] for j in range(3)) % p == 0 for i in range(3)
                ):
                    kernel += 1
            assert kernel == p ** (3 - rank)


def test_determinant_identity():
    assert determinant(Matrix.identity(Q, 3)).value == 1


def test_determinant_hand_value():
    m = make_matrix(Q, NO_CODIM1_OVER_Q_ROWS)
    assert determinant(m).value == -1


def test_determinant_of_nilpotent_shift():
    assert determinant(make_matrix(Q, SHIFT_NILPOTENT_ROWS)).is_zero()


def test_determinant_matches_cofactor_oracle():
    rng = random.Random(23)
    for _ in range(60):
        rows = [[Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(3)] for _ in range(3)]
        m = make_matrix(Q, rows)
        assert determinant(m).value == fraction_det(rows)


def test_determinant_non_square():
    with pytest.raises(ValueError, match="determinant of a 2x3 matrix"):
        determinant(make_matrix(Q, [[1, 2, 3], [4, 5, 6]]))


def test_determinant_detects_rank():
    rng = random.Random(31)
    for _ in range(40):
        m = make_matrix(F3, [[rng.randrange(3) for _ in range(3)] for _ in range(3)])
        assert (not determinant(m).is_zero()) == (rref(m).rank == 3)


def test_determinant_near_singular_reals_is_zero():
    m = make_matrix(R9, NEAR_SINGULAR_REAL_ROWS)
    assert rref(m).rank == 2
    det = determinant(m)
    assert det.spec == R9 and det.value == 0


_Q_SQUARE_KINDS = ("fractional", "zero row", "zero column", "duplicate row", "rank n-1", "rank n-2")


def _q_square(n, kind, rng):
    """An n x n grid of fractional entries, a third of them zero so that
    pivot searches swap rows; ``kind`` plants a zero row, a zero column, a
    duplicate row, or rank at most n-1 or n-2 from random combinations of
    the other rows."""
    rows = [
        [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) if rng.random() < 0.67 else Fraction(0) for _ in range(n)]
        for _ in range(n)
    ]
    if kind == "zero row" and n:
        rows[rng.randrange(n)] = [Fraction(0)] * n
    elif kind == "zero column" and n:
        j = rng.randrange(n)
        for row in rows:
            row[j] = Fraction(0)
    elif kind == "duplicate row" and n > 1:
        i, j = rng.sample(range(n), 2)
        rows[i] = list(rows[j])
    elif kind.startswith("rank") and n > int(kind[-1]):
        free = n - int(kind[-1])
        for i in range(free, n):
            fs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(free)]
            rows[i] = [sum(f * row[j] for f, row in zip(fs, rows)) for j in range(n)]
        rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("kind", _Q_SQUARE_KINDS)
def test_q_determinant_and_rank_match_references(kind):
    # Over Q the determinant and the rank come from fraction-free
    # elimination; cofactor expansion, the FieldScalar elimination and
    # rref are independent of it.
    rng = random.Random(83 + _Q_SQUARE_KINDS.index(kind))
    for n in range(11):
        for _ in range(4):
            rows = _q_square(n, kind, rng)
            m = Matrix.from_rows(Q, rows, ncols=n)
            elimination = _elimination(m)
            rank, det = elimination[0], _det_of(m, elimination)
            assert det == determinant(m) == scalar_elimination(m)[2]
            if n <= 6:
                assert det.value == fraction_det(rows)
            assert rank == rref(m).rank
            assert EvolutionAlgebra(m).is_regular() == (rank == n)
            if kind.startswith("rank") and n > int(kind[-1]):
                assert rank <= n - int(kind[-1])
    assert determinant(Matrix(Q, [], ncols=0)).value == 1


def test_q_determinant_cost_is_polynomial_in_bit_length():
    # 40-digit numerators and denominators: the numerator and the
    # denominator of the determinant have about 10,000 digits each.
    rng = random.Random(89)

    def digits():
        return rng.randrange(10**39, 10**40)

    rows = [[Fraction(rng.choice((-1, 1)) * digits(), digits()) for _ in range(16)] for _ in range(16)]
    m = make_matrix(Q, rows)
    start = time.process_time()
    det = determinant(m)
    elapsed = time.process_time() - start
    assert det == scalar_elimination(m)[2]
    assert elapsed < 1.0, f"{elapsed:.2f} s of CPU time"


_FP_PRIMES = (2, 3, 7, 65537, 2**31 - 1, 2**61 - 1, LARGEST_PRIME)
_FP_SQUARE_KINDS = (
    "dense", "zero column", "duplicate row", "scaled row", "rank n-1", "rank n-2", "rank n-3",
    "anti-triangular", "all p-1", "full growth", "permuted full growth",
)


def _full_growth(p, n, rng):
    """L @ U mod p, with L lower unitriangular of ones and U upper
    triangular with nonzero pivots and p-1 above them: eliminated in row
    order, every row below a pivot takes the multiplier -1 against a
    reduced pivot row of p-1, so each of its slots gains (p-1)**2 at every
    column, n - 1 times in the last row."""
    u = [[rng.randrange(1, p) if j == i else p - 1 if j > i else 0 for j in range(n)] for i in range(n)]
    return [[sum(u[k][j] for k in range(i + 1)) % p for j in range(n)] for i in range(n)]


def _fp_square(p, n, kind, density, rng):
    """An n x n grid of residues mod p, each nonzero with probability
    ``density``, shaped by ``kind``: a zero column, a duplicated or
    scaled row, rank at most n-1, n-2 or n-3 from combinations of the
    other rows, the anti-triangular grid whose first column pivots on the
    last row, every entry p-1, or the grids of ``_full_growth``."""
    rows = [[rng.randrange(1, p) if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
    if kind == "zero column" and n:
        j = rng.randrange(n)
        for row in rows:
            row[j] = 0
    elif kind in ("duplicate row", "scaled row") and n > 1:
        i, j = rng.sample(range(n), 2)
        s = 1 if kind == "duplicate row" else rng.randrange(1, p)
        rows[i] = [s * x % p for x in rows[j]]
    elif kind.startswith("rank") and n > int(kind[-1]):
        free = n - int(kind[-1])
        for i in range(free, n):
            fs = [rng.randrange(p) for _ in range(free)]
            rows[i] = [sum(f * row[j] for f, row in zip(fs, rows)) % p for j in range(n)]
        rng.shuffle(rows)
    elif kind == "anti-triangular":
        rows = [[rng.randrange(1, p) if i + j >= n - 1 else 0 for j in range(n)] for i in range(n)]
    elif kind == "all p-1":
        rows = [[p - 1] * n for _ in range(n)]
    elif kind.endswith("full growth"):
        rows = _full_growth(p, n, rng)
        if kind.startswith("permuted"):
            rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("p", _FP_PRIMES, ids=lambda p: f"p{p.bit_length()}bit")
def test_fp_determinant_and_rank_match_references(p):
    # The packed-integer elimination of _PrimeField against the
    # FieldScalar elimination, rref and, up to n = 5, cofactor expansion.
    # The full-growth grids add (n-1)*(p-1)**2 to the last row's slots,
    # so a slot width one bit short carries into the next slot.  The
    # anti-triangular grids swap rows; their determinant has the sign of
    # reversing n rows, so both swap parities occur.
    kern, spec = _PrimeField(p), FieldSpec.prime_field(p)
    rng = random.Random(97)
    cases = [(n, kind) for n in range(13) for kind in _FP_SQUARE_KINDS]
    for n, kind in cases + [(40, "dense"), (40, "full growth"), (40, "permuted full growth")]:
        rows = _fp_square(p, n, kind, rng.choice((0.1, 0.3, 0.5, 0.8, 1.0)), rng)
        m = Matrix.from_rows(spec, rows, ncols=n)
        det, rank = kern.det_and_rank(m._rows)
        assert 0 <= det < p and det == scalar_elimination(m)[2].value, (n, kind, rows)
        assert rank == rref(m).rank and (det != 0) == (rank == n), (n, kind, rows)
        if n <= 5:
            assert det == fraction_det(rows) % p
        if kind == "anti-triangular":
            assert det == (-1) ** (n * (n - 1) // 2) * math.prod(rows[i][n - 1 - i] for i in range(n)) % p
        elif kind.endswith("full growth"):
            assert rank == n
        elif kind == "all p-1":
            assert rank == min(n, 1)
        elif kind.startswith("rank") and n > int(kind[-1]):
            assert rank <= n - int(kind[-1])
    assert not any(_is_prime(k) for k in range(LARGEST_PRIME + 1, _PRIME_TEST_LIMIT))


def test_fp_determinant_routes_past_the_forward_elimination(monkeypatch):
    # Over F_p and Q the determinant, regularity and the codimension-one
    # search never reach _eliminate nor the kernel's scale or sub_multiple,
    # the row operations it is made of; over R they do, and over every
    # field rref and inverse do.
    calls = []

    def spy(owner, name):
        orig = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: calls.append(name) or orig(*args))

    spy(linalg, "_eliminate")
    for cls in (_Rationals, _PrimeField, _Reals):
        spy(cls, "scale")
        spy(cls, "sub_multiple")
    rng = random.Random(103)
    for spec in (Q, F7, FieldSpec.prime_field(LARGEST_PRIME), R9):
        while True:
            rows = [[_draw(spec, rng) for _ in range(6)] for _ in range(6)]
            a = EvolutionAlgebra(Matrix.from_rows(spec, rows))
            if a.is_regular():
                break
        calls.clear()
        a = EvolutionAlgebra(a.structure)
        a.determinant()
        determinant(a.structure)
        enumerate_codim1(a)
        if spec == R9:
            assert "_eliminate" in calls and "sub_multiple" in calls
        else:
            assert calls == [], spec
        for op in (rref, inverse):
            calls.clear()
            op(a.structure)
            assert "_eliminate" in calls and "sub_multiple" in calls, (spec, op)


def test_inverse_identity():
    assert inverse(Matrix.identity(F5, 4)) == Matrix.identity(F5, 4)


def test_inverse_scalar():
    inv = inverse(make_matrix(Q, [[2]]))
    assert inv.entry(0, 0).value == Fraction(1, 2)


def test_inverse_of_singular_matrix():
    with pytest.raises(SingularMatrix):
        inverse(make_matrix(Q, SHIFT_NILPOTENT_ROWS))


def test_inverse_roundtrip():
    rng = random.Random(41)
    ident_q = Matrix.identity(Q, 3)
    ident_f5 = Matrix.identity(F5, 3)
    for spec, ident, draw in (
        (Q, ident_q, lambda: Fraction(rng.randint(-4, 4), rng.choice((1, 2)))),
        (F5, ident_f5, lambda: rng.randrange(5)),
    ):
        done = 0
        while done < 20:
            m = make_matrix(spec, [[draw() for _ in range(3)] for _ in range(3)])
            if determinant(m).is_zero():
                continue
            inv = inverse(m)
            assert m @ inv == ident
            assert inv @ m == ident
            done += 1


def test_real_rref_partial_pivoting():
    m = make_matrix(R9, [[1e-12, 1.0], [1.0, 1.0]])
    res = rref(m)
    # The 1e-12 entry is zero at tol 1e-9, so column 0 pivots on the second row.
    assert res.rank == 2
    assert res.rref == Matrix.identity(R9, 2)


def test_real_rank_respects_tolerance():
    m = make_matrix(R9, [[1.0, 2.0], [1.0 + 1e-12, 2.0 + 1e-12]])
    assert rref(m).rank == 1


def test_real_inverse_roundtrip():
    rng = random.Random(55)
    for _ in range(20):
        rows = [[rng.uniform(-3, 3) for _ in range(3)] for _ in range(3)]
        m = make_matrix(R9, rows)
        if determinant(m).is_zero():
            continue
        prod = m @ inverse(m)
        assert prod == Matrix.identity(R9, 3)


def test_empty_matrix_needs_ncols():
    with pytest.raises(ValueError):
        Matrix(Q, [])
    m = Matrix(Q, [], ncols=3)
    assert m.nrows == 0 and m.ncols == 3
    assert rref(m).rank == 0


@pytest.mark.parametrize("spec", [Q, F2, F7, R9], ids=["Q", "F2", "F7", "R"])
def test_pair_rank_matches_rref_rank(spec):
    # Each two-column matrix is read as the pair submatrix of p, q = 0, 1,
    # below two rows of the pair that the rank must skip: they are drawn
    # from their own generator, as zeros or as entries that outweigh the
    # whole column, so that the pivot order would put them first if they
    # counted.
    rng, pair_rng = random.Random(71), random.Random(72)
    kern = spec._kernel
    for _ in range(500):
        xs = [_draw(spec, rng) for _ in range(rng.randint(0, 6))]
        mode = rng.random()
        if mode < 0.3:
            ys = [0] * len(xs)
        elif mode < 0.7:
            # A multiple of column 1: rank 1 over exact fields; over R the
            # entries near tol decide which side of the threshold it falls.
            s = _draw(spec, rng) or 1
            ys = [x * s for x in xs]
            if spec == R9:
                ys = [y + rng.choice((0, spec.tol * 10 ** rng.uniform(-1, 1))) for y in ys]
        else:
            ys = [_draw(spec, rng) for _ in xs]
        m = Matrix.from_rows(spec, [[x, y] for x, y in zip(xs, ys)], ncols=2)
        xv = [r[0].value for r in m.rows()]
        yv = [r[1].value for r in m.rows()]
        pair = [[pair_rng.choice((0, 1, -1)) * pair_rng.choice((1, 10**6)) for _ in "xy"] for _ in "pq"]
        grid = [[kern.canonical(x) for x in row] for row in pair] + list(map(list, zip(xv, yv)))
        order = kern.pivot_order([row[0] for row in grid])
        assert _pair_ranks(grid, 0, [1], order, kern) == {1: rref(m).rank}, m


@pytest.mark.parametrize("spec", [Q, F2, F7, R9], ids=["Q", "F2", "F7", "R"])
def test_elimination_matches_scalar_reference(spec):
    # Same pivots and the same operations in the same order: equal over the
    # exact fields and bit for bit equal over R (compared through repr, so
    # that the sign of a zero counts).
    rng = random.Random(73)
    for _ in range(150):
        nrows = rng.randint(0, 5)
        ncols = nrows if rng.random() < 0.5 and nrows else rng.randint(1, 5)
        m = Matrix.from_rows(
            spec, [[_draw(spec, rng) for _ in range(ncols)] for _ in range(nrows)], ncols=ncols
        )
        rows, pivots, det = scalar_elimination(m)
        res = rref(m)
        assert res.pivot_cols == pivots and res.rank == len(pivots)
        assert [[repr(x.value) for x in r] for r in res.rref.rows()] == [
            [repr(x.value) for x in r] for r in rows
        ]
        if nrows == ncols:
            assert repr(determinant(m).value) == repr(det.value)


@pytest.mark.parametrize("spec", [Q, F2, F7, R9], ids=["Q", "F2", "F7", "R"])
def test_sparse_elimination_matches_scalar_reference(spec):
    # Mostly zero rows, many of them with a leading one, so that pivot rows
    # are left unscaled and most row-operation entries face a zero; over R
    # a zero is as often -0.0, whose sign must survive bit for bit.
    rng = random.Random(101)
    zeros = (0.0, -0.0) if spec == R9 else (0,)
    for _ in range(200):
        nrows = rng.randint(1, 6)
        ncols = nrows if rng.random() < 0.5 else rng.randint(1, 6)
        rows = []
        for _ in range(nrows):
            row = [rng.choice(zeros) if rng.random() < 0.7 else _draw(spec, rng) or 1 for _ in range(ncols)]
            lead = next((j for j, x in enumerate(row) if x != 0), None)
            if lead is not None and rng.random() < 0.6:
                row[lead] = 1
            rows.append(row)
        m = Matrix.from_rows(spec, rows, ncols=ncols)
        want_rows, pivots, det = scalar_elimination(m)
        res = rref(m)
        assert res.pivot_cols == pivots
        assert [[repr(x.value) for x in r] for r in res.rref.rows()] == [
            [repr(x.value) for x in r] for r in want_rows
        ]
        if nrows == ncols:
            assert repr(determinant(m).value) == repr(det.value)


def test_real_rref_and_inverse_do_not_form_the_determinant():
    # The pivot product 1e600 overflows; only the determinant needs it.
    m = make_matrix(R9, [[1e300, 0], [0, 1e300]])
    assert rref(m).rref == Matrix.identity(R9, 2)
    assert [[x.value for x in row] for row in inverse(m).rows()] == [[1e-300, 0.0], [0.0, 1e-300]]
    with pytest.raises(NonFiniteValue):
        determinant(m)


def test_real_overflow_raises_instead_of_vanishing():
    # Clearing the first column adds 1e308 to 1e308; that infinity must not
    # be scaled away by the next pivot or zeroed with its row.
    m = make_matrix(R9, [[1, 1e308], [-1, 1e308]])
    for op in (rref, determinant, inverse):
        with pytest.raises(NonFiniteValue):
            op(m)
    # Infinities that no later pivot meets: one becomes NaN beside the
    # second pivot, one sits in a scaled pivot row above a zero row.  Left
    # unchecked, each would leave a determinant of zero behind.
    for rows in ([[1, 0, -1e308], [1, 1, 1e308], [1, 0.5, 1e308]], [[1e-5, 1e305], [0, 0]]):
        with pytest.raises(NonFiniteValue):
            determinant(make_matrix(R9, rows))
    # The error names the first non-finite intermediate, as the same
    # FieldScalar operation would: here the back-pass product 1e308 * 1e308.
    with pytest.raises(NonFiniteValue, match=r"got inf$"):
        rref(make_matrix(R9, [[1, 1e308, 0], [0, 1, 1e308]]))


def test_real_overflow_matches_scalar_reference():
    # Huge entries: either both eliminations finish with the same result,
    # or both stop at the same first non-finite value.
    def outcome(fn):
        try:
            rows, pivots, det = fn()
        except NonFiniteValue as exc:
            return str(exc)
        return [[repr(x.value) for x in r] for r in rows], pivots, repr(det.value)

    def library(m):
        res = rref(m)
        return res.rref.rows(), res.pivot_cols, determinant(m)

    rng = random.Random(79)
    overflows = 0
    for _ in range(300):
        n = rng.randint(2, 4)
        rows = [
            [rng.choice((0, 1)) * rng.uniform(-1.7, 1.7) * 10 ** rng.uniform(0, 308) for _ in range(n)]
            for _ in range(n)
        ]
        m = make_matrix(R9, rows)
        expected = outcome(lambda: scalar_elimination(m))
        overflows += isinstance(expected, str)
        assert outcome(lambda: library(m)) == expected, rows
    assert overflows > 30
