"""Dense linear algebra over a FieldSpec: RREF, rank, determinant, inverse.

``Matrix`` stores raw values (see ``field``): its constructor unwraps
``FieldScalar`` entries once, ``Matrix._trusted`` takes canonical raw rows
as they are, and ``rows``/``row``/``entry`` create ``FieldScalar`` on the
way out.  ``rref`` and ``inverse`` run one forward elimination on the raw
rows, through the ``FieldSpec``'s kernel with no field check per
operation, and finish it with a back pass over the pivot rows; over R
``determinant`` reads the signed product of its pivots, over Q and F_p
the kernel's own elimination: fraction-free on ints over Q, on rows
packed into one int each over F_p.  The matrix product uses the same
kernel.  Everything is exact over Q and F_p.  Over
R the pivot is the nonzero entry of largest magnitude; an entry is zero
only where a row operation cancelled it (``field._Reals``), so rank and
regularity do not change when the matrix is scaled, and an operation
that overflows raises NonFiniteValue, as does a determinant whose
pivot product leaves the normal float range.

The rank of a pair submatrix, which decides each pair of the
codimension-one search, has its own early-exit helper on the same pivot
rule and row operations.  It reads columns p and q of the structure
matrix in place: the pivot is the first row outside the pair in the
kernel's ``pivot_order`` of column p, which the search takes once per
column, and the residuals follow in row order.  Over Q and F_p the
search first takes one division-free row operation per column, the
kernel's ``minors`` of the pivot row and the first other row, whose
nonzero entries rule out most rank-2 pairs before any per-pair call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import SingularMatrix
from .field import FieldScalar, FieldSpec, _coerced_value, _value_of


class Matrix:
    """Immutable row-major grid of raw values of one FieldSpec, which
    enter and leave (``rows``, ``row``, ``entry``) as ``FieldScalar``."""

    __slots__ = ("spec", "nrows", "ncols", "_rows")

    def __init__(self, spec: FieldSpec, rows: Iterable[Iterable[FieldScalar]], *, ncols: int | None = None):
        grid = tuple(tuple(_value_of(spec, x) for x in row) for row in rows)
        self.spec, self.nrows, self.ncols, self._rows = spec, len(grid), _width(grid, ncols), grid

    @classmethod
    def _trusted(cls, spec: FieldSpec, rows: tuple, ncols: int) -> "Matrix":
        """A matrix on ``rows``, a tuple of equal-length tuples of
        canonical raw values of ``spec``, without checks."""
        m = object.__new__(cls)
        m.spec, m.nrows, m.ncols, m._rows = spec, len(rows), ncols, rows
        return m

    @classmethod
    def from_rows(cls, spec: FieldSpec, rows, *, ncols: int | None = None) -> "Matrix":
        """Build a matrix, coercing int and str entries through the field."""
        grid = tuple(tuple(_coerced_value(spec, x) for x in row) for row in rows)
        return cls._trusted(spec, grid, _width(grid, ncols))

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "Matrix":
        kern = spec._kernel
        rows = tuple(tuple(kern.one if i == j else kern.zero for j in range(n)) for i in range(n))
        return cls._trusted(spec, rows, n)

    def rows(self) -> tuple[tuple[FieldScalar, ...], ...]:
        return tuple(self.row(i) for i in range(self.nrows))

    def row(self, i: int) -> tuple[FieldScalar, ...]:
        return tuple(FieldScalar(self.spec, x) for x in self._rows[i])

    def entry(self, i: int, j: int) -> FieldScalar:
        return FieldScalar(self.spec, self._rows[i][j])

    def transpose(self) -> "Matrix":
        cols = tuple(zip(*self._rows)) if self._rows else ((),) * self.ncols
        return Matrix._trusted(self.spec, cols, self.nrows)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if other.spec != self.spec:
            raise ValueError("cannot multiply matrices over different fields")
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        dot = self.spec._kernel.dot
        cols = other.transpose()._rows
        return Matrix._trusted(
            self.spec, tuple(tuple(dot(col, row) for col in cols) for row in self._rows), other.ncols
        )

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self is other or (
            self.spec == other.spec
            and (self.nrows, self.ncols) == (other.nrows, other.ncols)
            and all(map(self.spec._kernel.eq, self._rows, other._rows))
        )

    def __hash__(self):
        kern_hash = self.spec._kernel.hash
        return hash((self.spec, self.nrows, self.ncols, tuple(map(kern_hash, self._rows))))

    def render_rows(self) -> list[str]:
        render = self.spec._kernel.render
        return ["[" + ", ".join(map(render, row)) + "]" for row in self._rows]

    def __repr__(self):
        body = "; ".join(self.render_rows())
        return f"Matrix({self.spec.describe()}, {self.nrows}x{self.ncols}: {body})"


def _width(grid: tuple, ncols: int | None) -> int:
    if not grid:
        if ncols is None:
            raise ValueError("empty matrix needs an explicit ncols")
        return ncols
    width = len(grid[0])
    if any(len(row) != width for row in grid):
        raise ValueError("ragged rows in matrix")
    if ncols is not None and ncols != width:
        raise ValueError(f"ncols={ncols} does not match row width {width}")
    return width


@dataclass(frozen=True)
class RrefResult:
    rref: Matrix
    rank: int
    pivot_cols: tuple[int, ...]


def _eliminate(rows: list[list], kern) -> tuple[list[int], object, list]:
    """Forward elimination in place on raw values: scale each pivot row to
    a leading one and clear the rows below it.  A pivot row whose pivot is
    already one is left as it is: ``x * 1`` is ``x`` bit for bit in every
    kernel, ``-0.0`` over R included.

    Returns the pivot columns, the row-swap sign (``kern.one`` negated once
    per swap) and the pivots in the order they were taken.  Only
    ``determinant`` multiplies them, so ``rref``, ``inverse`` and the pivot
    count behind regularity cannot fail on a product they do not need.
    """
    nr = len(rows)
    cols: list[int] = []
    pivots: list = []
    sign = kern.one
    for c in range(len(rows[0]) if rows else 0):
        r = len(cols)
        if r >= nr:
            break
        i = kern.pick_pivot(rows, r, c)
        if i < 0:
            continue
        if i != r:
            rows[r], rows[i] = rows[i], rows[r]
            sign = -sign
        prow = rows[r]
        piv = prow[c]
        if piv != 1:
            prow = rows[r] = kern.scale(prow, kern.inv(piv))
            prow[c] = kern.one
        for k in range(r + 1, nr):
            f = rows[k][c]
            if f != 0:
                rows[k] = kern.sub_multiple(rows[k], f, prow)  # f - f * 1 leaves an exact zero at c
        cols.append(c)
        pivots.append(piv)
    return cols, sign, pivots


def _gauss_jordan(rows: list[list], kern) -> list[int]:
    """``_eliminate``, then clear the entries above each pivot; returns
    the pivot columns."""
    cols, _, _ = _eliminate(rows, kern)
    for r, c in enumerate(cols):
        prow = rows[r]
        for k in range(r):
            f = rows[k][c]
            if f != 0:
                rows[k] = kern.sub_multiple(rows[k], f, prow)
    return cols


def _pair_rank(rows: Sequence, p: int, q: int, order: Sequence[int], kern) -> int:
    """Rank of the pair submatrix of the raw grid ``rows``: columns
    ``p`` and ``q`` (0-based) without rows ``p`` and ``q``, read in place.

    ``order`` is ``kern.pivot_order`` of column ``p``, so its first row
    outside the pair is the one ``pick_pivot`` takes on the submatrix:
    column ``p`` pivots as in ``_eliminate``, on row ``(a0, b0)``.  The
    rank is 2 at the first other row, in index order, whose column-``q``
    residual ``y - x * (b0 * a0^-1)`` is nonzero, so a typical rank-2 pair
    is decided after a row or two.  The residual is the kernel's
    ``sub_mul``, the column-``q`` entry of the row operation ``_eliminate``
    performs, so over R it cancels to zero exactly where ``rref``'s does
    and the rank is the one ``rref`` finds.  With no column-``p`` pivot the
    rank is 1 when column ``q`` has a nonzero entry, else 0.
    """
    i = next((k for k in order if k != p and k != q), -1)
    if i < 0:
        return 1 if any(row[q] for k, row in enumerate(rows) if k != p and k != q) else 0
    s = kern.mul(rows[i][q], kern.inv(rows[i][p]))
    for k, row in enumerate(rows):
        if k != i and k != p and k != q:
            x, y = row[p], row[q]
            if (kern.sub_mul(y, x, s) if x != 0 else y) != 0:
                return 2
    return 1


def _rank2_columns(rows: Sequence, p: int, order: Sequence[int], kern) -> set[int]:
    """Columns q of the raw grid ``rows`` for which one 2x2 minor shows
    ``_pair_rank(rows, p, q, order, kern) == 2``, from one row operation.

    The pivot row i is the first of ``order`` other than ``p``, and k0 is
    the first row other than ``p`` and i.  For every q outside {p, i, k0},
    ``_pair_rank`` pivots on row i and looks at row k0 first; over an exact
    field, whose ``a0 * (y - x * (b0 / a0))`` is zero exactly where
    ``y - x * (b0 / a0)`` is, a nonzero minor of rows (i, k0) against
    columns (p, q) is the residual at which it returns 2.  Every other
    pair needs ``_pair_rank``, and so does every pair over R (the kernel
    has no ``minors``), where the rank follows the cancellation rule of
    ``sub_mul``.
    """
    i = next((k for k in order if k != p), -1)
    if kern.minors is None or i < 0 or len(rows) < 3:
        return set()
    k0 = next(k for k in range(len(rows)) if k != p and k != i)
    return {q for q, m in enumerate(kern.minors(rows[i], rows[k0], p)) if m} - {i, k0}


def rref(m: Matrix) -> RrefResult:
    """Reduced row echelon form, rank, and pivot columns.

    The result is canonical: for a fixed row space over an exact field it
    is unique, so subspace equality reduces to entry-wise comparison.
    """
    kern = m.spec._kernel
    rows = [list(row) for row in m._rows]
    pivots = _gauss_jordan(rows, kern)
    rank = len(pivots)
    out = tuple(map(tuple, rows[:rank])) + ((kern.zero,) * m.ncols,) * (m.nrows - rank)
    return RrefResult(Matrix._trusted(m.spec, out, m.ncols), rank, tuple(pivots))


def _elimination(m: Matrix) -> tuple[int, list]:
    """Pivot count of the square ``m`` and the unmultiplied factors of its
    determinant: the kernel's ``det_and_rank`` where it has one (Bareiss
    over Q, the packed-integer elimination over F_p), else, over R, the
    row-swap sign and the pivots of ``_eliminate`` in the order taken."""
    if m.nrows != m.ncols:
        raise ValueError(f"determinant of a {m.nrows}x{m.ncols} matrix")
    kern = m.spec._kernel
    if kern.det_and_rank is not None:
        det, rank = kern.det_and_rank(m._rows)
        return rank, [det]
    cols, sign, pivots = _eliminate([list(row) for row in m._rows], kern)
    return len(cols), [sign, *pivots]


def _det_of(m: Matrix, elimination: tuple[int, list]) -> FieldScalar:
    """The determinant from ``_elimination(m)``: the kernel's product of
    its factors, zero without a pivot in every column."""
    rank, factors = elimination
    return FieldScalar(m.spec, m.spec._kernel.product(factors)) if rank == m.nrows else m.spec.zero()


def determinant(m: Matrix) -> FieldScalar:
    """Determinant, from the elimination of ``_elimination``."""
    return _det_of(m, _elimination(m))


def inverse(m: Matrix) -> Matrix:
    """Matrix inverse via Gauss-Jordan on the augmented matrix."""
    if m.nrows != m.ncols:
        raise ValueError(f"inverse of a {m.nrows}x{m.ncols} matrix")
    n = m.nrows
    kern = m.spec._kernel
    rows = [
        row + [kern.one if j == i else kern.zero for j in range(n)]
        for i, row in enumerate(map(list, m._rows))
    ]
    pivots = _gauss_jordan(rows, kern)
    if pivots[:n] != list(range(n)):
        raise SingularMatrix("matrix is singular")
    return Matrix._trusted(m.spec, tuple(tuple(row[n:]) for row in rows), n)
