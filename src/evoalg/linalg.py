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

The codimension-one search ranks every pair submatrix of one column p
in one sweep (``_pair_ranks``) on the same pivot rule and row operation.
It reads columns p and q of the structure matrix in place: the pivot of
pair (p, q) is the first row outside the pair in the kernel's
``pivot_order`` of column p, and the other rows are taken once, in
index order, each testing the column-q residual of only the pairs not
yet shown to have rank 2.
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
    """Forward elimination in place on raw values: the pivot of a column
    is the first of the kernel's ``pivot_order`` among the rows not yet
    pivoted; scale each pivot row to a leading one and clear the rows
    below it.  A pivot row whose pivot is already one is left as it is:
    ``x * 1`` is ``x`` bit for bit in every kernel, ``-0.0`` over R
    included.

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
        below = kern.pivot_order([row[c] for row in rows[r:]])
        if not below:
            continue
        i = r + below[0]
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


def _pair_ranks(rows: Sequence, p: int, qs: Sequence[int], order: Sequence[int], kern) -> dict[int, int]:
    """Ranks of the pair submatrices of the raw grid ``rows`` (columns p and
    q without rows p and q) for each q in ``qs``, 0-based, keyed by q.

    ``order`` is ``kern.pivot_order`` of column p, so its first row
    outside the pair is the pivot ``_eliminate`` takes on the submatrix:
    one row i for every q but i, the next row of ``order`` for q = i.
    One sweep per pivot row takes the other rows in index order and tests
    each, through the kernel's ``residual_zeros``, against the columns q
    still undecided but its own: a nonzero residual gives rank 2, and a
    column whose residuals all vanish has rank 1.  With no pivot the rank
    is 1 where column q has a nonzero entry, else 0.  Over R an overflow
    raises NonFiniteValue, at a pivot row's ``s_q`` or at the first row,
    in index order, where some pair's residual overflows.
    """
    ranks = {}
    i, j = ([k for k in order if k != p] + [-1, -1])[:2]
    for r, group in ((i, [q for q in qs if q != i]), (j, [q for q in qs if q == i])):
        if r < 0:
            for q in group:
                ranks[q] = 1 if any(row[q] for k, row in enumerate(rows) if k != p and k != q) else 0
        elif group:
            zeros, left = kern.residual_zeros(rows[r], p, group), group
            for k, row in enumerate(rows):
                if not left:
                    break
                if k != p and k != r:
                    left = zeros(row, left, k)
            ranks.update(dict.fromkeys(group, 2))
            ranks.update(dict.fromkeys(left, 1))
    return ranks


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
