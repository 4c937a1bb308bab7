"""Dense linear algebra over a FieldSpec: RREF, rank, determinant, inverse.

``rref`` and ``determinant`` share one forward elimination: ``rref``
finishes it with a back pass over the pivot rows, and ``determinant``
reads the signed product of its pivots.  Everything is exact over Q and
F_p.  Over the tolerance-based reals, pivots are chosen by max-magnitude
partial pivoting among entries above the field tolerance; rank and
regularity verdicts are therefore tolerance-sensitive there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import MixedFieldSpecs, NonSquareMatrix, SingularMatrix
from .field import APPROX_REALS, FieldScalar, FieldSpec, scalar_parse


class Matrix:
    """Immutable row-major grid of scalars sharing one FieldSpec."""

    __slots__ = ("spec", "nrows", "ncols", "_rows")

    def __init__(self, spec: FieldSpec, rows: Iterable[Iterable[FieldScalar]], *, ncols: int | None = None):
        grid = tuple(tuple(row) for row in rows)
        if grid:
            width = len(grid[0])
            for row in grid:
                if len(row) != width:
                    raise ValueError("ragged rows in matrix")
                for x in row:
                    if not isinstance(x, FieldScalar):
                        raise TypeError(f"matrix entries must be FieldScalar, got {type(x).__name__}")
                    if x.spec != spec:
                        raise MixedFieldSpecs("matrix entries must share the matrix FieldSpec")
            if ncols is not None and ncols != width:
                raise ValueError(f"ncols={ncols} does not match row width {width}")
            ncols = width
        elif ncols is None:
            raise ValueError("empty matrix needs an explicit ncols")
        self.spec = spec
        self.nrows = len(grid)
        self.ncols = ncols
        self._rows = grid

    @classmethod
    def from_rows(cls, spec: FieldSpec, rows, *, ncols: int | None = None) -> "Matrix":
        """Build a matrix, coercing int and str entries through the field."""
        out = []
        for row in rows:
            coerced = []
            for x in row:
                if isinstance(x, FieldScalar):
                    coerced.append(x)
                elif isinstance(x, str):
                    coerced.append(scalar_parse(x, spec))
                else:
                    coerced.append(FieldScalar(spec, x))
            out.append(coerced)
        return cls(spec, out, ncols=ncols)

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "Matrix":
        zero, one = spec.zero(), spec.one()
        return cls(spec, [[one if i == j else zero for j in range(n)] for i in range(n)])

    def rows(self) -> tuple[tuple[FieldScalar, ...], ...]:
        return self._rows

    def row(self, i: int) -> tuple[FieldScalar, ...]:
        return self._rows[i]

    def entry(self, i: int, j: int) -> FieldScalar:
        return self._rows[i][j]

    def transpose(self) -> "Matrix":
        return Matrix(
            self.spec,
            [[self._rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
            ncols=self.nrows,
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if other.spec != self.spec:
            raise MixedFieldSpecs("cannot multiply matrices over different fields")
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        zero = self.spec.zero()
        cols = other.transpose().rows()
        out = []
        for arow in self._rows:
            orow = []
            for bcol in cols:
                acc = zero
                for a, b in zip(arow, bcol):
                    acc = acc + a * b
                orow.append(acc)
            out.append(orow)
        return Matrix(self.spec, out, ncols=other.ncols)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.spec == other.spec and self.ncols == other.ncols and self._rows == other._rows

    def __hash__(self):
        if self.spec.kind == APPROX_REALS:
            return hash((self.spec, self.nrows, self.ncols))
        return hash((self.spec, self.nrows, self.ncols, tuple(x.value for r in self._rows for x in r)))

    def render_rows(self) -> list[str]:
        return ["[" + ", ".join(x.render() for x in row) + "]" for row in self._rows]

    def __repr__(self):
        body = "; ".join(self.render_rows())
        return f"Matrix({self.spec.describe()}, {self.nrows}x{self.ncols}: {body})"


def matvec(m: Matrix, v: Sequence[FieldScalar]) -> tuple[FieldScalar, ...]:
    if len(v) != m.ncols:
        raise ValueError(f"vector length {len(v)} does not match {m.nrows}x{m.ncols} matrix")
    zero = m.spec.zero()
    out = []
    for row in m.rows():
        acc = zero
        for a, x in zip(row, v):
            acc = acc + a * x
        out.append(acc)
    return tuple(out)


@dataclass(frozen=True)
class RrefResult:
    rref: Matrix
    rank: int
    pivot_cols: tuple[int, ...]


def _pick_pivot(rows, start: int, col: int, approx: bool) -> int:
    best = -1
    if approx:
        best_mag = 0.0
        for i in range(start, len(rows)):
            x = rows[i][col]
            if not x.is_zero() and x.magnitude() > best_mag:
                best, best_mag = i, x.magnitude()
    else:
        for i in range(start, len(rows)):
            if not rows[i][col].is_zero():
                best = i
                break
    return best


def _eliminate(rows: list[list[FieldScalar]], spec: FieldSpec) -> tuple[list[int], FieldScalar]:
    """Forward elimination in place: scale each pivot row to a leading one
    and clear the rows below it.

    Returns the pivot columns and the product of the pivots, negated once
    per row swap (the determinant when every column has a pivot).
    """
    approx = spec.kind == APPROX_REALS
    zero, one = spec.zero(), spec.one()
    nr = len(rows)
    pivots: list[int] = []
    det = one
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r >= nr:
            break
        i = _pick_pivot(rows, r, c, approx)
        if i < 0:
            continue
        if i != r:
            rows[r], rows[i] = rows[i], rows[r]
            det = -det
        piv = rows[r][c]
        det = det * piv
        inv = piv.inv()
        rows[r] = [x * inv for x in rows[r]]
        rows[r][c] = one
        for k in range(r + 1, nr):
            f = rows[k][c]
            if f.value == 0:
                continue
            rows[k] = [a - f * b for a, b in zip(rows[k], rows[r])]
            rows[k][c] = zero
        pivots.append(c)
    return pivots, det


def rref(m: Matrix) -> RrefResult:
    """Reduced row echelon form, rank, and pivot columns.

    The result is canonical: for a fixed row space over an exact field it
    is unique, so subspace equality reduces to entry-wise comparison.
    """
    spec = m.spec
    zero = spec.zero()
    rows = [list(r) for r in m.rows()]
    pivots, _ = _eliminate(rows, spec)
    for r, c in enumerate(pivots):
        for k in range(r):
            f = rows[k][c]
            if f.value == 0:
                continue
            rows[k] = [a - f * b for a, b in zip(rows[k], rows[r])]
            rows[k][c] = zero
    rank = len(pivots)
    for k in range(rank, m.nrows):
        rows[k] = [zero] * m.ncols
    return RrefResult(Matrix(spec, rows, ncols=m.ncols), rank, tuple(pivots))


def determinant(m: Matrix) -> FieldScalar:
    """Determinant as the signed product of the elimination pivots."""
    if m.nrows != m.ncols:
        raise NonSquareMatrix(f"determinant of a {m.nrows}x{m.ncols} matrix")
    pivots, det = _eliminate([list(r) for r in m.rows()], m.spec)
    return det if len(pivots) == m.nrows else m.spec.zero()


def inverse(m: Matrix) -> Matrix:
    """Matrix inverse via Gauss-Jordan on the augmented matrix."""
    if m.nrows != m.ncols:
        raise NonSquareMatrix(f"inverse of a {m.nrows}x{m.ncols} matrix")
    spec = m.spec
    n = m.nrows
    zero, one = spec.zero(), spec.one()
    aug = [list(m.row(i)) + [one if j == i else zero for j in range(n)] for i in range(n)]
    res = rref(Matrix(spec, aug, ncols=2 * n))
    if res.pivot_cols[:n] != tuple(range(n)) or res.rank < n:
        raise SingularMatrix("matrix is singular")
    right = [row[n:] for row in res.rref.rows()]
    return Matrix(spec, right, ncols=n)
