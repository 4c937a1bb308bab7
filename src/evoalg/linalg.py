"""Dense linear algebra over a FieldSpec: RREF, rank, determinant, inverse.

``rref``, ``determinant`` and ``inverse`` share one forward elimination:
``rref`` and ``inverse`` finish it with a back pass over the pivot rows,
and ``determinant`` reads the signed product of its pivots.  Elimination
runs on lists of raw values (``Fraction`` over Q, int residues over F_p,
floats over R) through the arithmetic kernel the ``FieldSpec`` holds
(``field._Rationals`` and its subclasses), with no field check per
operation; values become ``FieldScalar`` again once, on the way out.
``matvec`` and the matrix product use the same kernel.  Everything is
exact over Q and F_p.  Over the tolerance-based reals, pivots are chosen
by max-magnitude partial pivoting among entries above the field
tolerance, so rank and regularity verdicts are tolerance-sensitive there,
and an operation that overflows raises NonFiniteValue.

The rank of a two-column matrix, which decides each pair of the
codimension-one search, has its own early-exit helper on the same pivot
rule and row operations.
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
        cols = other.transpose()
        return Matrix(self.spec, [matvec(cols, row) for row in self._rows], ncols=other.ncols)

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
    spec = m.spec
    zero = spec.zero()
    # ``zero + x`` coerces ints and rejects other fields, as scalar products would.
    xs = [(zero + x).value for x in v]
    return tuple(FieldScalar(spec, spec._kernel.dot(row, xs)) for row in _values(m))


@dataclass(frozen=True)
class RrefResult:
    rref: Matrix
    rank: int
    pivot_cols: tuple[int, ...]


def _values(m: Matrix) -> list[list]:
    return [[x.value for x in row] for row in m.rows()]


def _scalars(spec: FieldSpec, values) -> list[FieldScalar]:
    return [FieldScalar(spec, x) for x in values]


def _eliminate(rows: list[list], kern) -> tuple[list[int], object]:
    """Forward elimination in place on raw values: scale each pivot row to
    a leading one and clear the rows below it.

    Returns the pivot columns and the product of the pivots, negated once
    per row swap (the determinant when every column has a pivot).
    """
    nr = len(rows)
    pivots: list[int] = []
    det = kern.one
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r >= nr:
            break
        i = kern.pick_pivot(rows, r, c)
        if i < 0:
            continue
        if i != r:
            rows[r], rows[i] = rows[i], rows[r]
            det = -det
        piv = rows[r][c]
        det = kern.mul(det, piv)
        prow = rows[r] = kern.scale(rows[r], kern.inv(piv))
        prow[c] = kern.one
        for k in range(r + 1, nr):
            f = rows[k][c]
            if f != 0:
                rows[k] = kern.sub_multiple(rows[k], f, prow)
                rows[k][c] = kern.zero
        pivots.append(c)
    return pivots, det


def _gauss_jordan(rows: list[list], kern) -> list[int]:
    """``_eliminate``, then clear the entries above each pivot; returns
    the pivot columns."""
    pivots, _ = _eliminate(rows, kern)
    for r, c in enumerate(pivots):
        prow = rows[r]
        for k in range(r):
            f = rows[k][c]
            if f != 0:
                rows[k] = kern.sub_multiple(rows[k], f, prow)
                rows[k][c] = kern.zero
    return pivots


def _pair_rank(xs: Sequence, ys: Sequence, spec: FieldSpec) -> int:
    """Rank of the two-column matrix with raw-value columns ``xs``, ``ys``.

    Column 1 pivots as in ``_eliminate``, on row ``(a0, b0)``.  The rank is
    2 at the first other row whose column-2 residual
    ``y - x * (b0 * a0^-1)`` is nonzero, so a typical rank-2 matrix is
    decided after a row or two.  The residual is the column-2 entry of the
    row operation ``_eliminate`` performs, so over R the rank is bit for
    bit the one ``rref`` finds.  With no column-1 pivot the rank is 1 when
    column 2 has a nonzero entry, else 0.
    """
    kern = spec._kernel
    rows = list(zip(xs, ys))
    i = kern.pick_pivot(rows, 0, 0)
    if i < 0:
        return 0 if all(kern.is_zero(y) for y in ys) else 1
    s = kern.scale((ys[i],), kern.inv(xs[i]))
    for k, (x, y) in enumerate(rows):
        if k == i:
            continue
        if x != 0:
            y = kern.sub_multiple((y,), x, s)[0]
        if not kern.is_zero(y):
            return 2
    return 1


def rref(m: Matrix) -> RrefResult:
    """Reduced row echelon form, rank, and pivot columns.

    The result is canonical: for a fixed row space over an exact field it
    is unique, so subspace equality reduces to entry-wise comparison.
    """
    spec = m.spec
    rows = _values(m)
    pivots = _gauss_jordan(rows, spec._kernel)
    rank = len(pivots)
    out = [_scalars(spec, row) for row in rows[:rank]]
    out.extend([spec.zero()] * m.ncols for _ in range(rank, m.nrows))
    return RrefResult(Matrix(spec, out, ncols=m.ncols), rank, tuple(pivots))


def _determinant_and_rank(m: Matrix) -> tuple[FieldScalar, int]:
    """Determinant and pivot count, from one elimination."""
    if m.nrows != m.ncols:
        raise NonSquareMatrix(f"determinant of a {m.nrows}x{m.ncols} matrix")
    pivots, det = _eliminate(_values(m), m.spec._kernel)
    rank = len(pivots)
    return (FieldScalar(m.spec, det) if rank == m.nrows else m.spec.zero()), rank


def determinant(m: Matrix) -> FieldScalar:
    """Determinant as the signed product of the elimination pivots."""
    return _determinant_and_rank(m)[0]


def inverse(m: Matrix) -> Matrix:
    """Matrix inverse via Gauss-Jordan on the augmented matrix."""
    if m.nrows != m.ncols:
        raise NonSquareMatrix(f"inverse of a {m.nrows}x{m.ncols} matrix")
    n = m.nrows
    kern = m.spec._kernel
    rows = [
        row + [kern.one if j == i else kern.zero for j in range(n)]
        for i, row in enumerate(_values(m))
    ]
    pivots = _gauss_jordan(rows, kern)
    if pivots[:n] != list(range(n)):
        raise SingularMatrix("matrix is singular")
    return Matrix(m.spec, [_scalars(m.spec, row[n:]) for row in rows], ncols=n)
