"""Evolution-algebra structure: product, squares, regularity, supports.

An algebra of dimension n is defined by a square structure matrix whose
row i holds the coordinates of the square of the i-th basis vector; the
product of two distinct basis vectors is zero.  Basis indices are 1-based
in the public API, matching the usual e_1..e_n notation.
"""

from __future__ import annotations

from typing import Sequence

from . import linalg
from .errors import MixedAlgebras, MixedFieldSpecs, NonSquareStructure
from .field import FieldScalar, FieldSpec, _render_terms, scalar_parse
from .linalg import Matrix


class EvolutionAlgebra:
    """Finite-dimensional evolution algebra over one FieldSpec.

    Construction does not require regularity; operations that need a
    non-singular structure matrix check it themselves.  Instances are
    immutable (the determinant, pivot-count and transpose-inverse caches
    are lazy).
    """

    __slots__ = ("spec", "dim", "structure", "_values", "_det", "_rank", "_tinv")

    def __init__(self, structure: Matrix):
        if structure.nrows != structure.ncols:
            raise NonSquareStructure(
                f"structure matrix must be square, got {structure.nrows}x{structure.ncols}"
            )
        self.spec = structure.spec
        self.dim = structure.nrows
        self.structure = structure
        self._values = tuple(tuple(x.value for x in row) for row in structure.rows())
        self._det = None
        self._rank = None
        self._tinv = None

    @classmethod
    def from_rows(cls, spec: FieldSpec, rows) -> "EvolutionAlgebra":
        """Build from rows of scalars, ints, or scalar strings."""
        rows = list(rows)
        return cls(Matrix.from_rows(spec, rows, ncols=0 if not rows else None))

    def structure_constant(self, i: int, j: int) -> FieldScalar:
        """Coefficient of e_j in e_i^2 (1-based indices)."""
        return self.structure.entry(i - 1, j - 1)

    def determinant(self) -> FieldScalar:
        if self._det is None:
            self._det, self._rank = linalg._determinant_and_rank(self.structure)
        return self._det

    def is_regular(self) -> bool:
        """Whether the elimination behind ``determinant`` found a pivot in
        every column (over R: one above the tolerance), however small the
        product of those pivots."""
        self.determinant()
        return self._rank == self.dim

    def _product(self, u, w) -> list:
        """Product of raw coordinate vectors, through the field's kernel."""
        kern = self.spec._kernel
        out = [kern.zero] * self.dim
        for c_u, c_w, row in zip(u, w, self._values):
            c = kern.mul(c_u, c_w)
            if c != 0:
                out = kern.add_multiple(out, c, row)
        return out

    def transpose_inverse(self) -> Matrix:
        """Inverse of the transposed structure matrix (raises if singular)."""
        if self._tinv is None:
            self._tinv = linalg.inverse(self.structure.transpose())
        return self._tinv

    def element(self, values: Sequence) -> "Element":
        """Element with the given coordinates (scalars, ints, or strings)."""
        coords = []
        for x in values:
            if isinstance(x, FieldScalar):
                if x.spec != self.spec:
                    raise MixedFieldSpecs("coordinate from a different field")
                coords.append(x)
            elif isinstance(x, str):
                coords.append(scalar_parse(x, self.spec))
            else:
                coords.append(FieldScalar(self.spec, x))
        return Element(self, tuple(coords))

    def basis_element(self, i: int) -> "Element":
        """The i-th natural basis vector e_i (1-based)."""
        if not 1 <= i <= self.dim:
            raise IndexError(f"basis index {i} out of range 1..{self.dim}")
        zero, one = self.spec.zero(), self.spec.one()
        return Element(self, tuple(one if j == i - 1 else zero for j in range(self.dim)))

    def zero_element(self) -> "Element":
        return Element(self, (self.spec.zero(),) * self.dim)

    def __eq__(self, other):
        if not isinstance(other, EvolutionAlgebra):
            return NotImplemented
        return self.structure == other.structure

    def __hash__(self):
        return hash(self.structure)

    def __repr__(self):
        return f"EvolutionAlgebra(dim={self.dim}, field={self.spec.describe()})"


class Element:
    """An algebra element given by coordinates in the natural basis."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: EvolutionAlgebra, coords: tuple[FieldScalar, ...]):
        if len(coords) != algebra.dim:
            raise ValueError(f"expected {algebra.dim} coordinates, got {len(coords)}")
        for x in coords:
            if x.spec != algebra.spec:
                raise MixedFieldSpecs("coordinates must live in the algebra's field")
        self.algebra = algebra
        self.coords = coords

    def _same_algebra(self, other: "Element"):
        if not isinstance(other, Element):
            raise TypeError("expected an Element")
        if other.algebra != self.algebra:
            raise MixedAlgebras("elements belong to different algebras")

    def is_zero(self) -> bool:
        return all(x.is_zero() for x in self.coords)

    def support(self) -> tuple[int, ...]:
        """1-based indices of the nonzero coordinates, ascending."""
        return tuple(i + 1 for i, x in enumerate(self.coords) if not x.is_zero())

    def __add__(self, other):
        self._same_algebra(other)
        return Element(self.algebra, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._same_algebra(other)
        return Element(self.algebra, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return Element(self.algebra, tuple(-a for a in self.coords))

    def scale(self, c) -> "Element":
        if isinstance(c, int):
            c = self.algebra.spec.from_int(c)
        if not isinstance(c, FieldScalar) or c.spec != self.algebra.spec:
            raise MixedFieldSpecs("scale factor must live in the algebra's field")
        return Element(self.algebra, tuple(c * a for a in self.coords))

    def __rmul__(self, other):
        if isinstance(other, (int, FieldScalar)):
            return self.scale(other)
        return NotImplemented

    def __mul__(self, other):
        """Algebra product for elements, coordinate scaling for scalars.

        The product pushes the coordinate-wise product of the operands
        through the structure matrix; distinct basis directions annihilate
        each other, so only the diagonal terms survive.
        """
        if isinstance(other, (int, FieldScalar)):
            return self.scale(other)
        self._same_algebra(other)
        alg = self.algebra
        raw = alg._product([x.value for x in self.coords], [x.value for x in other.coords])
        return Element(alg, tuple(FieldScalar(alg.spec, x) for x in raw))

    def square(self) -> "Element":
        return self * self

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.algebra == other.algebra and self.coords == other.coords

    def __hash__(self):
        return hash((self.algebra, tuple(hash(x) for x in self.coords)))

    def render(self) -> str:
        """Linear-combination text like ``e1 - 1/2*e3`` (``0`` when zero)."""
        return _render_terms((coeff, f"e{i}") for i, coeff in enumerate(self.coords, start=1))

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"Element({self.render()})"
