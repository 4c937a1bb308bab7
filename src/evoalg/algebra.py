"""Evolution-algebra structure: product, squares, regularity, supports.

An algebra of dimension n is defined by a square structure matrix whose
row i holds the coordinates of the square of the i-th basis vector; the
product of two distinct basis vectors is zero.  Basis indices are 1-based
in the public API, matching the usual e_1..e_n notation.  An ``Element``
stores raw coordinates (see ``field``) and multiplies them through the
kernel; ``Element.coords`` creates ``FieldScalar`` on the way out.
"""

from __future__ import annotations

from typing import Sequence

from . import linalg
from .field import FieldScalar, FieldSpec, _coerced_value, _is_int, _render_terms, _value_of
from .linalg import Matrix


class EvolutionAlgebra:
    """Finite-dimensional evolution algebra over one FieldSpec.

    Construction does not require regularity; operations that need a
    non-singular structure matrix check it themselves.  Instances are
    immutable (the elimination and transpose-inverse caches are lazy).
    """

    __slots__ = ("spec", "dim", "structure", "_elim", "_tinv")

    def __init__(self, structure: Matrix):
        if structure.nrows != structure.ncols:
            raise ValueError(
                f"structure matrix must be square, got {structure.nrows}x{structure.ncols}"
            )
        self.spec, self.dim, self.structure = structure.spec, structure.nrows, structure
        self._elim = self._tinv = None

    @classmethod
    def from_rows(cls, spec: FieldSpec, rows) -> "EvolutionAlgebra":
        """Build from rows of scalars, ints, or scalar strings."""
        rows = list(rows)
        return cls(Matrix.from_rows(spec, rows, ncols=0 if not rows else None))

    def _is_index(self, i) -> bool:
        """Whether ``i`` is a basis index: an int, not a bool, in 1..dim."""
        return _is_int(i) and 1 <= i <= self.dim

    def _checked_index(self, i) -> int:
        if not self._is_index(i):
            raise IndexError(f"basis index {i} out of range 1..{self.dim}")
        return i

    def structure_constant(self, i: int, j: int) -> FieldScalar:
        """Coefficient of e_j in e_i^2 (1-based indices)."""
        return self.structure.entry(self._checked_index(i) - 1, self._checked_index(j) - 1)

    def _elimination(self) -> tuple[int, list]:
        """The one elimination of the structure matrix (``linalg._elimination``)."""
        if self._elim is None:
            self._elim = linalg._elimination(self.structure)
        return self._elim

    def determinant(self) -> FieldScalar:
        """The product of the pivots; over R, NonFiniteValue where it
        leaves the normal float range."""
        return linalg._det_of(self.structure, self._elimination())

    def is_regular(self) -> bool:
        """Whether the elimination found a pivot in every column.  It counts
        them, never multiplies them: over R scaling the structure matrix
        keeps the verdict, even where the determinant leaves the float range."""
        return self._elimination()[0] == self.dim

    def _product(self, u, w) -> list:
        """Product of raw coordinate vectors, through the field's kernel:
        row i of the structure matrix is added ``u_i * w_i`` times, for
        each i where both coordinates and their product are nonzero."""
        kern = self.spec._kernel
        out = [kern.zero] * self.dim
        for c_u, c_w, row in zip(u, w, self.structure._rows):
            if c_u and c_w and (c := kern.mul(c_u, c_w)):
                out = kern.add_multiple(out, c, row)
        return out

    def transpose_inverse(self) -> Matrix:
        """Inverse of the transposed structure matrix (raises if singular)."""
        if self._tinv is None:
            self._tinv = linalg.inverse(self.structure.transpose())
        return self._tinv

    def element(self, values: Sequence) -> "Element":
        """Element with the given coordinates (scalars, ints, or strings)."""
        return Element._of(self, tuple(_coerced_value(self.spec, x) for x in values))

    def basis_element(self, i: int) -> "Element":
        """The i-th natural basis vector e_i (1-based)."""
        return Element._of(self, Matrix.identity(self.spec, self.dim)._rows[self._checked_index(i) - 1])

    def zero_element(self) -> "Element":
        return Element._of(self, (self.spec._kernel.zero,) * self.dim)

    def __eq__(self, other):
        if not isinstance(other, EvolutionAlgebra):
            return NotImplemented
        return self is other or self.structure == other.structure

    def __hash__(self):
        return hash(self.structure)

    def __repr__(self):
        return f"EvolutionAlgebra(dim={self.dim}, field={self.spec.describe()})"


def _dim_checked(algebra: EvolutionAlgebra, coords) -> tuple:
    if len(coords) != algebra.dim:
        raise ValueError(f"expected {algebra.dim} coordinates, got {len(coords)}")
    return tuple(coords)


class Element:
    """An algebra element given by coordinates in the natural basis: raw
    values inside, ``FieldScalar`` through ``coords``."""

    __slots__ = ("algebra", "_coords")

    def __init__(self, algebra: EvolutionAlgebra, coords: tuple[FieldScalar, ...]):
        values = [_value_of(algebra.spec, x) for x in coords]
        self.algebra, self._coords = algebra, _dim_checked(algebra, values)

    @classmethod
    def _of(cls, algebra: EvolutionAlgebra, coords) -> "Element":
        """The element with canonical raw coordinates ``coords``, unchecked
        but for their number."""
        e = object.__new__(cls)
        e.algebra, e._coords = algebra, _dim_checked(algebra, coords)
        return e

    @property
    def coords(self) -> tuple[FieldScalar, ...]:
        spec = self.algebra.spec
        return tuple(FieldScalar(spec, x) for x in self._coords)

    def _same_algebra(self, other: "Element"):
        if not isinstance(other, Element):
            raise TypeError("expected an Element")
        if other.algebra != self.algebra:
            raise ValueError("elements belong to different algebras")

    def is_zero(self) -> bool:
        return not any(self._coords)

    def support(self) -> tuple[int, ...]:
        """1-based indices of the nonzero coordinates, ascending."""
        return tuple(i + 1 for i, x in enumerate(self._coords) if x != 0)

    def __add__(self, other):
        self._same_algebra(other)
        kern = self.algebra.spec._kernel
        return Element._of(self.algebra, kern.add_multiple(self._coords, kern.one, other._coords))

    def __sub__(self, other):
        self._same_algebra(other)
        kern = self.algebra.spec._kernel
        return Element._of(self.algebra, kern.sub_multiple(self._coords, kern.one, other._coords))

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "Element":
        spec = self.algebra.spec
        return Element._of(self.algebra, spec._kernel.scale(self._coords, _value_of(spec, c, ints=True)))

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
        return Element._of(self.algebra, self.algebra._product(self._coords, other._coords))

    def square(self) -> "Element":
        return self * self

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.algebra == other.algebra and self.algebra.spec._kernel.eq(self._coords, other._coords)

    def __hash__(self):
        return hash((self.algebra, self.algebra.spec._kernel.hash(self._coords)))

    def render(self) -> str:
        """Linear-combination text like ``e1 - 1/2*e3`` (``0`` when zero)."""
        units = (f"e{i}" for i in range(1, self.algebra.dim + 1))
        return _render_terms(self.algebra.spec._kernel, zip(self._coords, units))

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"Element({self.render()})"
