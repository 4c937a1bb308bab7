"""Canonical subspaces of an algebra and closure/natural-basis checks.

A subspace is represented by the reduced row echelon form of any spanning
set, with zero rows dropped.  That form is unique per row space, so two
subspaces are equal exactly when their basis matrices are entry-wise
equal, and deduplication needs no extra work.  Bases are raw-value
matrices; membership and closure run on them through the field's kernel.
"""

from __future__ import annotations

from typing import Iterable

from .algebra import Element, EvolutionAlgebra
from .errors import NotASubalgebra, NotRegular
from .linalg import Matrix, rref


class Subspace:
    """A linear subspace in canonical RREF-basis form.

    The constructor canonicalizes whatever spanning rows it is given;
    ``Subspace.span`` is the usual entry point from elements.
    """

    __slots__ = ("algebra", "basis", "pivot_cols")

    def __init__(self, algebra: EvolutionAlgebra, spanning: Matrix):
        if spanning.spec != algebra.spec:
            raise ValueError("spanning matrix over a different field")
        if spanning.ncols != algebra.dim:
            raise ValueError(
                f"spanning rows have width {spanning.ncols}, algebra dimension is {algebra.dim}"
            )
        res = rref(spanning)
        self.algebra, self.pivot_cols = algebra, res.pivot_cols
        self.basis = Matrix._trusted(algebra.spec, res.rref._rows[: res.rank], algebra.dim)

    @classmethod
    def _canonical(cls, algebra: EvolutionAlgebra, rows: tuple, pivot_cols: tuple) -> "Subspace":
        """The subspace whose canonical basis is ``rows`` (raw, reduced row
        echelon, no zero rows) with leading ones at ``pivot_cols``; no
        second ``rref``."""
        s = object.__new__(cls)
        s.algebra, s.pivot_cols = algebra, pivot_cols
        s.basis = Matrix._trusted(algebra.spec, rows, algebra.dim)
        return s

    @classmethod
    def span(cls, algebra: EvolutionAlgebra, elements: Iterable[Element]) -> "Subspace":
        """Canonical subspace spanned by the given elements."""
        elements = list(elements)
        if any(e.algebra != algebra for e in elements):
            raise ValueError("spanning element from a different algebra")
        return cls(algebra, Matrix._trusted(algebra.spec, tuple(e._coords for e in elements), algebra.dim))

    @property
    def dim(self) -> int:
        return self.basis.nrows

    def basis_elements(self) -> tuple[Element, ...]:
        return tuple(Element._of(self.algebra, row) for row in self.basis._rows)

    def contains(self, u: Element) -> bool:
        """Membership by reduction against the RREF basis: the residual
        must be exactly zero (over R, the row operations cancel to zero
        relative to the magnitudes they subtract)."""
        if u.algebra != self.algebra:
            raise ValueError("element from a different algebra")
        return _reduces_to_zero(self.algebra.spec._kernel, u._coords, self.basis._rows, self.pivot_cols)

    def is_subalgebra(self) -> bool:
        """Closure under the product; basis pairs suffice by bilinearity.

        A pair of distinct basis rows with disjoint supports is skipped.
        Its product is the zero vector, which every span contains: that
        follows from the definition, e_a * e_b = 0 for a != b, not from
        the paper's theorem, so the check stays independent of it.  Each
        row is multiplied by itself, and every pair whose supports meet is
        formed and reduced against the basis.
        """
        kern, product = self.algebra.spec._kernel, self.algebra._product
        rows, pivots, supports = self.basis._rows, self.pivot_cols, _supports(self.basis._rows)
        for i, (u, su) in enumerate(zip(rows, supports)):
            for w, sw in zip(rows[i:], supports[i:]):
                if su & sw and not _reduces_to_zero(kern, product(u, w), rows, pivots):
                    return False
        return True

    def natural_basis(self) -> list[Element]:
        """The canonical basis, which is natural when the ambient algebra
        is regular: by the paper's theorem its supports are then pairwise
        disjoint, so its pairwise products vanish, e_a * e_b = 0 for a != b.

        Raises NotASubalgebra when the subspace is not closed, and else
        NotRegular for singular ambient algebras (no guarantee exists
        there, even though such bases occasionally do): closure is
        checked first, as it needs no elimination of the structure matrix.
        Over R, closed only within ``tol``, supports may meet: that raises
        NotASubalgebra too, naming two basis vectors and a shared coordinate.
        """
        if not self.is_subalgebra():
            raise NotASubalgebra("subspace is not closed under the product")
        if not self.algebra.is_regular():
            raise NotRegular("ambient algebra is not regular")
        basis, supports, seen = self.basis_elements(), _supports(self.basis._rows), 0
        for w, sw in zip(basis, supports):
            if shared := seen & sw:
                bit = shared & -shared
                u = next(u for u, su in zip(basis, supports) if su & bit)
                msg = f"basis vectors {u.render()} and {w.render()} share e{bit.bit_length()}"
                raise NotASubalgebra(msg + ": the subspace is closed only within tol, no natural basis")
            seen |= sw
        return list(basis)

    def sort_key(self):
        return (
            self.basis.nrows,
            self.pivot_cols,
            tuple(x for row in self.basis._rows for x in row),
        )

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self is other or (self.algebra == other.algebra and self.basis == other.basis)

    def __hash__(self):
        return hash((self.algebra, self.basis))

    def render(self) -> str:
        return "span{" + ", ".join(e.render() for e in self.basis_elements()) + "}"

    def __repr__(self):
        return f"Subspace({self.render()}, dim={self.dim})"


def _supports(rows) -> list[int]:
    """The support of each raw row as a bitmask: bit k is set where
    coordinate k is nonzero."""
    return [sum(1 << k for k, x in enumerate(row) if x) for row in rows]


def _reduces_to_zero(kern, v, rows, pivots) -> bool:
    """Whether ``v`` reduces to exactly zero against ``rows``, a reduced
    row echelon basis with its leading ones at ``pivots``: each row with a
    nonzero entry of ``v`` at its pivot is subtracted, on every column, by
    the kernel's ``sub_multiple``, so an overflow over R raises there."""
    for row, c in zip(rows, pivots):
        if v[c] != 0:
            v = kern.sub_multiple(v, v[c], row)
    return not any(v)
