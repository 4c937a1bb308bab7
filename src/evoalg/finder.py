"""Detection of one-dimensional and codimension-one subalgebras.

For a regular algebra, every codimension-one subalgebra has the shape
``span({e_i : i != p, q} + {v})`` with ``v`` in the plane of ``e_p`` and
``e_q``.  Whether such a subspace exists for a pair (p, q) is governed by
the rank of the pair submatrix (columns p, q of the structure matrix with
rows p, q removed):

* rank 2: no subalgebra for that pair;
* rank 1: the only candidate direction is a nonzero submatrix row
  ``(alpha, beta)``, and it works exactly when the degree-3 closure
  identity between the four structure constants at (p, q) holds;
* rank 0: one subalgebra per nonzero root of a cubic in the coefficient
  of ``e_q``, plus the two coordinate hyperplanes when the off-diagonal
  constants ``a[p,q]`` / ``a[q,p]`` vanish.

The rank is read straight off the structure matrix, without building or
reducing the submatrix: column 1 pivots as in ``rref``, and the rank is 2
as soon as one other row has a nonzero column-2 residual against the
pivot row, which for a typical rank-2 pair is the first row looked at.
Rank-0 and rank-1 pairs read every row.

Dimension two is the same pair scan: the submatrix has no rows, so the
single pair has rank 0, and the rank-0 formulas yield the complete list of
one-dimensional subalgebras.  Over prime fields, one-dimensional
subalgebras of any dimension are found by scanning projective
representatives directly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import Element, EvolutionAlgebra
from .errors import (
    BadIndices,
    DimensionTooSmall,
    MixedAlgebras,
    NotASubalgebra,
    NotRegular,
    UnsupportedFieldDimension,
    ZeroPair,
)
from .field import APPROX_REALS, PRIME_FIELD, FieldScalar, LowDegreePoly, nonzero_roots
from .linalg import Matrix, _pair_rank, matvec
from .subspace import Subspace

CASE_ROW = "rank1-row"
CASE_ROOT = "root"
CASE_DROP_P = "drop-p"
CASE_DROP_Q = "drop-q"


@dataclass(frozen=True)
class PairSubmatrix:
    """Columns p, q of the structure matrix with rows p, q removed."""

    p: int
    q: int
    matrix: Matrix
    rank: int


@dataclass(frozen=True)
class CodimOneFound:
    """One codimension-one subalgebra with its provenance.

    ``vector`` holds the (alpha, beta) coefficients of v relative to
    (e_p, e_q) for the row and root cases; ``root`` additionally records
    the cubic root for the root case.
    """

    subspace: Subspace
    p: int
    q: int
    case: str
    vector: tuple[FieldScalar, FieldScalar] | None = None
    root: FieldScalar | None = None


@dataclass(frozen=True)
class PairDiagnostics:
    """Per-pair search record: rank, condition values, roots, drop flags.

    For rank 1, ``row`` is the first nonzero submatrix row as read from
    the structure matrix (unnormalized) and ``closure_lhs``/``closure_rhs``
    are the two sides of the closure identity evaluated on it.  For rank 0,
    ``cubic`` and ``roots`` describe the root search and ``drop_p``/
    ``drop_q`` report the coordinate-hyperplane conditions.  Roots whose
    cubic residual comes within a factor of ten of the real-field
    acceptance bound are repeated in ``flagged_roots``.
    """

    p: int
    q: int
    rank: int
    row: tuple[FieldScalar, FieldScalar] | None = None
    closure_lhs: FieldScalar | None = None
    closure_rhs: FieldScalar | None = None
    closure_holds: bool | None = None
    cubic: LowDegreePoly | None = None
    roots: tuple[FieldScalar, ...] | None = None
    drop_p: bool | None = None
    drop_q: bool | None = None
    flagged_roots: tuple[FieldScalar, ...] = ()


@dataclass(frozen=True)
class SubalgebraReport:
    """Deduplicated codimension-one findings plus per-pair diagnostics."""

    algebra: EvolutionAlgebra
    found: tuple[CodimOneFound, ...]
    diagnostics: tuple[PairDiagnostics, ...]

    @property
    def count(self) -> int:
        return len(self.found)

    def subspaces(self) -> list[Subspace]:
        return [f.subspace for f in self.found]


def _check_pair(a: EvolutionAlgebra, p: int, q: int) -> None:
    n = a.dim
    if not (1 <= p <= n and 1 <= q <= n) or p == q:
        raise BadIndices(f"need distinct basis indices in 1..{n}, got ({p}, {q})")


def _check_pair_with_rows(a: EvolutionAlgebra, p: int, q: int) -> None:
    """``_check_pair``, for entry points that also need an index outside
    the pair (a pair submatrix with at least one row)."""
    if a.dim < 3:
        raise DimensionTooSmall(f"pair submatrix needs dimension >= 3, got {a.dim}")
    _check_pair(a, p, q)


def _pair_rows(a: EvolutionAlgebra, p: int, q: int) -> list[tuple[FieldScalar, FieldScalar]]:
    """Columns p, q (1-based, p < q) of the structure matrix without rows
    p, q, in their original order."""
    skip = (p - 1, q - 1)
    return [(r[p - 1], r[q - 1]) for i, r in enumerate(a.structure.rows()) if i not in skip]


def _pair_rank_of(a: EvolutionAlgebra, p: int, q: int, columns: list) -> int:
    """Rank of the pair submatrix, from ``columns = list(zip(*a._values))`` (p < q)."""
    xs, ys = (c[: p - 1] + c[p : q - 1] + c[q:] for c in (columns[p - 1], columns[q - 1]))
    return _pair_rank(xs, ys, a.spec)


def onedim_residual(a: EvolutionAlgebra, x: Element) -> Element:
    """Defect of x in the one-dimensional closure system.

    Returns the coordinate-wise square of x minus the image of x under the
    inverse transposed structure matrix; the result is zero exactly when
    span{x} squares back onto x after rescaling (for x nonzero).
    """
    if x.algebra != a:
        raise MixedAlgebras("element from a different algebra")
    if not a.is_regular():
        raise NotRegular("one-dimensional residual needs a regular algebra")
    lin = matvec(a.transpose_inverse(), x.coords)
    return Element(a, tuple(c * c - l for c, l in zip(x.coords, lin)))


def solve_onedim(a: EvolutionAlgebra) -> list[Subspace]:
    """All one-dimensional subalgebras, canonically ordered.

    Over a prime field every projective line is tested directly.  In
    dimension two the closed form applies over any field.  Infinite
    fields in dimension three and above are out of scope.
    """
    if not a.is_regular():
        raise NotRegular("one-dimensional search needs a regular algebra")
    if a.spec.kind == PRIME_FIELD:
        return _lines_by_enumeration(a)
    if a.dim == 2:
        lines = [found.subspace for found in _rank0_findings(a, 1, 2)]
        lines.sort(key=Subspace.sort_key)
        return lines
    raise UnsupportedFieldDimension(
        f"one-dimensional search over {a.spec.describe()} supports dimension 2 only"
    )


def _lines_by_enumeration(a: EvolutionAlgebra) -> list[Subspace]:
    p = a.spec.p
    n = a.dim
    scalars = [a.spec.from_int(k) for k in range(p)]
    out = []
    for lead in range(n):
        for tail in itertools.product(range(p), repeat=n - lead - 1):
            coords = (
                [scalars[0]] * lead + [scalars[1]] + [scalars[t] for t in tail]
            )
            u = Element(a, tuple(coords))
            line = Subspace.span(a, [u])
            if line.contains(u * u):
                out.append(line)
    out.sort(key=Subspace.sort_key)
    return out


def pair_submatrix(a: EvolutionAlgebra, p: int, q: int) -> PairSubmatrix:
    """The (n-2) x 2 submatrix for a pair of indices, with its rank.

    Indices are 1-based and normalized to p < q; rows keep their original
    relative order.
    """
    _check_pair_with_rows(a, p, q)
    p, q = min(p, q), max(p, q)
    rank = _pair_rank_of(a, p, q, list(zip(*a._values)))
    return PairSubmatrix(p, q, Matrix(a.spec, _pair_rows(a, p, q), ncols=2), rank)


def _closure_sides(
    a: EvolutionAlgebra, p: int, q: int, alpha: FieldScalar, beta: FieldScalar
) -> tuple[FieldScalar, FieldScalar]:
    app = a.structure_constant(p, p)
    apq = a.structure_constant(p, q)
    aqp = a.structure_constant(q, p)
    aqq = a.structure_constant(q, q)
    lhs = alpha * alpha * beta * app + beta * beta * beta * aqp
    rhs = alpha * alpha * alpha * apq + alpha * beta * beta * aqq
    return lhs, rhs


def closure_condition(
    a: EvolutionAlgebra, p: int, q: int, alpha: FieldScalar, beta: FieldScalar
) -> bool:
    """Whether v = alpha*e_p + beta*e_q squares back into its own line
    modulo the basis directions outside {p, q}.

    The identity is homogeneous of degree three in (alpha, beta), so any
    nonzero multiple of the pair gives the same verdict.
    """
    _check_pair(a, p, q)
    if alpha.is_zero() and beta.is_zero():
        raise ZeroPair("coefficient pair (0, 0) spans nothing")
    lhs, rhs = _closure_sides(a, p, q, alpha, beta)
    return lhs == rhs


def closure_cubic(a: EvolutionAlgebra, p: int, q: int) -> LowDegreePoly:
    """Cubic whose nonzero roots t give closed lines v = e_p + t*e_q."""
    _check_pair(a, p, q)
    return LowDegreePoly(
        a.structure_constant(q, p),
        -a.structure_constant(q, q),
        a.structure_constant(p, p),
        -a.structure_constant(p, q),
    )


def codim1_necessary(a: EvolutionAlgebra, p: int, q: int) -> bool:
    """Necessary condition on the structure constants for a codimension-one
    subalgebra supported on the pair (p, q): the closure identity must hold
    with (alpha, beta) = (a[i,p], a[i,q]) for every index i outside the pair.
    """
    _check_pair_with_rows(a, p, q)
    for i in range(1, a.dim + 1):
        if i in (p, q):
            continue
        lhs, rhs = _closure_sides(a, p, q, a.structure_constant(i, p), a.structure_constant(i, q))
        if lhs != rhs:
            return False
    return True


def _codim1_subspace(
    a: EvolutionAlgebra, p: int, q: int, vec: tuple[FieldScalar, FieldScalar] | None, skip: int
) -> Subspace:
    """Assemble span({e_i : i != p,q} + {v}) (or a coordinate hyperplane
    when ``vec`` is None and ``skip`` names the dropped index) and verify
    closure; the theory guarantees it, so over exact fields a failure is a
    bug.  Over R, with entries near tol, the absolute-tolerance rank and
    root tests can pass a candidate the relative closure test rejects.
    """
    elements = [a.basis_element(i) for i in range(1, a.dim + 1) if i not in (p, q)]
    if vec is None:
        elements.extend(a.basis_element(i) for i in (p, q) if i != skip)
    else:
        zero = a.spec.zero()
        coords = [zero] * a.dim
        coords[p - 1] = vec[0]
        coords[q - 1] = vec[1]
        elements.append(Element(a, tuple(coords)))
    sub = Subspace.span(a, elements)
    if sub.dim != a.dim - 1 or not sub.is_subalgebra():
        if a.spec.kind == APPROX_REALS:
            raise NotASubalgebra(
                f"candidate for pair ({p},{q}) is not closed at tolerance {a.spec.tol:g}:"
                " entries near tol make the verdict tolerance-sensitive"
            )
        raise AssertionError(f"constructed candidate for pair ({p},{q}) failed verification")
    return sub


def _rank0_findings(a: EvolutionAlgebra, p: int, q: int) -> list[CodimOneFound]:
    """Findings for a pair whose submatrix vanishes (also the full
    dimension-two answer, where the submatrix has no rows)."""
    cubic = closure_cubic(a, p, q)
    found = []
    for lam in nonzero_roots(cubic):
        vec = (a.spec.one(), lam)
        sub = _codim1_subspace(a, p, q, vec, 0)
        found.append(CodimOneFound(sub, p, q, CASE_ROOT, vec, lam))
    if a.structure_constant(p, q).is_zero():
        sub = _codim1_subspace(a, p, q, None, q)
        found.append(CodimOneFound(sub, p, q, CASE_DROP_Q))
    if a.structure_constant(q, p).is_zero():
        sub = _codim1_subspace(a, p, q, None, p)
        found.append(CodimOneFound(sub, p, q, CASE_DROP_P))
    return found


def _rank0_diagnostics(a: EvolutionAlgebra, p: int, q: int, found) -> PairDiagnostics:
    cubic = closure_cubic(a, p, q)
    roots = tuple(f.root for f in found if f.case == CASE_ROOT)
    flagged = ()
    if a.spec.kind == APPROX_REALS:
        scale = max(abs(c.value) for c in cubic.coefficients())
        bound = a.spec.tol * scale / 10.0
        flagged = tuple(r for r in roots if abs(cubic.evaluate(r).value) > bound)
    return PairDiagnostics(
        p,
        q,
        0,
        cubic=cubic,
        roots=roots,
        drop_p=a.structure_constant(q, p).is_zero(),
        drop_q=a.structure_constant(p, q).is_zero(),
        flagged_roots=flagged,
    )


def _pair_search(
    a: EvolutionAlgebra, p: int, q: int, columns: list
) -> tuple[list[CodimOneFound], PairDiagnostics]:
    p, q = min(p, q), max(p, q)
    rank = _pair_rank_of(a, p, q, columns)
    if rank == 2:
        return [], PairDiagnostics(p, q, 2)
    if rank == 1:
        row = next(r for r in _pair_rows(a, p, q) if not (r[0].is_zero() and r[1].is_zero()))
        lhs, rhs = _closure_sides(a, p, q, row[0], row[1])
        holds = lhs == rhs
        found = []
        if holds:
            lead = row[0] if not row[0].is_zero() else row[1]
            inv = lead.inv()
            vec = (row[0] * inv, row[1] * inv)
            found.append(CodimOneFound(_codim1_subspace(a, p, q, vec, 0), p, q, CASE_ROW, vec))
        diag = PairDiagnostics(
            p, q, 1, row=row, closure_lhs=lhs, closure_rhs=rhs, closure_holds=holds
        )
        return found, diag
    found = _rank0_findings(a, p, q)
    return found, _rank0_diagnostics(a, p, q, found)


def codim1_for_pair(a: EvolutionAlgebra, p: int, q: int) -> list[CodimOneFound]:
    """Codimension-one subalgebras attached to one index pair."""
    if not a.is_regular():
        raise NotRegular("codimension-one search needs a regular algebra")
    _check_pair_with_rows(a, p, q)
    found, _ = _pair_search(a, p, q, list(zip(*a._values)))
    return found


def enumerate_codim1(a: EvolutionAlgebra) -> SubalgebraReport:
    """All codimension-one subalgebras, deduplicated and canonically sorted.

    Every pair p < q is scanned; in dimension two the one pair has an
    empty submatrix and the rank-0 formulas give the one-dimensional
    answer.  Every returned subspace is re-verified to be closed, whatever
    the field.
    """
    if not a.is_regular():
        raise NotRegular("codimension-one search needs a regular algebra")
    n = a.dim
    if n < 2:
        raise DimensionTooSmall(f"codimension-one search needs dimension >= 2, got {n}")
    all_found: list[CodimOneFound] = []
    diags: list[PairDiagnostics] = []
    columns = list(zip(*a._values))
    for p in range(1, n + 1):
        for q in range(p + 1, n + 1):
            found, diag = _pair_search(a, p, q, columns)
            all_found.extend(found)
            diags.append(diag)
    unique: list[CodimOneFound] = []
    for f in all_found:
        if not any(f.subspace == u.subspace for u in unique):
            unique.append(f)
    unique.sort(key=lambda f: f.subspace.sort_key())
    return SubalgebraReport(a, tuple(unique), tuple(diags))
