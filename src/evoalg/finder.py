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

No pair copies its submatrix.  A search lists the nonzero rows of each
column p once, in the order in which ``rref`` would pick them as pivots
(``pivot_order`` of the field's kernel), and ranks every pair (p, q) of
that column in one sweep over the rows of the structure matrix, read in
place (``linalg._pair_ranks``), over Q, F_p and R alike.  The pivot of a
pair is the first row of that list outside the pair, and a pair has
rank 2 as soon as one other row has a nonzero column-q residual against
it, which for a typical rank-2 pair is the first row looked at; each
later row is tested only against the pairs still undecided.  Rank-0 and
rank-1 pairs read every row.  Over R a residual can overflow; the
column is then ranked again one pair at a time, each just before its
search, so that the first overflow in scan order is the one raised.

Dimension two is the same pair scan: the submatrix has no rows, so the
single pair has rank 0, and the rank-0 formulas yield the complete list of
one-dimensional subalgebras.  Over prime fields, one-dimensional
subalgebras of any dimension are the closed lines of the oracle's stream
of one-dimensional subspaces, which refuses more than
``DEFAULT_MAX_SUBSPACES`` of them with TooLarge.  The scans, the closure
identity, the rank-0 cubic (built once per pair) and the candidates run
on raw values; ``FieldScalar`` appears only in findings and diagnostics.
The field's kernel decides the closure identity (over R relative to its
products) and finds and flags the cubic's roots.

A candidate's reduced row echelon basis is known in closed form, so no
candidate is eliminated.  It is built in O(n): the identity's unit rows,
made once per search at its first candidate, without the free column's
row, and for ``e_p + t*e_q`` with the row of p copied once to hold t.
Every other row is shared.  Findings and diagnostics are named tuples,
so a rank-2 pair costs one tuple.  A candidate is fixed by the free column of a
coordinate hyperplane, or by (p, q, t) for ``e_p + t*e_q``, and distinct
keys give subspaces the field's equality tells apart: different free
columns or different p leave a unit entry facing a zero, and the t of one
pair are its pairwise unequal roots (``field.nonzero_roots``).  So only a
coordinate hyperplane recurs: a search builds it once, hands the same
object back, and drops repeats by identity.

The derivation decides closure, and no candidate is checked again at run
time.  Products of distinct basis vectors vanish, so
H = span({e_i : i != p, q} + {v}) is closed exactly when every e_i^2
(i outside the pair) lies in H, which is the rank test, and v^2 lies in
H, which is the closure identity or the cubic at t.  The tests check the
findings against ``Subspace.is_subalgebra``, the F_p brute force and,
over R, the cubic of the exact binary coefficients.  Over R ``verify``
re-squares v in floats, a second rounding, and can still call a span
the search found at a near-tol input not closed.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .algebra import Element, EvolutionAlgebra
from .errors import NonFiniteValue, NotRegular, UnsupportedFieldDimension
from .field import PRIME_FIELD, FieldScalar, LowDegreePoly, _value_of, nonzero_roots
from .linalg import Matrix, _pair_ranks
from .oracle import enumerate_subspaces_of
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


class CodimOneFound(NamedTuple):
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


class PairDiagnostics(NamedTuple):
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


class _Search(NamedTuple):
    """What the candidates of one search share: ``units()``, the rows of
    the identity matrix, built at the first call (most dense searches
    have no candidate), and ``hyperplanes``, which maps the free column
    of each coordinate hyperplane built so far to its subspace."""

    units: Callable[[], tuple]
    hyperplanes: dict

    @classmethod
    def of(cls, a: EvolutionAlgebra) -> "_Search":
        return cls(functools.cache(lambda: Matrix.identity(a.spec, a.dim)._rows), {})


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
    if not (a._is_index(p) and a._is_index(q)) or p == q:
        raise ValueError(f"need distinct basis indices in 1..{a.dim}, got ({p}, {q})")


def _check_pair_with_rows(a: EvolutionAlgebra, p: int, q: int) -> None:
    """``_check_pair``, for entry points that also need an index outside
    the pair (a pair submatrix with at least one row)."""
    if a.dim < 3:
        raise ValueError(f"pair submatrix needs dimension >= 3, got {a.dim}")
    _check_pair(a, p, q)


def _pair_rows(a: EvolutionAlgebra, p: int, q: int) -> tuple[tuple, ...]:
    """Columns p, q (1-based) of the structure matrix without rows p, q,
    in their original order, as raw values."""
    rows, (i, j) = a.structure._rows, sorted((p - 1, q - 1))
    return tuple(map(operator.itemgetter(p - 1, q - 1), rows[:i] + rows[i + 1 : j] + rows[j + 1 :]))


def _column_order(a: EvolutionAlgebra, p: int) -> list[int]:
    """The kernel's pivot order of column p (1-based) of the structure
    matrix, from which ``_pair_ranks`` takes every pair's pivot."""
    return a.spec._kernel.pivot_order([row[p - 1] for row in a.structure._rows])


def _pair_rank_of(a: EvolutionAlgebra, p: int, q: int) -> int:
    """The rank of the pair (p, q), 1-based: ``_pair_ranks`` with q alone."""
    return _pair_ranks(a.structure._rows, p - 1, [q - 1], _column_order(a, p), a.spec._kernel)[q - 1]


def onedim_residual(a: EvolutionAlgebra, x: Element) -> Element:
    """Defect of x in the one-dimensional closure system.

    Returns the coordinate-wise square of x minus the image of x under the
    inverse transposed structure matrix; the result is zero exactly when
    span{x} squares back onto x after rescaling (for x nonzero).
    """
    if x.algebra != a:
        raise ValueError("element from a different algebra")
    if not a.is_regular():
        raise NotRegular("one-dimensional residual needs a regular algebra")
    kern = a.spec._kernel
    lin = [kern.dot(row, x._coords) for row in a.transpose_inverse()._rows]
    return Element._of(a, kern.sub_multiple([kern.mul(c, c) for c in x._coords], kern.one, lin))


def solve_onedim(a: EvolutionAlgebra) -> list[Subspace]:
    """All one-dimensional subalgebras, canonically ordered.

    Over a prime field every line of the oracle's stream is tested.  In
    dimension two the closed form applies over any field.  Infinite
    fields in dimension three and above are out of scope, and are refused
    before the regularity check.
    """
    if a.spec.kind != PRIME_FIELD and a.dim != 2:
        raise UnsupportedFieldDimension(
            f"one-dimensional search over {a.spec.describe()} supports dimension 2 only"
        )
    if not a.is_regular():
        raise NotRegular("one-dimensional search needs a regular algebra")
    if a.spec.kind == PRIME_FIELD:
        return [line for line in enumerate_subspaces_of(a, 1) if line.is_subalgebra()]
    return sorted((found.subspace for found in _rank0_search(a, 1, 2, _Search.of(a))[0]), key=Subspace.sort_key)


def pair_submatrix(a: EvolutionAlgebra, p: int, q: int) -> PairSubmatrix:
    """The (n-2) x 2 submatrix for a pair of indices, with its rank.

    Indices are 1-based and normalized to p < q; rows keep their original
    relative order.
    """
    _check_pair_with_rows(a, p, q)
    p, q = min(p, q), max(p, q)
    matrix = Matrix._trusted(a.spec, _pair_rows(a, p, q), 2)
    return PairSubmatrix(p, q, matrix, _pair_rank_of(a, p, q))


def _pair_constants(a: EvolutionAlgebra, p: int, q: int) -> tuple:
    """The raw structure constants a[p,p], a[p,q], a[q,p], a[q,q]."""
    s = a.structure._rows
    return s[p - 1][p - 1], s[p - 1][q - 1], s[q - 1][p - 1], s[q - 1][q - 1]


def _closure_verdict(a: EvolutionAlgebra, p: int, q: int, alpha, beta) -> tuple:
    """The two sides of the closure identity on raw values and whether they
    agree, by the kernel's ``sums_equal`` over the four products (relative
    over R).  The sides are rounded in the order of
    ``alpha*alpha*beta*a[p,p] + beta*beta*beta*a[q,p]`` and
    ``alpha*alpha*alpha*a[p,q] + alpha*beta*beta*a[q,q]``."""
    kern = a.spec._kernel
    app, apq, aqp, aqq = _pair_constants(a, p, q)
    products = ((alpha, alpha, beta, app), (beta, beta, beta, aqp))
    products += ((alpha, alpha, alpha, apq), (alpha, beta, beta, aqq))
    terms = [functools.reduce(kern.mul, f) for f in products]
    lhs, rhs = kern.canonical(terms[0] + terms[1]), kern.canonical(terms[2] + terms[3])
    return lhs, rhs, kern.sums_equal(lhs, rhs, terms)


def closure_condition(
    a: EvolutionAlgebra, p: int, q: int, alpha: FieldScalar, beta: FieldScalar
) -> bool:
    """Whether v = alpha*e_p + beta*e_q squares back into its own line
    modulo the basis directions outside {p, q}.

    The identity is homogeneous of degree three in (alpha, beta), so any
    nonzero multiple of the pair gives the same verdict.
    """
    _check_pair(a, p, q)
    alpha, beta = _value_of(a.spec, alpha), _value_of(a.spec, beta)
    if alpha == 0 and beta == 0:
        raise ValueError("coefficient pair (0, 0) spans nothing")
    return _closure_verdict(a, p, q, alpha, beta)[2]


def closure_cubic(a: EvolutionAlgebra, p: int, q: int) -> LowDegreePoly:
    """Cubic whose nonzero roots t give closed lines v = e_p + t*e_q."""
    _check_pair(a, p, q)
    app, apq, aqp, aqq = _pair_constants(a, p, q)
    return LowDegreePoly.from_values(a.spec, aqp, -aqq, app, -apq)


def codim1_necessary(a: EvolutionAlgebra, p: int, q: int) -> bool:
    """Necessary condition on the structure constants for a codimension-one
    subalgebra supported on the pair (p, q): the closure identity must hold
    with (alpha, beta) = (a[i,p], a[i,q]) for every index i outside the pair.
    """
    _check_pair_with_rows(a, p, q)
    return all(_closure_verdict(a, p, q, alpha, beta)[2] for alpha, beta in _pair_rows(a, p, q))


def _codim1_subspace(a: EvolutionAlgebra, p: int, q: int, x, y, search: _Search) -> Subspace:
    """span({e_i : i != p,q} + {v}), v = x*e_p + y*e_q (raw), in canonical
    form: the unit rows of every column but one free column, with v scaled
    as ``linalg._eliminate`` scales it, to e_p + t*e_q; where x or t is
    zero, the coordinate hyperplane without e_p or e_q.  The pair's rank
    and its closure identity or cubic have decided that the span is
    closed (see the module notes), so the basis is not checked again.
    The basis shares the rows of ``search.units()``; only the row of v
    is new.  A coordinate hyperplane already in ``search.hyperplanes`` is
    handed back.  An overflow while scaling v is a
    NonFiniteValue that names the pair and the candidate.
    """
    kern, n = a.spec._kernel, a.dim
    try:
        t = kern.zero if x == 0 else y if x == 1 else kern.mul(y, kern.inv(x))
    except NonFiniteValue as exc:
        v = [kern.zero] * n
        v[p - 1], v[q - 1] = x, y
        raise NonFiniteValue(
            f"candidate for pair ({p},{q}) with v = {Element._of(a, v).render()} overflows: {exc}"
        ) from exc
    free = p - 1 if x == 0 else q - 1
    units, hyperplanes = search
    if t == 0 and free in hyperplanes:
        return hyperplanes[free]
    rows, pivots = list(units()), list(range(n))
    if t != 0:  # the row of v: e_p with t in the free column q
        rows[p - 1] = rows[p - 1][:free] + (t,) + rows[p - 1][free + 1 :]
    del rows[free], pivots[free]
    sub = Subspace._canonical(a, tuple(rows), tuple(pivots))
    if t == 0:
        hyperplanes[free] = sub
    return sub


def _rank0_search(
    a: EvolutionAlgebra, p: int, q: int, search: _Search
) -> tuple[list[CodimOneFound], PairDiagnostics]:
    """Findings and diagnostics for a pair whose submatrix vanishes (also
    the full dimension-two answer, where the submatrix has no rows), from
    one cubic and one root search."""
    kern = a.spec._kernel
    cubic = closure_cubic(a, p, q)
    roots = tuple(nonzero_roots(cubic))
    found = []
    for lam in roots:
        sub = _codim1_subspace(a, p, q, kern.one, lam.value, search)
        found.append(CodimOneFound(sub, p, q, CASE_ROOT, (a.spec.one(), lam), lam))
    _, apq, aqp, _ = _pair_constants(a, p, q)
    drop_q, drop_p = apq == 0, aqp == 0
    if drop_q:
        sub = _codim1_subspace(a, p, q, kern.one, kern.zero, search)
        found.append(CodimOneFound(sub, p, q, CASE_DROP_Q))
    if drop_p:
        sub = _codim1_subspace(a, p, q, kern.zero, kern.one, search)
        found.append(CodimOneFound(sub, p, q, CASE_DROP_P))
    flagged = tuple(r for r in roots if kern.is_flagged_root(cubic._cs, r.value))
    return found, PairDiagnostics(
        p, q, 0, cubic=cubic, roots=roots, drop_p=drop_p, drop_q=drop_q, flagged_roots=flagged
    )


def _pair_search(
    a: EvolutionAlgebra, p: int, q: int, rank: int, search: _Search
) -> tuple[list[CodimOneFound], PairDiagnostics]:
    """Findings and diagnostics for the pair p < q, whose pair submatrix
    has rank ``rank``."""
    kern, rows, i, j = a.spec._kernel, a.structure._rows, p - 1, q - 1
    if rank == 2:
        return [], PairDiagnostics(p, q, 2)
    if rank == 1:
        x, y = next((r[i], r[j]) for k, r in enumerate(rows) if k != i and k != j and (r[i] or r[j]))
        lhs, rhs, holds = _closure_verdict(a, p, q, x, y)
        wrap = functools.partial(FieldScalar, a.spec)
        found = []
        if holds:
            inv = kern.inv(y if x == 0 else x)
            vec = (kern.mul(x, inv), kern.mul(y, inv))
            sub = _codim1_subspace(a, p, q, *vec, search)
            found.append(CodimOneFound(sub, p, q, CASE_ROW, tuple(map(wrap, vec))))
        return found, PairDiagnostics(
            p, q, 1, row=(wrap(x), wrap(y)), closure_lhs=wrap(lhs), closure_rhs=wrap(rhs), closure_holds=holds
        )
    return _rank0_search(a, p, q, search)


def codim1_for_pair(a: EvolutionAlgebra, p: int, q: int) -> list[CodimOneFound]:
    """Codimension-one subalgebras attached to one index pair."""
    if not a.is_regular():
        raise NotRegular("codimension-one search needs a regular algebra")
    _check_pair_with_rows(a, p, q)
    p, q = min(p, q), max(p, q)
    found, _ = _pair_search(a, p, q, _pair_rank_of(a, p, q), _Search.of(a))
    return found


def enumerate_codim1(a: EvolutionAlgebra) -> SubalgebraReport:
    """All codimension-one subalgebras, deduplicated and canonically sorted.

    Every pair p < q is scanned; in dimension two the one pair has an
    empty submatrix and the rank-0 formulas give the one-dimensional
    answer.  Each coordinate hyperplane is built once per search, and the
    first finding of each subspace object, in scan order, is kept (see the
    module notes).
    """
    if not a.is_regular():
        raise NotRegular("codimension-one search needs a regular algebra")
    n = a.dim
    if n < 2:
        raise UnsupportedFieldDimension(f"codimension-one search needs dimension >= 2, got {n}")
    first: dict[int, CodimOneFound] = {}
    diags: list[PairDiagnostics] = []
    search = _Search.of(a)
    rows, kern = a.structure._rows, a.spec._kernel
    for p in range(1, n):
        try:
            ranks = _pair_ranks(rows, p - 1, range(p, n), _column_order(a, p), kern)
        except NonFiniteValue:  # rank each pair before its search, so the first overflow in scan order raises
            ranks = None
        for q in range(p + 1, n + 1):
            rank = _pair_rank_of(a, p, q) if ranks is None else ranks[q - 1]
            found, diag = _pair_search(a, p, q, rank, search)
            for f in found:
                first.setdefault(id(f.subspace), f)
            diags.append(diag)
    unique = sorted(first.values(), key=lambda f: f.subspace.sort_key())
    return SubalgebraReport(a, tuple(unique), tuple(diags))
