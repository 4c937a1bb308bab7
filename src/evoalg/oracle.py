"""Brute-force ground truth over prime fields.

Subspaces of F_p^n are enumerated by RREF profile: choose the pivot
columns, then fill the free positions with every residue.  Each subspace
appears exactly once, already in canonical form as raw residues, so the
stream needs no duplicate filtering and no ``rref``.  A hard size guard refuses oversized
enumerations instead of silently truncating them.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .algebra import EvolutionAlgebra
from .errors import TooLarge, UnsupportedFieldDimension
from .field import PRIME_FIELD, FieldSpec
from .linalg import Matrix
from .subspace import Subspace

DEFAULT_MAX_SUBSPACES = 10_000_000


def gaussian_binomial(n: int, m: int, q: int) -> int:
    """Number of m-dimensional subspaces of an n-dimensional space over F_q."""
    if m < 0 or m > n:
        return 0
    num = den = 1
    for i in range(m):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def subspace_count(n: int, q: int) -> int:
    """Total number of subspaces of F_q^n, all dimensions."""
    return sum(gaussian_binomial(n, m, q) for m in range(n + 1))


def enumerate_subspaces(
    spec: FieldSpec, n: int, m: int, *, max_count: int = DEFAULT_MAX_SUBSPACES
) -> Iterator[Matrix]:
    """Yield the canonical RREF basis matrix of every m-dimensional
    subspace of F_p^n exactly once.

    Raises UnsupportedFieldDimension for non-prime-field specs and
    TooLarge when the subspace count exceeds ``max_count``.
    """
    if spec.kind != PRIME_FIELD:
        raise UnsupportedFieldDimension(f"subspace enumeration needs a prime field, got {spec.describe()}")
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    count = gaussian_binomial(n, m, spec.p)
    if count > max_count:
        raise TooLarge(f"{count} subspaces exceed the guard of {max_count}")
    return _rref_profiles(spec, n, m)


def _rref_profiles(spec: FieldSpec, n: int, m: int) -> Iterator[Matrix]:
    if m == 0:
        yield Matrix._trusted(spec, (), n)
        return
    for pivots in itertools.combinations(range(n), m):
        pivset = set(pivots)
        free = [(r, c) for r in range(m) for c in range(pivots[r] + 1, n) if c not in pivset]
        for values in itertools.product(range(spec.p), repeat=len(free)):
            rows = [[0] * n for _ in range(m)]
            for r, c in enumerate(pivots):
                rows[r][c] = 1
            for (r, c), v in zip(free, values):
                rows[r][c] = v
            yield Matrix._trusted(spec, tuple(map(tuple, rows)), n)


def enumerate_subspaces_of(
    algebra: EvolutionAlgebra, m: int, *, max_count: int = DEFAULT_MAX_SUBSPACES
) -> Iterator[Subspace]:
    """Same stream as :func:`enumerate_subspaces`, wrapped as subspaces of
    the given algebra.  Each basis is canonical already, with its pivots at
    the leading ones, so it is not reduced again."""
    return _as_subspaces(algebra, enumerate_subspaces(algebra.spec, algebra.dim, m, max_count=max_count))


def _as_subspaces(algebra: EvolutionAlgebra, bases: Iterator[Matrix]) -> Iterator[Subspace]:
    return (Subspace._canonical(algebra, b._rows, tuple(r.index(1) for r in b._rows)) for b in bases)


def enumerate_subalgebras(
    algebra: EvolutionAlgebra, *, max_count: int = DEFAULT_MAX_SUBSPACES
) -> list[Subspace]:
    """Every subspace of the algebra that is closed under the product,
    including the zero subspace and the full algebra, canonically ordered.
    The guard applies to the total over all dimensions.
    """
    spec, n = algebra.spec, algebra.dim
    if spec.kind != PRIME_FIELD:
        raise UnsupportedFieldDimension(f"subalgebra enumeration needs a prime field, got {spec.describe()}")
    total = subspace_count(n, spec.p)
    if total > max_count:
        raise TooLarge(f"{total} subspaces exceed the guard of {max_count}")
    subs = (s for m in range(n + 1) for s in _as_subspaces(algebra, _rref_profiles(spec, n, m)))
    return sorted((s for s in subs if s.is_subalgebra()), key=Subspace.sort_key)
