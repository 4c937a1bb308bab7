"""Exact-arithmetic toolkit for finite-dimensional evolution algebras.

Highlights: three field backends (exact rationals, prime fields,
floating-point reals), canonical RREF subspaces, natural-basis
extraction for subalgebras of regular algebras, one-dimensional and
codimension-one subalgebra search, and a brute-force oracle over prime
fields that cross-checks everything.
"""

from .algebra import Element, EvolutionAlgebra
from .errors import (
    EvoAlgError,
    IdenticallyZeroPolynomial,
    NonFiniteValue,
    NotASubalgebra,
    NotRegular,
    ParseError,
    SingularMatrix,
    TooLarge,
    UnsupportedFieldDimension,
)
from .field import (
    FieldScalar,
    FieldSpec,
    LowDegreePoly,
    nonzero_roots,
    scalar_parse,
)
from .finder import (
    CodimOneFound,
    PairDiagnostics,
    SubalgebraReport,
    closure_condition,
    closure_cubic,
    codim1_necessary,
    enumerate_codim1,
    pair_submatrix,
    solve_onedim,
)
from .linalg import Matrix, determinant, inverse, rref
from .oracle import enumerate_subalgebras, enumerate_subspaces, enumerate_subspaces_of
from .subspace import Subspace

__version__ = "0.1.0"

__all__ = [
    "CodimOneFound",
    "Element",
    "EvoAlgError",
    "EvolutionAlgebra",
    "FieldScalar",
    "FieldSpec",
    "IdenticallyZeroPolynomial",
    "LowDegreePoly",
    "Matrix",
    "NonFiniteValue",
    "NotASubalgebra",
    "NotRegular",
    "PairDiagnostics",
    "ParseError",
    "SingularMatrix",
    "SubalgebraReport",
    "Subspace",
    "TooLarge",
    "UnsupportedFieldDimension",
    "closure_condition",
    "closure_cubic",
    "codim1_necessary",
    "determinant",
    "enumerate_codim1",
    "enumerate_subalgebras",
    "enumerate_subspaces",
    "enumerate_subspaces_of",
    "inverse",
    "nonzero_roots",
    "pair_submatrix",
    "rref",
    "scalar_parse",
    "solve_onedim",
]
