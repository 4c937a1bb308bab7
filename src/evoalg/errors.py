"""Exception hierarchy shared by every module in the package.

An ``EvoAlgError`` subclass names an outcome that a caller or the CLI
handles: ``ParseError`` is bad input text (CLI exit code 2), every other
subclass a domain answer the computation cannot give (exit code 1).
Misuse of an argument raises the builtin exception Python uses for it:
``ValueError`` for operands of different fields or algebras, bad shapes,
bad basis indices and the zero coefficient pair, ``TypeError`` for a
value of the wrong type, ``IndexError`` for a basis index out of range,
``ZeroDivisionError`` for the inverse of zero.
"""


class EvoAlgError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(EvoAlgError):
    """Malformed textual input: scalars, vectors, or algebra files."""


class NonFiniteValue(EvoAlgError):
    """A real scalar became NaN or infinite, or a determinant left the float range."""


class IdenticallyZeroPolynomial(EvoAlgError):
    """Root extraction on the zero polynomial; every scalar is a root."""


class SingularMatrix(EvoAlgError):
    """Matrix inversion requested for a singular matrix."""


class NotRegular(EvoAlgError):
    """Operation requires a regular (non-singular) algebra."""


class NotASubalgebra(EvoAlgError):
    """Subspace is not closed under the algebra product."""


class UnsupportedFieldDimension(EvoAlgError):
    """No solver for this field/dimension combination is provided."""


class TooLarge(EvoAlgError):
    """Enumeration would exceed the configured size guard."""
