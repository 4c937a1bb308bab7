"""Scalar arithmetic over the three supported coefficient fields.

A :class:`FieldSpec` picks the backend: exact rationals (``"Q"``), a prime
field (``"Fp"``), or floating-point reals with a relative precision
``tol`` (``"R"``).  Scalars are immutable and carry their spec, so mixing
values from different fields fails loudly instead of silently coercing.

The library has one representation: raw values (over Q an int where
integral and a reduced ``Fraction`` otherwise, int residues over F_p,
floats over R), stored by ``Matrix``, ``Element`` and ``Subspace`` and
computed on by the spec's kernel (``_Rationals``, ``_PrimeField``,
``_Reals``), the only code for canonical form, equality and its hash,
inverse, reduction mod p, rendering and the overflow check over R.  A
raw value is zero when it equals 0, in every field; over R only a sum or
difference that cancels is rounded to zero (``_Reals``), also by the
``FieldScalar`` operators and ``LowDegreePoly.evaluate``.  A
``FieldScalar`` is a value at the API boundary: public constructors
unwrap it once (``_value_of``, ``_coerced_value``); accessors,
diagnostics and rendering create it.

The kernels also find the nonzero roots of polynomials of degree at most
three, which is all the root finding the subalgebra search needs.  Over
Q and R one exact isolator (``_root_intervals``: a Sturm sequence and
bisection on ints) finds the real roots of the polynomial cleared of
denominators, as a float is an exact binary rational: exact over Q,
correctly rounded over R.  Over F_p every residue is evaluated.
``_Reals`` holds the root policy over R (acceptance and the
near-tolerance flag) and the closure-identity test (``sums_equal``),
both relative to the terms they sum.  ``LowDegreePoly`` stores raw
coefficients too.  Over F_p a value must be an int.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .errors import IdenticallyZeroPolynomial, NonFiniteValue, ParseError

RATIONALS = "Q"
PRIME_FIELD = "Fp"
APPROX_REALS = "R"

_INT_RE = re.compile(r"[+-]?\d+\Z")
_FRACTION_RE = re.compile(r"([+-]?\d+)/(\d+)\Z")
_DECIMAL_RE = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?\Z")

# Miller-Rabin on the first thirteen primes is exact below the smallest strong
# pseudoprime to all of them; 318665857834031151167461 passes the first twelve.
_PRIME_TEST_LIMIT = 3_317_044_064_679_887_385_961_981
_PRIME_TEST_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test; larger moduli raise ValueError."""
    if n >= _PRIME_TEST_LIMIT:
        raise ValueError(f"modulus {n} is too large to test for primality")
    if n < 2:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _PRIME_TEST_BASES:
        if n % b == 0:
            return n == b
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _is_int(x) -> bool:
    """An int that is not a bool: JSON ``true`` is no modulus or tolerance."""
    return isinstance(x, int) and not isinstance(x, bool)


def _finite(x: float) -> float:
    if not math.isfinite(x):
        raise NonFiniteValue(f"real scalar must be finite, got {x!r}")
    return x


def _q(x):
    """The raw value of the rational ``x``, an int or a reduced ``Fraction``:
    an int where the denominator is one."""
    return x if type(x) is int or x.denominator != 1 else x.numerator


class _Rationals:
    """Raw-value arithmetic of Q.  A raw value is an ``int`` where it is
    integral and a reduced ``Fraction`` with denominator above one
    otherwise, so the integral entries that dominate sparse inputs take
    int arithmetic.  Row operations, ``mul`` and ``inv`` normalise their
    results with ``_q``; ``product``, ``det_and_rank`` and
    ``nonzero_roots`` leave that to ``FieldScalar``, through which alone
    their results reach callers, and ``residual_zeros`` only compares
    products."""

    zero, one = 0, 1

    def canonical(self, value):
        if type(value) is int:
            return value
        if isinstance(value, Fraction) or _is_int(value):
            return _q(value)
        if isinstance(value, float):
            raise TypeError("exact rational scalars do not accept floats")
        raise TypeError(f"exact rational scalars need an int or a Fraction, got {type(value).__name__}")

    def eq(self, xs, ys) -> bool:
        """Entry-wise equality of two tuples of raw values."""
        return xs == ys

    def hash(self, xs) -> int:
        """A hash of a tuple of raw values that ``eq`` respects."""
        return hash(xs)

    def render(self, x) -> str:
        try:
            return str(x)
        except ValueError:  # over 4300 digits; Decimal has no such limit
            num, den = Decimal(x.numerator), Decimal(x.denominator)
            return f"{num}" if den == 1 else f"{num}/{den}"

    def inv(self, x):
        return _q(Fraction(1, x) if type(x) is int else 1 / x)  # 1 / x on ints is a float

    def mul(self, x, y):
        return _q(x * y)

    product = staticmethod(math.prod)  # over F_p, FieldScalar reduces it once

    def scale(self, row, s) -> list:
        return [self.mul(x, s) for x in row]

    def add_multiple(self, row, f, prow) -> list:
        """``row + f * prow``.  An entry of ``row`` facing a zero of ``prow``
        is passed through unmultiplied: ``a + f * 0`` is ``a``, and the
        rows of a sparse basis are mostly zeros."""
        return [_q(a + f * b) if b else a for a, b in zip(row, prow)]

    def sub_multiple(self, row, f, prow) -> list:
        """``row - f * prow``."""
        return self.add_multiple(row, -f, prow)

    def residual_zeros(self, prow, c, qs):
        """The residual test of ``linalg._pair_ranks`` for the pivot row
        ``prow`` on column ``c`` and the columns ``qs``: a function of a
        row, the columns still undecided and the row's index k, which keeps
        column k and the columns q whose residual ``y - x * (b / a0)``
        against ``prow`` is zero.  Over an exact field that residual is
        zero exactly where the 2x2 minor ``a0*y - x*b`` is, which needs no
        division, so integral entries stay ints."""
        a0 = prow[c]
        return lambda row, left, k: [q for q in left if q == k or a0 * row[q] == row[c] * prow[q]]

    def dot(self, xs, ys):
        """``x1*y1 + x2*y2 + ...``, summed left to right."""
        acc = [self.zero]
        for x, y in zip(xs, ys):
            acc = self.add_multiple(acc, x, (y,))
        return acc[0]

    def pivot_order(self, column) -> list[int]:
        """The indices of the nonzero entries of ``column`` in the order in
        which an elimination prefers them as pivots: index order."""
        return [i for i, x in enumerate(column) if x != 0]

    def sums_equal(self, x, y, terms) -> bool:
        """Whether ``x`` and ``y``, two sums of the raw values ``terms``, are equal."""
        return x == y

    @staticmethod
    def _cleared(xs) -> tuple[list[int], int]:
        """The rationals ``xs`` times the lcm of their denominators, as
        ints, and that lcm."""
        den = math.lcm(*(x.denominator for x in xs))
        return [x.numerator * (den // x.denominator) for x in xs], den

    def det_and_rank(self, rows) -> tuple[int | Fraction, int]:
        """Determinant and rank of the square grid ``rows``, by Bareiss
        elimination on its rows cleared of denominators: every entry is
        then a minor, so each division is exact.  Pivots and row swaps are
        those of ``linalg._eliminate``; a column without a pivot is dropped."""
        cleared = [self._cleared(row) for row in rows]
        rest, scale = [ints for ints, _ in cleared], math.prod(den for _, den in cleared)
        sign, prev, rank = 1, 1, 0
        while rest and rest[0]:
            i = next((i for i, row in enumerate(rest) if row[0]), -1)
            if i < 0:
                rest = [row[1:] for row in rest]
                continue
            if i:
                rest[0], rest[i], sign = rest[i], rest[0], -sign
            piv, *ptail = rest[0]
            rest = [[(piv * x - row[0] * y) // prev for x, y in zip(row[1:], ptail)] for row in rest[1:]]
            prev, rank = piv, rank + 1
        return (Fraction(sign * prev, scale) if rank == len(rows) else self.zero), rank

    def nonzero_roots(self, cs) -> list:
        """Sorted nonzero roots of the cubic with raw coefficients ``cs``: a
        root p/q of the primitive squarefree part has q dividing its leading
        coefficient, so an interval below ``1/lead`` holds one candidate."""
        chain = _sturm_chain(cs)
        lead = abs(chain[0][0]) if chain else 1
        roots = []
        for lo, hi, k in _root_intervals(chain, lambda lo, hi, k: (hi - lo) * lead < 1 << k):
            if lo == hi:
                roots.append(Fraction(hi, 1 << k))
            elif lo * lead < (m := hi * lead >> k) << k and _scaled_value(chain[0], m, lead) == 0:
                roots.append(Fraction(m, lead))
        return roots

    def is_flagged_root(self, cs, x) -> bool:
        """Whether the root ``x`` of the cubic ``cs`` is near the acceptance bound."""
        return False


class _PrimeField(_Rationals):
    """Int residues mod p, reduced after every product, sum and difference
    except in ``det_and_rank``, which packs each row into one int and
    reduces only its pivot rows."""

    def __init__(self, p: int):
        self.p = p

    def canonical(self, value):
        if not _is_int(value):
            raise TypeError(f"prime field scalars need an int, got {type(value).__name__}")
        return value % self.p

    def inv(self, x):
        return pow(x, -1, self.p)

    def mul(self, x, y):
        return x * y % self.p

    def add_multiple(self, row, f, prow) -> list:
        p = self.p
        return [(a + f * b) % p if b else a for a, b in zip(row, prow)]  # a is a reduced residue

    def residual_zeros(self, prow, c, qs):
        p, a0 = self.p, prow[c]
        return lambda row, left, k: [q for q in left if q == k or not (a0 * row[q] - row[c] * prow[q]) % p]

    def det_and_rank(self, rows) -> tuple[int, int]:
        """Determinant and rank of the square grid ``rows`` of residues, by
        forward elimination on rows packed into ints: entry j of a row is
        the slot of bits ``[j*w, (j+1)*w)``, and each column shifts every
        row down one slot, so the low slot is the column being cleared.

        A column pivots on the first row whose low slot is nonzero mod p.
        Its other slots are reduced mod p once; every row below, with low
        slot f, becomes ``(u >> w) + (-f/pivot mod p) * prow``, one
        multiply-add with no reduction.  A slot starts below p and gains
        at most ``(p-1)**2`` per operation, at most n - 1 times, so it stays
        below ``(p-1) * (1 + n*(p-1)) < 2**w`` and no carry crosses into
        the next slot.  The rank and the determinant over a field do not
        depend on the order of elimination."""
        p, n = self.p, len(rows)
        w = ((p - 1) * (1 + n * (p - 1))).bit_length()
        mask, shifts = (1 << w) - 1, range(0, n * w, w)
        rest = [sum(map(operator.lshift, row, shifts)) for row in rows]
        det, rank = 1, 0
        for _ in range(n):
            i = next((i for i, u in enumerate(rest) if (u & mask) % p), -1)
            if i < 0:
                rest = [u >> w for u in rest]
                continue
            if i:
                rest[0], rest[i], det = rest[i], rest[0], -det
            u = rest[0]
            piv = (u & mask) % p
            det, rank = det * piv % p, rank + 1
            prow, shift = 0, 0
            while u := u >> w:
                prow |= ((u & mask) % p) << shift
                shift += w
            g = p - pow(piv, -1, p)
            rest = [(u >> w) + (u & mask) * g % p * prow for u in rest[1:]]
        return (det if rank == n else 0), rank

    def nonzero_roots(self, cs) -> list:
        return [x for x in range(1, self.p) if _horner4(*cs, x) % self.p == 0]


class _Reals(_Rationals):
    """Floats with the relative precision ``tol``: a sum or difference is
    exactly ``0.0`` where it cancels, ``|a ± f*b| < tol*|a| + tol*|f*b|``
    (never of an infinity or a NaN); as ``tol < 1/2``, no input is rounded.
    An overflow raises NonFiniteValue at once, with the first non-finite
    intermediate that ``FieldScalar`` operations would meet, so no infinity
    can vanish later into an overwritten entry or a zeroed row."""

    zero, one = 0.0, 1.0
    det_and_rank = None  # linalg's forward elimination

    def __init__(self, tol: float):
        # With tol < 1/2 a sum that cancels is below 8*tol times its first
        # term; the rule is tested only there.
        self.tol, self._screen = tol, 8 * tol

    def canonical(self, value):
        if type(value) is float:
            return _finite(value)
        if isinstance(value, (float, Fraction)) or _is_int(value):
            return _finite(float(value))
        raise TypeError(f"real scalars need a float, an int or a Fraction, got {type(value).__name__}")

    def eq(self, xs, ys) -> bool:
        """Entry-wise: ``a - b`` cancels to zero by the rule of ``sub_mul``."""
        tol = self.tol
        close = (a == b or abs(a - b) < tol * abs(a) + tol * abs(b) for a, b in zip(xs, ys))
        return xs == ys or (len(xs) == len(ys) and all(close))

    def hash(self, xs) -> int:
        # Equality within tol is not transitive: only the length is safe.
        return len(xs)

    def render(self, x) -> str:
        return format(x + 0.0, ".17g")  # -0.0 + 0.0 is 0.0: a zero renders unsigned

    def inv(self, x):
        return _finite(1.0 / x)

    def mul(self, x, y):
        return _finite(x * y)

    def product(self, xs):
        """``x1 * x2 * ...`` of nonzero floats, left to right; NonFiniteValue
        where a partial product overflows or falls below the normal range."""
        acc = xs[0]
        for x in xs[1:]:
            if abs(acc := self.mul(acc, x)) < sys.float_info.min:
                raise NonFiniteValue(f"real product leaves the normal float range, got {acc!r}")
        return acc

    def add_multiple(self, row, f, prow) -> list:
        """``row + f * prow``, zero where an entry cancels.  Every entry is
        computed, also where ``prow`` holds a zero: ``-0.0 + f * 0.0`` is
        ``0.0``, so passing ``a`` through would keep a ``-0.0`` that the
        sum does not, and change what renders as ``-0``."""
        s, t = self._screen, self.tol
        out = [
            0.0 if abs(x := a + f * b) < s * abs(a) and abs(x) < t * abs(a) + t * abs(f * b) else x
            for a, b in zip(row, prow)
        ]
        if not all(map(math.isfinite, out)):
            for a, b in zip(row, prow):
                _finite(a + _finite(f * b))
        return out

    def sub_multiple(self, row, f, prow) -> list:
        try:
            return self.add_multiple(row, -f, prow)  # a + (-f)*b is a - f*b, bit for bit
        except NonFiniteValue:  # name the overflow with the sign of f*b
            for a, b in zip(row, prow):
                _finite(a - _finite(f * b))
            raise

    def sub_mul(self, a, f, b):
        """``a - f * b`` as one entry of ``sub_multiple``, bit for bit."""
        s, t = self._screen, self.tol
        if not math.isfinite(x := a - f * b):
            _finite(a - _finite(f * b))
        return 0.0 if abs(x) < s * abs(a) and abs(x) < t * abs(a) + t * abs(f * b) else x

    def residual_zeros(self, prow, c, qs):
        """The residual test of ``_Rationals.residual_zeros`` with the
        cancellation rule of ``sub_mul``: the residual is
        ``sub_mul(y, x, s_q)``, the column-q entry of the row operation
        ``linalg._eliminate`` performs, so it cancels exactly where
        ``rref``'s does (with x = 0 it is zero exactly where y is).  Each
        ``s_q = b_q * (1 / a0)`` is taken up front, so an overflow there
        raises before any row is tested."""
        inv, sub_mul = self.inv(prow[c]), self.sub_mul
        s = {q: self.mul(prow[q], inv) for q in qs}
        return lambda row, left, k: [q for q in left if q == k or sub_mul(row[q], row[c], s[q]) == 0]

    def pivot_order(self, column) -> list[int]:
        """The indices of the nonzero entries of ``column`` in the order in
        which an elimination prefers them as pivots: by decreasing
        magnitude, the first among equals first (the sort is stable)."""
        mags = [-abs(x) for x in column]  # -0.0 for a zero, which is falsy
        return sorted((i for i, m in enumerate(mags) if m), key=mags.__getitem__)

    def sums_equal(self, x, y, terms) -> bool:
        """``|x - y|`` within ``tol`` times the largest magnitude among
        ``terms``, so the verdict does not change when every term is
        scaled."""
        return abs(x - y) <= self.tol * max(map(abs, terms))

    def nonzero_roots(self, cs) -> list:
        """The real roots of the exact binary cubic ``cs``, each correctly
        rounded, kept when nonzero, unequal by ``eq`` to the last kept (so,
        as they ascend, pairwise unequal) and accepted by
        ``_residual_within``.  A root is zero only where it rounds to
        ``0.0``: a change of natural basis turns a root t into 1/t or
        scales it by a power of two, and a threshold on ``|t|`` would
        follow neither."""
        chain = _sturm_chain(map(Fraction, cs))
        out: list[float] = []
        for _, hi, k in _root_intervals(chain, _rounds_alike):
            x = _dyadic_float(hi, k)
            if math.isinf(x):
                raise NonFiniteValue("real root search overflows: a root lies beyond the float range")
            if x == 0:
                continue
            if not self._residual_within(cs, x, 1.0):
                continue
            if out and self.eq((x,), (out[-1],)):
                continue
            out.append(x)
        return out

    def is_flagged_root(self, cs, x) -> bool:
        """``|cubic(x)|`` comes within a factor of ten of the bound of ``nonzero_roots``."""
        return not self._residual_within(cs, x, 0.1)

    def _residual_within(self, cs, x, factor: float) -> bool:
        """The root rule over R: ``|cubic(x)|`` is finite and at most
        ``factor * tol`` times the largest of the terms it sums, ``|c3 x^3|``,
        ``|c2 x^2|``, ``|c1 x|`` and ``|c0|``, so a dominant leading
        coefficient cannot pass a small ``x`` that is no root."""
        c3, c2, c1, c0 = cs
        residual = abs(_horner4(c3, c2, c1, c0, x))
        terms = (c3 * x * x * x, c2 * x * x, c1 * x, c0)
        return math.isfinite(residual) and residual <= factor * self.tol * max(map(abs, terms))


@dataclass(frozen=True)
class FieldSpec:
    """Identifies a field backend together with its parameters.

    ``kind`` is one of ``"Q"``, ``"Fp"``, ``"R"``.  ``p`` is the prime
    modulus (``Fp`` only), ``tol`` the relative precision below which a
    sum cancels to zero (``R`` only, below 1/2; an int is converted to
    float).  This is the one check of a field descriptor, the CLI's
    included: any other value, a bool among them, raises ValueError.  The
    field's kernel is built once, outside equality.
    """

    kind: str
    p: int | None = None
    tol: float | None = None

    def __post_init__(self):
        if self.kind == RATIONALS:
            if self.p is not None or self.tol is not None:
                raise ValueError("rationals take no field parameters")
            kernel = _Rationals()
        elif self.kind == PRIME_FIELD:
            if self.tol is not None:
                raise ValueError("prime fields take no tolerance")
            if not _is_int(self.p) or not _is_prime(self.p):
                raise ValueError(f"modulus must be prime, got {self.p!r}")
            kernel = _PrimeField(self.p)
        elif self.kind == APPROX_REALS:
            if self.p is not None:
                raise ValueError("reals take no modulus")
            tol = self.tol
            if _is_int(tol) and abs(tol) <= sys.float_info.max:
                tol = float(tol)
                object.__setattr__(self, "tol", tol)
            if not isinstance(tol, float) or not math.isfinite(tol) or tol <= 0:
                raise ValueError(f"tolerance must be a positive finite float, got {self.tol!r}")
            if tol >= 0.5:  # at 1/2, a - b cancels already for 0 < b <= a < 3b
                raise ValueError(f"tolerance must be below 1/2, got {self.tol!r}")
            kernel = _Reals(tol)
        else:
            raise ValueError(f"unknown field kind {self.kind!r} (expected Q, Fp, or R)")
        object.__setattr__(self, "_kernel", kernel)

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls(RATIONALS)

    @classmethod
    def prime_field(cls, p: int) -> "FieldSpec":
        return cls(PRIME_FIELD, p=p)

    @classmethod
    def approx_reals(cls, tol: float = 1e-9) -> "FieldSpec":
        return cls(APPROX_REALS, tol=tol)

    def zero(self) -> "FieldScalar":
        return FieldScalar(self, 0)

    def one(self) -> "FieldScalar":
        return FieldScalar(self, 1)

    def from_int(self, k: int) -> "FieldScalar":
        return FieldScalar(self, k)

    def describe(self) -> str:
        if self.kind == RATIONALS:
            return "Q"
        if self.kind == PRIME_FIELD:
            return f"F_{self.p}"
        return f"R(tol={self.tol:g})"


class FieldScalar:
    """One field element, tagged with its :class:`FieldSpec`.

    Values are canonical: over Q an ``int`` where integral and otherwise a
    reduced ``Fraction`` with denominator above one, residue in ``[0, p)``
    over F_p, finite ``float`` over R.  Over Q a value is built from an int
    (not a bool) or a ``Fraction``, over F_p from an int (not a bool); any
    other type raises TypeError.
    Equality and hashing are the kernel's: over R, ``a - b`` cancels to
    zero.  ``is_zero`` is exact; ``+`` and ``-`` are one entry of the
    kernel's row operation and ``*`` its ``mul``, so ``(x - y).is_zero()``
    is ``x == y``.
    """

    __slots__ = ("spec", "value")

    def __init__(self, spec: FieldSpec, value):
        self.value = spec._kernel.canonical(value)
        self.spec = spec

    def _operand(self, other):
        """Raw value of an int or a scalar of this field, None for any other type."""
        return _value_of(self.spec, other, ints=True) if isinstance(other, (int, FieldScalar)) else None

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return self.value == 0

    def is_one(self) -> bool:
        return self.spec._kernel.eq((self.value,), (self.spec._kernel.one,))

    # -- arithmetic ---------------------------------------------------

    def _entry(self, a, f: int, b) -> "FieldScalar":
        """``a + f*b`` for ``f = ±1``, as one entry of the kernel's row operation."""
        return FieldScalar(self.spec, self.spec._kernel.add_multiple((a,), f, (b,))[0])

    def __add__(self, other):
        v = self._operand(other)
        return NotImplemented if v is None else self._entry(self.value, 1, v)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._operand(other)
        return NotImplemented if v is None else self._entry(self.value, -1, v)

    def __rsub__(self, other):
        v = self._operand(other)
        return NotImplemented if v is None else self._entry(v, -1, self.value)

    def __mul__(self, other):
        v = self._operand(other)
        return NotImplemented if v is None else FieldScalar(self.spec, self.spec._kernel.mul(self.value, v))

    __rmul__ = __mul__

    def __neg__(self):
        return FieldScalar(self.spec, -self.value)

    def inv(self) -> "FieldScalar":
        if self.is_zero():
            raise ZeroDivisionError(f"cannot invert zero in {self.spec.describe()}")
        return FieldScalar(self.spec, self.spec._kernel.inv(self.value))

    def __truediv__(self, other):
        v = self._operand(other)
        return NotImplemented if v is None else self * FieldScalar(self.spec, v).inv()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inv() ** (-exponent)
        kern, out = self.spec._kernel, self.spec._kernel.one
        for bit in bin(exponent)[2:]:  # square and multiply, from the top bit
            out = kern.mul(out, out)
            if bit == "1":
                out = kern.mul(out, self.value)
        return FieldScalar(self.spec, out)

    # -- comparison and rendering --------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldScalar):
            return NotImplemented
        return other.spec == self.spec and self.spec._kernel.eq((self.value,), (other.value,))

    def __hash__(self):
        return hash((self.spec, self.spec._kernel.hash((self.value,))))

    def render(self) -> str:
        return self.spec._kernel.render(self.value)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"FieldScalar({self.spec.describe()}, {self.render()})"


def _value_of(spec: FieldSpec, x, *, ints: bool = False):
    """The raw value of ``x``, which must be a FieldScalar of ``spec`` (or,
    with ``ints``, an int)."""
    if ints and isinstance(x, int):
        return spec._kernel.canonical(x)
    if not isinstance(x, FieldScalar):
        raise TypeError(f"expected a FieldScalar, got {type(x).__name__}")
    if x.spec != spec:
        raise ValueError(f"scalar over {x.spec.describe()} where {spec.describe()} is expected")
    return x.value


def _coerced_value(spec: FieldSpec, x):
    """``_value_of``, but also for scalar text and plain numbers."""
    if isinstance(x, FieldScalar):
        return _value_of(spec, x)
    if isinstance(x, str):
        return scalar_parse(x, spec).value
    return spec._kernel.canonical(x)


def scalar_parse(text: str, spec: FieldSpec) -> FieldScalar:
    """Parse scalar text under ``spec``.

    Exact fields accept an optional sign, digits, and an optional
    ``/digits`` fraction part; the real field accepts decimal and exponent
    syntax instead, and refuses a value that overflows or a nonzero one
    that rounds to zero.  Results are canonical (reduced fraction,
    normalized residue).
    """
    t = text.strip()
    if spec.kind == APPROX_REALS:
        if _FRACTION_RE.match(t):
            raise ParseError(f"fraction syntax is only for exact fields: {text!r}")
        if not _DECIMAL_RE.match(t):
            raise ParseError(f"not a real scalar: {text!r}")
        try:
            return FieldScalar(spec, _parse_float(t))
        except NonFiniteValue as exc:
            raise ParseError(f"real scalar overflows to infinity: {text!r}") from exc
    if _INT_RE.match(t):
        return FieldScalar(spec, _parse_int(t))
    m = _FRACTION_RE.match(t)
    if m:
        num, den = _parse_int(m.group(1)), _parse_int(m.group(2))
        if spec.kind == RATIONALS:
            if den == 0:
                raise ParseError(f"zero denominator in {text!r}")
            return FieldScalar(spec, Fraction(num, den))
        if den % spec.p == 0:
            raise ParseError(f"denominator of {text!r} is zero in {spec.describe()}")
        return FieldScalar(spec, num * spec._kernel.inv(den))
    if _DECIMAL_RE.match(t):
        raise ParseError(f"decimal syntax requires the real field: {text!r}")
    raise ParseError(f"not a scalar: {text!r}")


def _parse_float(text: str) -> float:
    """``float(text)``, or ParseError where a nonzero decimal rounds to ``0.0``."""
    x = float(text)
    if x == 0 and re.search("[1-9]", text.lower().partition("e")[0]):
        raise ParseError(f"real scalar underflows to zero: {text!r}")
    return x


def _parse_int(digits: str) -> int:
    """``int(digits)``, or ParseError past the interpreter's limit on the
    digits of one conversion (``sys.get_int_max_str_digits``)."""
    try:
        return int(digits)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"integer of more than {limit} digits: {digits[:20]}...") from None


class LowDegreePoly:
    """Polynomial ``c3*x^3 + c2*x^2 + c1*x + c0`` over one field.

    Leading coefficients may be zero; degenerate polynomials are treated
    as genuine lower-degree ones.  The coefficients are stored as raw
    values, ``(c3, c2, c1, c0)``.
    """

    __slots__ = ("spec", "_cs")

    def __init__(self, c3: FieldScalar, c2: FieldScalar, c1: FieldScalar, c0: FieldScalar):
        spec = c3.spec if isinstance(c3, FieldScalar) else None  # a non-scalar c3 fails the type check
        try:
            self._cs = tuple(_value_of(spec, c) for c in (c3, c2, c1, c0))
        except ValueError:
            raise ValueError("polynomial coefficients must share one field") from None
        self.spec = spec

    @classmethod
    def from_values(cls, spec: FieldSpec, c3, c2, c1, c0) -> "LowDegreePoly":
        poly = object.__new__(cls)
        poly.spec, poly._cs = spec, tuple(map(spec._kernel.canonical, (c3, c2, c1, c0)))
        return poly

    def coefficients(self) -> tuple[FieldScalar, FieldScalar, FieldScalar, FieldScalar]:
        return tuple(FieldScalar(self.spec, c) for c in self._cs)

    def evaluate(self, x: FieldScalar) -> FieldScalar:
        """Horner's rule; each step ``c + acc * x`` is one entry of the kernel's row operation."""
        kern, v = self.spec._kernel, _value_of(self.spec, x, ints=True)
        acc = kern.zero
        for c in self._cs:
            acc = kern.add_multiple((c,), acc, (v,))[0]
        return FieldScalar(self.spec, acc)

    def is_zero(self) -> bool:
        return not any(self._cs)

    def nonzero_roots(self) -> list[FieldScalar]:
        return nonzero_roots(self)

    def render(self, var: str = "x") -> str:
        return _render_terms(self.spec._kernel, zip(self._cs, (f"{var}^3", f"{var}^2", var, "")))

    def __eq__(self, other):
        if not isinstance(other, LowDegreePoly):
            return NotImplemented
        return self.spec == other.spec and self.spec._kernel.eq(self._cs, other._cs)

    def __hash__(self):
        return hash((self.spec, self.spec._kernel.hash(self._cs)))

    def __repr__(self):
        return f"LowDegreePoly({self.render()} over {self.spec.describe()})"


def _render_terms(kern, terms) -> str:
    """Linear-combination text from (raw coefficient, unit) pairs.

    Zero coefficients are skipped, a coefficient of one is dropped before
    a nonempty unit, and an empty unit leaves the bare coefficient.  Terms
    join as ``-t`` first, then ``- t`` / ``+ t``; no terms gives ``0``.
    """
    parts: list[str] = []
    for x, unit in terms:
        if x == 0:
            continue
        mag = kern.render(-x if x < 0 else x)
        term = mag if not unit else unit if mag == "1" else f"{mag}*{unit}"
        if not parts:
            parts.append(f"-{term}" if x < 0 else term)
        else:
            parts.append(f"- {term}" if x < 0 else f"+ {term}")
    return " ".join(parts) if parts else "0"


def nonzero_roots(poly: LowDegreePoly) -> list[FieldScalar]:
    """All roots ``x != 0`` of ``poly`` in its field, sorted ascending.

    The field's kernel finds them: over F_p every nonzero residue is
    evaluated; over Q and R a Sturm sequence isolates them, exact over Q
    and correctly rounded over R, where a root is kept when it does not
    round to zero, unequal by the field's equality to the last kept (so to
    every one), and with ``|poly(x)|`` within ``tol`` times the largest
    term it sums.

    Raises IdenticallyZeroPolynomial when every coefficient is zero, since
    then every scalar is a root and the caller must decide what that means.
    """
    if poly.is_zero():
        raise IdenticallyZeroPolynomial("every scalar is a root of the zero polynomial")
    return [FieldScalar(poly.spec, r) for r in poly.spec._kernel.nonzero_roots(poly._cs)]


def _horner4(c3, c2, c1, c0, x):
    return ((c3 * x + c2) * x + c1) * x + c0


def _primitive(cs) -> list[int]:
    """The rationals ``cs`` (leading zeros dropped) times the positive
    rational that makes them coprime ints, which keeps every sign."""
    ints, _ = _Rationals._cleared(list(itertools.dropwhile(lambda c: c == 0, cs)))
    g = math.gcd(*ints)
    return [c // g for c in ints]


def _poly_divmod(a, b) -> tuple[list, list]:
    """Quotient and remainder of ``a`` by ``b`` over Q, highest degree first."""
    quo, rem = [], list(a)
    while len(rem) >= len(b):
        quo.append(f := Fraction(rem[0], b[0]))
        rem = [x - f * y for x, y in zip(rem[1:], [*b[1:], *[0] * (len(rem) - len(b))])]
    return quo, rem


def _sturm_chain(cs) -> list[list[int]]:
    """The Sturm sequence, of primitive members, of the squarefree part of
    the rational polynomial ``cs`` (highest degree first) without its x^k
    factor, so each root it counts is simple and nonzero; ``[]`` if none."""
    f = _primitive(cs)
    while f and f[-1] == 0:
        f.pop()
    while len(f) > 1:
        chain = [f, _primitive([c * (len(f) - 1 - i) for i, c in enumerate(f[:-1])])]
        while len(chain[-1]) > 1 and (rem := _primitive([-x for x in _poly_divmod(*chain[-2:])[1]])):
            chain.append(rem)
        if len(chain[-1]) == 1:
            return chain
        f = _primitive(_poly_divmod(f, chain[-1])[0])  # f / gcd(f, f') drops repeated roots
    return []


def _scaled_value(f: list[int], m: int, w: int) -> int:
    """``w^d * f(m/w)`` for ``f`` of degree d, on ints: for ``w > 0``, the sign of ``f(m/w)``."""
    acc, wp = 0, 1
    for c in f:
        acc, wp = acc * m + c * wp, wp * w
    return acc


def _root_intervals(chain, settled) -> list[tuple[int, int, int]]:
    """One interval ``(lo/2^k, hi/2^k]`` per distinct real root of the
    squarefree ``f = chain[0]``, ascending.  By Sturm's theorem ``f`` has
    ``V(a) - V(b)`` roots in ``(a, b]``, ``V(x)`` the sign changes of
    ``chain`` at x.  Intervals are halved until each holds one root, then
    bisected on the sign of ``f`` at ``hi`` (``lo`` may be another root)
    until ``settled(lo, hi, k)``; ``lo == hi`` when a midpoint is the root.
    The cost is polynomial in the bit length of the coefficients."""
    if not chain:
        return []

    def variations(m, k):
        signs = [v > 0 for v in (_scaled_value(g, m, 1 << k) for g in chain) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    f = chain[0]
    # Fujiwara's bound: every root has |x| <= 2 * max |f[i]/f[0]|^(1/i) < 2^e.
    e = 1 + max(-((f[0].bit_length() - c.bit_length() - 1) // i) for i, c in enumerate(f) if i and c)
    k = max(0, -e)
    lo, hi = -(1 << (e + k)), 1 << (e + k)
    todo, out = [(lo, hi, k, variations(lo, k), variations(hi, k))], []
    while todo:
        lo, hi, k, vlo, vhi = todo.pop()
        if vlo - vhi > 1:
            mid, vmid = lo + hi, variations(lo + hi, k + 1)
            todo += [(mid, 2 * hi, k + 1, vmid, vhi), (2 * lo, mid, k + 1, vlo, vmid)]
        elif vlo - vhi == 1:
            s = _scaled_value(f, hi, 1 << k)
            while s and not settled(lo, hi, k):
                mid, k = lo + hi, k + 1
                if not (v := _scaled_value(f, mid, 1 << k)):
                    lo = hi = mid
                    break
                lo, hi = (2 * lo, mid) if (v > 0) == (s > 0) else (mid, 2 * hi)
            out.append((lo if s else hi, hi, k))
    return out


# The least magnitude that rounds to an infinity: (2 - 2^-53) * 2^1023.
_FLOAT_OVERFLOW = (2**54 - 1) << 970


def _rounds_alike(lo: int, hi: int, k: int) -> bool:
    """Whether ``lo/2^k`` and ``hi/2^k`` round to one float: compared once
    within 2^-52 of ``hi`` or narrower than 2^-1074, the subnormal spacing."""
    w = (hi - lo).bit_length()
    return (w + 52 <= abs(hi).bit_length() or w + 1074 <= k) and _dyadic_float(lo, k) == _dyadic_float(hi, k)


def _dyadic_float(m: int, k: int) -> float:
    """``m/2^k`` correctly rounded (int division is), infinite beyond the float range."""
    return m / (1 << k) if abs(m) < _FLOAT_OVERFLOW << k else math.inf if m > 0 else -math.inf
