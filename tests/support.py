"""Shared fixtures, generators, and independent oracles for the tests.

The oracles here (cofactor determinants, the Gaussian-binomial
recurrence, bisection root finding, the rational-root divisor scan, the
cubic discriminant, kernel counting, elimination, the algebra product,
the membership and the closure test on ``FieldScalar`` operations, the
pairwise ``==`` deduplication of codimension-one findings, the pair
search on a copy of each pair's rows) deliberately avoid the library
code paths they are used to check.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction
from unittest import mock

from evoalg import EvolutionAlgebra, FieldScalar, FieldSpec, Matrix, finder
from evoalg.field import APPROX_REALS
from evoalg.finder import codim1_for_pair

Q = FieldSpec.rationals()
F2 = FieldSpec.prime_field(2)
F3 = FieldSpec.prime_field(3)
F5 = FieldSpec.prime_field(5)
R9 = FieldSpec.approx_reals(1e-9)
# The largest prime below field._PRIME_TEST_LIMIT: the largest modulus
# FieldSpec accepts.
LARGEST_PRIME = 3_317_044_064_679_887_385_961_813

# 3-dim rational algebra whose only rank-0 pair has the cubic x^3 - x - 1,
# with no rational root; the two rank-1 pairs fail the closure identity.
NO_CODIM1_OVER_Q_ROWS = [[1, 0, 0], [1, -1, 1], [2, 1, 0]]

# Nilpotent shift: e1^2 = e2, e2^2 = e3, e3^2 = 0 (singular structure).
SHIFT_NILPOTENT_ROWS = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]

# Regular 4-dim completion of fixed last-two columns whose (3,4) pair
# submatrix has rank 2 while the necessary constant relations still hold.
RANK2_PAIR_ROWS = [[1, 0, 1, 2], [0, 1, 1, -1], [0, 0, -3, 2], [0, 0, 1, 0]]

SWAP_2D_ROWS = [[0, 1], [1, 0]]  # e1^2 = e2, e2^2 = e1

# Singular over R (row3 = row1 + row2); every pivot candidate of the last
# column lies within the tolerance once the first two are eliminated.
NEAR_SINGULAR_REAL_ROWS = [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.5, 0.7, 0.9]]

# Regular real algebra with entries near 1e6: closure residuals of its
# codimension-one subalgebras exceed an absolute tolerance, though they
# are tiny next to the magnitudes cancelled.
SCALED_1E6_ROWS = [
    ["1e6", "2e6", "0", "1e6", "0"],
    ["-1e6", "-2e6", "0", "1e6", "0"],
    ["1e6", "0", "-2e6", "0", "0"],
    ["0", "2e6", "0", "3e6", "0"],
    ["1e6", "0", "1e6", "0", "3e6"],
]


# Regular real algebras (tol 1e-9) with entries near tol: read as nonzeros,
# as the search reads them, they give the pair ranks of the exact search on
# the same binary values, and no codimension-one subalgebra.
NEAR_TOL_REAL_ROWS = [
    [8.930497214428688e-09, 2.0368388527650216, 3.337569493858486],
    [0.0, 0.0, 1.6816636314661713],
    [-9.777431226911323e-10, 0.0, 9.38935076790241e-09],
]
NEAR_TOL_REAL_ROWS_4 = [
    [2.5182344009680415, -0.14421024141945082, -4.527409066755619e-10, 0.0],
    [0.0, -6.926001470406233e-09, 0.0, 0.0],
    [7.247338034954433e-09, 0.0, -3.7398078239420274, -2.567208417744956],
    [3.429439487651042e-09, -4.126857628498532e-09, 2.5005114211585225e-09, 0.0],
]

# The near-tol algebras that raised NotASubalgebra while the rank-1 closure
# identity was compared against the absolute tol: with the comparison
# relative to its products they have no codimension-one subalgebra.
RELATIVE_RANK1_REAL_ROWS = [
    [1.5352745633544913e-10, 0, 1.9539072883636717],
    [-6.089820651362956e-09, 0, 5.734660626594348e-10],
    [0, -2.707091277220406, 0],
]
RELATIVE_RANK1_REAL_ROWS_4 = [
    [0, -4.6102602285317885e-09, 2.1933233740949725e-09, 0],
    [0, 1.970295069221839e-09, 0, 0],
    [0, 0.36536135052580043, -6.838488167816733e-09, 3.9729121443769504],
    [-2.7750089049617834, 0, 2.0369641048902754e-10, 0],
]

# Regular real algebra (det 2e-9 at tol 1e-9) whose one pair has the cubic
# x^3 + 2e-9, with the one real root -cbrt(2e-9).
TINY_CUBIC_REAL_ROWS = [[0, -2e-9], [1, 0]]

# Regular real algebra whose one pair has the cubic
# 1e-8*x^3 - 1e300*x^2 + x: its root 1e308 is the correctly rounded root of
# the exact cubic, so span{e1 + 1e+308*e2} is found, though squaring
# e1 + 1e308*e2 in floats, as ``Subspace.is_subalgebra`` does, overflows.
CUBIC_OVERFLOW_REAL_ROWS = [[1, 0], [1e-8, 1e300]]

# Regular real algebra whose one pair has the cubic
# 1e-300*x^3 - 1e300*x^2 + x: its root near 1e600 lies beyond the float range.
ROOT_BEYOND_FLOATS_REAL_ROWS = [[1, 0], [1e-300, 1e300]]

# Real algebra text whose one pair has the cubic 1e-8*x^3 + x^2 - 3x + 2,
# with roots near -1e8, 1 and 2: a closed form lost the one near 2.
SMALL_LEAD_REAL_ROWS = [["-3", "-2"], ["1e-8", "-1"]]

# Regular real algebra whose pair (1,2) has the cubic (x - 6 - 1/3)(x - 1)(x + 2),
# rounded to floats.  At tol 1e-15 the correctly rounded root 1.0 leaves
# |cubic(x)| at about 1.4e-16 times the largest term it sums, inside the flag
# band (tol/10, tol]; the roots -2.0 and 6.333333333333333 stay below tol/10.
_R0 = 6.0 + 1.0 / 3.0
FLAGGED_ROOT_ROWS = [[-2.0 - _R0, -2.0 * _R0, 0.0], [1.0, _R0 - 1.0, 0.0], [0.0, 0.0, 1.0]]
FLAGGED_ROOT_REALS = FieldSpec.approx_reals(1e-15)


# Regular real algebra text whose one pair has the cubic with roots 1,
# 1 + 1e-9 and 2: at tol 1e-9 the first two are equal, so one line.
NEAR_EQUAL_ROOTS_REAL_ROWS = [["5.000000003", "2.000000002"], ["1", "4.000000001"]]

# Regular real algebra text whose one pair has the cubic with roots 0.01,
# 0.01 + 3e-10 and 2, before its coefficients are rounded to floats: the
# first two lie within tol of each other but are unequal at tol 1e-9, and
# both lines are closed.
CLOSE_SMALL_ROOTS_REAL_ROWS = [["0.040100000603", "0.000200000006"], ["1", "2.0200000003"]]


# Regular real algebra (det about -6.1e-8 at tol 1e-9) in which
# span{e1 + s*e3, e2 + r*e3} is closed within tol: its structure rows lie in
# that span up to a relative perturbation, so its canonical basis, which
# shares e3, is no natural basis.
CLOSED_WITHIN_TOL_REAL_ROWS = [
    [0.42168342147108095, -1.9708974289336882, 6.422509085310349],
    [2.2066863866099604, 2.84265141695815, -2.8669835922233027],
    [1.9164846636767834, 2.773206751084908, -3.333875729832003],
]
CLOSED_WITHIN_TOL_SPAN = "1,0,2.272307389253079;0,1,-2.7725008164085168"


def identity_rows(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def is_rational_raw(x) -> bool:
    """The raw-value rule of Q: an int where integral, else a Fraction with
    denominator above one; never a bool, a float or an integral Fraction."""
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def sparse_int_rows(n, rng: random.Random):
    """n x n ints with a nonzero diagonal and about n/2 nonzero entries off
    it, so most pairs have rank 0 or 1 and the search finds subalgebras."""
    units = (-3, -2, -1, 1, 2, 3)
    rows = [[rng.choice(units) if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(n // 2 + 1):
        i, j = rng.sample(range(n), 2)
        rows[i][j] = rng.choice(units)
    return rows


def make_algebra(spec, rows) -> EvolutionAlgebra:
    return EvolutionAlgebra.from_rows(spec, rows)


def make_matrix(spec, rows) -> Matrix:
    return Matrix.from_rows(spec, rows)


def elem(algebra, values):
    return algebra.element(list(values))


def all_structures(p, n):
    """Every n x n matrix over F_p, as tuples of int rows."""
    for flat in itertools.product(range(p), repeat=n * n):
        yield tuple(flat[i * n : (i + 1) * n] for i in range(n))


def int_det_mod(rows, p):
    """Independent determinant over F_p: cofactor expansion on ints."""
    return int_det([[int(x) for x in r] for r in rows]) % p


def int_det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * int_det(minor)
    return total


def fraction_det(rows):
    """Cofactor-expansion determinant over Q (independent oracle)."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * Fraction(rows[0][j]) * fraction_det(minor)
    return total


def all_regular_structures(p, n):
    """All regular algebras over F_p in dimension n (int-row form)."""
    out = []
    for rows in all_structures(p, n):
        if int_det_mod([list(r) for r in rows], p) != 0:
            out.append(rows)
    return out


def random_fp_rows(p, n, rng: random.Random):
    return [[rng.randrange(p) for _ in range(n)] for _ in range(n)]


def random_regular_fp(p, n, rng: random.Random):
    while True:
        rows = random_fp_rows(p, n, rng)
        if int_det_mod(rows, p) != 0:
            return rows


def random_regular_rational(n, rng: random.Random):
    """Regular n x n matrix of small rationals (halves up to |4|)."""
    while True:
        rows = [
            [Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(n)]
            for _ in range(n)
        ]
        if fraction_det(rows) != 0:
            return rows


def _cancelled(x, a, fb):
    """``x``, the sum or the difference of the scalars ``a`` and ``fb``;
    over R exactly zero when ``|x| < tol*|a| + tol*|fb|``: it cancelled."""
    spec = x.spec
    if spec.kind == APPROX_REALS and abs(x.value) < spec.tol * abs(a.value) + spec.tol * abs(fb.value):
        return spec.zero()
    return x


def scalar_add_mul(a, f, b):
    """``a + f*b`` on scalars, zero where it cancels."""
    fb = f * b
    return _cancelled(a + fb, a, fb)


def scalar_sub_mul(a, f, b):
    """``a - f*b`` on scalars, zero where it cancels."""
    fb = f * b
    return _cancelled(a - fb, a, fb)


def scalar_elimination(m: Matrix):
    """Reference Gauss-Jordan elimination written with ``FieldScalar``
    operations, which check the field on every step.

    It follows the pivot rule and the operation order of ``rref``: the
    first nonzero entry over exact fields, the nonzero entry of largest
    magnitude over R; the pivot row scaled to a leading one, then the rows
    below and the rows above cleared, each entry by ``scalar_sub_mul``.
    Returns the reduced rows (zero rows last), the pivot columns, and the
    determinant: once the rows are reduced, the row-swap sign times the
    pivots in the order they were taken, or zero, unmultiplied, without a
    pivot in every column.  So an overflow of that product alone does not
    stop the reduction.
    """
    spec = m.spec
    zero, one = spec.zero(), spec.one()
    rows = [list(r) for r in m.rows()]
    pivots, pivot_values = [], []
    sign = one
    for c in range(m.ncols):
        r = len(pivots)
        if r >= m.nrows:
            break
        best, best_mag = -1, 0.0
        for i in range(r, m.nrows):
            x = rows[i][c]
            if x.value == 0:
                continue
            if spec.kind != APPROX_REALS:
                best = i
                break
            if abs(x.value) > best_mag:
                best, best_mag = i, abs(x.value)
        if best < 0:
            continue
        if best != r:
            rows[r], rows[best] = rows[best], rows[r]
            sign = -sign
        piv = rows[r][c]
        pivot_values.append(piv)
        inv = piv.inv()
        rows[r] = [x * inv for x in rows[r]]
        rows[r][c] = one
        for k in range(r + 1, m.nrows):
            f = rows[k][c]
            if f.value != 0:
                rows[k] = [scalar_sub_mul(a, f, b) for a, b in zip(rows[k], rows[r])]
                rows[k][c] = zero
        pivots.append(c)
    for r, c in enumerate(pivots):
        for k in range(r):
            f = rows[k][c]
            if f.value != 0:
                rows[k] = [scalar_sub_mul(a, f, b) for a, b in zip(rows[k], rows[r])]
                rows[k][c] = zero
    rank = len(pivots)
    rows[rank:] = [[zero] * m.ncols for _ in range(rank, m.nrows)]
    det = zero
    if m.nrows == m.ncols == rank:
        det = sign
        for piv in pivot_values:
            det = det * piv
    return rows, tuple(pivots), det


def scalar_product(u, w):
    """Reference algebra product written with ``FieldScalar`` operations:
    the coordinate-wise product pushed through the structure rows, with
    the zero terms skipped.  Returns the coordinates."""
    a = u.algebra
    out = [a.spec.zero()] * a.dim
    for i in range(a.dim):
        c = u.coords[i] * w.coords[i]
        if c.value == 0:
            continue
        row = a.structure.row(i)
        for j in range(a.dim):
            out[j] = scalar_add_mul(out[j], c, row[j])
    return tuple(out)


def scalar_contains(sub, coords):
    """Reference membership test written with ``FieldScalar`` operations:
    reduction against the RREF basis to an exactly zero residual."""
    v = list(coords)
    for row, c in zip(sub.basis.rows(), sub.pivot_cols):
        f = v[c]
        if f.value != 0:
            v = [scalar_sub_mul(a, f, b) for a, b in zip(v, row)]
    return all(x.value == 0 for x in v)


def pairwise_deduplicated_codim1(a):
    """Reference codimension-one answer: the findings of every pair p < q,
    each from its own search, in scan order, each kept unless ``==`` to a
    finding kept before it, then sorted canonically."""
    unique = []
    for p, q in itertools.combinations(range(1, a.dim + 1), 2):
        for f in codim1_for_pair(a, p, q):
            if not any(f.subspace == u.subspace for u in unique):
                unique.append(f)
    unique.sort(key=lambda f: f.subspace.sort_key())
    return tuple(unique)


def scalar_is_subalgebra(sub):
    """Reference closure test: every product of two basis elements."""
    basis = sub.basis_elements()
    for i, u in enumerate(basis):
        for w in basis[i:]:
            if not scalar_contains(sub, scalar_product(u, w)):
                return False
    return True


def gaussian_recurrence(n, m, q, _memo={}):
    """Independent Gaussian binomial via the Pascal-style recurrence."""
    if m < 0 or m > n:
        return 0
    if m == 0 or m == n:
        return 1
    key = (n, m, q)
    if key not in _memo:
        _memo[key] = gaussian_recurrence(n - 1, m - 1, q) + q ** m * gaussian_recurrence(
            n - 1, m, q
        )
    return _memo[key]


def bisect_root(f, lo, hi, iterations=200):
    """Plain bisection for a sign change of f on [lo, hi]."""
    flo = f(lo)
    assert flo * f(hi) < 0
    for _ in range(iterations):
        mid = (lo + hi) / 2.0
        fm = f(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return (lo + hi) / 2.0


def subspace_keys(subspaces):
    """Order-insensitive fingerprint of a collection of exact subspaces."""
    return sorted(s.sort_key() for s in subspaces)


def bases_close(exact_sub, real_sub, tol):
    """Entry-wise comparison of an exact-field basis with a real one."""
    eb, rb = exact_sub.basis, real_sub.basis
    if eb.nrows != rb.nrows or exact_sub.pivot_cols != real_sub.pivot_cols:
        return False
    for er, rr in zip(eb.rows(), rb.rows()):
        for ex, rx in zip(er, rr):
            if abs(float(ex.value) - rx.value) > tol:
                return False
    return True


def trial_divisors(n):
    """Every positive divisor of ``n > 0``, by trial division up to its square root."""
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.extend({d, n // d})
        d += 1
    return out


def pool_divisors(n, pool):
    """Every positive divisor of ``n > 0``, whose prime factors all lie in ``pool``."""
    divisors = [1]
    for prime in pool:
        powers = [1]
        while n % prime == 0:
            n //= prime
            powers.append(powers[-1] * prime)
        divisors = [d * q for d in divisors for q in powers]
    assert n == 1, "a prime factor outside the pool"
    return divisors


def rational_roots_by_divisors(ints, divisors=trial_divisors):
    """Sorted nonzero rational roots of the integer polynomial ``ints``
    (highest degree first), by the rational root theorem: every ``+-a/b``
    with ``a`` dividing the last nonzero coefficient and ``b`` the first,
    tested exactly as ``b^d * ints(a/b) == 0``."""
    nonzero = [c for c in ints if c != 0]
    if len(nonzero) <= 1:
        return []
    found = set()
    for num in divisors(abs(nonzero[-1])):
        for den in divisors(abs(nonzero[0])):
            for a in (num, -num):
                acc, wp = 0, 1
                for c in ints:
                    acc, wp = acc * a + c * wp, wp * den
                if acc == 0:
                    found.add(Fraction(a, den))
    return sorted(found)


def distinct_real_root_count(cs):
    """The number of distinct nonzero real roots of the polynomial with the
    exact values of the floats ``cs`` (highest degree first, degree at most
    three), from the sign of its discriminant."""
    a, b, c, d = [Fraction(x) for x in cs]
    while d == 0 and (a, b, c) != (0, 0, 0):  # drop an x^k factor
        a, b, c, d = 0, a, b, c
    if a != 0:
        disc = 18 * a * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * a * c**3 - 27 * a * a * d * d
        return 3 if disc > 0 else 1 if disc < 0 else 1 if b * b == 3 * a * c else 2
    if b != 0:
        disc = c * c - 4 * b * d
        return 2 if disc > 0 else 1 if disc == 0 else 0
    return 1 if c != 0 else 0


def exact_sign(cs):
    """The sign of the polynomial with the exact values of the floats ``cs``
    (highest degree first), as a function of a float ``x``.  It computes on
    ints: with the coefficients cleared and ``x = m/w``, ``w^d * cs(m/w)``
    has the sign of ``cs(x)``."""
    ratios = [c.as_integer_ratio() for c in map(float, cs)]
    den = math.lcm(*(b for _, b in ratios))
    ints = [a * (den // b) for a, b in ratios]

    def sign(x: float) -> int:
        m, w = x.as_integer_ratio()
        acc, wp = 0, 1
        for c in ints:
            acc, wp = acc * m + c * wp, wp * w
        return (acc > 0) - (acc < 0)

    return sign


def changes_sign_around(cs, x: float) -> bool:
    """Whether the exact polynomial ``cs`` is zero at ``x`` or has opposite
    signs at the floats on either side of it: a root lies within one ulp."""
    sign = exact_sign(cs)
    return sign(x) == 0 or sign(math.nextafter(x, -math.inf)) * sign(math.nextafter(x, math.inf)) < 0


def real_root_brackets(cs):
    """The nonzero real roots of the exact polynomial ``cs`` (floats, degree
    at most three), each as a pair of floats ``lo < hi`` with an exact sign
    change between them, ``lo == hi`` at an exact zero: float bisection on
    the pieces between the critical points, where the cubic is monotone."""
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    while cs and cs[0] == 0:
        cs.pop(0)
    if len(cs) < 2:
        return []
    deg = len(cs) - 1
    bound = 2.0 * (1.0 + max(abs(c / cs[0]) for c in cs[1:]))
    deriv = [c * (deg - i) for i, c in enumerate(cs[:-1])]
    crit = []
    if len(deriv) == 3:
        qa, qb, qc = deriv
        disc = qb * qb - 4.0 * qa * qc
        if disc > 0:
            q = -(qb + math.copysign(math.sqrt(disc), qb)) / 2.0
            crit = [q / qa, qc / q]
    elif len(deriv) == 2:
        crit = [-deriv[1] / deriv[0]]
    points = [-bound, *sorted(x for x in crit if -bound < x < bound), bound]
    sign, out = exact_sign(cs), []
    for lo, hi in zip(points, points[1:]):
        slo, shi = sign(lo), sign(hi)
        if slo == 0:
            out.append((lo, lo))
            continue
        if shi == 0 or slo == shi:
            continue
        while True:
            mid = lo + (hi - lo) / 2.0
            if mid in (lo, hi):
                break
            smid = sign(mid)
            if smid == 0:
                lo = hi = mid
                break
            lo, hi = (mid, hi) if smid == slo else (lo, mid)
        out.append((lo, hi))
    return out


def reference_pair_rows(a, p, q):
    """Columns p, q (1-based) of the structure matrix without rows p, q,
    in their original order, as raw ``(x, y)`` rows: the copy the
    codimension-one search once took of every pair."""
    rows, (i, j) = a.structure._rows, sorted((p - 1, q - 1))
    return tuple((r[p - 1], r[q - 1]) for r in rows[:i] + rows[i + 1 : j] + rows[j + 1 :])


def reference_pair_rank(rows, kern):
    """Rank of the two-column matrix of raw ``(x, y)`` rows, as the search
    once computed it on the copy: column 1 pivots on the first row of its
    ``pivot_order``, and the rank is 2 at the first other row whose
    residual ``y - x * (b0 * a0^-1)`` is nonzero."""
    order = kern.pivot_order([x for x, _ in rows])
    if not order:
        return 1 if any(y for _, y in rows) else 0
    i = order[0]
    a0, b0 = rows[i]
    s = kern.mul(b0, kern.inv(a0))
    for k, (x, y) in enumerate(rows):
        if k != i and (kern.sub_multiple([y], x, [s])[0] if x != 0 else y) != 0:
            return 2
    return 1


class ReferenceRanks(dict):
    """The ranks of the pairs (p, q) of one column of the raw grid ``rows``
    (0-based, keyed by q), each by ``reference_pair_rank`` on a copy of the
    pair's rows and only when first read: a rank that overflows raises when
    the search reaches its pair, as it did when each pair was ranked on
    its own."""

    def __init__(self, rows, p, kern):
        super().__init__()
        self.rows, self.p, self.kern = rows, p, kern

    def __missing__(self, q):
        p = self.p
        pair = tuple((r[p], r[q]) for k, r in enumerate(self.rows) if k != p and k != q)
        return reference_pair_rank(pair, self.kern)


def reference_pair_ranks(rows, p, qs, order, kern):
    """``linalg._pair_ranks`` as ``ReferenceRanks``; ``qs`` and ``order``
    are accepted and ignored."""
    return ReferenceRanks(rows, p, kern)


def reference_pair_search(a, p, q, rank, search):
    """``finder._pair_search`` on a copy of the pair's rows: the search of
    one pair p < q before it read them in place."""
    kern, rows = a.spec._kernel, reference_pair_rows(a, p, q)
    if rank == 2:
        return [], finder.PairDiagnostics(p, q, 2)
    if rank == 1:
        x, y = next(r for r in rows if any(r))
        lhs, rhs, holds = finder._closure_verdict(a, p, q, x, y)
        wrap = functools.partial(FieldScalar, a.spec)
        found = []
        if holds:
            inv = kern.inv(y if x == 0 else x)
            vec = (kern.mul(x, inv), kern.mul(y, inv))
            sub = finder._codim1_subspace(a, p, q, *vec, search)
            found.append(finder.CodimOneFound(sub, p, q, finder.CASE_ROW, tuple(map(wrap, vec))))
        return found, finder.PairDiagnostics(
            p, q, 1, row=(wrap(x), wrap(y)), closure_lhs=wrap(lhs), closure_rhs=wrap(rhs), closure_holds=holds
        )
    return finder._rank0_search(a, p, q, search)


def reference_enumerate_codim1(a):
    """``enumerate_codim1`` with every pair ranked by ``reference_pair_ranks``
    and searched by ``reference_pair_search``."""
    with mock.patch.object(finder, "_pair_ranks", reference_pair_ranks), mock.patch.object(
        finder, "_pair_search", reference_pair_search
    ):
        return finder.enumerate_codim1(a)


def outcome(fn):
    """``fn()``, or the type and message of the exception it raises."""
    try:
        return fn()
    except Exception as exc:
        return type(exc), str(exc)
