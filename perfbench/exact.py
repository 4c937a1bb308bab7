"""Plain ``Fraction``/``int``/``float`` arithmetic for the benchmark's own checks.

Nothing here imports evoalg: the generator uses it to keep only regular
algebras, and the output checks use it to re-verify closure of reported
subspaces and to compare reported hyperplanes with the recorded ones
without trusting the arithmetic under test.
"""

from __future__ import annotations

import re
from fractions import Fraction

# Relative residual accepted over R when re-checking closure: membership
# residuals are compared against the magnitude of the terms that cancelled.
REAL_RTOL = 1e-7

_NUMBER_RE = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def parse(text: str, field: dict):
    """Scalar text as an exact Fraction (Q), residue (Fp) or float (R)."""
    kind = field["kind"]
    if kind == "Q":
        return Fraction(text)
    if kind == "Fp":
        p = field["p"]
        frac = Fraction(text)
        return frac.numerator * pow(frac.denominator, -1, p) % p
    return float(text)


def is_regular(rows: list[list[str]], field: dict) -> bool:
    """Whether the structure matrix is non-singular, decided exactly.

    Real entries are decimal strings, so their exact rational value is
    used; a real matrix also needs |det| well clear of the tolerance.
    """
    if field["kind"] == "Fp":
        p = field["p"]
        m = [[parse(x, field) for x in row] for row in rows]
        return _det_mod(m, p) != 0
    m = [[Fraction(x) for x in row] for row in rows]
    det = _det_fraction(m)
    if field["kind"] == "R":
        return abs(det) >= 1e-3
    return det != 0


def _det_fraction(m: list[list[Fraction]]) -> Fraction:
    m = [row[:] for row in m]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def _det_mod(m: list[list[int]], p: int) -> int:
    m = [row[:] for row in m]
    n = len(m)
    det = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] % p), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det = det * m[c][c] % p
        inv = pow(m[c][c], -1, p)
        for i in range(c + 1, n):
            f = m[i][c] * inv % p
            if f:
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[c])]
    return det % p


def _is_zero(x, field: dict, scale: float) -> bool:
    if field["kind"] == "R":
        return abs(x) <= REAL_RTOL * max(scale, 1e-300)
    if field["kind"] == "Fp":
        return x % field["p"] == 0
    return x == 0


def closure_failure(structure: list[list[str]], basis: list[list[str]], field: dict) -> str | None:
    """Why the span of ``basis`` is not a subalgebra in RREF form, or None.

    ``structure`` holds the algebra's rows (row i = coordinates of e_i^2)
    and ``basis`` the reported basis rows, both as scalar text.  The basis
    must be in reduced row echelon form and every product of two basis
    vectors must reduce to zero against it.
    """
    a = [[parse(x, field) for x in row] for row in structure]
    b = [[parse(x, field) for x in row] for row in basis]
    n = len(a)
    pivots = []
    for r, row in enumerate(b):
        if len(row) != n:
            return f"basis row {r} has {len(row)} entries, expected {n}"
        lead = next((j for j, x in enumerate(row) if not _is_zero(x, field, 1.0)), None)
        if lead is None or row[lead] != 1 or (pivots and lead <= pivots[-1]):
            return f"basis row {r} is not a reduced echelon row"
        if any(not _is_zero(other[lead], field, 1.0) for k, other in enumerate(b) if k != r):
            return f"pivot column {lead} is not cleared in the other rows"
        pivots.append(lead)
    for i, u in enumerate(b):
        for w in b[i:]:
            prod = [0] * n
            for k in range(n):
                c = u[k] * w[k]
                if c:
                    prod = [x + c * y for x, y in zip(prod, a[k])]
            residual = list(prod)
            scale = [abs(x) for x in prod] if field["kind"] == "R" else None
            for row, piv in zip(b, pivots):
                f = prod[piv]
                if f:
                    residual = [x - f * y for x, y in zip(residual, row)]
                    if scale is not None:
                        scale = [s + abs(f * y) for s, y in zip(scale, row)]
            for k, x in enumerate(residual):
                if not _is_zero(x, field, scale[k] if scale is not None else 1.0):
                    return f"product of basis rows leaves residual {x!r} at coordinate {k + 1}"
    return None


def relabel(vector: list, relabel: tuple, field: dict) -> list:
    """Coordinates in the basis g_k = s_k e_perm[k] (``relabel`` is
    ``(perm, signs)``) of the vector with coordinates ``vector`` in the
    basis e.  The same rule maps the normal vector of a hyperplane."""
    perm, signs = relabel
    out = [s * vector[p] for p, s in zip(perm, signs)]
    return [x % field["p"] for x in out] if field["kind"] == "Fp" else out


def _rref(rows: list[list], field: dict) -> tuple[list[list], list[int]]:
    """Reduced row echelon form (nonzero rows) and pivot columns.  Over R
    the pivot is the largest entry of its column, and entries below
    REAL_RTOL times the largest entry of the input count as zero."""
    m = [row[:] for row in rows]
    ncols = len(m[0]) if m else 0
    kind = field["kind"]
    p = field.get("p")
    scale = max((abs(x) for row in m for x in row), default=0.0) if kind == "R" else 1.0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == len(m):
            break
        if kind == "R":
            piv = max(range(r, len(m)), key=lambda i: abs(m[i][c]))
            if _is_zero(m[piv][c], field, scale):
                continue
        else:
            piv = next((i for i in range(r, len(m)) if not _is_zero(m[i][c], field, 1.0)), None)
            if piv is None:
                continue
        m[r], m[piv] = m[piv], m[r]
        lead = m[r][c]
        m[r] = [x * pow(lead, -1, p) % p for x in m[r]] if kind == "Fp" else [x / lead for x in m[r]]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f:
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
                if kind == "Fp":
                    m[i] = [a % p for a in m[i]]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def _normalised(vector: list, field: dict) -> tuple:
    """``vector`` scaled so that its first nonzero entry is 1."""
    if field["kind"] == "R":
        top = max(abs(x) for x in vector)
        lead = next(x for x in vector if abs(x) > 1e-9 * top)
    else:
        lead = next(x for x in vector if not _is_zero(x, field, 1.0))
    if field["kind"] == "Fp":
        p = field["p"]
        inv = pow(lead, -1, p)
        return tuple(x * inv % p for x in vector)
    return tuple(x / lead for x in vector)


def hyperplane_normal(basis: list[list[str]], field: dict) -> tuple | None:
    """Normal vector of the span of ``basis`` (rows of scalar text), with
    its first nonzero entry 1; None unless the span is a hyperplane."""
    rows = [[parse(x, field) for x in row] for row in basis]
    if not rows:
        return None
    n = len(rows[0])
    reduced, pivots = _rref(rows, field)
    if len(pivots) != n - 1:
        return None
    free = next(c for c in range(n) if c not in pivots)
    zero, one = parse("0", field), parse("1", field)
    normal = [zero] * n
    normal[free] = one
    for row, c in zip(reduced, pivots):
        normal[c] = -row[free]
    if field["kind"] == "Fp":
        normal = [x % field["p"] for x in normal]
    return _normalised(normal, field)


def expected_normals(recorded: list[list[str]], relabelling: tuple, field: dict) -> list[tuple]:
    """The recorded hyperplane normals (scalar text, basis e) as they read
    in the relabelled basis, each with its first nonzero entry 1."""
    out = []
    for text in recorded:
        normal = [parse(x, field) for x in text]
        if relabelling:
            normal = relabel(normal, relabelling, field)
        out.append(_normalised(normal, field))
    return out


def normal_text(normal: tuple) -> list[str]:
    """A normal vector as scalar text that ``parse`` reads back."""
    return [repr(x) if isinstance(x, float) else str(x) for x in normal]


def normals_match(got: list[tuple], want: list[tuple], field: dict) -> bool:
    """Same hyperplanes, each once.  Over R entries may differ by a
    relative REAL_RTOL."""
    if len(got) != len(want):
        return False
    if field["kind"] != "R":
        return sorted(got) == sorted(want)
    left = list(want)
    for g in got:
        scale = max(1.0, max(abs(x) for x in g))
        hit = next(
            (i for i, w in enumerate(left)
             if all(abs(a - b) <= REAL_RTOL * scale for a, b in zip(g, w))),
            None,
        )
        if hit is None:
            return False
        left.pop(hit)
    return True


def texts_match(got: str, want: str, field: dict) -> bool:
    """Exact text equality, except that numbers over R may differ by a
    relative 1e-9 (the last printed digits of a float are not a contract)."""
    if got == want:
        return True
    if field["kind"] != "R":
        return False
    got_nums, want_nums = _NUMBER_RE.findall(got), _NUMBER_RE.findall(want)
    if _NUMBER_RE.split(got) != _NUMBER_RE.split(want) or len(got_nums) != len(want_nums):
        return False
    for g, w in zip(got_nums, want_nums):
        x, y = float(g), float(w)
        if abs(x - y) > 1e-9 * max(abs(x), abs(y)) + 1e-12:
            return False
    return True
