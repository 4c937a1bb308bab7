"""Raw values inside ``Matrix``, ``Element``, ``Subspace`` and
``LowDegreePoly``: the one equality rule of each field, the entry checks at
the API boundary, and no ``FieldScalar`` arithmetic behind it."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from evoalg import (
    Element,
    FieldScalar,
    LowDegreePoly,
    Matrix,
    Subspace,
    UnsupportedFieldDimension,
    determinant,
    enumerate_codim1,
    enumerate_subalgebras,
    inverse,
    rref,
    scalar_parse,
    solve_onedim,
)
from evoalg.cli import main
from evoalg.finder import onedim_residual
from support import (
    F5,
    FLAGGED_ROOT_REALS,
    FLAGGED_ROOT_ROWS,
    NO_CODIM1_OVER_Q_ROWS,
    Q,
    R9,
    SWAP_2D_ROWS,
    elem,
    identity_rows,
    is_rational_raw,
    make_algebra,
    make_matrix,
    sparse_int_rows,
)

TOL = R9.tol


@pytest.mark.parametrize("delta, equal", [(TOL / 2, True), (2 * TOL, False)])
def test_real_matrix_equality_is_within_tol(delta, equal):
    base = make_matrix(R9, [[1.0, 0.5], [0.25, -2.0]])
    other = make_matrix(R9, [[1.0, 0.5 + delta], [0.25, -2.0]])
    assert (other == base) is equal
    if equal:
        assert hash(other) == hash(base)


@pytest.mark.parametrize("delta, equal", [(TOL / 2, True), (2 * TOL, False)])
def test_real_element_equality_is_within_tol(delta, equal):
    a = make_algebra(R9, [[1.0, 0.0], [0.0, 2.0]])
    base, other = elem(a, [1.0, 0.5]), elem(a, [1.0, 0.5 + delta])
    assert (other == base) is equal
    if equal:
        assert hash(other) == hash(base)


@pytest.mark.parametrize("delta, equal", [(TOL / 2, True), (2 * TOL, False)])
def test_real_subspace_equality_is_within_tol(delta, equal):
    a = make_algebra(R9, [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]])
    base = Subspace.span(a, [elem(a, [1.0, 0.5, 0.0]), elem(a, [0.0, 0.0, 1.0])])
    other = Subspace.span(a, [elem(a, [1.0, 0.5 + delta, 0.0]), elem(a, [0.0, 0.0, 1.0])])
    assert (other == base) is equal
    if equal:
        assert hash(other) == hash(base)


def test_rational_entries_from_ints_and_fractions_agree():
    ints = make_matrix(Q, [[1, 2], [-3, 0]])
    fracs = make_matrix(Q, [[Fraction(1), Fraction(4, 2)], [Fraction(-6, 2), Fraction(0)]])
    assert ints == fracs and hash(ints) == hash(fracs)
    a = make_algebra(Q, [[1, 2], [-3, 0]])
    assert elem(a, [1, 2]) == elem(a, [Fraction(2, 2), Fraction(2)])
    assert hash(elem(a, [1, 2])) == hash(elem(a, [Fraction(2, 2), Fraction(2)]))


def test_matrix_constructor_checks_every_entry():
    with pytest.raises(TypeError):
        Matrix(Q, [[Q.one(), 1]])
    with pytest.raises(ValueError, match="scalar over F_5 where Q is expected"):
        Matrix(Q, [[Q.one(), F5.one()]])


def test_element_constructors_reject_foreign_scalars():
    a = make_algebra(Q, [[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="scalar over F_5 where Q is expected"):
        Element(a, (Q.one(), F5.one()))
    with pytest.raises(ValueError, match="scalar over F_5 where Q is expected"):
        a.element([F5.one(), 0])


def test_subspace_rejects_matrix_over_another_field():
    a = make_algebra(Q, [[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="spanning matrix over a different field"):
        Subspace(a, make_matrix(F5, [[1, 0]]))


_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__", "__truediv__", "__pow__", "inv"
)

# Rank-0 pairs with roots and drops, rank-1 pairs that hold and fail, and
# (over R at tol 1e-15) a flagged root; each is regular over Q, F_5 and R.
_BOUNDARY_ROWS = (
    NO_CODIM1_OVER_Q_ROWS,
    identity_rows(3),
    [[2, 0, 0, 0], [0, 1, 0, 0], [2, 4, 1, 0], [0, 0, 0, 1]],
    [[1, 1, 0], [0, 1, 1], [1, 0, 1]],
)


@pytest.mark.parametrize("spec", [Q, F5, R9, FLAGGED_ROOT_REALS], ids=["Q", "F5", "R", "R-flagged"])
def test_library_does_no_scalar_arithmetic(spec, monkeypatch, tmp_path, capsys):
    # FieldScalar is only the boundary: the search, the oracle and the CLI
    # compute on raw values, so they run with its operators disabled.
    def refuse(*args):
        raise AssertionError("FieldScalar arithmetic inside the library")

    for name in _ARITHMETIC:
        monkeypatch.setattr(FieldScalar, name, refuse)
    real, flagged_case = spec.kind == "R", spec is FLAGGED_ROOT_REALS
    cases = [FLAGGED_ROOT_ROWS] if flagged_case else list(_BOUNDARY_ROWS)
    field = {k: v for k, v in (("kind", spec.kind), ("p", spec.p), ("tol", spec.tol)) if v is not None}
    flagged = 0
    for k, rows in enumerate(cases + [SWAP_2D_ROWS]):
        rows = [[float(x) for x in row] for row in rows] if real else rows
        a = make_algebra(spec, rows)
        flagged += sum(len(d.flagged_roots) for d in enumerate_codim1(a).diagnostics)
        if a.dim == 2 or spec.kind == "Fp":
            solve_onedim(a)
        if spec.kind == "Fp":
            enumerate_subalgebras(a)
        else:
            with pytest.raises(UnsupportedFieldDimension, match="subalgebra enumeration needs a prime field"):
                enumerate_subalgebras(a)
        path = tmp_path / f"a{k}.alg"
        path.write_text(json.dumps({"field": field, "dim": a.dim, "matrix": [[str(x) for x in r] for r in rows]}))
        for flag in ("--verbose", "--json"):
            assert main(["codim1", flag, str(path)]) == 0
            assert capsys.readouterr().err == ""
    assert flagged == (1 if flagged_case else 0)


def test_rational_raw_values_are_ints_or_proper_fractions():
    # Over Q a raw value is an int where integral and a Fraction with
    # denominator above one otherwise, never a float: checked on what each
    # source leaves behind, in raw storage where it has one.
    rng, kern = random.Random(181), Q._kernel
    seen, bad = 0, []

    def check(where, values):
        nonlocal seen
        values = list(values)
        seen += len(values)
        bad.extend((where, x) for x in values if not is_rational_raw(x))

    def draw():
        if rng.random() < 0.45:
            return 0
        return rng.choice((rng.randint(-5, 5), Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6)))))

    def nonzero():
        while (x := draw()) == 0:
            pass
        return x

    def matrix_values(m):
        return [x for row in m._rows for x in row]

    check("scalar_parse", (scalar_parse(t, Q).value for t in ("6", "-6/3", "6/4", "0/7", "+8/2", "-1/1")))
    for _ in range(200):
        x, y = FieldScalar(Q, draw()), FieldScalar(Q, nonzero())
        powers = [x**k for k in range(4)] + ([x**k for k in range(-3, 0)] if not x.is_zero() else [])
        check("FieldScalar", (z.value for z in (x + y, x - y, x * y, x / y, y.inv(), 3 - x, *powers)))
        a, f, b = (kern.canonical(draw()) for _ in range(3))
        row, prow = [kern.canonical(draw()) for _ in range(4)], [kern.canonical(draw()) for _ in range(4)]
        check("kernel", [kern.mul(a, b), kern.inv(kern.canonical(nonzero())), kern.dot(row, prow)])
        check("kernel rows", kern.scale(row, f) + kern.add_multiple(row, f, prow) + kern.sub_multiple(row, f, prow))
    for n in (2, 3, 4, 5):
        for k in range(20):
            rows = sparse_int_rows(n, rng) if k % 2 else [[draw() for _ in range(n)] for _ in range(n)]
            a = make_algebra(Q, rows)
            m = a.structure
            check("rref", matrix_values(rref(m).rref))
            check("determinant", [determinant(m).value])
            if not a.is_regular():
                continue
            check("inverse and @", matrix_values(inverse(m)) + matrix_values(m @ inverse(m)))
            check("transpose_inverse", matrix_values(a.transpose_inverse()))
            check("onedim_residual", onedim_residual(a, a.element([draw() for _ in range(n)]))._coords)
            poly = LowDegreePoly.from_values(Q, *(draw() for _ in range(4)))
            check("LowDegreePoly", [*poly._cs, poly.evaluate(FieldScalar(Q, draw())).value])
            report = enumerate_codim1(a)
            for found in report.found:
                scalars = [*(found.vector or ()), *([found.root] if found.root is not None else [])]
                check("codim1 finding", [*matrix_values(found.subspace.basis), *(s.value for s in scalars)])
            for d in report.diagnostics:
                scalars = [*(d.row or ()), d.closure_lhs, d.closure_rhs, *(d.roots or ()), *d.flagged_roots]
                check("codim1 diagnostics", [s.value for s in scalars if s is not None])
                check("codim1 cubic", d.cubic._cs if d.cubic else ())
            if n == 2:
                check("solve_onedim", [x for s in solve_onedim(a) for x in matrix_values(s.basis)])
    assert seen > 10_000
    assert not bad, bad[:5]
