"""Raw values inside ``Matrix``, ``Element`` and ``Subspace``: the one
equality rule of each field, and the entry checks at the API boundary."""

from __future__ import annotations

from fractions import Fraction

import pytest

from evoalg import Element, Matrix, MixedFieldSpecs, Subspace, matvec
from support import F5, Q, R9, elem, make_algebra, make_matrix

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
    with pytest.raises(MixedFieldSpecs):
        Matrix(Q, [[Q.one(), F5.one()]])


def test_element_constructors_reject_foreign_scalars():
    a = make_algebra(Q, [[1, 0], [0, 1]])
    with pytest.raises(MixedFieldSpecs):
        Element(a, (Q.one(), F5.one()))
    with pytest.raises(MixedFieldSpecs):
        a.element([F5.one(), 0])


def test_subspace_rejects_matrix_over_another_field():
    a = make_algebra(Q, [[1, 0], [0, 1]])
    with pytest.raises(MixedFieldSpecs):
        Subspace(a, make_matrix(F5, [[1, 0]]))


def test_matvec_coerces_ints_and_rejects_foreign_scalars():
    m = make_matrix(Q, [[1, 2], [3, 4]])
    assert matvec(m, (1, Q.one())) == (Q.from_int(3), Q.from_int(7))
    with pytest.raises(MixedFieldSpecs):
        matvec(m, (F5.one(), 1))
