"""Algebra construction, the product, regularity, and supports."""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction

import pytest

from evoalg import EvolutionAlgebra, NonFiniteValue, closure_cubic, enumerate_codim1, rref
from support import (
    F2,
    F3,
    NEAR_SINGULAR_REAL_ROWS,
    NO_CODIM1_OVER_Q_ROWS,
    Q,
    R9,
    SHIFT_NILPOTENT_ROWS,
    all_regular_structures,
    elem,
    identity_rows,
    make_algebra,
    make_matrix,
    random_regular_fp,
    random_regular_rational,
)


def test_construction():
    a = make_algebra(Q, identity_rows(3))
    assert a.dim == 3
    e1 = a.basis_element(1)
    assert (e1 * e1) == e1


def test_construction_dense_example():
    a = make_algebra(Q, NO_CODIM1_OVER_Q_ROWS)
    assert a.dim == 3
    assert a.structure_constant(2, 2).value == -1


def test_non_square_structure():
    with pytest.raises(ValueError, match="structure matrix must be square, got 2x3"):
        EvolutionAlgebra(make_matrix(Q, [[1, 0, 0], [0, 1, 0]]))


def test_product_of_basis_square():
    a = make_algebra(Q, NO_CODIM1_OVER_Q_ROWS)
    e2 = a.basis_element(2)
    assert [x.value for x in (e2 * e2).coords] == [1, -1, 1]


def test_product_expands_bilinearly():
    a = make_algebra(Q, NO_CODIM1_OVER_Q_ROWS)
    u = elem(a, [1, 1, 0])
    v = elem(a, [1, -1, 0])
    # (e1+e2)(e1-e2) = e1^2 - e2^2 since distinct indices annihilate.
    assert [x.value for x in (u * v).coords] == [0, 1, -1]


def test_square_of_zero():
    a = make_algebra(Q, identity_rows(3))
    assert a.zero_element().square().is_zero()


def test_square_in_nilpotent_shift():
    a = make_algebra(Q, SHIFT_NILPOTENT_ROWS)
    e1 = a.basis_element(1)
    assert (e1 * e1) == a.basis_element(2)
    u = elem(a, [1, 1, 0])
    assert [x.value for x in u.square().coords] == [0, 1, 1]


def test_is_regular():
    assert make_algebra(Q, identity_rows(3)).is_regular()
    assert make_algebra(Q, NO_CODIM1_OVER_Q_ROWS).is_regular()
    assert not make_algebra(Q, SHIFT_NILPOTENT_ROWS).is_regular()


def test_near_singular_real_algebra_is_not_regular():
    a = make_algebra(R9, NEAR_SINGULAR_REAL_ROWS)
    assert a.determinant().is_zero()
    assert not a.is_regular()


def test_real_regularity_counts_pivots_not_determinant_size():
    # Three pivots of 1e-4 are each above tol 1e-9, although their product is not.
    a = make_algebra(R9, [[1e-4, 0, 0], [0, 1e-4, 0], [0, 0, 1e-4]])
    assert a.is_regular()
    assert a.determinant().value == pytest.approx(1e-12, rel=1e-12)
    # A pivot below tol is still a pivot: no entry is zero unless it cancelled.
    tiny = make_algebra(R9, [[1e-10, 0], [0, 1]])
    assert tiny.is_regular() and tiny.determinant().value == 1e-10


def test_real_regularity_counts_pivots_without_multiplying_them():
    # The pivot product 1e-400 underflows: regular, with no determinant.
    a = make_algebra(R9, [[1e-200, 0], [0, 1e-200]])
    assert a.is_regular()
    with pytest.raises(NonFiniteValue, match="normal float range"):
        a.determinant()
    # Without a pivot in every column the determinant is 0: the pivots,
    # whose product 1e600 overflows, are not multiplied.
    singular = make_algebra(R9, [[1e300, 0, 0], [0, 1e300, 0], [0, 0, 0]])
    assert not singular.is_regular() and repr(singular.determinant().value) == "0.0"


def test_dense_real_search_does_not_depend_on_the_determinant_range():
    # A 24x24 determinant near 5e27 overflows when the entries are scaled by
    # 1e13 and leaves the normal range at 1e-14; the pivots are still
    # counted, and the search gives the same 276 rank-2 pairs at every scale.
    rng = random.Random(12)
    rows = [[rng.randint(-999, 999) / 100 for _ in range(24)] for _ in range(24)]

    def search(scale):
        a = make_algebra(R9, [[x * scale for x in row] for row in rows])
        report = enumerate_codim1(a)
        return a, [(d.p, d.q, d.rank) for d in report.diagnostics], [s.render() for s in report.subspaces()]

    a, diagnostics, found = search(1.0)
    assert a.determinant().value == pytest.approx(5.033978907e27)
    assert [rank for _, _, rank in diagnostics] == [2] * 276 and found == []
    for scale in (1e13, 1e-14):
        scaled, *answer = search(scale)
        assert scaled.is_regular() and answer == [diagnostics, found], scale
        with pytest.raises(NonFiniteValue):
            scaled.determinant()


@pytest.mark.parametrize("bad", [0, -1, 4, True])
def test_basis_indices_are_ints_in_range(bad):
    a = make_algebra(Q, NO_CODIM1_OVER_Q_ROWS)
    message = re.escape(f"basis index {bad} out of range 1..3")
    with pytest.raises(IndexError, match=message):
        a.basis_element(bad)
    with pytest.raises(IndexError, match=message):
        a.structure_constant(bad, 1)
    with pytest.raises(IndexError, match=message):
        a.structure_constant(1, bad)
    with pytest.raises(ValueError, match=re.escape(f"need distinct basis indices in 1..3, got ({bad}, 2)")):
        closure_cubic(a, bad, 2)


def test_real_rank_is_invariant_under_scaling():
    # Column 3 is three times column 1: the matrix is singular only because
    # a row operation cancels, and that holds at every scale.
    rows = [[0.1, 0.7, 0.3], [0.2, 0.3, 0.6], [0.7, 0.1, 2.1]]
    for s in (1.0, 1e-6, 1e-12, 1e6):
        scaled = [[x * s for x in row] for row in rows]
        assert rref(make_matrix(R9, scaled)).rank == 2, s
        assert not make_algebra(R9, scaled).is_regular(), s


def test_support():
    a = make_algebra(Q, identity_rows(3))
    assert elem(a, [2, 0, -1]).support() == (1, 3)
    assert a.zero_element().support() == ()
    assert elem(a, [1, 1, 1]).support() == (1, 2, 3)


def test_commutativity_random():
    rng = random.Random(77)
    for _ in range(50):
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        a = make_algebra(Q, rows)
        u = elem(a, [rng.randint(-3, 3) for _ in range(3)])
        v = elem(a, [rng.randint(-3, 3) for _ in range(3)])
        assert u * v == v * u


def test_bilinearity_random():
    rng = random.Random(78)
    for spec, draw in ((Q, lambda: rng.randint(-3, 3)), (F3, lambda: rng.randrange(3))):
        for _ in range(50):
            a = make_algebra(spec, [[draw() for _ in range(3)] for _ in range(3)])
            u = elem(a, [draw() for _ in range(3)])
            v = elem(a, [draw() for _ in range(3)])
            w = elem(a, [draw() for _ in range(3)])
            c = draw()
            left = (c * u + v) * w
            right = c * (u * w) + (v * w)
            assert left == right


def _all_elements(algebra, p):
    for coords in itertools.product(range(p), repeat=algebra.dim):
        yield algebra.element(list(coords))


def _disjoint_product_criterion_holds(algebra, p):
    for u in _all_elements(algebra, p):
        for v in _all_elements(algebra, p):
            disjoint = not (set(u.support()) & set(v.support()))
            if ((u * v).is_zero()) != disjoint:
                return False
    return True


def test_regular_product_criterion_exhaustive_small_fields():
    # In a regular algebra a product vanishes exactly when supports are
    # disjoint; checked on every element pair.
    for p, spec, n in ((2, F2, 2), (2, F2, 3), (3, F3, 2)):
        for rows in all_regular_structures(p, n):
            assert _disjoint_product_criterion_holds(make_algebra(spec, rows), p)


def test_regular_product_criterion_sampled_f3_dim3():
    rng = random.Random(79)
    for _ in range(60):
        a = make_algebra(F3, random_regular_fp(3, 3, rng))
        assert _disjoint_product_criterion_holds(a, 3)


def test_regular_product_criterion_random_rationals():
    rng = random.Random(80)
    for _ in range(40):
        a = make_algebra(Q, random_regular_rational(3, rng))
        u = elem(a, [rng.randint(-2, 2) for _ in range(3)])
        v = elem(a, [rng.randint(-2, 2) for _ in range(3)])
        disjoint = not (set(u.support()) & set(v.support()))
        assert (u * v).is_zero() == disjoint


def test_regular_square_criterion():
    # Squares only vanish at zero when the algebra is regular.
    for p, spec in ((2, F2), (3, F3)):
        rng = random.Random(p * 13)
        for _ in range(40):
            a = make_algebra(spec, random_regular_fp(p, 3, rng))
            for u in _all_elements(a, p):
                if u.square().is_zero():
                    assert u.is_zero()


def test_nonregular_square_can_vanish():
    a = make_algebra(Q, SHIFT_NILPOTENT_ROWS)
    e3 = a.basis_element(3)
    assert e3.square().is_zero() and not e3.is_zero()


def test_mixed_algebras_rejected():
    a = make_algebra(Q, identity_rows(2))
    b = make_algebra(Q, [[1, 1], [0, 1]])
    with pytest.raises(ValueError, match="elements belong to different algebras"):
        a.basis_element(1) * b.basis_element(1)


def test_element_render():
    a = make_algebra(Q, identity_rows(3))
    assert elem(a, [1, 0, -1]).render() == "e1 - e3"
    assert elem(a, ["1/2", 0, 2]).render() == "1/2*e1 + 2*e3"
    assert a.zero_element().render() == "0"


def test_equal_algebras_interoperate():
    a1 = make_algebra(Q, identity_rows(2))
    a2 = make_algebra(Q, identity_rows(2))
    assert a1 == a2
    assert a1.basis_element(1) + a2.basis_element(2) == a1.element([1, 1])
