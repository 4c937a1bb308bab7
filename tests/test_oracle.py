"""Brute-force subspace and subalgebra enumeration over prime fields."""

from __future__ import annotations

import random

import pytest

from evoalg import (
    Subspace,
    TooLarge,
    UnsupportedFieldDimension,
    enumerate_subalgebras,
    enumerate_subspaces,
    enumerate_subspaces_of,
    rref,
)
from evoalg.oracle import gaussian_binomial, subspace_count
from support import (
    F2,
    F3,
    Q,
    SHIFT_NILPOTENT_ROWS,
    elem,
    gaussian_recurrence,
    identity_rows,
    make_algebra,
    random_fp_rows,
    subspace_keys,
)


def test_line_count_f2_dim3():
    assert len(list(enumerate_subspaces(F2, 3, 1))) == 7


def test_total_count_f2_dim3():
    total = sum(len(list(enumerate_subspaces(F2, 3, m))) for m in range(4))
    assert total == 16
    assert subspace_count(3, 2) == 16


def test_zero_dimension_is_single_subspace():
    mats = list(enumerate_subspaces(F3, 4, 0))
    assert len(mats) == 1
    assert mats[0].nrows == 0 and mats[0].ncols == 4


def test_counts_match_independent_recurrence():
    for q, spec in ((2, F2), (3, F3)):
        for n in range(5):
            for m in range(n + 1):
                got = len(list(enumerate_subspaces(spec, n, m)))
                assert got == gaussian_recurrence(n, m, q)
                assert got == gaussian_binomial(n, m, q)


def test_enumeration_is_duplicate_free_and_canonical():
    a = make_algebra(F3, identity_rows(3))
    seen = []
    for m in range(4):
        for sub in enumerate_subspaces_of(a, m):
            recanon = Subspace.span(a, list(sub.basis_elements()))
            assert recanon == sub
            assert sub.dim == m
            seen.append(sub)
    keys = subspace_keys(seen)
    assert len(keys) == len(set(keys)) == subspace_count(3, 3)


@pytest.mark.parametrize(
    "spec, n", [(F2, n) for n in range(1, 5)] + [(F3, n) for n in range(1, 4)]
)
def test_enumerated_bases_are_canonical_and_match_the_reducing_path(spec, n):
    # The oracle builds its subspaces from the enumerated bases without a
    # second rref; that is sound only while every basis is already in
    # canonical form, which rref must confirm independently.
    a = make_algebra(spec, random_fp_rows(spec.p, n, random.Random(n)))
    for m in range(n + 1):
        bases = list(enumerate_subspaces(spec, n, m))
        for b in bases:
            res = rref(b)
            assert res.rref == b and res.rank == m
        trusted = list(enumerate_subspaces_of(a, m))
        reduced = [Subspace(a, b) for b in bases]
        assert trusted == reduced
        assert [s.pivot_cols for s in trusted] == [s.pivot_cols for s in reduced]


def test_nilpotent_shift_subalgebras():
    for spec in (F2, F3):
        a = make_algebra(spec, SHIFT_NILPOTENT_ROWS)
        subs = enumerate_subalgebras(a)
        proper = [s for s in subs if 0 < s.dim < 3]
        want = [
            Subspace.span(a, [a.basis_element(3)]),
            Subspace.span(a, [a.basis_element(2), a.basis_element(3)]),
        ]
        assert subspace_keys(proper) == subspace_keys(want)
        assert len(subs) == len(proper) + 2  # plus zero subspace and full algebra


def test_identity_f2_all_but_antidiagonal_plane():
    # Idempotence of every 0/1 vector is not enough: products of distinct
    # elements must close too.  The plane x1+x2+x3 = 0 contains (1,0,1)
    # and (0,1,1) whose product is e3, outside the plane, so exactly 15 of
    # the 16 subspaces are subalgebras.  Double-checked here from the
    # definition, over every element pair, without is_subalgebra.
    import itertools

    a = make_algebra(F2, identity_rows(3))
    subs = enumerate_subalgebras(a)
    assert len(subs) == 15
    failing = Subspace.span(a, [elem(a, [1, 0, 1]), elem(a, [0, 1, 1])])
    assert all(s != failing for s in subs)

    by_definition = 0
    for m in range(4):
        for sub in enumerate_subspaces_of(a, m):
            vectors = []
            for coeffs in itertools.product(range(2), repeat=sub.dim):
                acc = a.zero_element()
                for c, b in zip(coeffs, sub.basis_elements()):
                    acc = acc + c * b
                vectors.append(acc)
            if all(sub.contains(u * v) for u in vectors for v in vectors):
                by_definition += 1
    assert by_definition == 15


def test_identity_f3_dim2_one_line_fails():
    a = make_algebra(F3, identity_rows(2))
    subs = enumerate_subalgebras(a)
    assert len(subs) == 5  # of 6 subspaces; span{(1,2)} squares outside itself
    bad = Subspace.span(a, [elem(a, [1, 2])])
    assert all(s != bad for s in subs)
    u = elem(a, [1, 2])
    assert not bad.contains(u * u)


def test_size_guard():
    with pytest.raises(TooLarge):
        list(enumerate_subspaces(F2, 3, 1, max_count=3))
    a = make_algebra(F2, identity_rows(3))
    with pytest.raises(TooLarge):
        enumerate_subalgebras(a, max_count=10)


def test_non_finite_field_rejected():
    with pytest.raises(UnsupportedFieldDimension, match="subspace enumeration needs a prime field, got Q"):
        list(enumerate_subspaces(Q, 3, 1))
    with pytest.raises(UnsupportedFieldDimension, match="subalgebra enumeration needs a prime field, got Q"):
        enumerate_subalgebras(make_algebra(Q, identity_rows(2)))
