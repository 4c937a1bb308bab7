"""Canonical subspaces, closure checks, and natural-basis extraction."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from evoalg import (
    EvoAlgError,
    EvolutionAlgebra,
    FieldSpec,
    Matrix,
    NonFiniteValue,
    NotASubalgebra,
    NotRegular,
    Subspace,
    enumerate_subalgebras,
    scalar_parse,
)
from support import (
    F2,
    F3,
    Q,
    R9,
    CLOSED_WITHIN_TOL_REAL_ROWS,
    CLOSED_WITHIN_TOL_SPAN,
    SHIFT_NILPOTENT_ROWS,
    all_regular_structures,
    elem,
    identity_rows,
    make_algebra,
    outcome,
    random_regular_fp,
    scalar_contains,
    scalar_is_subalgebra,
    scalar_product,
)

F7 = FieldSpec.prime_field(7)


def _span(algebra, *vectors):
    return Subspace.span(algebra, [elem(algebra, v) for v in vectors])


def test_already_canonical_span():
    a = make_algebra(Q, identity_rows(3))
    s = _span(a, [1, 1, 0], [0, 0, 1])
    assert s.dim == 2
    assert [[x.value for x in row] for row in s.basis.rows()] == [[1, 1, 0], [0, 0, 1]]


def test_dependent_rows_collapse():
    a = make_algebra(Q, identity_rows(3))
    s = _span(a, [1, 1, 0], [2, 2, 0])
    assert s.dim == 1
    assert [[x.value for x in row] for row in s.basis.rows()] == [[1, 1, 0]]


def test_empty_span_is_zero_subspace():
    a = make_algebra(Q, identity_rows(3))
    s = Subspace.span(a, [])
    assert s.dim == 0
    assert s.contains(a.zero_element())
    assert not s.contains(a.basis_element(1))


def test_span_order_independent():
    rng = random.Random(3)
    a = make_algebra(F3, identity_rows(4))
    for _ in range(40):
        vecs = [[rng.randrange(3) for _ in range(4)] for _ in range(3)]
        shuffled = vecs[:]
        rng.shuffle(shuffled)
        assert _span(a, *vecs) == _span(a, *shuffled)


def test_span_invariant_under_invertible_recombination():
    # Recombining a spanning set by an invertible matrix keeps the subspace.
    rng = random.Random(9)
    a = make_algebra(Q, identity_rows(3))
    for _ in range(30):
        u = [rng.randint(-3, 3) for _ in range(3)]
        v = [rng.randint(-3, 3) for _ in range(3)]
        c, d = rng.randint(1, 3), rng.randint(-3, 3)
        # rows (u, v) -> (c*u, d*u + v): triangular with nonzero diagonal.
        u2 = [c * x for x in u]
        v2 = [d * x + y for x, y in zip(u, v)]
        assert _span(a, u, v) == _span(a, u2, v2)


def test_contains():
    a = make_algebra(Q, identity_rows(3))
    s = _span(a, [1, 1, 0])
    assert s.contains(elem(a, [2, 2, 0]))
    assert not s.contains(elem(a, [1, 0, 0]))


def test_mixed_algebra_membership_rejected():
    a = make_algebra(Q, identity_rows(2))
    b = make_algebra(Q, [[1, 1], [0, 1]])
    s = _span(a, [1, 0])
    with pytest.raises(ValueError, match="^element from a different algebra"):
        s.contains(b.basis_element(1))
    with pytest.raises(ValueError, match="spanning element from a different algebra"):
        Subspace.span(a, [b.basis_element(1)])


def test_is_subalgebra_nilpotent_cases():
    a = make_algebra(Q, SHIFT_NILPOTENT_ROWS)
    assert _span(a, [0, 1, 0], [0, 0, 1]).is_subalgebra()
    assert not _span(a, [1, 0, 0], [0, 1, 0]).is_subalgebra()


def test_is_subalgebra_identity_line():
    a = make_algebra(Q, identity_rows(3))
    assert _span(a, [1, 0, 0]).is_subalgebra()


def test_trivial_subspaces_are_closed():
    a = make_algebra(Q, identity_rows(3))
    assert Subspace.span(a, []).is_subalgebra()
    assert _span(a, [1, 0, 0], [0, 1, 0], [0, 0, 1]).is_subalgebra()


def test_closure_verdict_matches_manual_check():
    # is_subalgebra computed on the canonical basis agrees with a direct
    # check over the original (non-canonical) spanning set.
    rng = random.Random(12)
    for _ in range(60):
        a = make_algebra(F3, random_regular_fp(3, 3, rng))
        vecs = [elem(a, [rng.randrange(3) for _ in range(3)]) for _ in range(2)]
        s = Subspace.span(a, vecs)
        manual = all(s.contains(u * v) for u in vecs for v in vecs)
        assert s.is_subalgebra() == manual


def test_natural_basis_identity_algebra():
    a = make_algebra(Q, identity_rows(3))
    basis = _span(a, [1, 1, 0], [0, 0, 1]).natural_basis()
    assert [[x.value for x in e.coords] for e in basis] == [[1, 1, 0], [0, 0, 1]]
    assert basis[0].support() == (1, 2)
    assert basis[1].support() == (3,)
    assert (basis[0] * basis[1]).is_zero()


def test_natural_basis_rejects_non_subalgebra():
    a = make_algebra(Q, identity_rows(3))
    with pytest.raises(NotASubalgebra):
        _span(a, [1, 2, 0]).natural_basis()


def test_natural_basis_rejects_non_regular_ambient():
    a = make_algebra(Q, SHIFT_NILPOTENT_ROWS)
    with pytest.raises(NotRegular):
        _span(a, [0, 1, 0], [0, 0, 1]).natural_basis()


def _assert_natural(subalgebra):
    basis = subalgebra.natural_basis()
    assert basis == list(subalgebra.basis_elements())
    for i, u in enumerate(basis):
        for w in basis[i + 1 :]:
            assert (u * w).is_zero()
            assert not (set(u.support()) & set(w.support()))


def test_natural_basis_exhaustive_f2():
    # Every subalgebra of every regular algebra: the canonical basis is
    # natural with pairwise disjoint supports.
    for n in (2, 3):
        for rows in all_regular_structures(2, n):
            a = make_algebra(F2, rows)
            for sub in enumerate_subalgebras(a):
                _assert_natural(sub)


def test_natural_basis_exhaustive_f3_dim2():
    for rows in all_regular_structures(3, 2):
        a = make_algebra(F3, rows)
        for sub in enumerate_subalgebras(a):
            _assert_natural(sub)


def test_natural_basis_sampled_f3_dim3():
    rng = random.Random(21)
    for _ in range(100):
        a = make_algebra(F3, random_regular_fp(3, 3, rng))
        for sub in enumerate_subalgebras(a):
            _assert_natural(sub)


# span{e1 + s*e4, e2, e3 + r*e4}, closed within tol in a regular algebra:
# the first and the third basis vector share e4, the second meets neither.
_FIRST_AND_LAST_SHARE_ROWS = [
    [-1.834, 3.968, -2.435, -7.932879001404671],
    [-2.554, 2.072, -2.556, -8.594975991924276],
    [3.838, -2.674, 3.134, 10.839545999532573],
    [-2.548, -2.453, -3.715, -11.996403000604296],
]


@pytest.mark.parametrize(
    "rows, span, named",
    [
        (
            CLOSED_WITHIN_TOL_REAL_ROWS,
            CLOSED_WITHIN_TOL_SPAN,
            "e1 + 2.2723073892530792*e3 and e2 - 2.7725008164085168*e3 share e3",
        ),
        (
            _FIRST_AND_LAST_SHARE_ROWS,
            "1,0,0,0.426;0,1,0,0;0,0,1,2.937",
            "e1 + 0.42599999999999999*e4 and e3 + 2.9369999999999998*e4 share e4",
        ),
    ],
    ids=["adjacent", "first-and-last"],
)
def test_real_span_closed_within_tol_has_no_natural_basis(rows, span, named):
    # Closed and regular within tol, yet two canonical basis vectors share a
    # coordinate: the support pass names them in a NotASubalgebra.
    a = make_algebra(R9, rows)
    sub = _span(a, *(v.split(",") for v in span.split(";")))
    assert sub.is_subalgebra() and a.is_regular()
    with pytest.raises(NotASubalgebra) as info:
        sub.natural_basis()
    assert str(info.value) == f"basis vectors {named}: the subspace is closed only within tol, no natural basis"


@pytest.mark.parametrize("tol", [1e-9, 1e-12])
def test_real_spans_closed_within_tol_raise_only_domain_errors(tol):
    # span{e1 + s*e3, e2 + r*e3} with every structure row in it up to a
    # relative perturbation d, from tol/1000 to 100*tol: some draws are
    # closed and regular within tol, and the shared e3 must then be named.
    spec, rng, overlaps = FieldSpec.approx_reals(tol), random.Random(2801), 0
    for _ in range(4000):
        s, r = rng.uniform(-4, 4), rng.uniform(-4, 4)
        rows = []
        for _ in range(3):
            x, y = rng.uniform(-4, 4), rng.uniform(-4, 4)
            d = tol * 10 ** rng.uniform(-3, 2)
            rows.append([x, y, (s * x + r * y) * (1 + rng.choice((-1, 1)) * d)])
        a = make_algebra(spec, rows)
        sub = _span(a, [1.0, 0.0, s], [0.0, 1.0, r])
        try:
            sub.natural_basis()
        except EvoAlgError as exc:
            if "share e3" in str(exc):
                assert isinstance(exc, NotASubalgebra) and sub.is_subalgebra() and a.is_regular()
                overlaps += 1
                if overlaps == 20:
                    return
        else:
            raise AssertionError(f"a natural basis sharing e3: {rows}")
    raise AssertionError(f"only {overlaps} spans closed within tol")


def test_sort_key_orders_by_dimension_first():
    a = make_algebra(Q, identity_rows(3))
    line = _span(a, [1, 0, 0])
    plane = _span(a, [1, 0, 0], [0, 1, 0])
    assert line.sort_key() < plane.sort_key()


def test_render():
    a = make_algebra(Q, identity_rows(3))
    assert _span(a, [1, 1, 0], [0, 0, 1]).render() == "span{e1 + e2, e3}"
    assert Subspace.span(a, []).render() == "span{}"


def _draw(spec, rng):
    """A random entry: often an exact zero; over R often within a factor
    of ten of the tolerance, sometimes near 1e300."""
    r = rng.random()
    if r < 0.35:
        return 0
    if spec == Q:
        return Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
    if spec != R9:
        return rng.randrange(spec.p)
    if r < 0.55:
        return rng.choice((-1, 1)) * spec.tol * 10 ** rng.uniform(-1, 1)
    if r < 0.65:
        return rng.choice((-1, 1)) * 10 ** rng.uniform(300, 308)
    return rng.uniform(-4, 4)


def _outcome(f):
    """The result, raw values by ``repr`` (bit for bit over R, sign of
    zero included), or the error by type and message."""
    try:
        r = f()
    except EvoAlgError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(r, tuple):
        return [repr(x.value) for x in r]
    return r


@pytest.mark.parametrize("spec", [Q, F2, F7, R9], ids=["Q", "F2", "F7", "R"])
def test_product_and_closure_match_scalar_reference(spec):
    rng = random.Random(83)
    for _ in range(100):
        n = rng.randint(1, 5)
        a = make_algebra(spec, [[_draw(spec, rng) for _ in range(n)] for _ in range(n)])
        els = [a.element([_draw(spec, rng) for _ in range(n)]) for _ in range(3)]
        els += [a.basis_element(i) for i in range(1, n + 1)]
        for u in els[:4]:
            for w in els:
                assert _outcome(lambda: (u * w).coords) == _outcome(lambda: scalar_product(u, w))
        for _ in range(3):
            k = rng.randint(0, n)
            spanning = rng.sample(els[3:], k) if rng.random() < 0.6 else els[:k]
            try:
                sub = Subspace.span(a, spanning)
            except EvoAlgError:
                continue
            want = _outcome(lambda: scalar_is_subalgebra(sub))
            assert _outcome(sub.is_subalgebra) == want
            for u in els + list(sub.basis_elements()):
                assert _outcome(lambda: sub.contains(u)) == _outcome(
                    lambda: scalar_contains(sub, u.coords)
                )


@pytest.mark.parametrize("spec", [Q, F2, F7, R9], ids=["Q", "F2", "F7", "R"])
def test_sparse_closure_matches_scalar_reference(spec):
    # Spans of unit vectors and two-entry vectors with disjoint supports:
    # the closure check skips every pair of distinct rows, the reference
    # forms them all.  Sparse structure matrices make both verdicts common.
    rng = random.Random(89)
    verdicts = []
    for _ in range(150):
        n = rng.randint(2, 7)
        rows = [[_draw(spec, rng) if rng.random() < 0.4 else 0 for _ in range(n)] for _ in range(n)]
        a = make_algebra(spec, rows)
        idx = rng.sample(range(n), rng.randint(1, n))
        vectors = []
        while idx:
            v = [0] * n
            v[idx.pop()] = 1
            if idx and rng.random() < 0.5:
                v[idx.pop()] = _draw(spec, rng) or 1
            vectors.append(v)
        sub = _span(a, *vectors)
        want = _outcome(lambda: scalar_is_subalgebra(sub))
        assert _outcome(sub.is_subalgebra) == want
        verdicts.append(want)
    assert verdicts.count(True) >= 15 and verdicts.count(False) >= 15


def test_closure_forms_only_products_of_rows_whose_supports_meet(monkeypatch):
    calls = []
    product = EvolutionAlgebra._product
    monkeypatch.setattr(
        EvolutionAlgebra, "_product", lambda self, u, w: calls.append(1) or product(self, u, w)
    )
    rows = identity_rows(7)
    rows[0][1] = rows[2][4] = 3  # e1^2 = e1 + 3e2, e3^2 = e3 + 3e5
    a = make_algebra(Q, rows)
    # A codimension-one candidate: e1..e5 and e6 + e7, supports disjoint.
    units = identity_rows(7)[:5]
    sub = _span(a, *units, [0, 0, 0, 0, 0, 1, 1])
    assert sub.dim == 6 and sub.is_subalgebra()
    assert len(calls) == 6  # the squares only, not all 21 pairs
    # In the zero algebra every span is closed, so every pair is examined:
    # the rref rows e1 - e3 and e2 + e3 share e3, e1 + e2 and e3 share none.
    zero = make_algebra(Q, [[0] * 3] * 3)
    for vectors, formed in ((([1, 1, 0], [0, 1, 1]), 3), (([1, 1, 0], [0, 0, 1]), 2)):
        calls.clear()
        assert _span(zero, *vectors).is_subalgebra()
        assert len(calls) == formed


_SPAN_ENTRIES = {
    "Q": ("1", "-1", "2", "1/2", "-3/4", "5"),
    "Fp": ("1", "2", "3", "4", "5", "6"),
    "R": ("1", "-1", "49", "-2.5", "0.1", "1e-3", "3e7", "-7e-5"),
}


@pytest.mark.parametrize("spec", [Q, F2, F7, R9], ids=["Q", "F2", "F7", "R"])
def test_contains_matches_the_scalar_reference_on_seeded_draws(spec):
    # Combinations of a basis, some with one entry replaced, over R some
    # with an entry near 1e200 whose product with the basis overflows:
    # the verdict, or the error and its message, is the reference's.
    rng = random.Random(1400)
    small = _SPAN_ENTRIES[spec.kind]
    big = small + (("1e200", "-1e200") if spec.kind == "R" else ())
    entry = lambda pool: "-0" if rng.random() < 0.15 else "0" if rng.random() < 0.4 else rng.choice(pool)
    value = lambda pool: scalar_parse(entry(pool), spec)
    checked, verdicts = 0, []
    for _ in range(400):
        n = rng.randint(1, 6)
        a = make_algebra(spec, identity_rows(n))
        spanning = [[entry(big) for _ in range(n)] for _ in range(rng.randint(1, n))]
        try:
            sub = Subspace(a, Matrix.from_rows(spec, spanning))
        except NonFiniteValue:  # a spanning set whose elimination overflows has no basis
            continue
        for _ in range(6 if sub.dim else 0):
            v = [value(small) for _ in range(n)] if rng.random() < 0.3 else [spec.zero()] * n
            for row in sub.basis.rows():  # plus a combination of the basis
                if rng.random() < 0.6:
                    f = value(small)
                    v = [x + f * b for x, b in zip(v, row)]
            if rng.random() < 0.3:
                v[rng.randrange(n)] = value(big)
            u = a.element(v)
            verdicts.append(outcome(lambda: sub.contains(u)))
            assert verdicts[-1] == outcome(lambda: scalar_contains(sub, u.coords))
            checked += 1
    assert checked > 1000 and verdicts.count(True) > 100 and verdicts.count(False) > 100


@pytest.mark.parametrize(
    "rows, pivots, v, message",
    [
        (((1.0, 1e300),), (0,), (1e300, 0.0), "got inf"),  # f * b overflows
        (((1.0, 1e308),), (0,), (1.0, -1e308), "got -inf"),  # a - f * b overflows
        (((1.0, 0.0, -0.0, 2.0), (0.0, 0.0, 1.0, 1e308)), (0, 2), (-0.0, 5.0, 1.0, -1e308), "got -inf"),
    ],
    ids=["product", "difference", "second-row"],
)
def test_contains_overflow_names_the_entry_of_the_scalar_reference(rows, pivots, v, message):
    a = make_algebra(R9, identity_rows(len(v)))
    sub = Subspace(a, Matrix.from_rows(R9, rows))
    assert [list(map(repr, row)) for row in sub.basis._rows] == [list(map(repr, row)) for row in rows]
    assert sub.pivot_cols == pivots
    u = a.element(v)
    with pytest.raises(NonFiniteValue) as want:
        scalar_contains(sub, u.coords)
    with pytest.raises(NonFiniteValue) as got:
        sub.contains(u)
    assert str(got.value) == str(want.value) and str(want.value).endswith(message)
