"""Field backends: parsing, arithmetic, and nonzero-root extraction."""

from __future__ import annotations

import itertools
import math
import random
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from evoalg import (
    EvolutionAlgebra,
    FieldScalar,
    FieldSpec,
    IdenticallyZeroPolynomial,
    LowDegreePoly,
    NonFiniteValue,
    ParseError,
    nonzero_roots,
    scalar_parse,
)
from evoalg.field import _dyadic_float, _is_prime, _root_intervals, _rounds_alike, _sturm_chain
from support import (
    F2,
    F3,
    F5,
    Q,
    R9,
    bisect_root,
    changes_sign_around,
    distinct_real_root_count,
    is_rational_raw,
    pool_divisors,
    rational_roots_by_divisors,
    real_root_brackets,
    trial_divisors,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        FieldSpec.prime_field(6)
    with pytest.raises(ValueError):
        FieldSpec.prime_field(1)
    with pytest.raises(ValueError):
        FieldSpec.approx_reals(0.0)
    with pytest.raises(ValueError):
        FieldSpec("weird")
    # JSON true is no modulus and no tolerance.
    with pytest.raises(ValueError, match="got True"):
        FieldSpec.prime_field(True)
    with pytest.raises(ValueError, match="got True"):
        FieldSpec.approx_reals(True)
    assert FieldSpec.prime_field(7).p == 7
    assert FieldSpec.approx_reals(1e-6).tol == 1e-6
    # From tol = 1/2 on, a difference within a factor of three of its terms
    # cancels: at 0.9 the regular [[1, 2], [3, 4]] read singular.
    for tol in (0.5, 0.9, 1, 1e300):
        with pytest.raises(ValueError, match="tolerance must be below 1/2"):
            FieldSpec.approx_reals(tol)
    assert FieldSpec.approx_reals(0.49).tol == 0.49


def test_parse_reduces_rationals():
    x = scalar_parse("-2/4", Q)
    assert x.value == Fraction(-1, 2)
    assert x.render() == "-1/2"


def test_parse_normalizes_residues():
    assert scalar_parse("7", F5).value == 2
    assert scalar_parse("-1", F5).value == 4
    assert scalar_parse("3/2", F5).value == (3 * pow(2, -1, 5)) % 5


def test_parse_zero_denominator():
    with pytest.raises(ParseError, match="zero denominator in '1/0'"):
        scalar_parse("1/0", Q)
    with pytest.raises(ParseError, match="denominator of '1/5' is zero in F_5"):
        scalar_parse("1/5", F5)


def test_parse_rejects_decimal_over_exact_fields():
    with pytest.raises(ParseError, match="decimal syntax requires the real field: '1.5'"):
        scalar_parse("1.5", Q)
    with pytest.raises(ParseError, match="decimal syntax requires the real field: '1e3'"):
        scalar_parse("1e3", F5)


def test_parse_real_syntax():
    assert scalar_parse("1.5", R9).value == 1.5
    assert scalar_parse("-2e-3", R9).value == -0.002
    assert scalar_parse(".5", R9).value == 0.5
    with pytest.raises(ParseError, match="fraction syntax is only for exact fields: '1/2'"):
        scalar_parse("1/2", R9)
    with pytest.raises(ParseError, match="not a real scalar: 'abc'"):
        scalar_parse("abc", R9)


@pytest.mark.parametrize("spec", [Q, F5])
def test_render_roundtrip_exact(spec):
    rng = random.Random(7)
    for _ in range(50):
        if spec is Q:
            x = FieldScalar(spec, Fraction(rng.randint(-40, 40), rng.randint(1, 12)))
        else:
            x = spec.from_int(rng.randrange(5))
        assert scalar_parse(x.render(), spec) == x


def test_render_roundtrip_reals():
    rng = random.Random(8)
    for _ in range(50):
        x = FieldScalar(R9, rng.uniform(-100, 100))
        assert scalar_parse(x.render(), R9).value == x.value


def test_exact_inverses():
    for k in range(1, 5):
        x = F5.from_int(k)
        assert (x * x.inv()).is_one()
    assert scalar_parse("2", F5).inv().value == 3
    rng = random.Random(3)
    for _ in range(50):
        x = FieldScalar(Q, Fraction(rng.randint(1, 60), rng.randint(1, 60)))
        assert (x * x.inv()).is_one()
        assert ((-x) * (-x).inv()).is_one()


def test_rational_addition():
    a = scalar_parse("1/2", Q)
    b = scalar_parse("1/3", Q)
    assert (a + b).value == Fraction(5, 6)


def test_inversion_of_zero():
    with pytest.raises(ZeroDivisionError, match="cannot invert zero in Q"):
        Q.zero().inv()
    with pytest.raises(ZeroDivisionError, match=r"cannot invert zero in R\(tol=1e-09\)"):
        FieldScalar(R9, 0.0).inv()
    # Zero over R is exact: a value below tol is no zero.
    assert FieldScalar(R9, 1e-12).inv().value == 1e12


def test_mixed_specs_rejected():
    with pytest.raises(ValueError, match="scalar over F_5 where Q is expected"):
        Q.one() + F5.one()


def test_polynomial_coefficients_are_scalars_of_one_field():
    one = Q.one()
    with pytest.raises(TypeError, match="expected a FieldScalar, got int"):
        LowDegreePoly(1, one, one, one)
    with pytest.raises(TypeError, match="expected a FieldScalar, got int"):
        LowDegreePoly(one, one, one, 1)
    with pytest.raises(ValueError, match="polynomial coefficients must share one field"):
        LowDegreePoly(one, F5.one(), one, one)


def test_real_equality_uses_tolerance():
    assert FieldScalar(R9, 1.0) == FieldScalar(R9, 1.0 + 1e-12)
    assert FieldScalar(R9, 1.0) != FieldScalar(R9, 1.0 + 1e-6)


def _near_pairs(tol, rng, count):
    """Pairs of floats: equal, a relative distance within a factor of ten
    of ``tol`` apart, unrelated, or with a zero."""
    for _ in range(count):
        x = rng.choice((1, -1)) * 10 ** rng.uniform(-300, 300)
        kind = rng.randrange(4)
        if kind == 0:
            yield x, x
        elif kind == 1:
            yield x, x * (1 + rng.choice((1, -1)) * tol * 10 ** rng.uniform(-1, 1))
        elif kind == 2:
            yield x, rng.choice((1, -1)) * 10 ** rng.uniform(-300, 300)
        else:
            yield rng.choice(((x, 0.0), (0.0, x), (0.0, -0.0)))


@pytest.mark.parametrize("tol", [1e-9, 1e-12])
def test_real_difference_is_zero_exactly_where_equal(tol):
    # One zero rule over R: a difference, a sum with the negation and the
    # linear polynomial x - y at x vanish exactly where == calls x and y
    # equal, as Element subtraction does.
    spec, rng, equal = FieldSpec.approx_reals(tol), random.Random(29), 0
    for a, b in _near_pairs(tol, rng, 4000):
        x, y = FieldScalar(spec, a), FieldScalar(spec, b)
        diffs = [x - y, y - x, x + (-y), -y + x]
        poly = LowDegreePoly(spec.zero(), spec.zero(), spec.one(), -y)
        assert [d.is_zero() for d in diffs + [poly.evaluate(x)]] == [x == y] * 5, (a, b)
        equal += x == y and a != b
        k = rng.randint(1, 10**6)
        z = FieldScalar(spec, k * (1 + rng.choice((1, -1)) * tol * 10 ** rng.uniform(-1, 1)))
        assert [(k - z).is_zero(), (z - k).is_zero(), (z + -k).is_zero()] == [spec.from_int(k) == z] * 3, (k, z)
    assert equal > 500
    assert ((FieldScalar(spec, 0.1) + FieldScalar(spec, 0.2)) - FieldScalar(spec, 0.3)).is_zero()


@pytest.mark.parametrize("spec", [Q, F2, F5, FieldSpec.prime_field(2**61 - 1)], ids=["Q", "F2", "F5", "F_big"])
def test_exact_operators_and_evaluate_are_plain_arithmetic(spec):
    # Over Q and F_p the kernel's row operations are exact, so every
    # operator and every evaluation gives what plain arithmetic on the raw
    # values gives once made canonical.
    rng = random.Random(30)

    def draw():
        if spec.kind == "Q":
            return Fraction(rng.randint(-10**6, 10**6), rng.choice((1, 1, 2, 3, 10**9 + 7)))
        return rng.randrange(-spec.p, 2 * spec.p)

    for _ in range(500):
        a, b, k = draw(), draw(), rng.randint(-50, 50)
        x, y = FieldScalar(spec, a), FieldScalar(spec, b)
        u, v = x.value, y.value
        got = [x + y, x - y, x * y, y + k, k + y, y - k, k - y, y * k, k * y]
        want = [u + v, u - v, u * v, v + k, k + v, v - k, k - v, v * k, k * v]
        assert [repr(g) for g in got] == [repr(FieldScalar(spec, w)) for w in want], (a, b, k)
        cs = [draw() for _ in range(4)]
        poly = LowDegreePoly(*(FieldScalar(spec, c) for c in cs))
        c3, c2, c1, c0 = (FieldScalar(spec, c).value for c in cs)
        for t in (x, k, 0):
            t_value = t.value if isinstance(t, FieldScalar) else t
            horner = ((c3 * t_value + c2) * t_value + c1) * t_value + c0
            assert repr(poly.evaluate(t)) == repr(FieldScalar(spec, horner)), (cs, t)


def test_scalar_pow():
    x = scalar_parse("2/3", Q)
    assert (x ** 3).value == Fraction(8, 27)
    assert (F5.from_int(2) ** 4).value == 1
    assert (x ** -1).value == Fraction(3, 2)
    # Repeated squaring: a huge exponent costs a product per bit.
    for spec, want in ((Q, Fraction(-1)), (F5, 4), (R9, -1.0)):
        start = time.perf_counter()
        assert (spec.from_int(-1) ** (10**9 + 1)).value == want
        assert time.perf_counter() - start < 1.0


def test_rational_division_results():
    # An integral quotient is an int, a proper one a Fraction; ``1 / x``
    # on two ints would be a float.
    assert (Q.from_int(2) ** -1).value == Fraction(1, 2)
    assert (Q.from_int(6) / 4).value == Fraction(3, 2)
    three = FieldScalar(Q, Fraction(1, 3)).inv().value
    assert three == 3 and type(three) is int


@pytest.mark.parametrize(
    "spec, value",
    [
        (Q, "1e4000000"),
        (Q, "0.5"),
        (Q, Decimal("0.1")),
        (Q, True),
        (F5, True),
        (R9, "1_0"),
        (R9, "1.5"),
        (R9, True),
        (R9, Decimal("0.1")),
    ],
    ids=[
        "Q-exponent-text",
        "Q-decimal-text",
        "Q-Decimal",
        "Q-bool",
        "F5-bool",
        "R-underscore-text",
        "R-text",
        "R-bool",
        "R-Decimal",
    ],
)
def test_scalar_constructor_refuses_other_types(spec, value):
    # Only an int (not a bool), over Q also a Fraction and over R also a
    # float or a Fraction, is a value: text goes through scalar_parse, which
    # refuses decimal syntax over exact fields and "1_0" everywhere.  The
    # refusal is immediate, whatever the exponent in the text.
    start = time.perf_counter()
    with pytest.raises(TypeError):
        FieldScalar(spec, value)
    assert time.perf_counter() - start < 0.1


def test_real_constructor_takes_floats_ints_and_fractions():
    assert [FieldScalar(R9, x).value for x in (0.5, -3, Fraction(1, 4))] == [0.5, -3.0, 0.25]
    assert type(FieldScalar(R9, -3).value) is float


def _poly(spec, c3, c2, c1, c0):
    return LowDegreePoly.from_values(spec, c3, c2, c1, c0)


def test_cubic_without_rational_roots():
    poly = _poly(Q, 1, 0, -1, -1)  # x^3 - x - 1
    assert nonzero_roots(poly) == []


def test_degenerate_quadratic_over_q():
    poly = _poly(Q, 0, -1, 1, 0)  # x - x^2
    roots = nonzero_roots(poly)
    assert [r.value for r in roots] == [1]


def test_cubic_over_f5_matches_independent_horner():
    poly = _poly(F5, 1, 0, -1, -1)
    roots = {r.value for r in nonzero_roots(poly)}
    expected = set()
    for x in range(1, 5):
        if (pow(x, 3, 5) - x - 1) % 5 == 0:
            expected.add(x)
    assert roots == expected == {2}


def test_fp_roots_agree_with_horner_at_random():
    rng = random.Random(99)
    for p, spec in ((2, F2), (3, F3), (5, F5)):
        for _ in range(40):
            coeffs = [rng.randrange(p) for _ in range(4)]
            poly = _poly(spec, *coeffs)
            if poly.is_zero():
                continue
            got = {r.value for r in nonzero_roots(poly)}
            want = set()
            for x in range(1, p):
                acc = 0
                for c in coeffs:
                    acc = (acc * x + c) % p
                if acc == 0:
                    want.add(x)
            assert got == want


def test_real_cubic_single_root():
    # Independent oracle: bisection on x^3 - x - 1 over [1, 2].
    expected = bisect_root(lambda x: x ** 3 - x - 1.0, 1.0, 2.0)
    poly = _poly(R9, 1, 0, -1, -1)
    roots = nonzero_roots(poly)
    assert len(roots) == 1
    lam = roots[0].value
    assert abs(lam - expected) <= 1e-9
    assert abs(lam ** 3 - lam - 1.0) <= 1e-9


def test_real_cubic_three_roots():
    # (x-1)(x-2)(x+3) = x^3 - 7x + 6
    poly = _poly(R9, 1, 0, -7, 6)
    roots = [r.value for r in nonzero_roots(poly)]
    assert len(roots) == 3
    for got, want in zip(roots, [-3.0, 1.0, 2.0]):
        assert abs(got - want) <= 1e-9


def test_real_cubic_excludes_zero_root():
    # x^3 - x^2 = x^2 (x - 1): only the nonzero root 1 is reported.
    poly = _poly(R9, 1, -1, 0, 0)
    roots = [r.value for r in nonzero_roots(poly)]
    assert len(roots) == 1
    assert abs(roots[0] - 1.0) <= 1e-9


def test_real_double_root():
    # (x-2)^2 = x^2 - 4x + 4, reported once (roots form a set).
    poly = _poly(R9, 0, 1, -4, 4)
    roots = [r.value for r in nonzero_roots(poly)]
    assert len(roots) == 1
    assert abs(roots[0] - 2.0) <= 1e-6


def test_real_cubic_double_root():
    # (x-1)^2 (x+2) = x^3 - 3x + 2
    poly = _poly(R9, 1, 0, -3, 2)
    roots = [r.value for r in nonzero_roots(poly)]
    assert len(roots) == 2
    assert abs(roots[0] + 2.0) <= 1e-7
    assert abs(roots[1] - 1.0) <= 1e-7


@pytest.mark.parametrize("tol", [1e-9, 1e-12])
def test_real_roots_are_pairwise_unequal_scalars(tol):
    # Cubics with dyadic roots, so that their float coefficients are nearly
    # always exact, two of them a relative distance near tol apart: some
    # pairs fall between tol and tol*(|x| + |y|), some below tol, some
    # above both.
    spec, rng, kept_close = FieldSpec.approx_reals(tol), random.Random(1503), 0
    for _ in range(300):
        r1, r3 = rng.choice((-1, 1)) * rng.randint(1, 80) / 8, rng.choice((-1, 1)) * rng.randint(1, 20) / 4
        r2 = r1 + 2.0 ** round(math.log2(abs(r1) * tol * 10 ** rng.uniform(-1, 1.5)))
        cs = [1, -(r1 + r2 + r3), r1 * r2 + r1 * r3 + r2 * r3, -r1 * r2 * r3]
        roots = nonzero_roots(_poly(spec, *cs))
        assert all(x != y for x, y in itertools.combinations(roots, 2)), (cs, roots)
        close = (abs(x.value - y.value) < 10 * tol * abs(x.value) for x, y in itertools.combinations(roots, 2))
        kept_close += any(close)
    assert kept_close >= 20


def test_real_residual_bound_holds():
    rng = random.Random(4242)
    for _ in range(200):
        coeffs = [rng.uniform(-5, 5) for _ in range(4)]
        poly = _poly(R9, *coeffs)
        scale = max(abs(c) for c in coeffs)
        for r in nonzero_roots(poly):
            val = poly.evaluate(r).value
            assert abs(val) <= 1e-9 * scale
            assert abs(r.value) > 1e-9


def test_rational_roots_found_exactly():
    # (2x - 1)(x + 3)(3x - 2) = 6x^3 + 11x^2 - 19x + 6... verify via expansion:
    # (2x-1)(x+3) = 2x^2 + 5x - 3; times (3x-2): 6x^3 + 15x^2 - 9x - 4x^2 - 10x + 6
    #             = 6x^3 + 11x^2 - 19x + 6
    poly = _poly(Q, 6, 11, -19, 6)
    roots = sorted(r.value for r in nonzero_roots(poly))
    assert roots == [Fraction(-3), Fraction(1, 2), Fraction(2, 3)]
    # (x + 4)^2 (5x + 9): a double root, and a dyadic one that bisection meets.
    assert [r.value for r in nonzero_roots(_poly(Q, 5, 49, 152, 144))] == [-4, Fraction(-9, 5)]


def test_rational_roots_with_fraction_coefficients():
    # x^3/2 - x/2 = (x)(x-1)(x+1)/2: nonzero roots are +-1.
    poly = LowDegreePoly(
        scalar_parse("1/2", Q), Q.zero(), scalar_parse("-1/2", Q), Q.zero()
    )
    roots = sorted(r.value for r in nonzero_roots(poly))
    assert roots == [Fraction(-1), Fraction(1)]


def test_identically_zero_polynomial_signalled():
    with pytest.raises(IdenticallyZeroPolynomial):
        nonzero_roots(_poly(Q, 0, 0, 0, 0))
    with pytest.raises(IdenticallyZeroPolynomial):
        nonzero_roots(_poly(R9, 0.0, 0.0, 0.0, 0.0))


def test_roots_never_contain_zero():
    rng = random.Random(11)
    for spec in (Q, F3, F5):
        for _ in range(60):
            coeffs = [rng.randint(-4, 4) for _ in range(4)]
            poly = _poly(spec, *coeffs)
            if poly.is_zero():
                continue
            for r in nonzero_roots(poly):
                assert not r.is_zero()
                assert poly.evaluate(r).is_zero()


def test_real_quadratic_roots_do_not_depend_on_scale():
    # -3e-6*x^2 - 1e-6*x has the nonzero root -1/3 at every scale; an
    # absolute floor in the discriminant test read it as a double root.
    for s in (1e-6, 1.0, 1e6):
        roots = [r.value for r in nonzero_roots(_poly(R9, 0, -3 * s, -s, 0))]
        assert len(roots) == 1 and abs(roots[0] + 1 / 3) <= 1e-12


def test_real_root_acceptance_is_relative_to_the_summed_terms():
    # 3e8*x^3 - 2e-8*x - 1e-3: against tol * max|c| = 0.3 the two false
    # candidates (residuals near 1e-3) passed; against the largest term of
    # the sum they fail, and the one real root still passes.
    cs = (3e8, 0.0, -2e-8, -1e-3)
    kern = R9._kernel
    assert not kern._residual_within(cs, 2.48e-4, 1.0)
    assert not kern._residual_within(cs, -5.39e-5, 1.0)
    (root,) = [r.value for r in nonzero_roots(_poly(R9, *cs))]
    assert f"{root:.4e}" == "1.4938e-04"
    assert kern._residual_within(cs, root, 1.0) and not kern.is_flagged_root(cs, root)


def test_real_cubic_with_vanishing_depressed_linear_term():
    # x^3 + 2e-9: p = 0 in the depressed form, one real root -cbrt(2e-9).
    roots = [r.value for r in nonzero_roots(_poly(R9, 1, 0, 0, 2e-9))]
    assert len(roots) == 1 and abs(roots[0] + 2e-9 ** (1 / 3)) <= 1e-15


@pytest.mark.parametrize("lead", [1e-8, 1e-12])
def test_real_cubic_keeps_small_roots_next_to_a_huge_one(lead):
    # lead*x^3 + x^2 - 3x + 2: roots near -1/lead, 1 and 2.  A closed form
    # evaluated acos near 1 here and lost one of the two small roots.
    cs = (lead, 1.0, -3.0, 2.0)
    roots = [r.value for r in nonzero_roots(_poly(R9, *cs))]
    assert len(roots) == 3
    assert [round(x * lead, 3) for x in roots[:1]] == [-1.0]
    assert [round(x, 6) for x in roots[1:]] == [1.0, 2.0]
    assert all(changes_sign_around(cs, x) for x in roots)


def test_real_roots_are_correctly_rounded():
    # x^3 - 2 and 3x^2 - 1: the floats nearest cbrt(2) and sqrt(1/3); the
    # double root 1 of -3x^3 + 5x^2 - x - 1 = -(x - 1)^2 (3x + 1) is exact.
    # A float is correctly rounded when the midpoints to its neighbours
    # bracket the root.
    (x,) = [r.value for r in nonzero_roots(_poly(R9, 1, 0, 0, -2))]
    below, above = ((Fraction(x) + Fraction(math.nextafter(x, t))) / 2 for t in (0, 2))
    assert below**3 < 2 < above**3
    assert [r.value for r in nonzero_roots(_poly(R9, 0, 3, 0, -1))] == [-(1 / 3) ** 0.5, (1 / 3) ** 0.5]
    assert [r.value for r in nonzero_roots(_poly(R9, -3, 5, -1, -1))] == [-1 / 3, 1.0]


def test_prime_field_refuses_non_int_values():
    with pytest.raises(TypeError):
        FieldScalar(F5, 1.5)
    with pytest.raises(TypeError):
        FieldScalar(F5, Fraction(7, 2))
    with pytest.raises(TypeError):
        EvolutionAlgebra.from_rows(F5, [[1.5, 0], [0, 2.9]])
    assert scalar_parse("7/2", F5).value == 1


def test_poly_render():
    assert _poly(Q, 1, 0, -1, -1).render() == "x^3 - x - 1"
    assert _poly(Q, 0, -1, 1, 0).render() == "-x^2 + x"
    assert _poly(Q, 0, 0, 0, 5).render() == "5"
    assert _poly(F5, 1, 0, 4, 2).render() == "x^3 + 4*x + 2"


def test_nonfinite_parse_rejected():
    with pytest.raises(ParseError, match="real scalar overflows to infinity: '1e999'"):
        scalar_parse("1e999", R9)


def test_real_cubic_overflow_raises_nonfinite():
    # x * (1e-300*x^2 - 1e300*x + 1) has a root near 1e600, beyond the floats.
    with pytest.raises(NonFiniteValue, match="real root search overflows"):
        nonzero_roots(_poly(R9, 1e-300, -1e300, 1, 0))


def test_real_root_near_the_float_limit_is_found():
    # x * (1e-8*x^2 - 1e300*x + 1): both roots, 1e-300 and 1e308, are finite
    # and nonzero.
    assert [r.value for r in nonzero_roots(_poly(R9, 1e-8, -1e300, 1, 0))] == [1e-300, 1e308]


def test_real_root_that_rounds_to_zero_is_dropped():
    # x * (x^2 + 1e300*x + 1e-300): the root near -1e-600 rounds to zero, so
    # only -1e300 is a nonzero root.
    assert R9._kernel.nonzero_roots((1.0, 1e300, 1e-300, 0.0)) == [-1e300]


def test_real_root_below_the_subnormals_stops_refining():
    # x^3 + 1e300*x + 1e-300 has one real root, near -1e-600.  Both ends of
    # its interval round to zero once it is narrower than 2^-1074, the
    # subnormal spacing, and the root is then dropped as zero.
    cs = (1.0, 0.0, 1e300, 1e-300)
    assert R9._kernel.nonzero_roots(cs) == []
    ((lo, hi, k),) = _root_intervals(_sturm_chain(map(Fraction, cs)), _rounds_alike)
    assert k == 1576
    assert _dyadic_float(lo, k) == _dyadic_float(hi, k) == 0.0


def test_real_zero_renders_unsigned():
    assert [FieldScalar(R9, x).render() for x in (-0.0, 0.0, -2e-9)] == ["0", "0", "-2.0000000000000001e-09"]
    assert repr(FieldScalar(R9, -0.0).value) == "-0.0"


def _trial_division_is_prime(n):
    return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(20_000) if _is_prime(n)] == [
        n for n in range(20_000) if _trial_division_is_prime(n)
    ]


def test_is_prime_rejects_strong_pseudoprimes():
    # Strong pseudoprimes to base 2, to bases 2..7, and to bases 2..31.
    for n in (2047, 3215031751, 3825123056546413051):
        assert not _is_prime(n)


def test_prime_modulus_beyond_certified_range_rejected():
    # The size is refused before any primality test runs.
    with pytest.raises(ValueError, match="too large"):
        FieldSpec.prime_field(10**25)


@pytest.mark.parametrize("spec", [Q, F2, FieldSpec.prime_field(7)], ids=["Q", "F2", "F7"])
def test_exact_row_operations_match_the_full_formula(spec):
    # The exact kernels pass an entry facing a zero of ``prow`` through
    # unmultiplied; the result is the canonical ``a + f*b`` (``a - f*b``)
    # computed for every entry.
    kern, rng = spec._kernel, random.Random(97)

    def draw():
        if rng.random() < 0.5:
            return kern.zero
        if spec == Q:
            return Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
        return rng.randrange(spec.p)

    for _ in range(300):
        n = rng.randint(0, 6)
        row, prow, f = [draw() for _ in range(n)], [draw() for _ in range(n)], draw()
        added = [kern.canonical(a + f * b) for a, b in zip(row, prow)]
        subtracted = [kern.canonical(a - f * b) for a, b in zip(row, prow)]
        assert kern.add_multiple(row, f, prow) == added
        assert kern.sub_multiple(row, f, prow) == subtracted
        assert all(is_rational_raw(x) if spec == Q else type(x) is int for x in added + subtracted)


def test_real_row_operations_compute_entries_facing_zeros():
    # -0.0 + f*0.0 is 0.0: passing -0.0 through would render as -0.
    kern = R9._kernel
    assert [repr(x) for x in kern.add_multiple([-0.0, -0.0], 2.0, [0.0, -0.0])] == ["0.0", "-0.0"]
    assert [repr(x) for x in kern.sub_multiple([-0.0], 2.0, [-0.0])] == ["0.0"]


def _kernel_roots(spec, cs):
    return spec._kernel.nonzero_roots(tuple(map(spec._kernel.canonical, cs)))


# Primes for the 30-digit rational cubics: their end coefficients are
# products of these, so the divisor scan can list their divisors.
_SMALL_PRIMES = (2, 3, 5, 7)
_BIG_PRIMES = (1000000007, 1000000009, 1000000021, 1000000033, 1000000087, 1000000093, 1000000097)


def _expand(*factors):
    """Coefficients of a product of integer polynomials, highest degree first."""
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


def _small_rational_cubics(rng, count):
    for k in range(count):
        if k % 2:
            yield [rng.randint(-30, 30) for _ in range(4)]
        else:  # a planted rational root b/a
            linear = [rng.randint(1, 6), rng.randint(-12, 12)]
            yield _expand(linear, [rng.randint(-9, 9) for _ in range(3)])


def _big_rational_cubics(rng, count):
    """Cubics with coefficients of about 30 digits: three planted rational
    roots, one planted root and a quadratic factor with a 20-digit middle
    coefficient, or random middle coefficients."""
    def unit():
        return rng.choice((1, -1)) * rng.choice(_SMALL_PRIMES)

    def big():
        return unit() * rng.choice(_BIG_PRIMES)

    for k in range(count):
        kind = k % 3
        if kind == 0:
            yield _expand(*([unit(), big()] for _ in range(3)))
        elif kind == 1:
            yield _expand([unit(), big()], [unit(), rng.randrange(10**19, 10**20), big() * big()])
        else:
            mid = [rng.randrange(-(10**30), 10**30) for _ in range(2)]
            yield [unit(), *mid, big() * big() * big()]


def test_rational_roots_match_the_divisor_scan_on_seeded_cubics():
    rng = random.Random(2026)
    pool = _SMALL_PRIMES + _BIG_PRIMES
    cases = [(ints, None) for ints in _small_rational_cubics(rng, 1000)]
    cases += [(ints, pool) for ints in _big_rational_cubics(rng, 1000)]
    planted = 0
    for ints, primes in cases:
        if not any(ints):
            continue
        divisors = trial_divisors if primes is None else (lambda n, primes=primes: pool_divisors(n, primes))
        want = rational_roots_by_divisors(ints, divisors)
        assert _kernel_roots(Q, ints) == want, ints
        planted += bool(want)
    assert planted > 1000


def _planted_real_cubics(rng, count):
    """Cubics with three planted roots of magnitude 1e-6..1e6, expanded in floats."""
    for _ in range(count):
        r1, r2, r3 = (rng.choice((1, -1)) * 10 ** rng.uniform(-6, 6) for _ in range(3))
        lead = rng.uniform(0.5, 2.0)
        yield (lead, -lead * (r1 + r2 + r3), lead * (r1 * r2 + r1 * r3 + r2 * r3), -lead * r1 * r2 * r3)


def _wide_real_cubics(rng, count):
    """Cubics whose coefficients have magnitudes 1e-12..1e12."""
    for _ in range(count):
        yield tuple(rng.choice((1, -1)) * 10 ** rng.uniform(-12, 12) for _ in range(4))


@pytest.mark.parametrize(
    "family", [_planted_real_cubics, _wide_real_cubics], ids=["planted-roots", "wide-coefficients"]
)
def test_real_roots_match_the_discriminant_on_seeded_cubics(family):
    # Every nonzero real root of the exact binary cubic is reported, merged
    # only where the field's equality merges it with the last kept, and each
    # reported root is one within an ulp.
    for cs in family(random.Random(77), 1000):
        got = _kernel_roots(R9, cs)
        brackets = real_root_brackets(cs)
        assert len(brackets) == distinct_real_root_count(cs), cs
        kept = []
        for lo, _ in brackets:
            if lo != 0 and not (kept and FieldScalar(R9, lo) == FieldScalar(R9, kept[-1])):
                kept.append(lo)
        assert len(got) == len(kept), cs
        assert all(changes_sign_around(cs, x) for x in got), cs
