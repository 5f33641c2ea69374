"""Exactness and ordering tests for the rational substrate."""

import math
import random
import struct
import sys
from fractions import Fraction as Q
from math import isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

import certify_reference as ref
from l1_reference import l1_norm_real
from qcbplab.rationals import (
    ComplexQ,
    RationalMatrix,
    RationalVector,
    abs_upper_ints,
    ceil_log2,
    complex_from_json,
    complex_to_json,
    dyadic_sqrt_lower,
    dyadic_sqrt_upper,
    float_sqrt_ints,
    fmt_rational,
    l2_norm_sq,
    matrix_from_json,
    matrix_to_json,
    operator_norm_sq_upper,
    parse_rational,
    row_rank,
    scaled_integers,
    sqrt_upper_ints,
)


def rand_q(rng, lo=-8, hi=8, max_den=16):
    return Q(rng.randint(lo, hi), rng.randint(1, max_den))


def test_field_axioms_randomized():
    rng = random.Random(2)
    for _ in range(200):
        a, b, c = rand_q(rng), rand_q(rng), rand_q(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a


def test_canonical_form_maintained():
    rng = random.Random(3)
    for _ in range(100):
        a, b = rand_q(rng), rand_q(rng)
        for r in (a + b, a * b, a - b):
            assert r.denominator > 0
            from math import gcd

            assert gcd(abs(r.numerator), r.denominator) == 1
    # canonicalization is idempotent by construction
    assert Q(2, 6) == Q(1, 3) == Q(Q(2, 6))


def test_l2_norm_sq_examples():
    assert l2_norm_sq(RationalVector.from_items([1, 0])) == 1
    assert l2_norm_sq(RationalVector.from_items([Q(3, 5), Q(4, 5)])) == 1
    for n in (1, 5, 17, 40):
        v = RationalVector.from_items([Q(1, 2**n), -Q(1, 2**n)])
        # independent evaluation with plain integers
        expected = Q(2, 4**n)
        assert l2_norm_sq(v) == expected


def test_l2_norm_zero_iff_zero_vector():
    rng = random.Random(5)
    for _ in range(50):
        items = [rand_q(rng) for _ in range(4)]
        v = RationalVector.from_items(items)
        assert (l2_norm_sq(v) == 0) == all(q == 0 for q in items)


def test_l1_norm_real_examples_and_rejection():
    assert l1_norm_real(RationalVector.from_items([Q(1, 2), 0])) == Q(1, 2)
    assert l1_norm_real(RationalVector.from_items([0] * 5)) == 0
    assert l1_norm_real(RationalVector.from_items([Q(1, 4), Q(1, 4)])) == Q(1, 2)
    bad = RationalVector((ComplexQ(Q(1), Q(1)),))
    with pytest.raises(ValueError, match="imaginary"):
        l1_norm_real(bad)


def test_complex_arithmetic_roundtrip():
    rng = random.Random(6)
    for _ in range(50):
        z = ComplexQ(rand_q(rng), rand_q(rng))
        w = ComplexQ(rand_q(rng), rand_q(rng))
        assert (z * w) * ComplexQ(w.re, -w.im) == z * ComplexQ(w.abs_sq(), Q(0))
        conj = ComplexQ(z.re, -z.im)
        assert (z * conj).re == z.abs_sq()
        assert (z * conj).im == 0


def test_row_rank_exact_on_tiny_perturbations():
    big = 2**50  # the rows [1, 1] and [1, 1 + 2**-50], scaled by 2**50
    assert row_rank([[big, big], [big, big + 1]]) == 2
    assert row_rank([[1, 1], [2, 2]]) == 1
    assert row_rank([[2, 1, 0], [0, 0, 1]]) == 2


def test_operator_norm_upper_bound_single_row_exact():
    assert operator_norm_sq_upper([[2, 1, 0, 0]], 1) == 5  # frobenius is the operator norm for one row
    assert operator_norm_sq_upper([[6, 3, 0, 0]], 3) == 5  # the same rational over any common denominator
    assert operator_norm_sq_upper([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]], 1) >= 1


def test_dyadic_sqrt_enclosure():
    rng = random.Random(7)
    for _ in range(100):
        q = abs(rand_q(rng)) + Q(rng.randint(0, 3))
        lo = dyadic_sqrt_lower(q, 30)
        hi = dyadic_sqrt_upper(q, 30)
        assert lo * lo <= q <= hi * hi
        assert hi - lo <= Q(2, 2**30)
    assert dyadic_sqrt_upper(Q(9, 4)) == Q(3, 2)  # perfect square stays exact
    assert dyadic_sqrt_lower(Q(0), 10) == 0


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    q=st.fractions(0, 10**6, max_denominator=10**6),
    shift=st.integers(-200, 200),
    prec=st.integers(0, 120),
)
def test_dyadic_sqrt_lower_is_the_dyadic_floor(q, shift, prec):
    """d is on the 2**-prec grid, and the root lies in [d, d + 2**-prec)."""
    q *= Q(2) ** shift
    d = dyadic_sqrt_lower(q, prec)
    step = Q(1, 2**prec)
    assert (d / step).denominator == 1
    assert d * d <= q < (d + step) ** 2


def _float_roots(sq):
    return float_sqrt_ints(sq.numerator, sq.denominator)


def _even(f):
    """Whether the float's significand ends in a 0 bit: the float ties go to."""
    return struct.unpack("<q", struct.pack("<d", f))[0] % 2 == 0


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(q=st.fractions(Q(1, 10**12), 10**12, max_denominator=10**12), shift=st.integers(-2150, 2000))
@example(q=Q(0), shift=0)
@example(q=Q(1), shift=-1022)  # the least normal float64
@example(q=Q((2**53 - 1) ** 2), shift=1942)  # the square of the largest float64
def test_float_sqrt_ints_floor_is_the_float_floor_of_the_root(q, shift):
    """Over float64's whole range, subnormal roots and 0.0 included: the floor
    is the largest float whose square is at most sq, and the nearest float is
    the floor or its successor, by the squared midpoint."""
    sq = q * Q(2) ** shift
    floor, nearest = _float_roots(sq)
    up = math.nextafter(floor, math.inf)
    assert Q(floor) ** 2 <= sq and (up == math.inf or sq < Q(up) ** 2)
    if up == math.inf:
        assert nearest == floor
    else:
        mid_sq = ((Q(floor) + Q(up)) / 2) ** 2
        assert nearest == (floor if sq < mid_sq or (sq == mid_sq and _even(floor)) else up)


def test_float_sqrt_ints_nearest_at_squares_and_midpoints():
    assert float_sqrt_ints(0, 1) == float_sqrt_ints(0, 7) == (0.0, 0.0)
    tiny = 5e-324
    floats = [1.0, math.nextafter(1.0, 2), 0.75, 1.5e300, 6.666666666666666e149, tiny, 3 * tiny]
    floats += [sys.float_info.min, math.nextafter(sys.float_info.min, 0), sys.float_info.max]
    for f in floats:  # an exact float square has its own root as both floats
        assert _float_roots(Q(f) ** 2) == (f, f), f
    for f in floats[:-1] + [0.0]:
        up = math.nextafter(f, math.inf)
        mid_sq = ((Q(f) + Q(up)) / 2) ** 2
        # the second step is far below the scaled quotient's resolution
        for step in (mid_sq / 2**80, mid_sq / 2**400):
            assert _float_roots(mid_sq - step) == (f, f), f
            assert _float_roots(mid_sq + step) == (f, up), f
        assert _float_roots(mid_sq) == (f, f if _even(f) else up), f  # ties to even
    # the two sides of a tie: 1 + 2**-53 rounds down to 1, 1 + 3 2**-53 up to 1 + 2**-51
    assert _float_roots((1 + Q(1, 2**53)) ** 2) == (1.0, 1.0)
    assert _float_roots((1 + Q(3, 2**53)) ** 2) == (1 + 2**-52, 1 + 2**-51)
    # below the least subnormal the floor is 0.0; the tie at 2**-1075 goes to 0.0
    assert _float_roots(Q(1, 2**2150)) == (0.0, 0.0)
    assert _float_roots(Q(1, 2**2149)) == (0.0, tiny)


def test_float_sqrt_ints_overflows_exactly_past_the_largest_float():
    big = sys.float_info.max  # (2**53 - 1) 2**971, odd, so its upper tie goes to 2**1024
    mid_sq = (Q(big) + Q(2) ** 1023 / 2**53) ** 2
    assert mid_sq.denominator == 1
    assert _float_roots(mid_sq - 1) == (big, big)
    for sq in (mid_sq, mid_sq + 1, Q(4) ** 1024, Q(10) ** 700):
        with pytest.raises(OverflowError):
            _float_roots(sq)


def _assert_tight_upper_root(u, q, prec):
    """u >= sqrt(q) and u - 2**-prec <= sqrt(q), by squares."""
    assert u * u >= q
    below = u - Q(1, 2**prec)
    assert below <= 0 or below * below <= q


def test_sqrt_upper_ints_reduces_first():
    """Unreduced (g num, g den) give dyadic_sqrt_upper's value for num/den: the bound reads the reduced denominator."""
    rng = random.Random(12)
    cases = [(0, 1), (0, 7), (1, 1), (9, 4), (25, 49), (2**1000, 1), (1, 2**1000), (9 * 2**1000, 4)]
    cases += [(rng.randrange(1, 10**6), rng.randrange(1, 10**6)) for _ in range(100)]
    cases += [(rng.randrange(1, 2**1001), rng.randrange(1, 2**1001)) for _ in range(20)]
    cases += [(r * r, s * s) for r, s in ((rng.randrange(1, 10**9), rng.randrange(1, 10**9)) for _ in range(20))]
    for num, den in cases:
        q = Q(num, den)
        for g in (1, 2, 3, 2**1000, rng.randrange(2, 10**12)):
            for prec in (0, 10, 40):
                p, d = sqrt_upper_ints(g * num, g * den, prec)
                assert d > 0
                assert Q(p, d) == dyadic_sqrt_upper(q, prec), (num, den, g, prec)
                _assert_tight_upper_root(Q(p, d), q, prec)
        rn, rd = isqrt(q.numerator), isqrt(q.denominator)
        if rn * rn == q.numerator and rd * rd == q.denominator:
            assert Q(*sqrt_upper_ints(7 * num, 7 * den)) == Q(rn, rd)  # exact on perfect squares
    assert sqrt_upper_ints(0, 5) == (0, 1)
    with pytest.raises(ValueError, match="square root of a negative rational"):
        sqrt_upper_ints(-4, 2)


_PART = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(2**200), 2**200))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    entries=st.lists(st.tuples(_PART, st.one_of(st.just(0), _PART)), min_size=1, max_size=5),
    den=st.one_of(
        st.just(1),
        st.integers(1, 80).map(lambda k: 1 << k),
        st.integers(0, 10**6).map(lambda k: 2 * k + 1),
        st.just((2**61 - 1) * (2**89 - 1)),
    ),
)
def test_abs_upper_ints_is_a_tight_upper_bound_exact_on_real_entries(entries, den):
    """M[j]/w >= |re + i im|/den, equal when im = 0, and within 2**-40 otherwise, by squares."""
    v = [re for re, _ in entries] + [im for _, im in entries]
    mags, w = abs_upper_ints(v, den)
    assert w == den * den << 40 and len(mags) == len(entries)
    for big, (re, im) in zip(mags, entries):
        assert (big * den) ** 2 >= (re * re + im * im) * w * w
        if im == 0:
            assert big * den == abs(re) * w
        below = Q(big, w) - Q(1, 2**40)
        assert below <= 0 or below * below <= Q(re * re + im * im, den * den)


def _norm_case(rng, m, n):
    """Complex rows, some with perfect-square magnitudes; a diagonal shape for the Holder side."""
    square = [ComplexQ(Q(3), Q(4)), ComplexQ(Q(5, 13), Q(-12, 13)), ComplexQ(Q(-8, 17), Q(15, 17))]

    def entry():
        kind = rng.randrange(4)
        scale = Q(rng.randint(1, 9), rng.choice((1, 2, 3, 7, 2**40)))
        if kind == 0:
            e = rng.choice(square)
            return ComplexQ(e.re * scale, e.im * scale)
        if kind == 1:
            return ComplexQ(Q(rng.randint(-9, 9)) * scale, Q(0))
        if kind == 2:
            return ComplexQ(Q(0), Q(0))
        return ComplexQ(Q(rng.randint(-9, 9), rng.randint(1, 9)), Q(rng.randint(1, 9), rng.randint(1, 9)))

    if rng.random() < 0.4:
        return [[entry() if i == j else ComplexQ(Q(0), Q(0)) for j in range(n)] for i in range(m)]
    return [[entry() for _ in range(n)] for _ in range(m)]


def test_norm_bound_equals_fraction_reference_on_both_sides_of_the_min():
    """The integer norm bound equals the Fraction one whether Frobenius or Holder is smaller."""
    rng = random.Random(29)
    sides = set()
    for _ in range(400):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        rows = _norm_case(rng, m, n)
        mat = RationalMatrix(tuple(tuple(r) for r in rows))
        ints, den = scaled_integers([[e.re for e in r] + [e.im for e in r] for r in rows])
        got = operator_norm_sq_upper(ints, den)
        assert got == ref.operator_norm_sq_upper(mat), mat
        fro = sum((e.abs_sq() for r in rows for e in r), Q(0))
        sides.add(got == fro)
    assert sides == {True, False}


def test_one_row_norm_bound_equals_fraction_reference():
    """One row returns its Frobenius bound, forming no magnitudes: the Holder
    bound is never below it.  Real and complex rows, tied magnitudes
    (a permuted or conjugated entry, a sign flip) and denominators up to 2**40."""
    rng = random.Random(43)
    dens = (1, 3, 7, 2**20, 2**40, 3 * 2**38)
    for _ in range(300):
        n = rng.randint(1, 6)
        cplx = rng.random() < 0.5

        def part():
            return Q(rng.randint(-2**20, 2**20), rng.choice(dens))

        row = [ComplexQ(part(), part() if cplx else Q(0)) for _ in range(n)]
        for _ in range(rng.randint(0, n)):  # an entry of the same magnitude as another
            e = row[rng.randrange(n)]
            row[rng.randrange(n)] = rng.choice((ComplexQ(-e.re, e.im), ComplexQ(e.im, e.re), ComplexQ(e.re, -e.im)))
        mat = RationalMatrix((tuple(row),))
        ints, den = scaled_integers([[e.re for e in row] + [e.im for e in row]])
        got = operator_norm_sq_upper(ints, den)
        assert got == ref.operator_norm_sq_upper(mat) == l2_norm_sq(RationalVector(tuple(row))), mat


def test_ceil_log2():
    rng = random.Random(8)
    qs = [abs(rand_q(rng)) for _ in range(100)]
    for e in (-301, -300, -299, -1, 0, 1, 299, 300, 301):
        p = Q(2) ** e
        odd = 2 * rng.randrange(1, 2**40) + 1
        qs += [p, p + Q(1, odd * 2**320), p - Q(1, odd * 2**320), p * Q(odd, odd + 2)]
    for q in qs:
        if q == 0:
            continue
        t = ceil_log2(q)
        assert Q(2) ** t >= q
        assert Q(2) ** (t - 1) < q
    with pytest.raises(ValueError, match="positive rational"):
        ceil_log2(Q(0))


def test_serialization_roundtrip():
    assert fmt_rational(Q(9, 8)) == "9/8"
    assert fmt_rational(Q(3)) == "3"
    assert parse_rational("9/8") == Q(9, 8)
    assert parse_rational("-7/3") == Q(-7, 3)
    z = ComplexQ(Q(1, 3), Q(-2, 7))
    assert complex_from_json(complex_to_json(z)) == z
    m = RationalMatrix.from_rows([[Q(9, 8), 1], [0, Q(-1, 2)]])
    assert matrix_from_json(matrix_to_json(m)) == m


def test_matvec_exact():
    m = RationalMatrix.from_rows([[2, 1], [0, 1]])
    v = RationalVector.from_items([Q(1, 2), Q(1, 3)])
    out = m.matvec(v)
    assert out.entries[0].re == Q(4, 3)
    assert out.entries[1].re == Q(1, 3)


def test_negative_roots_and_shape_mismatches_raise():
    for root in (lambda q: dyadic_sqrt_lower(q, 4), dyadic_sqrt_upper, _float_roots):
        with pytest.raises(ValueError, match="square root of a negative rational"):
            root(Q(-1))
    with pytest.raises(ValueError, match="vector length mismatch: 2 vs 3"):
        RationalVector.from_items([1, 2]) - RationalVector.from_items([1, 2, 3])
    with pytest.raises(ValueError, match="matvec dimension mismatch"):
        RationalMatrix.from_rows([[1, 2]]).matvec(RationalVector.from_items([1, 2, 3]))
