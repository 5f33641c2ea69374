"""Exactness and ordering tests for the rational substrate."""

import random
from fractions import Fraction as Q

import pytest

from qcbplab.rationals import (
    CZERO,
    ComplexQ,
    RationalMatrix,
    RationalVector,
    ceil_log2,
    complex_from_json,
    complex_to_json,
    dyadic_sqrt_lower,
    dyadic_sqrt_upper,
    fmt_rational,
    l1_norm_real,
    l2_norm_sq,
    matrix_from_json,
    matrix_to_json,
    operator_norm_sq_upper,
    parse_rational,
    row_rank,
)


def rand_q(rng, lo=-8, hi=8, max_den=16):
    return Q(rng.randint(lo, hi), rng.randint(1, max_den))


def test_division_by_zero_is_reported():
    z = ComplexQ(Q(1, 3), Q(-2))
    with pytest.raises(ZeroDivisionError, match="division by zero"):
        z / CZERO
    with pytest.raises(ZeroDivisionError, match="division by zero"):
        z / (z - z)


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
        if w.abs_sq() != 0:
            assert (z * w) / w == z
        conj = ComplexQ(z.re, -z.im)
        assert (z * conj).re == z.abs_sq()
        assert (z * conj).im == 0


def test_row_rank_exact_on_tiny_perturbations():
    tiny = Q(1, 2**50)
    m = RationalMatrix.from_rows([[1, 1], [1, 1 + tiny]])
    assert row_rank(m) == 2
    assert row_rank(RationalMatrix.from_rows([[1, 1], [2, 2]])) == 1
    assert row_rank(RationalMatrix.from_rows([[2, 1, 0], [0, 0, 1]])) == 2


def test_operator_norm_upper_bound_single_row_exact():
    m = RationalMatrix.from_rows([[2, 1]])
    assert operator_norm_sq_upper(m) == 5  # frobenius is the operator norm for one row
    m2 = RationalMatrix.from_rows([[1, 0, 0], [0, 1, 0]])
    assert operator_norm_sq_upper(m2) >= 1


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
