"""Contract tests for the computable-real layer.

The 2**-k output contract is checked against exact rational evaluation where
the represented value is rational, and against higher-precision
self-evaluation where it is not.
"""

import math
import random
from fractions import Fraction as Q
from math import isqrt

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from qcbplab import creal as cr
from qcbplab.rationals import ceil_log2


def test_from_rational_examples():
    assert cr.from_rational(Q(1, 2)).approx(50) == Q(1, 2)
    assert cr.from_rational(0).approx(7) == 0
    assert cr.from_rational(Q(9, 8)).approx(3) == Q(9, 8)


def test_add_example():
    s = cr.add(cr.from_rational(Q(1, 3)), cr.from_rational(Q(1, 6)))
    assert abs(s.approx(20) - Q(1, 2)) <= Q(1, 2**20)


def test_sqrt2_squared_near_two():
    r2 = cr.sqrt_c(cr.from_rational(2))
    prod = cr.mul(r2, r2)
    assert abs(prod.approx(20) - 2) <= Q(1, 2**20)


def test_sub_self_is_zero():
    x = cr.sqrt_c(cr.from_rational(3))
    d = cr.abs_(cr.sub(x, x))
    for k in (0, 5, 20, 40):
        assert abs(d.approx(k)) <= Q(1, 2**k)


def test_memoized_purity():
    calls = []

    def program(k):
        calls.append(k)
        return Q(1, 3)

    x = cr.CReal(program)
    a, b = x.approx(9), x.approx(9)
    assert a == b and calls == [9]


# --- randomized expression trees against the exact oracle -----------------------

def _rand_tree(rng, depth):
    """Build (CReal, exact Fraction) pairs closed over +,-,*,/,max,min,abs."""
    if depth == 0 or rng.random() < 0.3:
        q = Q(rng.randint(-12, 12), rng.randint(1, 12))
        return cr.from_rational(q), q
    op = rng.choice(["add", "sub", "mul", "div", "max", "min", "abs"])
    x, xv = _rand_tree(rng, depth - 1)
    if op == "abs":
        return cr.abs_(x), abs(xv)
    y, yv = _rand_tree(rng, depth - 1)
    if op == "div":
        if abs(yv) < Q(1, 4):
            return cr.add(x, y), xv + yv
        return cr.div(x, y, abs(yv)), xv / yv
    fn = {"add": cr.add, "sub": cr.sub, "mul": cr.mul, "max": cr.max_, "min": cr.min_}[op]
    val = {"add": xv + yv, "sub": xv - yv, "mul": xv * yv, "max": max(xv, yv), "min": min(xv, yv)}[op]
    return fn(x, y), val


def test_arithmetic_against_exact_oracle():
    rng = random.Random(11)
    for _ in range(150):
        node, exact = _rand_tree(rng, 4)
        for k in (10, 33):
            assert abs(node.approx(k) - exact) <= Q(1, 2**k)


def test_consistency_invariant():
    rng = random.Random(12)
    for _ in range(60):
        node, _ = _rand_tree(rng, 3)
        a, b = node.approx(8), node.approx(21)
        assert abs(a - b) <= Q(1, 2**8) + Q(1, 2**21)


def test_div_needs_witness():
    x = cr.from_rational(1)
    y = cr.from_rational(Q(1, 3))
    with pytest.raises(ValueError, match="lower bound"):
        cr.div(x, y, 0)
    ok = cr.div(x, y, Q(1, 3))
    assert abs(ok.approx(20) - 3) <= Q(1, 2**20)


def test_scale_and_neg():
    x = cr.from_rational(Q(2, 3))
    assert abs(cr.scale(x, Q(-9, 2)).approx(25) - Q(-3)) <= Q(1, 2**25)
    assert cr.scale(x, -1).approx(5) == Q(-2, 3)


# --- elementary functions ---------------------------------------------------------

def test_sqrt_examples():
    s4 = cr.sqrt_c(cr.from_rational(4))
    assert abs(s4.approx(30) - 2) <= Q(1, 2**30)
    # independent floor-integer-sqrt oracle at much higher precision
    ref = Q(math.isqrt(2 * 4**60), 2**60)
    s2 = cr.sqrt_c(cr.from_rational(2))
    assert abs(s2.approx(10) - ref) <= Q(1, 2**10) + Q(1, 2**60)


def test_sqrt_contract_invariant():
    rng = random.Random(13)
    for _ in range(60):
        x = Q(rng.randint(0, 64), rng.randint(1, 16))
        if x > 4:
            continue
        s = cr.sqrt_c(cr.from_rational(x))
        for k in (6, 17):
            a = s.approx(k)
            assert abs(a * a - x) <= Q(1, 2 ** (k - 2)) + Q(1, 4**k)


def _sqrt_program_reference(x, w):
    """sqrt_c's program with its root written out, as it was before it called
    rationals.dyadic_sqrt_lower."""
    half_log = -(-ceil_log2(1 / w) // 2) if w > 0 else None

    def program(k):
        s = 2 * k + 2
        if half_log is not None:
            s = max(0, min(s, k + 1 + half_log))
        xa = max(x.approx(s), Q(0))
        return Q(isqrt((xa.numerator << (2 * k + 2)) // xa.denominator), 1 << (k + 1))

    return program


def test_sqrt_matches_its_written_out_root():
    """Every approximation keeps its value, with and without a witness, and
    where an approximation of x dips below 0."""
    rng = random.Random(36)
    for _ in range(150):
        q = Q(rng.randint(0, 2**rng.randint(0, 80)), rng.randint(1, 2**rng.randint(0, 80)))
        wobble = Q(rng.choice((-1, 0, 1)))
        x = cr.CReal(lambda k, q=q, wobble=wobble: q + wobble / 2 ** (k + 1))
        w = rng.choice((Q(0), q / rng.randint(1, 9)))
        ref = _sqrt_program_reference(x, w)
        root = cr.sqrt_c(x, w)
        for k in (0, 1, 7, rng.randint(0, 300), 300):
            assert root.approx(k) == ref(k)


def _recording(q):
    """The constant q as a CReal that records each precision it is asked for."""
    asked = []

    def program(k):
        asked.append(k)
        return q

    return cr.CReal(program), asked


def test_sqrt_witness_lowers_input_precision():
    x, asked = _recording(Q(1, 3))
    assert abs(cr.sqrt_c(x, Q(1, 4)).approx(100) ** 2 - Q(1, 3)) <= Q(1, 2**98)
    assert max(asked) <= 102
    x, asked = _recording(Q(1, 3))
    cr.sqrt_c(x).approx(100)
    assert asked == [202]


@pytest.mark.parametrize(
    "x",
    [cr.from_rational(Q(2**200 + 1, 3**120)), cr.exp_c(cr.from_rational(Q(1, 3)))],
    ids=["long-rational", "exp"],
)
def test_sqrt_rounds_to_k_plus_one_fractional_bits(x):
    # the input approximation's denominator does not reach the root's
    a = cr.sqrt_c(x).approx(40)
    den = a.denominator
    assert den & (den - 1) == 0 and den <= 2**41
    assert a >= 0 and abs(a * a - x.approx(200)) <= Q(1, 2**38) * (2 * a + 1)


def test_sqrt_rejects_negative_witness():
    with pytest.raises(ValueError):
        cr.sqrt_c(cr.from_rational(1), lower_witness=Q(-1))


def test_negative_precision_index_rejected():
    with pytest.raises(ValueError, match="precision index must be >= 0"):
        cr.from_rational(1).approx(-1)


def test_recip_reports_a_violated_witness():
    # the witness claims |y| >= 1, but y is 0: the approximation exposes it
    with pytest.raises(ArithmeticError, match="separation witness violated"):
        cr.recip(cr.from_rational(0), 1).approx(3)


def test_approximation_sizes_follow_precision():
    # about k fractional bits, not the 10**5-bit rationals of exact series sums
    # and squarings
    k = 200
    values = (
        cr.exp_c(cr.from_rational(Q(193, 3))).approx(k),
        cr.log_c(cr.from_rational(Q(733749, 34)), Q(733749, 68)).approx(k),
    )
    for v in values:
        assert v.numerator.bit_length() <= k + 100
        assert v.denominator.bit_length() <= k + 100


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    st.fractions(min_value=-100, max_value=100, max_denominator=2**20),
    st.fractions(min_value=Q(-1), max_value=Q(1), max_denominator=2**40).filter(lambda c: 0 < abs(c) < 1),
    st.integers(0, 80),
)
def test_scale_below_one_within_contract(x, c, k):
    # the input errs by the full 2**-k it is allowed at every precision
    x_loose = cr.CReal(lambda j: x + Q(1, 2**j))
    assert abs(cr.scale(x_loose, c).approx(k) - c * x) <= Q(1, 2**k)
    exact, asked = _recording(x)
    cr.scale(exact, c).approx(k)
    assert asked == [max(k + ceil_log2(abs(c)), 0)]


@pytest.mark.parametrize("e", [1, 5, 40])
@pytest.mark.parametrize("k", [0, 3, 200])
def test_scale_by_power_of_two_lowers_input_precision(e, k):
    x, asked = _recording(Q(7, 3))
    assert cr.scale(x, Q(1, 2**e)).approx(k) == Q(7, 3) / 2**e
    assert asked == [max(k - e, 0)]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.fractions(max_denominator=2**40), st.fractions(max_denominator=2**40), st.integers(0, 300))
def test_mul_rounds_within_contract(x, y, k):
    a = cr.mul(cr.from_rational(x), cr.from_rational(y)).approx(k)
    assert abs(a - x * y) <= Q(1, 2**k)
    assert a == x * y or (1 << (k + 1)) % a.denominator == 0


def test_exp_examples():
    e0 = cr.exp_c(cr.from_rational(0))
    assert abs(e0.approx(35) - 1) <= Q(1, 2**35)
    e1 = cr.exp_c(cr.from_rational(1))
    assert abs(float(e1.approx(45)) - math.e) < 1e-12


def test_log_examples_and_witness():
    lg = cr.log_c(cr.from_rational(1), Q(1, 2))
    assert abs(lg.approx(30)) <= Q(1, 2**30)
    lg10 = cr.log_c(cr.from_rational(10), Q(5))
    assert abs(float(lg10.approx(45)) - math.log(10)) < 1e-12
    with pytest.raises(ValueError, match="witness"):
        cr.log_c(cr.from_rational(2), Q(0))


def test_elementary_dispatcher():
    four = cr.from_rational(4)
    assert abs(cr.elementary(four, "sqrt").approx(20) - 2) <= Q(1, 2**20)
    assert abs(cr.elementary(cr.from_rational(0), "exp").approx(20) - 1) <= Q(1, 2**20)
    assert abs(cr.elementary(four, "log", Q(4)).approx(20) - cr.log_c(four, Q(4)).approx(20)) == 0
    with pytest.raises(ValueError, match="witness"):
        cr.elementary(four, "log")
    with pytest.raises(ValueError, match="unknown"):
        cr.elementary(four, "sin")


def test_exp_log_self_consistency():
    rng = random.Random(14)
    for _ in range(10):
        q = Q(rng.randint(1, 40), rng.randint(1, 10))
        node = cr.log_c(cr.exp_c(cr.from_rational(q)), Q(1, 2))
        # exp(q) >= 1 for q >= 0, so witness 1/2 is always valid here
        assert abs(node.approx(25) - q) <= Q(1, 2**24)


# --- against mpmath at 300 digits ----------------------------------------------------

# name -> (arguments; computable value at a rational; mpmath reference)
_ELEMENTARY = {
    "sqrt": (
        st.fractions(0, 32, max_denominator=1024),
        lambda q: cr.sqrt_c(cr.from_rational(q)),
        mpmath.sqrt,
    ),
    "exp": (
        st.fractions(-64, 64, max_denominator=1024),
        lambda q: cr.exp_c(cr.from_rational(q)),
        mpmath.exp,
    ),
    "log": (
        st.fractions(Q(1, 1024), 32, max_denominator=1024),
        lambda q: cr.log_c(cr.from_rational(q), q / 2),
        mpmath.log,
    ),
}


@pytest.mark.parametrize("func", sorted(_ELEMENTARY))
def test_elementary_against_mpmath(func):
    values, build, reference = _ELEMENTARY[func]

    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(values)
    def check(q):
        node = build(q)
        with mpmath.workdps(300):
            ref = reference(mpmath.mpf(q.numerator) / q.denominator)
            for k in (40, 200):
                a = node.approx(k)
                assert abs(mpmath.mpf(a.numerator) / a.denominator - ref) <= mpmath.mpf(2) ** -k

    check()


# --- comparison --------------------------------------------------------------------

def test_compare_examples():
    assert cr.compare(cr.from_rational(0), cr.from_rational(1), 4) == cr.LT
    x = cr.sqrt_c(cr.from_rational(2))
    assert cr.compare(x, x, 12) is cr.UNDECIDED
    assert cr.compare(x, cr.from_rational(Q(3, 2)), 8) == cr.LT


def test_compare_soundness_on_rationals():
    rng = random.Random(15)
    for _ in range(100):
        a = Q(rng.randint(-20, 20), rng.randint(1, 10))
        b = Q(rng.randint(-20, 20), rng.randint(1, 10))
        got = cr.compare(cr.from_rational(a), cr.from_rational(b), 24)
        if got == cr.LT:
            assert a < b
        elif got == cr.GT:
            assert a > b
        else:
            assert a == b  # identical rationals never separate


def test_compare_never_claims_equality():
    x = cr.from_rational(Q(5, 7))
    for budget in (0, 3, 30):
        assert cr.compare(x, cr.from_rational(Q(5, 7)), budget) is cr.UNDECIDED


# --- effective limits ---------------------------------------------------------------

def test_effective_limit_closed_form():
    def xs(n, k):
        return Q(1, n) + Q(1, 2**k)

    limit = cr.effective_limit(xs, lambda n, big_n: big_n)
    for n in (1, 2, 9):
        assert abs(limit(n).approx(20) - Q(1, n)) <= Q(1, 2**20)


def test_effective_limit_constant():
    limit = cr.effective_limit(lambda n, k: Q(7, 3), lambda n, b: 0)
    assert limit(4).approx(33) == Q(7, 3)


def test_effective_limit_fresh_at_high_precision():
    # a fresh limit asked for 2000 bits at once evaluates its modulus once,
    # with no recursion over smaller precisions
    limit = cr.effective_limit(lambda n, k: Q(1, n + 1) + Q(1, 2**k), lambda n, big_n: big_n)
    assert abs(limit(1).approx(2000) - Q(1, 2)) <= Q(1, 2**2000)
