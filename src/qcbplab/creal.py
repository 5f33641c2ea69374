"""Computable reals as effective approximation programs.

A :class:`CReal` wraps a pure function ``k -> rational`` whose value is within
2**-k of the represented real for every precision index k.  Every operation
here re-derives that contract: it requests its inputs at internally computed
higher precisions chosen so the output error budget is met, with the budget
split written next to the code that spends it.  Nothing is heuristic.
Products and series sums are rounded to dyadics with k+1 fractional bits
(after Boehm, PLDI 2020), so approximation sizes follow the precision asked
for rather than the depth of the expression.

Equality of computable reals is undecidable, so comparison is semi-decided
under an explicit precision budget and UNDECIDED is an ordinary return value,
never an error and never a claim of equality.

Division and logarithm require a caller-supplied rational separation witness
(a positive lower bound on the relevant magnitude).  Searching for such a
witness is only semi-decidable, so demanding it keeps every operation total.
"""

from __future__ import annotations

from fractions import Fraction as Q
from typing import Callable

from qcbplab.rationals import ceil_log2, dyadic_sqrt_lower

LT, GT = -1, 1
UNDECIDED = None

_TWO = Q(2)


def _pow2(k: int) -> Q:
    return _TWO ** k


class CReal:
    """A computable real: program mapping precision index k to a rational.

    Contract: ``|approx(k) - x| <= 2**-k`` for the represented real x, for
    every k >= 0.  Approximators must be pure; results are memoized per k so
    repeated precision requests (comparison loops, nested operations) are
    cheap and observably deterministic.  Values are immutable and programs
    pure, so sharing across threads is safe; a cache race at worst recomputes
    the identical rational.
    """

    __slots__ = ("_program", "_cache")

    def __init__(self, program: Callable[[int], Q]):
        self._program = program
        self._cache: dict[int, Q] = {}

    def approx(self, k: int) -> Q:
        if k < 0:
            raise ValueError("precision index must be >= 0")
        got = self._cache.get(k)
        if got is None:
            got = Q(self._program(k))
            self._cache[k] = got
        return got

    def __repr__(self) -> str:  # repr stays cheap: precision 8 peek only
        return f"CReal({self.approx(8)}~)"


def from_rational(q: Q | int) -> CReal:
    """The constant program: every rational is computable at every precision."""
    qq = Q(q)
    return CReal(lambda k: qq)


def add(x: CReal, y: CReal) -> CReal:
    # budget: 2 * 2**-(k+2) = 2**-(k+1) <= 2**-k
    return CReal(lambda k: x.approx(k + 2) + y.approx(k + 2))


def sub(x: CReal, y: CReal) -> CReal:
    return CReal(lambda k: x.approx(k + 2) - y.approx(k + 2))


def _round(q: Q, k: int) -> Q:
    """q kept exact when its denominator is at most 2**(k+1), else rounded
    down to a multiple of 2**-(k+1); either way the error is below 2**-(k+1).

    Rounding keeps approximations at about k fractional bits; keeping small
    denominators exact keeps short rationals (a quotient of two exact inputs,
    say) short for the series that raise them to powers.
    """
    den = q.denominator
    if den <= 1 << (k + 1):
        return q
    return Q((q.numerator << (k + 1)) // den, 1 << (k + 1))


def _magnitude_bound(x: CReal) -> Q:
    # |x| <= |approx(0)| + 1; padded by 1 more so it also bounds any
    # approximation of x at precision >= 0.
    return abs(x.approx(0)) + 2


def mul(x: CReal, y: CReal) -> CReal:
    def program(k: int) -> Q:
        bound = _magnitude_bound(x) + _magnitude_bound(y)
        s = k + 1 + max(1, ceil_log2(bound))
        # |x~y~ - xy| <= |x~||y~-y| + |y||x~-x| <= bound * 2**-s <= 2**-(k+1);
        # rounding adds < 2**-(k+1)
        return _round(x.approx(s) * y.approx(s), k)

    return CReal(program)


def scale(x: CReal, c: Q) -> CReal:
    """Multiply by an exact rational constant; |c| < 1 lowers the input precision."""
    c = Q(c)
    if c == 0:
        return from_rational(0)
    # |c| <= 2**shift, so input error 2**-(k+shift) costs at most 2**-k; when
    # k + shift < 0 the precision-0 error 1 costs |c| <= 2**shift < 2**-k
    shift = ceil_log2(abs(c))
    return CReal(lambda k: c * x.approx(max(k + shift, 0)))


def recip(y: CReal, nonzero_witness: Q) -> CReal:
    """1/y given a positive rational witness w <= |y|."""
    w = Q(nonzero_witness)
    if w <= 0:
        raise ValueError("reciprocal needs a positive rational lower bound on |y|")
    # request precision so 2**-s <= w/2 and 2/w**2 * 2**-s <= 2**-k:
    # then |y~| >= w/2 and |1/y~ - 1/y| <= |y-y~| / (|y||y~|) <= 2**-k.
    base = max(0, ceil_log2(2 / (w * w)), ceil_log2(2 / w))

    def program(k: int) -> Q:
        ya = y.approx(k + base)
        if ya == 0:
            raise ArithmeticError("separation witness violated: approximation hit 0")
        return 1 / ya

    return CReal(program)


def div(x: CReal, y: CReal, nonzero_witness: Q) -> CReal:
    return mul(x, recip(y, nonzero_witness))


def abs_(x: CReal) -> CReal:
    # | |x~| - |x| | <= |x~ - x|
    return CReal(lambda k: abs(x.approx(k)))


def max_(x: CReal, y: CReal) -> CReal:
    # |max(x~,y~) - max(x,y)| <= max(|x~-x|, |y~-y|)
    return CReal(lambda k: max(x.approx(k), y.approx(k)))


def min_(x: CReal, y: CReal) -> CReal:
    return CReal(lambda k: min(x.approx(k), y.approx(k)))


def sqrt_c(x: CReal, lower_witness: Q = Q(0)) -> CReal:
    """Square root; the witness asserts x >= lower_witness >= 0.

    The approximation at k clamps the input at 0 (sound since x >= 0) and
    splits the budget: the input error costs at most 2**-(k+1), and rounding
    the root of the approximation down to a multiple of 2**-(k+1) adds less
    than 2**-(k+1).
    A positive witness w lowers the input precision from 2k+2 to about
    k + 1 + log2(1/w)/2.
    """
    w = Q(lower_witness)
    if w < 0:
        raise ValueError("sqrt needs a nonnegative rational lower bound witness")
    # w > 0: |sqrt x~+ - sqrt x| = |x~+ - x| / (sqrt x~+ + sqrt x) <= 2**-s / sqrt w,
    # which is <= 2**-(k+1) once s >= k + 1 + ceil(ceil_log2(1/w) / 2)
    half_log = -(-ceil_log2(1 / w) // 2) if w > 0 else None

    def program(k: int) -> Q:
        s = 2 * k + 2  # |sqrt x~+ - sqrt x| <= sqrt|x~+ - x| <= 2**-(k+1)
        if half_log is not None:
            s = max(0, min(s, k + 1 + half_log))
        return dyadic_sqrt_lower(max(x.approx(s), Q(0)), k + 1)

    return CReal(program)


def _exp_small(u: CReal) -> CReal:
    # exp on |u| <= 1/2 (so any approximation of u is <= 3/4 in magnitude)
    def program(k: int) -> Q:
        ua = u.approx(k + 4)
        if abs(ua) > Q(3, 4):
            raise ArithmeticError("exp range reduction failed: |u| > 1/2 promised")
        # |exp(ua) - exp(u)| <= e**(3/4) |ua - u| <= 3 * 2**-(k+4) < 2**-(k+2)
        target = _pow2(-(k + 2))
        total = Q(1)
        term = Q(1)
        i = 0
        while True:
            i += 1
            term = term * ua / i
            total += term
            # successive term ratio |ua|/(i+1) <= 3/4, so tail <= 3|term|
            if 4 * abs(term) <= target:
                break
        # input error + tail < 2 * 2**-(k+2); rounding adds < 2**-(k+1)
        return _round(total, k)

    return CReal(program)


def exp_c(x: CReal) -> CReal:
    """exp(x) via halving to |x/2**s| <= 1/2 then s certified squarings."""
    bound = _magnitude_bound(x)
    shifts = max(0, ceil_log2(bound) + 1)
    result = _exp_small(scale(x, _pow2(-shifts)))
    for _ in range(shifts):
        result = mul(result, result)
    return result


def _atanh_small(z: CReal) -> CReal:
    # atanh on |z| <= 1/2 (approximations <= 9/16); derivative <= 1/(1-(9/16)^2) < 2
    def program(k: int) -> Q:
        za = z.approx(k + 4)
        if abs(za) > Q(9, 16):
            raise ArithmeticError("atanh range reduction failed: |z| > 1/2 promised")
        target = _pow2(-(k + 2))
        total = Q(0)
        power = za
        z2 = za * za
        i = 0
        while True:
            total += power / (2 * i + 1)
            power = power * z2
            i += 1
            # tail <= |power| * sum(|za|^2j) <= |power| / (1 - (9/16)^2) < 2|power|
            if 2 * abs(power) <= target:
                break
        # input error 2**-(k+3) + tail 2**-(k+2) < 2**-(k+1); rounding adds < 2**-(k+1)
        return _round(total, k)

    return CReal(program)


LOG2 = scale(_atanh_small(from_rational(Q(1, 3))), Q(2))


def log_c(x: CReal, lower_witness: Q) -> CReal:
    """log(x) given a positive rational witness w <= x.

    Brackets x exactly, rescales by a power of two into [2/3, 8/3], and runs
    the atanh series on z = (u-1)/(u+1), which then satisfies |z| <= 5/11.
    """
    w = Q(lower_witness)
    if w <= 0:
        raise ValueError("log needs a positive rational lower bound witness")
    k0 = max(0, ceil_log2(4 / w))
    xa = x.approx(k0)
    delta = _pow2(-k0)  # <= w/4, so xa >= 3w/4 and delta/xa <= 1/3
    lo = max(xa - delta, w)
    # power-of-two exponent with 2**t <= xa < 2**(t+1)
    t = ceil_log2(xa)
    if _pow2(t) > xa:
        t -= 1
    u = scale(x, _pow2(-t))
    u_lo = lo * _pow2(-t)  # positive rational lower bound on u; u in [2/3, 8/3]
    z = div(sub(u, from_rational(1)), add(u, from_rational(1)), u_lo + 1)
    return add(scale(_atanh_small(z), Q(2)), scale(LOG2, Q(t)))


def elementary(x: CReal, which: str, domain_witness: Q | None = None) -> CReal:
    """Dispatch sqrt/exp/log; sqrt and log take their rational domain witness."""
    if which == "sqrt":
        return sqrt_c(x, Q(0) if domain_witness is None else domain_witness)
    if which == "exp":
        return exp_c(x)
    if which == "log":
        if domain_witness is None:
            raise ValueError("log requires a positive rational lower bound witness")
        return log_c(x, domain_witness)
    raise ValueError(f"unknown elementary function {which!r}")


def compare(x: CReal, y: CReal, budget: int):
    """Semi-decide the order of x and y up to a precision budget.

    Returns LT or GT only when the radius-2**-k approximation intervals are
    disjoint at some k <= budget, in which case the answer is certified.
    UNDECIDED means the intervals still overlap at the budget; it is a value,
    not an error, and in particular is what identical inputs always produce.
    """
    for k in range(budget + 1):
        gap = y.approx(k) - x.approx(k)
        radius = 2 * _pow2(-k)
        if gap > radius:
            return LT
        if -gap > radius:
            return GT
    return UNDECIDED


def effective_limit(
    xs: Callable[[int, int], Q], modulus: Callable[[int, int], int]
) -> Callable[[int], CReal]:
    """Closure under effective convergence, as an executable construction.

    Hypothesis (a contract on the caller): |xs(n, k) - x_n| <= 2**-N whenever
    k >= modulus(n, N).  The returned family evaluates xs(n, modulus(n, M))
    at precision M, so each limit x_n is again a computable real with the
    standard 2**-M contract, inherited directly from the hypothesis; the
    modulus need not be monotone.
    """

    def limit(n: int) -> CReal:
        return CReal(lambda m: Q(xs(n, modulus(n, m))))

    return limit
