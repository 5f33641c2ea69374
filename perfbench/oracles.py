"""Independent references the benchmark checks every output against.

Nothing here calls ``qcbplab``: instances are plain lists of ``(re, im)``
Fraction pairs, and scipy and mpmath are imported on first use, so neither
is loaded while set-up or the timed passes are measured.
"""

from __future__ import annotations

from fractions import Fraction as Q


def residual_sq(rows, y, x) -> Q:
    """Exact ||A x - y||^2 over complex rationals given as (re, im) pairs."""
    total = Q(0)
    for row, (yr, yi) in zip(rows, y):
        re, im = -yr, -yi
        for (ar, ai), (xr, xi) in zip(row, x):
            re += ar * xr - ai * xi
            im += ar * xi + ai * xr
        total += re * re + im * im
    return total


def single_row_optimum(row, eps) -> tuple[Q, tuple[int, ...]]:
    """Optimal l1 value and 0-based maximiser set of min ||x||_1, |<a,x> - 1| <= eps.

    For a positive row, |<a,x>| <= max(a) ||x||_1, with equality on the
    maximisers, so the optimum is (1 - eps) / max(a).
    """
    amax = max(row)
    return (1 - eps) / amax, tuple(j for j, a in enumerate(row) if a == amax)


def lp_l1_optimum(rows, y) -> float:
    """min ||x||_1 s.t. A x = y for real A, solved as an LP by HiGHS."""
    import numpy as np
    from scipy.optimize import linprog

    A = np.array([[float(re) for re, _ in row] for row in rows])
    b = np.array([float(re) for re, _ in y])
    n = A.shape[1]
    res = linprog(
        np.ones(2 * n), A_eq=np.hstack([A, -A]), b_eq=b, bounds=(0, None), method="highs"
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return float(res.fun)


_MP_DIGITS = 300


def creal_reference(func: str, arg: Q):
    """sqrt/exp/log of a rational at 300 decimal digits."""
    import mpmath

    with mpmath.workdps(_MP_DIGITS):
        x = mpmath.mpf(arg.numerator) / arg.denominator
        return {"sqrt": mpmath.sqrt, "exp": mpmath.exp, "log": mpmath.log}[func](x)


def creal_within(approx: Q, reference, k: int) -> bool:
    """|approx - reference| <= 2**-k, evaluated at 300 digits."""
    import mpmath

    with mpmath.workdps(_MP_DIGITS):
        err = abs(mpmath.mpf(approx.numerator) / approx.denominator - reference)
        # 300 digits carry ~1000 bits, so rounding here is far below 2**-k
        return err <= mpmath.mpf(2) ** (-k) * (1 + mpmath.mpf(10) ** -60)
