"""Hot numeric kernels: the integer grid scan and the primal-dual iteration.

Two inner loops dominate runtime: the integer grid scan behind the brute-force
l1 minimizer and the primal-dual iteration of the generic solver.  The grid
scan is one numpy algorithm run on one of two dtypes: int64, or Python ints in
object arrays.  The primal-dual iteration makes three BLAS calls per step (two
matrix-vector products and one dot product) and runs its element-wise steps on
Python floats, bit for bit what the all-numpy loop computes, and stops at the
first iteration that leaves its state unchanged (see the comment above
``pd_iterate``).

Exactness note: the scan is exact on int64 when rhs and W = sum_i M_i^2 are
below 2**62, where M_i bounds |s_i(p)| over the box.  Callers prove that in
Python big ints before dispatching here and ask for Python ints
(``exact_fallback=True``) otherwise, on which nothing can wrap.  W bounds
every square sum q(p) the scan evaluates, and for K >= 1 also its vertex
terms: with c the last column, |c_i| <= |c_i| * K <= M_i and every prefix
residual |r_i| <= M_i, so a = sum_i c_i^2 and |b| = |sum_i c_i r_i| are at
most W.  For K = 0 the box is the single point 0 and a, which may wrap, is
not formed.  The sweep of every box point that the scan is tested against is
kept in tests/grid_reference.py.
"""

from __future__ import annotations

import math
from struct import pack

import numpy as np


# --- integer grid scan --------------------------------------------------------
#
# Minimize sum(|p_j|) over p in {-K..K}^N subject to sum_i s_i(p)^2 <= rhs,
# where s_i(p) = sum_j coeffs[i,j] * p_j - shift[i], all integers.  Axis
# values are traversed in spiral order 0, 1, -1, 2, -2, ... and the first
# point attaining the minimum objective in that order is reported; the spiral
# order pins a deterministic tie-break.
#
# The scan does not visit every point.  It fixes the first N-1
# coordinates (a prefix, with residuals r_i) and solves the last one, t, in
# closed form: q(t) = sum_i (r_i + c_i t)^2 is a convex quadratic, so its
# feasible integers in [-K, K] form one interval.  The reported t is the
# feasible value nearest 0; the interval cannot hold both t and -t without
# holding 0, so there is no tie within a prefix, and the value is found with
# q at 0, q at the two clamped integer neighbours of the vertex -b/a
# (a = sum c_i^2, b = sum c_i r_i) and, when only the vertex side is
# feasible, a bisection on |t| of about log2(K) probes.  Prefixes are
# enumerated in spiral order in blocks of _PREFIX_BLOCK decoded from a flat
# index, so memory does not grow with the box, and the first prefix of least
# prefix_obj + |t| wins, which is the point the full spiral sweep reports.

_PREFIX_BLOCK = 1 << 14


def _spiral_value(rank):
    """The axis value at each spiral rank: ranks 0, 1, 2, 3, 4, ... give 0, 1, -1, 2, -2, ..."""
    mag = (rank + 1) // 2
    return np.where(rank % 2 == 1, mag, -mag)


def _row_sums_sq(r, c, t):
    """sum_i (r[i] + c[i] * t)^2, one entry per column of r, in r's dtype."""
    q = np.zeros(r.shape[1], dtype=r.dtype)
    for i in range(r.shape[0]):
        s = r[i] + c[i] * t
        q += s * s
    return q


def _scan(coeffs, shift, rhs, k):
    n = coeffs.shape[1]
    size = 2 * k + 1
    c = coeffs[:, n - 1]
    # on int64, a < 2**62 for k >= 1 (see the module docstring); for k = 0
    # only t = 0 exists and c * c may wrap, so a is not formed
    a = int((c * c).sum()) if k > 0 else 0
    best_obj = -1
    best_p = np.zeros(n, dtype=np.int64)
    total = size ** (n - 1)
    for start in range(0, total, _PREFIX_BLOCK):
        flat = np.arange(start, min(start + _PREFIX_BLOCK, total), dtype=np.int64)
        prefix = np.empty((n - 1, flat.shape[0]), dtype=np.int64)
        for j in range(n - 2, -1, -1):
            flat, rank = np.divmod(flat, size)
            prefix[j] = _spiral_value(rank)
        r = coeffs[:, : n - 1] @ prefix - shift[:, None]
        t = np.zeros(r.shape[1], dtype=r.dtype)
        feasible = _row_sums_sq(r, c, t) <= rhs
        if a > 0 and not feasible.all():
            # 0 is infeasible on the rest: the feasible interval, if any,
            # holds q's integer minimizer over [-k, k], one of the clamped
            # neighbours of the vertex -b/a
            out = np.flatnonzero(~feasible)
            ro = r[:, out]
            v = -(c @ ro) // a
            lo_v, hi_v = np.clip(v, -k, k), np.clip(v + 1, -k, k)
            lo_ok = _row_sums_sq(ro, c, lo_v) <= rhs
            hit = lo_ok | (_row_sums_sq(ro, c, hi_v) <= rhs)
            out, ro = out[hit], ro[:, hit]
            vertex = np.where(lo_ok, lo_v, hi_v)[hit]
            # the interval lies on the vertex's side of 0: bisect |t| with
            # |t| = lo infeasible and |t| = hi feasible
            sign = np.sign(vertex)
            lo, hi = np.zeros_like(vertex), np.abs(vertex)
            while (hi - lo > 1).any():
                mid = (lo + hi) // 2
                ok = _row_sums_sq(ro, c, sign * mid) <= rhs
                hi = np.where(ok, mid, hi)
                lo = np.where(ok, lo, mid)
            t[out] = sign * hi
            feasible[out] = True
        if not feasible.any():
            continue
        obj = np.abs(prefix).sum(axis=0) + np.abs(t)
        obj[~feasible] = n * k + 1
        i = int(np.argmin(obj))  # first minimum: the earliest prefix in spiral order
        if best_obj < 0 or obj[i] < best_obj:
            best_obj = int(obj[i])
            best_p = np.append(prefix[:, i], t[i])
    return best_obj, best_p


def grid_scan(coeffs: np.ndarray, shift: np.ndarray, rhs: int, k: int, exact_fallback: bool):
    """Run the grid scan on int64, or on Python ints when ``exact_fallback`` is set.

    Returns ``(best_objective, best_point)`` with objective -1 when no grid
    point is feasible.  The objective is in grid units (sum of |p_j|).
    """
    dtype = object if exact_fallback else np.int64
    coeffs = np.ascontiguousarray(coeffs, dtype=dtype)
    shift = np.ascontiguousarray(shift, dtype=dtype)
    return _scan(coeffs, shift, int(rhs), int(k))


# --- primal-dual iteration ----------------------------------------------------
#
# One batch of Chambolle-Pock iterations for min ||x||_{1,pair} subject to
# ||Kx - y||_2 <= eps on the realified operator K (2m x 2n); coordinate i
# pairs with n_pairs + i.  K, y, x, z and xbar are float64 arrays, the rest
# Python scalars.  Returns the state (x, z, xbar) after ``iters`` iterations
# as float64 arrays.
#
# The three reductions, whose summation order BLAS defines, stay BLAS calls on
# float64 arrays: the gemv K xbar, the ddot u.u and the gemv K^T z
# (``a.dot(v)`` makes the BLAS call ``a @ v`` makes, with less overhead).  Every
# other step is one correctly rounded operation per element, so it runs on
# Python floats from ``.tolist()`` in the order of the numpy expression it
# stands for -- u_i = (z_i + sigma (K xbar)_i) - (sigma y)_i,
# z_i = u_i * factor, w_i = x_i - tau (K^T z)_i, the pair shrink and
# xbar_i = 2 x_new_i - x_i -- and changes no summation order: the state is bit
# for bit that of the all-numpy loop in tests/pd_reference.py.  At 2-14
# coordinates numpy's per-call overhead, not arithmetic, is what a step costs.
# ``f if f > 0.0 else 0.0`` is max(0.0, f), NaN included.
#
# Fixed-point exit: one iteration is a deterministic function of the state
# (x, z, xbar) and of the fixed K, y, eps, tau and sigma, so once an iteration
# leaves the state unchanged bit for bit, every later one returns the same
# bytes and the loop stops there.  Float ``==`` alone is not that test: it
# holds for 0.0 == -0.0, and -0.0 occurs in x (the pair shrink of a < 0 by
# f = 0.0), so lists that compare equal are confirmed on their packed bytes.
# A NaN never compares equal, so a state holding one never stops early.

def _bits(v):
    """The float64 bytes of a list of floats."""
    return pack(f"{len(v)}d", *v)


def pd_iterate(K, y, eps, tau, sigma, x, z, xbar, iters, n_pairs):
    Kt = K.T
    sy = (sigma * y).tolist()
    se = sigma * eps
    x = x.tolist()
    zs = z.tolist()
    xs = xbar.tolist()
    array = np.array
    sqrt = math.sqrt
    for _ in range(iters):
        u = [(zi + sigma * ki) - si for zi, ki, si in zip(zs, K.dot(xbar).tolist(), sy)]
        ua = array(u)
        nrm = sqrt(ua.dot(ua))
        factor = 1.0 - se / nrm if nrm > 0 else 0.0
        factor = factor if factor > 0.0 else 0.0
        zs_new = [ui * factor for ui in u]
        z = array(zs_new)
        w = [xi - tau * gi for xi, gi in zip(x, Kt.dot(z).tolist())]
        re = []
        im = []
        for a, b in zip(w[:n_pairs], w[n_pairs:]):
            mag = sqrt(a * a + b * b)
            f = 1.0 - tau / mag if mag > 0 else 0.0
            f = f if f > 0.0 else 0.0
            re.append(a * f)
            im.append(b * f)
        x_new = re + im
        xs_new = [2.0 * a - b for a, b in zip(x_new, x)]
        xbar = array(xs_new)
        if zs_new == zs and x_new == x and xs_new == xs and _bits(zs_new + x_new + xs_new) == _bits(zs + x + xs):
            break  # a fixed point: x already holds x_new's bytes
        x, zs, xs = x_new, zs_new, xs_new
    return array(x), z, xbar
