"""Hot numeric kernels: the integer grid scan and the primal-dual iteration.

Two inner loops dominate runtime: the integer grid scan behind the brute-force
l1 minimizer and the primal-dual iteration of the generic solver.  Both are
written in numpy.

Exactness note: the numpy grid scan is pure int64 arithmetic; callers must
prove in Python big ints that no intermediate can overflow before dispatching
here, and route to the object-int fallback (``exact_fallback=True``)
otherwise.  That fallback is also the reference the numpy scan is tested
against.
"""

from __future__ import annotations

import math

import numpy as np


# --- integer grid scan --------------------------------------------------------
#
# Minimize sum(|p_j|) over p in {-K..K}^N subject to sum_i s_i(p)^2 <= rhs,
# where s_i(p) = sum_j coeffs[i,j] * p_j - shift[i], all integers.  Axis
# values are traversed in spiral order 0, 1, -1, 2, -2, ... and the first
# point attaining the minimum objective in that order is reported; the spiral
# order pins a deterministic tie-break shared by both scan paths.

def spiral_values(k: int) -> np.ndarray:
    vals = np.empty(2 * k + 1, dtype=np.int64)
    vals[0] = 0
    for i in range(1, k + 1):
        vals[2 * i - 1] = i
        vals[2 * i] = -i
    return vals


def _scan_py(coeffs, shift, rhs, k):
    """Object-int scan: the overflow-proof fallback (and reference semantics)."""
    coeffs = [[int(c) for c in row] for row in coeffs]
    shift = [int(s) for s in shift]
    rhs = int(rhs)
    m, n = len(coeffs), len(coeffs[0])
    vals = [int(v) for v in spiral_values(k)]
    best_obj = -1
    best_p: list[int] | None = None
    p = [0] * n

    def rec(axis: int, prefix_obj: int, partial: list[int]) -> None:
        nonlocal best_obj, best_p
        for v in vals:
            obj = prefix_obj + abs(v)
            if best_obj >= 0 and obj > best_obj:
                continue
            if best_obj >= 0 and obj == best_obj and axis < n - 1:
                continue  # an equal-objective point already finished earlier
            p[axis] = v
            nxt = [partial[i] + coeffs[i][axis] * v for i in range(m)]
            if axis == n - 1:
                acc = 0
                for i in range(m):
                    s = nxt[i] - shift[i]
                    acc += s * s
                if acc <= rhs and (best_obj < 0 or obj < best_obj):
                    best_obj = obj
                    best_p = p.copy()
            else:
                rec(axis + 1, obj, nxt)

    rec(0, 0, [0] * m)
    if best_p is None:
        return -1, np.zeros(n, dtype=np.int64)
    return best_obj, np.array(best_p, dtype=np.int64)


def _scan_numpy(coeffs, shift, rhs, k):
    m, n = coeffs.shape
    vals = spiral_values(k)
    size = vals.shape[0]
    best_obj = -1
    best_key = 0
    best_p = np.zeros(n, dtype=np.int64)
    if n > 1:
        grids = np.meshgrid(*([vals] * (n - 1)), indexing="ij")
        rest = np.stack([g.ravel() for g in grids], axis=0)
    else:
        rest = np.zeros((0, 1), dtype=np.int64)
    rest_obj = np.abs(rest).sum(axis=0) if n > 1 else np.zeros(1, dtype=np.int64)
    rest_key = np.zeros(rest.shape[1], dtype=np.int64)
    for j in range(n - 1):
        rank = 2 * np.abs(rest[j]) - (rest[j] > 0)
        rest_key = rest_key * size + rank
    partial_rest = coeffs[:, 1:] @ rest if n > 1 else np.zeros((m, 1), dtype=np.int64)
    stride0 = np.int64(size ** (n - 1))
    for idx0 in range(size):
        v0 = vals[idx0]
        s = partial_rest + (coeffs[:, 0:1] * v0 - shift[:, None])
        acc = np.zeros(s.shape[1], dtype=np.int64)
        for i in range(m):
            acc += s[i] * s[i]
        mask = acc <= rhs
        if not mask.any():
            continue
        obj = rest_obj[mask] + abs(int(v0))
        key = rest_key[mask] + np.int64(idx0) * stride0
        o = int(obj.min())
        kmin = int(key[obj == o].min())
        if best_obj < 0 or o < best_obj or (o == best_obj and kmin < best_key):
            best_obj = o
            best_key = kmin
            p = np.empty(n, dtype=np.int64)
            rem = kmin
            for j in range(n - 1, -1, -1):
                rank = rem % size
                rem //= size
                mag = (rank + 1) // 2
                p[j] = mag if rank % 2 == 1 else (-mag if rank > 0 else 0)
            best_p = p
    return best_obj, best_p


def grid_scan(coeffs: np.ndarray, shift: np.ndarray, rhs: int, k: int, exact_fallback: bool):
    """Dispatch the grid scan; ``exact_fallback`` routes to the big-int path.

    Returns ``(best_objective, best_point)`` with objective -1 when no grid
    point is feasible.  The objective is in grid units (sum of |p_j|).
    """
    if exact_fallback:
        return _scan_py(coeffs, shift, rhs, k)
    coeffs = np.ascontiguousarray(coeffs, dtype=np.int64)
    shift = np.ascontiguousarray(shift, dtype=np.int64)
    obj, p = _scan_numpy(coeffs, shift, np.int64(rhs), int(k))
    return int(obj), p


# --- primal-dual iteration ----------------------------------------------------
#
# One batch of Chambolle-Pock iterations for min ||x||_{1,pair} subject to
# ||Kx - y||_2 <= eps on the realified operator K (2m x 2n); coordinate i
# pairs with n_pairs + i.  Returns the advanced (x, z, xbar) state.

def _pd_numpy(K, y, eps, tau, sigma, x, z, xbar, iters, n_pairs):
    Kt = K.T
    for _ in range(iters):
        u = z + sigma * (K @ xbar) - sigma * y
        nrm = math.sqrt(float(np.dot(u, u)))
        factor = max(0.0, 1.0 - sigma * eps / nrm) if nrm > 0 else 0.0
        z_new = u * factor
        w = x - tau * (Kt @ z_new)
        x_new = w.copy()
        for i in range(n_pairs):
            a, b = w[i], w[n_pairs + i]
            mag = math.sqrt(a * a + b * b)
            f = max(0.0, 1.0 - tau / mag) if mag > 0 else 0.0
            x_new[i] = a * f
            x_new[n_pairs + i] = b * f
        xbar = 2.0 * x_new - x
        x, z = x_new, z_new
    return x, z, xbar


def pd_iterate(K, y, eps, tau, sigma, x, z, xbar, iters, n_pairs):
    return _pd_numpy(
        np.ascontiguousarray(K, dtype=np.float64),
        np.ascontiguousarray(y, dtype=np.float64),
        float(eps), float(tau), float(sigma),
        np.ascontiguousarray(x, dtype=np.float64),
        np.ascontiguousarray(z, dtype=np.float64),
        np.ascontiguousarray(xbar, dtype=np.float64),
        int(iters), int(n_pairs),
    )
