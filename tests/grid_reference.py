"""The recursive big-int sweep of the grid box, kept as the grid scan's parity reference.

``qcbplab._kernels.grid_scan`` solves the last axis in closed form instead of
visiting every point; the tests assert that both report the same objective
and the same point, on int64 and on Python ints.
"""

import numpy as np


def _spiral_value(rank):
    """The axis value at each spiral rank: ranks 0, 1, 2, 3, 4, ... give 0, 1, -1, 2, -2, ..."""
    mag = (rank + 1) // 2
    return np.where(rank % 2 == 1, mag, -mag)


def spiral_values(k: int) -> np.ndarray:
    return _spiral_value(np.arange(2 * k + 1, dtype=np.int64))


def _scan_py(coeffs, shift, rhs, k):
    """Object-int sweep of the box in spiral order: the reference semantics."""
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
