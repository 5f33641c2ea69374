"""Fraction-arithmetic certificates, rank test and norm bound, shared by the tests.

These evaluate every term as a ``Fraction``.  The package computes the same
values as integer sums over a common denominator; the tests assert that each
returned rational is equal.
"""

from fractions import Fraction as Q

from qcbplab.rationals import (
    ComplexQ,
    RationalMatrix,
    RationalVector,
    dyadic_sqrt_upper,
    l2_norm_sq,
)


def realified_exact(A: RationalMatrix, y: RationalVector) -> tuple[list[list[Q]], list[Q]]:
    """Rows of [[Re A, -Im A], [Im A, Re A]] and the stacked (Re y, Im y)."""
    m, n = A.m, A.n
    exact = [[Q(0)] * (2 * n) for _ in range(2 * m)]
    for i in range(m):
        for j in range(n):
            e = A.entry(i, j)
            exact[i][j] = e.re
            exact[i][n + j] = -e.im
            exact[m + i][j] = e.im
            exact[m + i][n + j] = e.re
    y_exact = [e.re for e in y.entries] + [e.im for e in y.entries]
    return exact, y_exact


def pair_l1_upper(entries: list[Q], n: int) -> Q:
    total = Q(0)
    for i in range(n):
        total += dyadic_sqrt_upper(entries[i] ** 2 + entries[n + i] ** 2)
    return total


def dual_lower_bound(z: list[float], exact_k, y_exact, eps: Q, n: int) -> Q:
    zq = [Q(float(v)) for v in z]
    two_m = len(zq)
    kt_z = [sum(exact_k[i][j] * zq[i] for i in range(two_m)) for j in range(2 * n)]
    cmax_sq = max(kt_z[j] ** 2 + kt_z[n + j] ** 2 for j in range(n))
    c_ub = dyadic_sqrt_upper(cmax_sq) if cmax_sq > 1 else Q(1)
    ip = sum(y_exact[i] * zq[i] for i in range(two_m))
    z_norm_ub = dyadic_sqrt_upper(sum(v * v for v in zq))
    return (-ip - eps * z_norm_ub) / c_ub


def certify_primal(inst, x: list[float]) -> tuple[Q, Q, Q, RationalVector]:
    """(objective_ub, residual_sq, residual_ub, x_exact)."""
    n = inst.n
    xq = [Q(float(v)) for v in x]
    x_exact = RationalVector.from_items([ComplexQ(xq[j], xq[n + j]) for j in range(n)])
    residual_sq = l2_norm_sq(inst.A.matvec(x_exact) - inst.y)
    return pair_l1_upper(xq, n), residual_sq, dyadic_sqrt_upper(residual_sq), x_exact


def row_rank(mat: RationalMatrix) -> int:
    """Fraction-free Gaussian elimination over the complex rationals."""
    work = [list(row) for row in mat.rows]
    m, n = mat.m, mat.n
    rank = 0
    col = 0
    while rank < m and col < n:
        pivot = None
        for r in range(rank, m):
            if work[r][col].abs_sq() != 0:
                pivot = r
                break
        if pivot is None:
            col += 1
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        p = work[rank][col]
        for r in range(rank + 1, m):
            if work[r][col].abs_sq() == 0:
                continue
            # p * row r - f * pivot row: the nonzero pivot p scales row r,
            # which keeps the row space, so no division is needed
            f = work[r][col]
            for c in range(col, n):
                work[r][c] = p * work[r][c] - f * work[rank][c]
        rank += 1
        col += 1
    return rank


def operator_norm_sq_upper(mat: RationalMatrix) -> Q:
    fro = sum((e.abs_sq() for row in mat.rows for e in row), Q(0))
    abs_ub = [[dyadic_sqrt_upper(e.abs_sq()) for e in row] for row in mat.rows]
    row_sums = [sum(r, Q(0)) for r in abs_ub]
    col_sums = [sum(abs_ub[i][j] for i in range(mat.m)) for j in range(mat.n)]
    return min(fro, max(row_sums) * max(col_sums))
