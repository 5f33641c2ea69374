"""The primal-dual iteration as a plain Python loop: the spec of the kernel's arithmetic.

``qcbplab._kernels.pd_iterate`` runs the same steps in generated straight-line
loops; the tests assert that both return the same bytes.  Every operation is
one Python float operation, each rounded on its own, and every sum runs left
to right, so the bytes depend on nothing but the inputs.
"""

import math


def _sum(terms):
    """terms[0] + terms[1] + ..., left to right."""
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total


def _factor(t, norm):
    """max(0.0, 1.0 - t / norm), and 0.0 unless norm > 0."""
    f = 1.0 - t / norm if norm > 0 else 0.0
    return max(0.0, f)


def _norm(v):
    """||v||: |v_0| for one entry, else the root of the sum of squares."""
    return abs(v[0]) if len(v) == 1 else math.sqrt(_sum([a * a for a in v]))


def is_real(K, y, x, z, xbar):
    """Whether K's off-diagonal blocks and the imaginary halves of y, x, z and xbar are all +0.0."""
    m, n = len(K) // 2, len(K[0]) // 2
    parts = ([v for row in K[:m] for v in row[n:]], [v for row in K[m:] for v in row[:n]], y[m:], x[n:], z[m:], xbar[n:])
    return all(v == 0.0 and math.copysign(1.0, v) > 0 for part in parts for v in part)


def pd_iterate(K, y, eps, tau, sigma, x, z, xbar, iters):
    """``iters`` steps from (x, z, xbar), with K a list of rows and the rest lists
    of floats; a real batch steps the real halves alone, with ``+ 0.0`` after
    each sum of products.  Returns three lists; every NaN in them is ``math.nan``."""
    real = is_real(K, y, x, z, xbar)
    m, n = len(K) // 2, len(K[0]) // 2
    if real:
        K, y, x, z, xbar = [row[:n] for row in K[:m]], y[:m], x[:n], z[:m], xbar[:n]
    zero = [0.0] if real else []
    cols = list(zip(*K))
    pairs = [[j] for j in range(n)] if real else [[j, n + j] for j in range(n)]
    se = sigma * eps
    for _ in range(iters):
        kx = [_sum([a * b for a, b in zip(row, xbar)] + zero) for row in K]
        u = [(zi + sigma * ki) - sigma * yi for zi, ki, yi in zip(z, kx, y)]
        if se == 0.0:
            z_new = u
        else:
            factor = _factor(se, _norm(u))
            z_new = [a * factor for a in u]
        w = [xj - tau * _sum([a * b for a, b in zip(col, z_new)] + zero) for xj, col in zip(x, cols)]
        x_new = list(w)
        for pair in pairs:
            f = _factor(tau, _norm([w[j] for j in pair]))
            for j in pair:
                x_new[j] = w[j] * f
        xbar = [2.0 * a - b for a, b in zip(x_new, x)]
        x, z = x_new, z_new
    pad = (lambda v: v + [0.0] * len(v)) if real else (lambda v: v)
    return tuple([t if t == t else math.nan for t in pad(v)] for v in (x, z, xbar))
