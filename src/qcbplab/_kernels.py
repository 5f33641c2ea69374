"""Hot numeric kernels: the integer grid scan and the primal-dual iteration.

Two inner loops dominate runtime: the integer grid scan behind the brute-force
l1 minimizer and the primal-dual iteration of the generic solver.  The grid
scan is one numpy algorithm run on one of two dtypes: int64, or Python ints in
object arrays.  The primal-dual iteration defines its own float arithmetic:
every sum is a fixed left-to-right sum of Python floats, with no BLAS call, so
its bytes do not depend on the CPU.  It runs in straight-line loops that one
generator emits per problem shape, one for complex batches and one for real
batches, which step the real halves of the state alone, and past a bound on
K's size in the same steps on float64 arrays (the arithmetic is in the
comment above ``pd_iterate``).

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

import functools
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


def grid_scan(coeffs: np.ndarray, shift: np.ndarray, rhs: int, k: int, exact_fallback: bool):
    """Run the grid scan on int64, or on Python ints when ``exact_fallback`` is set.

    Returns ``(best_objective, best_point)`` with objective -1 when no grid
    point is feasible.  The objective is in grid units (sum of |p_j|).
    """
    dtype = object if exact_fallback else np.int64
    coeffs = np.ascontiguousarray(coeffs, dtype=dtype)
    shift = np.ascontiguousarray(shift, dtype=dtype)
    rhs, k = int(rhs), int(k)
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


# --- primal-dual iteration ----------------------------------------------------
#
# One batch of Chambolle-Pock iterations for min ||x||_{1,pair} subject to
# ||Kx - y||_2 <= eps on the realified operator K (2m x 2n); coordinate i
# pairs with n + i.  K is a list of rows, y, x, z and xbar are lists of
# Python floats and the rest Python scalars.  Returns the state (x, z, xbar)
# after ``iters`` iterations as three new lists of floats.
#
# The kernel defines its float arithmetic itself, so a state's bytes depend
# neither on the CPU nor on a BLAS library's summation order.  Every step runs
# on Python floats: CPython rounds each ``*``, ``+``, ``-`` and ``/`` on its
# own and never fuses a product into a sum (FMA), and ``math.sqrt`` is
# correctly rounded.  No step uses complex arithmetic, whose product CPython
# forms in one C expression that a compiler may contract.  A step is
#     u_i  = (z_i + sigma * (K xbar)_i) - sigma * y_i
#     v    = u, if sigma * eps is +-0.0;
#            else u * max(0.0, 1.0 - sigma * eps / ||u||), 0.0 unless ||u|| > 0
#     w_j  = x_j - tau * (K^T v)_j
#     p    = w * max(0.0, 1.0 - tau / |w|) on each pair, 0.0 unless |w| > 0
#     xbar = 2.0 * p - x, and the new (x, z) is (p, v),
# where every entry of K xbar and K^T v, and u.u, is a sum of products taken
# left to right, ||u|| = sqrt(u.u) and a pair's |w| = sqrt(w_j * w_j +
# w_{n+j} * w_{n+j}).  ``f if f > 0.0 else 0.0`` is max(0.0, f), NaN included.
# At sigma * eps = +-0.0 (eps = 0, basis pursuit) the factor is 1.0 for every
# ||u|| > 0, and the step takes v = u for every u: a branch on the
# loop-invariant ``shift``.  tests/pd_reference.py states the same arithmetic
# as a plain loop.
#
# Real batches.  A batch is real when K's off-diagonal blocks and the
# imaginary halves of y, x, z and xbar are +0.0, all eight bytes zero, as
# ``qcbp._realified`` builds them for real data (an imaginary part of A that
# rounds to zero is -0.0 in one of the two blocks).  Its loop steps the real
# halves alone and returns +0.0 imaginary halves.  Each sum of products ends
# in ``+ 0.0``, the terms the zero blocks add, so a -0.0 sum becomes +0.0, and
# the norm of one real entry a (a pair, and the dual of one row) is |a|, read
# from its sign: ``1.0 - t / a if a > 0.0 else 1.0 + t / a if a < 0.0 else
# 0.0``.  For one row of two columns, the perturbation families, K xbar is
# ``(a0 * b0 + a1 * b1) + 0.0``.
#
# At 2-14 coordinates a step's cost is interpreter overhead, not arithmetic:
# a loop over lists spends it on comprehensions, each with its own frame, on
# zips and on appends.  So the loop is generated as straight-line source with
# one local variable per coordinate and per entry of K, read once per call,
# compiled and kept (``_pd_loop``) once per shape of K and kind, real or not.
# Building a shape's loop costs what it saves over a list loop in two to ten
# batches of 250 iterations (measurements in ROADMAP's dead ends): it pays off
# for a shape that runs more than a few batches in one process.  A step's cost
# grows with the entries of K the loop reads, and CPython 3.11 compiles no sum
# of some 3,000 terms (RecursionError); a step on float64 arrays costs its
# numpy calls' overhead, 20-45 us up to a few thousand entries of K on a
# 2-core x86-64 Xeon, where the two cross near 128 entries.  So a batch whose
# loop would read more than ``_STRAIGHT_MAX`` entries of K (the top-left
# block alone when real) runs ``_pd_arrays``: the same operations in the same
# order on numpy arrays, each sum a cumulative sum, which adds one term at a
# time.
#
# Fixed-point exit: one iteration is a deterministic function of the state
# (x, z, xbar) and of the fixed K, y, eps, tau and sigma, so once an iteration
# leaves the state unchanged bit for bit, every later one returns the same
# bytes and the loop stops there.  Float ``==`` alone is not that test: it
# holds for 0.0 == -0.0, and -0.0 occurs in x (the pair shrink of a < 0 by
# f = 0.0), so states that compare equal are confirmed on their packed bytes.
# A NaN never compares equal, so a state holding one never stops early.
#
# NaNs.  No value that is not a NaN depends on a NaN's sign or payload: every
# comparison with a NaN is false, so a factor with a NaN term is 0.0.  But the
# bits of a NaN result are not fixed: IEEE 754 leaves them open, and CPython
# 3.11 gives a + b and a * b of two NaNs b's sign before it specializes the
# instruction (its first seven runs) and a's after.  So ``pd_iterate`` returns
# every NaN as ``math.nan``, and a state's bytes depend on the inputs alone.

_STRAIGHT_MAX = 128


def _bits(v):
    """The float64 bytes of a list of floats."""
    return pack(f"{len(v)}d", *v)


def _names(prefix, count):
    return [f"{prefix}{i}" for i in range(count)]


def _unpack(names):
    return ", ".join(names) + ","


def _listed(names):
    return "[" + ", ".join(names) + "]"


def _dot(a, b, real):
    """The sum of the products a_i * b_i, left to right, then ``+ 0.0`` if ``real``."""
    return " + ".join([f"{ai} * {bi}" for ai, bi in zip(a, b)] + (["0.0"] if real else []))


def _factor(name, t, w, norm):
    """``name`` = max(0.0, 1.0 - t / ||w||), and 0.0 unless ||w|| > 0.  ``norm`` is
    ||w||'s expression; for one real entry w, |w| is read from w's sign instead."""
    if len(w) == 1:
        a = w[0]
        lines = [f"{name} = 1.0 - {t} / {a} if {a} > 0.0 else 1.0 + {t} / {a} if {a} < 0.0 else 0.0"]
    else:
        lines = [f"mag = {norm}", f"{name} = 1.0 - {t} / mag if mag > 0 else 0.0"]
    return [*lines, f"{name} = {name} if {name} > 0.0 else 0.0"]


def _shrunk(w, p):
    """The shrink of one pair into p, given its one or two w names."""
    return [*_factor("f", "tau", w, f"sqrt({_dot(w, w, False)})"), *(f"{a} = {b} * f" for a, b in zip(p, w))]


def _step_end(z, v, x, b, p, c):
    """xbar = 2p - x, the fixed-point exit and the state update."""
    new, old = v + p + c, z + x + b
    same = " and ".join(f"{a} == {o}" for a, o in zip(new, old))
    return [
        *(f"{ci} = 2.0 * {pi} - {xi}" for ci, pi, xi in zip(c, p, x)),
        f"if {same} and _bits({_listed(new)}) == _bits({_listed(old)}):",
        "    break  # a fixed point: the state already holds the new bytes",
        *(f"{o} = {a}" for a, o in zip(new, old)),
    ]


def _pd_source(rows, cols, real):
    """The source of ``pd_loop`` for a rows x cols operator: the general loop, or
    the real one if ``real``.

    One local per stepped coordinate: x, z and b hold the state (x, z, xbar), v
    is the dual step and then the new z, w the primal step before the shrink, p
    the new x and c the new xbar; ``k{i}_{j}`` holds K's entry (i, j) and sy
    sigma * y.  The real loop reads the real halves and K's top-left block alone.
    """
    m, n = rows // 2, cols // 2
    dual, primal = (m, n) if real else (rows, cols)
    x, b, w, p, c = (_names(s, primal) for s in "xbwpc")
    z, sy, v = (_names(s, dual) for s in ("z", "sy", "v"))
    k = [_names(f"k{i}_", primal) for i in range(dual)]
    rest = ["*_"] if real else []  # the entries past the real halves and K's top-left block
    head = [
        f"{_unpack([f'({_unpack(row + rest)})' for row in k] + rest)} = K",
        f"{_unpack(sy + rest)} = y",
        *(f"{si} = sigma * {si}" for si in sy),
        "se = sigma * eps",
        "shift = se == 0.0",
        f"{_unpack(x + rest)} = x",
        f"{_unpack(z + rest)} = z",
        f"{_unpack(b + rest)} = xbar",
    ]
    scaled = [*_factor("factor", "se", v, f"sqrt({_dot(v, v, False)})"), *(f"{a} = {a} * factor" for a in v)]
    body = [
        *(f"{vi} = ({zi} + sigma * ({_dot(ki, b, real)})) - {si}" for vi, zi, ki, si in zip(v, z, k, sy)),
        "if not shift:",
        *("    " + line for line in scaled),
        *(f"{wj} = {xj} - tau * ({_dot([row[j] for row in k], v, real)})" for j, (wj, xj) in enumerate(zip(w, x))),
        *(line for j in range(n) for line in _shrunk(w[j::n], p[j::n])),
        *_step_end(z, v, x, b, p, c),
    ]
    state = ", ".join(_listed(s + ["0.0"] * len(s) if real else s) for s in (x, z, b))
    lines = [
        "def pd_loop(K, y, eps, tau, sigma, x, z, xbar, iters):",
        *("    " + line for line in head),
        "    for _ in range(iters):",
        *("        " + line for line in body),
        f"    return {state}",
    ]
    return "\n".join(lines) + "\n"


def _compiled(source, label):
    """The ``pd_loop`` that ``source`` defines."""
    namespace = dict(sqrt=math.sqrt, _bits=_bits)
    exec(compile(source, f"<pd_loop {label}>", "exec"), namespace)
    return namespace["pd_loop"]


@functools.cache
def _pd_loop(rows, cols, real):
    """``pd_loop`` for one shape of K and kind: compiled once and kept."""
    return _compiled(_pd_source(rows, cols, real), f"{rows}x{cols}" + (" real" if real else ""))


def _real(K, y, x, z, xbar):
    """Whether the batch is real: K's off-diagonal blocks and the imaginary halves
    of y, x, z and xbar are +0.0, all eight bytes zero."""
    m, n = len(K) // 2, len(K[0]) // 2
    blocks = [v for row in K[:m] for v in row[n:]] + [v for row in K[m:] for v in row[:n]]
    zero = _bits(blocks + y[m:] + x[n:] + z[m:] + xbar[n:])
    return zero.count(0) == len(zero)


def _sums(products, axis, real):
    """The sums of ``products`` along ``axis``, each left to right (the last
    partial sum of a cumulative sum, which adds one term at a time), then
    ``+ 0.0`` if ``real``."""
    total = np.add.accumulate(products, axis=axis).take(-1, axis=axis)
    return total + 0.0 if real else total


def _shrink_factors(t, w, real):
    """max(0.0, 1.0 - t / |w|) on each pair of w, and 0.0 unless |w| > 0."""
    if real:
        f = np.where(w > 0.0, 1.0 - t / w, np.where(w < 0.0, 1.0 + t / w, 0.0))
    else:
        n = w.shape[0] // 2
        mag = np.sqrt(w[:n] * w[:n] + w[n:] * w[n:])
        f = np.tile(np.where(mag > 0, 1.0 - t / mag, 0.0), 2)
    return np.where(f > 0.0, f, 0.0)


def _pd_arrays(K, y, eps, tau, sigma, x, z, xbar, iters, real):
    """``pd_loop``'s steps on float64 arrays: the same operations in the same
    order, with numpy's correctly rounded ``*``, ``+``, ``-``, ``/`` and ``sqrt``."""
    K, y, x, z, xbar = map(np.array, (K, y, x, z, xbar))
    m, n = K.shape[0] // 2, K.shape[1] // 2
    if real:
        K, y, x, z, xbar = K[:m, :n], y[:m], x[:n], z[:m], xbar[:n]
    with np.errstate(all="ignore"):
        sy, se = sigma * y, sigma * eps
        for _ in range(iters):
            v = (z + sigma * _sums(K * xbar, 1, real)) - sy
            if se != 0.0:
                mag = abs(v[0]) if v.shape[0] == 1 else math.sqrt(_sums(v * v, 0, False))
                factor = 1.0 - se / mag if mag > 0 else 0.0
                v = v * (factor if factor > 0.0 else 0.0)
            w = x - tau * _sums(K * v[:, None], 0, real)
            p = w * _shrink_factors(tau, w, real)
            c = 2.0 * p - x
            if all((a == b).all() and a.tobytes() == b.tobytes() for a, b in ((p, x), (v, z), (c, xbar))):
                break  # a fixed point: the state already holds the new bytes
            x, z, xbar = p, v, c
    return tuple(v.tolist() + [0.0] * len(v) if real else v.tolist() for v in (x, z, xbar))


def pd_iterate(K, y, eps, tau, sigma, x, z, xbar, iters):
    real = _real(K, y, x, z, xbar)
    rows, cols = len(K), len(K[0])
    if (rows * cols // 4 if real else rows * cols) > _STRAIGHT_MAX:
        state = _pd_arrays(K, y, eps, tau, sigma, x, z, xbar, iters, real)
    else:
        state = _pd_loop(rows, cols, real)(K, y, eps, tau, sigma, x, z, xbar, iters)
    return tuple([t if t == t else math.nan for t in v] for v in state)  # each NaN as math.nan
