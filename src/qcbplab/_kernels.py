"""Hot numeric kernels: the integer grid scan and the primal-dual iteration.

Two inner loops dominate runtime: the integer grid scan behind the brute-force
l1 minimizer and the primal-dual iteration of the generic solver.  The grid
scan is one numpy algorithm run on one of two dtypes: int64, or Python ints in
object arrays.  The primal-dual iteration keeps its reductions in BLAS and
runs its other steps on Python floats, bit for bit what the all-numpy loop
computes, in straight-line loops that one generator emits per problem shape
and variant: the general loop; for real instances a real variant that steps
the real halves of the state alone, with one BLAS call a step for one row
(none for one row of two columns, the perturbation families) and the general
loop's three for more, each reading a real entry's magnitude from its sign
where the general loop takes the root of its square; and a shift variant of
each for batches with sigma * eps = +-0.0 (eps = 0, basis pursuit), whose
dual step is v = u: no norm of u, and one BLAS call fewer a step for two rows
or more (the design and its argument are in the comment above ``pd_iterate``).

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
from struct import Struct, pack

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
# pairs with n + i.  K, y, x, z and xbar are float64 arrays, the rest
# Python scalars.  Returns the state (x, z, xbar) after ``iters`` iterations
# as float64 arrays.
#
# The three reductions, whose summation order BLAS defines, stay BLAS calls on
# float64 arrays: the gemv K xbar, the ddot u.u and the gemv K^T z
# (``a.dot(v)`` makes the BLAS call ``a @ v`` makes, with less overhead).  Every
# other step is one correctly rounded operation per element, so it runs on
# Python floats in the order of the numpy expression it stands for --
# u_i = (z_i + sigma (K xbar)_i) - (sigma y)_i, z_i = u_i * factor,
# w_i = x_i - tau (K^T z)_i, the pair shrink and xbar_i = 2 x_new_i - x_i --
# and changes no summation order: the state is bit for bit that of the
# all-numpy loop in tests/pd_reference.py.  ``f if f > 0.0 else 0.0`` is
# max(0.0, f), NaN included.
#
# At 2-14 coordinates a step's cost is interpreter overhead, not arithmetic
# or BLAS: a loop over lists spends it on comprehensions, each with its own
# frame, on zips and on appends.  So the loop is generated as straight-line
# source with one local variable per coordinate, compiled and kept
# (``_pd_loop``) once per shape of K and variant; ``_pd_source`` builds the
# source from the two integers and two flags alone, ``real`` (the real
# variants below) and ``shift`` (the shift variants below).
# A step of the general loop is its three BLAS calls, the two ``.tolist()``
# that read the gemv results and three ``Struct.pack_into`` writes of u, the
# new z and the new xbar into float64 buffers, which store the doubles
# ``np.array`` would (signed zeros, subnormals, inf and NaN payloads
# included) without building an array.  The buffers are allocated once per
# call, so the z and xbar a call returns are its own: a later call never
# writes into them.  Building a shape's loop costs what it saves over a list
# loop in two to ten batches of 250 iterations, from 2 to 1,000 coordinates
# (measurements in ROADMAP's dead ends): it pays off for a shape that runs
# more than a few batches in one process.
#
# Fixed-point exit: one iteration is a deterministic function of the state
# (x, z, xbar) and of the fixed K, y, eps, tau and sigma, so once an iteration
# leaves the state unchanged bit for bit, every later one returns the same
# bytes and the loop stops there.  Float ``==`` alone is not that test: it
# holds for 0.0 == -0.0, and -0.0 occurs in x (the pair shrink of a < 0 by
# f = 0.0), so states that compare equal are confirmed on their packed bytes.
# A NaN never compares equal, so a state holding one never stops early.
#
# Real variants (A and y real), with the general loop's bytes.  One entry
# test, ``_real``, admits a batch to them: K is finite; its off-diagonal
# blocks K[:m, n:] and K[m:, :n], y[m:], x[n:], z[m:] and xbar[n:] are +0.0,
# sign bit included (all eight bytes zero); tau lies in [2**-510, 2**450]; and
# for one row, sigma * eps is +-0.0 or lies in that range too (real pairs,
# below).  ``solve_numeric`` sets every real instance up so, except the
# range: it sets tau = sigma = 1/L for L a bound on A's norm, so a real A
# whose entries are about 2**-450 or less (family members at ``--a 1e-400``
# from n = 451) runs the general loop, until A is scaled by a power of two
# (ROADMAP item 13).  A real variant packs, unpacks and steps only the real
# halves of u, z, w, x and xbar; the imaginary halves of its buffers and of
# the x it returns are +0.0.  It hands the rest of its batch, from the state
# it started with, to the general loop when an entry of the new z is not
# finite.
#
# Two or more rows (m >= 2): the step makes the general loop's three BLAS
# calls on the same full K and full-length buffers, so every real entry it
# reads has BLAS's bytes.  That is what the general loop computes, because
# while K and the real state it multiplies are finite, every imaginary output
# is a sum of zero products, a zero of some sign, and:
# - u_im = (+0.0 + sigma * (+-0.0)) - sigma * (+0.0) is +0.0 for any finite
#   sigma (rounding to nearest, +0.0 + -0.0, +0.0 - +0.0 and +0.0 - -0.0
#   are +0.0), so the ddot u.u reads the bytes it reads in the general loop,
#   and the new z_im = +0.0 * factor is +0.0 while factor is finite;
# - w_im = +0.0 - tau * (+-0.0) is +0.0 for a finite tau, so a pair norm is
#   sqrt(w_j w_j), which the step reads as |w_j| (real pairs, below), and
#   with tau > 0 the shrink factor lies in [0, 1], so the new x and xbar keep
#   +0.0 in their imaginary halves.
# The hand-off test covers each way an imaginary entry can leave +0.0.  A
# non-finite real entry of xbar, or sigma = +-inf or NaN, makes every u_re
# non-finite (a sum with a non-finite term is not finite, and sigma * 0.0 is
# NaN), and then some new z entry is not finite.  factor is infinite only
# when sigma * eps / nrm is -inf with nrm finite, say sigma < 0 and eps =
# inf; then some u_re is nonzero (nrm > 0), and its new z entry is +-inf.  So
# the test must not look at nrm alone: there nrm is finite and the new z_im =
# +0.0 * inf is NaN.
#
# One row (m = 1, the perturbation families; K has two rows): u.u and every
# output of K^T z that the state reads have at most one term that is not an
# exact zero, so their bytes depend neither on BLAS's summation order nor on
# whether it fuses a multiply-add (FMA), and Python forms them exactly:
# - u1 = (+0.0 + sigma k1) - sigma * (+0.0) is +0.0 whenever the new z0 is
#   finite (k1 is a zero of some sign), so u.u is u0 * u0, whose root the
#   step reads as |u0| (real pairs, below), and the new z1 is +0.0 again;
# - with a = K[0, :n], the real column j of K^T z is a_j z0 + (+0.0)(+0.0),
#   formed as ``a_j * z0 + 0.0``;
# - an imaginary column is (+0.0) z0 + a_j (+0.0), a zero of either sign, and
#   x_j - tau * (that zero) is +0.0 for a finite tau, so it is never formed;
#   with tau > 0 the pair shrink's factor lies in [0, 1], so the new x and
#   xbar keep +0.0 in their imaginary halves and a pair norm is sqrt(w_j w_j).
# A step is then the gemv K xbar, one ``.tolist()`` and one ``pack_into`` of
# xbar's real half, or none of these at two columns (below).  Its test that
# the new z0 is finite also covers u1: u1 is NaN only when sigma or an entry
# of xbar's real half is not finite, and then u0 and z0 are not finite
# either.  It also hands on when a nonzero a_j times a nonzero z0 rounds to
# zero, since an FMA inside BLAS gives that zero the sign of the exact
# product; with m >= 2, K^T z stays a BLAS call and needs no such test.  The
# step forms no u0 * u0, but its dual factor keeps the bytes of the one the
# ddot gives, also past |u0| of about 2**511, where u0 * u0 overflows to inf
# and the factor is 1.0 (ROADMAP item 13); the ddot of two rows or more
# still overflows there.
#
# Two columns (n = 2, the perturbation families): the step forms (K xbar)_0
# as ``(a0 * b0 + a1 * b1) + 0.0`` and makes no BLAS call, so it keeps no xbar
# buffer and returns xbar as an array of b0, b1 and two +0.0.  This rests on a
# measured property of the installed BLAS, not on an identity.  The gemv sum
# has two products that may be nonzero and two +0.0 * +0.0 terms; with two
# products every summation order rounds to fl(fl(p0) + fl(p1)), and adding
# +0.0 turns a -0.0 sum into the +0.0 the zero terms give it, so the one
# freedom left to BLAS is to fuse a product into the sum (FMA).  On OpenBLAS
# 0.3.31 (scipy-openblas, DYNAMIC_ARCH, on an AVX-512 Xeon) the 2 x 4 gemv
# gave those bytes in 200,000 of 200,000 seeded cases, once on random normal
# values and once with 40% edge values (signed zeros, subnormals, 2**+-520,
# 1e+-300, the largest float, +-inf in xbar).  The reductions that stay BLAS
# calls fuse: on the random normal cases a two-term ddot differed from the
# Python sum in 2,092 of 20,000, the two-row K^T z (gemv_n) in 2,123 and a
# one-row gemv of three columns from the left-to-right sum in 1,951.  A test
# (tests/test_kernels.py::test_two_column_gemv_is_unfused) pins the property
# on the installed BLAS, and a byte replay of the two-column solves pins their
# trajectories.  Every other shape keeps its gemv K xbar.
#
# Real pairs.  A real pair's norm sqrt(w * w), and the one-row dual norm
# sqrt(u0 * u0), enter the step only through the factor max(0, 1 - t / nrm),
# 0 unless nrm > 0 (t = tau, or sigma * eps), so the real loops form it as
# ``1.0 - t / w if w > 0.0 else 1.0 + t / w if w < 0.0 else 0.0`` (then the
# max), with the bytes of the root for t in [2**-510, 2**450]:
# - in binary floating point, RN(sqrt(RN(w * w))) = |w| wherever w * w is
#   normal and finite: scaled by 4**k to |w| in [1, 2), RN(w * w) is
#   w * w (1 + d) with |d| <= 2**-53, and its root differs from |w| by less
#   than |w| 2**-54 (1 + 2**-53) < 2**-53, half an ulp of |w|;
# - for w < 0, 1.0 + t / w is 1.0 - t / |w| exactly: division and negation
#   are sign-symmetric;
# - 0 < |w| < 2**-511: both norms are at most 2**-511 (or the root is 0),
#   so t / nrm >= 2 and both factors clamp to +0.0;
# - w * w overflows: |w| > 2**511, so t / |w| < 2**-61, and 1.0 - t / |w|
#   rounds to the 1.0 an infinite norm gives;
# - +-0.0 and NaN give 0.0 either way, +-inf 1.0.
# Outside the range the forms differ (t = 2**-600 with w = 2**-560, or t =
# 2**500 with w = 2**520), and so does t = sigma * eps = +-0.0: where u0 * u0
# rounds to 0 (0 < |u0| < 2**-537.5) the root's factor is 0.0 but the signed
# one 1.0.  A one-row batch of that kind runs the shift variant (below), whose
# hand-off skips the full one-row loop.  Complex pairs, and u.u for two rows
# or more, keep their roots.
#
# Shift variants.  When sigma * eps is +-0.0 (eps = 0, or sigma = 0 with eps
# finite), the dual step factor = 1.0 - se / nrm is 1.0 for every nrm > 0,
# inf included: se / nrm is a zero, and 1.0 minus a zero is 1.0.  Then
# u * factor = u * 1.0 = u bit for bit, signed zeros included, so the shift
# variant of each loop takes the dual step as v = u and forms neither u.u
# nor its root: no ``ua`` pack and, for two rows or more, no ddot.  Its step
# hands the rest of its batch, from the state it started with, to the full
# variant of the same loop when nrm might not be > 0, which is when
# - no |u_i| reaches 2**-511 (``_SHIFT_MIN``): with one that does, u.u is at
#   least that entry's square, a normal number, whatever BLAS's summation
#   order or use of FMA, since every other term is >= 0; without one, u.u
#   can round to 0 and the factor is then 0;
# - or some u_i is NaN: nrm is then NaN and the factor 0.
# Overflow needs no test: an infinite u_i makes u.u and nrm inf, and the
# factor is still 1.0.  A shift step keeps its loop's own hand-off test.
# ``pd_iterate`` picks the shift variants when ``sigma * eps == 0.0`` at entry
# (NaN is not) and runs its loops as one chain, each from the state and with
# the iterations the one before handed on: the real variant's shift and full
# loops, then the general loop's shift and full loops, skipping those that do
# not apply and, for one row, the full real loop after the shift one (real
# pairs, above).  The full general loop never hands on, so every batch ends
# there or before, and a loop is generated only when a batch reaches it.  A
# full real loop given a batch by its shift variant skips the entry test: the
# state it starts from keeps its imaginary halves at +0.0.
#
# ``_pd_source`` emits every variant from the same lines and varies only what
# the argument above allows: the halves stepped, how each factor's norm (a
# root of a ddot or of a sum of squares, or one real entry's sign, all emitted
# by ``_factor``) and K^T z (a gemv or ``a_j * v0 + 0.0``) are formed, and
# the hand-off test.

def _bits(v):
    """The float64 bytes of a list of floats."""
    return pack(f"{len(v)}d", *v)


def _names(prefix, count):
    return [f"{prefix}{i}" for i in range(count)]


def _unpack(names):
    return ", ".join(names) + ","


def _listed(names):
    return "[" + ", ".join(names) + "]"


def _factor(name, t, w, norm):
    """``name`` = max(0.0, 1.0 - t / ||w||), and 0.0 unless ||w|| > 0.  ``norm`` is
    ||w||'s expression; for one real entry w, |w| is read from w's sign instead
    (real pairs, above ``pd_iterate``)."""
    if len(w) == 1:
        a = w[0]
        lines = [f"{name} = 1.0 - {t} / {a} if {a} > 0.0 else 1.0 + {t} / {a} if {a} < 0.0 else 0.0"]
    else:
        lines = [f"mag = {norm}", f"{name} = 1.0 - {t} / mag if mag > 0 else 0.0"]
    return [*lines, f"{name} = {name} if {name} > 0.0 else 0.0"]


def _scaled(u, v):
    """The dual scaling v = u * factor, with ||u|| a ddot of the packed u unless u is one real entry."""
    pack = [] if len(u) == 1 else [f"pack_u(ua, 0, {_unpack(u)})"]
    return [*pack, *_factor("factor", "se", u, "sqrt(ua.dot(ua))"), *(f"{a} = {b} * factor" for a, b in zip(v, u))]


# the least |u_i| whose square is normal: one such entry makes u.u > 0
_SHIFT_MIN = 2.0**-511


def _shifted(u, v, state):
    """The dual scaling of a shift loop, sigma * eps = +-0.0: v = u, after the test
    that hands the rest of the batch on, returning ``state``, unless nrm > 0."""
    some_normal = " or ".join(f"abs({a}) >= {_SHIFT_MIN!r}" for a in u)
    nan = " or ".join(f"{a} != {a}" for a in u)
    return [
        f"if not ({some_normal}) or {nan}:",
        f"    return {state}, iters - i",
        *(f"{a} = {b}" for a, b in zip(v, u)),
    ]


def _shrunk(w, p):
    """The shrink of one pair into p, given its one or two w names."""
    norm = f"sqrt({' + '.join(f'{a} * {a}' for a in w)})"
    return [*_factor("f", "tau", w, norm), *(f"{a} = {b} * f" for a, b in zip(p, w))]


def _step_end(z, v, x, b, p, c, packed):
    """xbar = 2p - x, written into ``xb`` if ``packed``, the fixed-point exit and the state update."""
    new, old = v + p + c, z + x + b
    same = " and ".join(f"{a} == {o}" for a, o in zip(new, old))
    return [
        *(f"{ci} = 2.0 * {pi} - {xi}" for ci, pi, xi in zip(c, p, x)),
        *([f"pack_x(xb, 0, {_unpack(c)})"] if packed else []),
        f"if {same} and _bits({_listed(new)}) == _bits({_listed(old)}):",
        "    break  # a fixed point: x already holds the new x's bytes",
        *(f"{o} = {a}" for a, o in zip(new, old)),
    ]


def _loop(head, body, state):
    """The source of ``def pd_loop``: head, then ``iters`` runs of body, then ``state``
    and the count of iterations left to the next loop, 0."""
    lines = [
        "def pd_loop(K, y, eps, tau, sigma, x, z, xbar, iters):",
        *("    " + line for line in head),
        "    for i in range(iters):",
        *("        " + line for line in body),
        f"    return {state}, 0",
    ]
    return "\n".join(lines) + "\n"


def _halves(rows, cols, real):
    """The counts of dual and primal coordinates a loop steps: all, or the real halves."""
    return (rows // 2, cols // 2) if real else (rows, cols)


def _pd_source(rows, cols, real, shift):
    """The source of ``pd_loop`` for a rows x cols operator: the general loop, or the
    real variant if ``real`` (the one-row step if rows is 2); its shift variant if ``shift``.

    One local per stepped coordinate: x, z and b hold the state (x, z, xbar); k is
    K xbar, u the dual step before scaling and v the new z; g is K^T z, w the
    primal step before the shrink, p the new x and c the new xbar.  A real
    variant names the real halves alone and unpacks the imaginary ones into
    ``_``.  ``ua``, ``zb`` and ``xb`` are the float64 buffers the BLAS calls
    read, filled by ``pack_u`` and ``pack_x``; the one-row step keeps ``xb``
    alone, or no buffer at two columns, and reads a = K[0, :n] and amin, the
    least nonzero |a_j| (inf if there is none).  The loop returns the state and
    the count of iterations it leaves to the next loop: 0, or the rest of the
    batch from the start of the step it could not take.
    """
    n = cols // 2
    dual, primal = _halves(rows, cols, real)
    row = real and rows == 2
    pair = row and n == 2  # K xbar formed in Python: no xbar buffer
    x, b, g, w, p, c = (_names(s, primal) for s in "xbgwpc")
    z, sy, k, u, v = (_names(s, dual) for s in ("z", "sy", "k", "u", "v"))
    im_rows, im_cols = ["_"] * (rows - dual), ["_"] * (cols - primal)
    half_x, half_z = (f"[:{n}]", f"[:{dual}]") if real else ("", "")
    z_out = f"array({_listed(z + ['0.0'] * dual)})" if row else "zb"
    xb_out = f"array({_listed(b + ['0.0'] * primal)})" if pair else "xb"
    state = f"array({_listed(x + ['0.0'] * (cols - primal))}), {z_out}, {xb_out}"
    if row:
        a = _names("a", n)
        head = [f"{_unpack(a)} = K[0, :{n}].tolist()", f"amin = min([abs(v) for v in {_listed(a)} if v], default=inf)"]
        buffers = [] if pair else [f"xb = zeros({cols})"]
    else:
        alloc = "zeros" if real else "empty"
        head = ["Kt = K.T"]
        buffers = [f"ua, zb, xb = {alloc}({rows}), {alloc}({rows}), {alloc}({cols})"]
    head += [
        f"{_unpack(sy + im_rows)} = (sigma * y).tolist()",
        "se = sigma * eps",
        *buffers,
        f"{_unpack(x)} = x{half_x}.tolist()",
        f"{_unpack(z)} = z{half_z}.tolist()",
        f"{_unpack(b)} = xbar{half_x}.tolist()",
        *([] if row else [f"pack_u(zb, 0, {_unpack(z)})"]),
        *([] if pair else [f"pack_x(xb, 0, {_unpack(b)})"]),
    ]
    body = ["k0 = (a0 * b0 + a1 * b1) + 0.0"] if pair else [f"{_unpack(k + im_rows)} = K.dot(xb).tolist()"]
    body += [f"{ui} = ({zi} + sigma * {ki}) - {syi}" for ui, zi, ki, syi in zip(u, z, k, sy)]
    body += _shifted(u, v, state) if shift else _scaled(u, v)
    if real:
        finite = " and ".join(f"-inf < {vi} < inf" for vi in v)
        underflow = " or (v0 != 0.0 and amin * v0 == 0.0)" if row else ""
        body += [f"if not ({finite}){underflow}:", f"    return {state}, iters - i"]
    if row:
        g = [f"({aj} * v0 + 0.0)" for aj in a]
    else:
        body += [f"pack_u(zb, 0, {_unpack(v)})", f"{_unpack(g + im_cols)} = Kt.dot(zb).tolist()"]
    body += [f"{wj} = {xj} - tau * {gj}" for wj, xj, gj in zip(w, x, g)]
    body += [line for j in range(n) for line in _shrunk(w[j::n], p[j::n])]
    body += _step_end(z, v, x, b, p, c, not pair)
    return _loop(head, body, state)


def _compiled(source, label, **packers):
    """The ``pd_loop`` that ``source`` defines; each packer writes its count of doubles."""
    namespace = dict(array=np.array, empty=np.empty, zeros=np.zeros, sqrt=math.sqrt, inf=math.inf, _bits=_bits)
    namespace.update((packer, Struct(f"{count}d").pack_into) for packer, count in packers.items())
    exec(compile(source, f"<pd_loop {label}>", "exec"), namespace)
    return namespace["pd_loop"]


@functools.cache
def _pd_loop(rows, cols, real, shift):
    """``pd_loop`` for one shape of K and variant: compiled once and kept."""
    dual, primal = _halves(rows, cols, real)
    label = f"{rows}x{cols}" + (" real" if real else "") + (" shift" if shift else "")
    return _compiled(_pd_source(rows, cols, real, shift), label, pack_u=dual, pack_x=primal)


# the range of tau, and of a nonzero sigma * eps for one row, in which a real
# step's factors read |w| from w's sign
_FACTOR_MIN, _FACTOR_MAX = 2.0**-510, 2.0**450


def _real(K, y, tau, se, x, z, xbar):
    """Whether the real variants may run: K is finite, its off-diagonal blocks and
    the imaginary state are +0.0 (all eight bytes zero), tau lies in
    [2**-510, 2**450] and, for one row, se = sigma * eps is +-0.0 or lies there too."""
    in_range = lambda t: _FACTOR_MIN <= t <= _FACTOR_MAX
    if not (in_range(tau) and (K.shape[0] > 2 or se == 0.0 or in_range(se))):
        return False
    m, n = K.shape[0] // 2, K.shape[1] // 2
    zero = (K[:m, n:], K[m:, :n], y[m:], x[n:], z[m:], xbar[n:])
    return not any(b"".join(v.tobytes() for v in zero)) and np.isfinite(K).all()


def _loops(rows, cols, real, shift):
    """The loops a batch may run, in turn, each built when it is reached: the
    shift variant before the full one, the real variant before the general
    loop, and no full one-row loop after a shift one."""
    variants = (True, False) if shift else (False,)
    for r in (True, False) if real else (False,):
        for s in variants:
            if s or not (r and shift and rows == 2):
                yield _pd_loop(rows, cols, r, s)


def pd_iterate(K, y, eps, tau, sigma, x, z, xbar, iters):
    se = sigma * eps
    for loop in _loops(*K.shape, _real(K, y, tau, se, x, z, xbar), se == 0.0):
        x, z, xbar, iters = loop(K, y, eps, tau, sigma, x, z, xbar, iters)
        if not iters:
            return x, z, xbar
