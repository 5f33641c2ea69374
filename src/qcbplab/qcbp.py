"""Quadratically constrained basis pursuit: problem type, exact oracle, solver.

The problem is min ||x||_1 subject to ||Ax - y||_2 <= eps for A with more
columns than rows.  Three solution paths live here:

* a closed-form exact solution set for single-row instances with positive real
  row, positive real measurement y and eps in [0,y) -- the oracle everything
  else is checked against;
* a generic float primal-dual solver whose results are re-certified a
  posteriori in exact rational arithmetic (residual bound, duality sandwich);
* a brute-force dyadic grid search that cross-validates the oracle on tiny
  instances: its search is independent of both, its exact set-up the solver's.

The single-valued selection rule is fixed once and for all: weight 1 on the
smallest active index.  Every downstream experiment inherits its determinism
from this choice.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import reduce
from math import ceil, floor, hypot, inf, isfinite
from operator import add, mul, sub
from struct import pack
from typing import Iterable

from qcbplab.rationals import (
    CZERO,
    CONE,
    ComplexQ,
    RationalMatrix,
    RationalVector,
    abs_upper_ints,
    dyadic_sqrt_upper,
    echelon,
    fmt_rational,
    l2_norm_sq,
    matrix_from_json,
    matrix_to_json,
    operator_norm_sq_upper,
    parse_rational,
    row_rank,
    scaled_integers,
    sqrt_upper_ints,
    vector_from_json,
    vector_to_json,
)


class OracleDomainError(ValueError):
    """A closed-form-oracle precondition failed; message names the condition."""


class RankDeficientError(ValueError):
    """solve_numeric, and brute_force_min when x = 0 is infeasible, need A of full row rank."""


class FloatRangeError(ValueError):
    """An exact value lies past float64's range; ``field`` names it (A[i,j], y[i], eps or x[j])."""

    def __init__(self, field: str):
        super().__init__(f"{field} does not fit a float64")
        self.field = field


class GridTooLargeError(ValueError):
    """brute_force_min rejected the requested grid size."""


# largest (2k+1)**N box brute_force_min accepts: a bound on the box, not on
# the points scanned (the scan examines a few per prefix of the first N-1
# axes, on int64 and on Python ints alike)
GRID_POINT_CAP = 300_000_000


@dataclass(frozen=True)
class Instance:
    """A QCBP problem (A, y, eps) with exact entries."""

    A: RationalMatrix
    y: RationalVector
    eps: Q

    def __post_init__(self):
        if self.A.m < 1:
            raise ValueError("need at least one row")
        if self.A.n < 2:
            raise ValueError("need at least two columns")
        if self.A.m >= self.A.n:
            raise ValueError(f"need m < N, got m={self.A.m}, N={self.A.n}")
        if self.y.n != self.A.m:
            raise ValueError("measurement length must equal row count")
        if self.eps < 0:
            raise ValueError("eps must be nonnegative")

    @property
    def m(self) -> int:
        return self.A.m

    @property
    def n(self) -> int:
        return self.A.n

    @staticmethod
    def single_row(row, y=1, eps: Q = Q(0)) -> "Instance":
        return Instance(
            A=RationalMatrix.from_rows([row]),
            y=RationalVector.from_items([y]),
            eps=Q(eps),
        )

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "N": self.n,
            "A": matrix_to_json(self.A),
            "y": vector_to_json(self.y),
            "eps": fmt_rational(self.eps),
        }

    @staticmethod
    def from_json(obj: dict) -> "Instance":
        inst = Instance(
            A=matrix_from_json(obj["A"]),
            y=vector_from_json(obj["y"]),
            eps=parse_rational(obj["eps"]),
        )
        # "m" and "N" are optional; when present they are JSON integers giving A's size
        for key, size in (("m", inst.m), ("N", inst.n)):
            if key in obj and (type(obj[key]) is not int or obj[key] != size):
                raise ValueError(f'"{key}" is {obj[key]!r}, but A is {inst.m}x{inst.n}')
        return inst


@dataclass(frozen=True)
class SolutionSimplex:
    """Closed-form solution set of a single-row instance.

    Every solution is sum_j t_j * scale * inv_max * e_j over the active
    indices, with barycentric weights t (t_j in [0,1], sum 1).  ``active``
    holds 0-based indices of the maximal row entries, ``inv_max`` the exact
    reciprocal of that maximum, ``scale`` equals y - eps.
    """

    dimension: int
    scale: Q
    active: tuple[int, ...]
    inv_max: Q

    def __post_init__(self):
        if not self.active:
            raise ValueError("active set must be nonempty")
        if self.inv_max <= 0:
            raise ValueError("inverse coefficient must be positive")

    def vertex(self, which: int) -> RationalVector:
        """The solution with full weight on active[which]."""
        entries = [CZERO] * self.dimension
        entries[self.active[which]] = ComplexQ(self.l1_value(), Q(0))
        return RationalVector(tuple(entries))

    def l1_value(self) -> Q:
        """Shared exact l1 norm of every point of the simplex."""
        return self.scale * self.inv_max


def exact_solution_set(inst: Instance) -> SolutionSimplex:
    """Closed-form solution set for m=1, real y > 0, positive real row, eps in [0,y).

    Active indices are the maximizers of the row; each contributes the vertex
    (y-eps)/a_j * e_j, and the set is their convex hull.  Everything is exact.
    """
    if inst.m != 1:
        raise OracleDomainError(f"oracle requires a single row, got m={inst.m}")
    y0 = inst.y.entries[0]
    if not (y0.im == 0 and y0.re > 0):
        raise OracleDomainError("oracle requires a real y > 0")
    y = y0.re
    if not (0 <= inst.eps < y):
        raise OracleDomainError(f"oracle requires eps in [0,{y}), got {inst.eps}")
    row = inst.A.rows[0]
    for j, e in enumerate(row):
        if e.im != 0:
            raise OracleDomainError(f"oracle requires a real row; entry {j} is complex")
        if e.re <= 0:
            raise OracleDomainError(f"oracle requires positive entries; entry {j} is {e.re}")
    amax = max(e.re for e in row)
    active = tuple(j for j, e in enumerate(row) if e.re == amax)
    return SolutionSimplex(dimension=inst.n, scale=y - inst.eps, active=active, inv_max=1 / amax)


def select(simplex: SolutionSimplex) -> RationalVector:
    """Single-valued selection: full weight on the smallest active index."""
    return simplex.vertex(0)


def feasible(inst: Instance, x: RationalVector) -> bool:
    """Exact feasibility: compares squared residual against eps^2."""
    if x.n != inst.n:
        raise ValueError(f"candidate has length {x.n}, instance needs {inst.n}")
    residual = inst.A.matvec(x) - inst.y
    return l2_norm_sq(residual) <= inst.eps * inst.eps


# --- embedding of single-row instances into m > 1 ------------------------------

def embed(core: Instance, m: int) -> Instance:
    """Block-embed a single-row core into m rows: A = [[core.A, 0], [0, I]], y = (y, 0, ..., 0).

    The width is N = core.n + m - 1, and solutions correspond exactly via
    zero-padding of the trailing m - 1 slots.
    """
    if core.m != 1:
        raise ValueError("embedding starts from a single-row instance")
    if m < 1:
        raise ValueError(f"embedding needs m >= 1, got {m}")
    if m == 1:
        return core
    rows = [tuple(core.A.rows[0]) + (CZERO,) * (m - 1)]
    for i in range(m - 1):
        row = [CZERO] * (core.n + m - 1)
        row[core.n + i] = CONE
        rows.append(tuple(row))
    y = (core.y.entries[0],) + (CZERO,) * (m - 1)
    return Instance(A=RationalMatrix(tuple(rows)), y=RationalVector(y), eps=core.eps)


# --- generic numerical solver ---------------------------------------------------

@dataclass
class SolveReport:
    """Float solve plus exact a posteriori certificates.

    ``x`` holds the solution with exact dyadic entries (floats are dyadic);
    ``residual_ub`` is a dyadic upper bound on the true residual of that exact
    vector; ``objective_ub`` an exact upper bound on its l1 value; and
    ``lower_bound`` a weak-duality lower bound on the true optimum, so
    objective_ub - lower_bound brackets the suboptimality.  ``iterations``
    counts the iterations accounted for, batch by batch.  A batch stops at a
    bit-exact fixed point (at seed 1 generic-solve simulated 108,256 of its
    154,500 over 618 kernel calls, families-solve 23,052 of 25,000 over 100),
    and a solve whose batch returns its input state stops and accounts for
    the rest of ``max_iter``.
    """

    x: RationalVector
    objective_ub: Q
    lower_bound: Q
    residual_sq: Q
    residual_ub: Q
    iterations: int
    converged: bool

    def to_json(self) -> dict:
        return {
            "x": vector_to_json(self.x),
            "objective_ub": fmt_rational(self.objective_ub),
            "objective_float": float(self.objective_ub),
            "lower_bound": fmt_rational(self.lower_bound),
            "residual_sq": fmt_rational(self.residual_sq),
            "residual_ub": fmt_rational(self.residual_ub),
            "residual_float": float(self.residual_ub),
            "iterations": self.iterations,
            "converged": self.converged,
        }


@dataclass(frozen=True)
class _ScaledInstance:
    """The realified instance in integers: K = k / den and y = y / den exactly.

    ``den`` is the lcm of every denominator in A and y; ``k`` holds the rows
    of [[Re A, -Im A], [Im A, Re A]], ``k_cols`` its columns and ``y`` the
    stacked (Re y, Im y), all scaled by ``den``.  ``real`` says A and y are real.
    """

    k: list[list[int]]
    k_cols: list[tuple[int, ...]]
    y: list[int]
    den: int
    real: bool

    def floats(self) -> tuple[list[list[float]], list[float]]:
        """The rows of K and y as floats; an integer true division rounds correctly, as float(Fraction) does."""
        return [[v / self.den for v in row] for row in self.k], [v / self.den for v in self.y]


def _realified(A: RationalMatrix, y: RationalVector) -> tuple[_ScaledInstance, int, Q]:
    """A and y scaled to integers once, with A's row rank and squared operator norm bound.

    The realification's real rank is twice the complex rank of A.  For a real
    A it is block diagonal, so A's rank is that of its real part alone.
    """
    n = A.n
    ints, den = scaled_integers(
        [[e.re for e in r] + [e.im for e in r] for r in A.rows]
        + [[e.re for e in y.entries] + [e.im for e in y.entries]]
    )
    y_int = ints.pop()
    k = [r[:n] + [-v for v in r[n:]] for r in ints] + [r[n:] + r[:n] for r in ints]
    real = not any(v for r in ints for v in r[n:])
    scaled = _ScaledInstance(k=k, k_cols=list(zip(*k)), y=y_int, den=den, real=real and not any(y_int[A.m :]))
    rank = row_rank([r[:n] for r in ints]) if real else row_rank(k) // 2
    return scaled, rank, operator_norm_sq_upper(ints, den)


def float_range_error(named: Iterable[tuple[str, Q]]) -> FloatRangeError:
    """The error naming the first (name, value) pair whose value is past float64's range."""
    for name, v in named:
        try:
            float(v)
        except OverflowError:
            return FloatRangeError(name)
    raise AssertionError("every value fits a float64")


def named_entries(inst: Instance) -> list[tuple[str, Q]]:
    """Each part of A, then of y, then eps, named as A[i,j], y[i] and eps (indices from 0)."""
    named = [(f"A[{i},{j}]", v) for i, row in enumerate(inst.A.rows) for j, e in enumerate(row) for v in (e.re, e.im)]
    named += [(f"y[{i}]", v) for i, e in enumerate(inst.y.entries) for v in (e.re, e.im)]
    named.append(("eps", inst.eps))
    return named


Pair = tuple[int, int]  # a rational as (numerator, denominator > 0), not reduced


def _dyadic_ints(v: list[float]) -> tuple[list[int], int]:
    """Integers X and an exponent E with v == X / 2**E exactly, entry by entry.

    Raises ValueError for NaN and OverflowError for an infinite entry.
    """
    ratios = [t.as_integer_ratio() for t in v]
    e = max(d.bit_length() for _, d in ratios) - 1
    return [p << (e + 1 - d.bit_length()) for p, d in ratios], e


def _dual_lower_bound(z: list[float], scaled: _ScaledInstance, eps: Q) -> Pair:
    """Weak-duality lower bound from an exactified dual iterate, as an integer
    pair (numerator, denominator > 0), not reduced.

    Scales z down by a certified bound on the pair-infinity norm of K^T z so
    the scaled vector is dual feasible, then evaluates the dual objective with
    an upper bound on ||z||, erring downward throughout.  With z = Z / 2**F,
    K^T z and <y, z> are integer sums over den * 2**F, and the bound is one
    quotient of integers.
    """
    zs, f = _dyadic_ints(z)
    kt_z = [sum(map(mul, col, zs)) for col in scaled.k_cols]
    n = len(kt_z) // 2
    cmax_sq = max(kt_z[j] ** 2 + kt_z[n + j] ** 2 for j in range(n))
    scale = scaled.den << f
    scale_sq = scale * scale
    cp, cq = sqrt_upper_ints(cmax_sq, scale_sq) if cmax_sq > scale_sq else (1, 1)  # c_ub
    ip = sum(map(mul, scaled.y, zs))  # <y, z> = ip / scale
    zp, zq = sqrt_upper_ints(sum(v * v for v in zs), 1 << (2 * f))  # ||z|| <= zp / zq
    en, ed = eps.numerator, eps.denominator
    # (-<y, z> - eps zp / zq) / (cp / cq)
    return (-ip * ed * zq - scale * en * zp) * cq, scale * ed * zq * cp


# Polishing computes on Python floats, as the primal-dual kernel does: each
# operation rounds on its own, every sum runs left to right and every norm is
# math.hypot, which CPython computes itself.  So a candidate's bytes depend
# neither on the CPU nor on a BLAS or LAPACK library.

def _dot(a, b) -> float:
    """a_0 * b_0 + a_1 * b_1 + ..., left to right (a and b not empty)."""
    return reduce(add, map(mul, a, b))


def _reflect(v: list[float], tau: float, y: list[float]) -> list[float]:
    """The Householder reflection y - tau (v . y) v."""
    s = tau * _dot(v, y)
    return [yi - s * vi for yi, vi in zip(y, v)]


def _lstsq(cols: list, b: list[float]) -> list[float] | None:
    """The least-squares solution of A x = b for A with columns ``cols``, or, with more
    columns than rows, the least-norm solution, by Householder QR; None at a zero
    (or non-finite) pivot, where a column of A, or of A^T if A is wide, depends
    on those before it.

    Reflector k maps entries k.. of a vector y to ``_reflect(v, tau, y)``, with
    v[0] = 1 and |v_i| <= 1, so no step squares an entry.  A tall A = QR gives
    x with R x = (Q^T b)[:cols]; a wide A = R^T Q^T, from the QR of A^T, gives
    x = Q (w, 0) with R^T w = b.  R is kept by columns.
    """
    tall = len(cols) <= len(b)
    R, reflectors = [list(c) for c in (cols if tall else zip(*cols))], []
    for k, col in enumerate(R):
        x0, norm = col[k], hypot(*col[k:])
        if not 0.0 < norm < inf:
            return None
        v0 = x0 - norm if x0 < 0 else x0 + norm  # |v0| = |x0| + norm: no cancellation
        reflectors.append(([1.0, *(t / v0 for t in col[k + 1 :])], 1.0 + abs(x0) / norm))
        col[k] = norm if x0 < 0 else -norm
        for c in R[k + 1 :]:
            c[k:] = _reflect(*reflectors[k], c[k:])
    if tall:
        for k, (v, tau) in enumerate(reflectors):
            b = b[:k] + _reflect(v, tau, b[k:])
        x = [0.0] * len(R)
        for k in reversed(range(len(R))):
            x[k] = reduce(sub, (R[j][k] * x[j] for j in range(k + 1, len(R))), b[k]) / R[k][k]
        return x
    w = []
    for k, col in enumerate(R):
        w.append(reduce(sub, map(mul, col[:k], w), b[k]) / col[k])
    x = w + [0.0] * (len(cols) - len(w))
    for k in reversed(range(len(R))):
        x[k:] = _reflect(*reflectors[k], x[k:])
    return x


def _polish_primal(K: list, y: list[float], eps: float, bound: float, z: list[float], n: int) -> list[float] | None:
    """Least-squares primal candidate on the support the dual iterate points at.

    K is A's real part, with y and z real, or the realified K, whose column j
    pairs with n + j.  Ranks the n column pairs by the pair norm of K^T z and,
    for k = 1..m, solves K_S x_S = y + eps z/||z|| on the top k pairs S:
    the saddle-point condition Kx - y = eps z/||z|| on a guessed support.
    Returns the candidate of least float pair l1 norm whose float residual is
    within ``bound``, or None.
    """
    cols = list(zip(*K))
    halves = len(cols) // n
    kt_z = [_dot(c, z) for c in cols]
    order = sorted(range(n), key=[hypot(*kt_z[j::n]) for j in range(n)].__getitem__, reverse=True)
    z_norm = hypot(*z)
    target = [yi + eps * zi / z_norm for yi, zi in zip(y, z)] if z_norm > 0 else y
    best, best_l1 = None, inf
    for k in range(1, len(K) // halves + 1):
        support = [j + h * n for h in range(halves) for j in order[:k]]
        xs = _lstsq([cols[j] for j in support], target)
        if xs is None:
            continue
        l1 = reduce(add, (hypot(*xs[i::k]) for i in range(k)))
        residual = hypot(*(_dot(row, xs) - yi for row, yi in zip(zip(*(cols[j] for j in support)), y)))
        if residual <= bound and l1 < best_l1:
            x = dict(zip(support, xs))
            best, best_l1 = [x.get(j, 0.0) for j in range(len(cols))], l1
    return best


def _polish_dual(K: list, x: list[float], z: list[float], n: int) -> list[float] | None:
    """Nearest point to z with (K^T z)_j = -x_j/|x_j| on the support of x, or None;
    K, x and z as ``_polish_primal`` takes them."""
    mag = [hypot(*x[j::n]) for j in range(n)]
    support = [j + h * n for h in range(len(x) // n) for j in range(n) if mag[j] > 0]
    if not support:
        return None
    M_cols = [[row[j] for j in support] for row in K]  # M = K_S^T
    r = [-x[j] / mag[j % n] - _dot(row, z) for j, row in zip(support, zip(*M_cols))]
    d = _lstsq(M_cols, r)
    return None if d is None else [zi + di for zi, di in zip(z, d)]


def _certify_primal(scaled: _ScaledInstance, x: list[float]) -> tuple[Pair, Pair, Pair, list[float]]:
    """Exactify a float point: (objective_ub, residual_sq, residual_ub, x), x itself,
    each bound an integer pair (numerator, denominator > 0), not reduced.

    With x = X / 2**E the residual of row i is (k_i . X - y_i 2**E) / (den 2**E),
    and objective_ub sums ``abs_upper_ints`` of X over 2**E: exact when x is real.
    """
    xs, e = _dyadic_ints(x)
    sq = sum((sum(map(mul, row, xs)) - (yi << e)) ** 2 for row, yi in zip(scaled.k, scaled.y))
    d2 = (scaled.den << e) ** 2
    mags, w = abs_upper_ints(xs, 1 << e)
    return (sum(mags), w), (sq, d2), sqrt_upper_ints(sq, d2), x


def _lt(a: Pair, b: Pair) -> bool:
    """a < b for rationals given as integer pairs (numerator, denominator > 0)."""
    return a[0] * b[1] < b[0] * a[1]


def _le(a: Pair, b: Pair) -> bool:
    """a <= b for rationals given as integer pairs (numerator, denominator > 0)."""
    return a[0] * b[1] <= b[0] * a[1]


def _gap_within(upper: Pair, lower: Pair, tol: Pair) -> bool:
    """upper - lower <= tol for rationals given as integer pairs (numerator, denominator > 0)."""
    return _le((upper[0] * lower[1] - lower[0] * upper[1], upper[1] * lower[1]), tol)


def _exact_point(x: list[float]) -> RationalVector:
    """The complex vector whose entries are the dyadic values of x = (re, im)."""
    xq = [Q(*v.as_integer_ratio()) for v in x]
    n = len(xq) // 2
    return RationalVector(tuple(ComplexQ(xq[j], xq[n + j]) for j in range(n)))


def solve_numeric(inst: Instance, tol=Q(1, 10**6), max_iter: int = 200_000) -> SolveReport:
    """Primal-dual first-order solve with exact a posteriori certification.

    Iterates Chambolle-Pock in float64 with step sizes 1/L for a certified
    rational upper bound L on the operator norm, checking every batch whether
    the exactified iterate satisfies residual <= eps + tol and sits within tol
    of the best weak-duality lower bound.  A batch that fails this check is
    followed by polishing: the dual iterate guesses the support, a
    least-squares solve on it proposes a primal point, and the sign pattern of
    that point proposes a dual point.  Both proposals pass through the same
    exact certificates as the iterate and can only improve the best certified
    point or lower bound; the iteration itself continues unchanged.  Never
    trusts a float: all reported bounds are recomputed over the rationals.
    A batch after the first that returns its input state bit for bit has
    stalled: the kernel, the certificates and polishing are deterministic, so
    every later full batch would repeat it, and the solve accounts for them
    without running them (only a last, shorter batch still runs).
    An entry of A or y, or eps, past float64's range raises FloatRangeError
    naming it, and an operator norm bound past that range or below its
    normal range raises ValueError naming the bound; entries that round to
    0.0 are accepted.  An iterate that is no longer finite raises
    FloatingPointError.
    """
    from qcbplab import _kernels

    tol = Q(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    scaled, rank, norm_sq = _realified(inst.A, inst.y)
    if rank < inst.m:
        raise RankDeficientError(f"row rank {rank} < m={inst.m}")

    try:
        K, yv = scaled.floats()
        eps_f = float(inst.eps)
    except OverflowError:
        raise float_range_error(named_entries(inst)) from None
    L_num, L_den = sqrt_upper_ints(norm_sq.numerator, norm_sq.denominator)
    try:  # an integer true division rounds as float(Fraction) does
        L = L_num / L_den
    except OverflowError:
        raise ValueError("the operator norm bound of A is past float64's range") from None
    if 0 < L < sys.float_info.min:
        raise ValueError("the operator norm bound of A is below float64's normal range")
    step = 1.0 / L if L > 0 else 1.0

    z, x, xbar = [0.0] * len(K), [0.0] * len(K[0]), [0.0] * len(K[0])
    state_format = f"<{len(z) + 2 * len(x)}d"
    tol_q = tol.numerator, tol.denominator
    bound = inst.eps + tol
    bound_q = bound.numerator, bound.denominator

    batch = 250
    iterations = 0
    best_lower: Pair = (0, 1)  # x=0 shows the optimum is >= 0
    best_feasible: tuple[Pair, Pair, Pair, list[float]] | None = None
    certified = False  # the last gap test's result

    def offer(candidate):
        nonlocal best_feasible
        if _le(candidate[2], bound_q) and (best_feasible is None or _lt(candidate[0], best_feasible[0])):
            best_feasible = candidate

    def raise_lower(lower):
        nonlocal best_lower
        if _lt(best_lower, lower):  # the old bound wins a tie
            best_lower = lower

    # polishing solves on A's real part and the real halves of y and z when the
    # instance is real, and gives +0.0 imaginary halves, as the kernel's real loop does
    rows, cols = (inst.m, inst.n) if scaled.real else (len(K), len(K[0]))
    K_pol, y_pol = [row[:cols] for row in K[:rows]], yv[:rows]

    def gap_closed() -> bool:
        return best_feasible is not None and _gap_within(best_feasible[0], best_lower, tol_q)

    while iterations < max_iter:
        todo = min(batch, max_iter - iterations)
        state = pack(state_format, *x, *z, *xbar)
        x, z, xbar = _kernels.pd_iterate(K, yv, eps_f, step, step, x, z, xbar, todo)
        iterations += todo
        if iterations > todo and pack(state_format, *x, *z, *xbar) == state:
            # stalled after the first batch: every later batch of 250 returns
            # this state again and certifies it as the last batch did, so
            # only a shorter last batch still runs
            iterations = max_iter - (max_iter - iterations) % batch
            continue

        try:  # _dyadic_ints rejects a NaN or infinite entry
            raise_lower(_dual_lower_bound(z, scaled, inst.eps))
            last = _certify_primal(scaled, x)
        except (ValueError, OverflowError):
            raise FloatingPointError(f"the primal-dual iterate is not finite after {iterations} iterations") from None
        offer(last)
        certified = gap_closed()
        if not certified:
            x_pol = _polish_primal(K_pol, y_pol, eps_f, bound_q[0] / bound_q[1], z[:rows], inst.n)
            if x_pol is not None and all(map(isfinite, x_pol)):
                offer(_certify_primal(scaled, x_pol + [0.0] * (2 * inst.n - cols)))
                z_pol = _polish_dual(K_pol, x_pol, z[:rows], inst.n)
                if z_pol is not None and all(map(isfinite, z_pol)):
                    raise_lower(_dual_lower_bound(z_pol + [0.0] * (2 * inst.m - rows), scaled, inst.eps))
                certified = gap_closed()
        if certified:
            break

    objective_ub, residual_sq, residual_ub, x_point = best_feasible or last
    return SolveReport(
        x=_exact_point(x_point),
        objective_ub=Q(*objective_ub),
        lower_bound=Q(*best_lower),
        residual_sq=Q(*residual_sq),
        residual_ub=Q(*residual_ub),
        iterations=iterations,
        converged=certified,
    )


# --- brute force ----------------------------------------------------------------

@dataclass
class BruteForceReport:
    """Best point of the relaxed dyadic grid search.

    The constraint is relaxed to eps + relaxation, where relaxation covers the
    worst-case feasibility loss from rounding any feasible point to the grid;
    this makes a near-optimal grid point always exist (exact-equality
    feasibility on a grid is generally empty, e.g. for eps = 0).  For
    single-row instances ``stated_tol`` is a proven two-sided bound on
    |value - true optimum|.
    """

    value: Q
    argmin: RationalVector
    relaxation: Q
    stated_tol: Q | None
    box_radius: int


def _exact_particular_solution(coeffs: list[list[int]], ys: list[int]) -> list[Q]:
    """Some exact real solution of Ax = y, given A and y as integers over one D.

    A has full row rank (the caller has checked it).  For a single row the
    largest entry gives the smallest search box, so pick it directly.
    Otherwise back-substitute on the echelon form of [A | y], free vars 0.
    """
    n = len(coeffs[0])
    if len(coeffs) == 1:
        row = coeffs[0]
        best = max(range(n), key=lambda j: abs(row[j]))
        x = [Q(0)] * n
        x[best] = Q(ys[0], row[best])
        return x
    work, pivots = echelon([row + [b] for row, b in zip(coeffs, ys)], n)
    x = [Q(0)] * n
    for row, c in reversed(list(zip(work, pivots))):
        x[c] = (row[n] - sum((row[j] * x[j] for j in range(c + 1, n)), Q(0))) / row[c]
    return x


def brute_force_min(inst: Instance, grid_exp: int) -> BruteForceReport:
    """Exhaustive search over the dyadic grid of step 2**-grid_exp.

    From the solver's exact set-up, a search independent of the closed-form
    oracle and of the iterative solver: pure integer feasibility tests over a
    box sized by the l1 norm of one exact feasible point.  Exhaustive means
    every grid point is accounted for: each setting of the first N-1
    coordinates gets the exact interval of feasible last coordinates (see
    ``_kernels``), on int64 when that is proved exact and on Python ints
    otherwise.  N <= 4, grid_exp <= 8, real instances only.
    """
    from qcbplab import _kernels

    if inst.n > 4:
        raise GridTooLargeError(f"brute force supports N <= 4, got {inst.n}")
    if grid_exp > 8 or grid_exp < 0:
        raise GridTooLargeError(f"grid_exp must be in [0, 8], got {grid_exp}")
    if not (inst.A.is_real() and inst.y.is_real()):
        raise ValueError("brute force handles real instances only")

    # the solver's set-up: for a real instance the first m rows of scaled.k,
    # cut to N columns, and scaled.y[:m] are A and y as integers over D
    n, m = inst.n, inst.m
    scaled, rank, norm_sq_ub = _realified(inst.A, inst.y)
    coeffs, ys = [row[:n] for row in scaled.k[:m]], scaled.y[:m]

    h = Q(1, 2**grid_exp)
    op_ub = dyadic_sqrt_upper(norm_sq_ub, 20)
    sqrt_n_ub = dyadic_sqrt_upper(Q(n), 20)
    relaxation = op_ub * sqrt_n_ub * h / 2

    if l2_norm_sq(inst.y) <= inst.eps * inst.eps:
        radius = Q(0)  # x = 0 is feasible, so it is the optimum
    elif rank < m:
        raise RankDeficientError(f"row rank {rank} < m={m}")
    else:
        radius = sum(abs(v) for v in _exact_particular_solution(coeffs, ys))
    k = ceil(radius / h)
    if (2 * k + 1) ** n > GRID_POINT_CAP:
        raise GridTooLargeError(f"grid has {(2 * k + 1) ** n} points, cap is {GRID_POINT_CAP}")

    # integer form: at grid point p * h the row residuals are s_i / (D * 2**grid_exp)
    # for integers s_i, and feasibility is sum s_i^2 <= floor(((eps+relax)*D*2**grid_exp)^2)
    shift = [b << grid_exp for b in ys]
    rhs = floor(((inst.eps + relaxation) * scaled.den * 2**grid_exp) ** 2)

    # max_row[i] bounds |s_i| on the box, so worst_sum bounds every square sum
    # the int64 scan forms and, for k >= 1, its vertex terms (see _kernels)
    max_row = [sum(map(abs, row)) * k + abs(s) for row, s in zip(coeffs, shift)]
    worst_sum = sum(s * s for s in max_row)
    exact_fallback = worst_sum >= 2**62 or rhs >= 2**62

    obj, p = _kernels.grid_scan(coeffs, shift, rhs, k, exact_fallback)
    if obj < 0:
        raise RuntimeError("relaxed grid search found no feasible point; relaxation bug")

    value = Q(obj) * h
    argmin = RationalVector.from_items([Q(int(v)) * h for v in p])

    stated_tol = None
    if m == rank == 1:
        # two-sided: grid rounding costs <= N*h/2 in l1; relaxing eps by
        # delta moves the single-row optimum max(0,|y|-eps)/amax by <= delta/amax
        amax = max(abs(e.re) for e in inst.A.rows[0])
        stated_tol = Q(n) * h / 2 + relaxation / amax
    return BruteForceReport(
        value=value,
        argmin=argmin,
        relaxation=relaxation,
        stated_tol=stated_tol,
        box_radius=k,
    )
