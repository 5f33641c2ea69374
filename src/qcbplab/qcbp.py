"""Quadratically constrained basis pursuit: problem type, exact oracle, solver.

The problem is min ||x||_1 subject to ||Ax - y||_2 <= eps for A with more
columns than rows.  Three solution paths live here:

* a closed-form exact solution set for single-row instances with positive real
  row, positive real measurement y and eps in [0,y) -- the oracle everything
  else is checked against;
* a generic float primal-dual solver whose results are re-certified a
  posteriori in exact rational arithmetic (residual bound, duality sandwich);
* a brute-force dyadic grid search, deliberately independent of both, used to
  cross-validate the oracle on tiny instances.

The single-valued selection rule is fixed once and for all: weight 1 on the
smallest active index.  Every downstream experiment inherits its determinism
from this choice.  :func:`select_embedded` solves an m-row :func:`embed`
of a single-row core from the core itself.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction as Q
from math import ceil, sqrt
from operator import mul
from typing import Iterable

import numpy as np

from qcbplab import _kernels
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
    """solve_numeric requires full row rank so the constraint set is nonempty."""


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


def select_embedded(core: Instance, m: int) -> RationalVector:
    """Exact selected solution of ``embed(core, m)``: the core's, zero-padded.

    The tail coordinates enter the residual additively as x_i^2, so any
    minimum-l1 solution zeroes them and the problem reduces exactly to the
    single-row core, to which the oracle applies.
    """
    x = select(exact_solution_set(core))
    return RationalVector(x.entries + (CZERO,) * (m - 1))


# --- generic numerical solver ---------------------------------------------------

@dataclass
class SolveReport:
    """Float solve plus exact a posteriori certificates.

    ``x`` holds the solution with exact dyadic entries (floats are dyadic);
    ``residual_ub`` is a dyadic upper bound on the true residual of that exact
    vector; ``objective_ub`` an exact upper bound on its l1 value; and
    ``lower_bound`` a weak-duality lower bound on the true optimum, so
    objective_ub - lower_bound brackets the suboptimality.  ``iterations``
    counts the iterations accounted for, batch by batch; those after
    a bit-exact fixed point are not simulated (on the generic-solve
    benchmark workload, seed 1, 108,376 of 154,500 were).
    """

    x: RationalVector
    x_float: np.ndarray
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
    stacked (Re y, Im y), all scaled by ``den``.
    """

    k: list[list[int]]
    k_cols: list[tuple[int, ...]]
    y: list[int]
    den: int

    def floats(self) -> tuple[np.ndarray, np.ndarray]:
        """K and y in float64; an integer true division rounds correctly, as float(Fraction) does."""
        den = self.den
        return np.array([[v / den for v in row] for row in self.k]), np.array([v / den for v in self.y])


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
    scaled = _ScaledInstance(k=k, k_cols=list(zip(*k)), y=y_int, den=den)
    real = not any(v for r in ints for v in r[n:])
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


def _dyadic_ints(v: np.ndarray) -> tuple[list[int], int]:
    """Integers X and an exponent E with v == X / 2**E exactly, entry by entry.

    Raises ValueError for NaN and OverflowError for an infinite entry.
    """
    ratios = [t.as_integer_ratio() for t in v.tolist()]
    e = max(d.bit_length() for _, d in ratios) - 1
    return [p << (e + 1 - d.bit_length()) for p, d in ratios], e


def _dual_lower_bound(z: np.ndarray, scaled: _ScaledInstance, eps: Q) -> Q:
    """Weak-duality lower bound from an exactified dual iterate.

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
    return Q((-ip * ed * zq - scale * en * zp) * cq, scale * ed * zq * cp)


def float_norm(d: np.ndarray) -> float:
    """l2 norm of the 1-D float array ``d``: the float ``np.linalg.norm``
    returns for it (``d.dot(d)``, then ``sqrt``) without its Python overhead."""
    return sqrt(d.dot(d))


def _polish_primal(K: np.ndarray, yv: np.ndarray, eps: float, bound: float, z: np.ndarray) -> np.ndarray | None:
    """Least-squares primal candidate on the support the dual iterate points at.

    Ranks the column pairs by the pair norm of K^T z and, for k = 1..m, solves
    K_S x_S = y + eps z/||z|| on the top k pairs S: the saddle-point condition
    Kx - y = eps z/||z|| on a guessed support.  Returns the candidate of least
    float pair l1 norm whose float residual is within ``bound``, or None.
    """
    n = K.shape[1] // 2
    kt_z = K.T @ z
    order = np.argsort(-np.hypot(kt_z[:n], kt_z[n:]), kind="stable")
    z_norm = float_norm(z)
    target = yv + eps * z / z_norm if z_norm > 0 else yv
    best, best_l1 = None, np.inf
    for k in range(1, K.shape[0] // 2 + 1):
        cols = np.concatenate([order[:k], order[:k] + n])
        x = np.zeros(2 * n)
        try:
            x[cols] = np.linalg.lstsq(K[:, cols], target, rcond=None)[0]
        except np.linalg.LinAlgError:
            continue
        l1 = np.hypot(x[:n], x[n:]).sum()
        if float_norm(K @ x - yv) <= bound and l1 < best_l1:
            best, best_l1 = x, l1
    return best


def _polish_dual(K: np.ndarray, x: np.ndarray, z: np.ndarray) -> np.ndarray | None:
    """Nearest point to z with (K^T z)_j = -x_j/|x_j| on the support of x, or None."""
    n = x.shape[0] // 2
    mag = np.hypot(x[:n], x[n:])
    support = np.flatnonzero(mag > 0)
    if support.size == 0:
        return None
    rows = np.concatenate([support, support + n])
    M = K[:, rows].T
    b = -x[rows] / np.concatenate([mag[support], mag[support]])
    try:
        return z + np.linalg.lstsq(M, b - M @ z, rcond=None)[0]
    except np.linalg.LinAlgError:
        return None


def _certify_primal(scaled: _ScaledInstance, x: np.ndarray) -> tuple[Q, Q, Q, np.ndarray]:
    """Exactify a float point: (objective_ub, residual_sq, residual_ub, x), x itself.

    With x = X / 2**E the residual of row i is (k_i . X - y_i 2**E) / (den 2**E),
    and objective_ub sums ``abs_upper_ints`` of X over 2**E: exact when x is real.
    """
    xs, e = _dyadic_ints(x)
    sq = sum((sum(map(mul, row, xs)) - (yi << e)) ** 2 for row, yi in zip(scaled.k, scaled.y))
    residual_sq = Q(sq, (scaled.den << e) ** 2)
    mags, w = abs_upper_ints(xs, 1 << e)
    return Q(sum(mags), w), residual_sq, dyadic_sqrt_upper(residual_sq), x


def _exact_point(x: np.ndarray) -> RationalVector:
    """The complex vector whose entries are the dyadic values of x = (re, im)."""
    xq = [Q(*v.as_integer_ratio()) for v in x.tolist()]
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
    An entry of A or y, or eps, past float64's range raises FloatRangeError
    naming it, and an operator norm bound past that range or below its
    normal range raises ValueError naming the bound; entries that round to
    0.0 are accepted.  An iterate that is no longer finite raises
    FloatingPointError.
    """
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
    try:
        L = float(dyadic_sqrt_upper(norm_sq))
    except OverflowError:
        raise ValueError("the operator norm bound of A is past float64's range") from None
    if 0 < L < sys.float_info.min:
        raise ValueError("the operator norm bound of A is below float64's normal range")
    step = 1.0 / L if L > 0 else 1.0

    z, x = np.zeros(K.shape[0]), np.zeros(K.shape[1])
    xbar = x.copy()
    bound = inst.eps + tol

    batch = 250
    iterations = 0
    best_lower = Q(0)  # x=0 shows the optimum is >= 0
    best_feasible: tuple[Q, Q, Q, np.ndarray] | None = None

    def offer(candidate):
        nonlocal best_feasible
        if candidate[2] <= bound and (best_feasible is None or candidate[0] < best_feasible[0]):
            best_feasible = candidate

    def certified() -> bool:
        return best_feasible is not None and best_feasible[0] - best_lower <= tol

    # float overflow needs no warning: the finite checks and the exact
    # certificates reject whatever it spoils
    with np.errstate(over="ignore", invalid="ignore"):
        while iterations < max_iter:
            todo = min(batch, max_iter - iterations)
            x, z, xbar = _kernels.pd_iterate(K, yv, eps_f, step, step, x, z, xbar, todo)
            iterations += todo

            try:  # _dyadic_ints rejects a NaN or infinite entry
                best_lower = max(best_lower, _dual_lower_bound(z, scaled, inst.eps))
                last = _certify_primal(scaled, x)
            except (ValueError, OverflowError):
                raise FloatingPointError(f"the primal-dual iterate is not finite after {iterations} iterations") from None
            offer(last)
            if not certified():
                x_pol = _polish_primal(K, yv, eps_f, float(bound), z)
                if x_pol is not None and np.isfinite(x_pol).all():
                    offer(_certify_primal(scaled, x_pol))
                    z_pol = _polish_dual(K, x_pol, z)
                    if z_pol is not None and np.isfinite(z_pol).all():
                        best_lower = max(best_lower, _dual_lower_bound(z_pol, scaled, inst.eps))
            if certified():
                break

    objective_ub, residual_sq, residual_ub, x_float = best_feasible or last
    return SolveReport(
        x=_exact_point(x_float),
        x_float=x_float,
        objective_ub=objective_ub,
        lower_bound=best_lower,
        residual_sq=residual_sq,
        residual_ub=residual_ub,
        iterations=iterations,
        converged=certified(),
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


def _exact_particular_solution(ints: list[list[int]]) -> list[Q]:
    """Some exact real solution of Ax = y, given the integer rows of [A | y].

    For a single row the largest entry gives the smallest search box, so pick
    it directly.  Otherwise back-substitute on the echelon form, free vars 0.
    """
    n = len(ints[0]) - 1
    if len(ints) == 1:
        row = ints[0]
        best = max(range(n), key=lambda j: abs(row[j]))
        if row[best] == 0:
            raise RankDeficientError("zero row cannot meet a nonzero measurement")
        x = [Q(0)] * n
        x[best] = Q(row[n], row[best])
        return x
    work, pivots = echelon(ints, n)
    if len(pivots) < len(ints):
        raise RankDeficientError("Ax = y has no solution path: rank-deficient rows")
    x = [Q(0)] * n
    for row, c in reversed(list(zip(work, pivots))):
        x[c] = (row[n] - sum((row[j] * x[j] for j in range(c + 1, n)), Q(0))) / row[c]
    return x


def brute_force_min(inst: Instance, grid_exp: int) -> BruteForceReport:
    """Exhaustive search over the dyadic grid of step 2**-grid_exp.

    Independent of the closed-form oracle and of the iterative solver: pure
    integer feasibility tests over a box sized by the l1 norm of one exact
    feasible point.  Exhaustive means every grid point is accounted for: each
    setting of the first N-1 coordinates gets the exact interval of feasible
    last coordinates (see ``_kernels``), on int64 when that is proved exact
    and on Python ints otherwise.  N <= 4, grid_exp <= 8, real instances only.
    """
    if inst.n > 4:
        raise GridTooLargeError(f"brute force supports N <= 4, got {inst.n}")
    if grid_exp > 8 or grid_exp < 0:
        raise GridTooLargeError(f"grid_exp must be in [0, 8], got {grid_exp}")
    if not (inst.A.is_real() and inst.y.is_real()):
        raise ValueError("brute force handles real instances only")

    # the rows of [A | y] as integers over D, the lcm of their denominators
    n = inst.n
    augmented = [[e.re for e in row] + [b.re] for row, b in zip(inst.A.rows, inst.y.entries)]
    ints, common = scaled_integers(augmented)

    h = Q(1, 2**grid_exp)
    norm_sq_ub = operator_norm_sq_upper([row[:n] + [0] * n for row in ints], common)
    op_ub = dyadic_sqrt_upper(norm_sq_ub, 20)
    sqrt_n_ub = dyadic_sqrt_upper(Q(inst.n), 20)
    relaxation = op_ub * sqrt_n_ub * h / 2

    if l2_norm_sq(inst.y) <= inst.eps * inst.eps:
        radius = Q(0)  # x = 0 is feasible, so it is the optimum
    else:
        radius = sum(abs(v) for v in _exact_particular_solution(ints))
    k = ceil(radius / h)
    if (2 * k + 1) ** n > GRID_POINT_CAP:
        raise GridTooLargeError(f"grid has {(2 * k + 1) ** n} points, cap is {GRID_POINT_CAP}")

    # integer form: at grid point p * h the row residuals are s_i / (D * 2**grid_exp)
    # for integers s_i, and feasibility is sum s_i^2 <= floor(((eps+relax)*D*2**grid_exp)^2)
    coeffs = [row[:n] for row in ints]
    shift = [row[n] << grid_exp for row in ints]
    rhs_q = ((inst.eps + relaxation) * common * 2**grid_exp) ** 2
    rhs = rhs_q.numerator // rhs_q.denominator

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
    if inst.m == 1:
        amax = max(abs(e.re) for e in inst.A.rows[0])
        if amax > 0:
            # two-sided: grid rounding costs <= N*h/2 in l1; relaxing eps by
            # delta moves the single-row optimum max(0,|y|-eps)/amax by <= delta/amax
            stated_tol = Q(inst.n) * h / 2 + relaxation / amax
    return BruteForceReport(
        value=value,
        argmin=argmin,
        relaxation=relaxation,
        stated_tol=stated_tol,
        box_radius=k,
    )
