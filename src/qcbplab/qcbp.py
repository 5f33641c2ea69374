"""Quadratically constrained basis pursuit: problem type, exact oracle, solver.

The problem is min ||x||_1 subject to ||Ax - y||_2 <= eps for A with more
columns than rows.  Three solution paths live here:

* a closed-form exact solution set for single-row instances with positive real
  row, unit measurement and eps in [0,1) -- the oracle everything else is
  checked against;
* a generic float primal-dual solver whose results are re-certified a
  posteriori in exact rational arithmetic (residual bound, duality sandwich);
* a brute-force dyadic grid search, deliberately independent of both, used to
  cross-validate the oracle on tiny instances.

The single-valued selection rule is fixed once and for all: weight 1 on the
smallest active index.  Every downstream experiment inherits its determinism
from this choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from math import ceil
from operator import mul

import numpy as np

from qcbplab import _kernels
from qcbplab.rationals import (
    CZERO,
    CONE,
    ComplexQ,
    RationalMatrix,
    RationalVector,
    dyadic_sqrt_upper,
    echelon,
    fmt_rational,
    l2_norm_sq,
    matrix_from_json,
    matrix_to_json,
    operator_norm_sq_upper,
    parse_rational,
    realified_rows,
    row_rank,
    scaled_integers,
    vector_from_json,
    vector_to_json,
)


class OracleDomainError(ValueError):
    """A closed-form-oracle precondition failed; message names the condition."""


class RankDeficientError(ValueError):
    """solve_numeric requires full row rank so the constraint set is nonempty."""


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
        return Instance(
            A=matrix_from_json(obj["A"]),
            y=vector_from_json(obj["y"]),
            eps=parse_rational(obj["eps"]),
        )


@dataclass(frozen=True)
class SolutionSimplex:
    """Closed-form solution set of a single-row instance.

    Every solution is sum_j t_j * scale * inv_coeff_j * e_j over the active
    indices, with barycentric weights t (t_j in [0,1], sum 1).  ``active``
    holds 0-based indices of the maximal row entries, ``inv_coeff`` their
    exact reciprocals, ``scale`` equals 1 - eps.
    """

    dimension: int
    scale: Q
    active: tuple[int, ...]
    inv_coeff: tuple[Q, ...]

    def __post_init__(self):
        if not self.active:
            raise ValueError("active set must be nonempty")
        if any(c <= 0 for c in self.inv_coeff):
            raise ValueError("inverse coefficients must be positive")

    def vertex(self, which: int) -> RationalVector:
        """The solution with full weight on active[which]."""
        j = self.active[which]
        entries = [CZERO] * self.dimension
        entries[j] = ComplexQ(self.scale * self.inv_coeff[which], Q(0))
        return RationalVector(tuple(entries))

    def l1_value(self) -> Q:
        """Shared exact l1 norm of every point of the simplex."""
        return self.scale * self.inv_coeff[0]


def exact_solution_set(inst: Instance) -> SolutionSimplex:
    """Closed-form solution set for m=1, y=1, positive real row, eps in [0,1).

    Active indices are the maximizers of the row; each contributes the vertex
    (1-eps)/a_j * e_j, and the set is their convex hull.  Everything is exact.
    """
    if inst.m != 1:
        raise OracleDomainError(f"oracle requires a single row, got m={inst.m}")
    y0 = inst.y.entries[0]
    if not (y0.re == 1 and y0.im == 0):
        raise OracleDomainError("oracle requires y = 1")
    if not (0 <= inst.eps < 1):
        raise OracleDomainError(f"oracle requires eps in [0,1), got {inst.eps}")
    row = inst.A.rows[0]
    for j, e in enumerate(row):
        if e.im != 0:
            raise OracleDomainError(f"oracle requires a real row; entry {j} is complex")
        if e.re <= 0:
            raise OracleDomainError(f"oracle requires positive entries; entry {j} is {e.re}")
    amax = max(e.re for e in row)
    active = tuple(j for j, e in enumerate(row) if e.re == amax)
    inv = tuple(1 / row[j].re for j in active)
    return SolutionSimplex(dimension=inst.n, scale=1 - inst.eps, active=active, inv_coeff=inv)


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

def embed(inst1: Instance, target_m: int, target_n: int) -> Instance:
    """Block-embed an m=1 instance: A' = [[A, 0], [0, I]], y' = (y, 0, ..., 0).

    The reduced width must satisfy N' = target_n + 1 - target_m, and solutions
    correspond exactly via zero-padding of the trailing target_m - 1 slots.
    """
    if inst1.m != 1:
        raise ValueError("embedding starts from a single-row instance")
    if target_m >= target_n:
        raise ValueError("embedding needs target_m < target_n")
    n_reduced = target_n + 1 - target_m
    if n_reduced != inst1.n:
        raise ValueError(
            f"dimension mismatch: embedding to ({target_m},{target_n}) needs a "
            f"width-{n_reduced} instance, got {inst1.n}"
        )
    if target_m == 1:
        return inst1
    rows = [tuple(inst1.A.rows[0]) + (CZERO,) * (target_m - 1)]
    for i in range(target_m - 1):
        row = [CZERO] * target_n
        row[n_reduced + i] = CONE
        rows.append(tuple(row))
    y = (inst1.y.entries[0],) + (CZERO,) * (target_m - 1)
    return Instance(A=RationalMatrix(tuple(rows)), y=RationalVector(y), eps=inst1.eps)


def split_embedded(inst: Instance) -> Instance:
    """Recover the reduced single-row instance from an embedded one.

    Verifies the exact block structure (identity tail rows, zero-padded
    measurement) before peeling; anything else is rejected.
    """
    if inst.m == 1:
        return inst
    n_reduced = inst.n + 1 - inst.m
    for j in range(n_reduced, inst.n):
        if inst.A.entry(0, j) != CZERO:
            raise ValueError("row 0 is not zero on the identity block columns")
    for i in range(1, inst.m):
        for j in range(inst.n):
            expected = CONE if j == n_reduced + i - 1 else CZERO
            if inst.A.entry(i, j) != expected:
                raise ValueError(f"row {i} is not an identity-block row")
        if inst.y.entries[i] != CZERO:
            raise ValueError("embedded measurement tail must be zero")
    return Instance(
        A=RationalMatrix((inst.A.rows[0][:n_reduced],)),
        y=RationalVector((inst.y.entries[0],)),
        eps=inst.eps,
    )


def restrict(x: RationalVector, target_m: int) -> RationalVector:
    """Drop the trailing target_m - 1 padding coordinates."""
    if target_m == 1:
        return x
    return RationalVector(x.entries[: x.n + 1 - target_m])


def select_embedded(inst: Instance) -> RationalVector:
    """Exact selected solution of an embedded instance, zero-padded.

    The tail coordinates enter the residual additively as x_i^2, so any
    minimum-l1 solution zeroes them and the problem reduces exactly to the
    single-row block; the oracle then applies to the reduced instance.
    """
    reduced = split_embedded(inst)
    x = select(exact_solution_set(reduced))
    if inst.m == 1:
        return x
    return RationalVector(x.entries + (CZERO,) * (inst.m - 1))


# --- generic numerical solver ---------------------------------------------------

@dataclass
class SolveReport:
    """Float solve plus exact a posteriori certificates.

    ``x`` holds the solution with exact dyadic entries (floats are dyadic);
    ``residual_ub`` is a dyadic upper bound on the true residual of that exact
    vector; ``objective_ub`` an exact upper bound on its l1 value; and
    ``lower_bound`` a weak-duality lower bound on the true optimum, so
    objective_ub - lower_bound brackets the suboptimality.
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
    n: int


def _realified(inst: Instance) -> tuple[np.ndarray, np.ndarray, _ScaledInstance]:
    """Real 2m x 2N operator [[Re A, -Im A], [Im A, Re A]] as floats and integers."""
    rows = realified_rows(inst.A)
    y = [e.re for e in inst.y.entries] + [e.im for e in inst.y.entries]
    k, den = scaled_integers(rows + [y])
    y_int = k.pop()
    scaled = _ScaledInstance(k=k, k_cols=list(zip(*k)), y=y_int, den=den, n=inst.n)
    K = np.array([[float(v) for v in row] for row in rows], dtype=np.float64)
    yv = np.array([float(v) for v in y], dtype=np.float64)
    return K, yv, scaled


def _dyadic_ints(v: np.ndarray) -> tuple[list[int], int]:
    """Integers X and an exponent E with v == X / 2**E exactly, entry by entry.

    Raises ValueError for NaN and OverflowError for an infinite entry.
    """
    ratios = [t.as_integer_ratio() for t in v.tolist()]
    e = max(d.bit_length() for _, d in ratios) - 1
    return [p << (e + 1 - d.bit_length()) for p, d in ratios], e


def _pair_l1_upper(xs: list[int], e: int, n: int) -> Q:
    """Exact upper bound on sum_i |(re_i, im_i)| of xs / 2**e; exact when all im are zero."""
    den = 1 << (2 * e)
    return sum((dyadic_sqrt_upper(Q(xs[i] ** 2 + xs[n + i] ** 2, den)) for i in range(n)), Q(0))


def _dual_lower_bound(z: np.ndarray, scaled: _ScaledInstance, eps: Q) -> Q:
    """Weak-duality lower bound from an exactified dual iterate.

    Scales z down by a certified bound on the pair-infinity norm of K^T z so
    the scaled vector is dual feasible, then evaluates the dual objective with
    an upper bound on ||z||, erring downward throughout.  With z = Z / 2**F,
    K^T z and <y, z> are integer sums over den * 2**F.
    """
    zs, f = _dyadic_ints(z)
    n = scaled.n
    kt_z = [sum(map(mul, col, zs)) for col in scaled.k_cols]
    cmax_sq = max(kt_z[j] ** 2 + kt_z[n + j] ** 2 for j in range(n))
    scale = scaled.den << f
    scale_sq = scale * scale
    c_ub = dyadic_sqrt_upper(Q(cmax_sq, scale_sq)) if cmax_sq > scale_sq else Q(1)
    ip = Q(sum(map(mul, scaled.y, zs)), scale)
    z_norm_ub = dyadic_sqrt_upper(Q(sum(v * v for v in zs), 1 << (2 * f)))
    return (-ip - eps * z_norm_ub) / c_ub


def _polish_primal(
    K: np.ndarray, yv: np.ndarray, eps: float, bound: float, z: np.ndarray, n: int
) -> np.ndarray | None:
    """Least-squares primal candidate on the support the dual iterate points at.

    Ranks the column pairs by the pair norm of K^T z and, for k = 1..m, solves
    K_S x_S = y + eps z/||z|| on the top k pairs S: the saddle-point condition
    Kx - y = eps z/||z|| on a guessed support.  Returns the candidate of least
    float pair l1 norm whose float residual is within ``bound``, or None.
    """
    kt_z = K.T @ z
    order = np.argsort(-np.hypot(kt_z[:n], kt_z[n:]), kind="stable")
    z_norm = np.linalg.norm(z)
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
        if np.linalg.norm(K @ x - yv) <= bound and l1 < best_l1:
            best, best_l1 = x, l1
    return best


def _polish_dual(K: np.ndarray, x: np.ndarray, z: np.ndarray, n: int) -> np.ndarray | None:
    """Nearest point to z with (K^T z)_j = -x_j/|x_j| on the support of x, or None."""
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
    """Exactify a float point: (objective_ub, residual_sq, residual_ub, x).

    With x = X / 2**E the residual of row i is (k_i . X - y_i 2**E) / (den 2**E).
    """
    xs, e = _dyadic_ints(x)
    sq = sum((sum(map(mul, row, xs)) - (yi << e)) ** 2 for row, yi in zip(scaled.k, scaled.y))
    residual_sq = Q(sq, (scaled.den << e) ** 2)
    return _pair_l1_upper(xs, e, scaled.n), residual_sq, dyadic_sqrt_upper(residual_sq), x.copy()


def _exact_point(x: np.ndarray, n: int) -> RationalVector:
    """The complex vector whose entries are the dyadic values of x = (re, im)."""
    xq = [Q(v) for v in x.tolist()]
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
    """
    tol = Q(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    rank = row_rank(inst.A)
    if rank < inst.m:
        raise RankDeficientError(f"row rank {rank} < m={inst.m}")

    L = float(dyadic_sqrt_upper(operator_norm_sq_upper(inst.A)))
    step = 1.0 / L if L > 0 else 1.0

    K, yv, scaled = _realified(inst)
    n = inst.n
    x = np.zeros(2 * n)
    z = np.zeros(2 * inst.m)
    xbar = x.copy()
    eps_f = float(inst.eps)
    bound = inst.eps + tol

    batch = 250
    iterations = 0
    best_lower = Q(0)  # x=0 shows the optimum is >= 0
    best_feasible: tuple[Q, Q, Q, np.ndarray] | None = None
    converged = False

    def offer(candidate):
        nonlocal best_feasible
        if candidate[2] <= bound and (best_feasible is None or candidate[0] < best_feasible[0]):
            best_feasible = candidate

    def certified() -> bool:
        return best_feasible is not None and best_feasible[0] - best_lower <= tol

    while iterations < max_iter:
        todo = min(batch, max_iter - iterations)
        x, z, xbar = _kernels.pd_iterate(K, yv, eps_f, step, step, x, z, xbar, todo, n)
        iterations += todo

        best_lower = max(best_lower, _dual_lower_bound(z, scaled, inst.eps))
        last = _certify_primal(scaled, x)
        offer(last)
        if not certified():
            # float overflow needs no warning: the finite checks and the exact
            # certificates reject whatever it spoils
            with np.errstate(over="ignore", invalid="ignore"):
                x_pol = _polish_primal(K, yv, eps_f, float(bound), z, n)
                if x_pol is not None and np.isfinite(x_pol).all():
                    offer(_certify_primal(scaled, x_pol))
                    z_pol = _polish_dual(K, x_pol, z, n)
                    if z_pol is not None and np.isfinite(z_pol).all():
                        best_lower = max(best_lower, _dual_lower_bound(z_pol, scaled, inst.eps))
        if certified():
            converged = True
            break

    objective_ub, residual_sq, residual_ub, x_float = best_feasible or last
    return SolveReport(
        x=_exact_point(x_float, n),
        x_float=x_float,
        objective_ub=objective_ub,
        lower_bound=best_lower,
        residual_sq=residual_sq,
        residual_ub=residual_ub,
        iterations=iterations,
        converged=converged,
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


def _exact_particular_solution(ints: list[list[int]], n: int) -> list[Q]:
    """Some exact real solution of Ax = y, given the integer rows of [A | y].

    For a single row the largest entry gives the smallest search box, so pick
    it directly.  Otherwise back-substitute on the echelon form, free vars 0.
    """
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

    h = Q(1, 2**grid_exp)
    norm_sq_ub = operator_norm_sq_upper(inst.A)
    op_ub = dyadic_sqrt_upper(norm_sq_ub, 20)
    sqrt_n_ub = dyadic_sqrt_upper(Q(inst.n), 20)
    relaxation = op_ub * sqrt_n_ub * h / 2

    # the rows of [A | y] as integers over D, the lcm of their denominators
    n = inst.n
    augmented = [[e.re for e in row] + [b.re] for row, b in zip(inst.A.rows, inst.y.entries)]
    ints, common = scaled_integers(augmented)
    if l2_norm_sq(inst.y) <= inst.eps * inst.eps:
        radius = Q(0)  # x = 0 is feasible, so it is the optimum
    else:
        radius = sum(abs(v) for v in _exact_particular_solution(ints, n))
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
