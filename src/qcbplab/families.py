"""Adversarial input families certifying discontinuity of the solution map.

Two sequences of single-row instances share a common limit: the constant row
(a, ..., a) with unit measurement.  Family 1 bumps entry 1 by 2**-n, family 2
bumps entry 2.  Inputs collapse onto the limit at rate exactly 2**-n, while
the exact selected solutions of the two families stay a fixed distance apart:
family j's solution is (1-eps)/(a+2**-n) on coordinate j alone.  The
certificate below pins a dyadic lower bound on that output separation by
exact squared-norm comparisons, which is the executable content of the
discontinuity: no map both Lipschitz at the limit and correct on the families
can exist.

All constructions are exact; floats appear only in the optional solver
columns of the report.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from math import isqrt

from qcbplab import qcbp
from qcbplab.rationals import (
    RationalVector,
    dyadic_sqrt_lower,
    l2_norm_sq,
)


class CertificateError(ArithmeticError):
    """An exact check of a family formula or certificate failed.

    A numerical failure, not an input error: the command line reports it
    with exit code 3.
    """


@dataclass(frozen=True)
class FamilyParams:
    """Parameters of the perturbation families: base entry a, slack eps, shape."""

    a: Q = Q(1)
    eps: Q = Q(1, 2)
    n_dim: int = 2
    m_dim: int = 1

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("a must be positive")
        if not (0 < self.eps < 1):
            raise ValueError("eps must lie strictly between 0 and 1")
        if self.n_dim < 2 or self.m_dim < 1 or self.m_dim >= self.n_dim:
            raise ValueError("need N >= 2 and 1 <= m < N")

    @property
    def reduced_width(self) -> int:
        # width of the single-row core before block-embedding
        return self.n_dim + 1 - self.m_dim


def _assemble(p: FamilyParams, row: list[Q]) -> qcbp.Instance:
    core = qcbp.Instance.single_row(row, 1, p.eps)
    if p.m_dim == 1:
        return core
    return qcbp.embed(core, p.m_dim, p.n_dim)


def perturbed_instance(which: int, n: int, p: FamilyParams) -> qcbp.Instance:
    """Family member: constant row a with entry ``which`` bumped by 2**-n."""
    if which not in (1, 2):
        raise ValueError("family index must be 1 or 2")
    if n < 0:
        raise ValueError("n must be >= 0")
    row = [p.a] * p.reduced_width
    row[which - 1] = p.a + Q(1, 2**n)
    return _assemble(p, row)


def limit_instance(p: FamilyParams) -> qcbp.Instance:
    """The shared limit of both families: constant row a."""
    return _assemble(p, [p.a] * p.reduced_width)


def perturbed_solution(which: int, n: int, p: FamilyParams) -> RationalVector:
    """Exact unique solution of the family member: (1-eps)/(a+2**-n) e_which."""
    if which not in (1, 2):
        raise ValueError("family index must be 1 or 2")
    value = (1 - p.eps) / (p.a + Q(1, 2**n))
    entries = [Q(0)] * p.n_dim
    entries[which - 1] = value
    return RationalVector.from_items(entries)


def limit_solution(p: FamilyParams) -> RationalVector:
    """Selected solution at the limit instance: (1-eps)/a on coordinate 1."""
    entries = [Q(0)] * p.n_dim
    entries[0] = (1 - p.eps) / p.a
    return RationalVector.from_items(entries)


def input_distance(which: int, n: int, p: FamilyParams) -> Q:
    """Exact distance of the family member to the limit instance.

    The instances differ in a single matrix entry by 2**-n and nowhere else,
    so the norm (matrix part plus measurement part) is exactly 2**-n.
    """
    inst = perturbed_instance(which, n, p)
    star = limit_instance(p)
    diff_sq = Q(0)
    for i in range(inst.m):
        for j in range(inst.n):
            diff_sq += (inst.A.entry(i, j) - star.A.entry(i, j)).abs_sq()
    y_sq = l2_norm_sq(inst.y - star.y)
    if y_sq != 0:
        raise CertificateError("measurements of family and limit must agree")
    root = Q(1, 2**n)
    if root * root != diff_sq:
        raise CertificateError("family construction drifted: entry gap is not 2**-n")
    return root


def pair_distance_sq(n: int, p: FamilyParams) -> Q:
    """Exact squared distance between the two families' solutions at n."""
    return 2 * ((1 - p.eps) / (p.a + Q(1, 2**n))) ** 2


@dataclass(frozen=True)
class SeparationCertificate:
    """Exactly checked lower bound on the output separation of the families.

    Holds for every n >= 1.  ``bound`` is the largest dyadic p/2**q with
    q <= 20 whose square is strictly below ``min_pair_dist_sq``, the minimum
    squared pair distance over n >= 1.  ``limit_gap_sq_min`` additionally
    certifies that family 2's solutions stay at least ``bound`` away from the
    selected limit solution, which is what the budget-bounded membership
    decision consumes.
    """

    params: FamilyParams
    bound: Q
    min_pair_dist_sq: Q
    limit_gap_sq_min: Q

    def threshold_sq(self) -> Q:
        """Squared decision threshold (bound/4)**2 used by the halting gadget."""
        return (self.bound / 4) ** 2


def _largest_dyadic_below_sqrt(value_sq: Q, q: int = 20) -> Q:
    """Largest p/2**q with (p/2**q)**2 < value_sq, by exact integer sqrt."""
    if value_sq <= 0:
        raise ValueError("need a positive squared value")
    target = value_sq * 4**q
    p = isqrt(target.numerator // target.denominator)
    while Q(p * p) >= target:
        p -= 1
    while Q((p + 1) * (p + 1)) < target:
        p += 1
    if p <= 0:
        raise ValueError("no positive dyadic below the separation at this precision")
    return Q(p, 2**q)


def separation_certificate(p: FamilyParams, _n_max=None) -> SeparationCertificate:
    """Certify the family separation for every n >= 1, all comparisons exact.

    With s(n) = (1-eps)/(a+2**-n), the squared pair distance is 2 s(n)**2 and
    family 2's squared gap to the limit solution is s(n)**2 + ((1-eps)/a)**2.
    Since a > 0, a + 2**-n strictly decreases in n, so s(n) > 0 strictly
    increases and both minima over n >= 1 sit at n = 1.  Checking n = 1 (the
    input distance, the pair formula against the exact norm, the limit gap
    against bound**2) therefore certifies every n.
    """
    # _n_max is ignored: kept only because perfbench/workloads.py still passes one
    for which in (1, 2):
        if input_distance(which, 1, p) != Q(1, 2):
            raise CertificateError(f"input convergence broken at family {which}, n=1")
    min_sq = pair_distance_sq(1, p)
    if l2_norm_sq(perturbed_solution(1, 1, p) - perturbed_solution(2, 1, p)) != min_sq:
        raise CertificateError("pair distance formula mismatch at n=1")
    bound = _largest_dyadic_below_sqrt(min_sq)
    limit_gap_sq_min = l2_norm_sq(perturbed_solution(2, 1, p) - limit_solution(p))
    if limit_gap_sq_min < bound * bound:
        raise CertificateError("limit-gap certificate weaker than pair bound")
    return SeparationCertificate(
        params=p, bound=bound, min_pair_dist_sq=min_sq, limit_gap_sq_min=limit_gap_sq_min
    )


@dataclass
class ReportRow:
    n: int
    input_dist: Q
    output_dist_sq: Q
    output_dist_lower: Q
    solver_dist: float | None


@dataclass
class DiscontinuityReport:
    """Per-n table: inputs collapsing at 2**-n, outputs separated above bound."""

    params: FamilyParams
    certificate: SeparationCertificate
    rows: list[ReportRow]


def discontinuity_report(
    p: FamilyParams,
    n_max: int,
    run_solver: bool = False,
    solver_tol: Q = Q(1, 10**6),
) -> DiscontinuityReport:
    """Build the per-n table; exact columns always, float solver columns on demand."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    cert = separation_certificate(p)
    rows = []
    for n in range(1, n_max + 1):
        in_dist = input_distance(1, n, p)
        other = input_distance(2, n, p)
        if other != in_dist:
            raise CertificateError("families must sit at the same input distance")
        out_sq = pair_distance_sq(n, p)
        solver_dist = None
        if run_solver:
            r1 = qcbp.solve_numeric(perturbed_instance(1, n, p), solver_tol)
            r2 = qcbp.solve_numeric(perturbed_instance(2, n, p), solver_tol)
            diff = r1.x_float - r2.x_float
            solver_dist = float((diff @ diff) ** 0.5)
        rows.append(
            ReportRow(
                n=n,
                input_dist=in_dist,
                output_dist_sq=out_sq,
                output_dist_lower=dyadic_sqrt_lower(out_sq, 30),
                solver_dist=solver_dist,
            )
        )
    return DiscontinuityReport(params=p, certificate=cert, rows=rows)
