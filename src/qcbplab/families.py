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

For m > 1 rows each member is its :func:`perturbed_core` block-embedded by
:func:`qcbplab.qcbp.embed`, so its solutions are the core's, zero-padded.

All constructions are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction as Q

from qcbplab import qcbp
from qcbplab.rationals import RationalVector, dyadic_sqrt_lower, l2_norm_sq


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
        # width of the single-row core; qcbp.embed adds the m - 1 identity columns
        return self.n_dim + 1 - self.m_dim


def perturbed_core(which: int, n: int, p: FamilyParams) -> qcbp.Instance:
    """Single-row core of a family member: constant row a, entry ``which`` bumped by 2**-n."""
    if which not in (1, 2):
        raise ValueError("family index must be 1 or 2")
    if n < 0:
        raise ValueError("n must be >= 0")
    row = [p.a] * p.reduced_width
    row[which - 1] = p.a + Q(1, 2**n)
    return qcbp.Instance.single_row(row, 1, p.eps)


def perturbed_instance(which: int, n: int, p: FamilyParams) -> qcbp.Instance:
    """Family member: the core of :func:`perturbed_core` embedded into m rows."""
    return qcbp.embed(perturbed_core(which, n, p), p.m_dim)


def limit_instance(p: FamilyParams) -> qcbp.Instance:
    """The shared limit of both families: constant row a, embedded into m rows."""
    return qcbp.embed(qcbp.Instance.single_row([p.a] * p.reduced_width, 1, p.eps), p.m_dim)


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


def input_distance(n: int, p: FamilyParams) -> Q:
    """Exact distance of each family's member n to the limit instance, checked.

    Each member differs from the limit in a single matrix entry by 2**-n and
    nowhere else, so its norm (matrix part plus measurement part) is exactly
    2**-n.  Family 1 is checked first, then family 2.
    """
    star = limit_instance(p)
    root = Q(1, 2**n)
    for which in (1, 2):
        inst = perturbed_instance(which, n, p)
        diff_sq = Q(0)
        for i in range(inst.m):
            for j in range(inst.n):
                diff_sq += (inst.A.entry(i, j) - star.A.entry(i, j)).abs_sq()
        if l2_norm_sq(inst.y - star.y) != 0:
            raise CertificateError("measurements of family and limit must agree")
        if root * root != diff_sq:
            raise CertificateError("family construction drifted: entry gap is not 2**-n")
    return root


def pair_distance_sq(n: int, p: FamilyParams) -> Q:
    """Exact squared distance between the two families' solutions at n."""
    return 2 * ((1 - p.eps) / (p.a + Q(1, 2**n))) ** 2


def limit_gap_sq_ints(n: int, p: FamilyParams) -> tuple[int, int]:
    """Family 2's squared gap to the limit solution at n, as integers (num, den), den > 0.

    The gap is s(n)**2 + ((1-eps)/a)**2 with s(n) = (1-eps)/(a+2**-n).  With
    a = an/ad, 1-eps = en/ed and t = an 2**n + ad, it is
    (en ad)**2 (an**2 4**n + t**2) / ((ed an)**2 t**2).  The pair is not
    reduced, and t**2 is expanded to an**2 4**n + an ad 2**(n+1) + ad**2, so
    no product of two n-bit numbers is formed and no gcd is taken.
    """
    an, ad = p.a.numerator, p.a.denominator
    en, ed = (1 - p.eps).numerator, (1 - p.eps).denominator
    lead = an * an << 2 * n
    t_sq = lead + (an * ad << n + 1) + ad * ad
    return (en * ad) ** 2 * (lead + t_sq), (ed * an) ** 2 * t_sq


@dataclass(frozen=True)
class SeparationCertificate:
    """Exactly checked lower bound on the output separation of the families.

    Holds for every n >= 1.  ``bound`` is the largest dyadic p/2**q > 0 whose
    square is strictly below the minimum squared pair distance over n >= 1,
    with q = 20 or, if no such p exists at 20, the least q above 20 at which
    one does.  Family 2's gap to the selected limit solution exceeds it: with
    s(n) = (1-eps)/(a+2**-n) < c = (1-eps)/a, gap(n)**2 = s(n)**2 + c**2 >
    2 s(n)**2 >= 2 s(1)**2 > bound**2, the gap formula checked exactly at
    n = 1.  ``threshold_sq`` is built on first read and kept, so a run builds
    it once; a certificate made by :func:`dataclasses.replace` builds its own.
    """

    params: FamilyParams
    bound: Q

    @cached_property
    def threshold_sq(self) -> Q:
        """Squared decision threshold (bound/4)**2 used by the halting gadget."""
        return (self.bound / 4) ** 2


def _largest_dyadic_below_sqrt(value_sq: Q) -> Q:
    """Largest p/2**q > 0 with (p/2**q)**2 < value_sq, from the dyadic floor
    of the root; q is 20, or the least q above 20 at which such a p exists."""
    if value_sq <= 0:  # also keeps the loop finite
        raise ValueError("need a positive squared value")
    q = 20
    while True:
        d = dyadic_sqrt_lower(value_sq, q)
        if d * d == value_sq:  # only an exact root reaches it; the bound is strict
            d -= Q(1, 1 << q)
        if d > 0:
            return d
        q += 1


def separation_certificate(p: FamilyParams, _n_max=None) -> SeparationCertificate:
    """Certify the family separation for every n >= 1, all comparisons exact.

    With s(n) = (1-eps)/(a+2**-n), the squared pair distance is 2 s(n)**2 and
    family 2's squared gap to the limit solution is s(n)**2 + ((1-eps)/a)**2.
    Since a > 0, a + 2**-n strictly decreases in n, so s(n) > 0 strictly
    increases and both minima over n >= 1 sit at n = 1.  Checking n = 1 (the
    input distance, the pair and gap formulas against the exact norms) certifies
    every n: as (1-eps)/a > s(n), gap(n)**2 > 2 s(n)**2 >= 2 s(1)**2 > bound**2.
    """
    # _n_max is ignored: kept only because perfbench/workloads.py still passes one
    input_distance(1, p)
    min_sq = pair_distance_sq(1, p)
    second = perturbed_solution(2, 1, p)
    if l2_norm_sq(perturbed_solution(1, 1, p) - second) != min_sq:
        raise CertificateError("pair distance formula mismatch at n=1")
    if l2_norm_sq(second - limit_solution(p)) != Q(*limit_gap_sq_ints(1, p)):
        raise CertificateError("limit gap formula mismatch at n=1")
    return SeparationCertificate(params=p, bound=_largest_dyadic_below_sqrt(min_sq))
