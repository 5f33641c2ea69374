"""Exact rational and complex-rational arithmetic.

The scalar type is ``fractions.Fraction`` (aliased ``Q``): arbitrary-precision
integers, denominator always positive, gcd-reduced after every operation, so
canonical form is maintained eagerly and comparison is a plain cross
multiplication.  Nothing in this module ever rounds.

Norm logic is kept squared throughout: ``sqrt`` leaves the rationals, but
comparisons of nonnegative norms reduce to comparisons of their squares.
Where a scalar root is genuinely needed downstream, :func:`dyadic_sqrt_lower`
and :func:`dyadic_sqrt_upper` return certified dyadic enclosures.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import Iterable, Sequence

Q = Fraction

def fmt_rational(q: Q) -> str:
    """Locale-independent "num/den" text (integers render without "/1")."""
    return str(q)


def parse_rational(text: str) -> Q:
    """Parse "num/den" or integer text produced by :func:`fmt_rational`."""
    return Q(text.strip())


def ceil_log2(q: Q) -> int:
    """Smallest integer t with 2**t >= q, for q > 0.  May be negative."""
    if q <= 0:
        raise ValueError("ceil_log2 requires a positive rational")
    num, den = q.numerator, q.denominator
    t = num.bit_length() - den.bit_length()
    # 2**(t-1) < q < 2**(t+1), so the answer is t, or t + 1 when q > 2**t
    above = num > den << t if t >= 0 else num << -t > den
    return t + 1 if above else t


def dyadic_sqrt_lower(q: Q, prec: int) -> Q:
    """Dyadic d with d <= sqrt(q) and sqrt(q) - d <= 2**-prec (q >= 0)."""
    if q < 0:
        raise ValueError("square root of a negative rational")
    if q == 0:
        return Q(0)
    num, den = q.numerator, q.denominator
    t = 1 << prec
    # floor(sqrt(num*den) * t) / (den*t) <= sqrt(q), error < 1/(den*t) <= 2**-prec
    return Q(isqrt(num * den * t * t), den * t)


def dyadic_sqrt_upper(q: Q, prec: int = 40) -> Q:
    """Rational u with u >= sqrt(q), tight to 2**-prec; exact on perfect squares."""
    if q < 0:
        raise ValueError("square root of a negative rational")
    if q == 0:
        return Q(0)
    num, den = q.numerator, q.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Q(rn, rd)
    t = 1 << prec
    return Q(isqrt(num * den * t * t) + 1, den * t)


@dataclass(frozen=True)
class ComplexQ:
    """Complex number with exact rational real and imaginary parts."""

    re: Q
    im: Q

    def __add__(self, other: "ComplexQ") -> "ComplexQ":
        return ComplexQ(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ComplexQ") -> "ComplexQ":
        return ComplexQ(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "ComplexQ") -> "ComplexQ":
        return ComplexQ(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "ComplexQ") -> "ComplexQ":
        d = other.abs_sq()
        if d == 0:
            raise ZeroDivisionError("exact complex division by zero")
        return ComplexQ(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def abs_sq(self) -> Q:
        return self.re * self.re + self.im * self.im

    def is_real(self) -> bool:
        return self.im == 0

    def scale(self, q: Q) -> "ComplexQ":
        return ComplexQ(self.re * q, self.im * q)


CZERO = ComplexQ(Q(0), Q(0))
CONE = ComplexQ(Q(1), Q(0))


def _as_complex(entry) -> ComplexQ:
    if isinstance(entry, ComplexQ):
        return entry
    return ComplexQ(Q(entry), Q(0))


@dataclass(frozen=True)
class RationalVector:
    """Fixed-length vector of exact complex rationals."""

    entries: tuple[ComplexQ, ...]

    @staticmethod
    def from_items(items: Iterable) -> "RationalVector":
        return RationalVector(tuple(_as_complex(e) for e in items))

    @property
    def n(self) -> int:
        return len(self.entries)

    def __sub__(self, other: "RationalVector") -> "RationalVector":
        self._check_dim(other)
        return RationalVector(tuple(a - b for a, b in zip(self.entries, other.entries)))

    def scale(self, q: Q) -> "RationalVector":
        return RationalVector(tuple(e.scale(q) for e in self.entries))

    def _check_dim(self, other: "RationalVector") -> None:
        if self.n != other.n:
            raise ValueError(f"vector length mismatch: {self.n} vs {other.n}")

    def is_real(self) -> bool:
        return all(e.im == 0 for e in self.entries)


def l2_norm_sq(v: RationalVector) -> Q:
    """Exact squared Euclidean norm: sum of |entry|^2 over all components."""
    total = Q(0)
    for e in v.entries:
        total += e.abs_sq()
    return total


def l1_norm_real(v: RationalVector) -> Q:
    """Exact l1 norm for vectors with purely real entries.

    Complex magnitudes are irrational in general; callers with genuinely
    complex vectors must go through dyadic enclosures instead, so nonzero
    imaginary parts are rejected here.
    """
    total = Q(0)
    for i, e in enumerate(v.entries):
        if e.im != 0:
            raise ValueError(f"entry {i} has nonzero imaginary part {e.im}")
        total += abs(e.re)
    return total


@dataclass(frozen=True)
class RationalMatrix:
    """Dense m-by-n matrix of exact complex rationals, stored row-major."""

    rows: tuple[tuple[ComplexQ, ...], ...]

    def __post_init__(self):
        widths = {len(r) for r in self.rows}
        if len(widths) > 1:
            raise ValueError("ragged matrix rows")

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "RationalMatrix":
        return RationalMatrix(tuple(tuple(_as_complex(e) for e in row) for row in rows))

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def entry(self, i: int, j: int) -> ComplexQ:
        return self.rows[i][j]

    def matvec(self, v: RationalVector) -> RationalVector:
        if v.n != self.n:
            raise ValueError(f"matvec dimension mismatch: {self.n} vs {v.n}")
        out = []
        for row in self.rows:
            acc = CZERO
            for a, x in zip(row, v.entries):
                acc = acc + a * x
            out.append(acc)
        return RationalVector(tuple(out))

    def is_real(self) -> bool:
        return all(e.im == 0 for row in self.rows for e in row)


def realified_rows(mat: RationalMatrix) -> list[list[Q]]:
    """Rows of the real 2m x 2n matrix [[Re A, -Im A], [Im A, Re A]].

    It maps (Re x, Im x) to (Re Ax, Im Ax), and its real rank is twice the
    complex rank of A.
    """
    rows = [[e.re for e in r] + [-e.im for e in r] for r in mat.rows]
    return rows + [[e.im for e in r] + [e.re for e in r] for r in mat.rows]


def scaled_integers(rows: list[list[Q]]) -> tuple[list[list[int]], int]:
    """Integer rows k and den with rows == k / den, den the lcm of every denominator."""
    den = lcm(*(v.denominator for row in rows for v in row))
    return [[v.numerator * (den // v.denominator) for v in row] for row in rows], den


def echelon(rows: list[list[int]], width: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free (Bareiss) row echelon form of integer rows, in integers.

    Pivots are taken in the first ``width`` columns, the top nonzero entry of
    each column in turn; columns past ``width`` (a right-hand side) are carried
    along.  Returns the eliminated rows, with row i's pivot at ``pivots[i]``
    and zeros below every pivot, and the pivot columns.  The input is not
    modified.
    """
    work = list(rows)  # rows are replaced, never changed in place
    m = len(work)
    pivots: list[int] = []
    prev = 1  # the previous pivot; Sylvester's identity makes each division exact
    for col in range(width):
        rank = len(pivots)
        if rank == m:
            break
        pivot = next((r for r in range(rank, m) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        top = work[rank]
        p = top[col]
        for r in range(rank + 1, m):
            row = work[r]
            a = row[col]
            work[r] = [0] * (col + 1) + [
                (p * row[c] - a * top[c]) // prev for c in range(col + 1, len(top))
            ]
        prev = p
        pivots.append(col)
    return work, pivots


def row_rank(mat: RationalMatrix) -> int:
    """Row rank by exact fraction-free elimination of the realification.

    Float rank tests can misclassify matrices whose rows differ by 2**-n
    perturbations; this one cannot.
    """
    ints, _ = scaled_integers(realified_rows(mat))
    return len(echelon(ints, 2 * mat.n)[1]) // 2


def operator_norm_sq_upper(mat: RationalMatrix) -> Q:
    """Certified rational upper bound on the squared spectral norm.

    Uses min(Frobenius bound, max-column-sum x max-row-sum bound), both exact
    up to dyadic square-root overestimates of entry magnitudes.  For a single
    row the Frobenius bound is the spectral norm itself, exactly.  Entries are
    integers over one denominator; a real entry's magnitude is exact.
    """
    n = mat.n
    ints, den = scaled_integers([[e.re for e in r] + [e.im for e in r] for r in mat.rows])
    den_sq = den * den
    fro = Q(sum(v * v for row in ints for v in row), den_sq)
    # entry magnitudes times den
    mags = [
        [
            abs(re) if im == 0 else dyadic_sqrt_upper(Q(re * re + im * im, den_sq)) * den
            for re, im in zip(row[:n], row[n:])
        ]
        for row in ints
    ]
    row_sums = [sum(r) for r in mags]
    col_sums = [sum(col) for col in zip(*mags)]
    holder = Q(max(row_sums) * max(col_sums)) / den_sq
    return min(fro, holder)


# --- serialization -----------------------------------------------------------

def complex_to_json(e: ComplexQ) -> dict:
    return {"re": fmt_rational(e.re), "im": fmt_rational(e.im)}


def complex_from_json(obj: dict) -> ComplexQ:
    return ComplexQ(parse_rational(obj["re"]), parse_rational(obj["im"]))


def vector_to_json(v: RationalVector) -> list:
    return [complex_to_json(e) for e in v.entries]


def vector_from_json(items: list) -> RationalVector:
    return RationalVector(tuple(complex_from_json(e) for e in items))


def matrix_to_json(mat: RationalMatrix) -> list:
    return [[complex_to_json(e) for e in row] for row in mat.rows]


def matrix_from_json(rows: list) -> RationalMatrix:
    return RationalMatrix(tuple(tuple(complex_from_json(e) for e in row) for row in rows))
