"""Exact rational and complex-rational arithmetic.

The scalar type is ``fractions.Fraction`` (aliased ``Q``): arbitrary-precision
integers, denominator always positive, gcd-reduced after every operation, so
canonical form is maintained eagerly and comparison is a plain cross
multiplication.  Only :func:`float_sqrt_ints` rounds, deciding in integers.

Norm logic is kept squared throughout: ``sqrt`` leaves the rationals, but
comparisons of nonnegative norms reduce to comparisons of their squares.
Where a scalar root is genuinely needed downstream, :func:`dyadic_sqrt_lower`
and :func:`dyadic_sqrt_upper` return certified enclosures: the dyadic floor of
the root, and an upper root on the grid 1/(den 2**prec), den the reduced one;
:func:`float_sqrt_ints` gives a printed root's float floor and nearest float.

The integer layer works on Python ints and builds Fractions only for what it
returns: :func:`sqrt_upper_ints` is the upper root on a numerator and a
denominator, returning an integer pair (``dyadic_sqrt_upper`` is that pair as
a Fraction).  :func:`abs_upper_ints` is the one upper bound on a complex
entry's magnitude, integers over one denominator, exact on a real entry:
:func:`operator_norm_sq_upper` sums its magnitudes into one Fraction (one
row needs none: its Frobenius bound is the norm), and the solver's l1
certificate in ``qcbp`` reads it too.  The solver keeps its bounds as such
unreduced integer pairs, compares them by cross-multiplication, and builds
a Fraction only for the values it reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm, ldexp
from typing import Iterable, Sequence

Q = Fraction

def fmt_rational(q: Q) -> str:
    """Locale-independent "num/den" text (integers render without "/1")."""
    return str(q)


def parse_rational(text: str) -> Q:
    """Parse "num/den" or integer text produced by :func:`fmt_rational`."""
    if not isinstance(text, str):
        raise ValueError(f'expected a rational as a "num/den" string, got {text!r}')
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


def _scaled_divmod(num: int, den: int, s: int) -> tuple[int, int]:
    """(y, r): y = floor(num/den 4**s) for integers num >= 0, den > 0 and any
    s, and r >= 0 its remainder, 0 exactly when y is num/den 4**s itself."""
    return divmod(num << 2 * s, den) if s >= 0 else divmod(num, den << -2 * s)


def dyadic_sqrt_lower(q: Q, prec: int) -> Q:
    """The dyadic floor d = floor(sqrt(q) 2**prec) / 2**prec of sqrt(q), q >= 0.

    So d <= sqrt(q) < d + 2**-prec.
    """
    if q < 0:
        raise ValueError("square root of a negative rational")
    # isqrt(floor(y)) = floor(sqrt(y)) for y = q 4**prec
    return Q(isqrt(_scaled_divmod(q.numerator, q.denominator, prec)[0]), 1 << prec)


def float_sqrt_ints(num: int, den: int) -> tuple[float, float]:
    """The float floor F and the nearest float R of sqrt(num/den), num >= 0, den > 0.

    F is the largest float with F**2 <= num/den, and R is F or its successor by
    one integer comparison of num/den with their squared midpoint, ties to
    even.  A root that rounds past float64 raises OverflowError.
    """
    if num < 0:
        raise ValueError("square root of a negative rational")
    if num == 0:
        return 0.0, 0.0
    s = 55 - (num.bit_length() - den.bit_length()) // 2
    y, r = _scaled_divmod(num, den, s)
    m = isqrt(y)  # floor(sqrt(num/den) 2**s), in [2**54.5, 2**56)
    # the float spacing 2**g at the root, whose exponent is bit_length(m) - 1 - s
    g = max(m.bit_length() - 53 - s, -1074)
    k = m >> (g + s)  # F = k 2**g <= root < (k + 1) 2**g, as g + s >= 2
    mid = (2 * k + 1) << (g + s - 1)  # the midpoint times 2**s, an integer
    # num/den 4**s is y plus a fraction in [0, 1), 0 exactly when r is
    up = y > mid * mid or (y == mid * mid and (r > 0 or k % 2 == 1))
    return ldexp(k, g), ldexp(k + up, g)


def sqrt_upper_ints(num: int, den: int, prec: int = 40) -> tuple[int, int]:
    """Integers (p, q), q > 0, with p/q >= sqrt(num/den), tight to 2**-prec (num >= 0, den > 0).

    The bound depends on the reduced denominator, so num/den is reduced
    first; then p/q = isqrt(num den 4**prec) + 1 over den 2**prec, or the
    exact root when num and den are both perfect squares.  p/q is not
    reduced: the caller builds one Fraction for whatever it reports.
    """
    if num < 0:
        raise ValueError("square root of a negative rational")
    if num == 0:
        return 0, 1
    g = gcd(num, den)
    num, den = num // g, den // g
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return rn, rd
    t = 1 << prec
    return isqrt(num * den * t * t) + 1, den * t


def dyadic_sqrt_upper(q: Q, prec: int = 40) -> Q:
    """Rational u with u >= sqrt(q), tight to 2**-prec; exact on perfect squares."""
    return Q(*sqrt_upper_ints(q.numerator, q.denominator, prec))


def abs_upper_ints(v: Sequence[int], den: int) -> tuple[list[int], int]:
    """Integers M and w with M[j]/w >= |v[j] + i v[n+j]| / den, tight to 2**-40.

    ``v`` is (re_1..re_n, im_1..im_n) over ``den`` > 0, and every M[j] is over
    the one w = den**2 2**40, which each root's denominator divides.  A real
    entry's magnitude is exact, |re| den 2**40 / w, and takes no root.
    """
    n = len(v) // 2
    den_sq = den * den
    w = den_sq << 40
    real = den << 40

    def mag(re: int, im: int) -> int:
        if im == 0:
            return abs(re) * real
        p, q = sqrt_upper_ints(re * re + im * im, den_sq)
        return p * (w // q)

    return [mag(re, im) for re, im in zip(v[:n], v[n:])], w


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

    def abs_sq(self) -> Q:
        return self.re * self.re + self.im * self.im

    def is_real(self) -> bool:
        return self.im == 0


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


def row_rank(rows: list[list[int]]) -> int:
    """Row rank of integer rows by exact fraction-free elimination.

    Float rank tests can misclassify matrices whose rows differ by 2**-n
    perturbations; this one cannot.
    """
    return len(echelon(rows, len(rows[0]))[1])


def operator_norm_sq_upper(rows: list[list[int]], den: int) -> Q:
    """Certified rational upper bound on the squared spectral norm of A.

    ``rows[i]`` holds (Re A_i, Im A_i) times ``den``; the sign of the
    imaginary half does not matter.  Uses min(Frobenius bound,
    max-column-sum x max-row-sum bound over the entry magnitudes of
    :func:`abs_upper_ints`), both the same rational whatever the common
    ``den``.  For a single row the Frobenius bound is the spectral norm itself,
    and the Hölder bound, sum_j |a_j| times max_j |a_j|, is never below it: one
    row returns it and forms no magnitudes.
    """
    den_sq = den * den
    fro = sum(v * v for row in rows for v in row)  # over den_sq
    if len(rows) == 1:
        return Q(fro, den_sq)
    bounds = [abs_upper_ints(row, den) for row in rows]
    mags, w_sq = [m for m, _ in bounds], bounds[0][1] ** 2  # every row's w is the same
    holder = max(map(sum, mags)) * max(map(sum, zip(*mags)))  # over w_sq
    return Q(fro, den_sq) if fro * w_sq <= holder * den_sq else Q(holder, w_sq)


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
