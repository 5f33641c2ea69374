"""The exact l1 norm of a real vector, shared by the tests."""

from fractions import Fraction as Q

from qcbplab.rationals import RationalVector


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
