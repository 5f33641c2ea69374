"""The exact selected solution of an embedded single-row core, shared by the tests."""

from qcbplab.qcbp import Instance, exact_solution_set, select
from qcbplab.rationals import CZERO, RationalVector


def select_embedded(core: Instance, m: int) -> RationalVector:
    """Exact selected solution of ``embed(core, m)``: the core's, zero-padded.

    The tail coordinates enter the residual additively as x_i^2, so any
    minimum-l1 solution zeroes them and the problem reduces exactly to the
    single-row core, to which the oracle applies.
    """
    x = select(exact_solution_set(core))
    return RationalVector(x.entries + (CZERO,) * (m - 1))
