"""The integer certificates, rank test and norm bound equal their Fraction references."""

import math
import random
from fractions import Fraction as Q

import numpy as np
import pytest

from qcbplab import qcbp
from qcbplab.rationals import (
    ComplexQ,
    RationalMatrix,
    RationalVector,
    operator_norm_sq_upper,
    row_rank,
)
import certify_reference as ref

PRIMES = (65519, 65521, 65537)
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 2.0**-60, 3e-200, 1.5, -7.0)


def rand_q(rng):
    den = rng.choice((1, 2, 3, 7, 16, 2**40, *PRIMES, PRIMES[0] * PRIMES[2]))
    return Q(rng.randint(-40, 40), den)


def scale(e, q):
    """The complex rational e times the rational q."""
    return ComplexQ(e.re * q, e.im * q)


def rand_entry(rng, cplx):
    return ComplexQ(rand_q(rng), rand_q(rng) if cplx else Q(0))


def rand_instance(rng):
    m = rng.randint(1, 3)
    n = rng.randint(m + 1, m + 4)
    cplx = rng.random() < 0.5
    return qcbp.Instance(
        A=RationalMatrix(tuple(tuple(rand_entry(rng, cplx) for _ in range(n)) for _ in range(m))),
        y=RationalVector(tuple(rand_entry(rng, cplx) for _ in range(m))),
        eps=rng.choice((Q(0), Q(1, 8), Q(1, PRIMES[1]))),
    )


def rand_floats(rng, size):
    """Ordinary floats, signed zeros, subnormals, 1e300 and mixed exponents in one vector."""
    kind = rng.randrange(3)
    out = []
    for _ in range(size):
        if kind == 0:
            out.append(rng.gauss(0, 1))
        elif kind == 1 or rng.random() < 0.3:
            out.append(rng.choice(SPECIAL))
        else:
            out.append(math.ldexp(rng.gauss(0, 1), rng.randint(-1000, 1000)))
    return np.array(out)


def test_certificates_equal_fraction_reference():
    rng = random.Random(41)
    for _ in range(250):
        inst = rand_instance(rng)
        n = inst.n
        scaled = qcbp._realified(inst)[2]
        exact_k, y_exact = ref.realified_exact(inst)
        x = rand_floats(rng, 2 * n)
        z = rand_floats(rng, 2 * inst.m)

        objective_ub, residual_sq, residual_ub, x_float = qcbp._certify_primal(scaled, x)
        want = ref.certify_primal(inst, x)
        assert (objective_ub, residual_sq, residual_ub) == want[:3], (inst, x)
        assert x_float is not x and np.array_equal(x_float, x)
        assert qcbp._exact_point(x_float, n) == want[3]
        got = qcbp._dual_lower_bound(z, scaled, inst.eps)
        assert got == ref.dual_lower_bound(z, exact_k, y_exact, inst.eps, n), (inst, z)
        assert all(type(v) is Q for v in (objective_ub, residual_sq, residual_ub, got))


def test_certificates_on_solver_iterates_equal_fraction_reference(monkeypatch):
    """Every candidate one solve certifies, complex instance included."""
    calls = []
    certify, dual = qcbp._certify_primal, qcbp._dual_lower_bound

    def certify_spy(scaled, x):
        out = certify(scaled, x)
        calls.append(("primal", x.copy(), out))
        return out

    def dual_spy(z, scaled, eps):
        out = dual(z, scaled, eps)
        calls.append(("dual", z.copy(), out))
        return out

    monkeypatch.setattr(qcbp, "_certify_primal", certify_spy)
    monkeypatch.setattr(qcbp, "_dual_lower_bound", dual_spy)
    rng = random.Random(5)
    for _ in range(12):
        inst = rand_instance(rng)
        if row_rank(inst.A) < inst.m:
            continue
        calls.clear()
        rep = qcbp.solve_numeric(inst, Q(1, 10**6), max_iter=1000)
        exact_k, y_exact = ref.realified_exact(inst)
        for kind, v, out in calls:
            if kind == "primal":
                assert out[:3] == ref.certify_primal(inst, v)[:3]
            else:
                assert out == ref.dual_lower_bound(v, exact_k, y_exact, inst.eps, inst.n)
        assert rep.x == ref.certify_primal(inst, rep.x_float)[3]


@pytest.mark.parametrize(
    "bad",
    [[math.nan], [math.inf], [-math.inf], [1.0, math.nan, math.inf], [1.0, -math.inf, math.nan]],
    ids=["nan", "inf", "-inf", "nan-then-inf", "inf-then-nan"],
)
def test_nonfinite_iterates_raise_as_the_reference(bad):
    inst = rand_instance(random.Random(3))
    n, m = inst.n, inst.m
    scaled = qcbp._realified(inst)[2]
    exact_k, y_exact = ref.realified_exact(inst)
    x = np.array((bad + [0.5] * (2 * n))[: 2 * n])
    z = np.array((bad + [0.5] * (2 * m))[: 2 * m])
    cases = [
        (lambda: ref.certify_primal(inst, x), lambda: qcbp._certify_primal(scaled, x)),
        (
            lambda: ref.dual_lower_bound(z, exact_k, y_exact, inst.eps, n),
            lambda: qcbp._dual_lower_bound(z, scaled, inst.eps),
        ),
    ]
    for want, got in cases:
        with pytest.raises((ValueError, OverflowError)) as expected:
            want()
        with pytest.raises(expected.type):
            got()


def _rank_cases(rng):
    """Random complex matrices, many of them rank-deficient on purpose."""
    for _ in range(700):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        cplx = rng.random() < 0.6
        rows = [[rand_entry(rng, cplx) for _ in range(n)] for _ in range(m)]
        for _ in range(rng.randint(0, 2)):
            i = rng.randrange(m)
            kind = rng.randrange(4)
            if kind == 0:  # complex multiple of another row
                c = rand_entry(rng, True)
                rows[i] = [c * e for e in rows[rng.randrange(m)]]
            elif kind == 1:
                rows[i] = [ComplexQ(Q(0), Q(0))] * n
            elif kind == 2:  # a combination of two rows, then a 2^-k perturbation
                a, b = rows[rng.randrange(m)], rows[rng.randrange(m)]
                c = rand_entry(rng, cplx)
                rows[i] = [u + c * v for u, v in zip(a, b)]
                j = rng.randrange(n)
                rows[i][j] = rows[i][j] + ComplexQ(Q(1, 2 ** rng.randint(1, 80)), Q(0))
            else:
                rows[i] = [scale(e, 1 + Q(1, 2 ** rng.randint(1, 80))) for e in rows[i]]
        yield RationalMatrix(tuple(tuple(r) for r in rows))


def test_row_rank_and_norm_bound_equal_fraction_reference():
    ranks = set()
    for mat in _rank_cases(random.Random(17)):
        rank = row_rank(mat)
        assert rank == ref.row_rank(mat), mat
        assert operator_norm_sq_upper(mat) == ref.operator_norm_sq_upper(mat), mat
        ranks.add((rank, mat.m))
    assert any(rank < m for rank, m in ranks) and any(rank == m for rank, m in ranks)
