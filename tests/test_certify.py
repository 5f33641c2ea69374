"""The integer certificates, rank test and norm bound equal their Fraction references."""

import math
import random
from fractions import Fraction as Q
from struct import pack

import pytest

from qcbplab import qcbp, rationals
from qcbplab.rationals import ComplexQ, RationalMatrix, RationalVector
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
    return out


def test_certificates_equal_fraction_reference():
    rng = random.Random(41)
    for _ in range(250):
        inst = rand_instance(rng)
        n = inst.n
        scaled = qcbp._realified(inst.A, inst.y)[0]
        exact_k, y_exact = ref.realified_exact(inst.A, inst.y)
        x = rand_floats(rng, 2 * n)
        z = rand_floats(rng, 2 * inst.m)

        objective_ub, residual_sq, residual_ub, x_point = qcbp._certify_primal(scaled, x)
        want = ref.certify_primal(inst, x)
        assert (Q(*objective_ub), Q(*residual_sq), Q(*residual_ub)) == want[:3], (inst, x)
        assert residual_ub == rationals.sqrt_upper_ints(*residual_sq)
        assert x_point is x
        assert qcbp._exact_point(x_point) == want[3]
        got = qcbp._dual_lower_bound(z, scaled, inst.eps)
        assert Q(*got) == ref.dual_lower_bound(z, exact_k, y_exact, inst.eps, n), (inst, z)
        for pair in (objective_ub, residual_sq, residual_ub, got):
            assert len(pair) == 2 and all(type(v) is int for v in pair) and pair[1] > 0


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
        if ref.row_rank(inst.A) < inst.m:
            continue
        calls.clear()
        rep = qcbp.solve_numeric(inst, Q(1, 10**6), max_iter=1000)
        exact_k, y_exact = ref.realified_exact(inst.A, inst.y)
        for kind, v, out in calls:
            if kind == "primal":
                assert tuple(Q(*pair) for pair in out[:3]) == ref.certify_primal(inst, v)[:3]
            else:
                assert Q(*out) == ref.dual_lower_bound(v, exact_k, y_exact, inst.eps, inst.n)
        # the report's point and bound are those of one certified candidate
        certified = [(ref.certify_primal(inst, v)[3], Q(*out[0])) for kind, v, out in calls if kind == "primal"]
        assert (rep.x, rep.objective_ub) in certified


def test_pair_comparisons_equal_fraction_comparisons():
    """The solve loop's tests on integer pairs (residual <= bound, objective <
    best, lower bound < new one, and upper - lower <= tol) give the Fraction
    comparison's answer on ties, unreduced pairs, zero numerators and negative
    lower bounds."""
    rng = random.Random(31)

    def pair():
        q = Q(rng.randint(-4, 4), rng.choice((1, 2, 3, 6)))  # few values, so many ties
        g = rng.choice((1, 2, 3, 2**40, PRIMES[0]))
        return q.numerator * g, q.denominator * g

    seen = set()
    for _ in range(4000):
        a, b, c = pair(), pair(), pair()
        qa, qb, qc = Q(*a), Q(*b), Q(*c)
        assert qcbp._le(a, b) == (qa <= qb), (a, b)
        assert qcbp._lt(a, b) == (qa < qb), (a, b)
        assert qcbp._gap_within(a, b, c) == (qa - qb <= qc), (a, b, c)
        seen.add(("tie", qa == qb and a != b))
        seen.add(("gap tie", qa - qb == qc))
        seen.add(("zero", a[0] == 0 and a[1] > 1))
        seen.add(("negative lower", qb < 0 and qa - qb <= qc))
    assert {key for key, hit in seen if hit} == {"tie", "gap tie", "zero", "negative lower"}


@pytest.mark.parametrize(
    "bad",
    [[math.nan], [math.inf], [-math.inf], [1.0, math.nan, math.inf], [1.0, -math.inf, math.nan]],
    ids=["nan", "inf", "-inf", "nan-then-inf", "inf-then-nan"],
)
def test_nonfinite_iterates_raise_as_the_reference(bad):
    inst = rand_instance(random.Random(3))
    n, m = inst.n, inst.m
    scaled = qcbp._realified(inst.A, inst.y)[0]
    exact_k, y_exact = ref.realified_exact(inst.A, inst.y)
    x = (bad + [0.5] * (2 * n))[: 2 * n]
    z = (bad + [0.5] * (2 * m))[: 2 * m]
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


def _bits(rows):
    """The float64 bytes of a list of rows of floats."""
    return b"".join(pack(f"<{len(row)}d", *row) for row in rows)


def _as_floats(rows):
    """The float of each Fraction, row by row."""
    return [[float(v) for v in row] for row in rows]


def test_row_rank_and_norm_bound_equal_fraction_reference():
    """Rank, norm bound and realification as the solve sets them up, over y's denominators too."""
    ranks = set()
    y_rng = random.Random(18)
    for mat in _rank_cases(random.Random(17)):
        y_den = y_rng.choice((11, 13 * 2**70, 10**30 + 57))  # no entry of A has one of these
        y = RationalVector(tuple(ComplexQ(Q(y_rng.choice((1, -3, 5)), y_den), rand_q(y_rng)) for _ in range(mat.m)))
        scaled, rank, norm_sq = qcbp._realified(mat, y)
        assert scaled.den % y_den == 0
        assert rank == ref.row_rank(mat), mat
        assert norm_sq == ref.operator_norm_sq_upper(mat), mat
        exact_k, y_exact = ref.realified_exact(mat, y)
        assert [[Q(v, scaled.den) for v in row] for row in scaled.k] == exact_k
        assert [Q(v, scaled.den) for v in scaled.y] == y_exact
        assert scaled.k_cols == list(zip(*scaled.k))
        K, yv = scaled.floats()
        assert _bits(K) == _bits(_as_floats(exact_k)) and _bits([yv]) == _bits(_as_floats([y_exact]))
        ranks.add((rank, mat.m))
    assert any(rank < m for rank, m in ranks) and any(rank == m for rank, m in ranks)


MAX = 2**1024 - 2**971  # the largest float64
EDGE = (
    Q(MAX),
    Q(-(MAX + 2**970 - 1)),  # just below the halfway point, so it rounds to -MAX
    Q(2**1023 + 1, 3),
    Q(1, 2**1074),  # the least subnormal
    Q(-3, 2**1076),  # rounds up to the least subnormal
    Q(1, 3 * 2**1030),  # a subnormal result of a non-dyadic entry
    Q(1, 2**1075),  # halfway to the least subnormal: rounds to 0.0
    Q(-1, 10**400),  # rounds to -0.0
    Q(7, 10**300 + 1),
)


def test_float_set_up_equals_float_of_each_fraction():
    """K and y from integer divisions equal float(Fraction) bit for bit, entry by entry."""
    rng = random.Random(23)
    for _ in range(50):
        m = rng.randint(1, 2)
        n = rng.randint(m + 1, 4)

        def entry():
            return ComplexQ(rng.choice(EDGE), rng.choice(EDGE + (Q(0),)))

        mat = RationalMatrix(tuple(tuple(entry() for _ in range(n)) for _ in range(m)))
        y = RationalVector(tuple(entry() for _ in range(m)))
        K, yv = qcbp._realified(mat, y)[0].floats()
        exact_k, y_exact = ref.realified_exact(mat, y)
        for got, want in zip(sum(K, []) + yv, [v for row in exact_k for v in row] + y_exact):
            assert got.hex() == float(want).hex(), want
    past = RationalMatrix.from_rows([[Q(MAX + 2**970), 1]])  # the halfway point rounds to 2**1024
    with pytest.raises(OverflowError):
        qcbp._realified(past, RationalVector.from_items([1]))[0].floats()


def test_solve_scales_to_integers_and_eliminates_once(monkeypatch):
    """A solve that polishes and runs several batches scales A and y and eliminates once."""
    counts = {"scaled_integers": 0, "echelon": 0}
    for name in counts:
        original = getattr(rationals, name)

        def counting(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(rationals, name, counting)
        monkeypatch.setattr(qcbp, name, counting)
    polished = []
    polish = qcbp._polish_primal
    monkeypatch.setattr(qcbp, "_polish_primal", lambda *args: polished.append(1) or polish(*args))
    inst = qcbp.Instance(
        A=RationalMatrix.from_rows([[1, 2, Q(1, 3)], [Q(-1, 5), 1, 1]]),
        y=RationalVector.from_items([Q(1, 7), ComplexQ(Q(1, 11), Q(1, 2))]),
        eps=Q(0),
    )
    rep = qcbp.solve_numeric(inst, Q(1, 10**12), max_iter=2000)
    assert rep.iterations > 250 and polished
    assert counts == {"scaled_integers": 1, "echelon": 1}
