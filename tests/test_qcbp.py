"""Oracle, solver and brute-force tests for the QCBP core."""

import itertools
import json
import math
import random
import sys
import warnings
from fractions import Fraction as Q
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import linprog

from qcbplab import _kernels, mlp, qcbp
from qcbplab.rationals import (
    ComplexQ,
    RationalMatrix,
    RationalVector,
    l2_norm_sq,
)
from embedding_reference import select_embedded
from l1_reference import l1_norm_real


def single(row, eps=Q(0), y=1):
    return qcbp.Instance.single_row(row, y, eps)


def rand_instance(rng, n, eps):
    """Random positive single-row instance with entries in [1/2, 3]."""
    row = []
    while len(row) < n:
        q = Q(rng.randint(1, 48), rng.randint(1, 16))
        if Q(1, 2) <= q <= 3:
            row.append(q)
    return single(row, eps)


def test_instance_validation():
    with pytest.raises(ValueError, match="m < N"):
        qcbp.Instance(
            A=RationalMatrix.from_rows([[1, 2], [3, 4]]),
            y=RationalVector.from_items([1, 1]),
            eps=Q(0),
        )
    with pytest.raises(ValueError, match="nonnegative"):
        single([1, 2], eps=Q(-1))
    with pytest.raises(ValueError, match="two columns"):
        qcbp.Instance(
            A=RationalMatrix.from_rows([[1]]),
            y=RationalVector.from_items([1]),
            eps=Q(0),
        )


def test_oracle_examples():
    s = qcbp.exact_solution_set(single([2, 1]))
    assert s.active == (0,) and s.scale == 1
    assert qcbp.select(s).entries[0].re == Q(1, 2)
    assert qcbp.select(s).entries[1].re == 0

    s2 = qcbp.exact_solution_set(single([1, 1], eps=Q(1, 2)))
    assert s2.active == (0, 1)
    assert [e.re for e in qcbp.select(s2).entries] == [Q(1, 2), 0]
    # the other vertex of the segment
    assert [e.re for e in s2.vertex(1).entries] == [0, Q(1, 2)]

    for n in (1, 4, 9):
        bump = 1 + Q(1, 2**n)
        s3 = qcbp.exact_solution_set(single([bump, 1, 1], eps=Q(1, 4)))
        assert s3.active == (0,)
        assert qcbp.select(s3).entries[0].re == (1 - Q(1, 4)) / bump

    s4 = qcbp.exact_solution_set(single([1, 3]))
    assert [e.re for e in qcbp.select(s4).entries] == [0, Q(1, 3)]


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    row=st.lists(st.fractions(Q(1, 16), 4, max_denominator=16), min_size=2, max_size=5),
    y=st.fractions(Q(1, 1000), 1000, max_denominator=1000),
    slack=st.fractions(0, Q(999, 1000), max_denominator=1000),
)
def test_oracle_scales_with_the_measurement(row, y, slack):
    """x solves (A, y, eps) iff x / y solves (A, 1, eps / y), for every y > 0."""
    eps = slack * y
    got = qcbp.select(qcbp.exact_solution_set(single(row, eps, y)))
    unit = qcbp.select(qcbp.exact_solution_set(single(row, eps / y)))
    assert got == RationalVector.from_items([y * e.re for e in unit.entries])


def test_oracle_precondition_messages():
    with pytest.raises(qcbp.OracleDomainError, match="single row"):
        qcbp.exact_solution_set(
            qcbp.Instance(
                A=RationalMatrix.from_rows([[2, 1, 0], [0, 0, 1]]),
                y=RationalVector.from_items([1, 0]),
                eps=Q(0),
            )
        )
    for y in (0, -1, ComplexQ(Q(1), Q(1))):
        with pytest.raises(qcbp.OracleDomainError, match="y > 0"):
            qcbp.exact_solution_set(single([2, 1], y=y))
    with pytest.raises(qcbp.OracleDomainError, match="eps"):
        qcbp.exact_solution_set(single([2, 1], eps=Q(3, 2)))
    with pytest.raises(qcbp.OracleDomainError, match="positive"):
        qcbp.exact_solution_set(single([2, Q(-1)]))
    with pytest.raises(qcbp.OracleDomainError, match="real"):
        qcbp.exact_solution_set(
            qcbp.Instance(
                A=RationalMatrix((((ComplexQ(Q(1), Q(1))), ComplexQ(Q(1), Q(0))),)),
                y=RationalVector.from_items([1]),
                eps=Q(0),
            )
        )


def test_select_deterministic_pure():
    s = qcbp.exact_solution_set(single([1, 1, 1], eps=Q(1, 2)))
    assert qcbp.select(s) == qcbp.select(s)


def test_enumerated_solutions_saturate_constraint():
    inst = single([1, 1], eps=Q(1, 2))
    s = qcbp.exact_solution_set(inst)
    v0, v1 = s.vertex(0), s.vertex(1)
    midpoint = RationalVector.from_items([(a.re + b.re) / 2 for a, b in zip(v0.entries, v1.entries)])
    for p in (v0, v1, midpoint):
        residual = inst.A.matvec(p) - inst.y
        assert l2_norm_sq(residual) == inst.eps**2  # exactly on the boundary


def test_feasible_examples():
    inst = single([2, 1])
    assert qcbp.feasible(inst, RationalVector.from_items([Q(1, 2), 0]))
    assert not qcbp.feasible(inst, RationalVector.from_items([0, 0]))
    inst2 = single([1, 1], eps=Q(1, 2))
    assert qcbp.feasible(inst2, RationalVector.from_items([Q(1, 2), 0]))


def test_oracle_randomized_value_formula():
    rng = random.Random(31)
    for _ in range(60):
        eps = rng.choice([Q(0), Q(1, 4), Q(1, 2), Q(3, 4)])
        inst = rand_instance(rng, rng.choice([2, 3, 4]), eps)
        s = qcbp.exact_solution_set(inst)
        sel = qcbp.select(s)
        amax = max(e.re for e in inst.A.rows[0])
        assert l1_norm_real(sel) == (1 - eps) / amax
        assert qcbp.feasible(inst, sel)


# --- embedding ---------------------------------------------------------------------

def test_embed_example():
    inst = single([2, 1])
    emb = qcbp.embed(inst, 2)
    assert [[e.re for e in row] for row in emb.A.rows] == [[2, 1, 0], [0, 0, 1]]
    assert [e.re for e in emb.y.entries] == [1, 0]
    assert qcbp.embed(inst, 1) is inst
    assert (qcbp.embed(inst, 3).m, qcbp.embed(inst, 3).n) == (3, 4)


def test_embed_dimension_check():
    with pytest.raises(ValueError, match="m >= 1"):
        qcbp.embed(single([2, 1]), 0)
    two_rows = qcbp.embed(single([2, 1]), 2)
    with pytest.raises(ValueError, match="single-row"):
        qcbp.embed(two_rows, 2)


def test_embedded_selection_matches_original():
    rng = random.Random(32)
    for _ in range(25):
        inst = rand_instance(rng, 2, Q(1, 4))
        padded = select_embedded(inst, 2)
        assert padded.entries[:2] == qcbp.select(qcbp.exact_solution_set(inst)).entries
        assert all(e.re == 0 for e in padded.entries[2:])
        assert qcbp.feasible(qcbp.embed(inst, 2), padded)


def test_instance_json_roundtrip():
    inst = single([Q(9, 8), 1], eps=Q(1, 2))
    again = qcbp.Instance.from_json(inst.to_json())
    assert again == inst


# --- numerical solver ----------------------------------------------------------------

def test_solver_example_basic():
    rep = qcbp.solve_numeric(single([2, 1]), Q(1, 10**6))
    assert rep.converged
    assert abs(rep.objective_ub - Q(1, 2)) <= Q(1, 10**5)
    assert rep.residual_ub <= Q(1, 10**6)
    assert rep.residual_ub**2 >= rep.residual_sq  # certified a posteriori


def test_solver_example_slack():
    rep = qcbp.solve_numeric(single([Q(3, 2), 1], eps=Q(1, 4)), Q(1, 10**6))
    assert rep.converged
    assert abs(rep.objective_ub - Q(1, 2)) <= Q(1, 10**5)
    assert rep.residual_ub <= Q(1, 4) + Q(1, 10**6)


def test_solver_embedded_same_objective():
    rep1 = qcbp.solve_numeric(single([2, 1]), Q(1, 10**6))
    rep2 = qcbp.solve_numeric(qcbp.embed(single([2, 1]), 2), Q(1, 10**6))
    assert abs(rep1.objective_ub - rep2.objective_ub) <= Q(2, 10**5)


def test_solver_zero_optimum_when_eps_dominates():
    rep = qcbp.solve_numeric(single([2, 1], eps=Q(1)), Q(1, 10**6))
    assert rep.converged
    assert rep.objective_ub <= Q(1, 10**5)


def test_solver_duality_sandwich():
    rep = qcbp.solve_numeric(single([Q(5, 3), Q(4, 3)], eps=Q(1, 4)), Q(1, 10**6))
    oracle_value = (1 - Q(1, 4)) / Q(5, 3)
    assert rep.lower_bound <= oracle_value
    assert rep.objective_ub >= oracle_value - Q(1, 10**6)  # tol slack on the ub side
    assert rep.objective_ub - rep.lower_bound <= Q(1, 10**6)


def test_solver_rejects_rank_deficient():
    bad = qcbp.Instance(
        A=RationalMatrix.from_rows([[1, 1, 0], [2, 2, 0]]),
        y=RationalVector.from_items([1, 2]),
        eps=Q(0),
    )
    with pytest.raises(qcbp.RankDeficientError):
        qcbp.solve_numeric(bad, Q(1, 1000))


def test_solve_loop_keeps_each_comparisons_strictness(monkeypatch):
    """On scripted certificates: a residual equal to eps + tol is accepted, a
    candidate that ties the best objective does not replace it, and a gap equal
    to tol certifies; the bounds come as unreduced pairs."""
    tol = Q(1, 10**6)
    xs = [[float(i)] * 4 for i in range(3)]
    primal = iter([
        ((3, 1), (0, 1), (2, 2 * 10**6), xs[0]),  # residual == eps + tol
        ((6, 2), (0, 1), (0, 1), xs[1]),  # objective ties the best
        ((5, 1), (0, 1), (0, 1), xs[2]),
    ])
    dual = iter([(1, 1), (2, 2), (3 * 10**6 - 1, 10**6)])  # the last leaves a gap of tol
    step = lambda K, y, e, t, s, x, z, xbar, iters: tuple([a + 1 for a in v] for v in (x, z, xbar))
    monkeypatch.setattr(_kernels, "pd_iterate", step)
    monkeypatch.setattr(qcbp, "_certify_primal", lambda scaled, x: next(primal))
    monkeypatch.setattr(qcbp, "_dual_lower_bound", lambda z, scaled, eps: next(dual))
    monkeypatch.setattr(qcbp, "_polish_primal", lambda *args: None)
    rep = qcbp.solve_numeric(single([1, 2]), tol, max_iter=1000)
    assert (rep.converged, rep.iterations) == (True, 750)
    assert rep.x == RationalVector.from_items([ComplexQ(Q(0), Q(0))] * 2)  # xs[0], the first candidate
    assert (rep.objective_ub, rep.lower_bound, rep.residual_ub) == (3, 3 - tol, tol)


def test_stalled_solve_still_runs_its_last_shorter_batch(monkeypatch):
    """A kernel state of period 2 returns after every 250 iterations, so the
    second batch stalls the solve; the last batch of 125 still runs, and the
    report certifies its state.  The first batch returns its input too, and is
    certified: there was nothing before it."""
    calls = []

    def period_two(K, y, eps, tau, sigma, x, z, xbar, iters):
        calls.append(iters)
        return tuple([0.25 - a for a in v] if iters % 2 else list(v) for v in (x, z, xbar))

    monkeypatch.setattr(_kernels, "pd_iterate", period_two)
    monkeypatch.setattr(qcbp, "_polish_primal", lambda *args: None)
    rep = qcbp.solve_numeric(single([1, 2]), Q(1, 10**6), max_iter=625)
    assert calls == [250, 250, 125]
    assert (rep.converged, rep.iterations) == (False, 625)
    assert rep.x == RationalVector.from_items([ComplexQ(Q(1, 4), Q(1, 4))] * 2)
    assert rep.residual_sq == Q(5, 8)  # |(3/4 - 1) + 3i/4|^2


def test_solver_overflow_warns_nothing():
    """An iteration that overflows is left to the exact certificates, without a numpy warning."""
    inst = single([1, 2], y=10**307)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = qcbp.solve_numeric(inst, Q(1, 10**6), max_iter=5000)
    assert (rep.iterations, rep.converged) == (5000, False)


@st.composite
def binary_scaled_instances(draw):
    """Real instances with m in {1, 2}, N in {m+1, m+2}, entries (p/q) 2**j and eps in {0, |y_0|/4}."""
    exponent = st.one_of(st.just(0), st.integers(-1100, 1100))

    def entry():
        return Q(draw(st.integers(-9, 9)), draw(st.integers(1, 9))) * Q(2) ** draw(exponent)

    m = draw(st.sampled_from([1, 2]))
    n = m + draw(st.sampled_from([1, 2]))
    rows = [[entry() for _ in range(n)] for _ in range(m)]
    y = [entry() for _ in range(m)]
    eps = draw(st.sampled_from([Q(0), abs(y[0]) / 4]))
    return qcbp.Instance(RationalMatrix.from_rows(rows), RationalVector.from_items(y), eps)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(inst=binary_scaled_instances())
# every entry fits a float64, but the first batch's iterate is NaN
@example(inst=single([1, 2], y=10**308))
@example(inst=single([Q(1, 10**300), Q(1, 10**300)], y=10**300))
def test_solver_exit_contract_at_extreme_binary_scales(inst):
    """A solve returns or raises an input error naming a value or the norm bound, or a numerical failure."""
    try:
        qcbp.solve_numeric(inst, max_iter=500)
    except (qcbp.FloatRangeError, qcbp.RankDeficientError, ArithmeticError):
        pass
    except ValueError as exc:
        assert str(exc).startswith("the operator norm bound of A is "), exc


def test_solver_complex_instance():
    i_unit = ComplexQ(Q(0), Q(1))
    inst = qcbp.Instance(
        A=RationalMatrix(((ComplexQ(Q(2), Q(0)), i_unit),)),
        y=RationalVector.from_items([1]),
        eps=Q(0),
    )
    rep = qcbp.solve_numeric(inst, Q(1, 10**5))
    assert rep.converged
    # optimum of min |x|_1 s.t. 2x_1 + i x_2 = 1 is x = (1/2, 0)
    assert abs(rep.objective_ub - Q(1, 2)) <= Q(1, 10**4)


def _well_posed(a, b) -> bool:
    """sigma_min >= sigma_max/4, and b at least |b|/8 from every m-1 column span."""
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[-1] < sv[0] / 4:
        return False
    for cols in itertools.combinations(range(a.shape[1]), a.shape[0] - 1):
        sub = a[:, cols]
        fit = sub @ np.linalg.lstsq(sub, b, rcond=None)[0]
        if np.linalg.norm(b - fit) <= np.linalg.norm(b) / 8:
            return False
    return True


def _lp_l1_optimum(rows, y) -> float:
    """min ||x||_1 s.t. Ax = y as the LP min 1^T (u + v) s.t. A u - A v = y, u, v >= 0, by HiGHS."""
    a = np.array(rows, dtype=float)
    lp = linprog(
        np.ones(2 * a.shape[1]), A_eq=np.hstack([a, -a]), b_eq=np.array(y, dtype=float),
        bounds=(0, None), method="highs",
    )
    assert lp.status == 0, lp.message
    return lp.fun


def test_solver_matches_highs_lp_on_real_instances():
    """eps = 0 real instances against the LP optimum from HiGHS."""
    rng = random.Random(21)
    for m in (2, 3):
        for n in range(m + 1, m + 4):
            for _ in range(3):
                while True:
                    rows = [
                        [Q(rng.randint(-24, 24), rng.randint(8, 24)) for _ in range(n)] for _ in range(m)
                    ]
                    y = [Q(rng.randint(-8, 8), 16) for _ in range(m)]
                    if _well_posed(np.array(rows, dtype=float), np.array(y, dtype=float)):
                        break
                lp = _lp_l1_optimum(rows, y)
                inst = qcbp.Instance(RationalMatrix.from_rows(rows), RationalVector.from_items(y), Q(0))
                rep = qcbp.solve_numeric(inst)
                assert rep.converged, (rows, y)
                assert float(rep.lower_bound) <= lp + 1e-9 * max(1.0, abs(lp)), (rows, y)
                assert lp <= float(rep.objective_ub) + 1e-5, (rows, y)


def test_solver_matches_highs_lp_on_ill_posed_instances():
    """Unfiltered eps = 0 real instances of mixed scale, where y may sit close
    to the span of fewer than m columns.  The first one has y nearly parallel
    to column 4; plain Chambolle-Pock iteration runs it past 200,000
    iterations, and several of the seeded ones take 10^4-10^5."""
    cases = [
        (
            [
                [3, Q(22, 19), Q(-4, 5), Q(-16, 21), Q(20, 19)],
                [Q(3, 5), Q(-16, 15), Q(11, 20), Q(-9, 4), Q(-1, 11)],
                [Q(2, 9), Q(15, 8), Q(-12, 17), Q(-3, 4), Q(22, 17)],
            ],
            [Q(1, 16), Q(3, 16), Q(1, 16)],
        )
    ]
    rng = random.Random(22)

    def entry():
        return Q(rng.randint(-24, 24), rng.randint(1, 24)) * Q(2) ** rng.randint(-4, 4)

    for i in range(21):
        m = 1 + i % 3
        n = m + 1 + rng.randint(0, 3)
        cases.append(([[entry() for _ in range(n)] for _ in range(m)], [entry() for _ in range(m)]))
    tol = Q(1, 10**6)
    for rows, y in cases:
        lp = _lp_l1_optimum(rows, y)
        inst = qcbp.Instance(RationalMatrix.from_rows(rows), RationalVector.from_items(y), Q(0))
        rep = qcbp.solve_numeric(inst, tol)
        assert rep.converged, (rows, y, rep.iterations)
        assert float(rep.lower_bound) <= lp + 1e-9 * max(1.0, abs(lp)), (rows, y)
        assert float(rep.objective_ub) - lp <= tol, (rows, y)


# --- float norm ------------------------------------------------------------------------

# entries k * 2**-30 for |k| < 2**53: every square and sum is a normal float
_MODERATE = st.lists(st.integers(-(2**53), 2**53), min_size=1, max_size=6).map(
    lambda ks: np.ldexp(np.array(ks, dtype=float), -30)
)


def _normal(v: float) -> bool:
    return sys.float_info.min <= v <= sys.float_info.max


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=6).map(np.array))
def test_float_norm_is_the_plain_root_where_every_square_is_normal(d):
    """Where every nonzero square of d and of d * 2**-e is normal and d.dot(d) is
    finite, the plain root and float_norm are exact scalings of one another."""
    e = math.frexp(float(np.abs(d).max()))[1]
    assume(all(v == 0 or _normal(v * v) for v in d.tolist() + np.ldexp(d, -e).tolist()))
    with np.errstate(over="ignore"):
        square = d.dot(d)
    assume(math.isfinite(square))
    assert mlp.float_norm(d) == math.sqrt(square)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_MODERATE, st.integers(520, 1000), st.sampled_from([1, -1]))
@example(np.array([8.42846930e-06, 679.833196]), 520, -1)  # a square is subnormal, the sum normal
@example(np.array([239.4236097, 478.84721946]), 520, -1)
def test_float_norm_commutes_with_power_of_two_scaling(d, k, sign):
    """Past the root of float64's range the square over- or underflows, but the norm scales exactly."""
    k *= sign
    scaled = np.ldexp(d, k)
    assume(all(v == 0 or _normal(abs(v)) for v in scaled.tolist()))
    assert mlp.float_norm(scaled) == math.ldexp(mlp.float_norm(d), k)


def test_float_norm_of_zero_inf_nan_and_past_the_range():
    assert mlp.float_norm(np.zeros(3)) == 0.0
    assert mlp.float_norm(np.array([])) == 0.0
    assert mlp.float_norm(np.array([3 * 2.0**-600, 4 * 2.0**-600])) == 5 * 2.0**-600
    assert mlp.float_norm(np.array([3 * 2.0**600, -4 * 2.0**600])) == 5 * 2.0**600
    assert mlp.float_norm(np.array([np.inf, 1.0])) == math.inf
    assert mlp.float_norm(np.array([-np.inf, 1e300])) == math.inf
    assert mlp.float_norm(np.array([2.0**1023, 2.0**1023])) == math.ldexp(math.sqrt(2.0), 1023)
    assert mlp.float_norm(np.array([1.7e308, 1.7e308])) == math.inf  # the norm itself is past the range
    assert math.isnan(mlp.float_norm(np.array([np.nan, 1.0])))
    assert math.isnan(mlp.float_norm(np.array([np.inf, np.nan])))


# --- polishing safety --------------------------------------------------------------------

def _near_degenerate():
    # the two vertices of the solution segment differ in l1 value by about 1.2e-4,
    # so plain iteration needs several batches to certify
    return single([1 + Q(1, 2**12), 1], eps=Q(1, 2))


def _returns(value):
    return lambda *args: value


@pytest.mark.parametrize(
    "primal, dual",
    [
        (_returns([0.0, 0.0]), None),  # residual 1 > eps
        (_returns([0.0, 0.5]), None),  # feasible, objective 1/2 > optimum
        (_returns([math.nan, math.nan]), _returns([math.nan])),
        (_returns([0.0, 0.5]), _returns([3e6])),  # |K^T z| ~ 3e6
    ],
    ids=["infeasible-x", "worse-x", "nan", "infeasible-z"],
)
def test_polishing_cannot_bypass_certification(monkeypatch, primal, dual):
    """The instance is real, so the candidates hold the real halves alone."""
    monkeypatch.setattr(qcbp, "_polish_primal", primal)
    if dual is not None:
        monkeypatch.setattr(qcbp, "_polish_dual", dual)
    inst = _near_degenerate()
    tol = Q(1, 10**6)
    rep = qcbp.solve_numeric(inst, tol)
    assert rep.converged
    assert l2_norm_sq(inst.A.matvec(rep.x) - inst.y) <= (inst.eps + tol) ** 2
    assert rep.objective_ub - rep.lower_bound <= tol
    assert rep.lower_bound <= qcbp.exact_solution_set(inst).l1_value()


def test_polishing_gives_no_candidate_on_dependent_columns():
    """Columns 0 and 1 of K are parallel.  z ranks column 1 first, whose
    candidate misses y's second row, then columns 1 and 0, which give a zero
    pivot: no primal candidate.  An x supported on columns 0 and 1 gives no
    dual one."""
    K = [[1.0, 2.0, 0.0], [0.0, 0.0, 1.0]]
    assert qcbp._lstsq([[2.0, 0.0], [1.0, 0.0]], [1.0, 1.0]) is None
    assert qcbp._polish_primal(K, [1.0, 1.0], 0.0, 1e-6, [1.0, 0.0], 3) is None
    assert qcbp._polish_dual(K, [0.5, 0.25, 0.0], [1.0, 0.0], 3) is None
    assert qcbp.solve_numeric(_near_degenerate()).converged


def _exact_lstsq(a: list[list[float]], b: list[float]) -> list[Q]:
    """The least-squares solution of a x = b, or with more columns than rows the
    least-norm one, in exact rationals from the normal equations."""
    a, b = [[Q(v) for v in row] for row in a], [Q(v) for v in b]
    at = [list(col) for col in zip(*a)]
    gram = lambda u: [[sum(p * q for p, q in zip(r, s)) for s in u] for r in u]
    if len(at) <= len(a):  # a^T a x = a^T b
        return _gauss(gram(at), [sum(p * q for p, q in zip(col, b)) for col in at])
    w = _gauss(gram(a), b)  # x = a^T w with a a^T w = b
    return [sum(p * q for p, q in zip(col, w)) for col in at]


def _gauss(m: list[list[Q]], v: list[Q]) -> list[Q]:
    """The solution of the nonsingular square system m x = v, by Gauss-Jordan."""
    rows = [row + [vi] for row, vi in zip(m, v)]
    for k in range(len(rows)):
        p = next(i for i in range(k, len(rows)) if rows[i][k] != 0)
        rows[k], rows[p] = rows[p], rows[k]
        rows[k] = [e / rows[k][k] for e in rows[k]]
        for i in range(len(rows)):
            if i != k and rows[i][k] != 0:
                rows[i] = [e - rows[i][k] * f for e, f in zip(rows[i], rows[k])]
    return [row[-1] for row in rows]


def _polishing_systems():
    """Seeded systems of every shape polishing forms, at m <= 3 and N <= 7: r x c
    real-half and 2r x 2c realified, columns in polishing's order (the support,
    then its imaginary partners), for r = 1..7 and c = 1..3.  The primal step
    solves the tall or square K_S (r = m >= c = k), the dual step K_S^T (r = the
    support, up to N, against c = m): up to 7 x 3 and 14 x 6 tall, and 1 x 3 and
    2 x 6 wide."""
    rng = random.Random(5303)
    for r, c, realified, trial in itertools.product(range(1, 8), range(1, 4), (False, True), range(4)):
        parts = [[complex(rng.uniform(-3, 3), rng.uniform(-3, 3) * realified) for _ in range(c)] for _ in range(r)]
        if realified:
            a = [[e.real for e in row] + [-e.imag for e in row] for row in parts]
            a += [[e.imag for e in row] + [e.real for e in row] for row in parts]
        else:
            a = [[e.real for e in row] for row in parts]
        yield a, [rng.uniform(-1, 1) for _ in a]


def test_lstsq_matches_the_exact_least_squares_solution():
    """``qcbp._lstsq`` against the exact solution of the normal equations: the
    float solution's largest error is within 1e-12 of the exact solution's
    largest entry, on each of 168 seeded systems."""
    count = 0
    for a, b in _polishing_systems():
        x = qcbp._lstsq([list(col) for col in zip(*a)], b)
        exact = _exact_lstsq(a, b)
        assert len(x) == len(exact)
        top = max(abs(v) for v in exact)
        assert max(abs(Q(v) - e) for v, e in zip(x, exact)) <= top * Q(1, 10**12), (a, b)
        count += 1
    assert count == 168


# --- brute force -----------------------------------------------------------------------

def test_brute_force_examples():
    bf = qcbp.brute_force_min(single([2, 1]), 8)
    assert abs(bf.value - Q(1, 2)) <= Q(1, 2**5)
    assert abs(bf.value - Q(1, 2)) <= bf.stated_tol

    bf2 = qcbp.brute_force_min(single([1, 1], eps=Q(1, 2)), 7)
    assert abs(bf2.value - Q(1, 2)) <= bf2.stated_tol

    bf3 = qcbp.brute_force_min(single([2, 1], eps=Q(1)), 7)
    assert bf3.value == 0
    assert all(e.re == 0 for e in bf3.argmin.entries)


def test_brute_force_reports_a_scan_with_no_feasible_point(monkeypatch):
    """The relaxed grid always holds a feasible point, so a scan that finds none is a bug."""
    monkeypatch.setattr(_kernels, "grid_scan", lambda *args: (-1, []))
    with pytest.raises(RuntimeError, match="relaxation bug"):
        qcbp.brute_force_min(single([2, 1]), 4)


def test_brute_force_argmin_relaxed_feasible():
    inst = single([Q(5, 3), Q(4, 3)], eps=Q(1, 4))
    bf = qcbp.brute_force_min(inst, 6)
    loosened = qcbp.Instance(A=inst.A, y=inst.y, eps=inst.eps + bf.relaxation)
    assert qcbp.feasible(loosened, bf.argmin)
    assert l1_norm_real(bf.argmin) == bf.value


def test_brute_force_vs_oracle_randomized():
    rng = random.Random(33)
    for _ in range(8):
        eps = rng.choice([Q(0), Q(1, 4), Q(1, 2)])
        inst = rand_instance(rng, rng.choice([2, 3]), eps)
        bf = qcbp.brute_force_min(inst, 6)
        oracle_value = qcbp.exact_solution_set(inst).l1_value()
        assert abs(bf.value - oracle_value) <= bf.stated_tol


def test_brute_force_rejections():
    with pytest.raises(qcbp.GridTooLargeError, match="N <= 4"):
        qcbp.brute_force_min(
            qcbp.Instance(
                A=RationalMatrix.from_rows([[1, 1, 1, 1, 1]]),
                y=RationalVector.from_items([1]),
                eps=Q(0),
            ),
            4,
        )
    with pytest.raises(qcbp.GridTooLargeError, match="grid_exp"):
        qcbp.brute_force_min(single([2, 1]), 9)
    with pytest.raises(ValueError, match="real"):
        qcbp.brute_force_min(
            qcbp.Instance(
                A=RationalMatrix(((ComplexQ(Q(1), Q(1)), ComplexQ(Q(1), Q(0))),)),
                y=RationalVector.from_items([1]),
                eps=Q(0),
            ),
            4,
        )
    # N and grid_exp in range, but the (2*256+1)**4 box is past the cap
    with pytest.raises(qcbp.GridTooLargeError, match="grid has 69257922561 points"):
        qcbp.brute_force_min(single([1, 1, 1, 1]), 8)
    # the solver's rank test and text, on the same instance
    for solve in (lambda inst: qcbp.brute_force_min(inst, 4), qcbp.solve_numeric):
        with pytest.raises(qcbp.RankDeficientError, match="^row rank 0 < m=1$"):
            solve(single([0, 0]))


def test_brute_force_exact_fallback_path():
    # denominators big enough to overflow the int64 budget force the object path
    inst = single([Q(1, 2**40) + 1, 1], eps=Q(1, 2))
    bf = qcbp.brute_force_min(inst, 4)
    oracle_value = qcbp.exact_solution_set(inst).l1_value()
    assert abs(bf.value - oracle_value) <= bf.stated_tol


BRUTE_FORCE_GOLDEN = json.loads((Path(__file__).parent / "golden" / "brute_force.json").read_text())


@pytest.mark.parametrize(
    "case", BRUTE_FORCE_GOLDEN, ids=[f"{','.join(c['row'])};eps={c['eps']};2^-{c['grid_exp']}" for c in BRUTE_FORCE_GOLDEN]
)
def test_brute_force_golden(case):
    """Exact outputs as recorded: the exact-nn seed 1 grids and the instances above."""
    inst = single([Q(a) for a in case["row"]], eps=Q(case["eps"]))
    bf = qcbp.brute_force_min(inst, case["grid_exp"])
    got = {
        "value": str(bf.value),
        "argmin": [str(e.re) for e in bf.argmin.entries],
        "box_radius": bf.box_radius,
        "relaxation": str(bf.relaxation),
        "stated_tol": None if bf.stated_tol is None else str(bf.stated_tol),
    }
    assert got == {key: case[key] for key in got}


BRUTE_FORCE_MULTIROW_GOLDEN = json.loads((Path(__file__).parent / "golden" / "brute_force_multirow.json").read_text())


@pytest.mark.parametrize("case", BRUTE_FORCE_MULTIROW_GOLDEN, ids=[c["note"] for c in BRUTE_FORCE_MULTIROW_GOLDEN])
def test_brute_force_multirow_golden(case):
    """Exact outputs as recorded on 2- and 3-row instances, whose box comes from the echelon form."""
    inst = qcbp.Instance(
        A=RationalMatrix.from_rows([[Q(v) for v in row] for row in case["rows"]]),
        y=RationalVector.from_items([Q(v) for v in case["y"]]),
        eps=Q(case["eps"]),
    )
    bf = qcbp.brute_force_min(inst, case["grid_exp"])
    got = {
        "value": str(bf.value),
        "argmin": [str(e.re) for e in bf.argmin.entries],
        "box_radius": bf.box_radius,
        "relaxation": str(bf.relaxation),
    }
    assert got == {key: case[key] for key in got}
    assert bf.stated_tol is None


@pytest.mark.parametrize("rows, y", [([[1, 1, 1], [2, 2, 2]], [1, 2]), ([[1, 2, 0], [0, 0, 0]], [1, 1])])
def test_brute_force_rank_deficient_rows(rows, y):
    inst = qcbp.Instance(A=RationalMatrix.from_rows(rows), y=RationalVector.from_items(y), eps=Q(0))
    with pytest.raises(qcbp.RankDeficientError, match="^row rank 1 < m=2$"):
        qcbp.brute_force_min(inst, 2)
    with pytest.raises(qcbp.RankDeficientError, match="^row rank 1 < m=2$"):
        qcbp.solve_numeric(inst)


def test_brute_force_rank_deficient_rows_with_zero_feasible():
    """x = 0 meets the constraint, so no particular solution is sought and the rank does not matter."""
    inst = qcbp.Instance(
        A=RationalMatrix.from_rows([[1, 1, 1], [2, 2, 2]]),
        y=RationalVector.from_items([Q(1, 4), 0]),
        eps=Q(1, 2),
    )
    bf = qcbp.brute_force_min(inst, 2)
    assert bf.value == 0
    assert bf.box_radius == 0


def test_brute_force_scales_the_instance_once(monkeypatch):
    """Brute force reads the solver's integer set-up: one ``_realified`` call, no scaling of its own."""
    calls = []
    realified = qcbp._realified

    def counted(A, y):
        calls.append((A, y))
        return realified(A, y)

    monkeypatch.setattr(qcbp, "_realified", counted)
    inst = qcbp.Instance(
        A=RationalMatrix.from_rows([[Q(1, 3), 2, 0], [0, Q(5, 7), 1]]),
        y=RationalVector.from_items([1, Q(1, 2)]),
        eps=Q(1, 8),
    )
    qcbp.brute_force_min(inst, 2)
    assert calls == [(inst.A, inst.y)]


def test_solver_input_guards():
    with pytest.raises(ValueError, match="max_iter"):
        qcbp.solve_numeric(single([2, 1]), Q(1, 100), max_iter=0)
    with pytest.raises(ValueError, match="tol"):
        qcbp.solve_numeric(single([2, 1]), Q(0))


def test_feasible_and_solution_simplex_reject_bad_arguments():
    with pytest.raises(ValueError, match="candidate has length"):
        qcbp.feasible(single([1, 2]), RationalVector.from_items([1, 2, 3]))
    with pytest.raises(ValueError, match="active set must be nonempty"):
        qcbp.SolutionSimplex(2, Q(1), (), Q(1))
    with pytest.raises(ValueError, match="inverse coefficient must be positive"):
        qcbp.SolutionSimplex(2, Q(1), (0,), Q(0))
