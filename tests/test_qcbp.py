"""Oracle, solver and brute-force tests for the QCBP core."""

import itertools
import json
import random
from fractions import Fraction as Q
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from qcbplab import qcbp
from qcbplab.rationals import (
    ComplexQ,
    RationalMatrix,
    RationalVector,
    l1_norm_real,
    l2_norm_sq,
)


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


def test_oracle_precondition_messages():
    with pytest.raises(qcbp.OracleDomainError, match="single row"):
        qcbp.exact_solution_set(
            qcbp.Instance(
                A=RationalMatrix.from_rows([[2, 1, 0], [0, 0, 1]]),
                y=RationalVector.from_items([1, 0]),
                eps=Q(0),
            )
        )
    with pytest.raises(qcbp.OracleDomainError, match="y = 1"):
        qcbp.exact_solution_set(single([2, 1], y=2))
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
    emb = qcbp.embed(inst, 2, 3)
    assert [[e.re for e in row] for row in emb.A.rows] == [[2, 1, 0], [0, 0, 1]]
    assert [e.re for e in emb.y.entries] == [1, 0]
    assert qcbp.embed(inst, 1, 2) is inst


def test_embed_dimension_check():
    with pytest.raises(ValueError, match="mismatch"):
        qcbp.embed(single([2, 1]), 3, 5)
    with pytest.raises(ValueError, match="target_m < target_n"):
        qcbp.embed(single([2, 1]), 3, 2)


def test_embedded_selection_matches_original():
    rng = random.Random(32)
    for _ in range(25):
        inst = rand_instance(rng, 2, Q(1, 4))
        emb = qcbp.embed(inst, 2, 3)
        padded = qcbp.select_embedded(emb)
        assert qcbp.restrict(padded, 2) == qcbp.select(qcbp.exact_solution_set(inst))
        assert all(e.re == 0 for e in padded.entries[2:])
        assert qcbp.feasible(emb, padded)


def test_split_embedded_rejects_non_block():
    bad = qcbp.Instance(
        A=RationalMatrix.from_rows([[2, 1, 0], [0, 1, 1]]),
        y=RationalVector.from_items([1, 0]),
        eps=Q(0),
    )
    with pytest.raises(ValueError, match="identity"):
        qcbp.split_embedded(bad)


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
    rep2 = qcbp.solve_numeric(qcbp.embed(single([2, 1]), 2, 3), Q(1, 10**6))
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
        (_returns(np.zeros(4)), None),  # residual 1 > eps
        (_returns(np.array([0.0, 0.5, 0.0, 0.0])), None),  # feasible, objective 1/2 > optimum
        (_returns(np.full(4, np.nan)), _returns(np.full(2, np.nan))),
        (_returns(np.array([0.0, 0.5, 0.0, 0.0])), _returns(np.array([-1e6, 3e6]))),  # |K^T z| ~ 3e6
    ],
    ids=["infeasible-x", "worse-x", "nan", "infeasible-z"],
)
def test_polishing_cannot_bypass_certification(monkeypatch, primal, dual):
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


def test_polishing_treats_linalg_errors_as_no_candidate(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "lstsq", fail)
    K = np.array([[2.0, 1.0, 0.0, 0.0], [0.0, 0.0, 2.0, 1.0]])
    assert qcbp._polish_primal(K, np.array([1.0, 0.0]), 0.0, 1e-6, np.array([-0.5, 0.0]), 2) is None
    assert qcbp._polish_dual(K, np.array([0.5, 0.0, 0.0, 0.0]), np.zeros(2), 2) is None
    assert qcbp.solve_numeric(_near_degenerate()).converged


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
    with pytest.raises(qcbp.RankDeficientError, match="rank-deficient"):
        qcbp.brute_force_min(inst, 2)


def test_solver_input_guards():
    with pytest.raises(ValueError, match="max_iter"):
        qcbp.solve_numeric(single([2, 1]), Q(1, 100), max_iter=0)
    with pytest.raises(ValueError, match="tol"):
        qcbp.solve_numeric(single([2, 1]), Q(0))
