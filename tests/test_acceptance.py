"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Exact assertions carry
zero tolerance (rational arithmetic); float assertions state their tolerance
inline.  Each criterion also asserts its runtime budget.
"""

import random
import time
from fractions import Fraction as Q

import numpy as np

from qcbplab import creal as cr
from qcbplab import families as fam
from qcbplab import halting as ht
from qcbplab import mlp, qcbp
from qcbplab.rationals import l2_norm_sq
from embedding_reference import select_embedded
from gradient_oracle import numerical_gradients
from l1_reference import l1_norm_real

P = fam.FamilyParams()  # a=1, eps=1/2, N=2, m=1


def _rand_row_entry(rng):
    while True:
        q = Q(rng.randint(1, 48), rng.randint(1, 16))
        if Q(1, 2) <= q <= 3:
            return q


def _rand_single_row(rng, n, eps):
    return qcbp.Instance.single_row([_rand_row_entry(rng) for _ in range(n)], 1, eps)


EPS_CHOICES = [Q(0), Q(1, 4), Q(1, 2), Q(3, 4)]


def test_criterion_1_oracle_exactness():
    start = time.time()
    rng = random.Random(101)
    for _ in range(200):
        n = rng.choice([2, 3, 4])
        eps = rng.choice(EPS_CHOICES)
        inst = _rand_single_row(rng, n, eps)
        sel = qcbp.select(qcbp.exact_solution_set(inst))
        assert qcbp.feasible(inst, sel)  # exact, zero tolerance
        amax = max(e.re for e in inst.A.rows[0])
        assert l1_norm_real(sel) == (1 - eps) / amax  # exact, zero tolerance
    elapsed = time.time() - start
    assert elapsed < 5
    print(f"\nACCEPTANCE 1 (oracle exactness, 200 instances): PASS [{elapsed:.2f}s]")


def test_criterion_2_oracle_vs_brute_force():
    start = time.time()
    rng = random.Random(102)
    for _ in range(50):
        n = rng.choice([2, 3])
        eps = rng.choice(EPS_CHOICES)
        inst = _rand_single_row(rng, n, eps)
        bf = qcbp.brute_force_min(inst, 7)
        oracle_value = qcbp.exact_solution_set(inst).l1_value()
        assert abs(bf.value - oracle_value) <= bf.stated_tol  # its own stated tolerance
    elapsed = time.time() - start
    assert elapsed < 60
    print(f"ACCEPTANCE 2 (oracle vs brute force, 50 instances): PASS [{elapsed:.2f}s]")


def test_criterion_3_discontinuity_demonstration():
    start = time.time()
    cert = fam.separation_certificate(P)
    for n in range(1, 31):
        # inputs collapse at exactly 2**-n
        assert fam.input_distance(n, P) == Q(1, 2**n)  # checks family 1, then family 2
        # output pair distance is exactly sqrt(2)*(1/2)/(1+2**-n): asserted on squares
        expected_sq = 2 * (Q(1, 2) / (1 + Q(1, 2**n))) ** 2
        direct = l2_norm_sq(fam.perturbed_solution(1, n, P) - fam.perturbed_solution(2, n, P))
        assert direct == expected_sq  # zero tolerance, exact squared comparison
        assert direct > cert.bound**2  # separated above the certified dyadic
    assert cert.bound >= Q(47, 100)
    assert fam.pair_distance_sq(1, P) == Q(2, 9)  # attained at n=1, sqrt = 0.4714...
    elapsed = time.time() - start
    assert elapsed < 1
    print(f"ACCEPTANCE 3 (discontinuity, n=1..30, kappa={float(cert.bound):.4f}): PASS [{elapsed:.2f}s]")


def test_criterion_4_embedding_equivalence():
    # the padded core selection is checked against the embedded instance
    # itself: exact feasibility, the core's exact l1 value, and the certified
    # solver's duality sandwich, which never sees the core
    start = time.time()
    rng = random.Random(104)
    tol = Q(1, 10**6)
    for _ in range(50):
        m, width = rng.choice([(2, 2), (3, 3)])
        eps = rng.choice(EPS_CHOICES)
        inst = _rand_single_row(rng, width, eps)
        emb = qcbp.embed(inst, m)
        assert (emb.m, emb.n) == (m, width + m - 1)
        padded = select_embedded(inst, m)
        assert qcbp.feasible(emb, padded)  # exact, zero tolerance
        l1 = l1_norm_real(padded)
        assert l1 == qcbp.exact_solution_set(inst).l1_value()  # exact, zero tolerance
        rep = qcbp.solve_numeric(emb, tol)
        assert rep.converged
        assert rep.lower_bound <= l1 <= rep.lower_bound + tol  # certified, rational
    elapsed = time.time() - start
    assert elapsed < 5
    print(f"ACCEPTANCE 4 (embedding equivalence, 50 instances): PASS [{elapsed:.2f}s]")


def test_criterion_5_solver_consistency():
    start = time.time()
    tol = Q(1, 10**6)
    for n in range(1, 31):
        for which in (1, 2):
            inst = fam.perturbed_instance(which, n, P)
            rep = qcbp.solve_numeric(inst, tol)
            oracle_value = (1 - P.eps) / (P.a + Q(1, 2**n))
            assert rep.converged
            assert abs(rep.objective_ub - oracle_value) <= Q(1, 10**5)
            assert rep.residual_ub <= P.eps + tol  # certified rational residual bound
    elapsed = time.time() - start
    assert elapsed < 30
    print(f"ACCEPTANCE 5 (solver consistency, 60 solves): PASS [{elapsed:.2f}s]")


def _rand_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        q = Q(rng.randint(-12, 12), rng.randint(1, 12))
        return cr.from_rational(q), q
    op = rng.choice(["add", "sub", "mul", "div", "max", "min", "abs"])
    x, xv = _rand_tree(rng, depth - 1)
    if op == "abs":
        return cr.abs_(x), abs(xv)
    y, yv = _rand_tree(rng, depth - 1)
    if op == "div":
        if abs(yv) < Q(1, 4):
            return cr.add(x, y), xv + yv
        return cr.div(x, y, abs(yv)), xv / yv
    fn = {"add": cr.add, "sub": cr.sub, "mul": cr.mul, "max": cr.max_, "min": cr.min_}[op]
    val = {"add": xv + yv, "sub": xv - yv, "mul": xv * yv, "max": max(xv, yv), "min": min(xv, yv)}[op]
    return fn(x, y), val


def test_criterion_6_computable_real_layer():
    start = time.time()
    rng = random.Random(106)
    for _ in range(1000):
        node, exact = _rand_tree(rng, 3)
        assert abs(node.approx(40) - exact) <= Q(1, 2**40)
    # elementary functions against higher-precision self-evaluation
    for _ in range(40):
        q = Q(rng.randint(1, 64), rng.randint(1, 16))
        for node in (
            cr.sqrt_c(cr.from_rational(q)),
            cr.exp_c(cr.from_rational(q - 2)),
            cr.log_c(cr.from_rational(q), Q(1, 16)),
        ):
            lo, hi = node.approx(40), node.approx(80)
            # within 2**-40 of the k=80 value (which carries its own 2**-80 width)
            assert abs(lo - hi) <= Q(1, 2**40) + Q(1, 2**80)
    elapsed = time.time() - start
    assert elapsed < 30
    print(f"ACCEPTANCE 6 (computable reals, 1000 expressions + elementary): PASS [{elapsed:.2f}s]")


def test_criterion_7_halting_gadget():
    start = time.time()
    machine = ht.load_builtin("even")
    cert = fam.separation_certificate(P)
    for n in range(51):
        d = ht.decide_membership(machine, n, 10**4, cert)
        assert (d.status == ht.IN) == (n % 2 == 0)  # ground-truth parity
    # r stabilization invariants, exact
    q4 = ht.run_bounded(machine, 4, 10**4).steps_to_accept
    for j in range(q4, q4 + 30):
        assert ht.run_bounded(machine, 4, j).steps_executed == q4
    for j in range(0, 40):
        assert ht.run_bounded(machine, 5, j).steps_executed == j
    # encoded-instance convergence, exact
    limit = ht.encoded_instance(machine, 4, q4, P)
    for j in range(0, q4 + 5):
        inst = ht.encoded_instance(machine, 4, j, P)
        gap_sq = Q(0)
        for col in range(inst.n):
            gap_sq += (inst.A.entry(0, col) - limit.A.entry(0, col)).abs_sq()
        assert gap_sq <= Q(1, 4 ** min(j, q4))
    elapsed = time.time() - start
    assert elapsed < 10
    print(f"ACCEPTANCE 7 (halting gadget, n<=50 at budget 10^4): PASS [{elapsed:.2f}s]")


def test_criterion_8_gradient_correctness():
    start = time.time()
    rng = np.random.default_rng(108)
    checked = 0
    rel_max = 0.0
    while checked < 1000:
        depth = int(rng.integers(2, 4))
        widths = tuple(int(rng.integers(2, 17)) for _ in range(depth + 1))
        net = mlp.init_mlp(widths, seed=int(rng.integers(10**6)))
        xs = rng.standard_normal((4, widths[0]))
        ts = rng.standard_normal((4, widths[-1]))
        _, gw, gb = mlp.loss_and_grads(net, xs, ts)
        nw, nb = numerical_gradients(net, xs, ts)
        for a, b in zip(gw + gb, nw + nb):
            denom = np.maximum(np.abs(a) + np.abs(b), 1e-6)
            rel = np.abs(a - b) / denom
            rel_max = max(rel_max, float(rel.max()))
            checked += a.size
    assert rel_max < 1e-4
    elapsed = time.time() - start
    assert elapsed < 30
    print(
        f"ACCEPTANCE 8 (gradient check, {checked} coordinates, max rel err {rel_max:.2e}): "
        f"PASS [{elapsed:.2f}s]"
    )


def test_criterion_9_continuity_conflict_bound():
    start = time.time()
    cert = fam.separation_certificate(P)
    data = mlp.gen_training_set(P, 1, 10, seed=109)
    net = mlp.init_mlp((6, 64, 64, 4), seed=109)
    net, trace = mlp.train(net, data.inputs, data.targets, steps=4000, lr=0.02)
    report = mlp.instability_eval(net, P, 30, cert)
    kappa = float(cert.bound)
    for row in report.rows:
        assert row.bound_lhs >= kappa - 1e-6  # e1 + e2 + L*gap >= kappa - slack
    tail = report.rows[29]
    assert tail.n == 30
    assert max(tail.err_1, tail.err_2) >= (kappa - tail.lip_slack) / 2
    elapsed = time.time() - start
    assert elapsed < 300
    print(
        f"ACCEPTANCE 9 (conflict bound after training, loss {trace[-1]:.4f}, "
        f"L_hat {report.lipschitz_bound:.1f}, worst margin "
        f"{min(r.bound_lhs for r in report.rows) - kappa:+.4f}): PASS [{elapsed:.2f}s]"
    )
