"""The workloads: seeded operation lists, their checks and counters.

Each workload turns a seed into a fixed list of :class:`Op`.  ``run`` is the
timed call into the package; ``check`` compares its output with an
independent reference from :mod:`oracles` after timing ends; ``count`` reads
the hardware-independent work counters off the output.  Inputs are built
before timing starts, so the program receives only generated values.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction as Q
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracles

TOL = Q(1, 10**6)  # solver tolerance of the CLI and of the acceptance tests
A, EPS = Q(1), Q(1, 2)  # the FamilyParams() defaults used by the CLI


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]  # None when the output is verified
    count: Callable[[Any], dict[str, int]] = field(default=lambda out: {})
    # bytes that determine the output: equal digests share one verdict
    digest: Callable[[Any], bytes] = field(default=lambda out: repr(out).encode())


@dataclass(frozen=True)
class Workload:
    name: str
    modules: tuple[str, ...]  # what set-up imports before its warm-up operation
    build: Callable[[int, Path], list[Op]]
    warmup: Callable[[int, Path], Op]
    # seconds one pass, its set-up probes and its share of verification took
    # at the commit that added the benchmark; fixes the number of passes a run
    # makes (see run.py)
    pass_s: float


def aggregate_counters(per_op: list[dict[str, int]]) -> dict[str, int]:
    """Sum counters over a pass; keys ending in ``_max`` take the maximum."""
    total: dict[str, int] = {}
    for counts in per_op:
        for key, value in counts.items():
            if key.endswith("_max"):
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value
    return total


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# --- certified solves ------------------------------------------------------------

def _instance(rows, y, eps):
    from qcbplab import qcbp
    from qcbplab.rationals import ComplexQ, RationalMatrix, RationalVector

    return qcbp.Instance(
        A=RationalMatrix(tuple(tuple(ComplexQ(re, im) for re, im in row) for row in rows)),
        y=RationalVector(tuple(ComplexQ(re, im) for re, im in y)),
        eps=eps,
    )


def _check_certified(report, rows, y, eps) -> str | None:
    """Convergence, exact feasibility of ``report.x`` and the certified gap."""
    if not report.converged:
        return f"no convergence after {report.iterations} iterations"
    x = [(e.re, e.im) for e in report.x.entries]
    if oracles.residual_sq(rows, y, x) > (eps + TOL) ** 2:
        return "exact residual of x exceeds eps + tol"
    if report.objective_ub - report.lower_bound > TOL:
        return "certified gap objective_ub - lower_bound exceeds tol"
    return None


def _solve_op(label, rows, y, eps, extra_check=None) -> Op:
    from qcbplab import qcbp

    inst = _instance(rows, y, eps)

    def check(report):
        return _check_certified(report, rows, y, eps) or (extra_check and extra_check(report))

    return Op(
        label,
        lambda: qcbp.solve_numeric(inst, TOL),
        check,
        lambda report: {"pd_iterations": report.iterations},
        lambda report: json.dumps(report.to_json(), sort_keys=True).encode(),
    )


def _family_op(which: int, n: int) -> Op:
    row = [A, A]
    row[which - 1] += Q(1, 2**n)
    optimum = (1 - EPS) / (A + Q(1, 2**n))

    def closed_form(report):
        if report.lower_bound > optimum:
            return "certified lower bound exceeds the closed-form optimum"
        if abs(report.objective_ub - optimum) > Q(1, 10**5):
            return "objective misses (1-eps)/(a+2^-n) by more than 1e-5"
        return None

    return _solve_op(
        f"family{which} n={n}", [[(v, Q(0)) for v in row]], [(Q(1), Q(0))], EPS, closed_form
    )


def families_build(seed: int, workdir: Path) -> list[Op]:
    cases = [(which, n) for n in range(1, 51) for which in (1, 2)]
    _rng("families-solve", seed).shuffle(cases)
    return [_family_op(which, n) for which, n in cases]


def families_warmup(seed: int, workdir: Path) -> Op:
    return _family_op(1, 1)


def _generic_case(rng: random.Random, m: int, n: int, cplx: bool):
    # real and imaginary parts up to 3 in A and 1/2 in y: tol is absolute, so fix the scale
    def entry():
        im = Q(rng.randint(-24, 24), rng.randint(8, 24)) if cplx else Q(0)
        return Q(rng.randint(-24, 24), rng.randint(8, 24)), im

    def measurement():
        im = Q(rng.randint(-8, 8), 16) if cplx else Q(0)
        return Q(rng.randint(-8, 8), 16), im

    while True:
        rows = [[entry() for _ in range(n)] for _ in range(m)]
        y = [measurement() for _ in range(m)]
        a = np.array([[complex(re, im) for re, im in row] for row in rows])
        b = np.array([complex(re, im) for re, im in y])
        if _well_posed(a, b):
            return rows, y


def _well_posed(a, b) -> bool:
    """Full row rank with room to spare, and y away from every m-1 column span.

    The second condition keeps the l1 problem away from degeneracy, where the
    primal-dual method can need more than ``max_iter`` iterations: the workload
    is about shapes and certification, and the slow band is families-solve's.
    """
    sv = np.linalg.svd(a, compute_uv=False)
    norm_b = np.linalg.norm(b)
    if sv[-1] < sv[0] / 4 or norm_b < 1 / 8:
        return False
    for cols in itertools.combinations(range(a.shape[1]), a.shape[0] - 1):
        sub = a[:, cols]
        fit = sub @ np.linalg.lstsq(sub, b, rcond=None)[0] if cols else 0
        if np.linalg.norm(b - fit) < norm_b / 8:
            return False
    return True


def _generic_op(label, rows, y, eps) -> Op:
    real_lp = eps == 0 and all(im == 0 for row in rows for _, im in row) and all(
        im == 0 for _, im in y
    )
    lp_cache: list[float] = []

    def below_lp(report):
        if not real_lp:
            return None
        if not lp_cache:
            lp_cache.append(oracles.lp_l1_optimum(rows, y))
        lp = lp_cache[0]
        if float(report.lower_bound) > lp + 1e-9 * max(1.0, abs(lp)):
            return f"certified lower bound {float(report.lower_bound)} above LP optimum {lp}"
        return None

    return _solve_op(label, rows, y, eps, below_lp)


def generic_build(seed: int, workdir: Path) -> list[Op]:
    rng = _rng("generic-solve", seed)
    ops = []
    # every (m, N, eps) cell gets 16 instances, 4 of them complex: a quarter
    for m in (1, 2, 3):
        for n in range(m + 1, m + 5):
            for eps in (Q(0), Q(1, 8), Q(1, 2)):
                for i in range(16):
                    rows, y = _generic_case(rng, m, n, cplx=i < 4)
                    ops.append(_generic_op(f"m={m} N={n} eps={eps} #{i}", rows, y, eps))
    rng.shuffle(ops)
    return ops


def generic_warmup(seed: int, workdir: Path) -> Op:
    rng = _rng("generic-solve-warmup", seed)
    rows, y = _generic_case(rng, 2, 4, cplx=False)
    return _generic_op("warm-up", rows, y, Q(1, 8))


# --- exact paths -----------------------------------------------------------------

def _cli(argv: list[str]) -> tuple[int, str]:
    from qcbplab import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _cli_bytes(out) -> dict[str, int]:
    return {"cli_bytes_out": len(out[1])}


def _with_tie(rng: random.Random, row: list[Q]) -> list[Q]:
    if rng.random() < 1 / 3:  # a tied maximum gives a multi-vertex solution set
        row[rng.randrange(len(row))] = max(row)
    return row


def _oracle_cli_op(row: list[Q], eps: Q) -> Op:
    argv = ["oracle", "--A", ",".join(str(a) for a in row), "--eps", str(eps)]
    optimum, active = oracles.single_row_optimum(row, eps)

    def check(out):
        code, text = out
        if code != 0:
            return f"exit code {code}"
        got = json.loads(text)
        x = [Q(v) for v in got["x"]]
        expect_x = [optimum if j == active[0] else Q(0) for j in range(len(row))]
        if got["active"] != [j + 1 for j in active]:
            return "active set differs from the maximisers of the row"
        if Q(got["l1"]) != optimum or x != expect_x:
            return "l1 value or selected solution differs from (1-eps)/max(a)"
        return None

    return Op("cli " + " ".join(argv), lambda: _cli(argv), check, _cli_bytes)


def _cross_validation_op(row: list[Q], eps: Q, grid_exp: int) -> Op:
    from qcbplab import qcbp

    inst = qcbp.Instance.single_row(row, 1, eps)
    optimum, active = oracles.single_row_optimum(row, eps)

    def run():
        return qcbp.exact_solution_set(inst), qcbp.brute_force_min(inst, grid_exp)

    def check(out):
        simplex, bf = out
        if simplex.l1_value() != optimum or simplex.active != active:
            return "oracle differs from the closed form"
        if abs(bf.value - optimum) > bf.stated_tol:
            return "grid minimum outside its stated tolerance of the optimum"
        p = [(e.re, e.im) for e in bf.argmin.entries]
        if sum(abs(re) for re, _ in p) != bf.value:
            return "grid argmin does not attain the reported value"
        if oracles.residual_sq([[(a, Q(0)) for a in row]], [(Q(1), Q(0))], p) > (
            eps + bf.relaxation
        ) ** 2:
            return "grid argmin infeasible for the relaxed constraint"
        return None

    def count(out):
        return {"grid_box_points": (2 * out[1].box_radius + 1) ** len(row)}

    return Op(f"oracle vs grid {row} eps={eps} 2^-{grid_exp}", run, check, count)


# primes near 2**16 and 2**17: three such denominators push the scan past int64
_BIG_PRIMES = (65519, 65521, 65537, 131059, 131063, 131071)


NEVER_MACHINE = "init c0\naccept yes\n" + "".join(f"c0 {s} -> c0 {s} R\n" for s in "01_")


def _threshold_machine(limit: int) -> str:
    """Accepts n iff n <= limit, after n + 1 steps; walks right forever otherwise."""
    lines = ["init c0", "accept yes"]
    for i in range(limit + 1):
        nxt = f"c{i + 1}" if i < limit else "loop"
        lines += [f"c{i} 1 -> {nxt} 1 R", f"c{i} 0 -> c{i} 0 R", f"c{i} _ -> yes _ S"]
    lines += [f"loop {s} -> loop {s} R" for s in "01_"]
    return "\n".join(lines) + "\n"


def _halting_op(machine: str, accepts: Callable[[int], bool], n_max: int, budget: int) -> Op:
    argv = ["halting", "--machine", machine, "--n-max", str(n_max), "--j-budget", str(budget)]
    star = (1 - EPS) / A  # the selected solution of the limit instance

    def rows(text):
        lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        return [ln.split(",") for ln in lines[1:]]

    def check(out):
        code, text = out
        if code != 0:
            return f"exit code {code}"
        table = rows(text)
        if [int(r[0]) for r in table] != list(range(n_max + 1)):
            return "rows do not cover 0..n_max"
        for n, q, decision, dist_sq, *_ in table:
            n = int(n)
            if accepts(n) and n + 1 <= budget:
                # accepted at step q = n + 1, so encoded at family index q + 1
                x2 = (1 - EPS) / (A + Q(1, 2 ** (n + 2)))
                if (decision, q, Q(dist_sq)) != ("IN", str(n + 1), x2 * x2 + star * star):
                    return f"n={n}: expected IN at step {n + 1} with the exact distance"
            elif (decision, q) != ("NOT_HALTED_AT_BUDGET", "-"):
                return f"n={n}: expected NOT_HALTED_AT_BUDGET"
        return None

    def count(out):
        steps = sum(int(q) if d == "IN" else budget for _, q, d, *_ in rows(out[1]))
        return {"machine_steps": steps, **_cli_bytes(out)}

    return Op("cli " + " ".join(argv), lambda: _cli(argv), check, count)


def _creal_op(func: str, arg: Q, k: int) -> Op:
    from qcbplab import creal

    witness = arg / 2 if func == "log" else None
    ref: list = []

    def check(value):
        if not ref:
            ref.append(oracles.creal_reference(func, arg))
        return None if oracles.creal_within(value, ref[0], k) else f"{func}({arg}) off by > 2^-{k}"

    def count(value):
        return {"creal_bits_max": max(value.numerator.bit_length(), value.denominator.bit_length())}

    # a fresh CReal per call: approximations are memoised per object
    return Op(
        f"creal {func}({arg}) k={k}",
        lambda: creal.elementary(creal.from_rational(arg), func, witness).approx(k),
        check,
        count,
        lambda value: f"{value.numerator:x}/{value.denominator:x}".encode(),
    )


def _exact_ops(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for _ in range(40):
        row = [Q(rng.randint(1, 32), rng.randint(1, 16)) for _ in range(rng.randint(2, 6))]
        ops.append(_oracle_cli_op(_with_tie(rng, row), Q(rng.randint(0, 15), 16)))
    for n in (2, 3) * 12:
        # max(a) = 1 fixes the box radius 1/max(a), so every grid has the same size
        row = [Q(rng.randint(8, 16), 16) for _ in range(n)]
        row[rng.randrange(n)] = Q(1)
        eps = rng.choice((Q(0), Q(1, 4), Q(1, 3), Q(1, 2)))
        ops.append(_cross_validation_op(_with_tie(rng, row), eps, 6 if n == 2 else 4))
    # the N=3, K=256 box of the kernel timing: 513**3 points
    ops.append(_cross_validation_op([Q(1, 2)] * 3, Q(0), 7))
    for _ in range(4):  # big-int scan path
        row = [Q(rng.randint(q // 2, q), q) for q in rng.sample(_BIG_PRIMES, 3)]
        ops.append(_cross_validation_op(row, rng.choice((Q(0), Q(1, 3))), 3))

    limit = 6  # fixed, so the machine steps do not depend on the seed
    threshold = workdir / f"threshold{limit}.tm"
    threshold.write_text(_threshold_machine(limit), encoding="ascii")
    never = workdir / "never.tm"
    never.write_text(NEVER_MACHINE, encoding="ascii")
    for budget in (10**4, 10**5):
        ops.append(_halting_op("builtin:even", lambda n: n % 2 == 0, 40, budget))
        ops.append(_halting_op(str(threshold), lambda n: n <= limit, 12, budget))
        ops.append(_halting_op(str(never), lambda n: False, 3, budget))

    for k in (40, 200):
        ops.append(_creal_op("exp", Q(193, 3), k))  # exp(64 + 1/3): the largest numerators
        # exp's cost grows with |x|, so each magnitude gets one argument
        for magnitude in (1, 4, 8, 16, 32):
            x = Q(rng.randint(7 * magnitude, 8 * magnitude), 8) * rng.choice((1, -1))
            ops.append(_creal_op("exp", x, k))
            ops.append(_creal_op("sqrt", Q(rng.randint(1, 10**6), rng.randint(1, 1000)), k))
            ops.append(_creal_op("log", Q(rng.randint(1, 10**6), rng.randint(1, 100)), k))
    return ops


# --- network conflict ------------------------------------------------------------

TRAIN_STEPS = 300
WIDTHS = ((6, 16, 16, 4), (6, 32, 32, 4), (6, 64, 64, 4))


def _certificate():
    from qcbplab import families

    # an input of every operation, like the training data's parameters
    return families.separation_certificate(families.FamilyParams(), 30)


def _nn_op(widths, net_seed: int, n_hi: int, noise: Q, cert) -> Op:
    from qcbplab import mlp

    p = cert.params

    def run():
        # the steps of `qcbplab nn`, with a shorter training run
        data = mlp.gen_training_set(p, 1, n_hi, noise_bound=noise, seed=net_seed)
        net = mlp.init_mlp(widths, seed=net_seed)
        net, trace = mlp.train(net, data.inputs, data.targets, TRAIN_STEPS, 0.02, seed=net_seed)
        return net, trace, mlp.instability_eval(net, p, 30, cert)

    def check(out):
        net, trace, report = out
        if len(trace) != TRAIN_STEPS:
            return "training stopped early"
        if not report.conflict_holds():
            return "conflict bound e1 + e2 + L*gap >= kappa violated"
        spectral = float(np.prod([np.linalg.norm(w, 2) for w in net.weights]))
        if report.lipschitz_bound < spectral:
            return f"Lipschitz bound {report.lipschitz_bound} below spectral product {spectral}"
        return None

    def digest(out):
        net, trace, report = out
        arrays = b"".join(a.tobytes() for a in net.weights + net.biases)
        return arrays + repr((trace, report.lipschitz_bound, report.rows)).encode()

    return Op(
        f"nn {widths} seed={net_seed} n_hi={n_hi} noise={noise}",
        run,
        check,
        lambda out: {"train_steps": len(out[1])},
        digest,
    )


def _nn_ops(rng: random.Random) -> list[Op]:
    # a fixed share of each width: the width sets an operation's cost
    widths = [WIDTHS[i % len(WIDTHS)] for i in range(100)]
    rng.shuffle(widths)
    cert = _certificate()
    return [
        _nn_op(
            w, rng.randrange(2**31), rng.randint(6, 12), rng.choice((Q(0), Q(1, 16), Q(1, 8))), cert
        )
        for w in widths
    ]


def exact_nn_build(seed: int, workdir: Path) -> list[Op]:
    rng = _rng("exact-nn", seed)
    ops = _exact_ops(rng, workdir) + _nn_ops(rng)
    rng.shuffle(ops)
    return ops


def exact_nn_warmup(seed: int, workdir: Path) -> Op:
    rng = _rng("exact-nn-warmup", seed)
    return _oracle_cli_op([Q(rng.randint(1, 32), rng.randint(1, 16)) for _ in range(3)], Q(1, 4))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("families-solve", ("qcbplab.qcbp", "qcbplab.families"), families_build, families_warmup, 6.4),
        Workload("generic-solve", ("qcbplab.qcbp",), generic_build, generic_warmup, 9.6),
        Workload("exact-nn", ("qcbplab.cli", "qcbplab.creal"), exact_nn_build, exact_nn_warmup, 9.3),
    )
}
