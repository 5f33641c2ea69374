"""Small ReLU network with manual backprop, trained on oracle-generated data.

The network maps a flattened (matrix, measurement) pair to a flattened
solution vector.  Training data comes from the exact single-row oracle, so
every target is a certified minimizer.  The point of the module is the
instability evaluation: a trained (or untrained) network is Lipschitz with a
computable upper bound L, the two perturbation families collapse onto each
other in input space at rate 2**-n while their exact solutions stay a
certified distance apart, so the triangle inequality forces

    err_1(n) + err_2(n) + L * gap(n) >= separation bound

for every n, whatever the weights are.  The evaluation reports exactly this
inequality, which is the assertable finite form of the reconstruction
barrier; the asymptotic statement itself is not a finite experiment and is
not claimed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction as Q

import numpy as np

from qcbplab import families, qcbp
from qcbplab.rationals import RationalVector


class TrainingDivergence(RuntimeError):
    """Loss became non-finite; carries the step index and last finite loss."""

    def __init__(self, step: int, last_loss: float):
        super().__init__(f"training diverged at step {step}; last finite loss {last_loss}")
        self.step = step
        self.last_loss = last_loss


# --- flattening -----------------------------------------------------------------

def realify_instance(inst: qcbp.Instance) -> np.ndarray:
    """Deterministic flattening: A real parts row-major, A imaginary parts
    row-major, y real parts, y imaginary parts.  Dyadic entries are exact."""
    parts: list[float] = []
    parts += [float(inst.A.entry(i, j).re) for i in range(inst.m) for j in range(inst.n)]
    parts += [float(inst.A.entry(i, j).im) for i in range(inst.m) for j in range(inst.n)]
    parts += [float(e.re) for e in inst.y.entries]
    parts += [float(e.im) for e in inst.y.entries]
    return np.array(parts, dtype=np.float64)


def realify_vector(x: RationalVector) -> np.ndarray:
    """Flatten a solution vector: real parts then imaginary parts."""
    return np.array(
        [float(e.re) for e in x.entries] + [float(e.im) for e in x.entries],
        dtype=np.float64,
    )


def input_width(m: int, n: int) -> int:
    return 2 * (m * n + m)


def output_width(n: int) -> int:
    return 2 * n


# --- the network ------------------------------------------------------------------

@dataclass
class MLP:
    """Fully connected ReLU network; final layer affine with no activation.

    The weights and biases are views into one float64 buffer ``theta`` (each
    weight matrix followed by its bias, layer by layer), so a training step
    updates and checks every parameter with one numpy call each.  The
    constructor copies the given arrays into a fresh buffer.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    theta: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        theta, weights, biases = _layer_buffer(self.weights, self.biases)
        for dst, src in zip(weights + biases, self.weights + self.biases):
            dst[...] = src
        self.theta, self.weights, self.biases = theta, weights, biases

    @property
    def depth(self) -> int:
        return len(self.weights)

    @property
    def widths(self) -> tuple[int, ...]:
        return (self.weights[0].shape[1],) + tuple(w.shape[0] for w in self.weights)


def _layer_buffer(weights, biases):
    """An uninitialised float64 buffer and its per-layer views, shaped like
    ``weights`` and ``biases``, each weight matrix followed by its bias."""
    buf = np.empty(sum(w.size + b.size for w, b in zip(weights, biases)))
    views_w, views_b, off = [], [], 0
    for w, b in zip(weights, biases):
        views_w.append(buf[off : off + w.size].reshape(w.shape))
        off += w.size
        views_b.append(buf[off : off + b.size].reshape(b.shape))
        off += b.size
    return buf, views_w, views_b


def init_mlp(widths: tuple[int, ...], seed: int) -> MLP:
    if any(w < 1 for w in widths):
        raise ValueError(f"layer widths must be >= 1, got {list(widths)}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        scale = np.sqrt(2.0 / fan_in)
        weights.append(rng.standard_normal((fan_out, fan_in)) * scale)
        biases.append(np.zeros(fan_out))
    return MLP(weights, biases)


def forward(net: MLP, x: np.ndarray) -> np.ndarray:
    if x.shape[-1] != net.weights[0].shape[1]:
        raise ValueError(
            f"input width {x.shape[-1]} does not match layer width {net.weights[0].shape[1]}"
        )
    return _forward_trace(net, x)[1][-1]


def _forward_trace(net: MLP, x: np.ndarray):
    pre, act = [], [x]
    a = x
    for ell, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w.T
        z += b
        pre.append(z)
        a = np.maximum(z, 0.0) if ell < net.depth - 1 else z
        act.append(a)
    return pre, act


def loss_and_grads(net: MLP, inputs: np.ndarray, targets: np.ndarray):
    """Mean squared l2 loss over the batch and its exact backprop gradients."""
    _, grads_w, grads_b = _layer_buffer(net.weights, net.biases)
    loss = _backprop(net, inputs, targets, grads_w, grads_b)
    return loss, grads_w, grads_b


def _backprop(net: MLP, inputs, targets, grads_w, grads_b) -> float:
    """Loss of the batch; writes its gradient into the per-layer views
    ``grads_w`` and ``grads_b``."""
    batch = inputs.shape[0]
    pre, act = _forward_trace(net, inputs)
    diff = act[-1] - targets
    loss = float(np.sum(diff * diff) / batch)
    delta = 2.0 * diff / batch
    for ell in range(net.depth - 1, -1, -1):
        np.matmul(delta.T, act[ell], out=grads_w[ell])
        np.sum(delta, axis=0, out=grads_b[ell])
        if ell > 0:
            delta = (delta @ net.weights[ell]) * (pre[ell - 1] > 0)
    return loss


def train(
    net: MLP,
    inputs: np.ndarray,
    targets: np.ndarray,
    steps: int,
    lr: float,
    seed: int = 0,
    batch_size: int | None = None,
):
    """Gradient descent on the mean l2 loss; full-batch unless batch_size set.

    Deterministic under the seed (mini-batch order comes from it); returns a
    trained copy of the net, which is left unchanged, and the per-step loss
    trace.  A non-finite loss, or a non-finite parameter after an update,
    aborts with ``TrainingDivergence``; float overflow warnings are silenced
    because these checks catch it.  The parameters and the gradient each live
    in one buffer, so a step is one update and one finite check.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if not 0 < lr < math.inf:
        raise ValueError(f"learning rate must be positive and finite, got {lr}")
    if batch_size is not None and not (
        isinstance(batch_size, (int, np.integer)) and batch_size >= 1
    ):
        raise ValueError(f"batch_size must be None or an integer >= 1, got {batch_size!r}")
    if steps > 0 and inputs.shape[0] == 0:
        raise ValueError("cannot train on an empty batch")
    net = MLP(net.weights, net.biases)
    theta = net.theta
    grad, grads_w, grads_b = _layer_buffer(net.weights, net.biases)
    rng = np.random.default_rng(seed)
    trace: list[float] = []
    last = float("nan")
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps):
            if batch_size is None:
                bx, bt = inputs, targets
            else:
                idx = rng.permutation(inputs.shape[0])[:batch_size]
                bx, bt = inputs[idx], targets[idx]
            loss = _backprop(net, bx, bt, grads_w, grads_b)
            if not math.isfinite(loss):
                raise TrainingDivergence(step, last)
            last = loss
            trace.append(loss)
            theta -= lr * grad
            if not np.isfinite(theta).all():
                raise TrainingDivergence(step, last)
    return net, trace


def lipschitz_upper_bound(net: MLP, iters: int = 50, inflate: float = 1.1) -> float:
    """Product of per-layer spectral norm estimates, inflated by 10%.

    Power iteration underestimates defensively small; the documented inflation
    errs the product upward, which is the direction the conflict bound needs.
    ReLU is 1-Lipschitz, so the layer product bounds the network.
    """
    total = 1.0
    for w in net.weights:
        v = np.ones(w.shape[1]) / np.sqrt(w.shape[1])
        for _ in range(iters):
            u = w @ v
            nu = np.linalg.norm(u)
            if nu == 0:
                break
            v = w.T @ u / nu
            nv = np.linalg.norm(v)
            if nv == 0:
                break
            v /= nv
        total *= np.linalg.norm(w @ v)
    return float(total * inflate**len(net.weights))


# --- training data ----------------------------------------------------------------

@dataclass
class TrainingRecord:
    instance: qcbp.Instance
    target_exact: RationalVector
    family: int
    n: int
    noise: Q


@dataclass
class TrainingSet:
    inputs: np.ndarray
    targets: np.ndarray
    records: list[TrainingRecord]
    skipped: list[str] = field(default_factory=list)


def _noisy_single_row_solution(inst: qcbp.Instance, noise: Q) -> RationalVector:
    """Exact selected solution of the single-row instance with y = 1 + noise.

    For scalar y' > 0 the problem rescales exactly: x solves (A, y', eps) iff
    x / y' solves (A, 1, eps / y'), so the oracle applies after scaling as
    long as eps < y'.
    """
    y_new = 1 + noise
    if y_new <= 0:
        raise qcbp.OracleDomainError("noise drove the measurement nonpositive")
    if inst.eps >= y_new:
        raise qcbp.OracleDomainError("noise drove eps/y out of [0,1)")
    scaled = qcbp.Instance(A=inst.A, y=inst.y, eps=inst.eps / y_new)
    return qcbp.select(qcbp.exact_solution_set(scaled)).scale(y_new)


def gen_training_set(
    p: families.FamilyParams,
    n_lo: int,
    n_hi: int,
    noise_bound: Q = Q(0),
    seed: int = 0,
) -> TrainingSet:
    """Pairs (flattened instance, flattened exact solution) for both families.

    Optional rational noise e with |e| <= noise_bound perturbs the measurement
    before the exact reconstruction; members whose noisy instance leaves the
    oracle's domain are skipped with a log entry.
    """
    if noise_bound < 0:
        raise ValueError("noise bound must be >= 0")
    if p.m_dim != 1:
        raise ValueError("training data generation uses single-row families")
    import random as _random

    rng = _random.Random(seed)
    inputs, targets, records, skipped = [], [], [], []
    for n in range(n_lo, n_hi + 1):
        for which in (1, 2):
            inst = families.perturbed_instance(which, n, p)
            noise = Q(0)
            if noise_bound > 0:
                noise = noise_bound * Q(rng.randint(-1024, 1024), 1024)
            try:
                if noise == 0:
                    target = qcbp.select(qcbp.exact_solution_set(inst))
                    noisy_inst = inst
                else:
                    target = _noisy_single_row_solution(inst, noise)
                    noisy_inst = qcbp.Instance(
                        A=inst.A,
                        y=RationalVector.from_items([1 + noise]),
                        eps=inst.eps,
                    )
            except qcbp.OracleDomainError as exc:
                skipped.append(f"family {which}, n={n}: {exc}")
                continue
            inputs.append(realify_instance(noisy_inst))
            targets.append(realify_vector(target))
            records.append(
                TrainingRecord(
                    instance=noisy_inst,
                    target_exact=target,
                    family=which,
                    n=n,
                    noise=noise,
                )
            )
    return TrainingSet(
        inputs=np.array(inputs), targets=np.array(targets), records=records, skipped=skipped
    )


# --- instability evaluation --------------------------------------------------------

@dataclass
class InstabilityRow:
    n: int
    gap: float
    err_1: float
    err_2: float
    lip_slack: float
    bound_lhs: float


@dataclass
class InstabilityReport:
    params: families.FamilyParams
    certificate: families.SeparationCertificate
    lipschitz_bound: float
    rows: list[InstabilityRow]
    float_slack: float = 1e-6

    def conflict_holds(self) -> bool:
        kappa = float(self.certificate.bound)
        return all(r.bound_lhs >= kappa - self.float_slack for r in self.rows)


def instability_eval(
    net: MLP, p: families.FamilyParams, n_max: int, cert: families.SeparationCertificate
) -> InstabilityReport:
    """Evaluate the network on both families and assemble the conflict table.

    err_j(n) is the float l2 error of the network against the exact solution;
    lip_slack(n) = L * ||input_1 - input_2||; their sum must stay above the
    certified separation bound up to documented float slack, for any net.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    lip = lipschitz_upper_bound(net)
    rows = []
    for n in range(1, n_max + 1):
        u1 = realify_instance(families.perturbed_instance(1, n, p))
        u2 = realify_instance(families.perturbed_instance(2, n, p))
        t1 = realify_vector(families.perturbed_solution(1, n, p))
        t2 = realify_vector(families.perturbed_solution(2, n, p))
        out1 = forward(net, u1)
        out2 = forward(net, u2)
        e1 = float(np.linalg.norm(out1 - t1))
        e2 = float(np.linalg.norm(out2 - t2))
        gap = float(np.linalg.norm(u1 - u2))
        slack = lip * gap
        rows.append(
            InstabilityRow(
                n=n, gap=gap, err_1=e1, err_2=e2, lip_slack=slack, bound_lhs=e1 + e2 + slack
            )
        )
    return InstabilityReport(params=p, certificate=cert, lipschitz_bound=lip, rows=rows)


# --- checkpoints -------------------------------------------------------------------

def save_checkpoint(net: MLP, path: str) -> None:
    payload = {
        "widths": list(net.widths),
        "weights": [w.ravel().tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, sort_keys=True)


def load_checkpoint(path: str) -> MLP:
    with open(path, "r", encoding="ascii") as fh:
        payload = json.load(fh)
    widths = payload["widths"]
    weights, biases = [], []
    for ell in range(len(widths) - 1):
        shape = (widths[ell + 1], widths[ell])
        weights.append(np.array(payload["weights"][ell], dtype=np.float64).reshape(shape))
        biases.append(np.array(payload["biases"][ell], dtype=np.float64))
    return MLP(weights, biases)
