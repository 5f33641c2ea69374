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

import functools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction as Q

import numpy as np

from qcbplab import families, qcbp
from qcbplab.rationals import RationalVector


class TrainingDivergence(ArithmeticError):
    """Loss became non-finite; carries the step index and last finite loss.

    A numerical failure, not an input error: the command line reports it
    with exit code 3, like ``families.CertificateError``.
    """

    def __init__(self, step: int, last_loss: float):
        super().__init__(f"training diverged at step {step}; last finite loss {last_loss}")
        self.step = step
        self.last_loss = last_loss


# --- flattening -----------------------------------------------------------------

def realify_instance(inst: qcbp.Instance) -> np.ndarray:
    """Deterministic flattening: A real parts row-major, A imaginary parts
    row-major, y real parts, y imaginary parts.  Dyadic entries are exact.
    An entry past float64's range raises qcbp.FloatRangeError naming it."""
    parts: list[float] = []
    try:
        parts += [float(inst.A.entry(i, j).re) for i in range(inst.m) for j in range(inst.n)]
        parts += [float(inst.A.entry(i, j).im) for i in range(inst.m) for j in range(inst.n)]
        parts += [float(e.re) for e in inst.y.entries]
        parts += [float(e.im) for e in inst.y.entries]
    except OverflowError:
        raise qcbp.float_range_error(qcbp.named_entries(inst)) from None
    return np.array(parts, dtype=np.float64)


def realify_vector(x: RationalVector) -> np.ndarray:
    """Flatten a solution vector: real parts then imaginary parts.  An entry
    past float64's range raises qcbp.FloatRangeError naming it as x[j]."""
    try:
        return np.array(
            [float(e.re) for e in x.entries] + [float(e.im) for e in x.entries],
            dtype=np.float64,
        )
    except OverflowError:
        raise qcbp.float_range_error((f"x[{j}]", v) for j, e in enumerate(x.entries) for v in (e.re, e.im)) from None


def float_norm(d: np.ndarray) -> float:
    """l2 norm of the 1-D float array ``d``, one path for every finite d:
    ``sqrt(s.dot(s)) * 2**e`` for s = d * 2**-e, e the binary exponent of
    max|d|.  No |s_i| reaches 1, so no square overflows and numpy never warns,
    and the norm of d * 2**k is 2**k times d's, bit for bit, wherever that
    scaling loses no bits.  Past float64's range, or with an inf entry, the
    norm is inf; with a NaN entry, NaN."""
    top = float(np.abs(d).max(initial=0.0))
    if not math.isfinite(top):
        return top
    e = math.frexp(top)[1]
    s = np.ldexp(d, -e)
    try:
        return math.ldexp(math.sqrt(s.dot(s)), e)
    except OverflowError:
        return math.inf


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
    """The network's output for one input (1-D ``x``) or a batch of rows (2-D)."""
    _check_input_width(net, x)
    return _forward(_forward_plan(net, x.shape[:-1]), x)


def _check_input_width(net: MLP, x: np.ndarray) -> None:
    if x.shape[-1] != net.weights[0].shape[1]:
        raise ValueError(
            f"input width {x.shape[-1]} does not match layer width {net.weights[0].shape[1]}"
        )


def _forward_plan(net: MLP, lead: tuple[int, ...]):
    """Per-layer ``(wt, b, z)`` tuples for inputs of leading shape ``lead``:
    the transposed weight view, the bias and an uninitialised output buffer.
    Returns the hidden layers' tuples and the output layer's."""
    layers = tuple(
        (w.T, b, np.empty(lead + (w.shape[0],))) for w, b in zip(net.weights, net.biases)
    )
    return layers[:-1], layers[-1]


def _forward(plan, x: np.ndarray) -> np.ndarray:
    """Forward pass of ``x`` into the buffers of ``plan``; hidden layers apply
    ReLU in place.  Returns the output buffer."""
    hidden, (wt, b, out) = plan
    for wt_h, b_h, z in hidden:
        x.dot(wt_h, out=z)
        z += b_h
        np.maximum(z, 0.0, out=z)
        x = z
    x.dot(wt, out=out)
    out += b
    return out


def _backprop_plan(net: MLP, plan, inputs: np.ndarray, grads_w, grads_b):
    """Backprop buffers and per-layer tuples for the forward ``plan`` of
    ``inputs``, writing the gradient into the views ``grads_w``, ``grads_b``.

    Returns ``(diff, sq, upper, first)``: the output delta (the residual
    first), the squared-error buffer, one ``(delta, delta.T, a, gw, gb, w,
    below, mask)`` tuple per layer above the first, top down, and the first
    layer's ``(delta, delta.T, inputs, gw, gb)``.  ``a`` is the layer's input
    activation and ``below`` the delta of the layer under it.
    """
    hidden, last = plan
    acts = [inputs] + [z for _, _, z in hidden]
    deltas = [np.empty_like(z) for _, _, z in hidden + (last,)]
    upper = tuple(
        (
            deltas[ell],
            deltas[ell].T,
            acts[ell],
            grads_w[ell],
            grads_b[ell],
            net.weights[ell],
            deltas[ell - 1],
            np.empty(acts[ell].shape, dtype=bool),
        )
        for ell in range(net.depth - 1, 0, -1)
    )
    first = (deltas[0], deltas[0].T, inputs, grads_w[0], grads_b[0])
    return deltas[-1], np.empty_like(deltas[-1]), upper, first


def _loss(plan, backprop, inputs: np.ndarray, targets: np.ndarray) -> float:
    """Mean squared l2 loss of the batch ``inputs``; leaves the residual in
    the output delta of ``backprop``."""
    diff, sq, _, _ = backprop
    np.subtract(_forward(plan, inputs), targets, out=diff)
    np.multiply(diff, diff, out=sq)
    return float(np.add.reduce(sq, axis=None)) / inputs.shape[0]


def _backprop(backprop) -> None:
    """Gradient of the loss whose residual :func:`_loss` left in ``backprop``.

    The output delta is 2 * diff / batch, formed as diff / (batch / 2): the
    same correctly rounded value, since 2 * diff is exact unless it overflows,
    which a finite loss rules out.  The ReLU mask comes from the activation: relu(z) > 0 exactly when
    z > 0, for every float z including NaN and +-inf.
    """
    diff, _, upper, first = backprop
    diff /= diff.shape[0] / 2
    for delta, delta_t, a, gw, gb, w, below, mask in upper:
        delta_t.dot(a, out=gw)
        np.add.reduce(delta, axis=0, out=gb)
        delta.dot(w, out=below)
        np.greater(a, 0.0, out=mask)
        below *= mask
    delta, delta_t, a, gw, gb = first
    delta_t.dot(a, out=gw)
    np.add.reduce(delta, axis=0, out=gb)


def _check_batch(net: MLP, inputs: np.ndarray, targets: np.ndarray) -> None:
    widths = net.widths
    if (
        inputs.ndim != 2
        or inputs.shape[1] != widths[0]
        or targets.shape != (inputs.shape[0], widths[-1])
    ):
        raise ValueError(
            f"inputs {inputs.shape} and targets {targets.shape} do not fit widths "
            f"{list(widths)}: expected (B, {widths[0]}) and (B, {widths[-1]})"
        )


def loss_and_grads(net: MLP, inputs: np.ndarray, targets: np.ndarray):
    """Mean squared l2 loss over the batch and its exact backprop gradients."""
    _check_batch(net, inputs, targets)
    _, grads_w, grads_b = _layer_buffer(net.weights, net.biases)
    plan = _forward_plan(net, inputs.shape[:-1])
    backprop = _backprop_plan(net, plan, inputs, grads_w, grads_b)
    loss = _loss(plan, backprop, inputs, targets)
    _backprop(backprop)
    return loss, grads_w, grads_b


def train(
    net: MLP,
    inputs: np.ndarray,
    targets: np.ndarray,
    steps: int,
    lr: float,
    seed: int = 0,
):
    """Full-batch gradient descent on the mean l2 loss; uses no RNG.

    Returns a trained copy of the net, which is left unchanged, and the
    per-step loss trace.  ``seed`` is ignored: it stays only because
    perfbench/workloads.py still passes one.  ``inputs`` must be (B,
    widths[0]) and ``targets`` (B, widths[-1]).

    A non-finite loss aborts with ``TrainingDivergence`` before the step's
    gradient is formed; so does a non-finite parameter after an update, found
    by one ddot of the parameters with zeros (0 * inf and 0 * NaN are NaN, so
    the dot is NaN exactly when a parameter is not finite).  Float overflow
    warnings are silenced because these checks catch it.

    The parameters and the gradient each live in one buffer, so a step is one
    update.  The per-layer argument tuples of the forward pass and backprop
    (transposed weight and delta views, activation, delta and mask buffers)
    are built once per call, and every numpy call of a step writes in place,
    so a step allocates no array: a net of D layers takes 8 * D + 3 numpy
    calls per step.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if not 0 < lr < math.inf:
        raise ValueError(f"learning rate must be positive and finite, got {lr}")
    _check_batch(net, inputs, targets)
    if steps > 0 and inputs.shape[0] == 0:
        raise ValueError("cannot train on an empty batch")
    net = MLP(net.weights, net.biases)
    theta = net.theta
    grad, grads_w, grads_b = _layer_buffer(net.weights, net.biases)
    scaled = np.empty_like(grad)
    zeros = np.zeros_like(theta)
    plan = _forward_plan(net, inputs.shape[:-1])
    backprop = _backprop_plan(net, plan, inputs, grads_w, grads_b)
    trace: list[float] = []
    last = float("nan")
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps):
            loss = _loss(plan, backprop, inputs, targets)
            if not math.isfinite(loss):
                raise TrainingDivergence(step, last)
            last = loss
            trace.append(loss)
            _backprop(backprop)
            np.multiply(lr, grad, out=scaled)
            theta -= scaled
            if not math.isfinite(theta.dot(zeros)):
                raise TrainingDivergence(step, last)
    return net, trace


_POWER_ITERS = 50  # power-iteration steps per layer
_INFLATE = 1.1  # per-layer inflation of the spectral norm estimate


def lipschitz_upper_bound(net: MLP) -> float:
    """Product of per-layer spectral norm estimates, inflated by 10%.

    Power iteration underestimates defensively small; the documented inflation
    errs the product upward, which is the direction the conflict bound needs.
    ReLU is 1-Lipschitz, so the layer product bounds the network.  The
    product runs on frexp mantissas with the exponents summed apart, so it
    cannot leave float range partway: inside that range it rounds as the
    plain float product does, a bound past it is inf and a positive bound
    below it is the least positive float.  A zero layer gives 0.0.
    """
    total, exp = 1.0, 0
    for w in net.weights:
        s, e = _layer_norm_estimate(w)
        total, t = math.frexp(total * s)
        exp += e + t
    total *= _INFLATE**len(net.weights)
    try:
        bound = math.ldexp(total, exp)
    except OverflowError:
        return math.inf
    return math.ulp(0.0) if bound == 0.0 and total > 0 else bound


def _layer_norm_estimate(w: np.ndarray) -> tuple[float, int]:
    """Power-iteration estimate ``(s, e)`` of the spectral norm of ``w``: s * 2**e.

    An iterate that hits zero (the start vector in the null space, say)
    says nothing about the norm; the Frobenius norm, which bounds it from
    above, stands in for it then.  The iteration runs on ``w`` scaled by
    2**-e, e the binary exponent of its largest entry, so tiny or huge
    weights neither underflow nor overflow; scaling by a power of two is
    exact, and a zero or non-finite largest entry gives e = 0.  The estimate
    is returned unscaled, since s * 2**e may lie outside float range.  The
    loop normalises its own data, so it takes the plain root, not
    ``float_norm``: no square it forms exceeds rows * cols.
    """
    e = math.frexp(float(np.abs(w).max()))[1]
    w = np.ldexp(w, -e)
    wt = w.T
    v = np.ones(w.shape[1]) / np.sqrt(w.shape[1])
    for _ in range(_POWER_ITERS):
        u = w.dot(v)
        nu = math.sqrt(u.dot(u))
        if nu == 0:
            return math.sqrt(np.vdot(w, w)), e
        v = wt.dot(u)
        v /= nu
        nv = math.sqrt(v.dot(v))
        if nv == 0:
            return math.sqrt(np.vdot(w, w)), e
        v /= nv
    u = w.dot(v)
    return math.sqrt(u.dot(u)), e


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
            noise = noise_bound * Q(rng.randint(-1024, 1024), 1024)
            y = inst.y.entries[0].re + noise
            if y <= 0:
                skipped.append(f"family {which}, n={n}: noise drove the measurement nonpositive")
                continue
            if inst.eps >= y:
                skipped.append(f"family {which}, n={n}: noise drove eps/y out of [0,1)")
                continue
            noisy_inst = qcbp.Instance(A=inst.A, y=RationalVector.from_items([y]), eps=inst.eps)
            target = qcbp.select(qcbp.exact_solution_set(noisy_inst))
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
    lip_slack(n) = L * ||input_1 - input_2||, or 0 where the two inputs are
    equal, even for an infinite L; their sum must stay above the certified
    separation bound up to documented float slack, for any net.
    The certificate must be for ``p``; it holds for every n >= 1, and the
    net's input and output widths must be the family's.  Each input
    goes through the forward pass on its own (a batched matmul rounds
    differently), all of them through one set of 1-D buffers.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if cert.params != p:
        raise ValueError(f"certificate is for {cert.params}, not {p}")
    table = _family_table(p, n_max)
    _check_input_width(net, table[0][1])
    width = table[0][3].size
    if net.weights[-1].shape[0] != width:
        # a one-wide output would broadcast over the targets unnoticed
        raise ValueError(
            f"net output width {net.weights[-1].shape[0]} does not match the family's "
            f"solution width {width} (2 * n_dim)"
        )
    lip = lipschitz_upper_bound(net)
    plan = _forward_plan(net, ())
    err = np.empty(width)
    rows = []
    for n, u1, u2, t1, t2, gap in table:
        e1 = float_norm(np.subtract(_forward(plan, u1), t1, out=err))
        e2 = float_norm(np.subtract(_forward(plan, u2), t2, out=err))
        slack = lip * gap if gap else 0.0
        rows.append(
            InstabilityRow(n=n, gap=gap, err_1=e1, err_2=e2, lip_slack=slack, bound_lhs=e1 + e2 + slack)
        )
    return InstabilityReport(certificate=cert, lipschitz_bound=lip, rows=rows)


@functools.lru_cache(maxsize=8)
def _family_table(p: families.FamilyParams, n_max: int) -> tuple:
    """``(n, u1, u2, t1, t2, gap)`` for n = 1..n_max: both family members and
    their exact solutions, flattened to read-only float arrays, and the input
    gap ||u1 - u2||.  Built once per ``(p, n_max)``; the members are exact, so
    every call would rebuild the same floats."""
    table = []
    for n in range(1, n_max + 1):
        u1 = realify_instance(families.perturbed_instance(1, n, p))
        u2 = realify_instance(families.perturbed_instance(2, n, p))
        t1 = realify_vector(families.perturbed_solution(1, n, p))
        t2 = realify_vector(families.perturbed_solution(2, n, p))
        for a in (u1, u2, t1, t2):
            a.flags.writeable = False
        table.append((n, u1, u2, t1, t2, float_norm(u1 - u2)))
    return tuple(table)


# --- checkpoints -------------------------------------------------------------------

def checkpoint_json(net: MLP) -> str:
    """The checkpoint text of ``net``; :func:`load_checkpoint` reads it back from a file."""
    payload = {
        "widths": list(net.widths),
        "weights": [w.ravel().tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }
    return json.dumps(payload, sort_keys=True)


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
