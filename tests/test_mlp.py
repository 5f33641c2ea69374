"""Network, training-data and instability-bound tests."""

import inspect
import math
import re
from fractions import Fraction as Q

import numpy as np
import pytest

from qcbplab import families as fam
from qcbplab import mlp, qcbp
from gradient_oracle import numerical_gradients

P = fam.FamilyParams()


def test_realify_layout_example():
    v = mlp.realify_instance(fam.limit_instance(P))
    assert v.tolist() == [1.0, 1.0, 0.0, 0.0, 1.0, 0.0]
    assert mlp.input_width(1, 2) == 6
    assert mlp.output_width(2) == 4


def test_realify_dyadic_entries_exact():
    inst = fam.perturbed_instance(1, 3, P)
    v = mlp.realify_instance(inst)
    assert v[0] == 1.125  # 9/8 is a dyadic, hence an exact float
    back = Q(v[0])
    assert back == Q(9, 8)


def test_realify_vector_layout():
    x = fam.perturbed_solution(2, 1, P)
    assert mlp.realify_vector(x).tolist() == [0.0, float(Q(1, 3)), 0.0, 0.0]


def test_forward_identity_single_affine_layer():
    net = mlp.MLP([np.eye(3)], [np.zeros(3)])
    x = np.array([1.5, -2.0, 0.25])
    assert np.array_equal(mlp.forward(net, x), x)


def test_relu_hidden_layer():
    net = mlp.MLP([np.eye(2), np.eye(2)], [np.zeros(2), np.zeros(2)])
    out = mlp.forward(net, np.array([-1.0, 2.0]))
    assert out.tolist() == [0.0, 2.0]


def test_forward_dimension_check():
    net = mlp.init_mlp((4, 3, 2), seed=0)
    with pytest.raises(ValueError, match="width"):
        mlp.forward(net, np.zeros(5))


@pytest.mark.parametrize("widths", [(6, 0, 4), (6, 16, -1), (0, 4)])
def test_init_rejects_nonpositive_widths(widths):
    with pytest.raises(ValueError, match="widths must be >= 1"):
        mlp.init_mlp(widths, seed=0)


def test_forward_reproducible():
    net = mlp.init_mlp((6, 16, 4), seed=123)
    x = mlp.realify_instance(fam.perturbed_instance(1, 2, P))
    a = mlp.forward(net, x)
    b = mlp.forward(net, x)
    assert np.array_equal(a, b)


def test_train_zero_steps_unchanged():
    net = mlp.init_mlp((6, 8, 4), seed=1)
    data = mlp.gen_training_set(P, 1, 3, seed=1)
    out, trace = mlp.train(net, data.inputs, data.targets, steps=0, lr=0.1)
    assert trace == []
    assert all(np.array_equal(a, b) for a, b in zip(out.weights, net.weights))


def test_linear_net_reaches_least_squares_fit():
    # single sample, single affine layer: gradient descent drives the loss to
    # zero and the output to the target (the least-squares oracle value)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((1, 5))
    t = rng.standard_normal((1, 3))
    net = mlp.MLP([rng.standard_normal((3, 5)) * 0.1], [np.zeros(3)])
    trained, trace = mlp.train(net, x, t, steps=400, lr=0.05)
    assert trace[-1] < 1e-10
    assert np.allclose(mlp.forward(trained, x), t, atol=1e-5)
    assert all(b <= a + 1e-15 for a, b in zip(trace, trace[1:]))  # monotone at small lr


def test_gradient_check_small_nets():
    rng = np.random.default_rng(9)
    for widths in ((5, 7, 3), (4, 9, 9, 2), (6, 16, 4)):
        net = mlp.init_mlp(widths, seed=int(rng.integers(10**6)))
        xs = rng.standard_normal((6, widths[0]))
        ts = rng.standard_normal((6, widths[-1]))
        _, gw, gb = mlp.loss_and_grads(net, xs, ts)
        nw, nb = numerical_gradients(net, xs, ts)
        for a, b in zip(gw + gb, nw + nb):
            denom = np.maximum(np.abs(a) + np.abs(b), 1e-6)
            assert np.max(np.abs(a - b) / denom) < 1e-4


def test_training_bitwise_deterministic():
    data = mlp.gen_training_set(P, 1, 6, seed=2)
    net = mlp.init_mlp((6, 32, 32, 4), seed=5)
    a, ta = mlp.train(net, data.inputs, data.targets, steps=200, lr=0.02)
    b, tb = mlp.train(net, data.inputs, data.targets, steps=200, lr=0.02)
    assert ta == tb
    assert all(np.array_equal(w1, w2) for w1, w2 in zip(a.weights, b.weights))
    assert all(np.array_equal(b1, b2) for b1, b2 in zip(a.biases, b.biases))


@pytest.mark.filterwarnings("ignore:overflow")
def test_divergence_aborts_with_diagnostic():
    data = mlp.gen_training_set(P, 1, 5, seed=4)
    net = mlp.init_mlp((6, 32, 4), seed=7)
    with pytest.raises(mlp.TrainingDivergence) as exc:
        mlp.train(net, data.inputs, data.targets, steps=200, lr=1e3)
    assert exc.value.step >= 0


def test_gen_training_set_targets_are_oracle_selections():
    data = mlp.gen_training_set(P, 1, 10, seed=0)
    assert data.inputs.shape == (20, 6)
    assert data.targets.shape == (20, 4)
    assert data.skipped == []
    for rec in data.records:
        expected = qcbp.select(qcbp.exact_solution_set(rec.instance))
        assert rec.target_exact == expected
        assert qcbp.feasible(rec.instance, rec.target_exact)
        # formula (1-eps)/(a+2**-n) on the bumped coordinate
        val = (1 - P.eps) / (P.a + Q(1, 2**rec.n))
        assert rec.target_exact.entries[rec.family - 1].re == val


def test_gen_training_set_duplicate_instances_share_targets():
    a = mlp.gen_training_set(P, 2, 2, seed=0)
    b = mlp.gen_training_set(P, 2, 2, seed=99)
    assert [r.target_exact for r in a.records] == [r.target_exact for r in b.records]


def test_gen_training_set_with_noise_feasible_targets():
    data = mlp.gen_training_set(P, 1, 6, noise_bound=Q(1, 8), seed=12)
    assert data.records, "bounded noise should keep most instances in domain"
    for rec in data.records:
        assert qcbp.feasible(rec.instance, rec.target_exact)
        assert abs(rec.noise) <= Q(1, 8)
        assert rec.instance.y.entries[0].re == 1 + rec.noise


def test_gen_training_set_skip_with_log():
    # noise bound big enough to push eps/y out of range for some draws
    data = mlp.gen_training_set(P, 1, 8, noise_bound=Q(3, 4), seed=13)
    assert data.skipped, "expected some skipped members at this noise level"
    for line in data.skipped:
        assert "family" in line


def test_lipschitz_bound_dominates_samples():
    net = mlp.init_mlp((6, 24, 24, 4), seed=21)
    lip = mlp.lipschitz_upper_bound(net)
    rng = np.random.default_rng(22)
    for _ in range(40):
        u = rng.standard_normal(6)
        v = rng.standard_normal(6)
        lhs = np.linalg.norm(mlp.forward(net, u) - mlp.forward(net, v))
        assert lhs <= lip * np.linalg.norm(u - v) + 1e-9


def test_instability_bound_untrained_net():
    cert = fam.separation_certificate(P)
    net = mlp.init_mlp((6, 64, 64, 4), seed=3)
    rep = mlp.instability_eval(net, P, 30, cert)
    assert rep.conflict_holds()
    slacks = [r.lip_slack for r in rep.rows]
    assert all(b < a for a, b in zip(slacks, slacks[1:]))  # gap halves each step
    gaps = [r.gap for r in rep.rows]
    assert gaps[0] == pytest.approx(2**-1 * 2**0.5, rel=1e-12)


def test_checkpoint_roundtrip(tmp_path):
    net = mlp.init_mlp((6, 12, 4), seed=31)
    path = tmp_path / "ckpt.json"
    path.write_text(mlp.checkpoint_json(net), encoding="ascii")
    again = mlp.load_checkpoint(str(path))
    x = np.linspace(-1, 1, 6)
    assert np.array_equal(mlp.forward(net, x), mlp.forward(again, x))
    assert again.widths == net.widths


def test_train_rejects_empty_batch():
    net = mlp.init_mlp((6, 4, 4), seed=1)
    with pytest.raises(ValueError, match="empty"):
        mlp.train(net, np.zeros((0, 6)), np.zeros((0, 4)), steps=5, lr=0.1)


# --- flat-buffer training against the per-layer reference ---------------------------

def _reference_forward(weights, biases, xs):
    """Pre-activations and activations (``xs`` first), fresh arrays per layer."""
    pre, act = [], [xs]
    a = xs
    for ell, (w, b) in enumerate(zip(weights, biases)):
        z = a @ w.T + b
        pre.append(z)
        a = np.maximum(z, 0.0) if ell < len(weights) - 1 else z
        act.append(a)
    return pre, act


def _reference_loss_and_grads(weights, biases, xs, ts):
    """Backprop with the ReLU mask taken from the pre-activations."""
    depth = len(weights)
    pre, act = _reference_forward(weights, biases, xs)
    diff = act[-1] - ts
    loss = float(np.sum(diff * diff) / xs.shape[0])
    gw, gb = [None] * depth, [None] * depth
    delta = 2.0 * diff / xs.shape[0]
    for ell in range(depth - 1, -1, -1):
        gw[ell] = delta.T @ act[ell]
        gb[ell] = delta.sum(axis=0)
        if ell > 0:
            delta = (delta @ weights[ell]) * (pre[ell - 1] > 0)
    return loss, gw, gb


def _reference_train(weights, biases, inputs, targets, steps, lr):
    """Per-layer gradient descent: separate arrays, a fresh gradient per step,
    per-layer updates and per-layer finite checks.  ``mlp.train`` must match
    it bit for bit."""
    weights = [w.copy() for w in weights]
    biases = [b.copy() for b in biases]
    depth = len(weights)
    trace, last = [], float("nan")
    for step in range(steps):
        loss, gw, gb = _reference_loss_and_grads(weights, biases, inputs, targets)
        if not np.isfinite(loss):
            raise mlp.TrainingDivergence(step, last)
        last = loss
        trace.append(loss)
        for ell in range(depth):
            weights[ell] -= lr * gw[ell]
            biases[ell] -= lr * gb[ell]
        if not (all(np.isfinite(w).all() for w in weights) and all(np.isfinite(b).all() for b in biases)):
            raise mlp.TrainingDivergence(step, last)
    return weights, biases, trace


def _same_bits(xs, ys):
    return len(xs) == len(ys) and all(
        x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(xs, ys)
    )


@pytest.mark.parametrize("hidden", [16, 32, 64])
def test_train_matches_per_layer_reference(hidden):
    data = mlp.gen_training_set(P, 1, 8, noise_bound=Q(1, 16), seed=hidden)
    net = mlp.init_mlp((6, hidden, hidden, 4), seed=hidden)
    before_w = [w.copy() for w in net.weights]
    before_b = [b.copy() for b in net.biases]
    out, trace = mlp.train(net, data.inputs, data.targets, 300, 0.02)
    ref_w, ref_b, ref_trace = _reference_train(
        before_w, before_b, data.inputs, data.targets, 300, 0.02
    )
    assert trace == ref_trace
    assert _same_bits(out.weights, ref_w) and _same_bits(out.biases, ref_b)
    assert _same_bits(net.weights, before_w) and _same_bits(net.biases, before_b)
    assert not any(
        np.shares_memory(x, y) for x in out.weights + out.biases for y in net.weights + net.biases
    )


@pytest.mark.parametrize("batch", [1, 3, 13])
@pytest.mark.parametrize("widths", [(6, 4), (6, 16, 4), (6, 5, 9, 7, 4)])
def test_train_on_odd_batches_matches_per_layer_reference(widths, batch):
    """An odd batch B makes the residual divisor B / 2 a non-integer."""
    data = mlp.gen_training_set(P, 1, 7, noise_bound=Q(1, 16), seed=batch)
    xs, ts = data.inputs[:batch], data.targets[:batch]
    assert xs.shape == (batch, 6)
    net = mlp.init_mlp(widths, seed=batch + len(widths))
    out, trace = mlp.train(net, xs, ts, 200, 0.02)
    ref_w, ref_b, ref_trace = _reference_train(net.weights, net.biases, xs, ts, 200, 0.02)
    assert trace == ref_trace
    assert _same_bits(out.weights, ref_w) and _same_bits(out.biases, ref_b)


def test_ddot_with_zeros_is_nan_exactly_when_an_entry_is_not_finite():
    """``train``'s finite check: one inf, -inf or NaN at any position of a
    vector of 1..70 entries (every SIMD tail) makes ``theta.dot(zeros)`` NaN;
    finite entries, the largest and the subnormal ones included, give 0."""
    rng = np.random.default_rng(70)
    for size in range(1, 71):
        zeros = np.zeros(size)
        theta = rng.standard_normal(size) * rng.choice([1.0, 1e300, 1e-300], size)
        theta[::7] = np.finfo(float).max
        theta[3::11] = -5e-324
        assert theta.dot(zeros) == 0.0
        for pos in range(size):
            for bad in (math.inf, -math.inf, math.nan):
                spoiled = theta.copy()
                spoiled[pos] = bad
                with np.errstate(invalid="ignore"):
                    assert not math.isfinite(spoiled.dot(zeros))


@pytest.mark.parametrize(
    "in_shape, t_shape",
    [((3, 6), (1, 4)), ((3, 6), (2, 4)), ((3, 5), (3, 4)), ((3, 6), (3, 5)), ((6,), (4,))],
)
def test_train_and_loss_and_grads_reject_shapes_that_do_not_fit(in_shape, t_shape):
    """A single target row is not broadcast over the batch; every mismatch
    names both shapes."""
    net = mlp.init_mlp((6, 8, 4), seed=1)
    xs, ts = np.ones(in_shape), np.ones(t_shape)
    message = re.escape(f"inputs {in_shape} and targets {t_shape}")
    with pytest.raises(ValueError, match=message):
        mlp.train(net, xs, ts, steps=3, lr=0.1)
    with pytest.raises(ValueError, match=message):
        mlp.loss_and_grads(net, xs, ts)


def test_train_signature_and_lipschitz_lookup_stay_wrappable(monkeypatch):
    """The benchmark counts calls by rebinding module attributes: ``train``
    keeps its name and signature, and ``instability_eval`` looks up
    ``lipschitz_upper_bound`` through the module global on every call."""
    assert mlp.train.__name__ == "train"
    params = inspect.signature(mlp.train).parameters
    assert list(params) == ["net", "inputs", "targets", "steps", "lr", "seed"]
    assert params["seed"].default == 0
    real = mlp.lipschitz_upper_bound
    calls = []

    def counting(net):
        calls.append(net)
        return real(net)

    monkeypatch.setattr(mlp, "lipschitz_upper_bound", counting)
    net = mlp.init_mlp((6, 8, 4), seed=1)
    rep = mlp.instability_eval(net, P, 5, fam.separation_certificate(P))
    assert len(calls) == 1 and calls[0] is net
    assert rep.lipschitz_bound == real(net)


@pytest.mark.parametrize("widths", [(6, 4), (6, 16, 4), (6, 32, 32, 4), (5, 9, 7, 3, 2)])
def test_forward_and_loss_and_grads_match_reference(widths):
    rng = np.random.default_rng(sum(widths))
    net = mlp.init_mlp(widths, seed=len(widths))
    for b in net.biases:
        b[...] = rng.standard_normal(b.shape)  # some hidden units off, some on
    xs = rng.standard_normal((10, widths[0]))
    ts = rng.standard_normal((10, widths[-1]))
    for x in (xs, xs[3]):
        assert _same_bits([mlp.forward(net, x)], [_reference_forward(net.weights, net.biases, x)[1][-1]])
    ref_loss, ref_w, ref_b = _reference_loss_and_grads(net.weights, net.biases, xs, ts)
    first = mlp.loss_and_grads(net, xs, ts)
    second = mlp.loss_and_grads(net, xs, ts)
    for loss, gw, gb in (first, second):
        assert loss == ref_loss
        assert _same_bits(gw, ref_w) and _same_bits(gb, ref_b)
    params = net.weights + net.biases + [net.theta]
    assert not any(
        np.shares_memory(g, h) for g in first[1] + first[2] for h in second[1] + second[2] + params
    )
    assert not any(np.shares_memory(g, h) for g in second[1] + second[2] for h in params)


# 1e100 overflows the loss at step 1; 1.7e308 overflows a parameter at step 0
@pytest.mark.parametrize("lr", [20.0, 1e3, 1e100, 1.7e308])
def test_train_divergence_matches_per_layer_reference(lr):
    data = mlp.gen_training_set(P, 1, 5, seed=4)
    net = mlp.init_mlp((6, 32, 4), seed=7)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(mlp.TrainingDivergence) as ref:
        _reference_train(net.weights, net.biases, data.inputs, data.targets, 400, lr)
    with pytest.raises(mlp.TrainingDivergence) as got:
        mlp.train(net, data.inputs, data.targets, steps=400, lr=lr)
    assert (got.value.step, got.value.last_loss) == (ref.value.step, ref.value.last_loss)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_train_aborts_when_parameters_overflow_to_one_infinity(sign):
    """The first weight and the bias overflow to -inf (sign 1) or +inf
    (sign -1) at step 0 while the second weight stays 1.0."""
    net = mlp.MLP([np.array([[1.0, 1.0]])], [np.array([0.0])])
    xs, ts = np.array([[1.0, 0.0]]), np.array([[1.0 - sign]])
    with pytest.raises(mlp.TrainingDivergence) as got:
        mlp.train(net, xs, ts, steps=3, lr=1e308)
    assert (got.value.step, got.value.last_loss) == (0, 1.0)
    with np.errstate(over="ignore"), pytest.raises(mlp.TrainingDivergence) as ref:
        _reference_train(net.weights, net.biases, xs, ts, 3, 1e308)
    assert (ref.value.step, ref.value.last_loss) == (0, 1.0)


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0, -0.1])
def test_train_rejects_nonpositive_or_nonfinite_lr(lr):
    net = mlp.init_mlp((6, 4, 4), seed=1)
    with pytest.raises(ValueError, match="positive and finite"):
        mlp.train(net, np.zeros((2, 6)), np.zeros((2, 4)), steps=5, lr=lr)


@pytest.mark.parametrize("n_max", [0, -1])
def test_instability_eval_rejects_empty_range(n_max):
    cert = fam.separation_certificate(P)
    net = mlp.init_mlp((6, 8, 4), seed=1)
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        mlp.instability_eval(net, P, n_max, cert)


A13 = fam.FamilyParams(a=Q(1, 3), eps=Q(1, 3))


@pytest.mark.parametrize("p, cert_p", [(A13, P), (P, A13)], ids=["a13-with-default-cert", "default-with-a13-cert"])
def test_instability_eval_rejects_certificate_for_other_params(p, cert_p):
    """A certificate for other parameters carries another kappa."""
    net = mlp.init_mlp((6, 8, 4), seed=1)
    with pytest.raises(ValueError, match="certificate is for"):
        mlp.instability_eval(net, p, 40, fam.separation_certificate(cert_p))


# --- cached family table against the per-call reference -------------------------------

PARAMS = [P, A13, fam.FamilyParams(n_dim=3, m_dim=2)]


def _reference_lipschitz_upper_bound(net):
    """Power iteration with fresh vectors and ``np.linalg.norm``."""
    total = 1.0
    for w in net.weights:
        v = np.ones(w.shape[1]) / np.sqrt(w.shape[1])
        for _ in range(mlp._POWER_ITERS):
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
    return float(total * mlp._INFLATE ** len(net.weights))


def _reference_instability_rows(net, p, n_max, lip):
    """The conflict table with every family member rebuilt from the exact
    families, each input run through ``forward`` on its own."""
    rows = []
    for n in range(1, n_max + 1):
        u1 = mlp.realify_instance(fam.perturbed_instance(1, n, p))
        u2 = mlp.realify_instance(fam.perturbed_instance(2, n, p))
        t1 = mlp.realify_vector(fam.perturbed_solution(1, n, p))
        t2 = mlp.realify_vector(fam.perturbed_solution(2, n, p))
        e1 = float(np.linalg.norm(mlp.forward(net, u1) - t1))
        e2 = float(np.linalg.norm(mlp.forward(net, u2) - t2))
        gap = float(np.linalg.norm(u1 - u2))
        slack = lip * gap
        rows.append(
            mlp.InstabilityRow(
                n=n, gap=gap, err_1=e1, err_2=e2, lip_slack=slack, bound_lhs=e1 + e2 + slack
            )
        )
    return rows


def _net_for(p, hidden, kind):
    """An untrained net for ``p``'s shape, one trained on its members n = 1..8,
    or an untrained one whose second layer is all zero (the power iteration
    stops at its first step there)."""
    widths = (mlp.input_width(p.m_dim, p.n_dim),) + hidden + (mlp.output_width(p.n_dim),)
    net = mlp.init_mlp(widths, seed=sum(widths))
    if kind == "trained":
        members = [(which, n) for n in range(1, 9) for which in (1, 2)]
        xs = np.array([mlp.realify_instance(fam.perturbed_instance(w, n, p)) for w, n in members])
        ts = np.array([mlp.realify_vector(fam.perturbed_solution(w, n, p)) for w, n in members])
        net, _ = mlp.train(net, xs, ts, 200, 0.02)
    elif kind == "zero layer":
        net.weights[1][...] = 0.0
    return net


@pytest.mark.parametrize("kind", ["untrained", "trained", "zero layer"])
@pytest.mark.parametrize("hidden", [(8,), (16, 16), (64, 64), (128, 128)])
def test_instability_eval_matches_reference(hidden, kind):
    for p in PARAMS:
        net = _net_for(p, hidden, kind)
        lip = _reference_lipschitz_upper_bound(net)
        assert (lip == 0.0) == (kind == "zero layer")
        assert repr(mlp.lipschitz_upper_bound(net)) == repr(lip)
        for n_max in (1, 7, 30, 64):
            rep = mlp.instability_eval(net, p, n_max, fam.separation_certificate(p))
            assert repr(rep.lipschitz_bound) == repr(lip)
            assert repr(rep.rows) == repr(_reference_instability_rows(net, p, n_max, lip))


def test_family_table_is_read_only_and_built_once(monkeypatch):
    mlp._family_table.cache_clear()
    real = fam.perturbed_instance
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    cert = fam.separation_certificate(P)
    monkeypatch.setattr(fam, "perturbed_instance", counting)
    net = _net_for(P, (16, 16), "untrained")
    first = mlp.instability_eval(net, P, 30, cert)
    assert len(calls) == 60
    second = mlp.instability_eval(net, P, 30, cert)
    assert len(calls) == 60
    assert repr(second.rows) == repr(first.rows)
    for row in mlp._family_table(P, 30):
        for a in row[1:5]:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0


def test_family_table_interleaved_calls_equal_fresh_results():
    # 12 distinct (p, n_max) keys, more than the cache holds, so some are evicted and rebuilt
    keys = [(p, n_max) for n_max in (7, 30, 1, 64) for p in PARAMS] + [(P, 7), (PARAMS[2], 30)]
    nets = {p: _net_for(p, (16, 16), "untrained") for p in PARAMS}
    for p, n_max in keys:
        rep = mlp.instability_eval(nets[p], p, n_max, fam.separation_certificate(p))
        assert repr(rep.rows) == repr(_reference_instability_rows(nets[p], p, n_max, rep.lipschitz_bound))
