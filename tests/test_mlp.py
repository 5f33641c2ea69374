"""Network, training-data and instability-bound tests."""

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
    a, ta = mlp.train(net, data.inputs, data.targets, steps=200, lr=0.02, seed=5)
    b, tb = mlp.train(net, data.inputs, data.targets, steps=200, lr=0.02, seed=5)
    assert ta == tb
    assert all(np.array_equal(w1, w2) for w1, w2 in zip(a.weights, b.weights))
    assert all(np.array_equal(b1, b2) for b1, b2 in zip(a.biases, b.biases))


def test_minibatch_deterministic_under_seed():
    data = mlp.gen_training_set(P, 1, 8, seed=3)
    net = mlp.init_mlp((6, 16, 4), seed=6)
    a, _ = mlp.train(net, data.inputs, data.targets, steps=50, lr=0.02, seed=9, batch_size=4)
    b, _ = mlp.train(net, data.inputs, data.targets, steps=50, lr=0.02, seed=9, batch_size=4)
    assert all(np.array_equal(w1, w2) for w1, w2 in zip(a.weights, b.weights))


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
    cert = fam.separation_certificate(P, 30)
    net = mlp.init_mlp((6, 64, 64, 4), seed=3)
    rep = mlp.instability_eval(net, P, 30, cert)
    assert rep.conflict_holds()
    slacks = [r.lip_slack for r in rep.rows]
    assert all(b < a for a, b in zip(slacks, slacks[1:]))  # gap halves each step
    gaps = [r.gap for r in rep.rows]
    assert gaps[0] == pytest.approx(2**-1 * 2**0.5, rel=1e-12)


def test_checkpoint_roundtrip(tmp_path):
    net = mlp.init_mlp((6, 12, 4), seed=31)
    path = str(tmp_path / "ckpt.json")
    mlp.save_checkpoint(net, path)
    again = mlp.load_checkpoint(path)
    x = np.linspace(-1, 1, 6)
    assert np.array_equal(mlp.forward(net, x), mlp.forward(again, x))
    assert again.widths == net.widths


def test_train_rejects_empty_batch():
    net = mlp.init_mlp((6, 4, 4), seed=1)
    with pytest.raises(ValueError, match="empty"):
        mlp.train(net, np.zeros((0, 6)), np.zeros((0, 4)), steps=5, lr=0.1)


# --- flat-buffer training against the per-layer reference ---------------------------

def _reference_train(weights, biases, inputs, targets, steps, lr, seed=0, batch_size=None):
    """Per-layer gradient descent: separate arrays, a fresh gradient per step,
    per-layer updates and per-layer finite checks.  ``mlp.train`` must match
    it bit for bit."""
    weights = [w.copy() for w in weights]
    biases = [b.copy() for b in biases]
    depth = len(weights)

    def loss_and_grads(xs, ts):
        pre, act = [], [xs]
        a = xs
        for ell, (w, b) in enumerate(zip(weights, biases)):
            z = a @ w.T + b
            pre.append(z)
            a = np.maximum(z, 0.0) if ell < depth - 1 else z
            act.append(a)
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

    rng = np.random.default_rng(seed)
    trace, last = [], float("nan")
    for step in range(steps):
        if batch_size is None:
            bx, bt = inputs, targets
        else:
            idx = rng.permutation(inputs.shape[0])[:batch_size]
            bx, bt = inputs[idx], targets[idx]
        loss, gw, gb = loss_and_grads(bx, bt)
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


@pytest.mark.parametrize("batch_size", [None, 4])
@pytest.mark.parametrize("hidden", [16, 32, 64])
def test_train_matches_per_layer_reference(hidden, batch_size):
    data = mlp.gen_training_set(P, 1, 8, noise_bound=Q(1, 16), seed=hidden)
    net = mlp.init_mlp((6, hidden, hidden, 4), seed=hidden)
    before_w = [w.copy() for w in net.weights]
    before_b = [b.copy() for b in net.biases]
    out, trace = mlp.train(net, data.inputs, data.targets, 300, 0.02, seed=11, batch_size=batch_size)
    ref_w, ref_b, ref_trace = _reference_train(
        before_w, before_b, data.inputs, data.targets, 300, 0.02, seed=11, batch_size=batch_size
    )
    assert trace == ref_trace
    assert _same_bits(out.weights, ref_w) and _same_bits(out.biases, ref_b)
    assert _same_bits(net.weights, before_w) and _same_bits(net.biases, before_b)
    assert not any(
        np.shares_memory(x, y) for x in out.weights + out.biases for y in net.weights + net.biases
    )


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


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0, -0.1])
def test_train_rejects_nonpositive_or_nonfinite_lr(lr):
    net = mlp.init_mlp((6, 4, 4), seed=1)
    with pytest.raises(ValueError, match="positive and finite"):
        mlp.train(net, np.zeros((2, 6)), np.zeros((2, 4)), steps=5, lr=lr)


@pytest.mark.parametrize("batch_size", [0, -1, 2.5])
def test_train_rejects_batch_size_below_one_or_not_integer(batch_size):
    net = mlp.init_mlp((6, 4, 4), seed=1)
    with pytest.raises(ValueError, match="batch_size"):
        mlp.train(net, np.ones((3, 6)), np.ones((3, 4)), steps=3, lr=0.1, batch_size=batch_size)


@pytest.mark.parametrize("n_max", [0, -1])
def test_instability_eval_rejects_empty_range(n_max):
    cert = fam.separation_certificate(P, 30)
    net = mlp.init_mlp((6, 8, 4), seed=1)
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        mlp.instability_eval(net, P, n_max, cert)
