"""Finite-difference gradient oracle for the network, shared by the tests."""

import numpy as np

from qcbplab.mlp import MLP, forward


def numerical_gradients(net: MLP, inputs: np.ndarray, targets: np.ndarray, h: float = 1e-6):
    """Central finite differences of the loss; the independent gradient oracle."""
    grads_w = [np.zeros_like(w) for w in net.weights]
    grads_b = [np.zeros_like(b) for b in net.biases]

    def loss_at() -> float:
        batch = inputs.shape[0]
        diff = forward(net, inputs) - targets
        return float(np.sum(diff * diff) / batch)

    for ell in range(net.depth):
        w = net.weights[ell]
        for idx in np.ndindex(w.shape):
            orig = w[idx]
            w[idx] = orig + h
            up = loss_at()
            w[idx] = orig - h
            down = loss_at()
            w[idx] = orig
            grads_w[ell][idx] = (up - down) / (2 * h)
        b = net.biases[ell]
        for idx in np.ndindex(b.shape):
            orig = b[idx]
            b[idx] = orig + h
            up = loss_at()
            b[idx] = orig - h
            down = loss_at()
            b[idx] = orig
            grads_b[ell][idx] = (up - down) / (2 * h)
    return grads_w, grads_b
