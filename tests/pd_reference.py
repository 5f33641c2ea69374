"""The all-numpy primal-dual loop, kept verbatim as the kernel's parity reference.

``qcbplab._kernels.pd_iterate`` runs the element-wise steps of this loop on
Python floats; the tests assert that both return the same bytes.
"""

import math

import numpy as np


def pd_iterate(K, y, eps, tau, sigma, x, z, xbar, iters, n_pairs):
    Kt = K.T
    for _ in range(iters):
        u = z + sigma * (K @ xbar) - sigma * y
        nrm = math.sqrt(float(np.dot(u, u)))
        factor = max(0.0, 1.0 - sigma * eps / nrm) if nrm > 0 else 0.0
        z_new = u * factor
        w = x - tau * (Kt @ z_new)
        x_new = w.copy()
        for i in range(n_pairs):
            a, b = w[i], w[n_pairs + i]
            mag = math.sqrt(a * a + b * b)
            f = max(0.0, 1.0 - tau / mag) if mag > 0 else 0.0
            x_new[i] = a * f
            x_new[n_pairs + i] = b * f
        xbar = 2.0 * x_new - x
        x, z = x_new, z_new
    return x, z, xbar
