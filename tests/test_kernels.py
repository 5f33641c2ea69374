"""Kernel parity.

The grid scan, on int64 and on Python ints, must match the sweep of every box
point in tests/grid_reference.py, and the primal-dual kernel must return the
bytes of the all-numpy loop it replaced.
"""

import random
import tracemalloc

import numpy as np
import pytest

from qcbplab import _kernels as kern
from qcbplab import families, qcbp
from qcbplab.rationals import dyadic_sqrt_upper, operator_norm_sq_upper

import grid_reference
import pd_reference


def rand_problem(rng, m, n, k):
    coeffs = np.array([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)], dtype=object)
    shift = np.array([rng.randint(-40, 40) for _ in range(m)], dtype=object)
    rhs = rng.randint(0, 4000)
    return coeffs, shift, rhs, k


def test_spiral_values_order():
    assert grid_reference.spiral_values(3).tolist() == [0, 1, -1, 2, -2, 3, -3]
    assert kern._spiral_value(np.arange(7)).tolist() == [0, 1, -1, 2, -2, 3, -3]


def test_scan_numpy_matches_py_reference():
    rng = random.Random(41)
    for _ in range(30):
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        coeffs, shift, rhs, k = rand_problem(rng, m, n, rng.randint(1, 12))
        ref_obj, ref_p = grid_reference._scan_py(coeffs, shift, rhs, k)
        np_obj, np_p = kern.grid_scan(coeffs, shift, rhs, k, exact_fallback=False)
        assert np_obj == ref_obj
        if ref_obj >= 0:
            assert np_p.tolist() == ref_p.tolist()


def test_scan_infeasible_reports_minus_one():
    coeffs = np.array([[1, 1]], dtype=object)
    shift = np.array([10**6], dtype=object)
    obj, _ = kern.grid_scan(coeffs, shift, rhs=0, k=2, exact_fallback=True)
    assert obj == -1


def test_scan_dispatcher_matches_fallback():
    rng = random.Random(42)
    for _ in range(10):
        coeffs, shift, rhs, k = rand_problem(rng, 2, 3, 6)
        a = kern.grid_scan(coeffs, shift, rhs, k, exact_fallback=False)
        b = kern.grid_scan(coeffs, shift, rhs, k, exact_fallback=True)
        assert a[0] == b[0]
        if a[0] >= 0:
            assert a[1].tolist() == b[1].tolist()



def _q(coeffs, shift, p):
    return sum((sum(int(c) * v for c, v in zip(row, p)) - int(s)) ** 2 for row, s in zip(coeffs, shift))


def _parity_case(rng, kind):
    """One scan problem of the given kind, with a box of at most about 2,500 points."""
    n = rng.randint(1, 4)
    k = rng.randint(0, (12, 12, 6, 3)[n - 1])
    coeffs, shift, rhs, k = rand_problem(rng, rng.randint(1, 3), n, k)
    if kind == "zero_last_column":
        coeffs[:, -1] = 0
    elif kind == "infeasible":
        shift[:] = [rng.choice((-1, 1)) * (100 * k + 200) for _ in shift]
    elif kind == "rhs_attained":
        # rhs equal to q at a grid point puts an interval endpoint on the grid
        rhs = _q(coeffs, shift, [rng.randint(-k, k) for _ in range(n)])
    elif kind == "tied_prefixes":
        # equal or opposite columns give many prefixes the same objective
        col = [rng.randint(-4, 4) for _ in coeffs]
        for j in range(n):
            sign = rng.choice((-1, 1))
            coeffs[:, j] = [sign * c for c in col]
        rhs = rng.randint(0, 60)
    elif kind == "past_int64":
        # the same problem scaled so every square sum is far past int64;
        # scaling keeps the feasible set, so the argmin is compared too
        coeffs, shift, rhs = coeffs * 10**30, shift * 10**30, rhs * 10**60
    elif kind == "k0_wide_last_column":
        # for k = 0 the last column's sum of squares would wrap in int64
        k = 0
        coeffs[:, -1] = [rng.choice((-1, 1)) * (2**32 + rng.randint(0, 2**40)) for _ in coeffs]
        rhs = _q(coeffs, shift, [0] * n) - rng.randint(0, 1)
    return coeffs, shift, rhs, k


@pytest.mark.parametrize("block", [kern._PREFIX_BLOCK, 5])
def test_int64_scan_matches_py_reference_randomized(block, monkeypatch):
    """A small prefix block splits boxes, so ties across blocks are compared too.

    The past-int64 kind runs on Python ints, every other kind on int64.
    """
    monkeypatch.setattr(kern, "_PREFIX_BLOCK", block)
    rng = random.Random(2024)
    kinds = (
        "random", "zero_last_column", "infeasible", "rhs_attained", "tied_prefixes", "k0_wide_last_column",
        "past_int64",
    )
    seen = {kind: 0 for kind in kinds}
    for case in range(2450):  # 350 cases of each kind
        kind = kinds[case % len(kinds)]
        coeffs, shift, rhs, k = _parity_case(rng, kind)
        ref_obj, ref_p = grid_reference._scan_py(coeffs, shift, rhs, k)
        obj, p = kern.grid_scan(coeffs, shift, rhs, k, exact_fallback=kind == "past_int64")
        assert (obj, p.tolist()) == (ref_obj, ref_p.tolist()), (kind, coeffs.tolist(), shift.tolist(), rhs, k)
        seen[kind] += ref_obj >= 0
    # every kind except the infeasible one has feasible cases to compare argmins on
    assert seen["infeasible"] == 0
    assert all(seen[kind] > 50 for kind in kinds if kind != "infeasible")


def test_int64_scan_memory_stays_blocked():
    """The N=3, k=256 box (513**3 points) scans in bounded memory."""
    coeffs = np.array([[1, 1, 1]], dtype=object)
    shift = np.array([256], dtype=object)
    tracemalloc.start()
    try:
        obj, p = kern.grid_scan(coeffs, shift, 0, 256, exact_fallback=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (obj, p.tolist()) == (256, [0, 0, 256])
    assert peak <= 8 * 2**20


# --- primal-dual kernel -----------------------------------------------------------


def _pd_same_bytes(K, y, eps, tau, sigma, x, z, xbar, iters, n_pairs):
    """Run both loops on one state; x, z and xbar must agree byte for byte."""
    args = (K, y, eps, tau, sigma, x, z, xbar, iters, n_pairs)
    with np.errstate(all="ignore"):  # the huge-entry case overflows; only bytes are compared
        want = pd_reference.pd_iterate(*args)
        got = kern.pd_iterate(*args)
    for name, w, g in zip(("x", "z", "xbar"), want, got):
        assert type(g) is np.ndarray and g.dtype == np.float64 and g.shape == w.shape, name
        assert g.tobytes() == w.tobytes(), (name, w.tolist(), g.tolist())


def _realified(a):
    """[[Re a, -Im a], [Im a, Re a]] as a C-contiguous float64 array."""
    return np.ascontiguousarray(np.block([[a.real, -a.imag], [a.imag, a.real]]))


@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_pd_iterate_matches_reference_on_generic_shapes(m, cplx):
    """Every generic-solve shape (N = m+1..m+4), from zero and from a mid-run state."""
    rng = np.random.default_rng(100 * m + cplx)
    for n in range(m + 1, m + 5):
        for eps in (0.0, 0.125, 0.5):
            a = rng.uniform(-3, 3, (m, n)) + (1j * rng.uniform(-3, 3, (m, n)) if cplx else 0)
            b = rng.uniform(-0.5, 0.5, m) + (1j * rng.uniform(-0.5, 0.5, m) if cplx else 0)
            K = _realified(a)
            y = np.concatenate([np.real(b), np.imag(b)])
            step = 1.0 / float(np.linalg.norm(K, 2))
            for iters in (1, 250):
                zero = (np.zeros(2 * n), np.zeros(2 * m), np.zeros(2 * n))
                mid = (rng.normal(size=2 * n), rng.normal(size=2 * m), rng.normal(size=2 * n))
                for x, z, xbar in (zero, mid):
                    _pd_same_bytes(K, y, eps, step, step, x, z, xbar, iters, n)


@pytest.mark.parametrize("which", [1, 2])
def test_pd_iterate_matches_reference_on_families(which):
    """Both perturbation families at n = 1, 14..17 and 50, as solve_numeric sets them up."""
    p = families.FamilyParams()
    for n in (1, 14, 15, 16, 17, 50):
        inst = families.perturbed_instance(which, n, p)
        K, y, _ = qcbp._realified(inst)
        step = 1.0 / float(dyadic_sqrt_upper(operator_norm_sq_upper(inst.A)))
        eps = float(inst.eps)
        x, z, xbar = np.zeros(2 * inst.n), np.zeros(2 * inst.m), np.zeros(2 * inst.n)
        for iters in (1, 250, 250):  # each batch starts where the one before stopped
            _pd_same_bytes(K, y, eps, step, step, x, z, xbar, iters, inst.n)
            x, z, xbar = kern.pd_iterate(K, y, eps, step, step, x, z, xbar, iters, inst.n)


K_EDGE = np.array([[1.0, -2.0, 0.5, 3.0], [0.25, 1.0, -1.0, 2.0]])


@pytest.mark.parametrize(
    "K, y, eps, tau, x, z, xbar",
    [
        pytest.param(
            K_EDGE, [0.0, -0.0], 0.5, 0.3, [0.0, -0.0, 5e-324, -5e-324], [-0.0, 0.0], [-0.0, 5e-324, 0.0, -0.0],
            id="signed-zeros-and-subnormals",
        ),
        pytest.param(
            K_EDGE, [1.0, 0.0], 0.5, 0.3, [1e300, -1e300, 1e300, 1e-300], [1e300, -1e300], [1e300, 0.0, -1e300, 1.0],
            id="huge-entries-overflow-to-inf",
        ),
        pytest.param(
            K_EDGE, [1.0, 0.5], 0.25, 0.3, [np.nan, 1.0, 0.0, 2.0], [0.5, 0.5], [1.0, 1.0, 1.0, 1.0], id="nan-in-x",
        ),
        pytest.param(
            K_EDGE, [1.0, 0.5], 0.25, 0.3, [1.0, 1.0, 0.0, 2.0], [np.nan, 0.5], [1.0, np.nan, 1.0, 1.0],
            id="nan-in-z-and-xbar",
        ),
        pytest.param(
            K_EDGE, [0.0, 0.0], 0.5, 0.3, [1.0, -2.0, 0.0, 0.5], [0.0, 0.0], [0.0, 0.0, 0.0, 0.0],
            id="zero-dual-norm",
        ),
        pytest.param(
            K_EDGE, [1.0, -0.5], 0.0, 0.3, [0.2, -0.1, 0.3, 0.0], [0.1, 0.2], [0.2, -0.1, 0.3, 0.0], id="eps-zero",
        ),
        pytest.param(
            # zero dual norm leaves w = x, and |(3, -4)| = 5 = tau shrinks the
            # pair to (0.0, -0.0) exactly
            np.zeros((2, 4)), [0.0, 0.0], 0.5, 5.0, [3.0, 1.0, -4.0, 0.0], [0.0, 0.0], [0.0, 0.0, 0.0, 0.0],
            id="pair-shrinks-to-zero",
        ),
    ],
)
@pytest.mark.parametrize("iters", [1, 250])
def test_pd_iterate_matches_reference_on_edge_cases(K, y, eps, tau, x, z, xbar, iters):
    arr = lambda v: np.array(v, dtype=np.float64)
    _pd_same_bytes(arr(K), arr(y), eps, tau, 0.4, arr(x), arr(z), arr(xbar), iters, 2)


def test_pd_iterate_pair_shrink_edge_is_exact():
    """The pair-shrink case above really lands on signed zeros after one step."""
    x, _, xbar = kern.pd_iterate(
        np.zeros((2, 4)), np.zeros(2), 0.5, 5.0, 0.4, np.array([3.0, 1.0, -4.0, 0.0]), np.zeros(2), np.zeros(4), 1, 2
    )
    assert x.tobytes() == np.array([0.0, 0.0, -0.0, 0.0]).tobytes()
    assert xbar.tobytes() == np.array([-3.0, -1.0, 4.0, 0.0]).tobytes()
