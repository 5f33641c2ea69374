"""Grid-scan parity: the int64 numpy scan must match the object-int reference."""

import random
import tracemalloc

import numpy as np
import pytest

from qcbplab import _kernels as kern


def rand_problem(rng, m, n, k):
    coeffs = np.array([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)], dtype=object)
    shift = np.array([rng.randint(-40, 40) for _ in range(m)], dtype=object)
    rhs = rng.randint(0, 4000)
    return coeffs, shift, rhs, k


def test_spiral_values_order():
    assert kern.spiral_values(3).tolist() == [0, 1, -1, 2, -2, 3, -3]


def test_scan_numpy_matches_py_reference():
    rng = random.Random(41)
    for _ in range(30):
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        coeffs, shift, rhs, k = rand_problem(rng, m, n, rng.randint(1, 12))
        ref_obj, ref_p = kern._scan_py(coeffs, shift, rhs, k)
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
    elif kind == "k0_wide_last_column":
        # for k = 0 the last column's sum of squares would wrap in int64
        k = 0
        coeffs[:, -1] = [rng.choice((-1, 1)) * (2**32 + rng.randint(0, 2**40)) for _ in coeffs]
        rhs = _q(coeffs, shift, [0] * n) - rng.randint(0, 1)
    return coeffs, shift, rhs, k


@pytest.mark.parametrize("block", [kern._PREFIX_BLOCK, 5])
def test_int64_scan_matches_py_reference_randomized(block, monkeypatch):
    """A small prefix block splits boxes, so ties across blocks are compared too."""
    monkeypatch.setattr(kern, "_PREFIX_BLOCK", block)
    rng = random.Random(2024)
    kinds = ("random", "zero_last_column", "infeasible", "rhs_attained", "tied_prefixes", "k0_wide_last_column")
    seen = {kind: 0 for kind in kinds}
    for case in range(2100):
        kind = kinds[case % len(kinds)]
        coeffs, shift, rhs, k = _parity_case(rng, kind)
        ref_obj, ref_p = kern._scan_py(coeffs, shift, rhs, k)
        obj, p = kern.grid_scan(coeffs, shift, rhs, k, exact_fallback=False)
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
