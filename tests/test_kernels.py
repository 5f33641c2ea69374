"""Grid-scan parity: the int64 numpy scan must match the object-int reference."""

import random

import numpy as np

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
        np_obj, np_p = kern._scan_numpy(
            np.ascontiguousarray(coeffs, dtype=np.int64),
            np.ascontiguousarray(shift, dtype=np.int64),
            np.int64(rhs),
            k,
        )
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

