"""Kernel parity.

The grid scan, on int64 and on Python ints, must match the sweep of every box
point in tests/grid_reference.py, and the primal-dual kernel, in its general
loop, its one-row real loop and its real loop of two or more rows, each in its
full and its shift variant, must return the bytes of the all-numpy loop it
replaced, also where it stops at a fixed point or hands a batch over.  The
solves of each real loop have a byte replay against a recorded digest; the
one-row step of two columns, which forms K xbar in Python, also has a test
of the BLAS property it rests on, and the real loops' signed factor a test
of the identity it rests on.
"""

import functools
import hashlib
import inspect
import json
import math
import random
import tracemalloc
from fractions import Fraction as Q
from pathlib import Path
from struct import pack, unpack

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcbplab import _kernels as kern
from qcbplab import families, qcbp
from qcbplab.rationals import RationalMatrix, RationalVector, dyadic_sqrt_upper

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


_PARITY_KINDS = (
    "random", "zero_last_column", "infeasible", "rhs_attained", "tied_prefixes", "k0_wide_last_column",
    "past_int64",
)


@functools.cache
def _parity_cases():
    """2,450 scan problems, 350 of each kind, each with the pure-Python reference's result.

    Built once, so both block sizes compare against one reference sweep.
    """
    rng = random.Random(2024)
    cases = []
    for case in range(2450):
        kind = _PARITY_KINDS[case % len(_PARITY_KINDS)]
        coeffs, shift, rhs, k = _parity_case(rng, kind)
        ref_obj, ref_p = grid_reference._scan_py(coeffs, shift, rhs, k)
        cases.append((kind, coeffs, shift, rhs, k, ref_obj, ref_p.tolist()))
    return cases


@pytest.mark.parametrize("block", [kern._PREFIX_BLOCK, 5])
def test_int64_scan_matches_py_reference_randomized(block, monkeypatch):
    """A small prefix block splits boxes, so ties across blocks are compared too.

    The past-int64 kind runs on Python ints, every other kind on int64.
    """
    monkeypatch.setattr(kern, "_PREFIX_BLOCK", block)
    seen = {kind: 0 for kind in _PARITY_KINDS}
    for kind, coeffs, shift, rhs, k, ref_obj, ref_p in _parity_cases():
        obj, p = kern.grid_scan(coeffs, shift, rhs, k, exact_fallback=kind == "past_int64")
        assert (obj, p.tolist()) == (ref_obj, ref_p), (kind, coeffs.tolist(), shift.tolist(), rhs, k)
        seen[kind] += ref_obj >= 0
    # every kind except the infeasible one has feasible cases to compare argmins on
    assert seen["infeasible"] == 0
    assert all(seen[kind] > 50 for kind in _PARITY_KINDS if kind != "infeasible")


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
    """Run both loops on one state; x, z and xbar must agree byte for byte.  The kernel reads n_pairs from K."""
    args = (K, y, eps, tau, sigma, x, z, xbar, iters)
    with np.errstate(all="ignore"):  # the huge-entry case overflows; only bytes are compared
        want = pd_reference.pd_iterate(*args, n_pairs)
        got = kern.pd_iterate(*args)
    for name, w, g in zip(("x", "z", "xbar"), want, got):
        assert type(g) is np.ndarray and g.dtype == np.float64 and g.shape == w.shape, name
        assert g.tobytes() == w.tobytes(), (name, w.tolist(), g.tolist())


def _realified(a):
    """[[Re a, -Im a], [Im a, Re a]] as a C-contiguous float64 array; -Im a is
    formed as 0.0 - Im a, so a real a gets +0.0 blocks, as qcbp._realified builds them."""
    return np.ascontiguousarray(np.block([[a.real, 0.0 - a.imag], [a.imag, a.real]]))


def _real_half(v):
    """v with its imaginary half replaced by +0.0."""
    return np.concatenate([v[: len(v) // 2], np.zeros(len(v) // 2)])


def _kind(key):
    """The loop a ``_pd_loop`` key (rows, cols, real, shift) builds: ``row``, ``real`` or ``general``."""
    rows, _, real, _ = key
    return ("row" if rows == 2 else "real") if real else "general"


def _spy(monkeypatch):
    """Replace the loop builder ``kern._pd_loop`` by one whose loops log each run
    in one list: the loop's kind, its key (the shape and the real and shift
    flags), the iterations given and the iterations handed on to the next loop."""
    runs = []
    build = kern._pd_loop

    def spied(*key):
        loop = build(*key)

        def run(*args):
            out = loop(*args)
            runs.append((_kind(key), key, args[-1], out[-1]))
            return out

        return run

    monkeypatch.setattr(kern, "_pd_loop", spied)
    return runs


def _batches(runs):
    """The run log cut into batches, each a list of (kind, shift, given, handed on),
    after checking that each loop of a batch was given what the one before handed on."""
    batches, batch = [], []
    for kind, key, given, left in runs:
        assert not batch or given == batch[-1][3]
        batch.append((kind, key[-1], given, left))
        if not left:
            batches.append(batch)
            batch = []
    assert not batch, "a batch that ends with a hand-off"
    return batches


def _chain(first, shift):
    """The loops, as (kind, shift), that a batch entering ``first`` may run, in
    order; a one-row shift batch skips the full one-row loop."""
    kinds = dict.fromkeys((first, "general"))
    variants = (True, False) if shift else (False,)
    return [(kind, s) for kind in kinds for s in variants if s or not (kind == "row" and shift)]


def _in_range(t):
    """Whether t lies in the range the real loops admit for tau, and for one row for a nonzero sigma * eps."""
    return 2.0**-510 <= t <= 2.0**450


def _assert_chains(batches, firsts, shifts):
    """Each batch ran a prefix of its chain of loops, from its first; of those
    that entered a real loop, more than 20 ran to their end there and more than
    20 reached the general loop; more than 20 of all entered a shift variant,
    and more than 20 did not."""
    assert len(batches) == len(firsts) == len(shifts)
    for batch, first, shift in zip(batches, firsts, shifts):
        assert [run[:2] for run in batch] == _chain(first, shift)[: len(batch)]
    real = [batch for batch, first in zip(batches, firsts) if first != "general"]
    assert 20 < sum(batch[-1][0] == "general" for batch in real) < len(real) - 20
    assert 20 < sum(shifts) < len(shifts) - 20


def _assert_hands_off(batch, first, shift, left):
    """The batch entered ``first``, its shift variant if ``shift``, which handed on
    ``left`` iterations; any real loop after it abandoned the same step at once,
    and the general loops ran the rest."""
    assert [run[:2] for run in batch] == _chain(first, shift)[: len(batch)]
    general = [run[0] for run in batch].index("general")
    assert batch[0][3] == left and all(run[2] == left for run in batch[1 : general + 1])


@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize(
    "m, ns", [pytest.param(m, range(m + 1, m + 5), id=str(m)) for m in (1, 2, 3)] + [pytest.param(10, [50], id="10")]
)
def test_pd_iterate_matches_reference_on_generic_shapes(monkeypatch, m, ns, cplx):
    """Every generic-solve shape (N = m+1..m+4) and one larger one, from zero and
    from a mid-run state, and for a real A also from a mid-run state whose
    imaginary halves are +0.0.  A real batch runs a real loop from both of those
    starts; at eps = 0 every batch enters a shift variant."""
    runs = _spy(monkeypatch)
    first = "general" if cplx else "row" if m == 1 else "real"
    rng = np.random.default_rng(100 * m + cplx)
    for n in ns:
        for eps in (0.0, 0.125, 0.5):
            a = rng.uniform(-3, 3, (m, n)) + (1j * rng.uniform(-3, 3, (m, n)) if cplx else 0)
            b = rng.uniform(-0.5, 0.5, m) + (1j * rng.uniform(-0.5, 0.5, m) if cplx else 0)
            K = _realified(a)
            y = np.concatenate([np.real(b), np.imag(b)])
            step = 1.0 / float(np.linalg.norm(K, 2))
            for iters in (1, 250):
                zero = (np.zeros(2 * n), np.zeros(2 * m), np.zeros(2 * n))
                mid = (rng.normal(size=2 * n), rng.normal(size=2 * m), rng.normal(size=2 * n))
                starts = [zero, mid] if cplx else [zero, mid, tuple(map(_real_half, mid))]
                # the mid state's nonzero imaginary halves send a real A to the general loop
                for (x, z, xbar), entry in zip(starts, (first, "general", first)):
                    runs.clear()
                    _pd_same_bytes(K, y, eps, step, step, x, z, xbar, iters, n)
                    (batch,) = _batches(runs)
                    assert batch[0][:2] == (entry, eps == 0.0), (n, eps, iters)


def test_kernel_signatures_keep_the_positions_the_benchmark_reads():
    """perfbench's tracer reads ``pd_iterate``'s ``args[8]`` (iters) and
    ``grid_scan``'s ``args[0]``, ``[3]`` and ``[4]`` (coeffs, k, exact_fallback)."""
    assert list(inspect.signature(kern.pd_iterate).parameters) == [
        "K", "y", "eps", "tau", "sigma", "x", "z", "xbar", "iters"
    ]
    assert list(inspect.signature(kern.grid_scan).parameters) == ["coeffs", "shift", "rhs", "k", "exact_fallback"]


def test_pd_iterate_builds_one_loop_per_shape(monkeypatch):
    """Calls on one shape and variant, whatever their values, run the loop generated
    for the first; real batches from zero build the real loop of their shape and
    no general loop.  eps = 0 builds the shift variants, each once."""
    built = []
    source = kern._pd_source
    monkeypatch.setattr(kern, "_pd_source", lambda *key: built.append(key) or source(*key))
    kern._pd_loop.cache_clear()
    rng = np.random.default_rng(7)
    for eps in (0.25, 0.0):
        for m, n in ((2, 5), (2, 5), (1, 5)):
            K = _realified(rng.uniform(-3, 3, (m, n)))
            state = (rng.normal(size=2 * n), rng.normal(size=2 * m), rng.normal(size=2 * n))
            kern.pd_iterate(K, rng.normal(size=2 * m), eps, 0.1, 0.1, *state, 3)
        for K in (_one_row([1.5, -2.0, 0.5, 3.0]), _real_op(rng.uniform(-3, 3, (2, 5)))):
            state = (np.zeros(K.shape[1]), np.zeros(K.shape[0]), np.zeros(K.shape[1]))
            y = np.zeros(K.shape[0])
            y[0] = 1.0
            for _ in range(2):
                state = kern.pd_iterate(K, y, eps, 0.1, 0.1, *state, 3)
    assert built == [
        (4, 10, False, False), (2, 10, False, False), (2, 8, True, False), (4, 10, True, False),
        (4, 10, False, True), (2, 10, False, True), (2, 8, True, True), (4, 10, True, True),
    ]


def test_pd_iterate_returns_arrays_no_later_call_writes():
    """The z and xbar of one call keep their bytes through a later call on the same shape."""
    rng = np.random.default_rng(11)
    K = _realified(rng.uniform(-3, 3, (2, 5)))
    y = rng.normal(size=4)
    first = kern.pd_iterate(K, y, 0.25, 0.1, 0.1, rng.normal(size=10), rng.normal(size=4), rng.normal(size=10), 5)
    kept = [v.tobytes() for v in first]
    second = kern.pd_iterate(K, y, 0.25, 0.1, 0.1, rng.normal(size=10), rng.normal(size=4), rng.normal(size=10), 5)
    assert [v.tobytes() for v in second] != kept
    assert [v.tobytes() for v in first] == kept


def test_pd_iterate_builds_no_array_per_step(monkeypatch):
    """A batch builds one array, the returned x: the steps write into per-call buffers."""
    rng = np.random.default_rng(5)
    K, y = _realified(rng.uniform(-3, 3, (2, 4))), rng.normal(size=4)
    state = (rng.normal(size=8), rng.normal(size=4), rng.normal(size=8))
    built = []
    array = np.array
    monkeypatch.setattr(np, "array", lambda *a, **k: built.append(a) or array(*a, **k))
    kern._pd_loop.cache_clear()
    x, _, _ = kern.pd_iterate(K, y, 0.25, 0.1, 0.1, *state, 250)
    kern._pd_loop.cache_clear()
    assert len(built) == 1 and array(built[0][0]).tobytes() == x.tobytes()


def _solver_setup(inst):
    """K, y and the step, as solve_numeric sets them up."""
    scaled, _, norm_sq = qcbp._realified(inst.A, inst.y)
    return *scaled.floats(), 1.0 / float(dyadic_sqrt_upper(norm_sq))


@pytest.mark.parametrize("which", [1, 2])
def test_pd_iterate_matches_reference_on_families(which):
    """Both perturbation families at n = 1, 14..17 and 50, as solve_numeric sets them up."""
    p = families.FamilyParams()
    for n in (1, 14, 15, 16, 17, 50):
        inst = families.perturbed_instance(which, n, p)
        K, y, step = _solver_setup(inst)
        eps = float(inst.eps)
        x, z, xbar = np.zeros(2 * inst.n), np.zeros(2 * inst.m), np.zeros(2 * inst.n)
        for iters in (1, 250, 250):  # each batch starts where the one before stopped
            _pd_same_bytes(K, y, eps, step, step, x, z, xbar, iters, inst.n)
            x, z, xbar = kern.pd_iterate(K, y, eps, step, step, x, z, xbar, iters)


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
        pytest.param(
            # a one-row real K of two columns whose K xbar sums two -0.0
            # products: the zero terms BLAS adds make it +0.0, and so must the
            # two-column step, or the first step's z0 keeps the sign of -0.0
            [[1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 1.0, 2.0]], [0.0, 0.0], 0.25, 0.3,
            [-0.0, -0.0, 0.0, 0.0], [-0.0, 0.0], [-0.0, -0.0, 0.0, 0.0],
            id="two-column-minus-zero-sum",
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
        np.zeros((2, 4)), np.zeros(2), 0.5, 5.0, 0.4, np.array([3.0, 1.0, -4.0, 0.0]), np.zeros(2), np.zeros(4), 1
    )
    assert x.tobytes() == np.array([0.0, 0.0, -0.0, 0.0]).tobytes()
    assert xbar.tobytes() == np.array([-3.0, -1.0, 4.0, 0.0]).tobytes()


# A generic-solve shape (m = 2, N = 4, eps = 1/8) whose iteration from zero
# reaches a bit-exact fixed point within 1,000 iterations, with -0.0 in x.
FIXED_A = [[Q(7, 4), Q(7, 9), Q(-20, 17), Q(-2, 17)], [Q(1, 3), Q(-13, 23), Q(6, 13), Q(-21, 16)]]
FIXED_Y = [Q(-1, 2), Q(3, 16)]


@pytest.fixture(scope="module")
def fixed_point():
    """``(K, y, eps, step, n)`` as solve_numeric sets them up, and the state the iteration settles at."""
    inst = qcbp.Instance(A=RationalMatrix.from_rows(FIXED_A), y=RationalVector.from_items(FIXED_Y), eps=Q(1, 8))
    assert qcbp.solve_numeric(inst).converged
    K, y, step = _solver_setup(inst)
    setup = (K, y, float(inst.eps), step, inst.n)
    zero = (np.zeros(2 * inst.n), np.zeros(2 * inst.m), np.zeros(2 * inst.n))
    state = pd_reference.pd_iterate(K, y, float(inst.eps), step, step, *zero, 1000, inst.n)
    after = pd_reference.pd_iterate(K, y, float(inst.eps), step, step, *state, 1, inst.n)
    assert [v.tobytes() for v in after] == [v.tobytes() for v in state], "not a fixed point"
    return setup, zero, state


@pytest.mark.parametrize("iters", [0, 1, 250, 10**4])
@pytest.mark.parametrize("start", ["zero", "fixed"])
def test_pd_iterate_matches_reference_at_a_fixed_point(fixed_point, start, iters):
    """From zero the loop reaches the fixed point inside a batch; from the fixed point it stays there."""
    (K, y, eps, step, n), zero, fixed = fixed_point
    x, z, xbar = zero if start == "zero" else fixed
    _pd_same_bytes(K, y, eps, step, step, x, z, xbar, iters, n)


class _CountingK(np.ndarray):
    """An operator that counts its ``.dot`` calls, those of its transpose included."""

    dots = 0

    def dot(self, v):
        _CountingK.dots += 1
        return np.asarray(self).dot(v)


def test_pd_iterate_stops_after_one_iteration_at_a_fixed_point(fixed_point):
    (K, y, eps, step, _), zero, fixed = fixed_point
    counted = K.view(_CountingK)
    _CountingK.dots = 0
    kern.pd_iterate(counted, y, eps, step, step, *zero, 250)
    assert _CountingK.dots == 2 * 250  # the fixed point lies beyond the first batch
    _CountingK.dots = 0
    got = kern.pd_iterate(counted, y, eps, step, step, *fixed, 250)
    assert _CountingK.dots == 2  # K xbar and K^T z of the one iteration that changed nothing
    assert [v.tobytes() for v in got] == [v.tobytes() for v in fixed]


@pytest.mark.parametrize("which", ["x", "xbar"])
@pytest.mark.parametrize("iters", [1, 2, 250])
def test_pd_iterate_fixed_point_is_bit_exact(fixed_point, which, iters):
    """A state float-equal to the fixed point but with one zero of the other sign is not the fixed point."""
    (K, y, eps, step, n), _, (x, z, xbar) = fixed_point
    v = (x if which == "x" else xbar).copy()
    i = next(j for j, e in enumerate(v.tolist()) if e == 0.0)
    v[i] = -v[i]
    x, xbar = (v, xbar) if which == "x" else (x, v)
    assert np.array_equal(x, fixed_point[2][0]) and np.array_equal(xbar, fixed_point[2][2])
    _pd_same_bytes(K, y, eps, step, step, x, z, xbar, iters, n)


# --- the one-row real loop --------------------------------------------------------


def _real_op(a):
    """The realified K of a real A, as solve_numeric sets it up: its zero blocks hold +0.0."""
    a = np.asarray(a, dtype=np.float64)
    m, n = a.shape
    K = np.zeros((2 * m, 2 * n))
    K[:m, :n] = K[m:, n:] = a
    return K


def _one_row(row):
    """The realified K of a real one-row A, as solve_numeric sets it up."""
    return _real_op([row])


def test_pd_iterate_matches_reference_on_one_row_real_edge_values(monkeypatch):
    """400 one-row real batches of widths 2-5 whose K, state and scalars mix normal and edge values.

    The first 200 draw tau and sigma * eps with edge values too; the other 200
    draw tau at or between the bounds of its range and sigma * eps in it or
    +-0.0.  A batch whose tau or nonzero sigma * eps lies outside that range
    runs the general loop; every other one enters the one-row loop, its shift
    variant when sigma * eps is +-0.0.  Some of those hand off to the general
    loop (a NaN, inf or an underflow on the way) and some run to their end.
    """
    runs, firsts, shifts = _spy(monkeypatch), [], []
    rng = random.Random(4242)

    def state_entry():
        return rng.choice((0.0, -0.0, 5e-324, np.inf, -np.inf, np.nan)) if rng.random() < 0.25 else rng.uniform(-3, 3)

    for bounded in [False] * 200 + [True] * 200:
        n = rng.randint(2, 5)
        row = [rng.choice((-1, 1)) * rng.choice((0.0, 2.0**-1070, 2.0**600, rng.uniform(0.1, 3))) for _ in range(n)]
        y = np.array([state_entry(), 0.0])
        if bounded:
            tau = rng.choice((2.0**-510, rng.uniform(0.05, 1), 2.0**450))
            sigma = rng.choice((-rng.uniform(0.05, 1), 0.0, rng.uniform(0.05, 1)))
            eps = rng.choice((0.0, rng.uniform(0, 1)))
            sigma = abs(sigma) if eps else sigma  # sigma * eps in range, or +-0.0
        else:
            tau = rng.choice((0.0, 1e-300, rng.uniform(0.05, 1), 1e300))
            sigma = rng.choice((-rng.uniform(0.05, 1), 0.0, np.inf, rng.uniform(0.05, 1)))
            eps = rng.choice((0.0, np.inf, np.nan, rng.uniform(0, 1)))
        iters = rng.choice((1, 2, 60, 250))
        x, z, xbar = np.zeros(2 * n), np.zeros(2), np.zeros(2 * n)  # imaginary halves +0.0
        x[:n], z[0], xbar[:n] = [state_entry() for _ in range(n)], state_entry(), [state_entry() for _ in range(n)]
        _pd_same_bytes(_one_row(row), y, eps, tau, sigma, x, z, xbar, iters, n)
        se = sigma * eps
        firsts.append("row" if _in_range(tau) and (se == 0.0 or _in_range(se)) else "general")
        shifts.append(se == 0.0)
    assert firsts[200:] == ["row"] * 200
    _assert_chains(_batches(runs), firsts, shifts)



_ROW_BASE = dict(
    K=_one_row([1.0, -2.0, 0.5]), y=np.array([1.0, 0.0]), tau=0.3,
    x=np.array([0.3, -0.1, 0.2, 0.0, 0.0, 0.0]), z=np.array([0.1, 0.0]), xbar=np.array([0.3, -0.1, 0.2, 0.0, 0.0, 0.0]),
)


def _broken(name, index, value):
    """The base one-row state with one entry of one part replaced."""
    v = _ROW_BASE[name].copy()
    v[index] = value
    return {name: v}


@pytest.mark.parametrize(
    "change, dots_per_step",
    [
        pytest.param({}, 1, id="one-row-real"),
        pytest.param(_broken("K", (0, 4), -0.0), 2, id="minus-zero-in-K-top-right"),
        pytest.param(_broken("K", (1, 0), -0.0), 2, id="minus-zero-in-K-bottom-left"),
        pytest.param(_broken("K", (0, 1), np.inf), 2, id="K-not-finite"),
        pytest.param(_broken("y", 1, -0.0), 2, id="minus-zero-in-y1"),
        pytest.param(_broken("x", 3, 1e-300), 2, id="nonzero-imaginary-x"),
        pytest.param(_broken("x", 5, -0.0), 2, id="minus-zero-imaginary-x"),
        pytest.param(_broken("z", 1, -0.0), 2, id="minus-zero-z1"),
        pytest.param(_broken("z", 1, 0.5), 2, id="nonzero-z1"),
        pytest.param(_broken("xbar", 4, -0.0), 2, id="minus-zero-imaginary-xbar"),
        pytest.param({"tau": -0.3}, 2, id="negative-tau"),
        pytest.param({"tau": np.inf}, 2, id="infinite-tau"),
        pytest.param({"tau": np.nan}, 2, id="nan-tau"),
    ],
)
@pytest.mark.parametrize("iters", [1, 3])
def test_pd_iterate_one_row_entry_conditions(change, dots_per_step, iters):
    """Each entry condition broken on its own sends the batch to the general loop,
    two BLAS products a step; with all of them held, the batch makes one."""
    case = {**_ROW_BASE, **change}
    K = case["K"]
    _CountingK.dots = 0
    with np.errstate(all="ignore"):
        kern.pd_iterate(K.view(_CountingK), case["y"], 0.25, case["tau"], 0.4, case["x"], case["z"], case["xbar"], iters)
    assert _CountingK.dots == dots_per_step * iters
    _pd_same_bytes(K, case["y"], 0.25, case["tau"], 0.4, case["x"], case["z"], case["xbar"], iters, 3)


def test_pd_iterate_one_row_real_solve_makes_one_blas_call_per_step():
    """A family solve's first batch, from zero as solve_numeric sets it up, makes
    no BLAS call at two columns, where K xbar is formed in Python, and one gemv
    a step and no other BLAS call at three."""
    for n_dim, dots in ((2, 0), (3, 250)):
        inst = families.perturbed_instance(1, 14, families.FamilyParams(n_dim=n_dim))
        K, y, step = _solver_setup(inst)
        zero = (np.zeros(2 * inst.n), np.zeros(2), np.zeros(2 * inst.n))
        _CountingK.dots = 0
        got = kern.pd_iterate(K.view(_CountingK), y, float(inst.eps), step, step, *zero, 250)
        assert _CountingK.dots == dots, n_dim
        want = pd_reference.pd_iterate(K, y, float(inst.eps), step, step, *zero, 250, inst.n)
        assert [v.tobytes() for v in got] == [v.tobytes() for v in want]


@pytest.mark.parametrize(
    "row, y0, tau, z0, step, iters",
    [
        # z falls by 1/2 a step; at 0.25, its product with 5e-324 rounds to zero
        pytest.param([0.5, 5e-324], 0.5, 1.0, 1.75, 2, 60, id="underflowing-product"),
        # z grows by 1e306 a step until it overflows
        pytest.param([1.0, 0.5], -1e306, 2.0**-510, 0.0, 179, 181, id="overflowing-dual"),
    ],
)
def test_pd_iterate_one_row_hands_off_mid_batch(monkeypatch, row, y0, tau, z0, step, iters):
    """A step that the one-row loop cannot take byte for byte hands the rest of the batch,
    from the state it started with, to the general loop, at two columns and with
    a third, zero column, which takes the same steps.  eps = 2**-510, the least
    sigma * eps the full one-row loop takes, keeps the factor at 1.0, as eps = 0
    does, but runs the full variant; the shift variant hands on to the general
    loop's."""
    runs = _spy(monkeypatch)
    for n in (2, 3):
        K, y, x = _one_row(row + [0.0] * (n - 2)), np.array([y0, 0.0]), np.zeros(2 * n)
        z = np.array([z0, 0.0])
        # the gemvs of a step and of an abandoned one, which makes K xbar alone: a
        # general step makes two, a one-row step one at three columns, none at two
        gemvs = {"row": (n - 2, n - 2), "general": (2, 1)}
        for eps in (0.0, 2.0**-510):
            runs.clear()
            _CountingK.dots = 0
            with np.errstate(all="ignore"):
                kern.pd_iterate(K.view(_CountingK), y, eps, tau, 1.0, x, z, x, iters)
            (batch,) = _batches(runs)
            _assert_hands_off(batch, "row", eps == 0.0, iters - step)
            assert _CountingK.dots == sum(
                gemvs[kind][0] * (given - left) + gemvs[kind][1] * (left > 0) for kind, _, given, left in batch
            )
            _pd_same_bytes(K, y, eps, tau, 1.0, x, z, x, iters, n)



# --- the real loop of two or more rows ------------------------------------------


def test_pd_iterate_matches_reference_on_real_edge_values(monkeypatch):
    """400 real batches of 2-4 rows whose K, state and scalars mix normal and edge values.

    The first 200 draw tau with edge values too, the other 200 at or between
    the bounds of its range.  A batch whose tau lies outside that range runs
    the general loop; every other one enters the real loop, its shift variant
    when sigma * eps is +-0.0.  Some of those hand the rest of their batch to
    the general loop (a NaN or an inf on the way) and some run to their end.  The
    NaN put in is the one an invalid operation such as inf * 0 makes, so every
    NaN of a batch has the same bytes: where NaNs of both signs meet in a BLAS
    sum, the sign of the result depends on BLAS's order of operations, which
    varies between calls, and no loop, the reference included, fixes it.
    """
    runs, firsts, shifts = _spy(monkeypatch), [], []
    rng = random.Random(4343)
    nan = np.inf * 0.0
    edges = (0.0, -0.0, 5e-324, np.inf, -np.inf, nan, 2.0**600, -(2.0**-600))

    def entry(edge):
        return rng.choice(edge) if rng.random() < 0.2 else rng.uniform(-3, 3)

    for bounded in [False] * 200 + [True] * 200:
        m, n = rng.randint(2, 4), rng.randint(2, 5)
        K = _real_op([[entry(edges[:3] + edges[6:]) for _ in range(n)] for _ in range(m)])  # finite
        y, x, z, xbar = np.zeros(2 * m), np.zeros(2 * n), np.zeros(2 * m), np.zeros(2 * n)  # imaginary halves +0.0
        y[:m], z[:m] = [entry(edges) for _ in range(m)], [entry(edges) for _ in range(m)]
        x[:n], xbar[:n] = [entry(edges) for _ in range(n)], [entry(edges) for _ in range(n)]
        if bounded:
            tau = rng.choice((2.0**-510, rng.uniform(0.05, 1), 2.0**450))
        else:
            tau = rng.choice((0.0, 1e-300, rng.uniform(0.05, 1), 1e300))
        sigma = rng.choice((-rng.uniform(0.05, 1), 0.0, np.inf, rng.uniform(0.05, 1)))
        eps = rng.choice((0.0, np.inf, nan, rng.uniform(0, 1)))
        iters = rng.choice((1, 2, 40))
        _pd_same_bytes(K, y, eps, tau, sigma, x, z, xbar, iters, n)
        firsts.append("real" if _in_range(tau) else "general")
        shifts.append(sigma * eps == 0.0)
    assert firsts[200:] == ["real"] * 200
    _assert_chains(_batches(runs), firsts, shifts)


_REAL_BASE = dict(
    K=_real_op([[1.0, -2.0, 0.5], [0.25, 1.5, -1.0]]), y=np.array([1.0, -0.5, 0.0, 0.0]), tau=0.3,
    x=np.array([0.3, -0.1, 0.2, 0.0, 0.0, 0.0]), z=np.array([0.1, 0.2, 0.0, 0.0]),
    xbar=np.array([0.3, -0.1, 0.2, 0.0, 0.0, 0.0]),
)


def _real_broken(name, index, value):
    """The base two-row real state with one entry of one part replaced."""
    v = _REAL_BASE[name].copy()
    v[index] = value
    return {name: v}


@pytest.mark.parametrize(
    "change",
    [
        pytest.param({}, id="real"),
        *(
            pytest.param(_real_broken("K", (i, j), value), id=f"{label}-in-K{i}{j}")
            for i, j in ((0, 3), (1, 5), (2, 0), (3, 2))  # both off-diagonal blocks
            for label, value in (("minus-zero", -0.0), ("nonzero", 0.5))
        ),
        pytest.param(_real_broken("K", (0, 1), np.inf), id="K-infinite"),
        pytest.param(_real_broken("K", (3, 4), np.nan), id="K-nan"),
        *(
            pytest.param(_real_broken(name, index, value), id=f"{label}-in-{name}{index}")
            for name, index in (("y", 3), ("x", 4), ("z", 2), ("xbar", 5))  # imaginary halves
            for label, value in (("minus-zero", -0.0), ("nonzero", 1e-300))
        ),
        pytest.param({"tau": -0.3}, id="negative-tau"),
        pytest.param({"tau": np.inf}, id="infinite-tau"),
        pytest.param({"tau": np.nan}, id="nan-tau"),
    ],
)
def test_pd_iterate_real_entry_conditions(monkeypatch, change):
    """Each entry condition broken on its own sends a two-row batch to the general loop;
    with all of them held, the batch runs to its end in the real loop.  The same
    holds for the shift variants, which eps = 0 selects."""
    runs = _spy(monkeypatch)
    case = {**_REAL_BASE, **change}
    for eps in (0.25, 0.0):
        runs.clear()
        args = (case["K"], case["y"], eps, case["tau"], 0.4, case["x"], case["z"], case["xbar"], 3)
        with np.errstate(all="ignore"):
            kern.pd_iterate(*args)
        (batch,) = _batches(runs)
        assert {run[1][:2] for run in runs} == {(4, 6)}
        if change:  # a NaN on the way may send the general shift variant's batch on to the full one
            assert [run[:2] for run in batch] == _chain("general", eps == 0.0)[: len(batch)]
        else:
            assert batch == [("real", eps == 0.0, 3, 0)]
        _pd_same_bytes(*args, 3)


def test_real_solves_never_run_the_general_loop(monkeypatch):
    """solve_numeric sets every real instance up for a real loop: one-row
    instances run the one-row loop, those of two and three rows the real loop,
    its shift variant at eps = 0."""
    runs = _spy(monkeypatch)
    spied = kern._pd_loop

    def real_only(*key):
        return spied(*key) if key[2] else pytest.fail(f"general loop for {key}")

    monkeypatch.setattr(kern, "_pd_loop", real_only)

    def inst(rows, y, eps=Q(1, 8)):
        return qcbp.Instance(A=RationalMatrix.from_rows(rows), y=RationalVector.from_items(y), eps=eps)

    p = families.FamilyParams()
    three_rows = [
        [Q(3, 2), Q(-1, 3), Q(2, 7), Q(0), Q(5, 4)],
        [Q(-2, 5), Q(7, 8), Q(1, 9), Q(-3, 2), Q(1, 6)],
        [Q(1, 4), Q(2, 3), Q(-5, 6), Q(3, 7), Q(-1, 2)],
    ]
    for case in (
        families.perturbed_instance(1, 3, p),
        families.perturbed_instance(2, 3, p),
        inst([[Q(7, 4), Q(-2, 3), Q(5, 9)]], [Q(-1, 2)]),
        inst(FIXED_A, FIXED_Y),
        inst(three_rows, [Q(1, 3), Q(-1, 4), Q(2, 5)]),
        inst([[Q(7, 4), Q(-2, 3), Q(5, 9)]], [Q(-1, 2)], Q(0)),
        inst(FIXED_A, FIXED_Y, Q(0)),
        inst(three_rows, [Q(1, 3), Q(-1, 4), Q(2, 5)], Q(0)),
    ):
        assert qcbp.solve_numeric(case).converged
    real = {key for kind, key, _, _ in runs if kind == "real"}
    assert real == {(4, 8, True, False), (6, 10, True, False), (4, 8, True, True), (6, 10, True, True)}


def test_pd_iterate_real_hands_off_mid_batch(monkeypatch):
    """A step whose new z is not finite hands the rest of the batch, from the
    state it started with, to the general loop.  Here z0 grows by 1e306 a
    step (eps = 0 and eps = 5e-324 keep the factor at 1; tau = 2**-510, the
    least the real loops take, keeps x small) and overflows at step 179.  From
    the shift variant the full real loop is tried first and abandons the same
    step."""
    runs = _spy(monkeypatch)
    K, y = _real_op([[1.0, 0.5], [0.5, 1.0]]), np.array([-1e306, 0.0, 0.0, 0.0])
    state = (np.zeros(4), np.zeros(4), np.zeros(4))
    for eps in (0.0, 5e-324):
        runs.clear()
        with np.errstate(all="ignore"):
            kern.pd_iterate(K, y, eps, 2.0**-510, 1.0, *state, 181)
        (batch,) = _batches(runs)
        _assert_hands_off(batch, "real", eps == 0.0, 181 - 179)
        _pd_same_bytes(K, y, eps, 2.0**-510, 1.0, *state, 181, 2)


# --- the signed factor of the real loops ---------------------------------------------


def _root_factor(t, w):
    """max(0.0, 1.0 - t / sqrt(w * w)), 0.0 unless sqrt(w * w) > 0: a real pair's
    shrink factor, or the one-row dual factor, formed from the root of the square."""
    mag = math.sqrt(w * w)
    f = 1.0 - t / mag if mag > 0 else 0.0
    return f if f > 0.0 else 0.0


@functools.cache
def _signed_factor():
    """The same factor from the lines ``_kernels._factor`` emits for one real entry w."""
    namespace = {}
    source = "".join(f"    {line}\n" for line in kern._factor("f", "t", ["w"], None))
    exec(f"def factor(t, w):\n{source}    return f\n", namespace)
    return namespace["factor"]


def _same_factor(factor, t, w):
    for v in (w, -w):
        want, got = _root_factor(t, v), factor(t, v)
        assert pack("d", got) == pack("d", want), (t, v, want, got)


# tau, or a nonzero sigma * eps for one row: the bounds of the range the real loops take and values between
_RANGE_T = [2.0**-510, math.nextafter(2.0**-510, 1.0), 1e-100, 0.3, 1.0, 7.5, 1e100, math.nextafter(2.0**450, 0.0), 2.0**450]


def test_signed_factor_is_the_root_of_the_square():
    """For t in [2**-510, 2**450] the factor read from w's sign has the bytes of the
    one from sqrt(w * w), at edge values of w, across the band where w * w stops
    being normal or finite and on 20,000 seeded bit patterns.  Outside the range
    the two differ: w * w underflows to 0 where t / |w| < 1, or overflows where
    t / |w| rounds 1 - t / |w| below 1; and t = 0, one row's sigma * eps = +-0.0,
    differs where w * w underflows, which is why that batch skips the full
    one-row loop."""
    factor = _signed_factor()
    edges = [0.0, 5e-324, 2.0**-1022, 2.0**-600, 1e-300, 0.5, 1.0, 3.0, 1e300, 1.7976931348623157e308, math.inf, math.nan]
    band = [
        v * 2.0**e
        for e in (-538, -537, -512, -511, -510, 510, 511, 512)
        for v in (1.0, math.nextafter(1.0, 2.0), math.nextafter(2.0, 1.0), math.sqrt(2.0), math.nextafter(math.sqrt(2.0), 2.0))
    ]
    rng = random.Random(5050)
    patterns = [unpack("d", pack("Q", rng.getrandbits(64)))[0] for _ in range(20_000)]
    for t in _RANGE_T:
        for w in edges + band + patterns[:: 1 if t in (2.0**-510, 2.0**450) else 10]:
            _same_factor(factor, t, w)
    assert (_root_factor(2.0**-600, 2.0**-560), factor(2.0**-600, 2.0**-560)) == (0.0, 1.0 - 2.0**-40)
    assert (_root_factor(2.0**500, 2.0**520), factor(2.0**500, 2.0**520)) == (1.0, 1.0 - 2.0**-20)
    assert (_root_factor(0.0, 2.0**-540), factor(0.0, 2.0**-540)) == (0.0, 1.0)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.floats(min_value=2.0**-510, max_value=2.0**450), st.floats())
def test_signed_factor_is_the_root_of_the_square_on_any_float(t, w):
    _same_factor(_signed_factor(), t, w)


@pytest.mark.parametrize("kind", ["one-row", "two-column", "real"])
@pytest.mark.parametrize("name", ["tau", "sigma-eps"])
def test_pd_iterate_real_range_bounds(monkeypatch, kind, name):
    """tau, and for one row a nonzero sigma * eps, at either bound of [2**-510,
    2**450] enter the real loop, and their float neighbours outside send the
    batch to the general loop.  sigma * eps is not bounded for two rows or more."""
    runs = _spy(monkeypatch)
    first, K, y, x, z = _SHIFT_KINDS[kind]
    y, x, z = (np.array(v, dtype=np.float64) for v in (y, x, z))
    for bound, outward in ((2.0**-510, 0.0), (2.0**450, math.inf)):
        for value, inside in ((bound, True), (math.nextafter(bound, outward), False)):
            tau, eps = (value, 0.25) if name == "tau" else (0.3, value)  # sigma = 1: sigma * eps = eps
            runs.clear()
            _pd_same_bytes(K, y, eps, tau, 1.0, x, z, x, 3, K.shape[1] // 2)
            (batch,) = _batches(runs)
            entered = first if inside or (name == "sigma-eps" and first == "real") else "general"
            assert batch[0][:2] == (entered, False), value


# --- the shift variants -------------------------------------------------------------


# Each loop kind's first loop, K and state (y, x, z); the real kinds keep +0.0 imaginary halves.
_SHIFT_KINDS = {
    "one-row": ("row", _one_row([1.0, -2.0, 0.5]), [1.0, 0.0], _ROW_BASE["x"], [0.1, 0.0]),
    "two-column": ("row", _one_row([1.0, -2.0]), [1.0, 0.0], [0.3, -0.1, 0.0, 0.0], [0.1, 0.0]),
    "real": ("real", _REAL_BASE["K"], _REAL_BASE["y"], _REAL_BASE["x"], _REAL_BASE["z"]),
    "general": (
        "general",
        _realified(np.array([[1 + 0.5j, -2.0, 0.5j], [0.25 - 1j, 1.5, -1 + 0.25j]])),
        [1.0, -0.5, 0.25, 0.5],
        [0.3, -0.1, 0.2, 0.1, 0.0, -0.2],
        [0.1, 0.2, -0.3, 0.05],
    ),
}


def _tiny_dual(y, x, z):
    """y = 0, x = xbar = 0 and every nonzero z_i scaled below 2**-537: u = z, whose
    squares round to 0, so nrm = 0 and the full loop scales z to signed zeros."""
    return 0.0 * y, 0.0 * x, z * 2.0**-540


def _nan_dual(y, x, z):
    z = z.copy()
    z[0] = np.inf * 0.0  # the NaN an invalid operation makes, as in the edge-value tests
    return y, x, z


@pytest.mark.parametrize("iters", [1, 40])
@pytest.mark.parametrize(
    "kind, state, eps, sigma, loops",
    [
        *(
            # no |u_i| reaches 2**-511: the shift variant hands the whole batch to the full
            # one, a one-row shift variant to the general loop's shift variant and so on
            pytest.param(kind, _tiny_dual, 0.0, 0.4, "shift, full", id=f"tiny-dual-{kind}")
            for kind in _SHIFT_KINDS
        ),
        # a NaN in u makes nrm NaN and the factor 0: handed on, as above
        pytest.param("general", _nan_dual, 0.0, 0.4, "shift, full", id="nan-dual-general"),
        *(
            pytest.param(kind, None, eps, sigma, loops, id=f"{label}-{kind}")
            for kind in _SHIFT_KINDS
            for label, eps, sigma, loops in (
                ("zero-sigma", 0.5, 0.0, "shift"),  # sigma * eps = +0.0
                ("negative-sigma", 0.0, -0.4, "shift"),  # sigma * eps = -0.0
                ("infinite-sigma", 0.0, np.inf, "full"),  # sigma * eps = NaN
            )
        ),
    ],
)
def test_pd_iterate_shift_variant_guards(monkeypatch, kind, state, eps, sigma, loops, iters):
    """sigma * eps = +-0.0 selects the shift variant, which takes each step as v = u
    unless that step's nrm might be 0 or NaN; then it hands the rest of the batch
    to the full variant, or from one row to the general loop's shift variant.
    All return the bytes of the reference."""
    runs = _spy(monkeypatch)
    first, K, y, x, z = _SHIFT_KINDS[kind]
    y, x, z = (np.array(v, dtype=np.float64) for v in (y, x, z))
    if state:
        y, x, z = state(y, x, z)
    with np.errstate(all="ignore"):
        _pd_same_bytes(K, y, eps, 0.3, sigma, x, z, x, iters, K.shape[1] // 2)
    (batch,) = _batches(runs)
    if loops == "shift":  # the whole batch in the shift variant
        assert batch == [(first, True, iters, 0)]
    elif loops == "shift, full":  # handed on at the first step, by each loop up to the chain's first full one
        chain = _chain(first, True)
        full = [s for _, s in chain].index(False)
        assert batch == [(*run, iters, iters) for run in chain[:full]] + [(*chain[full], iters, 0)]
    else:  # sigma * eps = NaN: no shift variant; a real loop of two rows or more, then the general one
        first = "general" if first == "row" else first  # NaN is out of the one-row loop's range
        assert [run[:2] for run in batch] == _chain(first, False) and batch[0][2] == iters


@pytest.mark.parametrize(
    "kind, shift, dots_per_step",
    [
        pytest.param(kind, shift, dots, id=f"{kind}-{'shift' if shift else 'full'}")
        for kind, full, shifted in (("general", 3, 2), ("real", 3, 2), ("one-row", 1, 1), ("two-column", 0, 0))
        for shift, dots in ((False, full), (True, shifted))
    ],
)
def test_pd_iterate_blas_calls_per_step(monkeypatch, kind, shift, dots_per_step):
    """Each loop makes its count of BLAS calls a step, the ddot u.u included: K
    xbar, u.u and K^T z in the general and real loops, all but u.u in their shift
    variants, K xbar alone in the one-row loops and none at two columns."""
    first, K, y, x, z = _SHIFT_KINDS[kind]
    y, x, z = (np.array(v, dtype=np.float64) for v in (y, x, z))
    for name in ("empty", "zeros"):  # the loops' buffers, so that ua.dot(ua) counts too
        alloc = getattr(np, name)
        monkeypatch.setattr(np, name, lambda *a, alloc=alloc, **k: alloc(*a, **k).view(_CountingK))
    build = kern._pd_loop
    build.cache_clear()
    runs = _spy(monkeypatch)
    _CountingK.dots = 0
    try:
        kern.pd_iterate(K.view(_CountingK), y, 0.0 if shift else 0.25, 0.3, 0.4, x, z, x, 5)
    finally:
        build.cache_clear()
    assert _batches(runs) == [[(first, shift, 5, 0)]]
    assert _CountingK.dots == dots_per_step * 5


# --- byte replays of the real solves ------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"


def _blas():
    """numpy's BLAS: its name and version."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas['name']} {blas['version']}"


def _two_column_instances():
    """Both perturbation families at n = 1..50, then 42 seeded real 1 x 2 instances at eps = 0, 1/8 and 1/2."""
    p = families.FamilyParams()
    cases = [families.perturbed_instance(which, n, p) for n in range(1, 51) for which in (1, 2)]
    rng = random.Random(1201)
    for i in range(42):
        row = [Q(rng.randint(-24, 24), rng.randint(8, 24)) for _ in range(2)]
        while abs(row[0]) == abs(row[1]):  # no tie: each solve certifies in its first batch
            row = [Q(rng.randint(-24, 24), rng.randint(8, 24)) for _ in range(2)]
        y = RationalVector.from_items([Q(rng.randint(-8, 8), 16)])
        cases.append(qcbp.Instance(A=RationalMatrix.from_rows([row]), y=y, eps=(Q(0), Q(1, 8), Q(1, 2))[i % 3]))
    return cases


# the real shapes of generic-solve that are not two columns: m = 1 with N = 3..5, m = 2, 3 with N = m+1..m+4
_REAL_SHAPES = [(1, n) for n in range(3, 6)] + [(m, n) for m in (2, 3) for n in range(m + 1, m + 5)]


def _real_instances():
    """48 seeded real instances with entries up to 3 in A and 1/2 in y, as generic-solve
    draws them; instance i has shape i mod 11 and eps (0, 1/8, 1/2)[i mod 3], so
    each shape is solved at each eps."""
    rng = random.Random(1301)
    cases = []
    for i in range(48):
        m, n = _REAL_SHAPES[i % 11]
        rows = [[Q(rng.randint(-24, 24), rng.randint(8, 24)) for _ in range(n)] for _ in range(m)]
        y = RationalVector.from_items([Q(rng.randint(-8, 8), 16) for _ in range(m)])
        cases.append(qcbp.Instance(A=RationalMatrix.from_rows(rows), y=y, eps=(Q(0), Q(1, 8), Q(1, 2))[i % 3]))
    return cases


def _pd_replay(monkeypatch, instances):
    """Solve every instance at tol 1e-6 and return the set of K's shapes, the count
    of ``pd_iterate`` calls and the sha256, in call order, of each call's input
    and output bytes and of each ``SolveReport.to_json()``."""
    digest, calls = hashlib.sha256(), []
    run = kern.pd_iterate

    def recorded(K, y, eps, tau, sigma, x, z, xbar, iters):
        digest.update(pack("<3q3d", *K.shape, iters, eps, tau, sigma))
        digest.update(b"".join(v.tobytes() for v in (K, y, x, z, xbar)))
        out = run(K, y, eps, tau, sigma, x, z, xbar, iters)
        digest.update(b"".join(v.tobytes() for v in out))
        calls.append(K.shape)
        return out

    monkeypatch.setattr(kern, "pd_iterate", recorded)
    for inst in instances:
        report = qcbp.solve_numeric(inst, Q(1, 10**6))
        digest.update(json.dumps(report.to_json(), sort_keys=True).encode())
    return set(calls), len(calls), digest.hexdigest()


def _assert_replay(monkeypatch, name, instances, shapes):
    """The replay of ``instances`` runs K of ``shapes`` and gives the calls and digest of golden ``name``."""
    want = json.loads((GOLDEN / name).read_text())
    got = _pd_replay(monkeypatch, instances)
    assert got[0] == shapes
    assert got[1:] == (want["calls"], want["sha256"]), f"recorded on {want['blas']}; this is {_blas()}"


def test_pd_replay_of_two_column_solves_keeps_its_bytes(monkeypatch):
    """Every primal-dual batch of the family solves and of 42 other one-row
    two-column solves, eps = 0 among them, and every report they give, keep the
    bytes recorded in tests/golden.  A change that moves a byte on purpose
    records the file again from ``_pd_replay`` and names the calls that moved."""
    _assert_replay(monkeypatch, "pd_replay_two_column.json", _two_column_instances(), {(2, 4)})


def test_pd_replay_of_real_solves_keeps_its_bytes(monkeypatch):
    """The same for 48 real solves of the other real loops: one row of three to
    five columns, and two and three rows, each shape at eps = 0, 1/8 and 1/2."""
    shapes = {(2 * m, 2 * n) for m, n in _REAL_SHAPES}
    _assert_replay(monkeypatch, "pd_replay_real.json", _real_instances(), shapes)


def test_two_column_gemv_is_unfused():
    """The installed BLAS's gemv of a one-row real 2 x 4 K gives (K xbar)_0 as
    (a0 * b0 + a1 * b1) + 0.0, byte for byte, on 20,000 seeded cases of normal
    and edge values (NaN compared as NaN), one gemv call a case.  The sum is
    formed by numpy's elementwise operations, each rounded as a Python float's."""
    rng = np.random.default_rng(2002)
    finite = [0.0, -0.0, 5e-324, -5e-324, 2.0**-1070, 2.0**520, -(2.0**-520), 1e300, -1e-300, 1.7976931348623157e308]

    def draw(edges):
        normal = rng.uniform(-3, 3, (20_000, 2)) * 2.0 ** rng.integers(-40, 41, (20_000, 2))
        return np.where(rng.random((20_000, 2)) < 0.4, rng.choice(edges, (20_000, 2)), normal)

    a, b = draw(finite), draw(finite + [math.inf, -math.inf])
    K, xb = np.zeros((20_000, 2, 4)), np.zeros((20_000, 4))
    K[:, 0, :2] = K[:, 1, 2:] = a
    xb[:, :2] = b
    with np.errstate(all="ignore"):  # inf and NaN are among the compared values
        got = np.array([Ki.dot(xi)[0] for Ki, xi in zip(K, xb)])
        want = (a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]) + 0.0
    moved = np.count_nonzero((got.view(np.int64) != want.view(np.int64)) & ~(np.isnan(got) & np.isnan(want)))
    assert not moved, (
        f"{moved} of 20,000 gemv results differ from (a0 * b0 + a1 * b1) + 0.0: the two-column "
        f"one-row step of _kernels.pd_iterate assumes an unfused gemv, and this BLAS ({_blas()}) fuses"
    )
