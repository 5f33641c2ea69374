"""Kernel parity.

The grid scan, on int64 and on Python ints, must match the sweep of every box
point in tests/grid_reference.py, and the primal-dual kernel, in its general
loop and its real loops of one row and of two or more, must return the bytes
of the plain-Python spec in tests/pd_reference.py, also where it stops at a
fixed point.  The kernel makes no BLAS call, and the solves of each loop have
a byte replay against a recorded digest.
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
from qcbplab.rationals import ComplexQ, RationalMatrix, RationalVector, dyadic_sqrt_upper

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


_ARRAYS = kern._pd_arrays


def _bits(v):
    """The float64 bytes of a list of floats."""
    return pack(f"<{len(v)}d", *v)


def _pd_same_bytes(K, y, eps, tau, sigma, x, z, xbar, iters):
    """Run the kernel, its array steps and the spec on one state, K a list of rows
    and y, x, z and xbar lists of floats; the x, z and xbar they return must be
    lists of floats that agree byte for byte."""
    args = (K, y, eps, tau, sigma, x, z, xbar, iters)
    want = pd_reference.pd_iterate(*args)
    nan = lambda v: [t if t == t else math.nan for t in v]  # pd_iterate's last step after the array steps
    arrays = map(nan, _ARRAYS(*args, pd_reference.is_real(*args[:2], *args[5:8])))
    for path, got in (("kernel", kern.pd_iterate(*args)), ("arrays", arrays)):
        for name, w, g in zip(("x", "z", "xbar"), want, got):
            assert type(g) is list and all(type(t) is float for t in g) and len(g) == len(w), (path, name)
            assert _bits(g) == _bits(w), (path, name, w, g)


def _zeros(n):
    return [0.0] * n


def _realified(a):
    """The rows of [[Re a, -Im a], [Im a, Re a]]; -Im a is formed as 0.0 - Im a,
    so a real a gets +0.0 blocks, as qcbp._realified builds them."""
    return np.block([[a.real, 0.0 - a.imag], [a.imag, a.real]]).tolist()


def _step(K):
    """1 / ||K||_2."""
    return 1.0 / float(np.linalg.norm(K, 2))


def _normal(rng, *sizes):
    """Seeded standard normal lists of the given lengths."""
    return tuple(rng.normal(size=n).tolist() for n in sizes)


def _real_half(v):
    """v with its imaginary half replaced by +0.0."""
    return v[: len(v) // 2] + _zeros(len(v) // 2)


def _spy(monkeypatch):
    """Replace the loop builder ``kern._pd_loop`` and the array steps
    ``kern._pd_arrays`` by ones that log the kind of loop each batch runs:
    ``row`` (real, one row), ``real`` or ``general``, and ``arrays`` after it
    for the array steps."""
    runs = []
    build, steps = kern._pd_loop, kern._pd_arrays

    def kind(rows, real):
        return ("row" if rows == 2 else "real") if real else "general"

    def spied(rows, cols, real):
        runs.append(kind(rows, real))
        return build(rows, cols, real)

    def spied_arrays(K, *args):
        runs.append(kind(len(K), args[-1]) + " arrays")
        return steps(K, *args)

    monkeypatch.setattr(kern, "_pd_loop", spied)
    monkeypatch.setattr(kern, "_pd_arrays", spied_arrays)
    return runs


@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize(
    "m, ns", [pytest.param(m, range(m + 1, m + 5), id=str(m)) for m in (1, 2, 3)] + [pytest.param(10, [50], id="10")]
)
def test_pd_iterate_matches_reference_on_generic_shapes(monkeypatch, m, ns, cplx):
    """Every generic-solve shape (N = m+1..m+4) and one larger one, from zero and
    from a mid-run state, and for a real A also from a mid-run state whose
    imaginary halves are +0.0.  A real batch runs a real loop from both of those
    starts, and one whose state has nonzero imaginary halves the general loop;
    at m = 10, N = 50, past ``_STRAIGHT_MAX`` entries, each on arrays."""
    runs = _spy(monkeypatch)
    first = "general" if cplx else "row" if m == 1 else "real"
    large = " arrays" if m == 10 else ""
    rng = np.random.default_rng(100 * m + cplx)
    for n in ns:
        for eps in (0.0, 0.125, 0.5):
            a = rng.uniform(-3, 3, (m, n)) + (1j * rng.uniform(-3, 3, (m, n)) if cplx else 0)
            b = rng.uniform(-0.5, 0.5, m) + (1j * rng.uniform(-0.5, 0.5, m) if cplx else 0)
            K = _realified(a)
            y = np.concatenate([np.real(b), np.imag(b)]).tolist()
            step = _step(K)
            for iters in (1, 250):
                zero = (_zeros(2 * n), _zeros(2 * m), _zeros(2 * n))
                mid = _normal(rng, 2 * n, 2 * m, 2 * n)
                starts = [zero, mid] if cplx else [zero, mid, tuple(map(_real_half, mid))]
                for (x, z, xbar), entry in zip(starts, (first, "general", first)):
                    runs.clear()
                    _pd_same_bytes(K, y, eps, step, step, x, z, xbar, iters)
                    assert runs == [entry + large], (n, eps, iters)


@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
def test_pd_iterate_steps_on_arrays_past_the_straight_line_bound(monkeypatch, cplx):
    """A one-row batch runs a straight-line loop up to ``_STRAIGHT_MAX`` read
    entries of K and the array steps past it, with the spec's bytes on both
    sides, also at 1,600 columns, whose straight-line sums CPython cannot
    compile.  The array steps call no BLAS function and no ``@`` either."""
    for f in (kern._pd_arrays, kern._sums, kern._shrink_factors):
        assert not {"dot", "vdot", "inner", "matmul", "einsum", "tensordot"} & set(f.__code__.co_names)
        assert "@" not in inspect.getsource(f)
    runs = _spy(monkeypatch)
    kind = "general" if cplx else "row"
    most = kern._STRAIGHT_MAX // 4 if cplx else kern._STRAIGHT_MAX
    rng = np.random.default_rng(31 + cplx)
    for n, want in ((most, kind), (most + 1, kind + " arrays"), (1600, kind + " arrays")):
        a = rng.uniform(-3, 3, (1, n)) + (1j * rng.uniform(-3, 3, (1, n)) if cplx else 0)
        K, y = _realified(a), [0.25, 0.125 if cplx else 0.0]
        step = _step(K)
        for eps in (0.0, 0.125):
            runs.clear()
            _pd_same_bytes(K, y, eps, step, step, _zeros(2 * n), _zeros(2), _zeros(2 * n), 3)
            assert runs == [want], n


def test_kernel_signatures_keep_the_positions_the_benchmark_reads():
    """perfbench's tracer reads ``pd_iterate``'s ``args[8]`` (iters) and
    ``grid_scan``'s ``args[0]``, ``[3]`` and ``[4]`` (coeffs, k, exact_fallback)."""
    assert list(inspect.signature(kern.pd_iterate).parameters) == [
        "K", "y", "eps", "tau", "sigma", "x", "z", "xbar", "iters"
    ]
    assert list(inspect.signature(kern.grid_scan).parameters) == ["coeffs", "shift", "rhs", "k", "exact_fallback"]


def test_pd_iterate_builds_one_loop_per_shape(monkeypatch):
    """Calls on one shape and kind, whatever their values and eps = 0 among them,
    run the loop generated for the first; real batches from zero build the real
    loop of their shape and no general loop."""
    built = []
    source = kern._pd_source
    monkeypatch.setattr(kern, "_pd_source", lambda *key: built.append(key) or source(*key))
    kern._pd_loop.cache_clear()
    rng = np.random.default_rng(7)
    for eps in (0.25, 0.0):
        for m, n in ((2, 5), (2, 5), (1, 5)):
            K = _realified(rng.uniform(-3, 3, (m, n)))
            state = _normal(rng, 2 * n, 2 * m, 2 * n)
            kern.pd_iterate(K, rng.normal(size=2 * m).tolist(), eps, 0.1, 0.1, *state, 3)
        for K in (_one_row([1.5, -2.0, 0.5, 3.0]), _real_op(rng.uniform(-3, 3, (2, 5)))):
            state = (_zeros(len(K[0])), _zeros(len(K)), _zeros(len(K[0])))
            y = [1.0] + _zeros(len(K) - 1)
            for _ in range(2):
                state = kern.pd_iterate(K, y, eps, 0.1, 0.1, *state, 3)
    assert built == [(4, 10, False), (2, 10, False), (2, 8, True), (4, 10, True)]


def test_pd_iterate_returns_arrays_no_later_call_writes():
    """A call returns three new lists, none of them an input list, and the lists
    of one call keep their bytes through a later call on the same shape."""
    rng = np.random.default_rng(11)
    K = _realified(rng.uniform(-3, 3, (2, 5)))
    y = rng.normal(size=4).tolist()
    state = _normal(rng, 10, 4, 10)
    first = kern.pd_iterate(K, y, 0.25, 0.1, 0.1, *state, 5)
    assert not [v for v in first if any(v is u for u in (K, y, *state))]
    kept = [_bits(v) for v in first]
    second = kern.pd_iterate(K, y, 0.25, 0.1, 0.1, *_normal(rng, 10, 4, 10), 5)
    assert [_bits(v) for v in second] != kept
    assert [_bits(v) for v in first] == kept


def test_pd_iterate_builds_no_array_per_step(monkeypatch):
    """A batch builds no array, in its steps or for the state it returns: the
    loop names no numpy function, its root is ``math.sqrt``, and a batch of 250
    iterations calls ``np.array`` not once."""
    rng = np.random.default_rng(5)
    K, y = _realified(rng.uniform(-3, 3, (2, 4))), rng.normal(size=4).tolist()
    state = _normal(rng, 8, 4, 8)
    kern._pd_loop.cache_clear()
    loop = kern._pd_loop(len(K), len(K[0]), False)
    assert not {"np", "numpy", "array", "asarray", "tolist", "ravel"} & set(loop.__code__.co_names)
    assert loop.__globals__["sqrt"] is math.sqrt
    built = []
    array = np.array
    monkeypatch.setattr(np, "array", lambda *a, **k: built.append(a) or array(*a, **k))
    got = kern.pd_iterate(K, y, 0.25, 0.1, 0.1, *state, 250)
    kern._pd_loop.cache_clear()
    assert built == [] and [type(v) for v in got] == [list] * 3


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
        x, z, xbar = _zeros(2 * inst.n), _zeros(2 * inst.m), _zeros(2 * inst.n)
        for iters in (1, 250, 250):  # each batch starts where the one before stopped
            _pd_same_bytes(K, y, eps, step, step, x, z, xbar, iters)
            x, z, xbar = kern.pd_iterate(K, y, eps, step, step, x, z, xbar, iters)


K_EDGE = [[1.0, -2.0, 0.5, 3.0], [0.25, 1.0, -1.0, 2.0]]


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
            K_EDGE, [1.0, 0.5], 0.25, 0.3, [math.nan, 1.0, 0.0, 2.0], [0.5, 0.5], [1.0, 1.0, 1.0, 1.0], id="nan-in-x",
        ),
        pytest.param(
            K_EDGE, [1.0, 0.5], 0.25, 0.3, [1.0, 1.0, 0.0, 2.0], [math.nan, 0.5], [1.0, math.nan, 1.0, 1.0],
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
            [_zeros(4), _zeros(4)], [0.0, 0.0], 0.5, 5.0, [3.0, 1.0, -4.0, 0.0], [0.0, 0.0], [0.0, 0.0, 0.0, 0.0],
            id="pair-shrinks-to-zero",
        ),
        pytest.param(
            # a one-row real K of two columns whose K xbar sums two -0.0
            # products: the + 0.0 that ends a real sum makes it +0.0, or the
            # first step's z0 keeps the sign of -0.0
            [[1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 1.0, 2.0]], [0.0, 0.0], 0.25, 0.3,
            [-0.0, -0.0, 0.0, 0.0], [-0.0, 0.0], [-0.0, -0.0, 0.0, 0.0],
            id="two-column-minus-zero-sum",
        ),
    ],
)
@pytest.mark.parametrize("iters", [1, 250])
def test_pd_iterate_matches_reference_on_edge_cases(K, y, eps, tau, x, z, xbar, iters):
    _pd_same_bytes(K, y, eps, tau, 0.4, x, z, xbar, iters)


def test_pd_iterate_pair_shrink_edge_is_exact():
    """The pair-shrink case above really lands on signed zeros after one step."""
    x, _, xbar = kern.pd_iterate(
        [_zeros(4), _zeros(4)], _zeros(2), 0.5, 5.0, 0.4, [3.0, 1.0, -4.0, 0.0], _zeros(2), _zeros(4), 1
    )
    assert _bits(x) == _bits([0.0, 0.0, -0.0, 0.0])
    assert _bits(xbar) == _bits([-3.0, -1.0, 4.0, 0.0])


# A generic-solve shape (m = 2, N = 4, eps = 1/8) whose iteration from zero
# reaches a bit-exact fixed point within 1,000 iterations, with -0.0 in x.
FIXED_A = [[Q(7, 4), Q(7, 9), Q(-20, 17), Q(-2, 17)], [Q(1, 3), Q(-13, 23), Q(6, 13), Q(-21, 16)]]
FIXED_Y = [Q(-1, 2), Q(3, 16)]


@pytest.fixture(scope="module")
def fixed_point():
    """``(K, y, eps, step)`` as solve_numeric sets them up, and the state the iteration settles at."""
    inst = qcbp.Instance(A=RationalMatrix.from_rows(FIXED_A), y=RationalVector.from_items(FIXED_Y), eps=Q(1, 8))
    assert qcbp.solve_numeric(inst).converged
    K, y, step = _solver_setup(inst)
    setup = (K, y, float(inst.eps), step)
    zero = (_zeros(2 * inst.n), _zeros(2 * inst.m), _zeros(2 * inst.n))
    state = pd_reference.pd_iterate(*setup, step, *zero, 1000)
    after = pd_reference.pd_iterate(*setup, step, *state, 1)
    assert [_bits(v) for v in after] == [_bits(v) for v in state], "not a fixed point"
    assert any(v == 0.0 and math.copysign(1.0, v) < 0 for v in state[0]), "no -0.0 in x"
    return setup, zero, state


@pytest.mark.parametrize("iters", [0, 1, 250, 10**4])
@pytest.mark.parametrize("start", ["zero", "fixed"])
def test_pd_iterate_matches_reference_at_a_fixed_point(fixed_point, start, iters):
    """From zero the loop reaches the fixed point inside a batch; from the fixed point it stays there."""
    (K, y, eps, step), zero, fixed = fixed_point
    x, z, xbar = zero if start == "zero" else fixed
    _pd_same_bytes(K, y, eps, step, step, x, z, xbar, iters)


def test_pd_iterate_stops_after_one_iteration_at_a_fixed_point(fixed_point, monkeypatch):
    """The fixed point's loop, real with two rows, takes one root a step, its dual
    norm's: 250 from zero, where the fixed point lies beyond the first batch,
    and one from the fixed point, whose one iteration changes nothing."""
    (K, y, eps, step), zero, fixed = fixed_point
    roots = []
    loop = kern._compiled(kern._pd_source(len(K), len(K[0]), True), "counted")
    monkeypatch.setitem(loop.__globals__, "sqrt", lambda v: roots.append(v) or math.sqrt(v))
    loop(K, y, eps, step, step, *zero, 250)
    assert len(roots) == 250
    roots.clear()
    got = loop(K, y, eps, step, step, *fixed, 250)
    assert len(roots) == 1
    assert [_bits(v) for v in got] == [_bits(v) for v in fixed]


@pytest.mark.parametrize("which", ["x", "xbar"])
@pytest.mark.parametrize("iters", [1, 2, 250])
def test_pd_iterate_fixed_point_is_bit_exact(fixed_point, which, iters):
    """A state float-equal to the fixed point but with one zero of the other sign is not the fixed point."""
    (K, y, eps, step), _, (x, z, xbar) = fixed_point
    v = list(x if which == "x" else xbar)
    i = next(j for j, e in enumerate(v) if e == 0.0)
    v[i] = -v[i]
    x, xbar = (v, xbar) if which == "x" else (x, v)
    assert x == fixed_point[2][0] and xbar == fixed_point[2][2]
    _pd_same_bytes(K, y, eps, step, step, x, z, xbar, iters)


# --- the real loops -----------------------------------------------------------------


def _real_op(a):
    """The rows of the realified K of a real A, as solve_numeric sets it up: its zero blocks hold +0.0."""
    a = np.asarray(a, dtype=np.float64).tolist()
    n = len(a[0])
    return [row + _zeros(n) for row in a] + [_zeros(n) + row for row in a]


def _one_row(row):
    """The realified K of a real one-row A, as solve_numeric sets it up."""
    return _real_op([row])


# normal values and edge values: signed zeros, a subnormal, +-inf, NaNs of both signs and huge and tiny powers of 2
_EDGES = (0.0, -0.0, 5e-324, math.inf, -math.inf, math.nan, -math.nan, 2.0**600, -(2.0**-600))


def _edge_entry(rng, share):
    return rng.choice(_EDGES) if rng.random() < share else rng.uniform(-3, 3)


def _edge_scalars(rng):
    """tau, sigma and eps mixing normal and edge values, far outside [2**-510, 2**450] among them."""
    tau = rng.choice((0.0, 2.0**-600, 1e-300, 2.0**-510, rng.uniform(0.05, 1), 2.0**450, 1e300, math.inf))
    sigma = rng.choice((-rng.uniform(0.05, 1), 0.0, math.inf, rng.uniform(0.05, 1)))
    eps = rng.choice((0.0, 2.0**-560, math.inf, math.nan, rng.uniform(0, 1)))
    return tau, sigma, eps


def test_pd_iterate_matches_reference_on_one_row_real_edge_values(monkeypatch):
    """400 one-row real batches of widths 2-5 whose K, state and scalars mix normal
    and edge values.  Each runs the one-row loop to its end: a NaN, an inf or a
    product that rounds to zero on the way changes nothing about the loop."""
    runs = _spy(monkeypatch)
    rng = random.Random(4242)
    for _ in range(400):
        n = rng.randint(2, 5)
        row = [rng.choice((-1, 1)) * rng.choice((0.0, 2.0**-1070, 2.0**600, rng.uniform(0.1, 3))) for _ in range(n)]
        y = [_edge_entry(rng, 0.25), 0.0]
        draw = lambda count: [_edge_entry(rng, 0.25) for _ in range(count)] + _zeros(count)  # imaginary halves +0.0
        x, z, xbar = draw(n), draw(1), draw(n)
        tau, sigma, eps = _edge_scalars(rng)
        _pd_same_bytes(_one_row(row), y, eps, tau, sigma, x, z, xbar, rng.choice((1, 2, 60, 250)))
    assert runs == ["row"] * 400


def test_pd_iterate_matches_reference_on_real_edge_values(monkeypatch):
    """400 real batches of 2-4 rows whose K, state and scalars mix normal and edge
    values, NaNs of both signs among them.  Each runs the real loop to its end.
    Every sum has one order, so where NaNs of both signs meet, the result's sign
    is the spec's too."""
    runs = _spy(monkeypatch)
    rng = random.Random(4343)
    for _ in range(400):
        m, n = rng.randint(2, 4), rng.randint(2, 5)
        K = _real_op([[_edge_entry(rng, 0.2) for _ in range(n)] for _ in range(m)])
        draw = lambda count: [_edge_entry(rng, 0.2) for _ in range(count)] + _zeros(count)  # imaginary halves +0.0
        y, z = draw(m), draw(m)
        x, xbar = draw(n), draw(n)
        tau, sigma, eps = _edge_scalars(rng)
        _pd_same_bytes(K, y, eps, tau, sigma, x, z, xbar, rng.choice((1, 2, 40)))
    assert runs == ["real"] * 400


_ROW_BASE = dict(
    K=_one_row([1.0, -2.0, 0.5]), y=[1.0, 0.0], tau=0.3,
    x=[0.3, -0.1, 0.2, 0.0, 0.0, 0.0], z=[0.1, 0.0], xbar=[0.3, -0.1, 0.2, 0.0, 0.0, 0.0],
)


def _replaced(v, index, value):
    """A copy of the list v, or of the rows v if ``index`` is a pair (i, j), with one entry replaced."""
    if type(index) is tuple:
        i, j = index
        return v[:i] + [_replaced(v[i], j, value)] + v[i + 1 :]
    return v[:index] + [value] + v[index + 1 :]


def _broken(name, index, value):
    """The base one-row state with one entry of one part replaced."""
    return {name: _replaced(_ROW_BASE[name], index, value)}


@pytest.mark.parametrize(
    "change, kind",
    [
        pytest.param({}, "row", id="one-row-real"),
        pytest.param(_broken("K", (0, 4), -0.0), "general", id="minus-zero-in-K-top-right"),
        pytest.param(_broken("K", (1, 0), -0.0), "general", id="minus-zero-in-K-bottom-left"),
        pytest.param(_broken("K", (0, 1), math.inf), "row", id="K-not-finite"),
        pytest.param(_broken("y", 1, -0.0), "general", id="minus-zero-in-y1"),
        pytest.param(_broken("x", 3, 1e-300), "general", id="nonzero-imaginary-x"),
        pytest.param(_broken("x", 5, -0.0), "general", id="minus-zero-imaginary-x"),
        pytest.param(_broken("z", 1, -0.0), "general", id="minus-zero-z1"),
        pytest.param(_broken("z", 1, 0.5), "general", id="nonzero-z1"),
        pytest.param(_broken("xbar", 4, -0.0), "general", id="minus-zero-imaginary-xbar"),
        pytest.param({"tau": -0.3}, "row", id="negative-tau"),
        pytest.param({"tau": math.inf}, "row", id="infinite-tau"),
        pytest.param({"tau": math.nan}, "row", id="nan-tau"),
    ],
)
@pytest.mark.parametrize("iters", [1, 3])
def test_pd_iterate_one_row_entry_conditions(monkeypatch, change, kind, iters):
    """A signed zero or a nonzero value in an off-diagonal block of K or in an
    imaginary half of y, x, z or xbar, each on its own, makes a one-row batch
    complex: it runs the general loop.  A K that is not finite and a negative,
    infinite or NaN tau leave it real."""
    runs = _spy(monkeypatch)
    case = {**_ROW_BASE, **change}
    _pd_same_bytes(case["K"], case["y"], 0.25, case["tau"], 0.4, case["x"], case["z"], case["xbar"], iters)
    assert runs == [kind]


_REAL_BASE = dict(
    K=_real_op([[1.0, -2.0, 0.5], [0.25, 1.5, -1.0]]), y=[1.0, -0.5, 0.0, 0.0], tau=0.3,
    x=[0.3, -0.1, 0.2, 0.0, 0.0, 0.0], z=[0.1, 0.2, 0.0, 0.0], xbar=[0.3, -0.1, 0.2, 0.0, 0.0, 0.0],
)


def _real_broken(name, index, value):
    """The base two-row real state with one entry of one part replaced."""
    return {name: _replaced(_REAL_BASE[name], index, value)}


@pytest.mark.parametrize(
    "change, kind",
    [
        pytest.param({}, "real", id="real"),
        *(
            pytest.param(_real_broken("K", (i, j), value), "general", id=f"{label}-in-K{i}{j}")
            for i, j in ((0, 3), (1, 5), (2, 0), (3, 2))  # both off-diagonal blocks
            for label, value in (("minus-zero", -0.0), ("nonzero", 0.5))
        ),
        pytest.param(_real_broken("K", (0, 1), math.inf), "real", id="K-infinite"),
        # the bottom-right block, which the real loop does not read
        pytest.param(_real_broken("K", (3, 4), math.nan), "real", id="K-nan"),
        *(
            pytest.param(_real_broken(name, index, value), "general", id=f"{label}-in-{name}{index}")
            for name, index in (("y", 3), ("x", 4), ("z", 2), ("xbar", 5))  # imaginary halves
            for label, value in (("minus-zero", -0.0), ("nonzero", 1e-300))
        ),
        pytest.param({"tau": -0.3}, "real", id="negative-tau"),
        pytest.param({"tau": math.inf}, "real", id="infinite-tau"),
        pytest.param({"tau": math.nan}, "real", id="nan-tau"),
    ],
)
def test_pd_iterate_real_entry_conditions(monkeypatch, change, kind):
    """The same for a two-row batch, at eps = 0.25 and at eps = 0."""
    runs = _spy(monkeypatch)
    case = {**_REAL_BASE, **change}
    for eps in (0.25, 0.0):
        _pd_same_bytes(case["K"], case["y"], eps, case["tau"], 0.4, case["x"], case["z"], case["xbar"], 3)
    assert runs == [kind] * 2


def test_real_solves_never_run_the_general_loop(monkeypatch):
    """solve_numeric sets every real instance up for a real loop: one-row
    instances run the one-row loop and those of two and three rows the real
    loop, at eps = 1/8 and at eps = 0."""
    built = []
    build = kern._pd_loop
    monkeypatch.setattr(kern, "_pd_loop", lambda *key: built.append(key) or build(*key))

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
    assert set(built) == {(2, 4, True), (2, 6, True), (4, 8, True), (6, 10, True)}


# --- the signed factor of the real loops ---------------------------------------------


def _root_factor(t, w):
    """max(0.0, 1.0 - t / sqrt(w * w)), 0.0 unless sqrt(w * w) > 0: the general
    loop's form of a factor, on a pair whose imaginary part is zero."""
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


# tau or sigma * eps: the bounds of [2**-510, 2**450] and values between
_RANGE_T = [2.0**-510, math.nextafter(2.0**-510, 1.0), 1e-100, 0.3, 1.0, 7.5, 1e100, math.nextafter(2.0**450, 0.0), 2.0**450]


def test_signed_factor_is_the_root_of_the_square():
    """For t in [2**-510, 2**450] the factor read from w's sign, which the real
    loops take, has the bytes of the one from sqrt(w * w), at edge values of w,
    across the band where w * w stops being normal or finite and on 20,000
    seeded bit patterns: there a real pair's step agrees with the general form.
    Outside the range the two differ: w * w underflows to 0 where t / |w| < 1,
    or overflows where t / |w| rounds 1 - t / |w| below 1, and t = 0 differs
    where w * w underflows."""
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


# Each loop kind, K and state (y, x, z); the real kinds keep +0.0 imaginary halves.
_KINDS = {
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


def _kind_case(kind):
    """The kind's loop, K and (y, x, z) as lists of floats."""
    loop, K, *state = _KINDS[kind]
    return loop, K, *([float(t) for t in v] for v in state)


@pytest.mark.parametrize("kind", ["one-row", "two-column", "real"])
@pytest.mark.parametrize("name", ["tau", "sigma-eps"])
def test_pd_iterate_real_range_bounds(monkeypatch, kind, name):
    """The real loops take tau and sigma * eps of any size: at either bound of
    [2**-510, 2**450], the range they once admitted, and at the float neighbours
    outside it, every batch runs its real loop and gives the spec's bytes."""
    runs = _spy(monkeypatch)
    loop, K, y, x, z = _kind_case(kind)
    for bound, outward in ((2.0**-510, 0.0), (2.0**450, math.inf)):
        for value in (bound, math.nextafter(bound, outward)):
            tau, eps = (value, 0.25) if name == "tau" else (0.3, value)  # sigma = 1: sigma * eps = eps
            _pd_same_bytes(K, y, eps, tau, 1.0, x, z, x, 3)
    assert runs == [loop] * 4


# --- the step at sigma * eps = +-0.0 ---------------------------------------------------


def _tiny_dual(y, x, z):
    """y = 0, x = xbar = 0 and every nonzero z_i scaled below 2**-537: u = z, whose
    squares round to 0, so ||u|| = 0 and the factor's formula scales u to zeros."""
    return [0.0 * t for t in y], [0.0 * t for t in x], [t * 2.0**-540 for t in z]


def _nan_dual(y, x, z):
    return y, x, _replaced(z, 0, math.nan)


@pytest.mark.parametrize("iters", [1, 40])
@pytest.mark.parametrize(
    "kind, state, eps, sigma",
    [
        *(pytest.param(kind, _tiny_dual, 0.0, 0.4, id=f"tiny-dual-{kind}") for kind in _KINDS),
        pytest.param("general", _nan_dual, 0.0, 0.4, id="nan-dual-general"),
        *(
            pytest.param(kind, None, eps, sigma, id=f"{label}-{kind}")
            for kind in _KINDS
            for label, eps, sigma in (
                ("zero-sigma", 0.5, 0.0),  # sigma * eps = +0.0
                ("negative-sigma", 0.0, -0.4),  # sigma * eps = -0.0
                ("infinite-sigma", 0.0, math.inf),  # sigma * eps = NaN: the factor's formula
            )
        ),
    ],
)
def test_pd_iterate_shift_variant_guards(monkeypatch, kind, state, eps, sigma, iters):
    """sigma * eps = +-0.0 takes every dual step as v = u, with no guard on ||u||:
    where u.u rounds to 0 the step keeps the tiny u, not the zeros the factor's
    formula would give.  Every loop gives the spec's bytes."""
    runs = _spy(monkeypatch)
    loop, K, y, x, z = _kind_case(kind)
    if state:
        y, x, z = state(y, x, z)
    _pd_same_bytes(K, y, eps, 0.3, sigma, x, z, x, iters)
    assert runs == [loop]
    if state is _tiny_dual and iters == 1:
        assert _bits(kern.pd_iterate(K, y, eps, 0.3, sigma, x, z, x, 1)[1]) == _bits(z)


@pytest.mark.parametrize(
    "kind, shift",
    [
        pytest.param(kind, shift, id=f"{kind}-{'shift' if shift else 'full'}")
        for kind in ("general", "real", "one-row", "two-column")
        for shift in (False, True)
    ],
)
def test_pd_iterate_blas_calls_per_step(kind, shift):
    """No loop makes a BLAS call, at sigma * eps = 0 and not: the source has no
    ``@``, the loop names no function but ``range``, ``sqrt`` and ``_bits`` and
    unpacks its lists with no call, and it gives the spec's bytes."""
    loop, K, y, x, z = _kind_case(kind)
    real = loop != "general"
    names = set(kern._pd_loop(len(K), len(K[0]), real).__code__.co_names)
    assert names <= {"range", "sqrt", "_bits"}
    assert "@" not in kern._pd_source(len(K), len(K[0]), real)
    _pd_same_bytes(K, y, 0.0 if shift else 0.25, 0.3, 0.4, x, z, x, 5)


# --- byte replays of the solves -----------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"


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

# the complex shapes of generic-solve: m = 1..3 with N = m+1..m+4
_COMPLEX_SHAPES = [(m, n) for m in (1, 2, 3) for n in range(m + 1, m + 5)]


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


def _complex_instances():
    """24 seeded complex instances, real and imaginary parts up to 3 in A and 1/2
    in y as generic-solve draws them; instance i has shape i mod 12 and eps
    (0, 1/8, 1/2)[i mod 3]."""
    rng = random.Random(1401)
    part = lambda top, den: ComplexQ(Q(rng.randint(-top, top), den), Q(rng.randint(-top, top), den))
    cases = []
    for i in range(24):
        m, n = _COMPLEX_SHAPES[i % 12]
        rows = [[part(24, rng.randint(8, 24)) for _ in range(n)] for _ in range(m)]
        y = RationalVector(tuple(part(8, 16) for _ in range(m)))
        cases.append(qcbp.Instance(A=RationalMatrix.from_rows(rows), y=y, eps=(Q(0), Q(1, 8), Q(1, 2))[i % 3]))
    return cases


_REPLAYS = {
    "pd_replay_two_column.json": (_two_column_instances, {(2, 4)}),
    "pd_replay_real.json": (_real_instances, {(2 * m, 2 * n) for m, n in _REAL_SHAPES}),
    "pd_replay_complex.json": (_complex_instances, {(2 * m, 2 * n) for m, n in _COMPLEX_SHAPES}),
}


@functools.cache
def _pd_replay(name):
    """Solve every instance of replay ``name`` at tol 1e-6 and return the set of
    K's shapes, the count of ``pd_iterate`` calls and two sha256 digests, in
    call order: ``kernel_sha256`` of each call's input and output bytes, and
    ``sha256`` of the same bytes with each ``SolveReport.to_json()`` after its
    solve's calls."""
    kernel, full, calls = hashlib.sha256(), hashlib.sha256(), []
    run = kern.pd_iterate

    def recorded(K, y, eps, tau, sigma, x, z, xbar, iters):
        shape = len(K), len(K[0])
        data = pack("<3q3d", *shape, iters, eps, tau, sigma) + b"".join(map(_bits, (sum(K, []), y, x, z, xbar)))
        out = run(K, y, eps, tau, sigma, x, z, xbar, iters)
        data += b"".join(map(_bits, out))
        kernel.update(data)
        full.update(data)
        calls.append(shape)
        return out

    kern.pd_iterate = recorded
    try:
        for inst in _REPLAYS[name][0]():
            report = qcbp.solve_numeric(inst, Q(1, 10**6))
            full.update(json.dumps(report.to_json(), sort_keys=True).encode())
    finally:
        kern.pd_iterate = run
    return set(calls), {"calls": len(calls), "kernel_sha256": kernel.hexdigest(), "sha256": full.hexdigest()}


def _assert_replay(name, digest):
    """The replay ``name`` runs K of its shapes and gives the calls and ``digest`` of its golden."""
    want = json.loads((GOLDEN / name).read_text())
    shapes, got = _pd_replay(name)
    assert shapes == _REPLAYS[name][1]
    assert (got["calls"], got[digest]) == (want["calls"], want[digest]), f"the {digest} of {name} moved"


def test_pd_replay_of_two_column_solves_keeps_its_bytes():
    """Every primal-dual batch of the family solves and of 42 other one-row
    two-column solves, eps = 0 among them, and every report they give, keep the
    bytes recorded in tests/golden.  A change that moves a byte on purpose
    records the file again from ``_pd_replay`` and names the calls that moved."""
    _assert_replay("pd_replay_two_column.json", "sha256")


def test_pd_replay_of_real_solves_keeps_its_bytes():
    """The same for 48 real solves of the other real loops: one row of three to
    five columns, and two and three rows, each shape at eps = 0, 1/8 and 1/2.
    Nine of them certify a polished point, whose least-squares solve forms its
    own sums as the kernel does, so their reports hold on every CPU."""
    _assert_replay("pd_replay_real.json", "sha256")


def test_pd_replay_of_complex_solves_keeps_its_bytes():
    """The same for 24 complex solves of the general loop, two of each complex
    shape of generic-solve; one of them certifies a polished point."""
    _assert_replay("pd_replay_complex.json", "sha256")


@pytest.mark.parametrize("name", ["pd_replay_real.json", "pd_replay_complex.json"])
def test_pd_replay_kernel_calls_keep_their_bytes(name):
    """The kernel calls of the real and complex replays alone, reports left out,
    keep their bytes: on any CPU, since the kernel makes no BLAS call."""
    _assert_replay(name, "kernel_sha256")
