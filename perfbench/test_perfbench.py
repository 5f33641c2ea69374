"""Tests of the benchmark's own arithmetic: scaling, percentiles, self time, counters.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from run import REF_S, ROOT, end_to_end, scaled, typical_latencies  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import aggregate_counters  # noqa: E402


def test_scaled_uses_the_reference_slices_on_both_sides():
    # op 0 between refs 1 and 4 (geometric mean 2), op 1 between 4 and 4
    got = scaled([6.0, 8.0], [REF_S, 4 * REF_S, 4 * REF_S])
    assert got == pytest.approx([3.0, 2.0])


def test_typical_latencies_and_percentiles():
    passes = [[3.0, 1.0, 8.0, 4.0], [2.0, 5.0, 9.0, 4.0], [2.5, 1.5, 7.0, 6.0]]
    assert typical_latencies(passes).tolist() == [2.5, 1.5, 8.0, 4.0]
    got = end_to_end(passes, [0.4, 0.2, 0.3, 0.1, 0.5])
    assert got["wall_s"] == 17.0  # pass sums 16, 20 and 17
    assert got["op_p50_ms"] == 3250.0  # between 2.5 and 4
    assert got["op_p90_ms"] == pytest.approx(1e3 * (4.0 + 0.7 * 4.0))
    assert got["setup_s"] == 0.3


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    t = Tracer(clock)

    def leaf(duration):
        clock.now += duration

    def middle():
        clock.now += 1
        t.call("leaf", leaf, (2,), {})
        clock.now += 1

    def outer():
        clock.now += 1
        t.call("middle", middle, (), {})
        t.call("leaf", leaf, (3,), {})
        clock.now += 1

    t.call("outer", outer, (), {})
    # outer spans 0..9: middle covers 1..5 (leaf 2..4 inside it), leaf 5..8
    assert t.self_s["outer"] == 2
    assert t.self_s["middle"] == 2
    assert t.self_s["leaf"] == 5
    assert sum(t.self_s.values()) == clock.now
    assert t.counts["leaf.calls"] == 2


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    t = Tracer(clock)

    def boom():
        clock.now += 4
        raise ValueError("x")

    def outer():
        with pytest.raises(ValueError):
            t.call("boom", boom, (), {})
        clock.now += 1

    t.call("outer", outer, (), {})
    assert t.self_s["boom"] == 4
    assert t.self_s["outer"] == 1


def test_install_wraps_every_binding_and_uninstall_restores():
    from qcbplab import creal, families, qcbp, rationals
    from qcbplab.rationals import RationalMatrix

    originals = (rationals.l2_norm_sq, qcbp.l2_norm_sq, families.l2_norm_sq)
    method = RationalMatrix.matvec
    t = Tracer()
    t.install()
    try:
        assert qcbp.l2_norm_sq is rationals.l2_norm_sq is families.l2_norm_sq
        assert qcbp.l2_norm_sq is not originals[0]
        assert creal.from_rational(9).approx(3) == 9
        assert qcbp.feasible(qcbp.Instance.single_row([2, 1]), rationals.RationalVector.from_items([0.5, 0]))
    finally:
        t.uninstall()
    assert (rationals.l2_norm_sq, qcbp.l2_norm_sq, families.l2_norm_sq) == originals
    assert RationalMatrix.matvec is method
    assert t.counts["creal.approx.calls"] == 1
    assert t.counts["creal.approx.max_bits"] == 4
    assert t.counts["rationals.calls"] == 2  # matvec and l2_norm_sq inside feasible


def test_aggregate_counters_sums_and_takes_maxima():
    got = aggregate_counters([{"steps": 2, "bits_max": 5}, {"steps": 3, "bits_max": 4}, {}])
    assert got == {"steps": 5, "bits_max": 5}


def test_layer_metrics_give_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    got = layer_metrics(Tracer(), 1.0)
    # the two set in run.py from the pass counters and from two kinds of pass
    missing = {e["name"] for e in spec["per_layer"]} - set(got)
    assert missing == {"cli.main.bytes_out", "bench.trace_overhead_frac"}
    assert got["mlp.train.calls"] == 0 and got["kernels.pd_iterate.us_per_iter"] == 0.0
