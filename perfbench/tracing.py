"""Per-layer spans recorded from outside the package.

A traced pass replaces each layer's public functions, in every ``qcbplab``
module namespace that binds them, with a wrapper that times the call and
keeps counters.  Nothing under ``src/`` changes; :meth:`Tracer.uninstall`
puts the original objects back, so untraced passes run the program exactly
as shipped.

A layer's self time is its span's duration minus the time covered by wrapped
spans it caused (its children).  Spans are aggregated as they close: only
per-layer sums and counters are kept.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict


def _post_pd_iterate(t, args, result):
    t.counts["kernels.pd_iterate.iterations"] += int(args[8])  # the ``iters`` argument


def _post_grid_scan(t, args, result):
    coeffs, k, exact_fallback = args[0], int(args[3]), bool(args[4])
    t.counts["kernels.grid_scan.box_points"] += (2 * k + 1) ** len(coeffs[0])
    t.counts["kernels.grid_scan.bigint_calls"] += exact_fallback


def _post_solve_numeric(t, args, result):
    t.counts["qcbp.solve_numeric.converged"] += bool(result.converged)
    key = "qcbp.solve_numeric.iterations_max"
    t.counts[key] = max(t.counts[key], result.iterations)


def _post_creal_approx(t, args, result):
    bits = max(result.numerator.bit_length(), result.denominator.bit_length())
    key = "creal.approx.max_bits"
    t.counts[key] = max(t.counts[key], bits)


def _post_run_bounded(t, args, result):
    t.counts["halting.run_bounded.steps"] += result.steps_executed


def _post_train(t, args, result):
    t.counts["mlp.train.steps"] += len(result[1])  # one loss entry per step


# (layer metric prefix, module, attribute or Class.method, post-call counter hook)
WRAPPED = (
    ("kernels.pd_iterate", "qcbplab._kernels", "pd_iterate", _post_pd_iterate),
    ("kernels.grid_scan", "qcbplab._kernels", "grid_scan", _post_grid_scan),
    ("qcbp.solve_numeric", "qcbplab.qcbp", "solve_numeric", _post_solve_numeric),
    ("qcbp.brute_force_min", "qcbplab.qcbp", "brute_force_min", None),
    ("qcbp.oracle", "qcbplab.qcbp", "exact_solution_set", None),
    ("rationals", "qcbplab.rationals", "row_rank", None),
    ("rationals", "qcbplab.rationals", "operator_norm_sq_upper", None),
    ("rationals", "qcbplab.rationals", "dyadic_sqrt_upper", None),
    ("rationals", "qcbplab.rationals", "dyadic_sqrt_lower", None),
    ("rationals", "qcbplab.rationals", "l2_norm_sq", None),
    ("rationals", "qcbplab.rationals", "RationalMatrix.matvec", None),
    ("creal.approx", "qcbplab.creal", "CReal.approx", _post_creal_approx),
    ("halting.run_bounded", "qcbplab.halting", "run_bounded", _post_run_bounded),
    ("halting.decide_membership", "qcbplab.halting", "decide_membership", None),
    ("families.separation_certificate", "qcbplab.families", "separation_certificate", None),
    ("cli.main", "qcbplab.cli", "main", None),
    ("mlp.train", "qcbplab.mlp", "train", _post_train),
    ("mlp.instability_eval", "qcbplab.mlp", "instability_eval", None),
    ("mlp.lipschitz_upper_bound", "qcbplab.mlp", "lipschitz_upper_bound", None),
    ("mlp.gen_training_set", "qcbplab.mlp", "gen_training_set", None),
)


# counters the post-call hooks keep; reported as 0 when their layer is not called
COUNTERS = (
    "kernels.pd_iterate.iterations",
    "kernels.grid_scan.box_points",
    "kernels.grid_scan.bigint_calls",
    "qcbp.solve_numeric.converged",
    "qcbp.solve_numeric.iterations_max",
    "creal.approx.max_bits",
    "halting.run_bounded.steps",
    "mlp.train.steps",
)

# (rate metric, scale, span whose self time is divided, counter it is divided by)
RATES = (
    ("kernels.pd_iterate.us_per_iter", 1e6, "kernels.pd_iterate", "kernels.pd_iterate.iterations"),
    ("kernels.grid_scan.ns_per_point", 1e9, "kernels.grid_scan", "kernels.grid_scan.box_points"),
    ("halting.run_bounded.ns_per_step", 1e9, "halting.run_bounded", "halting.run_bounded.steps"),
    ("mlp.train.us_per_step", 1e6, "mlp.train", "mlp.train.steps"),
)


class Tracer:
    """Aggregates self time and counters of nested spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._children: list[float] = []  # child time of each open span
        self._restore: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, args, kwargs, post=None):
        """Run ``fn`` as a span named ``name``; ``post`` updates counters."""
        self._children.append(0.0)
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = self.clock() - start
            self.self_s[name] += elapsed - self._children.pop()
            if self._children:
                self._children[-1] += elapsed
            self.counts[name + ".calls"] += 1
        if post is not None:
            post(self, args, result)
        return result

    def wrap(self, name: str, fn, post=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, post)

        return wrapper

    def install(self) -> None:
        """Wrap every function of :data:`WRAPPED` wherever ``qcbplab`` binds it."""
        for name, module_name, attr, post in WRAPPED:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                orig = getattr(owner, method)
                self._set(owner, method, self.wrap(name, orig, post))
                continue
            orig = getattr(module, attr)
            wrapper = self.wrap(name, orig, post)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "qcbplab" and not mod_name.startswith("qcbplab."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, orig = self._restore.pop()
            setattr(owner, key, orig)

    def _set(self, owner, key, value) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)


def layer_metrics(tracer: Tracer, traced_wall_s: float) -> dict[str, float]:
    """Per-layer metric values of one traced pass (see README.md).

    Every wrapped prefix gives ``<prefix>.calls`` and ``<prefix>.self_s``;
    the post-call hooks give :data:`COUNTERS`; four rates and the converged
    share are derived from those.
    """
    s, c = tracer.self_s, tracer.counts

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values: dict[str, float] = {}
    for prefix in dict.fromkeys(prefix for prefix, *_ in WRAPPED):
        values[prefix + ".calls"] = c[prefix + ".calls"]
        values[prefix + ".self_s"] = s[prefix]
    values.update((name, c[name]) for name in COUNTERS)
    for rate, scale, span, counter in RATES:
        values[rate] = ratio(scale * s[span], c[counter])
    values["qcbp.solve_numeric.converged_ratio"] = ratio(
        c["qcbp.solve_numeric.converged"], c["qcbp.solve_numeric.calls"]
    )
    values["bench.traced_wall_s"] = traced_wall_s
    return values
