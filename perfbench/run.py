#!/usr/bin/env python3
"""qcbplab benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload families-solve --seed 1 --seconds 30 --trace 0

Runs the workload's seeded operation list in a fixed number of passes, one
operation at a time: ``--seconds`` over the workload's nominal pass time.
Times are scaled to a fixed machine speed by a reference slice timed between
operations (see :func:`reference_slice`).
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics.
Every output of every pass is verified after timing ends.  Human-readable
lines come first; the last line of standard output is the JSON result.  See
README.md.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # a set-up probe times itself from here

import os

# one BLAS thread, set before numpy loads, here and in every set-up probe
_PINNED = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(_PINNED)

import argparse
import gc
import hashlib
import importlib
import json
import math
import resource
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, aggregate_counters

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 24  # set-up probes in a run, spread evenly over its passes
# seconds one reference slice takes on a quiet stretch of the machine the
# bounds were measured on (2-core shared VM, Python 3.11); times are reported
# at that speed
REF_S = 7.5e-4
_REF_K = np.arange(12.0).reshape(3, 4) / 7
TIME_UNITS = ("s", "ms", "us", "ns")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def reference_slice() -> float:
    """Seconds one fixed slice of reference work takes now.

    The work is of the kinds qcbplab spends its time on: small numpy vector
    steps like the primal-dual loop's, a Fraction sum, and plain
    interpreter work on ints and a dict.  It never calls qcbplab, so only the
    machine's speed changes it, and other tenants of a shared machine slow
    it much as they slow the operation next to it.
    """
    t0 = time.perf_counter()
    K, x, z = _REF_K, np.ones(4), np.zeros(3)
    for _ in range(60):
        u = z + 0.1 * (K @ x) - 0.1
        z = u * max(0.0, 1.0 - 0.01 / math.sqrt(float(np.dot(u, u))))
        x = x - 0.1 * (K.T @ z)
    s = Fraction(0)
    for i in range(1, 40):
        s += Fraction(i, i * i + 1)
    d: dict[int, int] = {}
    for i in range(1500):
        d[i % 97] = d.get(i % 97, 0) + i * 3 // 7
    return time.perf_counter() - t0


def scaled(latencies: list[float], refs: list[float]) -> list[float]:
    """Latencies at the reference speed.

    ``refs`` holds one more reference time than there are latencies:
    ``refs[i]`` was timed just before operation ``i`` and ``refs[i + 1]``
    just after it.  Each latency is multiplied by :data:`REF_S` over the
    geometric mean of the two.
    """
    return [lat * REF_S / math.sqrt(a * b) for lat, a, b in zip(latencies, refs, refs[1:])]


def _setup(workload, seed: int, workdir: Path):
    """Import what the workload uses and run its warm-up operation once."""
    for name in workload.modules:
        importlib.import_module(name)
    op = workload.warmup(seed, workdir)
    op.run()


def _probe_setup(args) -> float:
    """Set-up time of a fresh process at the reference speed.

    The probe times its imports and warm-up operation from its first
    statement, so interpreter start-up and teardown, which the package does
    not control, stay out.  The time is scaled like an operation's, by the
    median of three reference slices timed here just before the probe and
    of three just after it.
    """
    before = np.median([reference_slice() for _ in range(3)])
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, env=os.environ.copy(), capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    after = np.median([reference_slice() for _ in range(3)])
    return float(proc.stdout.split()[-1]) * REF_S / math.sqrt(before * after)


class _Raised:
    """Stands in for the output of an operation that raised."""

    def __init__(self, text: str):
        self.text = text


def _digest(op, out) -> bytes:
    if isinstance(out, _Raised):
        return out.text.encode()
    return hashlib.sha256(op.digest(out)).digest()


class Pass:
    """One timed pass: its timings, counters and the outputs still to verify.

    A reference slice is timed before the first operation and after each
    one, outside the operations' timings, so that ``scaled`` holds the
    latencies at the reference speed; ``latencies`` and ``wall`` are as
    measured.

    Outputs are reduced as soon as the pass ends, so memory does not grow
    with the number of passes: an output whose digest equals the reference
    pass's shares that output's verdict and is dropped; the others are kept
    for their own check.
    """

    def __init__(self, ops, reference: "Pass | None"):
        gc.collect()
        self.latencies, outputs = [], []
        refs = [reference_slice()]
        for op in ops:
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception:  # a failed operation is counted, not fatal
                out = _Raised(traceback.format_exc(limit=3))
            self.latencies.append(time.perf_counter() - t0)
            refs.append(reference_slice())
            outputs.append(out)
        self.wall = sum(self.latencies)
        self.scaled = scaled(self.latencies, refs)
        self.layers = None  # per-layer metrics, for a traced pass
        self.digests = [_digest(op, out) for op, out in zip(ops, outputs)]
        self.kept = {
            i: out
            for i, out in enumerate(outputs)
            if reference is None or self.digests[i] != reference.digests[i]
        }
        per_op = []
        for op, out in zip(ops, outputs):
            try:
                per_op.append(op.count(out))
            except Exception:  # a broken output fails its check in _verify
                pass
        self.counters = aggregate_counters(per_op)


def _code_hash() -> str:
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*"), *BENCH_DIR.glob("*.py")]):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _repeat_check(workdir: Path, key: str, counters: dict) -> str | None:
    """Compare counters with the last run of the same code, workload and seed."""
    path = workdir / "counters" / f"{key}.json"
    if path.exists():
        before = json.loads(path.read_text())
        if before != counters:
            return f"counters differ from an earlier run with the same seed: {before} vs {counters}"
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counters, sort_keys=True))
    return None


def _passes(ops, count: int, seconds: float, trace: bool, probe=None):
    """``count`` timed passes, alternating untraced and traced ones when ``trace`` is set.

    ``probe``, if given, is called before each pass, :data:`SETUP_PROBES`
    times in all (rounded up to a multiple of ``count``); the times are
    returned in one list.  Spreading the probes over the run samples the
    machine's speed as the passes do.  Passes stop early only once
    ``3 * seconds`` have gone by, so a much slower program still ends in
    time.
    """
    if trace:
        from tracing import Tracer, layer_metrics
    plain, traced, setups = [], [], []
    deadline = time.perf_counter() + 3 * seconds
    while len(plain) + len(traced) < count:
        if plain and (traced or not trace) and time.perf_counter() > deadline:
            break
        if probe is not None:
            setups.extend(probe() for _ in range(-(-SETUP_PROBES // count)))
        reference = plain[0] if plain else None
        if trace and len(traced) < len(plain):
            tracer = Tracer()
            tracer.install()
            try:
                p = Pass(ops, reference)
            finally:
                tracer.uninstall()
            p.layers = layer_metrics(tracer, p.wall)
            traced.append(p)
        else:
            plain.append(Pass(ops, reference))
    return plain, traced, setups


def _verify(ops, passes):
    """Failure messages over all passes; the first pass is the reference."""
    verdicts = {}
    failures = []
    for p in passes:
        for i, op in enumerate(ops):
            if i in p.kept:
                out = p.kept[i]
                if isinstance(out, _Raised):
                    problem = f"raised\n{out.text}"
                else:
                    try:
                        problem = op.check(out)
                    except Exception:  # a broken output can break its check too
                        problem = "check raised\n" + traceback.format_exc(limit=3)
                verdicts.setdefault(i, problem)  # the reference pass comes first
            else:
                problem = verdicts[i]
            if problem:
                failures.append(f"{op.label}: {problem}")
    return failures


def _layer_values(entries, plain, traced, problems, counters):
    for p in traced:
        p.layers["cli.main.bytes_out"] = p.counters.get("cli_bytes_out", 0)
    values = {}
    for e in entries:
        name = e["name"]
        if name == "bench.trace_overhead_frac":
            continue
        seen = [p.layers[name] for p in traced]
        if e["unit"] in TIME_UNITS:
            values[name] = float(np.median(seen))
        elif any(v != seen[0] for v in seen):
            problems.append(f"{name} differs between traced passes: {seen}")
        else:
            values[name] = counters["layer." + name] = seen[0]
    values["bench.trace_overhead_frac"] = (
        np.median([sum(p.scaled) for p in traced]) / np.median([sum(p.scaled) for p in plain]) - 1
    )
    return values


def typical_latencies(passes: list[list[float]]) -> np.ndarray:
    """Each operation's median latency over the passes."""
    return np.median(np.array(passes), axis=0)


def end_to_end(passes: list[list[float]], setups: list[float]) -> dict[str, float]:
    """The timing metrics of ``--trace 0`` from per-pass latencies and set-up probe times.

    ``wall_s`` is the median over the passes of the time to complete the
    list; the percentiles are taken over the operations' median latencies;
    ``setup_s`` is the median probe.
    """
    typical = typical_latencies(passes)
    return {
        "setup_s": float(np.median(setups)),
        "wall_s": float(np.median(np.sum(passes, axis=1))),
        "op_p50_ms": 1e3 * float(np.percentile(typical, 50)),
        "op_p90_ms": 1e3 * float(np.percentile(typical, 90)),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "qcbplab" / "__init__.py").is_file():
        print(f"perfbench: no qcbplab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work"
    workdir.mkdir(exist_ok=True)
    if args.setup_probe:
        _setup(workload, args.seed, workdir)
        print(time.perf_counter() - STARTED)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _setup(workload, args.seed, workdir)
    ops = workload.build(args.seed, workdir)
    count = max(1, round(args.seconds / workload.pass_s))
    if args.trace:
        count = 2 * max(1, count // 2)  # as many traced passes as untraced ones
    probe = None if args.trace else (lambda: _probe_setup(args))
    plain, traced, setups = _passes(ops, count, args.seconds, bool(args.trace), probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # --- verification, outside every timed region
    passes = plain + traced
    failures = _verify(ops, passes)
    attempted = len(ops) * len(passes)
    problems = []
    if any(p.counters != passes[0].counters for p in passes) and not failures:
        problems.append(f"counters differ between passes: {[p.counters for p in passes]}")
    counters = {} if failures else dict(passes[0].counters)

    if args.trace:
        entries = spec["per_layer"]
        values = _layer_values(entries, plain, traced, problems, counters)
    else:
        entries = spec["end_to_end"]
        values = end_to_end([p.scaled for p in plain], setups)
        values["peak_rss_mb"] = peak_rss_mb
        typical = typical_latencies([p.scaled for p in plain])
        beyond = int((typical > np.percentile(typical, 90)).sum())
        print(f"# samples: {len(ops)} operations, each timed in {len(plain)} passes; "
              f"{beyond} beyond p90; {len(setups)} set-up probes")
        print("# set-up probes at reference speed: " + " ".join(f"{v:.4f}" for v in setups))
        print("# pass wall_s at reference speed: " + " ".join(f"{sum(p.scaled):.3f}" for p in plain))
        print("# pass wall_s as measured: " + " ".join(f"{p.wall:.3f}" for p in plain))
    if not failures and not problems:
        key = f"{args.workload}-seed{args.seed}-trace{args.trace}-{_code_hash()}"
        problem = _repeat_check(workdir, key, counters)
        if problem:
            problems.append(problem)

    metrics = {
        e["name"]: {"value": values[e["name"]], "unit": e["unit"]}
        for e in entries
        if e["name"] in values
    }
    for name, m in metrics.items():
        value = m["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name:44s} {shown:>16} {m['unit']}")
    for name in sorted(counters):
        print(f"# counter {name} = {counters[name]}")
    for text in failures[:10] + problems:
        print(f"# FAILED {text}")
    failed = len(failures)
    print(f"# failed_frac = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
