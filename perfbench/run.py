#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of cfoptics.

Run from the root of a source checkout (no build step: the package is
imported from ``src/``):

    python3 perfbench/run.py --workload angle-search --seed 1 --seconds 35 --trace 0

With ``--trace 0`` the workload runs untraced for ``--seconds`` and the
end-to-end metrics are reported.  With ``--trace 1`` the first cycle of the
workload runs repeatedly, alternating an untraced pass with a traced one,
and the per-layer metrics are reported (see README.md in this directory).
Every op's output is checked; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import gc
import importlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# The held-out seed is kept for confirming a claimed gain on inputs the
# change was not tuned on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

# Set-up is repeated between the first cycles and its median reported, so a
# burst of load on a shared machine does not decide the figure.  The count
# is fixed because each fresh import leaves some memory behind, which would
# otherwise make peak_rss_mb depend on the run's speed.
SETUP_ROUNDS = 9

# The machine the bounds were set on (2 shared vCPUs) runs the same code a
# third to a half slower for seconds to minutes at a time, which spreads raw
# times of identical runs by 20-35%.  Every end-to-end time is therefore
# scaled to a nominal machine speed: it is multiplied by
# REFERENCE_NOMINAL_S / r, where r is the time of a fixed reference loop
# measured right before and after it.  The unscaled figures are printed on
# the context line.  REFERENCE_NOMINAL_S is the loop's 10th-percentile time
# on that machine (Intel Xeon, 2.0 GHz).
REFERENCE_ITERATIONS = 30000
REFERENCE_NOMINAL_S = 0.002

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_ok_frac": "frac",
}

PER_LAYER_UNITS = {metric: "ms" for metric in tracing.SELF_TIME_MS}
PER_LAYER_UNITS.update({
    "analysis.channel_evals": "count",
    "protocols.elements_built": "count",
    "core.propagations": "count",
    "core.compiles_per_propagation": "ratio",
    "kernel.elements": "count",
    "kernel.ns_per_element": "ns",
    "kernel.snapshot_bytes": "bytes",
    "classical.bits_relayed": "count",
    "trace.overhead_frac": "frac",
})


class Tally:
    """Ops attempted and failed, with the first few failures kept for stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def fail(self, op, message):
        self.failed += 1
        if len(self.messages) < 10:
            self.messages.append(f"{op.label}: {message}")


def run_checked(op, tally, run=None):
    """Time one op, check its output and count it.

    Returns ``(seconds, output, counts)``; ``counts`` is None when the op
    failed, which an exception, a non-zero exit or a failed check all mean.
    """
    tally.attempted += 1
    started = time.perf_counter()
    try:
        output = (run or op.run)()
    except (Exception, SystemExit) as exc:  # an op failing must not end the run
        elapsed = time.perf_counter() - started
        tally.fail(op, f"{type(exc).__name__}: {exc}")
        return elapsed, None, None
    elapsed = time.perf_counter() - started
    try:
        counts = op.check(output)
    except Exception as exc:
        tally.fail(op, f"check failed: {type(exc).__name__}: {exc}")
        return elapsed, output, None
    return elapsed, output, counts


def load_package():
    """Put this checkout's ``src/`` first on the path; refuse to run without it."""
    if not os.path.isfile(os.path.join(SRC, "cfoptics", "__init__.py")):
        raise SystemExit(f"perfbench: no cfoptics sources under {SRC}")
    sys.path.insert(0, SRC)


def fresh_import():
    """Import cfoptics from scratch (numpy, its dependency, stays loaded)."""
    for name in [name for name in sys.modules if name.split(".")[0] == "cfoptics"]:
        del sys.modules[name]
    package = importlib.import_module("cfoptics")
    importlib.import_module("cfoptics.cli")
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported cfoptics from {package.__file__}, not {SRC}")
    return package


def setup(name, seed, scratch, tally):
    """One set-up round: fresh import, the workload and its first cycle, and
    the warm-up ops.  Returns ``(seconds, workload, first cycle)``."""
    started = time.perf_counter()
    fresh_import()
    workload = workloads.make(name, seed, scratch)
    first = workload.cycle()
    for op in workload.warmup():
        run_checked(op, tally)
    return time.perf_counter() - started, workload, first


def reference_seconds():
    """Time a fixed pure-Python integer loop that touches no cfoptics code
    and allocates no tracked objects, so only the machine changes its speed."""
    started = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - started


def measure(name, seed, scratch, seconds, tally):
    """Whole cycles, closed loop, until ``seconds`` have passed.

    A set-up round is repeated before each of the first ``SETUP_ROUNDS``
    even-numbered cycles.  The reference loop is timed before and after
    every op and set-up round.  Returns two lists of ``(seconds, reference
    seconds)``: one per op and one per set-up round, the reference being
    the mean of the readings on either side.
    """
    def timed(action):
        nonlocal reading
        before = reading
        result = action()
        reading = reference_seconds()
        return result, 0.5 * (before + reading)

    reading = reference_seconds()
    (setup_s, workload, cycle), reference = timed(lambda: setup(name, seed, scratch, tally))
    setups = [(setup_s, reference)]
    gc.collect()
    ops = []
    started = time.perf_counter()
    for cycles in itertools.count(1):
        for op in cycle:
            (elapsed, _, _), reference = timed(lambda: run_checked(op, tally))
            ops.append((elapsed, reference))
        if time.perf_counter() - started >= seconds:
            return ops, setups
        if len(setups) < SETUP_ROUNDS and cycles % 2 == 0:
            (setup_s, _, _), reference = timed(lambda: setup(name, seed, scratch, tally))
            setups.append((setup_s, reference))
        cycle = workload.cycle()


def time_metrics(ops, setups):
    """``ops_per_s``, ``op_p50_ms``, ``op_p90_ms`` and ``setup_s`` from
    ``(seconds, reference seconds)`` pairs, each time scaled by
    ``REFERENCE_NOMINAL_S / reference``; pass a reference equal to the
    nominal one to get the raw times."""
    latencies = [elapsed * REFERENCE_NOMINAL_S / reference for elapsed, reference in ops]
    p90 = statistics.quantiles(latencies, n=10)[-1]
    metrics = {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "setup_s": statistics.median(s * REFERENCE_NOMINAL_S / r for s, r in setups),
    }
    return metrics, sum(latency > p90 for latency in latencies)


def end_to_end(ops, setups, tally):
    metrics, beyond_p90 = time_metrics(ops, setups)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["ops_ok_frac"] = 1.0 - tally.failed / tally.attempted
    raw, _ = time_metrics([(s, REFERENCE_NOMINAL_S) for s, _ in ops],
                          [(s, REFERENCE_NOMINAL_S) for s, _ in setups])
    samples = {
        "ops_timed": len(ops),
        "beyond_p90": beyond_p90,
        "setup_rounds": len(setups),
        "reference_ms_median": statistics.median(r for _, r in ops) * 1e3,
        "unscaled": raw,
    }
    return metrics, samples


def traced_passes(cycle, seconds, tally):
    """Alternate untraced and traced passes over ``cycle`` for ``seconds``.

    Each traced op must print the same bytes as its untraced twin, and its
    traced counts must equal the work the program reports.  Times are the
    median over traced passes; counts must repeat exactly across passes.
    """
    passes = []
    overheads = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        plain = [run_checked(op, tally) for op in cycle]
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = [
                run_checked(op, tally, lambda i=i, op=op: tracer.run_op(i, op.run))
                for i, op in enumerate(cycle)
            ]
        problems = tracer.op_problems([counts for _, _, counts in traced])
        for i, op in enumerate(cycle):
            if traced[i][2] is None:
                continue  # already counted as failed
            if traced[i][1] != plain[i][1]:
                problems[i].append("traced output differs from the untraced output")
            if problems[i]:
                tally.fail(op, "; ".join(problems[i]))
        passes.append(tracer.layer_metrics())
        overheads.append(sum(t for t, _, _ in traced) / sum(t for t, _, _ in plain) - 1.0)
        if tracer.missing:
            print(f"perfbench: hooks not found: {', '.join(tracer.missing)}", file=sys.stderr)
    metrics = {}
    for name in passes[0]:
        values = [metrics_of_pass[name] for metrics_of_pass in passes]
        if PER_LAYER_UNITS[name] == "ms" or name == "kernel.ns_per_element":
            metrics[name] = statistics.median(values)
        else:
            if any(value != values[0] for value in values):
                tally.fail(cycle[0], f"{name} differs between traced passes: {values}")
            metrics[name] = values[0]
    metrics["trace.overhead_frac"] = statistics.median(overheads)
    return metrics, {"passes": len(passes), "ops_per_pass": len(cycle)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out)")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_package()
    import numpy

    tally = Tally()
    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.trace:
            _, _, first = setup(args.workload, args.seed, scratch, tally)
            gc.collect()
            metrics, samples = traced_passes(first, args.seconds, tally)
            units = PER_LAYER_UNITS
        else:
            ops, setups = measure(args.workload, args.seed, scratch, args.seconds, tally)
            metrics, samples = end_to_end(ops, setups, tally)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for message in tally.messages:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name:32s} {metrics[name]:16.6f} {unit}")
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "kernel_backend": sys.modules["cfoptics"].kernel_backend(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "samples": samples,
    }))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
