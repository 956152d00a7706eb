"""Spans and counts at cfoptics' module boundaries, without editing the package.

The modules import each other's functions by name, so a wrapper must sit
at the name each caller looks up: ``cli`` calls analysis and protocol
functions through its own namespace, ``analysis`` calls ``run_protocol``
through its own, ``protocols`` calls ``Network`` and ``propagate`` through
its own, ``core`` calls ``compile_network`` through its own and the kernel
through ``cfoptics.kernel.run_plan``.  ``Tracer.installed()`` puts the
wrappers there and restores the originals afterwards.

A span is ``[name, start, end, parent, op, size]``; ``size`` is the work a
call did where the boundary can count it.  Spans stay in memory and are
reduced to per-layer metrics after each traced pass.
"""

import contextlib
import sys
import time


def _elements_built(args, result):
    return len(result.elements)


def _elements_propagated(args, result):
    return len(args[0].elements)


def _plan(args, result):
    """(plan ops executed, snapshot bytes = checkpoint rows x modes x 16)."""
    snaps = args[6]
    return len(args[0]), snaps.shape[0] * snaps.shape[1] * 16


def _one_bit(args, result):
    return 1


def _bits(args, result):
    return len(args[0])


# (module, attribute, span name, size).  A function appears once per
# namespace its callers use; every wrapper wraps the original, so a call is
# recorded once.
HOOKS = (
    ("cfoptics.cli", "main", "cli.main", None),
    ("cfoptics.cli", "channel_from_protocol", "analysis.channel_from_protocol", None),
    ("cfoptics.analysis", "channel_from_protocol", "analysis.channel_from_protocol", None),
    ("cfoptics.cli", "optimize_angles", "analysis.optimize_angles", None),
    ("cfoptics.cli", "capacity", "analysis.capacity", None),
    ("cfoptics.cli", "mutual_information", "analysis.mutual_information", None),
    ("cfoptics.analysis", "mutual_information", "analysis.mutual_information", None),
    ("cfoptics.cli", "balanced_theta2", "analysis.balanced_theta2", None),
    ("cfoptics.analysis", "balance_root_solve", "analysis.balance_root_solve", None),
    ("cfoptics.cli", "run_protocol", "protocols.run_protocol", None),
    ("cfoptics.analysis", "run_protocol", "protocols.run_protocol", None),
    ("cfoptics.cli", "run_chain", "protocols.run_chain", None),
    ("cfoptics.protocols", "build_nested_network", "protocols.build_nested_network", _elements_built),
    ("cfoptics.protocols", "build_chain_network", "protocols.build_chain_network", _elements_built),
    ("cfoptics.protocols", "Network", "core.Network", None),
    ("cfoptics.protocols", "propagate", "core.propagate", _elements_propagated),
    ("cfoptics.core", "compile_network", "core.compile_network", None),
    ("cfoptics.kernel", "run_plan", "kernel.run_plan", _plan),
    ("cfoptics.cli", "run_billiard", "classical.run_billiard", _one_bit),
    ("cfoptics.cli", "decode_billiard", "classical.decode_billiard", None),
    ("cfoptics.cli", "carrier_span_audit", "classical.carrier_span_audit", None),
    ("cfoptics.cli", "run_pulse_relay", "classical.run_pulse_relay", _bits),
)

ROOT_SPAN = "bench.op"

ANALYSIS = ("analysis.channel_from_protocol", "analysis.optimize_angles", "analysis.capacity",
            "analysis.mutual_information", "analysis.balanced_theta2",
            "analysis.balance_root_solve")
CLASSICAL = ("classical.run_billiard", "classical.decode_billiard",
             "classical.carrier_span_audit", "classical.run_pulse_relay")

# Per-layer self times: metric -> the spans whose self time it sums.  Spans
# with no traced children (Network, compile, kernel, classical) have self
# time equal to their duration.
SELF_TIME_MS = {
    "cli.self_ms": ("cli.main",),
    "analysis.self_ms": ANALYSIS,
    "protocols.build_ms": ("protocols.build_nested_network", "protocols.build_chain_network"),
    "protocols.self_ms": ("protocols.run_protocol", "protocols.run_chain"),
    "core.validate_ms": ("core.Network",),
    "core.compile_ms": ("core.compile_network",),
    "core.propagate_self_ms": ("core.propagate",),
    "kernel.busy_ms": ("kernel.run_plan",),
    "classical.busy_ms": CLASSICAL,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = -1
        self.missing = []

    def wrap(self, name, function, size=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if size is not None:
                span[5] = size(args, result)
            return result

        traced.__wrapped__ = function
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every hook that exists; restore the originals on exit."""
        originals = []
        self.missing = []
        try:
            for module_name, attribute, name, size in HOOKS:
                module = sys.modules[module_name]
                if not hasattr(module, attribute):
                    self.missing.append(f"{module_name}.{attribute}")
                    continue
                original = getattr(module, attribute)
                originals.append((module, attribute, original))
                setattr(module, attribute, self.wrap(name, original, size))
            yield self
        finally:
            for module, attribute, original in reversed(originals):
                setattr(module, attribute, original)

    def run_op(self, op_index, run):
        """Run one op under a root span tagged ``op_index``."""
        self.op = op_index
        try:
            return self.wrap(ROOT_SPAN, run)()
        finally:
            self.op = -1

    def self_times(self):
        """Self time of every span: its duration minus its children's."""
        durations = [end - start for _, start, end, _, _, _ in self.spans]
        result = list(durations)
        for span, duration in zip(self.spans, durations):
            if span[3] >= 0:
                result[span[3]] -= duration
        return result

    def op_problems(self, counts_by_op):
        """For each traced op, the ways it disagrees with the work the program
        reports (``counts_by_op[i]``, None for an op that failed) or with a
        well-formed span tree."""
        selves = self.self_times()
        by_op = [[] for _ in counts_by_op]
        for i, span in enumerate(self.spans):
            if span[4] >= 0:
                by_op[span[4]].append(i)
        return [self._problems(mine, counts, selves) if counts is not None else []
                for mine, counts in zip(by_op, counts_by_op)]

    def _problems(self, mine, counts, selves):
        problems = []
        spans = self.spans
        by_name = {}
        for i in mine:
            name, start, end, parent = spans[i][:4]
            by_name.setdefault(name, []).append(i)
            if parent >= 0 and not spans[parent][1] <= start <= end <= spans[parent][2]:
                problems.append(f"span {name} escapes its parent")
        roots = by_name.get(ROOT_SPAN, [])
        if len(roots) != 1:
            problems.append(f"{len(roots)} root spans")
        else:
            wall = spans[roots[0]][2] - spans[roots[0]][1]
            if abs(sum(selves[i] for i in mine) - wall) > 1e-9 * max(1.0, wall):
                problems.append("layer self times do not add up to the op's wall time")

        def total(name, part=None):
            sizes = (spans[i][5] for i in by_name.get(name, []))
            return sum(s if part is None else s[part] for s in sizes)

        observed = {
            "channel_evals": len(by_name.get("analysis.channel_from_protocol", [])),
            "elements": total("kernel.run_plan", 0),
            "bits_relayed": total("classical.run_billiard") + total("classical.run_pulse_relay"),
        }
        for key, value in observed.items():
            if value != counts[key]:
                problems.append(f"traced {key} {value} != program's {counts[key]}")
        if total("core.propagate") != observed["elements"]:
            problems.append("kernel elements != elements of the propagated networks")
        return problems

    def layer_metrics(self):
        """Per-layer metrics over every span recorded."""
        selves = self.self_times()
        self_ms = {}
        calls = {}
        sizes = {}
        for span, own in zip(self.spans, selves):
            name = span[0]
            self_ms[name] = self_ms.get(name, 0.0) + own * 1e3
            calls[name] = calls.get(name, 0) + 1
            sizes.setdefault(name, []).append(span[5])
        metrics = {
            metric: sum(self_ms.get(name, 0.0) for name in names)
            for metric, names in SELF_TIME_MS.items()
        }
        plans = sizes.get("kernel.run_plan", [])
        elements = sum(size[0] for size in plans)
        propagations = calls.get("core.propagate", 0)
        metrics.update({
            "analysis.channel_evals": calls.get("analysis.channel_from_protocol", 0),
            "protocols.elements_built": sum(
                sum(sizes.get(name, [])) for name in SELF_TIME_MS["protocols.build_ms"]),
            "core.propagations": propagations,
            "core.compiles_per_propagation":
                calls.get("core.compile_network", 0) / propagations if propagations else 0.0,
            "kernel.elements": elements,
            "kernel.ns_per_element":
                metrics["kernel.busy_ms"] * 1e6 / elements if elements else 0.0,
            "kernel.snapshot_bytes": max((size[1] for size in plans), default=0),
            "classical.bits_relayed":
                sum(sizes.get("classical.run_billiard", []))
                + sum(sizes.get("classical.run_pulse_relay", [])),
        })
        return metrics
