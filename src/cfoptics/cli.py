"""Batch command-line front end.

Subcommands: ``simulate``, ``sweep``, ``optimize``, ``capacity``,
``classical``, ``chain``.  Parameters come from flags and/or a JSON
configuration document (``--config PATH``, same keys as the flags; flags
override; unknown keys are rejected).  Results are emitted as JSON or CSV
with fixed 12-significant-digit decimal formatting, so identical runs
produce byte-identical documents; wall time goes to stderr only.

Exit status: 0 on success, 2 with a diagnostic on any validation or domain
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from typing import Dict, List, Optional, Tuple

from . import __version__
from .analysis import (
    _UNIFORM_PRIOR,
    balanced_theta2,
    capacity,
    channel_from_protocol,
    mutual_information,
    optimize_angles,
    success_probabilities,
)
from .classical import carrier_span_audit, decode_billiard, run_billiard, run_pulse_relay
from .core import _decimal, _finite_real, _integer
from .errors import CfOpticsError
from .protocols import (
    LEG_NAMES,
    MAX_CHAIN_ELEMENTS,
    ChainConfig,
    NestedConfig,
    _chain_element_count,
    run_chain,
    run_protocol,
)

__all__ = ["build_parser", "main"]


class CliUsageError(CfOpticsError):
    """Invalid flags, configuration keys, or parameter combinations."""


# ---------------------------------------------------------------------------
# deterministic rendering


def _fmt_number(value) -> str:
    if type(value) is not float:  # an exact float, the common case, needs no test
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, int):
            return str(value)
        value = float(value)
    if value == 0.0:
        return "0"  # normalize -0.0
    return format(value, ".12g")


def _render_json(value, indent: int = 0) -> str:
    # Exact floats and ints, nearly every value of a document, skip the
    # container tests.
    if type(value) is float or type(value) is int:
        return _fmt_number(value)
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(key))}: {_render_json(item, indent + 1)}"
            for key, item in value.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        parts = [f"{inner}{_render_json(item, indent + 1)}" for item in value]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    return _fmt_number(value)


def _flatten(value, prefix: str, out: List[Tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(item, f"{prefix}.{key}" if prefix else str(key), out)
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _flatten(item, f"{prefix}[{index}]", out)
    elif isinstance(value, str):
        out.append((prefix, value))
    elif value is None:
        out.append((prefix, ""))
    else:
        out.append((prefix, _fmt_number(value)))


def _render_csv(document: dict) -> str:
    results = document["results"]
    if isinstance(results, dict) and "columns" in results and "rows" in results:
        lines = [",".join(results["columns"])]
        for row in results["rows"]:
            lines.append(",".join(_fmt_number(cell) if not isinstance(cell, str) else cell for cell in row))
        return "\n".join(lines) + "\n"
    pairs: List[Tuple[str, str]] = []
    _flatten(document, "", pairs)
    lines = ["key,value"] + [f"{key},{value}" for key, value in pairs]
    return "\n".join(lines) + "\n"


def _render(document: dict, fmt: str) -> str:
    if fmt == "csv":
        return _render_csv(document)
    return _render_json(document) + "\n"


# ---------------------------------------------------------------------------
# parameter resolution


# Longest config file read, in bytes; a longer one is refused unparsed.
_MAX_CONFIG_BYTES = 1 << 20

# The form of the text ``int`` reads (the whitespace it strips is ``\s``
# without U+001C to U+001F), and what ``_read_int`` returns where ``int``
# refuses only its length (over 4,300 digits by default): no number and no
# string, so every parameter refuses it.
_INTEGER_TEXT = re.compile(r"[^\S\x1c-\x1f]*[+-]?\d+(_\d+)*[^\S\x1c-\x1f]*")
_TOO_MANY_DIGITS = object()


def _read_int(text: str):
    try:
        return int(text, 10)
    except ValueError:
        return _TOO_MANY_DIGITS


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "rb") as handle:
            data = handle.read(_MAX_CONFIG_BYTES + 1)
    except OSError as exc:
        raise CliUsageError(f"cannot read config file: {exc}")
    if len(data) > _MAX_CONFIG_BYTES:
        raise CliUsageError(f"config file is longer than {_MAX_CONFIG_BYTES} bytes")
    try:  # ValueError covers JSONDecodeError and UnicodeDecodeError
        config = json.loads(data.decode("utf-8"), parse_int=_read_int)
    except (ValueError, RecursionError) as exc:
        raise CliUsageError(f"config file is not valid UTF-8 JSON: {exc}") from None
    if not isinstance(config, dict):
        raise CliUsageError("config document must be a JSON object")
    return config


def _resolve(args: argparse.Namespace) -> Dict[str, object]:
    """Merge config-file values and flags (flags win); reject unknown keys.
    A command's keys are its flags' names, ``--config`` aside."""
    flags = {key: value for key, value in vars(args).items() if key not in ("command", "config")}
    config = _load_config(args.config)
    unknown = sorted(set(config) - set(flags))
    if unknown:
        raise CliUsageError(f"unknown config keys: {', '.join(unknown)}")
    return {key: config.get(key) if value is None else value for key, value in flags.items()}


def _require(spec: Dict[str, object], key: str):
    if spec.get(key) is None:
        raise CliUsageError(f"missing required parameter --{key}")
    return spec[key]


def _as_float(value, name: str) -> float:
    """Real parameter from a flag or config value.  A string, as every flag
    value is, is read by ``float``; a JSON boolean is not a number here."""
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            pass
    if (result := _finite_real(value)) is None:
        raise CliUsageError(f"{name} must be a finite real number")
    return result


def _as_int(value, name: str) -> int:
    """Integer parameter from a flag or config value.  A string, as every
    flag value is, is read by ``int`` where it has the form of an integer
    and else by ``float``, so ``--bit 1.0`` and ``{"bit": 1.0}`` are
    accepted or rejected alike."""
    if isinstance(value, str):
        try:
            value = _read_int(value) if _INTEGER_TEXT.fullmatch(value) else float(value)
        except ValueError:  # float() refused it too
            pass
    if value is _TOO_MANY_DIGITS:
        raise CliUsageError(f"{name} has too many digits to read as an integer")
    if type(value) is float and value.is_integer():
        return int(value)
    if (result := _integer(value)) is None:
        raise CliUsageError(f"{name} must be an integer")
    return result


def _parse_range(value) -> Tuple[float, float]:
    parts = value.split(":") if isinstance(value, str) else value
    if not isinstance(parts, (list, tuple)) or len(parts) != 2:
        raise CliUsageError("theta1 range must be START:STOP or a 2-element list")
    lo, hi = (_as_float(part, "theta1 range endpoint") for part in parts)
    if not lo < hi:
        raise CliUsageError("theta1 range is empty: START must be below STOP")
    return lo, hi


def _parse_int_list(value, name: str) -> List[int]:
    """A ``chain`` list: a comma-separated string, a JSON list, or a bare
    JSON scalar, which reads as a one-element list as its text does as a
    flag; each entry is read by the integer rule, which refuses booleans."""
    if isinstance(value, str):
        parts = [part for part in value.split(",") if part != ""]
    elif isinstance(value, (list, tuple)):
        parts = list(value)
    elif not isinstance(value, dict):
        parts = [value]
    else:
        raise CliUsageError(f"{name} must be a comma-separated list of integers")
    if not parts:
        raise CliUsageError(f"{name} must be non-empty")
    return [_as_int(part, name) for part in parts]


def _theta2_rule(spec: Dict[str, object]) -> Tuple[bool, Optional[float]]:
    """``(balanced, fixed theta2)`` from exactly one of the two rules.  The
    switch is on by its flag or JSON ``true``, off by ``false`` or ``null``;
    any other value, the string ``"false"`` included, is refused."""
    balanced, theta2 = spec.get("balanced"), spec.get("theta2")
    if balanced is not None and not isinstance(balanced, bool):
        raise CliUsageError("balanced must be true or false")
    if balanced and theta2 is not None:
        raise CliUsageError("--balanced and --theta2 are mutually exclusive")
    if not balanced and theta2 is None:
        raise CliUsageError("either --theta2 or --balanced is required")
    return bool(balanced), None if balanced else _as_float(theta2, "theta2")


# ---------------------------------------------------------------------------
# command implementations


def _angles(spec: Dict[str, object]) -> Tuple[float, float, bool]:
    """``(theta1, theta2, balanced)``: theta1 is checked first, then the
    theta2 rule; a balanced theta2 fails only where theta1 is outside
    (0, pi/2), the balance rule's domain."""
    theta1 = _as_float(_require(spec, "theta1"), "theta1")
    balanced, theta2 = _theta2_rule(spec)
    return theta1, balanced_theta2(theta1) if balanced else theta2, balanced


def _cmd_simulate(spec: Dict[str, object]) -> Tuple[dict, dict]:
    theta1, theta2, balanced = _angles(spec)
    bit = _as_int(_require(spec, "bit"), "bit")
    outcome = run_protocol(NestedConfig(theta1, theta2), bit)
    p_none = max(0.0, 1.0 - outcome.p_d1 - outcome.p_d2)
    results = {
        "p_d1": outcome.p_d1,
        "p_d2": outcome.p_d2,
        "p_none": p_none,
        "absorbed": {label: outcome.absorbed[label] for label in ("bob", "discard")},
        "leg_probabilities": {
            name: abs(outcome.legs[name]) ** 2 for name in LEG_NAMES
        },
        "total_probability": outcome.p_d1
        + outcome.p_d2
        + outcome.absorbed["bob"]
        + outcome.absorbed["discard"],
    }
    return {"theta1": theta1, "theta2": theta2, "balanced": balanced, "bit": bit}, results


# Work budget of one sweep, in rows.  A row (two protocol runs, the channel
# measures and its rendering) takes 25-42 us on a shared 2-vCPU Intel Xeon
# (best of 7 ``sweep --theta1 0.05:1.0 --balanced --steps 2000``, in each of
# nine processes; median 28 us), so 0.25-0.42 s in all.
MAX_SWEEP_STEPS = 10_000


def _cmd_sweep(spec: Dict[str, object]) -> Tuple[dict, dict]:
    lo, hi = _parse_range(_require(spec, "theta1"))
    steps = _as_int(spec.get("steps") if spec.get("steps") is not None else 20, "steps")
    if steps < 2:
        raise CliUsageError("steps must be >= 2")
    if steps > MAX_SWEEP_STEPS:
        raise CliUsageError(f"steps {_decimal(steps)} is above the budget of {MAX_SWEEP_STEPS} rows")
    balanced, fixed_theta2 = _theta2_rule(spec)
    columns = ("theta1", "theta2", "p00", "p11", "loss", "mi_uniform")
    rows = []
    for index in range(steps):
        theta1 = lo + index * (hi - lo) / (steps - 1)
        theta2 = balanced_theta2(theta1) if balanced else fixed_theta2
        channel = channel_from_protocol(NestedConfig(theta1, theta2))
        p00, p11 = success_probabilities(channel)
        loss = 0.5 * (channel._rows[0][2] + channel._rows[1][2])
        info = mutual_information(channel, _UNIFORM_PRIOR)
        rows.append([theta1, theta2, p00, p11, loss, info])
    echo = {
        "theta1_range": [lo, hi],
        "theta2_rule": "balanced" if balanced else "fixed",
        "theta2": fixed_theta2,
        "steps": steps,
    }
    return echo, {"columns": list(columns), "rows": rows}


def _cmd_optimize(spec: Dict[str, object]) -> Tuple[dict, dict]:
    objective = _require(spec, "objective")
    grid = _as_int(spec.get("grid") if spec.get("grid") is not None else 32, "grid")
    refine = _as_int(spec.get("refine") if spec.get("refine") is not None else 200, "refine")
    result = optimize_angles(objective, grid_points=grid, refine_iters=refine)
    found = {"theta1": result.theta1, "theta2": result.theta2,
             "objective_value": result.objective_value, "objective_name": result.objective_name,
             "evaluations": result.evaluations}
    return {"objective": objective, "grid": grid, "refine": refine}, found


def _cmd_capacity(spec: Dict[str, object]) -> Tuple[dict, dict]:
    theta1, theta2, balanced = _angles(spec)
    tol = _as_float(spec.get("tol") if spec.get("tol") is not None else 1e-10, "tol")
    channel = channel_from_protocol(NestedConfig(theta1, theta2))
    capacity_bits, prior = capacity(channel, tol)
    results = {
        "capacity_bits": capacity_bits,
        "optimal_p0": prior.p0,
        "mi_uniform": mutual_information(channel, _UNIFORM_PRIOR),
        "channel": {
            "b0": list(channel._rows[0]),
            "b1": list(channel._rows[1]),
        },
    }
    return {"theta1": theta1, "theta2": theta2, "balanced": balanced, "tol": tol}, results


# Work budget of one ``classical`` run, in bits.  Both relays together take
# about 45 us per bit on an Intel Xeon, so ~0.45 s in all.
MAX_CLASSICAL_BITS = 10_000


def _cmd_classical(spec: Dict[str, object]) -> Tuple[dict, dict]:
    raw = _require(spec, "bits")
    if isinstance(raw, str) and len(raw) > MAX_CLASSICAL_BITS:
        raise CliUsageError(f"{len(raw)} bits is above the budget of {MAX_CLASSICAL_BITS} bits")
    if not isinstance(raw, str) or not raw or any(ch not in "01" for ch in raw):
        raise CliUsageError("bits must be a non-empty string of 0s and 1s")
    bits = [int(ch) for ch in raw]
    billiard_decoded = []
    billiard_audits = []
    for bit in bits:
        run = run_billiard(bit)
        billiard_decoded.append(decode_billiard(run.observation))
        billiard_audits.append(carrier_span_audit(run.log))
    relay = run_pulse_relay(bits)
    results = {
        "billiard": {
            "decoded": "".join(str(bit) for bit in billiard_decoded),
            "audit": all(billiard_audits),
        },
        "pulse_relay": {
            "decoded": "".join(str(bit) for bit in relay.decoded),
            "audit": carrier_span_audit(relay.log),
        },
    }
    return {"bits": raw}, results


def _cmd_chain(spec: Dict[str, object]) -> Tuple[dict, dict]:
    outer = _parse_int_list(_require(spec, "outer"), "outer")
    inner = _parse_int_list(_require(spec, "inner"), "inner")
    columns = ("outer_cycles", "inner_cycles", "bit", "p_d1", "p_d2", "p_correct", "loss",
               "bob_to_charlie_peak", "charlie_to_alice_peak")
    # Every pair is validated and the table's elements are counted before
    # any run; a network has at least 10, so the count stops early.
    configs, elements = [], 0
    for cycles_outer in outer:
        for cycles_inner in inner:
            configs.append(config := ChainConfig(cycles_outer, cycles_inner))
            elements += _chain_element_count(config.outer_cycles, config.inner_cycles, 0)
            if elements > MAX_CHAIN_ELEMENTS:
                raise CliUsageError(f"the chain table needs at least {elements} elements at "
                                    f"b = 0, above the budget of {MAX_CHAIN_ELEMENTS}")
    rows = []
    for config in configs:
        for bit in (0, 1):
            outcome = run_chain(config, bit)
            loss = outcome.absorbed["bob"] + outcome.absorbed["discard"]
            peaks = outcome.leg_peaks
            rows.append([config.outer_cycles, config.inner_cycles, bit, outcome.p_d1, outcome.p_d2,
                         outcome.p_correct, loss, peaks["bob_to_charlie"], peaks["charlie_to_alice"]])
    return {"outer": outer, "inner": inner}, {"columns": list(columns), "rows": rows}


_COMMANDS = {
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "optimize": _cmd_optimize,
    "capacity": _cmd_capacity,
    "classical": _cmd_classical,
    "chain": _cmd_chain,
}


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Takes ``--flag -1:1`` as ``--flag=-1:1``: every option but ``-h`` is long, so a token
    of one dash is a value (argparse alone reads only plain negative decimals so)."""

    def _parse_optional(self, arg_string):
        if arg_string.startswith("--") or arg_string in self._option_string_actions:
            return super()._parse_optional(arg_string)
        return None


def build_parser() -> argparse.ArgumentParser:
    return _build_parsers()[0]


def _build_parsers() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subparsers by command name."""
    parser = _Parser(
        prog="cfoptics",
        description=(
            "Simulate nested-interferometer bit transmission, analyze the induced "
            "classical channel, and run the carrier-audited classical relays."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", default=None, help="output format, json (the default) or csv")
    common.add_argument("--out", default=None, metavar="PATH", help="write the document to PATH instead of stdout")
    common.add_argument("--config", default=None, metavar="PATH", help="JSON document with the same keys as the flags; flags override")
    angles = argparse.ArgumentParser(add_help=False)
    angles.add_argument("--theta1", default=None, help="opening outer-coupler angle (radians)")
    angles.add_argument("--theta2", default=None, help="closing outer-coupler angle (radians)")
    angles.add_argument("--balanced", action="store_const", const=True, default=None, help="derive theta2 from theta1 via the balance condition")

    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", parents=[common, angles], help="one protocol run at fixed angles and sender bit")
    simulate.add_argument("--bit", default=None, help="sender bit (0 blocks the emitter arm, 1 leaves it open)")

    sweep = sub.add_parser("sweep", parents=[common], help="tabulate the channel over a theta1 range")
    sweep.add_argument("--theta1", default=None, metavar="START:STOP", help="theta1 range")
    sweep.add_argument("--theta2", default=None, help="fixed theta2 rule")
    sweep.add_argument("--balanced", action="store_const", const=True, default=None, help="balanced theta2 rule")
    sweep.add_argument("--steps", default=None, help="number of rows (default 20)")

    optimize = sub.add_parser("optimize", parents=[common], help="search for optimal coupling angles")
    optimize.add_argument("--objective", default=None, help="min-success or mutual-info-uniform")
    optimize.add_argument("--grid", default=None, help="grid points per axis (default 32)")
    optimize.add_argument("--refine", default=None, help="refinement iterations (default 200)")

    cap = sub.add_parser("capacity", parents=[common, angles], help="capacity of the induced channel at fixed angles")
    cap.add_argument("--tol", default=None, help="capacity search tolerance (default 1e-10)")

    classical = sub.add_parser("classical", parents=[common], help="run both classical relays over a bit string")
    classical.add_argument("--bits", default=None, help="bit string, e.g. 0110")

    chain = sub.add_parser("chain", parents=[common], help="chained-network grid over cycle counts")
    chain.add_argument("--outer", default=None, metavar="N1,N2,...", help="outer cycle counts")
    chain.add_argument("--inner", default=None, metavar="M1,M2,...", help="inner cycle counts")

    return parser, sub.choices


@functools.lru_cache(maxsize=1)
def _parsers() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    """The parsers ``main`` uses, built on its first call.  Parsing leaves a
    parser unchanged, so one set serves every call in a process."""
    return _build_parsers()


def _parse_args(argv) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, with a named command parsed by
    its own subparser alone, which is what the full parse hands it: the
    same namespace, ``command`` first, or the same exit and text.  No
    command, ``-h``, ``--version`` and an unknown command take the full
    parse."""
    parser, commands = _parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in commands:
        return parser.parse_args(argv)
    args, extras = commands[argv[0]].parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    started = time.perf_counter()
    try:
        spec = _resolve(args)
        fmt = "json" if spec["format"] is None else spec["format"]
        if fmt not in ("json", "csv"):
            raise CliUsageError("format must be json or csv")
        out = spec["out"]
        if out is not None and not isinstance(out, str):
            raise CliUsageError("out must be a path string")
        echo, results = _COMMANDS[args.command](spec)
        document = {"command": args.command, "spec": echo, "version": __version__, "results": results}
        rendered = _render(document, fmt)
        if out is not None:
            try:
                with open(out, "w", encoding="utf-8", newline="\n") as handle:
                    handle.write(rendered)
            except OSError as exc:
                raise CliUsageError(f"cannot write output file: {exc}") from None
        else:
            sys.stdout.write(rendered)
    except CfOpticsError as exc:
        print(f"cfoptics {args.command}: error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    destination = out if out is not None else "stdout"
    print(f"cfoptics {args.command}: wrote {destination} in {elapsed:.3f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
