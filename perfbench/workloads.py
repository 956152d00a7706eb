"""The benchmark's workloads: seeded operations and the checks on their outputs.

Each workload is a closed loop of cycles.  A cycle holds the same op mix
every time; the seed and the cycle draw only the parameters, stratified so
that every cycle covers the whole parameter range and runs with different
seeds see the same distribution of work.

An op is a callable returning its output text: an in-process
``cfoptics.cli.main(argv)`` call with stdout captured, or a public library
call.  Its check compares that text with the closed forms in ``oracles``
(or a reference digest) and returns the work the program reports doing,
which the traced run compares with its own counts.  Functions are looked up
on the cfoptics modules at call time, so the traced run's wrappers see
every call.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List

import oracles


class CheckError(Exception):
    """An op's output disagrees with its reference."""


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], str]
    check: Callable[[str], Dict[str, int]]


def _counts(channel_evals=0, elements=0, bits_relayed=0):
    return {"channel_evals": channel_evals, "elements": elements, "bits_relayed": bits_relayed}


def _expect(condition, message):
    if not condition:
        raise CheckError(message)


def _cli_run(argv, out_path=None):
    def run():
        if out_path is not None and os.path.exists(out_path):
            os.remove(out_path)  # never check a document left by an earlier op
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = sys.modules["cfoptics.cli"].main(list(argv))
        if code != 0:
            raise CheckError(f"exit status {code}")
        if out_path is None:
            return stdout.getvalue()
        with open(out_path, "r", encoding="utf-8", newline="") as handle:
            return handle.read()

    return run


def _document(output, command):
    document = json.loads(output)
    _expect(document.get("command") == command, f"document is not a {command} result")
    return document


def _strata(rng, count):
    """``count`` draws from [0, 1), one in each of ``count`` equal strata, in
    random order."""
    draws = [(k + rng.random()) / count for k in range(count)]
    rng.shuffle(draws)
    return draws


# ---------------------------------------------------------------------------
# angle-search: optimize, balanced sweep and the balance bisection


def _check_optimize(objective):
    def check(output):
        results = _document(output, "optimize")["results"]
        theta1, theta2 = results["theta1"], results["theta2"]
        _expect(0.0 < theta1 < oracles.HALF_PI and 0.0 < theta2 < oracles.HALF_PI,
                f"angles ({theta1}, {theta2}) outside the search domain")
        rows = oracles.nested_channel(theta1, theta2)
        if objective == "min-success":
            exact = min(oracles.success(rows))
        else:
            exact = oracles.mutual_information_uniform(rows)
        # The angles are printed to 12 digits; 1e-10 covers the objective's
        # change over that rounding.
        _expect(oracles.printed_close(results["objective_value"], exact, 1e-10),
                f"objective_value {results['objective_value']} != closed form {exact}")
        evaluations = results["evaluations"]
        return _counts(evaluations, evaluations * sum(oracles.NESTED_ELEMENTS.values()))

    return check


def _check_sweep(lo, hi, steps):
    def check(output):
        results = _document(output, "sweep")["results"]
        _expect(results["columns"] == ["theta1", "theta2", "p00", "p11", "loss", "mi_uniform"],
                "unexpected sweep columns")
        _expect(len(results["rows"]) == steps, f"expected {steps} rows")
        for index, (theta1, theta2, p00, p11, loss, info) in enumerate(results["rows"]):
            exact_theta1 = lo + index * (hi - lo) / (steps - 1)
            exact_theta2 = oracles.balanced_theta2(exact_theta1)
            rows = oracles.nested_channel(exact_theta1, exact_theta2)
            exact_p00, exact_p11 = oracles.success(rows)
            exact_loss = 0.5 * (rows[0][2] + rows[1][2])
            _expect(oracles.printed_close(theta1, exact_theta1)
                    and oracles.printed_close(theta2, exact_theta2), f"row {index}: angles")
            _expect(oracles.printed_close(p00, exact_p00) and oracles.printed_close(p11, exact_p11),
                    f"row {index}: success probabilities differ from the closed form")
            _expect(abs(p00 - p11) <= 1e-12 + 5e-12 * (p00 + p11), f"row {index}: p00 != p11")
            _expect(oracles.printed_close(loss, exact_loss), f"row {index}: loss")
            _expect(oracles.printed_close(info, oracles.mutual_information_uniform(rows)),
                    f"row {index}: mutual information")
        return _counts(steps, steps * sum(oracles.NESTED_ELEMENTS.values()))

    return check


def _bisection_run(theta1):
    def run():
        return repr(sys.modules["cfoptics.analysis"].balance_root_solve(theta1))

    return run


def _check_bisection(theta1):
    def check(output):
        theta2 = float(output)
        _expect(abs(theta2 - oracles.balanced_theta2(theta1)) <= 1e-9,
                f"theta2 {theta2} is not the closed-form balance angle")
        p00, p11 = oracles.success(oracles.nested_channel(theta1, theta2))
        _expect(abs(p00 - p11) <= 1e-9, f"p00 - p11 = {p00 - p11} at the returned angle")
        evaluations = oracles.bisection_evaluations()
        return _counts(evaluations, evaluations * sum(oracles.NESTED_ELEMENTS.values()))

    return check


def _optimize_op(objective, grid, refine):
    argv = ("optimize", "--objective", objective, "--grid", str(grid), "--refine", str(refine))
    return Op(" ".join(argv), _cli_run(argv), _check_optimize(objective))


def _sweep_op(lo, hi, steps):
    argv = ("sweep", "--theta1", f"{lo!r}:{hi!r}", "--balanced", "--steps", str(steps))
    return Op(" ".join(argv), _cli_run(argv), _check_sweep(lo, hi, steps))


def _bisection_op(theta1):
    return Op(f"balance_root_solve({theta1!r})", _bisection_run(theta1), _check_bisection(theta1))


class AngleSearch:
    """Per cycle: 4 bisections (~10 ms), 4 balanced sweeps of 200-299 steps
    and 2 optimizations (both objectives, grid 23-25).  The 40/40/20 mix
    puts p50 inside the sweeps and p90 inside the optimizations, away from
    the gaps between those groups."""

    def __init__(self, seed, scratch):
        self.rng = random.Random(f"angle-search/{seed}")

    def warmup(self):
        return [_optimize_op("min-success", 8, 5), _sweep_op(0.1, 0.9, 5), _bisection_op(0.25)]

    def cycle(self):
        rng = self.rng
        # tan(theta1) < 2 keeps the balancing root in (0, pi/2), where the
        # bisection brackets it.
        ops = [_bisection_op(0.05 + (math.atan(2.0) - 0.1) * u) for u in _strata(rng, 4)]
        for u in _strata(rng, 4):
            lo = 0.02 + 0.2 * rng.random()
            ops.append(_sweep_op(lo, lo + 0.4 + 0.4 * rng.random(), 200 + int(100 * u)))
        for objective, u in zip(("min-success", "mutual-info-uniform"), _strata(rng, 2)):
            ops.append(_optimize_op(objective, 23 + int(3 * u), 150 + int(100 * rng.random())))
        rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# deep-chain: one chained-network table per op


def _check_chain(outer, inner):
    def check(output):
        results = _document(output, "chain")["results"]
        _expect(len(results["rows"]) == 2, "expected one row per bit")
        elements = 0
        for row, bit in zip(results["rows"], (0, 1)):
            n, m, row_bit, p_d1, p_d2, p_correct, loss, forward, backward = row
            _expect((n, m, row_bit) == (outer, inner, bit), f"row for bit {bit} mislabeled")
            exact_d1, exact_d2 = oracles.chain_detectors(outer, inner, bit)
            _expect(oracles.printed_close(p_d1, exact_d1, 1e-10)
                    and oracles.printed_close(p_d2, exact_d2, 1e-10),
                    f"bit {bit}: detector probabilities differ from the 2x2 product")
            _expect(p_correct == (p_d2 if bit == 0 else p_d1), f"bit {bit}: p_correct")
            _expect(oracles.printed_close(p_d1 + p_d2 + loss, 1.0, 1e-12),
                    f"bit {bit}: probability not conserved")
            _expect(bit == 1 or forward == 0.0, f"bob_to_charlie peak {forward} for b = 0")
            elements += oracles.chain_elements(outer, inner, bit)
        return _counts(elements=elements)

    return check


class DeepChain:
    """Per cycle: 9 ``chain`` ops whose depth runs from 10x100 to 20x400,
    one op per stratum of that range.  With 9 strata p50 falls mid-stratum."""

    def __init__(self, seed, scratch):
        self.rng = random.Random(f"deep-chain/{seed}")

    def warmup(self):
        return [self._op(2, 4)]

    def _op(self, outer, inner):
        argv = ("chain", "--outer", str(outer), "--inner", str(inner))
        return Op(" ".join(argv), _cli_run(argv), _check_chain(outer, inner))

    def cycle(self):
        return [self._op(10 + round(10 * u), 100 + round(300 * u)) for u in _strata(self.rng, 9)]


# ---------------------------------------------------------------------------
# readme: the six README command-line examples at their documented arguments

# SHA-256 of each example's document, captured from the initial release.
README_DIGESTS = {
    "simulate": "05fbf6ef1eb2b5ab7d8ac679e0cda1c87c4eaf3ddfe36415ef72d7b0e27cda5f",
    "sweep": "a00b1a3b6d3645caaa4a505bf8c3f38b5bbe9ffcaff944cf4f82318b1ca84e7f",
    "optimize": "9dc53f4941d527896c7e464705ee40c6174efafce4cef3c2fa0d8bcd45a3ecc7",
    "capacity": "60ae3d74feffd2333c4af6398ffbd93775084e959c8058344ce61c0b2a48824e",
    "classical": "715e1578137d4bd6cccbdd6e21a4b8283c4b6a02f3a5cbbaf4f7632f2b9172fc",
    "chain": "5275038e5de164f61564aac598cd239f0b68a05a359538e6fe66034478b65d61",
}

README_ARGV = {
    "simulate": ("simulate", "--theta1", "0.25", "--balanced", "--bit", "1"),
    "sweep": ("sweep", "--theta1", "0.05:1.0", "--balanced", "--steps", "20", "--format", "csv"),
    "optimize": ("optimize", "--objective", "min-success", "--grid", "24", "--refine", "200"),
    "capacity": ("capacity", "--theta1", "0.25", "--balanced"),
    "classical": ("classical", "--bits", "0110"),
    "chain": ("chain", "--outer", "2,5,10", "--inner", "4,25,100"),
}


def _readme_counts(name, output):
    per_eval = sum(oracles.NESTED_ELEMENTS.values())
    if name == "simulate":
        return _counts(elements=oracles.NESTED_ELEMENTS[1])
    if name == "sweep":
        return _counts(20, 20 * per_eval)
    if name == "optimize":
        evaluations = _document(output, "optimize")["results"]["evaluations"]
        return _counts(evaluations, evaluations * per_eval)
    if name == "capacity":
        return _counts(1, per_eval)
    if name == "classical":
        # Each bit is relayed once by the billiard and once by the pulse relay.
        return _counts(bits_relayed=2 * len("0110"))
    return _counts(elements=sum(
        oracles.chain_elements(outer, inner, bit)
        for outer in (2, 5, 10) for inner in (4, 25, 100) for bit in (0, 1)
    ))


def _check_readme(name):
    def check(output):
        digest = hashlib.sha256(output.encode("utf-8")).hexdigest()
        _expect(digest == README_DIGESTS[name], f"{name} document differs from its reference")
        return _readme_counts(name, output)

    return check


class Readme:
    """Per cycle: the six examples in seeded order, ``simulate`` twice.
    Running ``simulate`` twice puts p50 inside the ~2 ms commands (classical,
    simulate, capacity) rather than on the gap between them and the ~8 ms
    sweep.  The ``chain`` example writes its document with ``--out`` into a
    scratch directory."""

    def __init__(self, seed, scratch):
        self.rng = random.Random(f"readme/{seed}")
        self.out_path = os.path.join(scratch, "chain.json")

    def op(self, name):
        argv = README_ARGV[name]
        out_path = None
        if name == "chain":
            out_path = self.out_path
            argv = argv + ("--out", out_path)
        return Op("cfoptics " + " ".join(README_ARGV[name]), _cli_run(argv, out_path),
                  _check_readme(name))

    def warmup(self):
        return [self.op(name) for name in ("simulate", "capacity", "classical", "sweep")]

    def cycle(self):
        ops = [self.op(name) for name in README_ARGV] + [self.op("simulate")]
        self.rng.shuffle(ops)
        return ops


WORKLOADS = {"angle-search": AngleSearch, "deep-chain": DeepChain, "readme": Readme}


def make(name, seed, scratch):
    """The workload ``name`` seeded with ``seed``; ``scratch`` is a directory
    ops may write to."""
    return WORKLOADS[name](seed, scratch)
