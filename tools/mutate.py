#!/usr/bin/env python3
"""Mutation gate: every listed fault must be caught by the tests named for it.

Each mutant names a file under ``src/cfoptics``, an exact text that occurs
once in it, the replacement and the test files that must catch it.  For each
mutant the script copies ``src/``, ``tests/``, ``pyproject.toml`` and
``README.md`` (a test reads it) to a temporary directory, applies the
replacement there and runs pytest on the named test files, stopping at the
first failure.  A mutant counts as caught only when pytest exits 1 and
prints a FAILED line.  Exit 0 (every test passed) and exit 3 (INTERNALERROR,
which prints no failure) count as missed.
A text that no longer occurs exactly once is reported as stale.  The
unmutated tests run first; if they fail, no mutant is tried.

Usage, from the repository root (standard library only):

    python3 tools/mutate.py            # every mutant
    python3 tools/mutate.py NAME ...   # the named mutants

Exit status 0 when every mutant ran and was caught, 1 otherwise.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/cfoptics
    old: str
    new: str
    tests: Tuple[str, ...]


MUTANTS = (
    Mutant("splice writes into the shared plan", "protocols.py",
           "coeff = [first_coeff, *middle_coeff, last_coeff]",
           "coeff = _OPEN_NESTED[bit]._plan.coeff\n"
           "    coeff[0], coeff[-1] = first_coeff, last_coeff",
           ("tests/test_protocols.py",)),
    Mutant("outer coefficient pairs swapped", "protocols.py",
           "first_coeff, last_coeff = config._outer_coeff",
           "last_coeff, first_coeff = config._outer_coeff",
           ("tests/test_protocols.py",)),
    Mutant("config makes its couplers eagerly", "protocols.py",
           "_coupler_coeff(theta1), _coupler_coeff(theta2)\n",
           "_coupler_coeff(theta1), _coupler_coeff(theta2)\n        self._outer_couplers\n",
           ("tests/test_protocols.py",)),
    Mutant("channel array left writable", "analysis.py",
           "    array.flags.writeable = False\n",
           "",
           ("tests/test_analysis.py",)),
    Mutant("a copied channel keeps a writable array", "analysis.py",
           'return {"_rows": self._rows}',
           "return dict(vars(self))",
           ("tests/test_analysis.py",)),
    Mutant("module-level numpy import restored", "core.py",
           "from . import kernel\n",
           "import numpy as np\n\nfrom . import kernel\n",
           ("tests/test_cli.py",)),
    Mutant("sweep loss read from the array", "cli.py",
           "loss = 0.5 * (channel._rows[0][2] + channel._rows[1][2])",
           "loss = 0.5 * (channel.p_given_b.item(0, 2) + channel.p_given_b.item(1, 2))",
           ("tests/test_cli.py",)),
    Mutant("chain list refuses a bare config number", "cli.py",
           "    elif not isinstance(value, dict):\n        parts = [value]\n",
           "",
           ("tests/test_cli.py",)),
    Mutant("channel entries skip the number rule", "analysis.py",
           "if not type(a) is type(b) is type(c) is type(d) is type(e) is type(f) is float:",
           "if not True:",
           ("tests/test_number_rule.py",)),
    Mutant("snapshot rows returned as copies", "core.py",
           "return self.matrix[self._rows[name]]",
           "return self.matrix[self._rows[name]].copy()",
           ("tests/test_core.py",)),
    Mutant("a second compile per propagation", "core.py",
           " = compile_network(network)\n",
           " = compile_network(network)\n    compile_network(network)\n",
           ("tests/test_protocols.py",)),
    Mutant("leg rows read in reverse", "protocols.py",
           "    width = len(flat) // outer_cycles",
           "    flat = flat[::-1]\n    width = len(flat) // outer_cycles",
           ("tests/test_protocols.py", "tests/test_chain.py")),
    Mutant("the leg lists skip the last outer cycle", "protocols.py",
           "for start in range(0, len(flat), width):",
           "for start in range(0, len(flat) - width, width):",
           ("tests/test_chain.py",)),
    Mutant("the inner legs are read from mode 1", "protocols.py",
           "there += flat[start + 5:end:6]\n        back += flat[start + 8:end:6]",
           "there += flat[start + 4:end:6]\n        back += flat[start + 7:end:6]",
           ("tests/test_protocols.py", "tests/test_chain.py")),
    Mutant("propagate reads the stale list after the array was built", "core.py",
           "amps = array.tolist() if array is not None else state._values.copy()",
           "values = state._values\n"
           "    amps = values.copy() if values is not None else array.tolist()",
           ("tests/test_core.py",)),
    # Safe to run: the bisection test counts channel evaluations and fails
    # past its bound instead of hanging.
    Mutant("bisection ignores adjacent endpoints", "analysis.py",
           "        if not lo < mid < hi:  # no float left between the ends\n            break\n",
           "",
           ("tests/test_analysis.py",)),
    Mutant("worst simplex vertex returned", "analysis.py",
           "value, point = max(vertices, key=lambda vertex: vertex[0])",
           "value, point = min(vertices, key=lambda vertex: vertex[0])",
           ("tests/test_properties.py",)),
    Mutant("coupler sign flipped", "kernel.py",
           "amps[b] = js * za + c * zb",
           "amps[b] = c * zb - js * za",
           ("tests/test_acceptance.py",)),
    Mutant("blocker leaves its mode lit", "kernel.py",
           "amps[a] = 0j",
           "amps[a] = za",
           ("tests/test_acceptance.py",)),
    Mutant("absorber books its real part twice", "kernel.py",
           "re * re + im * im",
           "re * re + re * re",
           ("tests/test_acceptance.py",)),
    Mutant("leg zero test turned around", "protocols.py",
           "if not any(column):",
           "if any(column):",
           ("tests/test_chain.py",)),
    Mutant("equal legs take the first leg's peak", "protocols.py",
           "peaks[leg] = peaks[previous]",
           'peaks[leg] = peaks["alice_to_charlie"]',
           ("tests/test_chain.py",)),
    Mutant("detectors D1 and D2 swapped", "protocols.py",
           "abs(final._values[0]) ** 2, abs(final._values[1]) ** 2",
           "abs(final._values[1]) ** 2, abs(final._values[0]) ** 2",
           ("tests/test_acceptance.py",)),
    Mutant("balance formula off", "analysis.py",
           "math.atan(1.0 - 0.5 * math.tan(_check_theta1(theta1)))",
           "math.atan(1.0 - 0.25 * math.tan(_check_theta1(theta1)))",
           ("tests/test_acceptance.py",)),
    Mutant("nested inner coupler detuned", "protocols.py",
           "_INNER = BeamSplitter(1, 2, math.pi / 4)",
           "_INNER = BeamSplitter(1, 2, math.pi / 4 + 1e-3)",
           ("tests/test_acceptance.py",)),
    Mutant("one outer cycle too few repeated", "protocols.py",
           "column = column * outer_cycles",
           "column = column * (outer_cycles - 1)",
           ("tests/test_properties.py",)),
    Mutant("two outer cycles left unrepeated", "protocols.py",
           "if outer_cycles > 1:",
           "if outer_cycles > 2:",
           ("tests/test_properties.py",)),
    Mutant("closing coupler repeated in every cycle", "protocols.py",
           "c[2:-4] * inner_cycles + c[-4:-1]\n",
           "c[2:-4] * inner_cycles + c[-4:]\n",
           ("tests/test_properties.py",)),
    Mutant("one inner cycle too few repeated", "protocols.py",
           "c[2:-4] * inner_cycles",
           "c[2:-4] * (inner_cycles - 1)",
           ("tests/test_properties.py",)),
    Mutant("closing inner coupler inside the inner block", "protocols.py",
           "c[2:-4] * inner_cycles",
           "c[2:-3] * inner_cycles",
           ("tests/test_properties.py",)),
    Mutant("chain rows restart each cycle", "protocols.py",
           "itertools.count()",
           "itertools.cycle(range(2 * self.cycles[1] + 2))",
           ("tests/test_chain.py",)),
    Mutant("run path names every cycle", "protocols.py",
           "_lowered=_Plan(*columns, labels, rows)",
           "_lowered=_Plan(*columns, labels, dict(rows))",
           ("tests/test_chain.py",)),
    Mutant("a plan without its maker is ignored", "core.py",
           "        if _lowered is not None:\n"
           "            raise TypeError(\"Network takes _lowered only with _build\")\n",
           "",
           ("tests/test_core.py",)),
    Mutant("a maker without its plan is accepted", "core.py",
           "            if _lowered is None:\n"
           "                raise TypeError(\"Network takes _build only with _lowered\")\n",
           "",
           ("tests/test_core.py",)),
    Mutant("record == ignores the last field", "core.py",
           "return self._values() == other._values()",
           "return self._values()[:-1] == other._values()[:-1]",
           ("tests/test_core.py",)),
    Mutant("record assignment allowed", "core.py",
           'raise AttributeError(f"cannot assign to field {name!r}")',
           "object.__setattr__(self, name, value)",
           ("tests/test_core.py",)),
    Mutant("record repr drops a field", "core.py",
           "for name in self.__match_args__)\n        return",
           "for name in self.__match_args__[:-1])\n        return",
           ("tests/test_core.py",)),
    Mutant("a build's plan lowered again from its elements", "core.py",
           'attrs["_builder"] = mode_count, _lowered, _build',
           'attrs["_builder"] = mode_count, _lower(_build(), mode_count), _build',
           ("tests/test_protocols.py",)),
    Mutant("nested builder is a closure", "protocols.py",
           "functools.partial(_nested_elements, config, bit))",
           "lambda: _nested_elements(config, bit))",
           ("tests/test_core.py",)),
    Mutant("a float subclass skips the number rule", "protocols.py",
           "angle = value if type(value) is float else _finite_real(value)",
           "angle = value if isinstance(value, float) else _finite_real(value)",
           ("tests/test_properties.py",)),
    Mutant("angle range takes -pi", "protocols.py",
           "if angle is None or not -math.pi < angle <= math.pi:",
           "if angle is None or not -math.pi <= angle <= math.pi:",
           ("tests/test_properties.py",)),
    Mutant("row entropies read swapped", "analysis.py",
           "h0, h1 = channel._entropies",
           "h1, h0 = channel._entropies",
           ("tests/test_properties.py",)),
    Mutant("capacity probe weights swapped", "analysis.py",
           "functools.partial(_information, channel)",
           "lambda p0: _information(channel, 1.0 - p0)",
           ("tests/test_analysis.py",)),
    Mutant("finiteness screen skipped", "core.py",
           "if not (cmath.isfinite(sum(amps)) and math.isfinite(sum(absorbed))):",
           "if False:",
           ("tests/test_core.py",)),
    Mutant("deferred row count off by one cycle", "protocols.py",
           "return self.cycles[0] * (2 * self.cycles[1] + 2)",
           "return (self.cycles[0] - 1) * (2 * self.cycles[1] + 2)",
           ("tests/test_chain.py",)),
    Mutant("chain ignores inner_angle", "protocols.py",
           "inner = _coupler_coeff(chain.inner_angle)",
           "inner = _coupler_coeff(chain.outer_angle)",
           ("tests/test_chain.py",)),
    Mutant("chain splices the template's pi/4 inner pair", "protocols.py",
           "*[k and inner for k in middle_coeff]",
           "*middle_coeff",
           ("tests/test_chain.py", "tests/test_properties.py")),
    Mutant("format checked by argparse again", "cli.py",
           'common.add_argument("--format", default=None,',
           'common.add_argument("--format", choices=("json", "csv"), default=None,',
           ("tests/test_cli.py",)),
    Mutant("dispatched parse drops unrecognized arguments", "cli.py",
           "    if extras:\n",
           "    if False:\n",
           ("tests/test_cli.py",)),
    Mutant("dispatched parse leaves command unset", "cli.py",
           "parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))",
           "parse_known_args(argv[1:])",
           ("tests/test_cli.py",)),
    Mutant("a falsy config value read as absent", "cli.py",
           "config.get(key) if value is None else value",
           "config.get(key) or None if value is None else value",
           ("tests/test_cli.py",)),
    Mutant("config integers read as floats", "cli.py",
           "parse_int=_read_int)",
           "parse_int=float)",
           ("tests/test_cli.py",)),
    Mutant("a refusal repeats its value", "cli.py",
           'raise CliUsageError(f"{name} must be a finite real number")',
           'raise CliUsageError(f"{name} must be a finite real number, got {value!r}")',
           ("tests/test_cli.py",)),
    Mutant("bool taken as an integer", "core.py",
           "isinstance(value, numbers.Integral) and not isinstance(value, bool)",
           "isinstance(value, numbers.Integral)",
           ("tests/test_number_rule.py",)),
    Mutant("integer text whitespace read by \\s", "cli.py",
           r'_INTEGER_TEXT = re.compile(r"[^\S\x1c-\x1f]*[+-]?\d+(_\d+)*[^\S\x1c-\x1f]*")',
           r'_INTEGER_TEXT = re.compile(r"\s*[+-]?\d+(_\d+)*\s*")',
           ("tests/test_cli.py",)),
    Mutant("long stated numbers printed whole", "core.py",
           "number.bit_length() <= 100 else",
           "number.bit_length() <= 100_000 else",
           ("tests/test_cli.py",)),
    Mutant("channel row takes any index", "analysis.py",
           "return self.p_given_b[_validate_bit(bit)]",
           "return self.p_given_b[bit]",
           ("tests/test_number_rule.py",)),
)


def run_tests(root, tests):
    """(exit status, whether a FAILED line was printed) of pytest on ``tests``
    in the tree at ``root``, importing the package from its ``src``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    failed = any(line.startswith("FAILED ") for line in result.stdout.splitlines())
    return result.returncode, failed


def copy_tree(target):
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(target, name), ignore=ignore)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy(os.path.join(ROOT, name), target)


def try_mutant(mutant):
    """'caught', 'missed (exit N)' or 'stale' for one mutant."""
    with tempfile.TemporaryDirectory(prefix="cfoptics-mutant-") as root:
        copy_tree(root)
        path = os.path.join(root, "src", "cfoptics", mutant.path)
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        if text.count(mutant.old) != 1:
            return "stale"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text.replace(mutant.old, mutant.new))
        status, failed = run_tests(root, mutant.tests)
    return "caught" if status == 1 and failed else f"missed (exit {status})"


def main(argv):
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 1
    tests = sorted({test for mutant in chosen for test in mutant.tests})
    with tempfile.TemporaryDirectory(prefix="cfoptics-unmutated-") as root:
        copy_tree(root)
        status, _ = run_tests(root, tests)
    if status != 0:
        print(f"the unmutated tests fail (exit {status}); no mutant was tried")
        return 1
    caught = 0
    for mutant in chosen:
        outcome = try_mutant(mutant)
        caught += outcome == "caught"
        print(f"{outcome:<16} {mutant.name}", flush=True)
    print(f"{caught} of {len(chosen)} mutants caught")
    return 0 if caught == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
