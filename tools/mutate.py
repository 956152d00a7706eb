#!/usr/bin/env python3
"""Mutation gate: every listed fault must be caught by the tests named for it.

Each mutant names a file under ``src/cfoptics``, an exact text that occurs
once in it, the replacement and the test files that must catch it.  For each
mutant the script copies ``src/``, ``tests/`` and ``pyproject.toml`` to a
temporary directory, applies the replacement there and runs pytest on the
named test files, stopping at the first failure.  A mutant counts as caught
only when pytest exits 1 and prints a FAILED line.  Exit 0 (every test
passed) and exit 3 (INTERNALERROR, which prints no failure) count as missed.
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
           "coeff = [_lower_element(first, BeamSplitter, 3, None)[3], *plan.coeff[1:-1],\n"
           "             _lower_element(last, BeamSplitter, 3, None)[3]]",
           "coeff = plan.coeff\n"
           "    coeff[0] = _lower_element(first, BeamSplitter, 3, None)[3]\n"
           "    coeff[-1] = _lower_element(last, BeamSplitter, 3, None)[3]",
           ("tests/test_protocols.py",)),
    Mutant("snapshot rows returned as copies", "core.py",
           "return self.matrix[self._rows[name]]",
           "return self.matrix[self._rows[name]].copy()",
           ("tests/test_core.py",)),
    Mutant("absorbers memoized by label", "core.py",
           "entry = lowered.get(id(element))\n"
           "        if entry is None:\n"
           "            entry = _lower_element(element, kind, mode_count, slots)\n"
           "            if kind is type(element):\n"
           "                lowered[id(element)] = entry",
           "key = getattr(element, \"label\", id(element))\n"
           "        entry = lowered.get(key)\n"
           "        if entry is None:\n"
           "            entry = _lower_element(element, kind, mode_count, slots)\n"
           "            if kind is type(element):\n"
           "                lowered[key] = entry",
           ("tests/test_properties.py",)),
    Mutant("a second compile per propagation", "core.py",
           "    plan = compile_network(network)\n",
           "    plan = compile_network(network)\n    compile_network(network)\n",
           ("tests/test_protocols.py",)),
    Mutant("leg rows read in reverse", "protocols.py",
           "rows = matrix.reshape(outer_cycles, 2 * inner_cycles + 2, 3)",
           "rows = matrix[::-1].reshape(outer_cycles, 2 * inner_cycles + 2, 3)",
           ("tests/test_protocols.py", "tests/test_chain.py")),
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
    Mutant("detectors D1 and D2 swapped", "protocols.py",
           "abs(final.amplitudes.item(0)) ** 2, abs(final.amplitudes.item(1)) ** 2",
           "abs(final.amplitudes.item(1)) ** 2, abs(final.amplitudes.item(0)) ** 2",
           ("tests/test_acceptance.py",)),
    Mutant("balance formula off", "analysis.py",
           "math.atan(1.0 - 0.5 * math.tan(_check_theta1(theta1)))",
           "math.atan(1.0 - 0.25 * math.tan(_check_theta1(theta1)))",
           ("tests/test_acceptance.py",)),
    Mutant("bool taken as an integer", "core.py",
           "isinstance(value, numbers.Integral) and not isinstance(value, bool)",
           "isinstance(value, numbers.Integral)",
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
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), target)


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
