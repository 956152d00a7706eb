#!/usr/bin/env python3
"""Process time of the six README commands, with the bare interpreter's
start-up beside them.

Each command runs as a fresh ``python3 -m cfoptics`` process with the
package imported from ``--src`` (default: this checkout's ``src``), its
output discarded; a failing command stops the script.  The best and median
wall times of ``--repeat`` runs are printed per command, after
``python3 -c pass`` and whether ``PYTHONDONTWRITEBYTECODE`` is set (without
bytecode, every process compiles the package's source again).

Usage, from the repository root (standard library only):

    python3 tools/cli_times.py                 # best of 5
    python3 tools/cli_times.py --repeat 11 --src /path/to/other/src
"""

import argparse
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

COMMANDS = (
    ("-c", "pass"),
    ("-m", "cfoptics", "simulate", "--theta1", "0.25", "--balanced", "--bit", "1"),
    ("-m", "cfoptics", "sweep", "--theta1", "0.05:1.0", "--balanced", "--steps", "20",
     "--format", "csv"),
    ("-m", "cfoptics", "optimize", "--objective", "min-success", "--grid", "24", "--refine", "200"),
    ("-m", "cfoptics", "capacity", "--theta1", "0.25", "--balanced"),
    ("-m", "cfoptics", "classical", "--bits", "0110"),
    ("-m", "cfoptics", "chain", "--outer", "2,5,10", "--inner", "4,25,100"),
)


def seconds(argv, env):
    started = time.perf_counter()
    subprocess.run([sys.executable, *argv], env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - started


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(args.src))
    print(f"PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', '(unset)')}")
    print(f"{'best ms':>8} {'median ms':>10}  python3 ... (of {args.repeat} runs)")
    for command in COMMANDS:
        times = [seconds(command, env) for _ in range(args.repeat)]
        print(f"{min(times) * 1e3:8.1f} {statistics.median(times) * 1e3:10.1f}  {' '.join(command)}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
