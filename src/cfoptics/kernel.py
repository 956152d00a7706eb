"""Propagation kernel.

Executes the element plan produced by ``cfoptics.core``: parallel
opcode/argument sequences of Python numbers over a complex amplitude
vector, a per-label absorption accumulator, and a snapshot matrix.
"""

import math

# Opcodes.
OP_SPLIT = 0  # two-mode coupler: args = (mode_a, mode_b), angle = theta
OP_ABSORB = 1  # perfect absorber: args = (mode, ledger_slot)
OP_SNAPSHOT = 2  # amplitude snapshot: args = (snapshot_row, unused); rows in plan order


def run_plan(ops, arg_a, arg_b, theta, amps, absorbed, snaps):
    """Execute a compiled element plan in place.

    ``amps`` (complex128 vector), ``absorbed`` (float64 vector, one slot per
    absorber label) and ``snaps`` (C-contiguous complex128 matrix, one row
    per snapshot, filled in plan order) are mutated; the plan sequences are
    read-only.
    """
    # Python complex and float scalars are much faster than per-element
    # ndarray indexing; the arrays are read once and written back once.
    local = amps.tolist()
    ledger = absorbed.tolist()
    taken = []
    for code, a, b, t in zip(ops, arg_a, arg_b, theta):
        if code == OP_SPLIT:
            c = math.cos(t)
            s = math.sin(t)
            za = local[a]
            zb = local[b]
            local[a] = c * za + 1j * s * zb
            local[b] = 1j * s * za + c * zb
        elif code == OP_SNAPSHOT:
            taken += local
        else:
            za = local[a]
            ledger[b] += za.real * za.real + za.imag * za.imag
            local[a] = 0j
    amps[:] = local
    absorbed[:] = ledger
    if taken:
        snaps.reshape(-1)[:] = taken
