"""Propagation kernel.

Executes the element plan produced by ``cfoptics.core``: flat
opcode/argument arrays over a complex amplitude vector, a per-label
absorption accumulator, and a snapshot matrix.
"""

import math

# Opcodes (kept as plain ints so the plan arrays stay dtype=int32).
OP_SPLIT = 0  # two-mode coupler: args = (mode_a, mode_b), angle = theta
OP_ABSORB = 1  # perfect absorber: args = (mode, ledger_slot)
OP_SNAPSHOT = 2  # amplitude snapshot: args = (snapshot_row, unused)


def run_plan(ops, arg_a, arg_b, theta, amps, absorbed, snaps):
    """Execute a compiled element plan in place.

    ``amps`` (complex128 vector), ``absorbed`` (float64 vector, one slot per
    absorber label) and ``snaps`` (complex128 matrix, one row per snapshot)
    are mutated; the plan arrays are read-only.
    """
    local = list(amps)  # scalar complex arithmetic is much faster than
    n = len(ops)        # per-element ndarray indexing
    for k in range(n):
        code = ops[k]
        a = arg_a[k]
        if code == OP_SPLIT:
            b = arg_b[k]
            c = math.cos(theta[k])
            s = math.sin(theta[k])
            za = local[a]
            zb = local[b]
            local[a] = c * za + 1j * s * zb
            local[b] = 1j * s * za + c * zb
        elif code == OP_ABSORB:
            za = local[a]
            absorbed[arg_b[k]] += za.real * za.real + za.imag * za.imag
            local[a] = 0j
        else:
            snaps[a, :] = local
    amps[:] = local
