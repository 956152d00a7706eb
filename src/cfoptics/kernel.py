"""Propagation kernel.

Executes the element plan produced by ``cfoptics.core``: parallel
opcode/argument/coefficient sequences of Python objects over a complex
amplitude vector, a per-label absorption accumulator, and a snapshot matrix.
"""

# Opcodes.  A network is lowered to its plan once, when it is built; a
# coupler's coeff is computed once per distinct coupler object.
OP_SPLIT = 0  # two-mode coupler: args = (mode_a, mode_b), coeff = (cos theta, 1j * sin theta)
OP_ABSORB = 1  # perfect absorber: args = (mode, ledger_slot), coeff unused
OP_SNAPSHOT = 2  # amplitude snapshot: args = (snapshot_row, unused), coeff unused


def run_plan(ops, arg_a, arg_b, coeff, amps, absorbed, snaps):
    """Execute a compiled element plan in place.

    ``coeff`` holds, for each coupler, the pair ``(c, js)`` with
    ``c = cos(theta)`` and ``js = 1j * sin(theta)``; a coupler maps
    ``(za, zb)`` to ``(c*za + js*zb, js*za + c*zb)``, the same operations in
    the same order as ``c*za + 1j*s*zb``, which Python groups as
    ``(1j*s)*zb``.  ``amps`` (complex128 vector), ``absorbed`` (float64
    vector, one slot per absorber label) and ``snaps`` (C-contiguous
    complex128 matrix, one row per snapshot, filled in plan order) are
    mutated; the plan sequences are read-only, so one plan serves every
    propagation of its network.
    """
    # Python complex and float scalars are much faster than per-element
    # ndarray indexing; the arrays are read once and written back once.
    local = amps.tolist()
    ledger = absorbed.tolist()
    taken = []
    for code, a, b, k in zip(ops, arg_a, arg_b, coeff):
        if code == OP_SPLIT:
            c, js = k
            za = local[a]
            zb = local[b]
            local[a] = c * za + js * zb
            local[b] = js * za + c * zb
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
