"""Propagation kernel.

Executes the element plan produced by ``cfoptics.core`` in place, lists in
and one array out: the amplitudes (Python complex) and the per-label
absorbed probabilities are lists, the checkpoint snapshots one matrix.
"""

# Opcodes.  A network is lowered to its plan once, when it is built; a
# coupler's coeff is computed once per distinct coupler object and shared by
# its uses.
OP_SPLIT = 0  # two-mode coupler: args = (mode_a, mode_b), coeff = (cos theta, 1j * sin theta)
OP_ABSORB = 1  # perfect absorber: args = (mode, ledger_slot), coeff unused
OP_SNAPSHOT = 2  # amplitude snapshot: args = (snapshot_row, unused), coeff unused


def run_plan(ops, arg_a, arg_b, coeff, amps, absorbed, snaps):
    """Execute a compiled element plan in place.

    ``coeff`` holds, for each coupler, the pair ``(c, js)`` with
    ``c = cos(theta)`` and ``js = 1j * sin(theta)``; a coupler maps
    ``(za, zb)`` to ``(c*za + js*zb, js*za + c*zb)``.  ``amps`` (list of
    Python complex, one per mode) and ``absorbed`` (list of Python float,
    one slot per absorber label) are updated in place; ``snaps``
    (C-contiguous complex128 matrix, one row per snapshot) is filled in plan
    order, once, at the end.  The plan sequences are read-only, so one plan
    serves every propagation of its network.
    """
    # Python complex and float scalars are much faster than per-element
    # ndarray indexing, so the only array written is the snapshot matrix.
    taken = []
    for code, a, b, k in zip(ops, arg_a, arg_b, coeff):
        if code == OP_SPLIT:
            c, js = k
            za = amps[a]
            zb = amps[b]
            amps[a] = c * za + js * zb
            amps[b] = js * za + c * zb
        elif code == OP_SNAPSHOT:
            taken += amps
        else:
            za = amps[a]
            absorbed[b] += za.real * za.real + za.imag * za.imag
            amps[a] = 0j
    if taken:
        snaps.reshape(-1)[:] = taken
