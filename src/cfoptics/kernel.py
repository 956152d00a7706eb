"""Propagation kernel.

Executes the element plan produced by ``cfoptics.core`` in place on Python
lists: the amplitudes (Python complex), the per-label absorbed
probabilities and the checkpoint snapshots, which are handed over as one
flat list.  No array is made here.
"""

# Opcodes.  A network is lowered to its plan once, when it is built; a
# coupler's coeff is computed once per distinct coupler object and shared by
# its uses.
OP_SPLIT = 0  # two-mode coupler: args = (mode_a, mode_b), coeff = (cos theta, 1j * sin theta)
OP_ABSORB = 1  # perfect absorber: args = (mode, ledger_slot), coeff unused
OP_SNAPSHOT = 2  # amplitude snapshot: args = (unused, unused); rows are taken in plan order


def run_plan(ops, arg_a, arg_b, coeff, amps, absorbed, snaps):
    """Execute a compiled element plan in place.

    ``coeff`` holds, for each coupler, the pair ``(c, js)`` with
    ``c = cos(theta)`` and ``js = 1j * sin(theta)``; a coupler maps
    ``(za, zb)`` to ``(c*za + js*zb, js*za + c*zb)``.  ``amps`` (list of
    Python complex, one per mode) and ``absorbed`` (list of Python float,
    one slot per absorber label) are updated in place.  At the end the
    snapshots, every amplitude of each snapshot in plan order, are assigned
    as one list to ``snaps.flat``: a ``core.Snapshots`` keeps that list,
    and a complex128 ndarray (one row per snapshot) is filled from it.  The
    plan sequences are read-only, so one plan serves every propagation of
    its network.
    """
    # Python complex and float scalars are much faster than per-element
    # ndarray indexing.
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
    snaps.flat = taken
