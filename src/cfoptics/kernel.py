"""Propagation kernel.

Executes the element plan produced by ``cfoptics.core`` in place on Python
lists: the amplitudes (Python complex), the per-label absorbed
probabilities and the checkpoint snapshots, which are handed over as one
flat list.  No array is made here.
"""

# Opcodes.  A network is lowered to its plan once, when it is built: every
# protocol network is its bit's one-cycle plan, lowered once per process, with
# its config's pairs spliced in, and a chain's plan is then repeated.
OP_SPLIT = 0  # two-mode coupler: args = (mode_a, mode_b), coeff = (complex(cos t), 1j * sin t)
OP_ABSORB = 1  # perfect absorber: args = (mode, ledger_slot), coeff None
OP_SNAPSHOT = 2  # amplitude snapshot: args = (unused, unused), coeff None; rows in plan order


def run_plan(ops, arg_a, arg_b, coeff, amps, absorbed, snaps):
    """Execute a compiled element plan in place.

    ``coeff`` holds, for each coupler, the pair ``(c, js)`` with
    ``c = complex(cos(theta))`` and ``js = 1j * sin(theta)``, and None for
    every other entry; a coupler maps ``(za, zb)`` to
    ``(c*za + js*zb, js*za + c*zb)``.  The cosine is stored as the complex
    ``(cos theta, 0.0)`` that CPython 3.10 to 3.13 widen a float to before a
    complex product anyway, so each product has the same bits and skips the
    float's own multiply, which only returns NotImplemented (a property
    test pins the rule).  ``amps`` (list of Python complex, one per mode)
    and ``absorbed`` (list of Python float, one slot per absorber label)
    are updated in place.  At the end the snapshots, every amplitude of
    each snapshot in plan order, are assigned as one list to
    ``snaps.flat``: a ``core.Snapshots`` keeps that list, and a complex128
    ndarray (one row per snapshot) is filled from it.  The plan sequences
    are read-only, so one plan serves every propagation of its network.

    Entries are told apart in order of frequency: a snapshot by its opcode
    (half of a blocked chain's entries, two thirds of an open one's), then a
    coupler by its pair, and an absorber last.
    """
    # Python complex and float scalars are much faster than per-element
    # ndarray indexing.
    taken = []
    for code, a, b, k in zip(ops, arg_a, arg_b, coeff):
        if code == OP_SNAPSHOT:
            taken += amps
        elif k is not None:
            c, js = k
            za = amps[a]
            zb = amps[b]
            amps[a] = c * za + js * zb
            amps[b] = js * za + c * zb
        else:
            za = amps[a]
            re = za.real
            im = za.imag
            absorbed[b] += re * re + im * im
            amps[a] = 0j
    snaps.flat = taken
