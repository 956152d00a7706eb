"""Propagation kernel.

Executes the element plan produced by ``cfoptics.core`` in place on Python
lists: the amplitudes (Python complex), the per-label absorbed
probabilities and the checkpoint snapshots, which are handed over as one
flat list.  No array is made here.

A plan runs in one of two forms.  The interpreter loop of :func:`run_plan`
reads every entry of any plan and is the reference.  A plan tiled from a
one-cycle template may also carry a program: the straight-line Python
that :func:`compile_cycles` generated once from the template, which does
the loop's operations, in the same order, on local variables.
"""

import itertools

# Opcodes.
OP_SPLIT = 0  # two-mode coupler: args = (mode_a, mode_b), coeff = (complex(cos t), 1j * sin t)
OP_ABSORB = 1  # perfect absorber: args = (mode, ledger_slot), coeff None
OP_SNAPSHOT = 2  # amplitude snapshot: args = (unused, unused), coeff None; rows in plan order


def run_plan(ops, arg_a, arg_b, coeff, amps, absorbed, snaps, program=None):
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

    ``program`` is None, or the plan's ``(run, outer_cycles,
    inner_cycles)``: ``run`` is a :func:`compile_cycles` program of the
    template that the plan tiles.  It then runs in place of the loop, reads
    only ``coeff`` of the columns and leaves the same bits.

    Otherwise the loop tells entries apart: a snapshot by its opcode, then a
    coupler by its pair, and an absorber last.
    """
    if program is not None:
        run, outer_cycles, inner_cycles = program
        run(coeff, amps, absorbed, snaps, outer_cycles, inner_cycles)
        return
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


def compile_cycles(template, mode_count, tiling):
    """The program of the plans tiled from the one-cycle plan ``template``.

    ``tiling`` is the template's ``(head, block, tail)`` slices.  A tiled
    plan is ``outer_cycles`` repeats of [head, ``inner_cycles`` repeats of
    block, tail], then the template's last entry.  The program is a function
    ``run(coeff, amps, absorbed, snaps, outer_cycles, inner_cycles)`` that
    does what :func:`run_plan`'s loop does on such a plan, in the same order.
    Mode ``m`` is the local ``zm`` and ledger slot ``s`` the accumulator
    ``ls``, read from ``amps`` and ``absorbed`` on entry and written back at
    the end.  A coupler is ``za, zb = c*za + js*zb, js*za + c*zb``, and a
    run of checkpoints is one ``taken +=`` of the repeated modes.  Each
    coupler's pair is read once from the tiled ``coeff``: the head's and the
    block's at their template positions, the tail's and the last entry's
    from the end.  So a tiled plan's repeats must hold the first copy's
    pairs.  The source is built from the template's integers alone.
    """
    ops, arg_a, arg_b = template.ops, template.arg_a, template.arg_b
    size = len(ops)
    modes = [f"z{m}" for m in range(mode_count)]
    slots = ", ".join(f"l{s}" for s in range(len(template.ledger_labels)))
    loads, lines = [], []

    def emit(positions, indent, offset):
        """Append the lines of the entries at ``positions``; a pair is read at ``i - offset``."""
        for snapshots, run in itertools.groupby(positions, lambda i: ops[i] == OP_SNAPSHOT):
            if snapshots:
                lines.append(f"{indent}taken += {', '.join(modes * len(list(run)))},")
                continue
            for i in run:
                a, b = arg_a[i], arg_b[i]
                if ops[i] == OP_SPLIT:
                    loads.append(f"    c{i}, s{i} = coeff[{i - offset}]")
                    lines.append(f"{indent}z{a}, z{b} = "
                                 f"c{i} * z{a} + s{i} * z{b}, s{i} * z{a} + c{i} * z{b}")
                else:
                    lines.extend((f"{indent}re = z{a}.real", f"{indent}im = z{a}.imag",
                                  f"{indent}l{b} += re * re + im * im", f"{indent}z{a} = 0j"))

    head, block, tail = (range(size)[part] for part in tiling)
    lines.append("    for _ in range(outer_cycles):")
    emit(head, " " * 8, 0)
    lines.append("        for _ in range(inner_cycles):")
    emit(block, " " * 12, 0)
    emit(tail, " " * 8, size)
    emit((size - 1,), " " * 4, size)
    source = "\n".join((
        "def run(coeff, amps, absorbed, snaps, outer_cycles, inner_cycles):",
        f"    {', '.join(modes)}, = amps",
        *([f"    {slots}, = absorbed"] if slots else ()),
        *loads,
        "    taken = []",
        *lines,
        f"    amps[:] = {', '.join(modes)},",
        *([f"    absorbed[:] = {slots},"] if slots else ()),
        "    snaps.flat = taken\n",
    ))
    namespace = {}
    exec(compile(source, "<kernel.compile_cycles>", "exec"), namespace)
    return namespace["run"]
