"""Propagation kernel.

Executes the element plan produced by ``cfoptics.core`` in place on Python
lists: the amplitudes (Python complex), the per-label absorbed
probabilities and the checkpoint snapshots, which are handed over as one
flat list.  No array is made here.

A plan runs in one of two forms.  The interpreter loop of :func:`run_plan`
reads every entry of any plan and is the reference.  A plan tiled from a
one-cycle template may also carry a program: the straight-line Python
that :func:`compile_cycles` generated once from the template, which does
the loop's operations, in the same order, on local variables.  Where a
mode is known to hold exactly ``0j`` (absorbed, and not coupled since),
the program takes each product with it from a constant computed once per
run, the same product with the same bits: Bob's blocked arm at b = 0 after
the first inner cycle.  It runs the first inner cycle by itself, so it
needs at least one.
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
    only ``coeff`` of the columns and leaves the same bits, from any input
    state: it folds a product with a mode only where an absorber has set
    that mode to ``0j`` since its last coupler.  It needs
    ``inner_cycles >= 1``, which ``ChainConfig`` guarantees.

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
    the end.  A coupler is ``za, zb = c*za + js*zb, js*za + c*zb``.  Each
    coupler's pair is read once from the tiled ``coeff``: the head's and the
    block's at their template positions, the tail's and the last entry's
    from the end.  So a tiled plan's repeats must hold the first copy's
    pairs.  The source is built from the template's integers alone.

    The fold rule: the generator tracks the modes known to hold exactly
    ``0j``.  An absorber adds its mode, a coupler removes both of its
    modes, and the set starts empty at each outer cycle, as the input state
    is arbitrary.  In a coupler, each product with a known-zero mode is the
    constant ``k * 0j``, computed once per call with the pairs: the same
    product, so the same bits.  The first inner cycle is emitted once before
    the loop, which then runs ``inner_cycles - 1`` times from what one pass
    of the block leaves, a set that a further pass leaves unchanged (the
    modes absorbed after their last coupling: Bob's at b = 0).  A block that
    leaves what it found is not peeled.  The program thus runs the block at
    least once and needs ``inner_cycles >= 1``, which ``ChainConfig``
    guarantees.  A run of checkpoints and absorbers is one record: the
    ledger updates as they come, one ``taken +=`` at the last checkpoint, in
    which a mode absorbed before it reads ``0j``, then the stores of zero.
    """
    ops, arg_a, arg_b = template.ops, template.arg_a, template.arg_b
    size = len(ops)
    modes = ", ".join(f"z{m}" for m in range(mode_count))
    slots = ", ".join(f"l{s}" for s in range(len(template.ledger_labels)))
    loads = {}  # lines in order, each once: a peeled block reads its pairs again

    def product(k, i, m, known):
        """Coupler ``i``'s factor ``k`` times mode ``m``: a loaded constant if ``m`` is known zero."""
        if m not in known:
            return f"{k}{i} * z{m}"
        loads[f"    {k}{i}z = {k}{i} * 0j"] = None
        return f"{k}{i}z"

    def emit(positions, indent, offset, known):
        """The lines of the entries at ``positions``, a pair read at ``i - offset``,
        and the modes known to hold 0j after them, from ``known`` before."""
        lines, known = [], set(known)
        for couplers, run in itertools.groupby(positions, lambda i: ops[i] == OP_SPLIT):
            run = list(run)
            if couplers:
                for i in run:
                    a, b = arg_a[i], arg_b[i]
                    loads[f"    c{i}, s{i} = coeff[{i - offset}]"] = None
                    lines.append(f"{indent}z{a}, z{b} = "
                                 f"{product('c', i, a, known)} + {product('s', i, b, known)}, "
                                 f"{product('s', i, a, known)} + {product('c', i, b, known)}")
                    known -= {a, b}
                continue
            last = max((i for i in run if ops[i] == OP_SNAPSHOT), default=-1)
            row, stores = [], []
            for i in run:
                a = arg_a[i]
                if ops[i] == OP_SNAPSHOT:
                    row += ("0j" if m in known else f"z{m}" for m in range(mode_count))
                    if i == last:
                        lines += (f"{indent}taken += {', '.join(row)},", *stores)
                    continue
                if a in known:  # 0j, or 0j once a deferred store runs: it adds 0.0
                    lines.append(f"{indent}l{arg_b[i]} += 0.0")
                else:
                    lines += (f"{indent}re = z{a}.real", f"{indent}im = z{a}.imag",
                              f"{indent}l{arg_b[i]} += re * re + im * im")
                (stores if i < last else lines).append(f"{indent}z{a} = 0j")
                known.add(a)
        return lines, known

    head, block, tail = (range(size)[part] for part in tiling)
    opening, known = emit(head, " " * 8, 0, ())
    first, peeled = emit(block, " " * 8, 0, known)
    count = "inner_cycles"
    if peeled != known:  # the first inner cycle, peeled, lets the rest fold
        opening += first
        known, count = peeled, "inner_cycles - 1"
    body, known = emit(block, " " * 12, 0, known)
    closing, known = emit(tail, " " * 8, size, known)
    final, _ = emit((size - 1,), " " * 4, size, known)
    source = "\n".join((
        "def run(coeff, amps, absorbed, snaps, outer_cycles, inner_cycles):",
        f"    {modes}, = amps",
        *([f"    {slots}, = absorbed"] if slots else ()),
        *loads,
        "    taken = []",
        "    for _ in range(outer_cycles):",
        *opening,
        f"        for _ in range({count}):",
        *body,
        *closing,
        *final,
        f"    amps[:] = {modes},",
        *([f"    absorbed[:] = {slots},"] if slots else ()),
        "    snaps.flat = taken\n",
    ))
    namespace = {}
    exec(compile(source, "<kernel.compile_cycles>", "exec"), namespace)
    return namespace["run"]
