"""Nested-interferometer bit transmission and its chained generalization.

The basic layout is a small interferometer (two 50-50 couplers enclosing the
emitter's blockable arm) nested inside one arm of an outer interferometer.
The receiver, Alice, injects a single excitation; the emitter, Bob, blocks
his arm to send ``b = 0`` and does nothing to send ``b = 1``; the middleman,
Charlie, owns the inner couplers.  Detector D1 sits on the outer arm that
never enters the inner loop and decodes as ``a = 1``; detector D2 sits on
the other outer arm and decodes as ``a = 0``.

Leg checkpoints record the amplitude on every directed inter-party segment,
so tests can verify that for each bit value one of the emitter-receiver legs
carries exactly zero amplitude.

Mode layout (3 modes): mode 0 is Alice's upper arm (D1), mode 1 the lower
outer arm (D2), mode 2 the inner far arm on Bob's side.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from typing import Dict, Iterator, List, Mapping, NamedTuple, Optional, Tuple

from .core import (
    BeamSplitter,
    Blocker,
    Checkpoint,
    Discard,
    Element,
    ModeState,
    Network,
    _BuiltOnRead,
    _coupler_coeff,
    _decimal,
    _finite_real,
    _integer,
    _listed_state,
    _Plan,
    _Record,
    propagate,
)
from .errors import DomainError, MalformedOutcomeError, UndecidableDecodingError

__all__ = [
    "LEG_NAMES",
    "NestedConfig",
    "ChainConfig",
    "MAX_CHAIN_ELEMENTS",
    "ProtocolOutcome",
    "ChainOutcome",
    "BrightPulseReading",
    "build_nested_network",
    "run_protocol",
    "counterfactual_witness",
    "run_bright_pulse",
    "build_chain_network",
    "run_chain",
]

LEG_NAMES = ("alice_to_charlie", "charlie_to_bob", "bob_to_charlie", "charlie_to_alice")


def _validate_bit(bit) -> int:
    if (value := _integer(bit)) not in (0, 1):
        raise DomainError("sender bit must be 0 or 1")
    return value


def _validate_angle(name: str, value) -> float:
    """``value`` as a float angle in (-pi, pi], read by the number rule; an
    exact float is its own reading (nan and the infinities fail the range test)."""
    angle = value if type(value) is float else _finite_real(value)
    if angle is None or not -math.pi < angle <= math.pi:
        raise DomainError(f"{name} must be a finite real angle in (-pi, pi]")
    return angle


class NestedConfig(_Record):
    """Angles of the two outer couplers; the inner pair is fixed at pi/4.

    The layout with both inner couplers detuned to ``pi/4 + delta``, which
    shows how fragile the exact return-leg cancellation is, is the
    one-cycle chain ``ChainConfig(1, 1, theta1, pi/4 + delta, theta2)``.

    A config makes the kernel coefficient pairs of its two outer couplers,
    which both bit networks of an evaluation share.  Their
    :class:`BeamSplitter` objects, ``_outer_couplers``, are made on first
    read, which only a read of a nested network's elements does.
    """

    __match_args__ = ("theta1", "theta2")

    def __init__(self, theta1: float, theta2: float):
        theta1 = _validate_angle("theta1", theta1)
        theta2 = _validate_angle("theta2", theta2)
        attrs = self.__dict__
        attrs["theta1"], attrs["theta2"] = theta1, theta2
        attrs["_outer_coeff"] = _coupler_coeff(theta1), _coupler_coeff(theta2)

    _outer_couplers = _BuiltOnRead(
        "_outer_couplers", lambda c: (BeamSplitter(0, 1, c.theta1), BeamSplitter(0, 1, c.theta2)))


class ProtocolOutcome(_Record):
    """Detector probabilities, absorption breakdown and leg amplitudes of one run."""

    __match_args__ = ("p_d1", "p_d2", "absorbed", "legs")

    def __init__(self, p_d1: float, p_d2: float, absorbed: Mapping[str, float],
                 legs: Mapping[str, complex]):
        attrs = self.__dict__
        attrs["p_d1"], attrs["p_d2"], attrs["absorbed"], attrs["legs"] = p_d1, p_d2, absorbed, legs


class BrightPulseReading(NamedTuple):
    i_d1: float
    i_d2: float
    decoded: int


# Elements are frozen, so Bob's blocker and the discard serve every layout.
_BOB_BLOCKER = Blocker(2, "bob")
_DISCARD = Discard(2, "discard")


def _cycles(outer, inner, marks, bit: int, final) -> Tuple[Element, ...]:
    """Elements of the blockable nested layout, in the order that
    :func:`build_chain_network` states, with one outer cycle per tuple of
    ``marks``: its checkpoints in element order, which is snapshot-row order,
    sliced as :func:`_leg_columns` slices the rows; ``final`` closes it."""
    step = 4 if bit == 0 else 3
    run = [inner] * (step * (len(marks[0]) // 2 - 1))
    if bit == 0:
        run[2::4] = [_BOB_BLOCKER] * (len(run) // 4)
    elements = []
    for cycle in marks:
        run[1::step] = cycle[1:-1:2]
        run[step - 1::step] = cycle[2:-1:2]
        elements += (outer, cycle[0])
        elements += run
        elements += (inner, cycle[-1], _DISCARD)
    elements.append(final)
    return tuple(elements)


# The nested layout at each bit with open outer couplers, the one-cycle case
# of :func:`_cycles`, built once per process: every nested build shares its
# leg checkpoints, inner coupler, blocker and discard and its plan lists, and
# every chain build its plan's opcode, argument and label lists.
_LEG_MARKS = [tuple(map(Checkpoint, LEG_NAMES))]
_INNER = BeamSplitter(1, 2, math.pi / 4)
_OPEN_NESTED = tuple(Network(3, _cycles(BeamSplitter(0, 1, 0.0), _INNER, _LEG_MARKS, bit,
                                      BeamSplitter(0, 1, 0.0))) for bit in (0, 1))
# Per bit, what every build shares: the elements and pairs between the outer couplers, the plan.
_NESTED_MIDDLES = tuple((n.elements[1:-1], n._plan.coeff[1:-1], n._plan) for n in _OPEN_NESTED)

# Every run starts from one excitation in mode 0.  The state holds a list,
# as a propagated one does, and ``propagate`` copies its input list and
# never writes it or the empty ledger, so one state serves every run.
# Nothing reads its ``amplitudes``, which would build a writable array.
_SINGLE_PHOTON = _listed_state([1 + 0j, 0j, 0j], {})


def _nested_elements(config: NestedConfig, bit: int) -> Tuple[Element, ...]:
    """A nested network's elements: its bit's open layout between ``config``'s outer couplers."""
    first, last = config._outer_couplers
    return (first, *_NESTED_MIDDLES[bit][0], last)


def build_nested_network(config: NestedConfig, bit: int) -> Network:
    """Element list for one run at sender bit ``bit``.

    Order: outer coupler theta1 on modes (0, 1); 50-50 coupler on (1, 2);
    Bob's blocker on mode 2 iff ``bit == 0``; the second 50-50 coupler on
    (1, 2); discard of mode 2; outer coupler theta2 on (0, 1).  Leg
    checkpoints surround the blocker slot and the inner couplers.

    The network is its bit's open layout with the two outer couplers'
    coefficient pairs, made once per ``config`` from checked angles,
    spliced in; the pairs go into a fresh copy of the shared coefficient
    list.  Its elements, the layout's with ``config``'s outer couplers, are
    made on first read.
    """
    bit = _validate_bit(bit)
    first_coeff, last_coeff = config._outer_coeff
    _, middle_coeff, (ops, arg_a, arg_b, _, labels, rows) = _NESTED_MIDDLES[bit]
    coeff = [first_coeff, *middle_coeff, last_coeff]
    # tuple.__new__ makes the same _Plan without its Python-level __new__.
    return Network(3, _lowered=tuple.__new__(_Plan, (ops, arg_a, arg_b, coeff, labels, rows)),
                   _build=functools.partial(_nested_elements, config, bit))


def _readout(final: ModeState) -> Tuple[float, float, Dict[str, float]]:
    """``(p_d1, p_d2, absorbed)`` of a propagated state, read from its
    amplitude list: both detector probabilities and the ``bob`` and
    ``discard`` ledger entries."""
    absorbed = {label: final.absorbed.get(label, 0.0) for label in ("bob", "discard")}
    return abs(final._values[0]) ** 2, abs(final._values[1]) ** 2, absorbed


def _leg_columns(flat: List[complex], outer_cycles: int) -> Dict[str, List[complex]]:
    """Per leg family, its amplitudes in the snapshots ``flat`` (row after
    row, 3 modes a row) of a :func:`_cycles` layout, one row per checkpoint
    in element order: one per outer cycle for ``alice_to_charlie`` and
    ``charlie_to_alice``, one per inner cycle of each outer cycle for the
    two inner legs."""
    width = len(flat) // outer_cycles  # values per outer cycle
    # A leg's amplitude is on the lower outer arm (mode 1) or Bob's arm (mode 2).
    # Mode m of a cycle's row r is at 3 r + m: the outer legs are rows 0 and
    # last, the inner legs alternate over the rows between, from row 1.
    there, back = [], []
    for start in range(0, len(flat), width):
        end = start + width - 3
        there += flat[start + 5:end:6]
        back += flat[start + 8:end:6]
    return {
        "alice_to_charlie": flat[1::width],
        "charlie_to_bob": there,
        "bob_to_charlie": back,
        "charlie_to_alice": flat[width - 2::width],
    }


def run_protocol(config: NestedConfig, bit: int) -> ProtocolOutcome:
    """Propagate a single excitation and collect detector/leg statistics."""
    final, checkpoints = propagate(build_nested_network(config, bit), _SINGLE_PHOTON)
    legs = {name: column[0] for name, column in _leg_columns(checkpoints.flat, 1).items()}
    return ProtocolOutcome(*_readout(final), legs)


def _detector_probabilities(config: NestedConfig, bit: int) -> Tuple[float, float]:
    """``run_protocol(config, bit)``'s ``(p_d1, p_d2)``, without its legs and ledger."""
    amps = propagate(build_nested_network(config, bit), _SINGLE_PHOTON)[0]._values
    return abs(amps[0]) ** 2, abs(amps[1]) ** 2


def counterfactual_witness(outcome: ProtocolOutcome, bit: int) -> Tuple[float, float]:
    """Probabilities on the two emitter-receiver legs of ``outcome``.

    Returns ``(|bob_to_charlie|^2, |charlie_to_alice|^2)``.  The first is
    exactly zero whenever ``bit == 0`` (the blocker empties the arm); the
    second vanishes for ``bit == 1`` up to rounding, as a nested run's
    inner couplers are exactly 50-50 (the detuned layout, a one-cycle
    :class:`ChainConfig`, leaks onto that leg).
    Each leg must be a ``numbers.Complex`` but no ``bool``.
    """
    _validate_bit(bit)
    try:
        forward, backward = outcome.legs["bob_to_charlie"], outcome.legs["charlie_to_alice"]
    except (AttributeError, KeyError, TypeError):
        forward = backward = None  # a missing leg is refused as no number
    if not all(isinstance(z, numbers.Complex) and not isinstance(z, bool)
               for z in (forward, backward)):
        raise MalformedOutcomeError(
            "outcome must hold the bob_to_charlie and charlie_to_alice leg amplitudes"
        )
    return abs(forward) ** 2, abs(backward) ** 2


def run_bright_pulse(config: NestedConfig, bit: int, intensity: float) -> BrightPulseReading:
    """Classical-pulse variant: every photon of a bright input pulse follows
    the same linear evolution, so detector intensities are
    ``intensity * p_dk``.  Decoding is argmax over the two detectors; an
    exact tie is refused rather than silently broken."""
    if (number := _finite_real(intensity)) is None or number <= 0:
        raise DomainError("intensity must be a positive finite number")
    p_d1, p_d2 = _detector_probabilities(config, bit)
    i_d1 = number * p_d1
    i_d2 = number * p_d2
    if i_d1 > i_d2:
        decoded = 1
    elif i_d2 > i_d1:
        decoded = 0
    else:
        raise UndecidableDecodingError(
            f"detector intensities tie exactly at {i_d1!r}; decoding is undefined"
        )
    return BrightPulseReading(i_d1, i_d2, decoded)


# Work budget of one chained network, in elements.  A run's memory and time
# grow linearly with its element count.  At its largest shape, 1 x 124,998,
# run_chain takes 0.26 s at b = 0 and 0.14 s at b = 1, at 47 MB peak RSS;
# 50 x 2000 takes 0.19 s and 0.13 s at 39 MB (medians of 25 and 9 pairs,
# each pair in a fresh process on a shared 2-vCPU Intel Xeon; the fastest
# pairs took about 0.7 times as long; peak RSS of five such processes, with
# numpy not loaded).  It is 15 times the 32,101 elements of a 20 x 400 chain.
MAX_CHAIN_ELEMENTS = 500_000


def _chain_element_count(outer_cycles: int, inner_cycles: int, bit: int) -> int:
    """Length of ``build_chain_network`` for these cycle counts and bit."""
    per_inner_cycle = 4 if bit == 0 else 3
    return outer_cycles * (5 + per_inner_cycle * inner_cycles) + 1


class ChainConfig(_Record):
    """Chained generalization: ``outer_cycles`` outer loops, each feeding an
    inner chain of ``inner_cycles`` blockable loops.

    Defaults put every coupler at the angle that composes to a quarter turn
    over its chain (``pi / (2 (cycles + 1))``), the regime where repeated
    weak coupling makes both error and loss vanish as the cycle counts grow.
    ``final_angle`` lets the closing outer coupler differ from the others.
    Both layouts come from one cycle function, the nested one as its
    one-cycle case, so with one cycle each, ``outer_angle = theta1``,
    ``final_angle = theta2`` and ``inner_angle = pi/4`` this reduces
    element-for-element to :func:`build_nested_network` by construction;
    any other ``inner_angle`` gives the nested layout detuned.

    Cycle counts whose network would exceed :data:`MAX_CHAIN_ELEMENTS`
    elements (counted at ``b = 0``, the longer of the two) are rejected
    before anything is built.
    """

    __match_args__ = ("outer_cycles", "inner_cycles", "outer_angle", "inner_angle", "final_angle")

    def __init__(self, outer_cycles: int, inner_cycles: int, outer_angle: Optional[float] = None,
                 inner_angle: Optional[float] = None, final_angle: Optional[float] = None):
        outer_cycles, inner_cycles = _integer(outer_cycles), _integer(inner_cycles)
        for name, cycles in (("outer_cycles", outer_cycles), ("inner_cycles", inner_cycles)):
            if cycles is None or cycles < 1:
                raise DomainError(f"{name} must be a positive integer")
        elements = _chain_element_count(outer_cycles, inner_cycles, 0)
        if elements > MAX_CHAIN_ELEMENTS:
            raise DomainError(
                f"a {_decimal(outer_cycles)} x {_decimal(inner_cycles)} chain needs "
                f"{_decimal(elements)} elements per network, above the budget of "
                f"{MAX_CHAIN_ELEMENTS}"
            )
        if outer_angle is None:
            outer_angle = math.pi / (2 * (outer_cycles + 1))
        if inner_angle is None:
            inner_angle = math.pi / (2 * (inner_cycles + 1))
        attrs = self.__dict__
        attrs["outer_cycles"], attrs["inner_cycles"] = outer_cycles, inner_cycles
        attrs["outer_angle"] = outer_angle = _validate_angle("outer_angle", outer_angle)
        attrs["inner_angle"] = _validate_angle("inner_angle", inner_angle)
        attrs["final_angle"] = (outer_angle if final_angle is None
                                else _validate_angle("final_angle", final_angle))


class ChainOutcome(_Record):
    """Detector and witness statistics of one chained run."""

    __match_args__ = ("bit", "p_d1", "p_d2", "absorbed", "leg_peaks")

    def __init__(self, bit: int, p_d1: float, p_d2: float, absorbed: Mapping[str, float],
                 leg_peaks: Mapping[str, float]):
        attrs = self.__dict__
        attrs["bit"], attrs["p_d1"], attrs["p_d2"] = bit, p_d1, p_d2
        attrs["absorbed"], attrs["leg_peaks"] = absorbed, leg_peaks

    @property
    def p_correct(self) -> float:
        """Probability that argmax decoding recovers the sender bit."""
        return self.p_d2 if self.bit == 0 else self.p_d1


class _ChainRows(Mapping):
    """A chain network's checkpoint name -> snapshot row index, in row order:
    its length is counted, its names are made on first read; it holds no
    :class:`Checkpoint`."""

    def __init__(self, cycles: Tuple[int, int]):
        self.cycles = cycles  # (outer_cycles, inner_cycles)

    def __repr__(self):
        return f"_ChainRows(cycles={self.cycles!r})"

    def names(self) -> Iterator[List[str]]:
        """Per outer cycle, its checkpoint names in element order."""
        to_charlie, to_bob, from_bob, to_alice = LEG_NAMES
        ends = [f".{j}]" for j in range(1, self.cycles[1] + 1)]  # so a name is one concatenation
        for k in range(1, self.cycles[0] + 1):
            there, back = f"{to_bob}[{k}", f"{from_bob}[{k}"
            names = [f"{to_charlie}[{k}]"]
            for end in ends:
                names += (there + end, back + end)
            names.append(f"{to_alice}[{k}]")
            yield names

    _index = _BuiltOnRead("_index", lambda rows: dict(
        zip(itertools.chain.from_iterable(rows.names()), itertools.count())))

    def __getitem__(self, name):
        return self._index[name]

    def __iter__(self):
        return iter(self._index)

    def __len__(self):
        return self.cycles[0] * (2 * self.cycles[1] + 2)


def _chain_elements(rows, bit: int, chain: ChainConfig) -> Tuple[Element, ...]:
    """A chain network's elements: couplers at ``chain``'s angles, checkpoints named by ``rows``."""
    return _cycles(BeamSplitter(0, 1, chain.outer_angle), BeamSplitter(1, 2, chain.inner_angle),
                   [tuple(map(Checkpoint, names)) for names in rows.names()], bit,
                   BeamSplitter(0, 1, chain.final_angle))


def build_chain_network(chain: ChainConfig, bit: int) -> Network:
    """Chained network on the same 3 modes as the basic layout.

    Each outer cycle couples modes (0, 1) and routes mode 1 through an inner
    chain of couplers on (1, 2) whose far arm holds Bob's blocker slot in
    every cycle; the inner chain's far output is discarded before control
    returns to the outer loop.  Checkpoints carry the cycle index so leg
    amplitudes stay inspectable at any depth.

    Element order, per outer cycle ``k``: the outer coupler,
    ``alice_to_charlie[k]``; per inner cycle ``j``: the inner coupler,
    ``charlie_to_bob[k.j]``, Bob's blocker iff ``bit == 0``,
    ``bob_to_charlie[k.j]``; then the inner coupler,
    ``charlie_to_alice[k]`` and the discard.  The final coupler closes the
    network.  Its plan is its bit's open nested plan with ``chain``'s pairs
    spliced in, repeated at both levels; its elements are built, and its
    rows named, when first read.
    """
    bit = _validate_bit(bit)
    outer_cycles, inner_cycles = chain.outer_cycles, chain.inner_cycles
    _, middle_coeff, (ops, arg_a, arg_b, _, labels, _) = _NESTED_MIDDLES[bit]
    inner = _coupler_coeff(chain.inner_angle)
    coeff = [_coupler_coeff(chain.outer_angle), *[k and inner for k in middle_coeff],
             _coupler_coeff(chain.final_angle)]  # `k and`: a None entry stays None
    # No plan entry holds a cycle index (snapshot rows are numbered in
    # ``rows`` alone), so each column of the one-cycle plan, [outer coupler,
    # checkpoint | inner block | inner coupler, checkpoint, discard | final
    # coupler], gives the chain's by repeating its inner block, then its cycle.
    columns = []
    for c in (ops, arg_a, arg_b, coeff):
        column = c[:2] + c[2:-4] * inner_cycles + c[-4:-1]
        if outer_cycles > 1:  # `* 1` would copy the one cycle again
            column = column * outer_cycles
        column.append(c[-1])  # not `+ c[-1:]`, which copies the whole column again
        columns.append(column)
    rows = _ChainRows((outer_cycles, inner_cycles))
    build = functools.partial(_chain_elements, rows, bit, chain)
    return Network(3, _lowered=_Plan(*columns, labels, rows), _build=build)


def run_chain(chain: ChainConfig, bit: int) -> ChainOutcome:
    """Propagate one excitation through the chained network.

    ``leg_peaks`` holds, per leg family, the maximum probability seen over
    all same-named checkpoints; the counterfactual statements then read
    ``leg_peaks["bob_to_charlie"] == 0`` for ``bit == 0`` and
    ``leg_peaks["charlie_to_alice"] ~ 0`` for ``bit == 1`` at default angles.
    The peaks are read from the snapshot list by position, and no array is
    built.  A leg whose entries are all zero peaks at 0.0, a leg whose
    entries equal the previous leg's takes that leg's peak, and any other
    squares its largest modulus.
    """
    final, checkpoints = propagate(build_chain_network(chain, bit), _SINGLE_PHOTON)
    columns = _leg_columns(checkpoints.flat, chain.outer_cycles)
    peaks = {}
    previous = last = None
    for leg, column in columns.items():
        # Each test reads the entries: an all-zero leg is measured, not assumed.
        if not any(column):
            peaks[leg] = 0.0
        elif column == last:
            # At bit 1 the two inner legs are read at adjacent checkpoints.
            peaks[leg] = peaks[previous]
        else:
            # Squaring is monotone, so each largest modulus is squared once.
            peaks[leg] = max(map(abs, column)) ** 2
        previous, last = leg, column
    return ChainOutcome(bit, *_readout(final), peaks)
