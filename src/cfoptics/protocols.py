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

import math
import numbers
from dataclasses import dataclass
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from .core import (
    BeamSplitter,
    Blocker,
    Checkpoint,
    Discard,
    Element,
    ModeState,
    Network,
    _decimal,
    _finite_real,
    _integer,
    _lower_element,
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
    """``value`` as a float angle in (-pi, pi], read by the number rule; a
    float is returned as the same object."""
    if (angle := _finite_real(value)) is None or not -math.pi < angle <= math.pi:
        raise DomainError(f"{name} must be a finite real angle in (-pi, pi]")
    return angle


@dataclass(frozen=True)
class NestedConfig:
    """Angles of the two outer couplers; the inner pair is fixed at pi/4.

    ``inner_offset`` detunes both inner couplers away from pi/4.  It exists
    only as a diagnostic to show how fragile the exact return-leg
    cancellation is, and defaults to off.
    """

    theta1: float
    theta2: float
    inner_offset: float = 0.0

    def __post_init__(self):
        theta1 = _validate_angle("theta1", self.theta1)
        theta2 = _validate_angle("theta2", self.theta2)
        if (offset := _finite_real(self.inner_offset)) is None:
            raise DomainError("inner_offset must be a finite real number")
        # A float angle is its own validated value and needs no store.
        if theta1 is not self.theta1:
            object.__setattr__(self, "theta1", theta1)
        if theta2 is not self.theta2:
            object.__setattr__(self, "theta2", theta2)
        object.__setattr__(self, "inner_offset", offset)
        # Not a field: both bit networks of an evaluation share these couplers.
        outer = (BeamSplitter(0, 1, theta1), BeamSplitter(0, 1, theta2))
        object.__setattr__(self, "_outer_couplers", outer)

    @property
    def inner_angle(self) -> float:
        return math.pi / 4 + self.inner_offset


@dataclass(frozen=True)
class ProtocolOutcome:
    """Detector probabilities, absorption breakdown and leg amplitudes of one run."""

    p_d1: float
    p_d2: float
    absorbed: Mapping[str, float]
    legs: Mapping[str, complex]


class BrightPulseReading(NamedTuple):
    i_d1: float
    i_d2: float
    decoded: int


# Elements are frozen, so Bob's blocker and the discard serve every layout.
_BOB_BLOCKER = Blocker(2, "bob")
_DISCARD = Discard(2, "discard")


def _cycles(outer, inner, marks, bit: int, final) -> Tuple[Element, ...]:
    """Elements of the blockable nested layout, in the order that
    :func:`build_chain_network` states, with one outer cycle per entry
    ``(to_charlie, to_bob, from_bob, to_alice)`` of ``marks``; ``to_bob``
    and ``from_bob`` hold one checkpoint per inner cycle, and ``final``
    closes the layout."""
    step = 4 if bit == 0 else 3
    run = [inner] * (step * len(marks[0][1]))
    if bit == 0:
        run[2::4] = [_BOB_BLOCKER] * (len(run) // 4)
    elements = []
    for to_charlie, to_bob, from_bob, to_alice in marks:
        run[1::step] = to_bob
        run[step - 1::step] = from_bob
        elements += (outer, to_charlie)
        elements += run
        elements += (inner, to_alice, _DISCARD)
    elements.append(final)
    return tuple(elements)


# The nested layout at each bit with open outer couplers, the one-cycle case
# of :func:`_cycles`, built once per process: every nested build shares its
# leg checkpoints, inner coupler, blocker and discard and its plan lists.
_LEG_MARKS = [(Checkpoint(LEG_NAMES[0]), [Checkpoint(LEG_NAMES[1])], [Checkpoint(LEG_NAMES[2])],
               Checkpoint(LEG_NAMES[3]))]
_INNER = BeamSplitter(1, 2, math.pi / 4)
_OPEN_NESTED = tuple(Network(3, _cycles(BeamSplitter(0, 1, 0.0), _INNER, _LEG_MARKS, bit,
                                      BeamSplitter(0, 1, 0.0))) for bit in (0, 1))

# Every run starts from one excitation in mode 0.  ``propagate`` never
# writes to its input, so one read-only state serves every run.
_SINGLE_PHOTON = ModeState.single_photon(3)
_SINGLE_PHOTON.amplitudes.flags.writeable = False


def build_nested_network(config: NestedConfig, bit: int) -> Network:
    """Element list for one run at sender bit ``bit``.

    Order: outer coupler theta1 on modes (0, 1); 50-50 coupler on (1, 2);
    Bob's blocker on mode 2 iff ``bit == 0``; the second 50-50 coupler on
    (1, 2); discard of mode 2; outer coupler theta2 on (0, 1).  Leg
    checkpoints surround the blocker slot and the inner couplers.

    The network is its bit's open layout with the two outer couplers (made
    once per ``config``) in place: only their coefficient pairs are lowered
    and spliced into the shared plan.  Under ``inner_offset`` the inner
    pair differs too, and the layout is built in full.
    """
    bit = _validate_bit(bit)
    first, last = config._outer_couplers
    if config.inner_angle != _INNER.theta:
        return Network(3, _cycles(first, BeamSplitter(1, 2, config.inner_angle), _LEG_MARKS, bit,
                                  last))
    base = _OPEN_NESTED[bit]
    plan = base._plan
    coeff = [_lower_element(first, BeamSplitter, 3, None)[3], *plan.coeff[1:-1],
             _lower_element(last, BeamSplitter, 3, None)[3]]
    return Network(3, (first, *base.elements[1:-1], last), _lowered=plan._replace(coeff=coeff))


def _readout(final: ModeState) -> Tuple[float, float, Dict[str, float]]:
    """``(p_d1, p_d2, absorbed)`` of a final state: both detector
    probabilities and the ``bob`` and ``discard`` ledger entries."""
    absorbed = {label: final.absorbed.get(label, 0.0) for label in ("bob", "discard")}
    return abs(final.amplitudes.item(0)) ** 2, abs(final.amplitudes.item(1)) ** 2, absorbed


def _leg_columns(matrix: np.ndarray, outer_cycles: int, inner_cycles: int) -> Dict[str, np.ndarray]:
    """Per leg family, its amplitudes in the snapshot matrix of a
    :func:`_cycles` layout, one row per checkpoint in element order: an
    ``outer_cycles`` column for ``alice_to_charlie`` and ``charlie_to_alice``,
    an ``outer_cycles`` x ``inner_cycles`` block for the two inner legs."""
    rows = matrix.reshape(outer_cycles, 2 * inner_cycles + 2, 3)
    # A leg's amplitude is on the lower outer arm (mode 1) or Bob's arm (mode 2).
    return {
        "alice_to_charlie": rows[:, 0, 1],
        "charlie_to_bob": rows[:, 1:-1:2, 2],
        "bob_to_charlie": rows[:, 2:-1:2, 2],
        "charlie_to_alice": rows[:, -1, 1],
    }


def run_protocol(config: NestedConfig, bit: int) -> ProtocolOutcome:
    """Propagate a single excitation and collect detector/leg statistics."""
    final, checkpoints = propagate(build_nested_network(config, bit), _SINGLE_PHOTON)
    legs = {name: column.item() for name, column in _leg_columns(checkpoints.matrix, 1, 1).items()}
    return ProtocolOutcome(*_readout(final), legs)


def _detector_probabilities(config: NestedConfig, bit: int) -> Tuple[float, float]:
    """``run_protocol(config, bit)``'s ``(p_d1, p_d2)``, without its legs and ledger."""
    amps = propagate(build_nested_network(config, bit), _SINGLE_PHOTON)[0].amplitudes
    return abs(amps.item(0)) ** 2, abs(amps.item(1)) ** 2


def counterfactual_witness(outcome: ProtocolOutcome, bit: int) -> Tuple[float, float]:
    """Probabilities on the two emitter-receiver legs of ``outcome``.

    Returns ``(|bob_to_charlie|^2, |charlie_to_alice|^2)``.  The first is
    exactly zero whenever ``bit == 0`` (the blocker empties the arm); the
    second vanishes for ``bit == 1`` with exact 50-50 inner couplers.
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
# grow linearly with its element count: run_chain(ChainConfig(50, 2000), b),
# 400,251 elements at b = 0, takes 0.57-0.93 s in a process of 114-117 MB peak
# RSS on a 2-vCPU Intel Xeon, so the budget holds one network to about 1.2 s
# and 140 MB.  It is 15 times the 32,101 elements of a 20 x 400 chain.
MAX_CHAIN_ELEMENTS = 500_000


def _chain_element_count(outer_cycles: int, inner_cycles: int, bit: int) -> int:
    """Length of ``build_chain_network`` for these cycle counts and bit."""
    per_inner_cycle = 4 if bit == 0 else 3
    return outer_cycles * (5 + per_inner_cycle * inner_cycles) + 1


@dataclass(frozen=True)
class ChainConfig:
    """Chained generalization: ``outer_cycles`` outer loops, each feeding an
    inner chain of ``inner_cycles`` blockable loops.

    Defaults put every coupler at the angle that composes to a quarter turn
    over its chain (``pi / (2 (cycles + 1))``), the regime where repeated
    weak coupling makes both error and loss vanish as the cycle counts grow.
    ``final_angle`` lets the closing outer coupler differ from the others.
    Both layouts come from one cycle function, the nested one as its
    one-cycle case, so with one cycle each, ``outer_angle = theta1``,
    ``final_angle = theta2`` and ``inner_angle = pi/4`` this reduces
    element-for-element to :func:`build_nested_network` by construction.

    Cycle counts whose network would exceed :data:`MAX_CHAIN_ELEMENTS`
    elements (counted at ``b = 0``, the longer of the two) are rejected
    before anything is built.
    """

    outer_cycles: int
    inner_cycles: int
    outer_angle: Optional[float] = None
    inner_angle: Optional[float] = None
    final_angle: Optional[float] = None

    def __post_init__(self):
        for name in ("outer_cycles", "inner_cycles"):
            if (cycles := _integer(getattr(self, name))) is None or cycles < 1:
                raise DomainError(f"{name} must be a positive integer")
            object.__setattr__(self, name, cycles)
        elements = _chain_element_count(self.outer_cycles, self.inner_cycles, 0)
        if elements > MAX_CHAIN_ELEMENTS:
            raise DomainError(
                f"a {_decimal(self.outer_cycles)} x {_decimal(self.inner_cycles)} chain needs "
                f"{_decimal(elements)} elements per network, above the budget of "
                f"{MAX_CHAIN_ELEMENTS}"
            )
        if self.outer_angle is None:
            object.__setattr__(self, "outer_angle", math.pi / (2 * (self.outer_cycles + 1)))
        if self.inner_angle is None:
            object.__setattr__(self, "inner_angle", math.pi / (2 * (self.inner_cycles + 1)))
        if self.final_angle is None:
            object.__setattr__(self, "final_angle", self.outer_angle)
        for name in ("outer_angle", "inner_angle", "final_angle"):
            object.__setattr__(self, name, _validate_angle(name, getattr(self, name)))


@dataclass(frozen=True)
class ChainOutcome:
    """Detector and witness statistics of one chained run."""

    bit: int
    p_d1: float
    p_d2: float
    absorbed: Mapping[str, float]
    leg_peaks: Mapping[str, float]

    @property
    def p_correct(self) -> float:
        """Probability that argmax decoding recovers the sender bit."""
        return self.p_d2 if self.bit == 0 else self.p_d1


# Per outer cycle k: alice_to_charlie[k], the charlie_to_bob[k.j] and
# bob_to_charlie[k.j] of its inner cycles j, and charlie_to_alice[k].
_CycleMarks = Tuple[Checkpoint, List[Checkpoint], List[Checkpoint], Checkpoint]

# Checkpoint names depend only on the cycle counts, so the two bit runs of a
# chain share one set: the first build makes it and leaves it here, the next
# build of the same cycle counts takes it out.  At most one set waits here,
# and none once its pair is built.
_spare_checkpoints: Dict[Tuple[int, int], List[_CycleMarks]] = {}


def _chain_checkpoints(outer_cycles: int, inner_cycles: int) -> List[_CycleMarks]:
    key = (outer_cycles, inner_cycles)
    marks = _spare_checkpoints.pop(key, None)
    if marks is not None:
        return marks
    _spare_checkpoints.clear()
    outer = range(1, outer_cycles + 1)
    steps = [[f"[{k}.{j}]" for j in range(1, inner_cycles + 1)] for k in outer]
    marks = _spare_checkpoints[key] = list(zip(
        [Checkpoint(f"alice_to_charlie[{k}]") for k in outer],
        [[Checkpoint("charlie_to_bob" + step) for step in row] for row in steps],
        [[Checkpoint("bob_to_charlie" + step) for step in row] for row in steps],
        [Checkpoint(f"charlie_to_alice[{k}]") for k in outer],
    ))
    return marks


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
    network.
    """
    bit = _validate_bit(bit)
    marks = _chain_checkpoints(chain.outer_cycles, chain.inner_cycles)
    return Network(3, _cycles(BeamSplitter(0, 1, chain.outer_angle),
                              BeamSplitter(1, 2, chain.inner_angle), marks, bit,
                              BeamSplitter(0, 1, chain.final_angle)))


def run_chain(chain: ChainConfig, bit: int) -> ChainOutcome:
    """Propagate one excitation through the chained network.

    ``leg_peaks`` holds, per leg family, the maximum probability seen over
    all same-named checkpoints; the counterfactual statements then read
    ``leg_peaks["bob_to_charlie"] == 0`` for ``bit == 0`` and
    ``leg_peaks["charlie_to_alice"] ~ 0`` for ``bit == 1`` at default angles.
    """
    final, checkpoints = propagate(build_chain_network(chain, bit), _SINGLE_PHOTON)
    columns = _leg_columns(checkpoints.matrix, chain.outer_cycles, chain.inner_cycles)
    # Largest abs(z) ** 2 bit for bit as Python computes it: np.hypot calls
    # the C library hypot as complex abs does (np.abs may differ in the last
    # bit), and squaring is monotone, so each largest modulus is squared once.
    peaks = {leg: float(np.hypot(z.real, z.imag).max()) ** 2 for leg, z in columns.items()}
    return ChainOutcome(bit, *_readout(final), peaks)
