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
    _is_finite,
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

# Mode whose amplitude constitutes the leg at each checkpoint.
_LEG_MODE = {
    "alice_to_charlie": 1,
    "charlie_to_bob": 2,
    "bob_to_charlie": 2,
    "charlie_to_alice": 1,
}


def _validate_bit(bit) -> int:
    if bit not in (0, 1) or isinstance(bit, bool):
        raise DomainError(f"sender bit must be 0 or 1, got {bit!r}")
    return int(bit)


def _validate_angle(name: str, value) -> float:
    try:
        angle = float(value)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a real angle in radians") from None
    if not math.isfinite(angle) or not -math.pi < angle <= math.pi:
        raise DomainError(f"{name} must be finite and in (-pi, pi], got {value!r}")
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
        object.__setattr__(self, "theta1", _validate_angle("theta1", self.theta1))
        object.__setattr__(self, "theta2", _validate_angle("theta2", self.theta2))
        if not _is_finite(self.inner_offset):
            raise DomainError("inner_offset must be a finite real number")

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


# Elements are frozen, so the nested layout's constant elements are built
# once per process; only the two outer couplers depend on the call.
_LEG_CHECKPOINTS = tuple(Checkpoint(name) for name in LEG_NAMES)
_BOB_BLOCKER = Blocker(2, "bob")
_DISCARD = Discard(2, "discard")
_INNER_COUPLER = BeamSplitter(1, 2, math.pi / 4)


def _inner_section(inner: BeamSplitter, bit: int) -> Tuple[Element, ...]:
    """Elements between the two outer couplers: the inner interferometer
    with its leg checkpoints, Bob's blocker slot and the discard."""
    to_charlie, to_bob, from_bob, to_alice = _LEG_CHECKPOINTS
    blocked = (_BOB_BLOCKER,) if bit == 0 else ()
    return (to_charlie, inner, to_bob, *blocked, from_bob, inner, to_alice, _DISCARD)


_INNER_SECTIONS = {bit: _inner_section(_INNER_COUPLER, bit) for bit in (0, 1)}

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
    """
    bit = _validate_bit(bit)
    inner = config.inner_angle
    if inner == _INNER_COUPLER.theta:
        section = _INNER_SECTIONS[bit]
    else:
        section = _inner_section(BeamSplitter(1, 2, inner), bit)
    return Network(
        3, (BeamSplitter(0, 1, config.theta1), *section, BeamSplitter(0, 1, config.theta2))
    )


def run_protocol(config: NestedConfig, bit: int) -> ProtocolOutcome:
    """Propagate a single excitation and collect detector/leg statistics."""
    network = build_nested_network(config, bit)
    final, checkpoints = propagate(network, _SINGLE_PHOTON)
    # The layout's only checkpoints are its legs, in LEG_NAMES order (rows 0-3).
    snaps = checkpoints.matrix
    legs = {name: snaps.item(row, _LEG_MODE[name]) for row, name in enumerate(LEG_NAMES)}
    absorbed = {
        "bob": final.absorbed.get("bob", 0.0),
        "discard": final.absorbed.get("discard", 0.0),
    }
    return ProtocolOutcome(
        p_d1=abs(final.amplitudes.item(0)) ** 2,
        p_d2=abs(final.amplitudes.item(1)) ** 2,
        absorbed=absorbed,
        legs=legs,
    )


def _detector_probabilities(config: NestedConfig, bit: int) -> Tuple[float, float]:
    """``run_protocol(config, bit)``'s ``(p_d1, p_d2)``, without its legs and ledger."""
    amps = propagate(build_nested_network(config, bit), _SINGLE_PHOTON)[0].amplitudes
    return abs(amps.item(0)) ** 2, abs(amps.item(1)) ** 2


def counterfactual_witness(outcome: ProtocolOutcome, bit: int) -> Tuple[float, float]:
    """Probabilities on the two emitter-receiver legs of ``outcome``.

    Returns ``(|bob_to_charlie|^2, |charlie_to_alice|^2)``.  The first is
    exactly zero whenever ``bit == 0`` (the blocker empties the arm); the
    second vanishes for ``bit == 1`` with exact 50-50 inner couplers.
    """
    _validate_bit(bit)
    try:
        forward = outcome.legs["bob_to_charlie"]
        backward = outcome.legs["charlie_to_alice"]
    except (KeyError, TypeError) as exc:
        raise MalformedOutcomeError(f"outcome is missing leg amplitudes: {exc}") from None
    return abs(forward) ** 2, abs(backward) ** 2


def run_bright_pulse(config: NestedConfig, bit: int, intensity: float) -> BrightPulseReading:
    """Classical-pulse variant: every photon of a bright input pulse follows
    the same linear evolution, so detector intensities are
    ``intensity * p_dk``.  Decoding is argmax over the two detectors; an
    exact tie is refused rather than silently broken."""
    if not isinstance(intensity, (int, float)) or isinstance(intensity, bool):
        raise DomainError("intensity must be a positive number")
    if not math.isfinite(intensity) or intensity <= 0:
        raise DomainError(f"intensity must be positive and finite, got {intensity!r}")
    p_d1, p_d2 = _detector_probabilities(config, bit)
    i_d1 = intensity * p_d1
    i_d2 = intensity * p_d2
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
# 400,251 elements at b = 0, takes 0.64-0.75 s in a process of 109-113 MB peak
# RSS on an Intel Xeon, so the budget holds one network to about 0.95 s and
# 135 MB.  It is 15 times the 32,101 elements of a 20 x 400 chain.
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
    ``final_angle`` lets the closing outer coupler differ from the others;
    with one cycle each, ``outer_angle = theta1``, ``final_angle = theta2``
    and ``inner_angle = pi/4`` this reduces element-for-element to
    :func:`build_nested_network`.

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
        for name, value in (("outer_cycles", self.outer_cycles), ("inner_cycles", self.inner_cycles)):
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise DomainError(f"{name} must be a positive integer, got {value!r}")
        elements = _chain_element_count(self.outer_cycles, self.inner_cycles, 0)
        if elements > MAX_CHAIN_ELEMENTS:
            raise DomainError(
                f"a {self.outer_cycles} x {self.inner_cycles} chain needs {elements} "
                f"elements per network, above the budget of {MAX_CHAIN_ELEMENTS}"
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


class _ChainCheckpoints(NamedTuple):
    """The checkpoints of one pair of cycle counts, by leg family:
    ``to_charlie[k]`` and ``to_alice[k]`` per outer cycle, ``to_bob[k][j]``
    and ``from_bob[k][j]`` per inner cycle."""

    to_charlie: List[Checkpoint]
    to_bob: List[List[Checkpoint]]
    from_bob: List[List[Checkpoint]]
    to_alice: List[Checkpoint]


# Checkpoint names depend only on the cycle counts, so the two bit runs of a
# chain share one set: the first build makes it and leaves it here, the next
# build of the same cycle counts takes it out.  At most one set waits here,
# and none once its pair is built.
_spare_checkpoints: Dict[Tuple[int, int], _ChainCheckpoints] = {}


def _chain_checkpoints(outer_cycles: int, inner_cycles: int) -> _ChainCheckpoints:
    key = (outer_cycles, inner_cycles)
    marks = _spare_checkpoints.pop(key, None)
    if marks is not None:
        return marks
    _spare_checkpoints.clear()
    outer = range(1, outer_cycles + 1)
    steps = [[f"[{k}.{j}]" for j in range(1, inner_cycles + 1)] for k in outer]
    marks = _spare_checkpoints[key] = _ChainCheckpoints(
        [Checkpoint(f"alice_to_charlie[{k}]") for k in outer],
        [[Checkpoint("charlie_to_bob" + step) for step in row] for row in steps],
        [[Checkpoint("bob_to_charlie" + step) for step in row] for row in steps],
        [Checkpoint(f"charlie_to_alice[{k}]") for k in outer],
    )
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
    outer_cycles, inner_cycles = chain.outer_cycles, chain.inner_cycles
    marks = _chain_checkpoints(outer_cycles, inner_cycles)
    # Elements are frozen, so one instance of each coupler, the blocker and
    # the discard serves every cycle; each element family fills its
    # positions, which repeat with a fixed stride, by one slice assignment.
    outer = BeamSplitter(0, 1, chain.outer_angle)
    inner = BeamSplitter(1, 2, chain.inner_angle)
    per_inner = 4 if bit == 0 else 3
    block = 5 + per_inner * inner_cycles
    span = outer_cycles * block
    elements = [None] * (span + 1)
    elements[0:span:block] = [outer] * outer_cycles
    elements[1:span:block] = marks.to_charlie
    elements[block - 3:span:block] = [inner] * outer_cycles
    elements[block - 2:span:block] = marks.to_alice
    elements[block - 1:span:block] = [_DISCARD] * outer_cycles
    inner_run = [inner] * inner_cycles
    blockers = [_BOB_BLOCKER] * inner_cycles
    for k in range(outer_cycles):
        first = k * block + 2
        stop = first + per_inner * inner_cycles
        elements[first:stop:per_inner] = inner_run
        elements[first + 1:stop:per_inner] = marks.to_bob[k]
        if bit == 0:
            elements[first + 2:stop:per_inner] = blockers
        elements[first + per_inner - 1:stop:per_inner] = marks.from_bob[k]
    elements[span] = BeamSplitter(0, 1, chain.final_angle)
    return Network(3, tuple(elements))


def run_chain(chain: ChainConfig, bit: int) -> ChainOutcome:
    """Propagate one excitation through the chained network.

    ``leg_peaks`` holds, per leg family, the maximum probability seen over
    all same-named checkpoints; the counterfactual statements then read
    ``leg_peaks["bob_to_charlie"] == 0`` for ``bit == 0`` and
    ``leg_peaks["charlie_to_alice"] ~ 0`` for ``bit == 1`` at default angles.
    """
    network = build_chain_network(chain, bit)
    final, checkpoints = propagate(network, _SINGLE_PHOTON)
    # The snapshot matrix has one row per checkpoint in plan order: per
    # outer cycle, alice_to_charlie, then charlie_to_bob and bob_to_charlie
    # per inner cycle, then charlie_to_alice.
    rows = checkpoints.matrix.reshape(chain.outer_cycles, 2 * chain.inner_cycles + 2, 3)
    columns = {
        "alice_to_charlie": rows[:, 0, _LEG_MODE["alice_to_charlie"]],
        "charlie_to_bob": rows[:, 1:-1:2, _LEG_MODE["charlie_to_bob"]],
        "bob_to_charlie": rows[:, 2:-1:2, _LEG_MODE["bob_to_charlie"]],
        "charlie_to_alice": rows[:, -1, _LEG_MODE["charlie_to_alice"]],
    }
    # Largest abs(z) ** 2 bit for bit as Python computes it: np.hypot calls
    # the C library hypot as complex abs does (np.abs may differ in the last
    # bit), and squaring is monotone, so each largest modulus is squared once.
    peaks = {leg: float(np.hypot(z.real, z.imag).max()) ** 2 for leg, z in columns.items()}
    absorbed = {
        "bob": final.absorbed.get("bob", 0.0),
        "discard": final.absorbed.get("discard", 0.0),
    }
    return ChainOutcome(
        bit=bit,
        p_d1=abs(final.amplitudes.item(0)) ** 2,
        p_d2=abs(final.amplitudes.item(1)) ** 2,
        absorbed=absorbed,
        leg_peaks=peaks,
    )
