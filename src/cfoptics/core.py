"""Single-excitation amplitude propagation through linear-optical networks.

A network is an ordered list of elements acting on a fixed number of optical
modes.  Lossless two-mode beam splitters rotate amplitude pairs, perfectly
absorbing blockers move modal probability into a per-label ledger, discards
do the same for modes that never reach a detector, and checkpoints record
amplitude snapshots without any physical effect.  For every normalized input
the sum of modal probabilities and ledger entries stays 1 up to rounding.

Beam-splitter convention: a coupler of angle ``theta`` on modes ``(a, b)``
applies the unitary ``[[cos t, i sin t], [i sin t, cos t]]`` to the pair
``(amp_a, amp_b)``.  A 50-50 splitter is ``theta = pi/4``.  Angles are
radians everywhere.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from . import kernel
from .kernel import OP_ABSORB, OP_SNAPSHOT, OP_SPLIT
from .errors import InvalidNetworkError

__all__ = [
    "BeamSplitter",
    "Blocker",
    "Checkpoint",
    "Discard",
    "Element",
    "ModeState",
    "Network",
    "apply_beam_splitter",
    "apply_blocker",
    "propagate",
    "total_probability",
]


@dataclass(frozen=True)
class BeamSplitter:
    """Lossless two-mode coupler of angle ``theta`` on modes (mode_a, mode_b)."""

    mode_a: int
    mode_b: int
    theta: float


@dataclass(frozen=True)
class Blocker:
    """Perfect absorber on one mode; absorbed probability is booked under ``label``."""

    mode: int
    label: str


@dataclass(frozen=True)
class Discard:
    """Same mechanics as :class:`Blocker`, reserved for modes that simply
    never reach a detector (kept distinct so ledgers stay interpretable)."""

    mode: int
    label: str


@dataclass(frozen=True)
class Checkpoint:
    """Records a snapshot of all amplitudes at its position; no physical effect."""

    name: str


Element = Union[BeamSplitter, Blocker, Discard, Checkpoint]


class ModeState:
    """Complex amplitudes over the optical modes plus an absorption ledger.

    Parameters
    ----------
    amplitudes : sequence of complex
        One finite amplitude per mode; copied into a complex128 vector.
    absorbed : mapping str -> float, optional
        Probability already absorbed, keyed by absorber label.
    """

    __slots__ = ("amplitudes", "absorbed")

    def __init__(self, amplitudes, absorbed=None):
        try:
            amps = np.array(amplitudes, dtype=np.complex128)
        except (TypeError, ValueError):
            raise InvalidNetworkError("amplitudes must be complex numbers") from None
        if amps.ndim != 1 or amps.size == 0:
            raise InvalidNetworkError("amplitudes must be a non-empty vector")
        ledger = dict(absorbed) if absorbed else {}
        _check_contents(amps.tolist(), ledger)
        self.amplitudes = amps
        self.absorbed = ledger

    @classmethod
    def _adopt(cls, amps: np.ndarray, ledger: Dict[str, float]) -> "ModeState":
        """State over a complex128 vector and a ledger that the caller owns
        and hands over uncopied; the constructor's value checks still run."""
        _check_contents(amps.tolist(), ledger)
        state = cls.__new__(cls)
        state.amplitudes = amps
        state.absorbed = ledger
        return state

    @classmethod
    def single_photon(cls, mode_count: int, mode: int = 0) -> "ModeState":
        """Unit amplitude in one mode, vacuum elsewhere, empty ledger."""
        if mode_count < 1 or not 0 <= mode < mode_count:
            raise InvalidNetworkError("mode index out of range")
        amps = np.zeros(mode_count, dtype=np.complex128)
        amps[mode] = 1.0
        return cls(amps)

    @property
    def mode_count(self) -> int:
        return int(self.amplitudes.size)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"ModeState(amplitudes={self.amplitudes!r}, absorbed={self.absorbed!r})"


def _check_contents(amplitudes, ledger):
    """Reject non-finite amplitudes (Python complex) and ledger entries that
    are not finite non-negative probabilities keyed by strings."""
    if not all(map(cmath.isfinite, amplitudes)):
        raise InvalidNetworkError("amplitudes must be finite")
    for label, value in ledger.items():
        if not isinstance(label, str):
            raise InvalidNetworkError("absorber labels must be strings")
        if not _is_finite(value) or value < 0.0:
            raise InvalidNetworkError(
                f"absorbed[{label!r}] must be a finite non-negative probability"
            )


def _is_finite(value):
    """``math.isfinite`` that answers False for non-numbers instead of raising."""
    try:
        return math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def _check_mode(index, mode_count, what):
    if not isinstance(index, int) or isinstance(index, bool):
        raise InvalidNetworkError(f"{what} must be an integer mode index")
    if not 0 <= index < mode_count:
        raise InvalidNetworkError(
            f"{what} {index} out of range for {mode_count} modes"
        )


_ELEMENT_TYPES = (BeamSplitter, Blocker, Discard, Checkpoint)


def _element_base(element):
    """Element class whose rules apply to an instance of a subclass: the
    first of ``_ELEMENT_TYPES`` it is an instance of, or None.  Callers test
    the exact type first, the common case."""
    for base in _ELEMENT_TYPES:
        if isinstance(element, base):
            return base
    return None


def _validate_element(element, mode_count, seen_checkpoints):
    kind = type(element)
    if kind not in _ELEMENT_TYPES:
        kind = _element_base(element)
    if kind is BeamSplitter:
        mode_a, mode_b = element.mode_a, element.mode_b
        if type(mode_a) is not int or not 0 <= mode_a < mode_count:
            _check_mode(mode_a, mode_count, "beam-splitter mode_a")
        if type(mode_b) is not int or not 0 <= mode_b < mode_count:
            _check_mode(mode_b, mode_count, "beam-splitter mode_b")
        if mode_a == mode_b:
            raise InvalidNetworkError("beam splitter needs two distinct modes")
        if not _is_finite(element.theta):
            raise InvalidNetworkError("beam-splitter angle must be a finite real number")
    elif kind is Checkpoint:
        name = element.name
        if not isinstance(name, str) or not name:
            raise InvalidNetworkError("checkpoint name must be a non-empty string")
        if name in seen_checkpoints:
            raise InvalidNetworkError(f"duplicate checkpoint name {name!r}")
        seen_checkpoints.add(name)
    elif kind is not None:
        mode = element.mode
        if type(mode) is not int or not 0 <= mode < mode_count:
            _check_mode(mode, mode_count, "absorber mode")
        if not isinstance(element.label, str) or not element.label:
            raise InvalidNetworkError("absorber label must be a non-empty string")
    else:
        raise InvalidNetworkError(f"unknown element type {type(element).__name__}")


@dataclass(frozen=True)
class Network:
    """Ordered element list over a fixed mode count, validated on construction."""

    mode_count: int
    elements: Tuple[Element, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not isinstance(self.mode_count, int) or isinstance(self.mode_count, bool):
            raise InvalidNetworkError("mode_count must be an integer")
        if self.mode_count < 1:
            raise InvalidNetworkError("mode_count must be positive")
        object.__setattr__(self, "elements", tuple(self.elements))
        seen = set()
        for element in self.elements:
            _validate_element(element, self.mode_count, seen)


class _Plan(NamedTuple):
    """Element plan consumed by the propagation kernel.

    ``ops``, ``arg_a``, ``arg_b`` and ``coeff`` are parallel lists, one
    entry per element.  ``coeff`` holds each coupler's kernel coefficients
    ``(cos theta, 1j * sin theta)`` and None for every other element;
    consecutive uses of one coupler object share one pair.  Snapshot rows
    are numbered in plan order.
    """

    ops: List[int]
    arg_a: List[int]
    arg_b: List[int]
    coeff: List[Optional[Tuple[float, complex]]]
    ledger_labels: Tuple[str, ...]
    checkpoint_names: Tuple[str, ...]


def compile_network(network: Network) -> _Plan:
    """Lower a validated network to the kernel's plan in one pass.

    A coupler's coefficients are computed once per run of the same coupler
    object: a chain repeats one instance between its checkpoints, so a
    one-entry identity memo spares the cos/sin of every repeat.
    """
    slots: Dict[str, int] = {}
    checkpoint_names = []
    ops, arg_a, arg_b, coeff = [], [], [], []
    last_split = pair = None
    for element in network.elements:
        kind = type(element)
        if kind not in _ELEMENT_TYPES:
            kind = _element_base(element)
        if kind is Checkpoint:
            op, a, b, k = OP_SNAPSHOT, len(checkpoint_names), 0, None
            checkpoint_names.append(element.name)
        elif kind is BeamSplitter:
            if element is not last_split:
                last_split = element
                pair = (math.cos(element.theta), 1j * math.sin(element.theta))
            op, a, b, k = OP_SPLIT, element.mode_a, element.mode_b, pair
        else:
            op, a, b, k = OP_ABSORB, element.mode, slots.setdefault(element.label, len(slots)), None
        ops.append(op)
        arg_a.append(a)
        arg_b.append(b)
        coeff.append(k)
    return _Plan(ops, arg_a, arg_b, coeff, tuple(slots), tuple(checkpoint_names))


def apply_beam_splitter(state: ModeState, mode_a: int, mode_b: int, theta: float) -> ModeState:
    """Couple two modes with angle ``theta``; pure, returns a fresh state.

    The pair transform is ``(c*za + i*s*zb, i*s*za + c*zb)`` with
    ``c = cos(theta)``, ``s = sin(theta)``; unitary for every angle.
    """
    n = state.mode_count
    _check_mode(mode_a, n, "mode_a")
    _check_mode(mode_b, n, "mode_b")
    if mode_a == mode_b:
        raise InvalidNetworkError("beam splitter needs two distinct modes")
    if not _is_finite(theta):
        raise InvalidNetworkError("beam-splitter angle must be a finite real number")
    c = math.cos(theta)
    s = math.sin(theta)
    amps = state.amplitudes.copy()
    za = complex(amps[mode_a])
    zb = complex(amps[mode_b])
    amps[mode_a] = c * za + 1j * s * zb
    amps[mode_b] = 1j * s * za + c * zb
    return ModeState(amps, state.absorbed)


def apply_blocker(state: ModeState, mode: int, label: str) -> ModeState:
    """Absorb one mode completely, booking its probability under ``label``."""
    _check_mode(mode, state.mode_count, "mode")
    amps = state.amplitudes.copy()
    za = complex(amps[mode])
    amps[mode] = 0j
    ledger = dict(state.absorbed)
    ledger[label] = ledger.get(label, 0.0) + (za.real * za.real + za.imag * za.imag)
    return ModeState(amps, ledger)


def propagate(network: Network, state: ModeState):
    """Apply all elements in order.

    Returns
    -------
    (final, checkpoints)
        ``final`` is the output :class:`ModeState` (input ledger carried
        over and extended); ``checkpoints`` maps each checkpoint name, in
        plan order, to the full amplitude vector at its position: a row of
        one snapshot matrix owned by this call alone, which is the
        ``base`` of every row.
    """
    if state.mode_count != network.mode_count:
        raise InvalidNetworkError(
            f"state has {state.mode_count} modes, network expects {network.mode_count}"
        )
    plan = compile_network(network)
    amps = state.amplitudes.copy()
    absorbed = np.zeros(len(plan.ledger_labels), dtype=np.float64)
    snaps = np.zeros((len(plan.checkpoint_names), network.mode_count), dtype=np.complex128)
    kernel.run_plan(plan.ops, plan.arg_a, plan.arg_b, plan.coeff, amps, absorbed, snaps)
    ledger = dict(state.absorbed)
    for label, value in zip(plan.ledger_labels, absorbed.tolist()):
        ledger[label] = ledger.get(label, 0.0) + value
    checkpoints = dict(zip(plan.checkpoint_names, snaps))
    return ModeState._adopt(amps, ledger), checkpoints


def total_probability(state: ModeState) -> float:
    """Modal probability plus everything already absorbed; 1 for any state
    propagated from a normalized input."""
    modal = float(np.sum(np.abs(state.amplitudes) ** 2))
    return modal + float(sum(state.absorbed.values()))
