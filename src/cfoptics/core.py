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
import numbers
from collections.abc import Mapping
from dataclasses import InitVar, dataclass, field
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
    "MAX_MODES",
    "ModeState",
    "Network",
    "Snapshots",
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

# Largest mode count of a state or a network: a state vector of this many
# modes takes 16 MB.  A larger count is refused before it sizes an allocation.
MAX_MODES = 1 << 20


class ModeState:
    """Complex amplitudes over the optical modes plus an absorption ledger.

    Parameters
    ----------
    amplitudes : sequence of complex
        One finite amplitude per mode, each a ``numbers.Complex`` but no
        ``bool`` (or an integer, float or complex ndarray); copied into a
        complex128 vector.
    absorbed : mapping str -> float, optional
        Probability already absorbed, keyed by absorber label; anything
        ``dict`` takes, such as a sequence of pairs.
    """

    __slots__ = ("amplitudes", "absorbed")

    def __init__(self, amplitudes, absorbed=None):
        try:
            amps = np.array(amplitudes, dtype=np.complex128)
        except OverflowError:  # an int too large for a float is not finite
            raise InvalidNetworkError("amplitudes must be finite") from None
        except (TypeError, ValueError):
            raise InvalidNetworkError("amplitudes must be complex numbers") from None
        if amps.ndim != 1 or not 0 < amps.size <= MAX_MODES:
            raise InvalidNetworkError(f"amplitudes must be a vector of 1 to {MAX_MODES} modes")
        numeric = isinstance(amplitudes, np.ndarray) and amplitudes.dtype.kind in "iufc"
        if not numeric and not all(isinstance(z, numbers.Complex) and not isinstance(z, bool)
                                   for z in amplitudes):
            raise InvalidNetworkError("amplitudes must be complex numbers")
        try:
            ledger = dict(absorbed) if absorbed else {}
        except (TypeError, ValueError):
            raise InvalidNetworkError(
                "absorbed must map absorber labels to probabilities") from None
        _check_contents(amps.tolist(), ledger)
        self.amplitudes = amps
        self.absorbed = ledger

    @classmethod
    def single_photon(cls, mode_count: int, mode: int = 0) -> "ModeState":
        """Unit amplitude in one mode, vacuum elsewhere, empty ledger."""
        count, index = _integer(mode_count), _integer(mode)
        if count is None or index is None or not 0 <= index < count <= MAX_MODES:
            raise InvalidNetworkError(f"mode index out of range, or mode count above {MAX_MODES}")
        amps = np.zeros(count, dtype=np.complex128)
        amps[index] = 1.0
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
        if (number := _finite_real(value)) is None or number < 0.0:
            raise InvalidNetworkError(
                f"absorbed[{label!r}] must be a finite non-negative probability"
            )
        ledger[label] = number


def _finite_real(value) -> Optional[float]:
    """``value`` as a Python float if it is a finite ``numbers.Real`` but no
    ``bool`` (text, bytes and ``numpy.bool_`` are none), else None."""
    if type(value) is not float:
        if not isinstance(value, numbers.Real) or isinstance(value, bool):
            return None
        try:
            value = float(value)
        except OverflowError:  # an int too large for a float is not finite
            return None
    return value if math.isfinite(value) else None


def _integer(value) -> Optional[int]:
    """``value`` as a Python int if it is a ``numbers.Integral`` but no ``bool``, else None."""
    if type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    return None


def _decimal(number: int) -> str:
    """``number`` in decimal for a message, or its bit length where ``str``
    refuses that many digits (over 4,300 by default)."""
    try:
        return str(number)
    except ValueError:
        return f"<{number.bit_length()}-bit integer>"


def _check_mode(index, mode_count, what) -> int:
    if (mode := _integer(index)) is None:
        raise InvalidNetworkError(f"{what} must be an integer mode index")
    if not 0 <= mode < mode_count:
        raise InvalidNetworkError(
            f"{what} {_decimal(mode)} out of range for {mode_count} modes"
        )
    return mode


_ELEMENT_TYPES = (BeamSplitter, Blocker, Discard, Checkpoint)


def _element_base(element):
    """First of ``_ELEMENT_TYPES`` that a subclass instance is an instance
    of, whose rules then apply to it; None for any other object."""
    for base in _ELEMENT_TYPES:
        if isinstance(element, base):
            return base
    return None


def _lower_element(element, kind, mode_count, slots):
    """Validate a coupler or absorber by the rules of ``kind``; return its plan
    entry ``(op, a, b, coeff)``, giving a new absorber label its slot."""
    if kind is BeamSplitter:
        mode_a, mode_b = element.mode_a, element.mode_b
        if type(mode_a) is not int or not 0 <= mode_a < mode_count:
            mode_a = _check_mode(mode_a, mode_count, "beam-splitter mode_a")
        if type(mode_b) is not int or not 0 <= mode_b < mode_count:
            mode_b = _check_mode(mode_b, mode_count, "beam-splitter mode_b")
        if mode_a == mode_b:
            raise InvalidNetworkError("beam splitter needs two distinct modes")
        if (theta := _finite_real(element.theta)) is None:
            raise InvalidNetworkError("beam-splitter angle must be a finite real number")
        return OP_SPLIT, mode_a, mode_b, (math.cos(theta), 1j * math.sin(theta))
    if kind is None:
        raise InvalidNetworkError(f"unknown element type {type(element).__name__}")
    mode, label = element.mode, element.label
    if type(mode) is not int or not 0 <= mode < mode_count:
        mode = _check_mode(mode, mode_count, "absorber mode")
    if not isinstance(label, str) or not label:
        raise InvalidNetworkError("absorber label must be a non-empty string")
    return OP_ABSORB, mode, slots.setdefault(label, len(slots)), None


class _Plan(NamedTuple):
    """Element plan consumed by the propagation kernel.

    ``ops``, ``arg_a``, ``arg_b`` and ``coeff`` are parallel lists, one
    entry per element.  ``coeff`` holds each coupler's kernel coefficients
    ``(cos theta, 1j * sin theta)`` and None for every other element; the
    uses of one coupler object share one pair.  Ledger slots and snapshot
    rows (``checkpoint_rows``: name -> row) are numbered in plan order.  A
    plan is read-only, so networks may share its lists.
    """

    ops: List[int]
    arg_a: List[int]
    arg_b: List[int]
    coeff: List[Optional[Tuple[float, complex]]]
    ledger_labels: Tuple[str, ...]
    checkpoint_rows: Dict[str, int]


@dataclass(frozen=True)
class Network:
    """Ordered element list over a fixed mode count, validated in order and
    lowered to the kernel's plan in one pass on construction.  Each
    checkpoint takes the next snapshot row; any other exact-type element is
    handled once per object (a chain repeats a few couplers, blockers and
    discards over thousands of positions), a subclass instance everywhere.

    ``_lowered`` (keyword only, not a field) takes a plan already lowered
    from these elements by the same rules, as a nested protocol build
    splices its outer couplers into a shared plan; None, the default,
    lowers the elements here.  ``dataclasses.replace`` does not carry it
    over, so a replaced network is lowered again.
    """

    mode_count: int
    elements: Tuple[Element, ...] = field(default_factory=tuple)
    _plan: _Plan = field(init=False, repr=False, compare=False)
    _lowered: InitVar[Optional[_Plan]] = field(default=None, kw_only=True)

    def __post_init__(self, _lowered):
        if (mode_count := _integer(self.mode_count)) is None or not 1 <= mode_count <= MAX_MODES:
            raise InvalidNetworkError(f"mode_count must be an integer from 1 to {MAX_MODES}")
        object.__setattr__(self, "mode_count", mode_count)
        elements = self.elements
        if type(elements) is not tuple:
            try:
                iterator = iter(elements)
            except TypeError:
                raise InvalidNetworkError("elements must be an iterable of elements") from None
            elements = tuple(iterator)
            object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "_plan", _lowered or _lower(elements, mode_count))


def _lower(elements, mode_count):
    """Validate ``elements`` in order and lower them to a plan."""
    slots, rows, lowered = {}, {}, {}  # label -> slot, name -> row, id -> entry
    ops, arg_a, arg_b, coeff = [], [], [], []
    for element in elements:
        kind = type(element)
        if kind is not Checkpoint and kind not in _ELEMENT_TYPES:
            kind = _element_base(element)
        if kind is Checkpoint:
            name = element.name
            if not isinstance(name, str) or not name:
                raise InvalidNetworkError("checkpoint name must be a non-empty string")
            if name in rows:
                raise InvalidNetworkError(f"duplicate checkpoint name {name!r}")
            rows[name] = row = len(rows)
            ops.append(OP_SNAPSHOT)
            arg_a.append(row)
            arg_b.append(0)
            coeff.append(None)
            continue
        entry = lowered.get(id(element))
        if entry is None:
            entry = _lower_element(element, kind, mode_count, slots)
            if kind is type(element):
                lowered[id(element)] = entry
        op, a, b, k = entry
        ops.append(op)
        arg_a.append(a)
        arg_b.append(b)
        coeff.append(k)
    return _Plan(ops, arg_a, arg_b, coeff, tuple(slots), rows)


def compile_network(network: Network) -> _Plan:
    """The kernel plan of ``network``, lowered when the network was built."""
    return network._plan


class Snapshots(Mapping):
    """Read-only mapping from checkpoint name, in plan order, to its amplitude
    vector: a row of ``matrix``, one propagation's snapshot matrix."""

    __slots__ = ("_rows", "matrix")

    def __init__(self, rows: Dict[str, int], matrix: np.ndarray):
        self._rows = rows
        self.matrix = matrix

    def __getitem__(self, name):
        return self.matrix[self._rows[name]]

    def __iter__(self):
        return iter(self._rows)

    def __len__(self):
        return len(self._rows)


def apply_beam_splitter(state: ModeState, mode_a: int, mode_b: int, theta: float) -> ModeState:
    """Couple two modes with angle ``theta``; pure, returns a fresh state.

    The pair transform is ``(c*za + i*s*zb, i*s*za + c*zb)`` with
    ``c = cos(theta)``, ``s = sin(theta)``; unitary for every angle.  The
    state is propagated through a one-coupler :class:`Network`, so the
    checks, messages and arithmetic are the network's.
    """
    return propagate(Network(state.mode_count, (BeamSplitter(mode_a, mode_b, theta),)), state)[0]


def apply_blocker(state: ModeState, mode: int, label: str) -> ModeState:
    """Absorb one mode completely, booking its probability under ``label``;
    a one-absorber :class:`Network` propagated from ``state``."""
    return propagate(Network(state.mode_count, (Blocker(mode, label),)), state)[0]


def propagate(network: Network, state: ModeState):
    """Apply all elements in order: run the plan lowered at construction.

    Returns
    -------
    (final, checkpoints)
        ``final`` is the output :class:`ModeState` (input ledger carried
        over and extended); ``checkpoints`` is a read-only
        :class:`Snapshots` mapping each checkpoint name, in plan order, to
        the full amplitude vector at its position.  Its ``matrix`` holds
        one row per checkpoint, owned by this call alone, and every value
        is a row of it.
    """
    amps = state.amplitudes.tolist()
    mode_count = network.mode_count
    if len(amps) != mode_count:
        raise InvalidNetworkError(f"state has {len(amps)} modes, network expects {mode_count}")
    plan = compile_network(network)
    absorbed = [0.0] * len(plan.ledger_labels)
    snaps = np.zeros((len(plan.checkpoint_rows), mode_count), dtype=np.complex128)
    kernel.run_plan(plan.ops, plan.arg_a, plan.arg_b, plan.coeff, amps, absorbed, snaps)
    ledger = dict(state.absorbed)
    for label, value in zip(plan.ledger_labels, absorbed):
        ledger[label] = ledger.get(label, 0.0) + value
    # The plan's labels are strings and each value a sum of squares, never
    # negative, so with no input ledger finite lists pass a constructed
    # state's checks; otherwise those checks raise their first error.
    if state.absorbed or not (all(map(cmath.isfinite, amps)) and all(map(math.isfinite, absorbed))):
        _check_contents(amps, ledger)
    final = ModeState.__new__(ModeState)
    final.amplitudes = np.array(amps, dtype=np.complex128)
    final.absorbed = ledger
    return final, Snapshots(plan.checkpoint_rows, snaps)


def total_probability(state: ModeState) -> float:
    """Modal probability plus everything already absorbed; 1 for any state
    propagated from a normalized input."""
    modal = float(np.sum(np.abs(state.amplitudes) ** 2))
    return modal + float(sum(state.absorbed.values()))
