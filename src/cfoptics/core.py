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
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

from . import kernel
from .kernel import OP_ABSORB, OP_SNAPSHOT, OP_SPLIT
from .errors import InvalidNetworkError

if TYPE_CHECKING:  # numpy is imported where an array is built
    import numpy

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


class _Record:
    """A read-only value of the fields that ``__match_args__`` names, in order.

    Two records of one class are equal, and hash alike, when their fields
    are; a record shows as ``Type(field=value, ...)``; assigning or deleting
    any attribute raises AttributeError.  A record type's ``__init__``
    writes its checked fields into ``vars(self)``, and pickling and copying
    carry that dict as they do for any class.
    """

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _BuiltOnRead:
    """An attribute that ``build(instance)`` makes on its first read, stored
    on the instance under ``name``, which shadows this non-data descriptor:
    ``Network.elements`` given ``_build``, a chain's row index
    (``protocols``), and a channel's ``p_given_b`` and row entropies
    (``analysis.ChannelModel``)."""

    def __init__(self, name: str, build: Callable):
        self.name = name
        self.build = build

    def __get__(self, instance, owner=None):
        return self if instance is None else vars(instance).setdefault(self.name, self.build(instance))


class BeamSplitter(_Record):
    """Lossless two-mode coupler of angle ``theta`` on modes (mode_a, mode_b)."""

    __match_args__ = ("mode_a", "mode_b", "theta")

    def __init__(self, mode_a: int, mode_b: int, theta: float):
        attrs = self.__dict__
        attrs["mode_a"], attrs["mode_b"], attrs["theta"] = mode_a, mode_b, theta


class Blocker(_Record):
    """Perfect absorber on one mode; absorbed probability is booked under ``label``."""

    __match_args__ = ("mode", "label")

    def __init__(self, mode: int, label: str):
        attrs = self.__dict__
        attrs["mode"], attrs["label"] = mode, label


class Discard(_Record):
    """Same mechanics as :class:`Blocker`, reserved for modes that simply
    never reach a detector (kept distinct so ledgers stay interpretable)."""

    __match_args__ = ("mode", "label")

    def __init__(self, mode: int, label: str):
        attrs = self.__dict__
        attrs["mode"], attrs["label"] = mode, label


class Checkpoint(_Record):
    """Records a snapshot of all amplitudes at its position; no physical effect."""

    __match_args__ = ("name",)

    def __init__(self, name: str):
        self.__dict__["name"] = name


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
        ``dict`` takes, such as a sequence of pairs.  ``None`` is no ledger.

    A constructed state holds that vector, so constructing one imports
    numpy.  A state that :func:`propagate` returns keeps its amplitudes as
    a list of Python complex; ``amplitudes`` builds their complex128 vector
    (importing numpy) and ``absorbed`` its dict on first read, and keeps
    them.  Once built, the vector is the state's amplitudes: a caller who
    writes into it changes what the next propagation reads.
    """

    __slots__ = ("_values", "_array", "_ledger")

    def __init__(self, amplitudes, absorbed=None):
        import numpy as np

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
            ledger = {} if absorbed is None else dict(absorbed)
        except (TypeError, ValueError):
            raise InvalidNetworkError(
                "absorbed must map absorber labels to probabilities") from None
        _check_contents(amps.tolist(), ledger)
        self._values = None
        self._array = amps
        self._ledger = ledger

    @classmethod
    def single_photon(cls, mode_count: int, mode: int = 0) -> "ModeState":
        """Unit amplitude in one mode, vacuum elsewhere, empty ledger."""
        count, index = _integer(mode_count), _integer(mode)
        if count is None or index is None or not 0 <= index < count <= MAX_MODES:
            raise InvalidNetworkError(f"mode index out of range, or mode count above {MAX_MODES}")
        import numpy as np

        amps = np.zeros(count, dtype=np.complex128)
        amps[index] = 1.0
        return cls(amps)

    @property
    def amplitudes(self) -> numpy.ndarray:
        """The complex128 amplitude vector, built from the list on first read."""
        if self._array is None:
            import numpy as np

            self._array = np.array(self._values, dtype=np.complex128)
        return self._array

    @property
    def absorbed(self) -> Dict[str, float]:
        if type(self._ledger) is tuple:  # a propagation's (labels, values)
            self._ledger = dict(zip(*self._ledger))
        return self._ledger

    @property
    def mode_count(self) -> int:
        return len(self._values if self._array is None else self._array)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"ModeState(amplitudes={self.amplitudes!r}, absorbed={self.absorbed!r})"


def _listed_state(values: List[complex], ledger) -> ModeState:
    """A state holding ``values``, a list of Python complex, and ``ledger``, a
    dict or a ``(labels, values)`` pair, as they are, unchecked: :func:`propagate`'s."""
    state = ModeState.__new__(ModeState)
    state._values = values
    state._array = None
    state._ledger = ledger
    return state


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
    """``number`` in decimal for a message, or its bit length where it has
    over 100 bits (about 30 digits), so no message grows with its input."""
    return str(number) if number.bit_length() <= 100 else f"<{number.bit_length()}-bit integer>"


def _check_mode(index, mode_count, what) -> int:
    if (mode := _integer(index)) is None:
        raise InvalidNetworkError(f"{what} must be an integer mode index")
    if not 0 <= mode < mode_count:
        raise InvalidNetworkError(
            f"{what} {_decimal(mode)} out of range for {mode_count} modes"
        )
    return mode


def _coupler_coeff(theta: float) -> Tuple[complex, complex]:
    """The kernel's coefficient pair ``(complex(cos theta), 1j * sin theta)``
    of a coupler.  The cosine is the complex ``(cos theta, 0.0)`` that a
    float becomes in a complex product, so the kernel's products keep their
    bits and the float's multiply, which returns NotImplemented, is skipped."""
    return complex(math.cos(theta)), 1j * math.sin(theta)


def _lower_element(element, mode_count, slots):
    """Validate a coupler or absorber; return its plan entry ``(op, a, b,
    coeff)``, giving a new absorber label its slot."""
    if isinstance(element, BeamSplitter):
        mode_a = _check_mode(element.mode_a, mode_count, "beam-splitter mode_a")
        mode_b = _check_mode(element.mode_b, mode_count, "beam-splitter mode_b")
        if mode_a == mode_b:
            raise InvalidNetworkError("beam splitter needs two distinct modes")
        if (theta := _finite_real(element.theta)) is None:
            raise InvalidNetworkError("beam-splitter angle must be a finite real number")
        return OP_SPLIT, mode_a, mode_b, _coupler_coeff(theta)
    if not isinstance(element, (Blocker, Discard)):
        raise InvalidNetworkError(f"unknown element type {type(element).__name__}")
    mode = _check_mode(element.mode, mode_count, "absorber mode")
    label = element.label
    if not isinstance(label, str) or not label:
        raise InvalidNetworkError("absorber label must be a non-empty string")
    return OP_ABSORB, mode, slots.setdefault(label, len(slots)), None


class _Plan(NamedTuple):
    """Element plan consumed by the propagation kernel.

    ``ops``, ``arg_a``, ``arg_b`` and ``coeff`` are parallel lists, one
    entry per element.  ``coeff`` holds each coupler's :func:`_coupler_coeff`
    pair ``(complex(cos theta), 1j * sin theta)``, whose complex cosine
    spares the kernel a float-by-complex multiply, and None for every other
    element.  Ledger slots and snapshot rows (``checkpoint_rows``: name ->
    row, the only place rows are numbered) follow plan order; a snapshot
    entry's arguments are 0.  ``checkpoint_rows`` is a read-only mapping,
    which may name its rows on first read.  A plan is read-only, so networks
    may share its lists and its ``checkpoint_rows``.  ``program`` is None in
    a plan that :func:`_lower` makes; a plan tiled from a one-cycle template
    may set it to ``(run, outer_cycles, inner_cycles)``, which the kernel
    runs in place of its loop (:func:`cfoptics.kernel.compile_cycles`).
    """

    ops: List[int]
    arg_a: List[int]
    arg_b: List[int]
    coeff: List[Optional[Tuple[complex, complex]]]
    ledger_labels: Tuple[str, ...]
    checkpoint_rows: Mapping[str, int]
    program: Optional[Tuple[Callable, int, int]] = None


class Network(_Record):
    """Ordered element list over a fixed mode count, validated in order and
    lowered to the kernel's plan in one pass on construction, each position
    read on its own; each checkpoint takes the next snapshot row.  An object
    that is a :class:`Checkpoint` and another element type is a checkpoint.
    Its fields are ``mode_count`` and ``elements``, a tuple; its plan is not
    one.

    A build that has its plan already passes it as ``_lowered`` (keyword
    only) with ``_build``, a picklable callable (no closure) that makes the
    elements on first read, by ``==``, ``hash`` and ``repr`` too; that
    network is stored unchecked, the callable as ``_builder``.  Either
    keyword alone is refused.
    """

    __match_args__ = ("mode_count", "elements")

    def __init__(self, mode_count: int, elements: Iterable[Element] = (), *,
                 _lowered: Optional[_Plan] = None, _build: Optional[Callable] = None):
        attrs = self.__dict__
        if _build is not None:
            if _lowered is None:
                raise TypeError("Network takes _build only with _lowered")
            attrs["mode_count"], attrs["_plan"], attrs["_builder"] = mode_count, _lowered, _build
            return
        if _lowered is not None:
            raise TypeError("Network takes _lowered only with _build")
        if (mode_count := _integer(mode_count)) is None or not 1 <= mode_count <= MAX_MODES:
            raise InvalidNetworkError(f"mode_count must be an integer from 1 to {MAX_MODES}")
        if type(elements) is not tuple:
            try:
                iterator = iter(elements)
            except TypeError:
                raise InvalidNetworkError("elements must be an iterable of elements") from None
            elements = tuple(iterator)
        attrs["mode_count"], attrs["elements"] = mode_count, elements
        attrs["_plan"] = _lower(elements, mode_count)

    elements = _BuiltOnRead("elements", lambda network: network._builder())


def _lower(elements, mode_count):
    """Validate ``elements`` in order and lower each position on its own to a plan."""
    slots, rows = {}, {}  # label -> slot, name -> row
    ops, arg_a, arg_b, coeff = [], [], [], []
    for element in elements:
        if isinstance(element, Checkpoint):
            name = element.name
            if not isinstance(name, str) or not name:
                raise InvalidNetworkError("checkpoint name must be a non-empty string")
            if name in rows:
                raise InvalidNetworkError(f"duplicate checkpoint name {name!r}")
            rows[name] = len(rows)
            ops.append(OP_SNAPSHOT)
            arg_a.append(0)
            arg_b.append(0)
            coeff.append(None)
            continue
        op, a, b, k = _lower_element(element, mode_count, slots)
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
    vector: a row of ``matrix``, one propagation's snapshot matrix.

    The kernel leaves the snapshots in ``flat``, the amplitudes of every
    row in row order as Python complex; ``shape`` is ``(rows, modes)``.
    ``matrix``, a complex128 array of that shape, is built from ``flat`` on
    first read and kept, and every value of the mapping is a row of it.
    """

    __slots__ = ("_rows", "flat", "shape", "_matrix")

    def __init__(self, rows: Mapping[str, int], mode_count: int):
        self._rows = rows
        self.flat = []
        self.shape = (len(rows), mode_count)
        self._matrix = None

    @property
    def matrix(self) -> numpy.ndarray:
        if self._matrix is None:
            import numpy as np

            self._matrix = np.empty(self.shape, dtype=np.complex128)
            self._matrix.reshape(-1)[:] = self.flat
        return self._matrix

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

    The input amplitudes are read from ``state.amplitudes`` when that
    vector has been built, from the state's list otherwise; the input is
    never written.

    Returns
    -------
    (final, checkpoints)
        ``final`` is the output :class:`ModeState` (input ledger carried
        over and extended, in plan order), its amplitudes a list until read
        as an array and, without an input ledger, its ledger a dict once read;
        ``checkpoints`` is a read-only :class:`Snapshots` mapping each
        checkpoint name, in plan order, to the full amplitude vector at its
        position.  Its ``flat`` list and the ``matrix`` built from it on
        first read are owned by this call alone, and every value is a row
        of that matrix.
    """
    array = state._array
    amps = array.tolist() if array is not None else state._values.copy()
    mode_count = network.mode_count
    if len(amps) != mode_count:
        raise InvalidNetworkError(f"state has {len(amps)} modes, network expects {mode_count}")
    ops, arg_a, arg_b, coeff, labels, rows, program = compile_network(network)
    absorbed = [0.0] * len(labels)
    snaps = Snapshots(rows, mode_count)
    kernel.run_plan(ops, arg_a, arg_b, coeff, amps, absorbed, snaps, program)
    if state.absorbed:
        ledger = dict(state.absorbed)
        for label, value in zip(labels, absorbed):
            ledger[label] = ledger.get(label, 0.0) + value
        _check_contents(amps, ledger)
        return _listed_state(amps, ledger), snaps
    # The plan's labels are strings and each value a sum of squares, never
    # negative, so finite lists (a finite sum has finite terms) pass a constructed
    # state's checks; otherwise, or where a sum overflows, those checks decide.
    if not (cmath.isfinite(sum(amps)) and math.isfinite(sum(absorbed))):
        _check_contents(amps, dict(zip(labels, absorbed)))
    return _listed_state(amps, (labels, absorbed)), snaps


def total_probability(state: ModeState) -> float:
    """Modal probability plus everything already absorbed; 1 for any state
    propagated from a normalized input."""
    import numpy as np

    modal = float(np.sum(np.abs(state.amplitudes) ** 2))
    return modal + float(sum(state.absorbed.values()))
