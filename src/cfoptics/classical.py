"""Classical three-party relays that deliver a bit with no end-to-end carrier.

Two protocols, both deterministic lock-step state machines over the parties
Alice (receiver), Charlie (middleman) and Bob (emitter):

* the billiard relay: Alice hands a red and a blue ball to Charlie, Charlie
  forwards the blue one to Bob, Bob returns it only for b = 1, and Charlie
  returns the red ball to Alice only when the blue one did not come back;

* the pulse-flip relay: Bob encodes bits as full/empty light pulses toward
  Charlie, Charlie flips every bit before re-encoding toward Alice, and
  Alice decodes full as 0 and empty as 1.

Every message slot is logged, including empty ones; an empty slot is a
first-class, auditable event, not an absent message.  The audit then checks
that no single bit had a physical carrier on both the emitter-to-middleman
and middleman-to-receiver legs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Sequence, Tuple

from .errors import AuditError, DomainError
from .core import _integer
from .protocols import LEG_NAMES, _validate_bit

__all__ = [
    "Token",
    "PulseSymbol",
    "LegRecord",
    "CarrierLog",
    "BilliardRun",
    "PulseRelayRun",
    "run_billiard",
    "decode_billiard",
    "run_pulse_relay",
    "carrier_span_audit",
]

OBSERVATION_RED_BALL = "red_ball"
OBSERVATION_NOTHING = "nothing"


class Token(str, Enum):
    RED_BALL = "red_ball"
    BLUE_BALL = "blue_ball"


class PulseSymbol(str, Enum):
    FULL = "full"
    EMPTY = "empty"


@dataclass(frozen=True)
class LegRecord:
    """One message slot: which leg, whether a carrier was present, and what
    (if anything) it carried."""

    bit_index: int
    leg: str
    carrier_present: bool
    payload: Tuple[str, ...] = ()


@dataclass
class CarrierLog:
    """Ordered per-slot records of carrier presence on inter-party legs."""

    records: List[LegRecord] = field(default_factory=list)

    def add(self, bit_index: int, leg: str, carrier_present: bool, payload=()) -> None:
        self.records.append(
            LegRecord(bit_index, leg, bool(carrier_present), tuple(payload))
        )


@dataclass(frozen=True)
class BilliardRun:
    observation: str  # "red_ball" or "nothing"
    log: CarrierLog
    holdings: Dict[str, Tuple[str, ...]]  # party -> token kinds held at the end


@dataclass(frozen=True)
class PulseRelayRun:
    decoded: Tuple[int, ...]
    log: CarrierLog


def run_billiard(bit: int) -> BilliardRun:
    """One billiard-relay round transmitting ``bit``.

    Alice ends up observing the red ball exactly when ``bit == 0`` and
    nothing when ``bit == 1``.  The topology has no Bob-to-Alice leg at
    all, and neither ball ever traverses both charlie_to_bob and
    charlie_to_alice.
    """
    bit = _validate_bit(bit)
    held: Dict[str, set] = {
        "alice": {Token.RED_BALL, Token.BLUE_BALL},
        "charlie": set(),
        "bob": set(),
    }
    log = CarrierLog()

    def send(sender: str, receiver: str, leg: str, tokens: Sequence[Token]) -> None:
        for token in tokens:
            held[sender].remove(token)
            held[receiver].add(token)
        log.add(0, leg, bool(tokens), tuple(t.value for t in tokens))

    send("alice", "charlie", "alice_to_charlie", (Token.RED_BALL, Token.BLUE_BALL))
    send("charlie", "bob", "charlie_to_bob", (Token.BLUE_BALL,))
    if bit == 1:
        send("bob", "charlie", "bob_to_charlie", (Token.BLUE_BALL,))
    else:
        send("bob", "charlie", "bob_to_charlie", ())  # Bob keeps the blue ball
    blue_returned = Token.BLUE_BALL in held["charlie"]
    if not blue_returned:
        send("charlie", "alice", "charlie_to_alice", (Token.RED_BALL,))
    else:
        send("charlie", "alice", "charlie_to_alice", ())  # Charlie keeps the red ball

    observation = (
        OBSERVATION_RED_BALL if Token.RED_BALL in held["alice"] else OBSERVATION_NOTHING
    )
    holdings = {
        party: tuple(sorted(token.value for token in tokens))
        for party, tokens in held.items()
    }
    return BilliardRun(observation=observation, log=log, holdings=holdings)


def decode_billiard(observation: str) -> int:
    """Map Alice's observation back to the sent bit: red ball means 0,
    nothing means 1."""
    if isinstance(observation, str):
        if observation == OBSERVATION_RED_BALL:
            return 0
        if observation == OBSERVATION_NOTHING:
            return 1
    raise DomainError(
        f"billiard observation must be {OBSERVATION_RED_BALL!r} or {OBSERVATION_NOTHING!r}"
    )


def run_pulse_relay(bits: Sequence[int]) -> PulseRelayRun:
    """Relay a bit sequence with Charlie flipping every bit in between.

    Bob sends a full pulse for 1 and an empty pulse for 0; Charlie re-encodes
    the flipped bit; Alice decodes full as 0 and empty as 1.  Decoding is
    therefore perfect, while the two legs' carrier presence is complementary
    on every bit.
    """
    try:
        count = len(bits)
    except TypeError:  # an iterator, or no sequence at all
        count = 0
    if count == 0:
        raise DomainError("bits must be a non-empty sequence")
    log = CarrierLog()
    decoded = []
    for index, raw in enumerate(bits):
        bit = _validate_bit(raw)
        uplink = PulseSymbol.FULL if bit == 1 else PulseSymbol.EMPTY
        log.add(index, "bob_to_charlie", uplink is PulseSymbol.FULL, (uplink.value,))
        flipped = 1 - bit
        downlink = PulseSymbol.FULL if flipped == 1 else PulseSymbol.EMPTY
        log.add(index, "charlie_to_alice", downlink is PulseSymbol.FULL, (downlink.value,))
        decoded.append(0 if downlink is PulseSymbol.FULL else 1)
    return PulseRelayRun(decoded=tuple(decoded), log=log)


def carrier_span_audit(log: CarrierLog) -> bool:
    """True iff no bit index saw a carrier on both bob_to_charlie and
    charlie_to_alice.  Raises :class:`AuditError` on malformed logs."""
    if not isinstance(log, CarrierLog):
        raise AuditError("expected a CarrierLog")
    try:
        records = iter(log.records)
    except TypeError:
        raise AuditError("carrier log records must be iterable") from None
    carriers = set()  # (bit index, leg) of every slot with a carrier
    for record in records:
        if not isinstance(record, LegRecord):
            raise AuditError("carrier log records must be LegRecords")
        if not isinstance(record.leg, str) or record.leg not in LEG_NAMES:
            raise AuditError(f"carrier log legs must be among {LEG_NAMES}")
        if (index := _integer(record.bit_index)) is None or index < 0:
            raise AuditError("carrier log bit indices must be non-negative integers")
        try:
            present = bool(record.carrier_present)
        except (TypeError, ValueError):
            raise AuditError("carrier presence must have a truth value") from None
        if present:
            carriers.add((index, record.leg))
    return not any((index, "charlie_to_alice") in carriers
                   for index, leg in carriers if leg == "bob_to_charlie")
