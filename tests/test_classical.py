"""Classical relay analogs: perfect decoding with no end-to-end carrier."""

import itertools

import numpy as np
import pytest

from cfoptics import (
    LEG_NAMES,
    AuditError,
    CarrierLog,
    DomainError,
    LegRecord,
    Token,
    carrier_span_audit,
    decode_billiard,
    run_billiard,
    run_pulse_relay,
)


class TestBilliard:
    def test_blocked_bit_returns_the_red_ball(self):
        assert run_billiard(0).observation == "red_ball"

    def test_open_bit_returns_nothing(self):
        assert run_billiard(1).observation == "nothing"

    def test_decode_round_trip(self):
        assert decode_billiard("red_ball") == 0
        assert decode_billiard("nothing") == 1
        for bit in (0, 1):
            assert decode_billiard(run_billiard(bit).observation) == bit

    def test_decode_rejects_unknown_observation(self):
        with pytest.raises(DomainError):
            decode_billiard("blue_ball")

    @pytest.mark.parametrize(
        "observation",
        [np.array(["red_ball"]), np.array(["red_ball", "nothing"]), ["nothing"], b"red_ball", None, 0],
    )
    def test_decode_reads_only_a_string(self, observation):
        with pytest.raises(DomainError, match="^billiard observation must be 'red_ball' or 'nothing'$"):
            decode_billiard(observation)

    def test_decode_reads_a_token_as_its_string(self):
        assert decode_billiard(Token.RED_BALL) == 0
        assert decode_billiard(np.str_("nothing")) == 1

    def test_topology_has_no_emitter_to_receiver_leg(self):
        for bit in (0, 1):
            run = run_billiard(bit)
            assert all(record.leg != "bob_to_alice" for record in run.log.records)

    def test_no_ball_spans_both_emitter_legs(self):
        """No single token traverses charlie_to_bob and later charlie_to_alice."""
        for bit in (0, 1):
            run = run_billiard(bit)
            paths = {}
            for record in run.log.records:
                for token in record.payload:
                    paths.setdefault(token, []).append(record.leg)
            for legs in paths.values():
                if "charlie_to_bob" in legs:
                    tail = legs[legs.index("charlie_to_bob"):]
                    assert "charlie_to_alice" not in tail

    def test_every_leg_slot_logged_even_when_empty(self):
        for bit in (0, 1):
            run = run_billiard(bit)
            assert [record.leg for record in run.log.records] == [
                "alice_to_charlie",
                "charlie_to_bob",
                "bob_to_charlie",
                "charlie_to_alice",
            ]

    def test_tokens_conserved(self):
        for bit in (0, 1):
            run = run_billiard(bit)
            all_tokens = sorted(
                token for holding in run.holdings.values() for token in holding
            )
            assert all_tokens == ["blue_ball", "red_ball"]

    def test_audit_passes(self):
        for bit in (0, 1):
            assert carrier_span_audit(run_billiard(bit).log) is True

    def test_invalid_bit(self):
        with pytest.raises(DomainError):
            run_billiard(2)


class TestPulseRelay:
    def test_single_zero(self):
        run = run_pulse_relay([0])
        assert run.decoded == (0,)
        legs = {record.leg: record for record in run.log.records}
        assert legs["bob_to_charlie"].carrier_present is False
        assert legs["charlie_to_alice"].carrier_present is True

    def test_single_one(self):
        run = run_pulse_relay([1])
        assert run.decoded == (1,)
        legs = {record.leg: record for record in run.log.records}
        assert legs["bob_to_charlie"].carrier_present is True
        assert legs["charlie_to_alice"].carrier_present is False

    def test_all_four_bit_words(self):
        for word in itertools.product((0, 1), repeat=4):
            assert run_pulse_relay(word).decoded == word

    def test_exhaustive_up_to_ten_bits(self):
        for width in range(1, 11):
            for word in itertools.product((0, 1), repeat=width):
                run = run_pulse_relay(word)
                assert run.decoded == word
                assert carrier_span_audit(run.log) is True

    def test_leg_complementarity_per_bit(self):
        word = (0, 1, 1, 0, 1, 0, 0, 1)
        run = run_pulse_relay(word)
        presence = {}
        for record in run.log.records:
            presence.setdefault(record.bit_index, {})[record.leg] = record.carrier_present
        for per_bit in presence.values():
            assert per_bit["bob_to_charlie"] != per_bit["charlie_to_alice"]

    def test_rejects_empty_and_invalid_sequences(self):
        with pytest.raises(DomainError):
            run_pulse_relay([])
        with pytest.raises(DomainError):
            run_pulse_relay([0, 2])

    @pytest.mark.parametrize("bits", [5, None, iter([0, 1]), (bit for bit in (0, 1)), np.array(1)])
    def test_refuses_what_is_no_sequence(self, bits):
        with pytest.raises(DomainError, match="^bits must be a non-empty sequence$"):
            run_pulse_relay(bits)

    @pytest.mark.parametrize("bits", [(0, 1), [0, 1], range(2), np.array([0, 1]), {0: "", 1: ""}])
    def test_takes_any_sized_collection_of_bits(self, bits):
        assert run_pulse_relay(bits).decoded == (0, 1)


class TestCarrierSpanAudit:
    def test_detects_a_spanning_carrier(self):
        log = CarrierLog()
        log.add(0, "bob_to_charlie", True, ("full",))
        log.add(0, "charlie_to_alice", True, ("full",))
        assert carrier_span_audit(log) is False

    def test_mutated_relay_log_fails(self):
        run = run_pulse_relay((1, 0, 1))
        bad = CarrierLog(
            [
                LegRecord(r.bit_index, r.leg, True, r.payload)
                for r in run.log.records
            ]
        )
        assert carrier_span_audit(bad) is False

    def test_unknown_leg_is_malformed(self):
        log = CarrierLog([LegRecord(0, "bob_to_alice", True, ())])
        with pytest.raises(AuditError):
            carrier_span_audit(log)

    def test_negative_bit_index_is_malformed(self):
        log = CarrierLog([LegRecord(-1, "bob_to_charlie", True, ())])
        with pytest.raises(AuditError):
            carrier_span_audit(log)

    @pytest.mark.parametrize("index", [True, np.True_, 1.0])
    def test_bit_index_follows_the_number_rule(self, index):
        log = CarrierLog([LegRecord(index, "bob_to_charlie", True, ())])
        with pytest.raises(AuditError):
            carrier_span_audit(log)

    def test_numpy_integer_bit_index_audits_as_the_int(self):
        log = CarrierLog()
        log.add(np.int64(1), "bob_to_charlie", True, ("full",))
        log.add(1, "charlie_to_alice", True, ("full",))
        assert carrier_span_audit(log) is False

    def test_not_a_log(self):
        with pytest.raises(AuditError):
            carrier_span_audit([("bob_to_charlie", True)])

    @pytest.mark.parametrize(
        "records",
        [
            [5],
            "ab",
            None,
            5,
            [("bob_to_charlie", True)],
            [LegRecord(0, np.array(["bob_to_charlie", "charlie_to_alice"]), True)],
            [LegRecord(0, b"bob_to_charlie", True)],
            [LegRecord(0, "bob_to_charlie", np.array([True, False]))],
        ],
    )
    def test_malformed_records_are_audit_errors(self, records):
        with pytest.raises(AuditError):
            carrier_span_audit(CarrierLog(records))

    def test_every_small_log_audits_like_the_definition(self):
        """All logs of up to three records over two bits, held in a list, a
        tuple or a generator: a bit spans iff both its legs carried."""
        slots = [LegRecord(index, leg, present)
                 for index in (0, 1) for leg in LEG_NAMES for present in (True, np.False_, 1)]
        for size in range(4):
            for records in itertools.product(slots, repeat=size):
                spans = any(
                    a.bit_index == b.bit_index and a.leg == "bob_to_charlie"
                    and b.leg == "charlie_to_alice" and a.carrier_present and b.carrier_present
                    for a in records for b in records
                )
                for held in (list(records), records, (r for r in records)):
                    assert carrier_span_audit(CarrierLog(held)) is not spans
