"""Chained-network generalization against an independent matrix-product oracle."""

import dataclasses
import gc
import math
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfoptics import protocols
from cfoptics import (
    BeamSplitter,
    Blocker,
    Checkpoint,
    ChainConfig,
    Discard,
    DomainError,
    ModeState,
    NestedConfig,
    build_chain_network,
    build_nested_network,
    propagate,
    run_chain,
    run_protocol,
)
from cfoptics.protocols import MAX_CHAIN_ELEMENTS, _chain_element_count
from helpers import chain_matrix_oracle

SCHEDULE = ((2, 4), (5, 25), (10, 100))


def full_signature(element):
    """Element class and every field, checkpoint indices included."""
    return (type(element),) + dataclasses.astuple(element)


def reference_chain_signatures(chain, bit):
    """The chained layout as a plain nested loop over the cycles."""
    outer = (BeamSplitter, 0, 1, chain.outer_angle)
    inner = (BeamSplitter, 1, 2, chain.inner_angle)
    signatures = []
    for k in range(1, chain.outer_cycles + 1):
        signatures += [outer, (Checkpoint, f"alice_to_charlie[{k}]")]
        for j in range(1, chain.inner_cycles + 1):
            signatures += [inner, (Checkpoint, f"charlie_to_bob[{k}.{j}]")]
            if bit == 0:
                signatures.append((Blocker, 2, "bob"))
            signatures.append((Checkpoint, f"bob_to_charlie[{k}.{j}]"))
        signatures += [inner, (Checkpoint, f"charlie_to_alice[{k}]"), (Discard, 2, "discard")]
    signatures.append((BeamSplitter, 0, 1, chain.final_angle))
    return signatures


def element_signature(element):
    if isinstance(element, BeamSplitter):
        return ("split", element.mode_a, element.mode_b, element.theta)
    if isinstance(element, Blocker):
        return ("block", element.mode, element.label)
    if isinstance(element, Discard):
        return ("discard", element.mode, element.label)
    return ("checkpoint", element.name.split("[", 1)[0])


class TestChainConfig:
    def test_default_angles(self):
        chain = ChainConfig(4, 9)
        assert chain.outer_angle == pytest.approx(math.pi / 10)
        assert chain.inner_angle == pytest.approx(math.pi / 20)
        assert chain.final_angle == chain.outer_angle

    def test_rejects_nonpositive_cycles(self):
        with pytest.raises(DomainError):
            ChainConfig(0, 1)
        with pytest.raises(DomainError):
            ChainConfig(1, -3)

    def test_element_count_matches_built_network(self):
        for outer, inner in ((1, 1), (2, 3), (5, 25)):
            for bit in (0, 1):
                network = build_chain_network(ChainConfig(outer, inner), bit)
                assert len(network.elements) == _chain_element_count(outer, inner, bit)

    def test_element_budget(self):
        """One outer cycle of m inner cycles takes 4m + 6 elements at b = 0:
        m = 124998 fits the budget exactly and m = 124999 does not.  Neither
        network is built."""
        assert _chain_element_count(20, 400, 0) * 10 < MAX_CHAIN_ELEMENTS
        assert _chain_element_count(1, 124998, 0) <= MAX_CHAIN_ELEMENTS
        ChainConfig(1, 124998)
        assert _chain_element_count(1, 124999, 0) > MAX_CHAIN_ELEMENTS
        for outer, inner in ((1, 124999), (100000, 100000)):
            with pytest.raises(DomainError) as excinfo:
                ChainConfig(outer, inner)
            assert f"budget of {MAX_CHAIN_ELEMENTS}" in str(excinfo.value)


class TestChainLayout:
    @pytest.mark.parametrize(
        "chain",
        (
            ChainConfig(1, 1),
            ChainConfig(2, 3),
            ChainConfig(3, 7),
            ChainConfig(3, 7, outer_angle=0.21, inner_angle=-2.9, final_angle=0.45),
            ChainConfig(2, 3, outer_angle=math.pi, inner_angle=0.0, final_angle=-1.0),
        ),
    )
    def test_matches_nested_loop_reference(self, chain):
        for bit in (0, 1):
            network = build_chain_network(chain, bit)
            assert [full_signature(e) for e in network.elements] == reference_chain_signatures(
                chain, bit
            )

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(st.integers(1, 6), st.integers(1, 40), st.sampled_from((0, 1)))
    def test_layout_over_many_shapes(self, outer, inner, bit):
        """Every shape matches the nested-loop reference, and each coupler
        kind, the blocker and the discard is one object per network."""
        chain = ChainConfig(outer, inner)
        elements = build_chain_network(chain, bit).elements
        assert [full_signature(e) for e in elements] == reference_chain_signatures(chain, bit)
        families = {}
        for element in elements[:-1]:
            if type(element) is not Checkpoint:
                families.setdefault(full_signature(element)[:3], set()).add(id(element))
        assert len(families) == (4 if bit == 0 else 3)
        assert all(len(objects) == 1 for objects in families.values())

    def test_both_bits_share_one_checkpoint_set(self):
        chain = ChainConfig(3, 5)
        blocked, open_arm = (
            [e for e in build_chain_network(chain, bit).elements if type(e) is Checkpoint]
            for bit in (0, 1)
        )
        assert len(blocked) == len(open_arm) == 3 * (2 * 5 + 2)
        assert all(a is b for a, b in zip(blocked, open_arm))

    def test_checkpoints_do_not_outlive_their_pair(self, monkeypatch):
        """Once both bits of a chain have run, nothing holds its checkpoints;
        an unpaired run's set goes when the next chain is built."""
        refs = {}

        def recording_build(chain, bit):
            network = original_build(chain, bit)
            refs.setdefault(chain, []).extend(
                weakref.ref(e) for e in network.elements if type(e) is Checkpoint
            )
            return network

        original_build = protocols.build_chain_network
        monkeypatch.setattr(protocols, "build_chain_network", recording_build)
        paired, unpaired, later = ChainConfig(2, 4), ChainConfig(3, 2), ChainConfig(1, 1)
        run_chain(paired, 0)
        run_chain(paired, 1)
        run_chain(unpaired, 1)
        gc.collect()
        assert refs[paired] and all(ref() is None for ref in refs[paired])
        assert all(ref() is not None for ref in refs[unpaired])
        run_chain(later, 0)
        run_chain(later, 1)
        gc.collect()
        assert all(ref() is None for ref in refs[unpaired] + refs[later])


class TestReduction:
    def test_single_cycle_network_matches_basic_layout(self):
        theta1, theta2 = 0.25, 0.7173152392961322
        chain = ChainConfig(1, 1, outer_angle=theta1, inner_angle=math.pi / 4, final_angle=theta2)
        for bit in (0, 1):
            chained = build_chain_network(chain, bit)
            basic = build_nested_network(NestedConfig(theta1, theta2), bit)
            assert [element_signature(e) for e in chained.elements] == [
                element_signature(e) for e in basic.elements
            ]

    def test_single_cycle_outcome_matches_basic_protocol(self):
        theta1, theta2 = 0.25, 0.7173152392961322
        chain = ChainConfig(1, 1, outer_angle=theta1, inner_angle=math.pi / 4, final_angle=theta2)
        for bit in (0, 1):
            chained = run_chain(chain, bit)
            basic = run_protocol(NestedConfig(theta1, theta2), bit)
            assert chained.p_d1 == pytest.approx(basic.p_d1, abs=1e-12)
            assert chained.p_d2 == pytest.approx(basic.p_d2, abs=1e-12)
            for label in ("bob", "discard"):
                assert chained.absorbed[label] == pytest.approx(basic.absorbed[label], abs=1e-12)


class TestAgainstMatrixOracle:
    @pytest.mark.parametrize("cycles", SCHEDULE)
    def test_schedule_matches_oracle(self, cycles):
        outer, inner = cycles
        chain = ChainConfig(outer, inner)
        for bit in (0, 1):
            outcome = run_chain(chain, bit)
            oracle_d1, oracle_d2 = chain_matrix_oracle(
                outer, inner, chain.outer_angle, chain.inner_angle, chain.final_angle, bit
            )
            assert outcome.p_d1 == pytest.approx(oracle_d1, abs=1e-10)
            assert outcome.p_d2 == pytest.approx(oracle_d2, abs=1e-10)

    def test_non_default_angles_match_oracle(self):
        chain = ChainConfig(3, 7, outer_angle=0.21, inner_angle=0.13, final_angle=0.45)
        for bit in (0, 1):
            outcome = run_chain(chain, bit)
            oracle_d1, oracle_d2 = chain_matrix_oracle(3, 7, 0.21, 0.13, 0.45, bit)
            assert outcome.p_d1 == pytest.approx(oracle_d1, abs=1e-10)
            assert outcome.p_d2 == pytest.approx(oracle_d2, abs=1e-10)

    def test_success_trend_grows_along_schedule(self):
        for bit in (0, 1):
            values = [run_chain(ChainConfig(n, m), bit).p_correct for n, m in SCHEDULE]
            assert values == sorted(values)
            assert values[-1] > 0.75


class TestChainWitnesses:
    def test_blocked_arm_peaks_are_exactly_zero(self):
        outcome = run_chain(ChainConfig(4, 6), 0)
        assert outcome.leg_peaks["bob_to_charlie"] == 0.0

    def test_open_arm_return_leg_stays_dark(self):
        outcome = run_chain(ChainConfig(4, 6), 1)
        assert outcome.leg_peaks["charlie_to_alice"] < 1e-24

    def test_leg_peaks_are_the_largest_checkpoint_probabilities(self):
        """Per leg family, the peak equals the maximum of |amplitude|^2 over
        its checkpoints, bit for bit."""
        leg_mode = {
            "alice_to_charlie": 1,
            "charlie_to_bob": 2,
            "bob_to_charlie": 2,
            "charlie_to_alice": 1,
        }
        chains = (
            ChainConfig(6, 40),
            ChainConfig(3, 7, outer_angle=0.21, inner_angle=-2.9, final_angle=0.45),
        )
        for chain in chains:
            for bit in (0, 1):
                network = build_chain_network(chain, bit)
                _, checkpoints = propagate(network, ModeState.single_photon(3))
                expected = dict.fromkeys(leg_mode, 0.0)
                for name, vector in checkpoints.items():
                    leg = name.split("[")[0]
                    expected[leg] = max(expected[leg], float(abs(vector[leg_mode[leg]]) ** 2))
                assert run_chain(chain, bit).leg_peaks == expected

    def test_conservation(self):
        for bit in (0, 1):
            outcome = run_chain(ChainConfig(5, 25), bit)
            total = (
                outcome.p_d1
                + outcome.p_d2
                + outcome.absorbed["bob"]
                + outcome.absorbed["discard"]
            )
            assert total == pytest.approx(1.0, abs=1e-12)
