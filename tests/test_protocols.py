"""Protocol runs against the closed-form final states and leg witnesses."""

import math
from decimal import Decimal

import numpy as np
import pytest

from cfoptics import (
    BeamSplitter,
    ChainConfig,
    Blocker,
    DomainError,
    MalformedOutcomeError,
    NestedConfig,
    ProtocolOutcome,
    UndecidableDecodingError,
    build_chain_network,
    build_nested_network,
    counterfactual_witness,
    run_bright_pulse,
    run_chain,
    run_protocol,
)
from cfoptics import analysis, core, kernel, protocols
from cfoptics.analysis import balanced_theta2, channel_from_protocol
from helpers import closed_form_final, random_config_angles

RNG = np.random.default_rng(421)

THETA1 = 0.25
THETA2 = balanced_theta2(THETA1)

# frozen high-precision evaluations of the closed forms at the balanced
# theta1 = 0.25 configuration
P_SUCCESS = 0.533113967523193
P_D1_B0 = 0.420979493185697
P_D2_B1 = 0.405677313421993
ABSORBED_BOB = 0.0306043595274068
ABSORBED_DISCARD_B0 = 0.0153021797637034


class TestNetworkStructure:
    def test_open_arm_has_no_blocker(self):
        network = build_nested_network(NestedConfig(0.3, 0.4), 1)
        assert not any(isinstance(e, Blocker) for e in network.elements)

    def test_blocked_arm_has_one_blocker_on_far_mode(self):
        network = build_nested_network(NestedConfig(0.3, 0.4), 0)
        blockers = [e for e in network.elements if isinstance(e, Blocker)]
        assert len(blockers) == 1
        assert blockers[0].mode == 2
        assert blockers[0].label == "bob"

    def test_always_four_couplers(self):
        for bit in (0, 1):
            network = build_nested_network(NestedConfig(1.0, -0.2), bit)
            couplers = [e for e in network.elements if isinstance(e, BeamSplitter)]
            assert len(couplers) == 4

    def test_invalid_bit(self):
        with pytest.raises(DomainError):
            build_nested_network(NestedConfig(0.3, 0.4), 2)

    def test_invalid_angles(self):
        with pytest.raises(DomainError):
            NestedConfig(math.nan, 0.1)
        with pytest.raises(DomainError):
            NestedConfig(0.1, 3.5)  # outside (-pi, pi]

    @pytest.mark.parametrize("kwargs", [
        {"theta1": True, "theta2": 0.3},
        {"theta1": 0.3, "theta2": False},
    ], ids=["theta1", "theta2"])
    def test_nested_config_refuses_booleans(self, kwargs):
        # float(True) is 1.0: a boolean must not pass as an angle
        with pytest.raises(DomainError):
            NestedConfig(**kwargs)

    @pytest.mark.parametrize("name", ["outer_angle", "inner_angle", "final_angle"])
    def test_chain_config_refuses_boolean_angles(self, name):
        with pytest.raises(DomainError, match=name):
            ChainConfig(2, 3, **{name: True})

    @pytest.mark.parametrize("name", ["theta1", "theta2"])
    def test_nested_config_refuses_numpy_boolean_angles(self, name):
        # float(np.True_) is 1.0, and np.True_ is not a bool
        for flag in (np.True_, np.False_):
            with pytest.raises(DomainError, match=name):
                NestedConfig(**{"theta1": 0.3, "theta2": 0.4, name: flag})

    @pytest.mark.parametrize("name", ["outer_angle", "inner_angle", "final_angle"])
    def test_chain_config_refuses_numpy_boolean_angles(self, name):
        with pytest.raises(DomainError, match=name):
            ChainConfig(2, 3, **{name: np.True_})


class TestNestedPlans:
    """Each bit's open nested network is built once; every nested build
    shares its constant elements and plan lists and splices in its two
    outer couplers and their coefficient pairs, made once per config."""

    @staticmethod
    def shared():
        """Every list and dict the nested builds share, with its contents."""
        plans = [base._plan for base in protocols._OPEN_NESTED]
        return [(column, list(column)) for plan in plans for column in plan[:4]] + [
            (plan.checkpoint_rows, list(plan.checkpoint_rows.items())) for plan in plans]

    def test_builds_splice_only_the_outer_couplers(self):
        config = NestedConfig(0.3, 0.7)
        for bit, base in enumerate(protocols._OPEN_NESTED):
            network = build_nested_network(config, bit)
            plan, shared = core.compile_network(network), core.compile_network(base)
            assert network.elements[0] is config._outer_couplers[0]
            assert network.elements[-1] is config._outer_couplers[1]
            kept = [a is b for a, b in zip(network.elements, base.elements)]
            assert kept.count(False) == 2
            assert plan == core._lower(network.elements, 3)
            lowered = [a is not b for a, b in zip(plan.coeff, shared.coeff)]
            assert lowered.count(True) == 2 and lowered[0] and lowered[-1]
            assert all(getattr(plan, name) is getattr(shared, name) for name in (
                "ops", "arg_a", "arg_b", "ledger_labels", "checkpoint_rows"))

    def test_a_splice_lowers_only_the_outer_coefficients(self):
        for bit, base in enumerate(protocols._OPEN_NESTED):
            shared = core.compile_network(base)
            plan = core.compile_network(build_nested_network(NestedConfig(0.3, 0.7), bit))
            assert plan.coeff[0] == (math.cos(0.3), 1j * math.sin(0.3))
            assert plan.coeff[-1] == (math.cos(0.7), 1j * math.sin(0.7))
            assert all(a is b for a, b in zip(plan.coeff[1:-1], shared.coeff[1:-1]))
            assert shared.coeff[0] == shared.coeff[-1] == (1.0, 0j)

    def test_an_evaluation_makes_two_coefficient_pairs(self, monkeypatch):
        """Both bit networks of a channel evaluation share the pairs that
        its config makes, one per outer coupler."""
        made = []

        def counted(theta):
            made.append(theta)
            return core._coupler_coeff(theta)

        monkeypatch.setattr(protocols, "_coupler_coeff", counted)
        channel_from_protocol(NestedConfig(0.3, 0.7))
        assert made == [0.3, 0.7]

    def test_an_evaluation_makes_no_element(self, monkeypatch):
        """No run reads a nested network's elements, so a config makes its
        two outer couplers only when they are read."""
        made = []

        def counted(*args):
            made.append(args)
            return core.BeamSplitter(*args)

        monkeypatch.setattr(protocols, "BeamSplitter", counted)
        config = NestedConfig(0.3, 0.7)
        channel_from_protocol(config)
        run_protocol(config, 0)
        assert made == []
        assert build_nested_network(config, 1).elements[-1] == core.BeamSplitter(0, 1, 0.7)
        assert build_nested_network(config, 0).elements[0] == core.BeamSplitter(0, 1, 0.3)
        assert made == [(0, 1, 0.3), (0, 1, 0.7)]

    @pytest.mark.parametrize("bit", (0, 1))
    def test_no_build_or_run_lowers_elements(self, monkeypatch, bit):
        """Every protocol network is its bit's open plan, lowered once per
        process, with its config's pairs spliced in: no nested or chain
        build or run, and no channel evaluation, lowers an element list."""

        def refused(elements, mode_count):
            raise AssertionError("a protocol build lowered its elements")

        assert "_lower" not in vars(protocols)
        monkeypatch.setattr(core, "_lower", refused)
        config, chain = NestedConfig(0.3, 0.7), ChainConfig(3, 4, 0.2, 0.5, 1.1)
        for network in (build_nested_network(config, bit), build_chain_network(chain, bit)):
            final, _ = core.propagate(network, protocols._SINGLE_PHOTON)
            assert math.isclose(core.total_probability(final), 1.0, abs_tol=1e-12)
        assert run_protocol(config, bit).p_d1 == channel_from_protocol(config)._rows[bit][0]
        assert run_chain(chain, bit).bit == bit
        run_chain(ChainConfig(20, 400), bit)

    def test_shared_plans_survive_many_evaluations_and_failed_builds(self):
        before = self.shared()
        for k, theta1 in enumerate(np.linspace(0.05, 1.5, 40)):
            channel_from_protocol(NestedConfig(theta1, 0.7))
            run_protocol(NestedConfig(theta1, -0.3), k % 2)
            # The detuned layout is a one-cycle chain with its own plan.
            run_chain(ChainConfig(1, 1, theta1, math.pi / 4 - 0.02, 0.7), k % 2)
            run_chain(ChainConfig(2, 3, theta1, 0.4, -0.7), k % 2)
        with pytest.raises(DomainError):
            build_nested_network(NestedConfig(0.3, 0.7), 2)
        assert [(id(column), contents) for column, contents in self.shared()] == [
            (id(column), contents) for column, contents in before]


class TestRunProtocol:
    def test_consecutive_runs_are_identical(self):
        """Runs share their input state and constant elements; nothing one
        run does may show in the next."""
        for theta1, theta2 in ((THETA1, THETA2), (0.9, -0.4)):
            for bit in (0, 1):
                config = NestedConfig(theta1, theta2)
                first, second = run_protocol(config, bit), run_protocol(config, bit)
                assert first == second
                assert repr(first) == repr(second)

    def test_matches_closed_forms_on_random_configs(self):
        for _ in range(300):
            theta1, theta2 = random_config_angles(RNG)
            config = NestedConfig(theta1, theta2)
            for bit in (0, 1):
                outcome = run_protocol(config, bit)
                amp0, amp1 = closed_form_final(theta1, theta2, bit)
                assert outcome.p_d1 == pytest.approx(abs(amp0) ** 2, abs=1e-12)
                assert outcome.p_d2 == pytest.approx(abs(amp1) ** 2, abs=1e-12)

    def test_decoupled_inner_loop(self):
        """theta1 = 0 leaves the inner loop dark: detector split is set by
        theta2 alone and nothing is absorbed."""
        for bit in (0, 1):
            outcome = run_protocol(NestedConfig(0.0, 1.1), bit)
            assert outcome.p_d1 == pytest.approx(math.cos(1.1) ** 2, abs=1e-15)
            assert outcome.p_d2 == pytest.approx(math.sin(1.1) ** 2, abs=1e-15)
            assert outcome.absorbed["bob"] == 0.0
            assert outcome.absorbed["discard"] == 0.0

    def test_balanced_point_values(self):
        open_run = run_protocol(NestedConfig(THETA1, THETA2), 1)
        assert open_run.p_d1 == pytest.approx(P_SUCCESS, abs=1e-12)
        assert open_run.p_d2 == pytest.approx(P_D2_B1, abs=1e-12)
        assert open_run.absorbed["bob"] == 0.0
        blocked_run = run_protocol(NestedConfig(THETA1, THETA2), 0)
        assert blocked_run.p_d2 == pytest.approx(P_SUCCESS, abs=1e-12)
        assert blocked_run.p_d1 == pytest.approx(P_D1_B0, abs=1e-12)
        assert blocked_run.absorbed["bob"] == pytest.approx(ABSORBED_BOB, abs=1e-12)
        assert blocked_run.absorbed["discard"] == pytest.approx(ABSORBED_DISCARD_B0, abs=1e-12)

    def test_outcome_completeness(self):
        for _ in range(100):
            theta1, theta2 = random_config_angles(RNG)
            for bit in (0, 1):
                outcome = run_protocol(NestedConfig(theta1, theta2), bit)
                total = (
                    outcome.p_d1
                    + outcome.p_d2
                    + outcome.absorbed["bob"]
                    + outcome.absorbed["discard"]
                )
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_upstream_leg_is_bit_independent(self):
        """Bob's action cannot affect amplitudes recorded before it."""
        for _ in range(25):
            theta1, theta2 = random_config_angles(RNG)
            config = NestedConfig(theta1, theta2)
            blocked = run_protocol(config, 0)
            open_run = run_protocol(config, 1)
            assert blocked.legs["charlie_to_bob"] == open_run.legs["charlie_to_bob"]
            assert blocked.legs["alice_to_charlie"] == open_run.legs["alice_to_charlie"]

    def test_leg_amplitudes_at_balanced_point(self):
        outcome = run_protocol(NestedConfig(THETA1, THETA2), 0)
        s1 = math.sin(THETA1)
        assert outcome.legs["alice_to_charlie"] == pytest.approx(1j * s1, abs=1e-15)
        assert outcome.legs["charlie_to_bob"] == pytest.approx(-s1 / math.sqrt(2), abs=1e-15)
        assert outcome.legs["bob_to_charlie"] == 0.0
        assert outcome.legs["charlie_to_alice"] == pytest.approx(1j * s1 / 2, abs=1e-15)


class TestCounterfactualWitness:
    def test_blocked_arm_emits_exactly_nothing(self):
        for _ in range(50):
            theta1, theta2 = random_config_angles(RNG)
            outcome = run_protocol(NestedConfig(theta1, theta2), 0)
            forward, _ = counterfactual_witness(outcome, 0)
            assert forward == 0.0

    def test_open_arm_sends_nothing_back_to_receiver(self):
        for _ in range(50):
            theta1, theta2 = random_config_angles(RNG)
            outcome = run_protocol(NestedConfig(theta1, theta2), 1)
            _, backward = counterfactual_witness(outcome, 1)
            assert backward < 1e-24

    def test_detuned_inner_couplers_break_the_cancellation(self):
        chain = ChainConfig(1, 1, THETA1, math.pi / 4 + 0.01, THETA2)
        assert run_chain(chain, 1).leg_peaks["charlie_to_alice"] > 1e-8

    def test_missing_legs_rejected(self):
        outcome = ProtocolOutcome(p_d1=0.5, p_d2=0.5, absorbed={}, legs={})
        with pytest.raises(MalformedOutcomeError):
            counterfactual_witness(outcome, 0)

    @pytest.mark.parametrize("legs", [
        None,
        {"bob_to_charlie": "x", "charlie_to_alice": 0j},
        {"bob_to_charlie": 0j, "charlie_to_alice": True},
        {"bob_to_charlie": np.True_, "charlie_to_alice": 0j},
        {"bob_to_charlie": 0j, "charlie_to_alice": b"1"},
        {"bob_to_charlie": Decimal(1), "charlie_to_alice": 0j},
    ])
    def test_legs_that_are_missing_or_not_numbers_are_rejected(self, legs):
        outcome = ProtocolOutcome(p_d1=0.5, p_d2=0.5, absorbed={}, legs=legs)
        with pytest.raises(MalformedOutcomeError, match="^outcome must hold the bob_to_charlie"):
            counterfactual_witness(outcome, 0)

    def test_legs_may_be_any_complex_number(self):
        outcome = ProtocolOutcome(0.5, 0.5, {}, {"bob_to_charlie": np.complex128(0.5j),
                                                 "charlie_to_alice": np.int64(2)})
        assert counterfactual_witness(outcome, 0) == (0.25, 4)


class TestBrightPulse:
    def test_intensities_scale_single_photon_probabilities(self):
        for _ in range(50):
            theta1, theta2 = random_config_angles(RNG)
            config = NestedConfig(theta1, theta2)
            for bit in (0, 1):
                outcome = run_protocol(config, bit)
                if outcome.p_d1 == outcome.p_d2:
                    continue  # undecidable configs handled separately
                reading = run_bright_pulse(config, bit, 1e6)
                assert reading.i_d1 / 1e6 == pytest.approx(outcome.p_d1, abs=1e-12)
                assert reading.i_d2 / 1e6 == pytest.approx(outcome.p_d2, abs=1e-12)

    def test_argmax_decoding_recovers_bit_at_balanced_point(self):
        config = NestedConfig(THETA1, THETA2)
        for bit in (0, 1):
            assert run_bright_pulse(config, bit, 1e6).decoded == bit

    def test_uncoupled_inner_loop_carries_no_information(self):
        config = NestedConfig(0.0, math.pi / 3)
        for bit in (0, 1):
            assert run_bright_pulse(config, bit, 1.0).decoded == 0

    def test_exact_tie_is_refused(self, monkeypatch):
        # exact float ties only arise on measure-zero configs, so inject one
        # at the detector probabilities the pulse reading scales
        monkeypatch.setattr(
            "cfoptics.protocols._detector_probabilities", lambda config, bit: (0.25, 0.25)
        )
        with pytest.raises(UndecidableDecodingError):
            run_bright_pulse(NestedConfig(0.2, 0.3), 1, 1e3)

    def test_rejects_nonpositive_intensity(self):
        with pytest.raises(DomainError):
            run_bright_pulse(NestedConfig(0.2, 0.3), 0, 0.0)
        with pytest.raises(DomainError):
            run_bright_pulse(NestedConfig(0.2, 0.3), 0, -2.0)


class TestTracingHooks:
    def test_one_compile_and_one_kernel_run_per_propagation(self, monkeypatch):
        """Tracing tools replace ``core.compile_network`` and
        ``kernel.run_plan`` by attribute and count their calls; each
        propagation must make exactly one of each, over one plan entry per
        element of the propagated network."""
        propagated, compiled, executed = [], [], []
        original_propagate = protocols.propagate
        original_compile = core.compile_network
        original_run_plan = kernel.run_plan

        def counting_propagate(network, state):
            propagated.append(network)
            return original_propagate(network, state)

        def counting_compile(network):
            compiled.append(network)
            return original_compile(network)

        def counting_run_plan(ops, *args):
            executed.append(len(ops))
            return original_run_plan(ops, *args)

        monkeypatch.setattr(protocols, "propagate", counting_propagate)
        monkeypatch.setattr(core, "compile_network", counting_compile)
        monkeypatch.setattr(kernel, "run_plan", counting_run_plan)
        run_chain(ChainConfig(2, 3), 0)
        channel_from_protocol(NestedConfig(0.3, 0.7))
        assert len(propagated) == 3
        assert all(a is b for a, b in zip(compiled, propagated)) and len(compiled) == 3
        assert executed == [len(network.elements) for network in propagated]

    @pytest.mark.parametrize("run", ["channel", "bright-pulse", "bisection"])
    def test_detector_only_runs_keep_the_traced_counts(self, run, monkeypatch):
        """Channel rows and pulse readings skip ``run_protocol`` but still
        build, propagate, compile and execute through the attributes that
        tracing tools replace: one of each per run, and a channel
        evaluation executes the 19 plan entries of its two networks."""
        calls = {"build": [], "propagate": [], "compile": [], "run_plan": [], "channel": []}

        def count(module, attribute, key):
            original = getattr(module, attribute)

            def counting(*args, **kwargs):
                result = original(*args, **kwargs)
                calls[key].append(result if key == "build" else args[0])
                return result

            monkeypatch.setattr(module, attribute, counting)

        count(protocols, "build_nested_network", "build")
        count(protocols, "propagate", "propagate")
        count(core, "compile_network", "compile")
        count(kernel, "run_plan", "run_plan")
        count(analysis, "channel_from_protocol", "channel")
        config = NestedConfig(0.3, 0.7)
        if run == "channel":
            analysis.channel_from_protocol(config)
        elif run == "bright-pulse":
            for bit in (0, 1):
                protocols.run_bright_pulse(config, bit, 1e3)
        else:
            analysis.balance_root_solve(0.25)
        built = calls["build"]
        assert len(built) == len(calls["propagate"]) == len(calls["compile"]) == len(calls["run_plan"])
        assert all(a is b for a, b in zip(built, calls["propagate"]))
        assert all(a is b for a, b in zip(built, calls["compile"]))
        executed = sum(len(ops) for ops in calls["run_plan"])
        assert executed == sum(len(network.elements) for network in built)
        # The two pulse runs, one per bit, are one channel evaluation's work.
        evaluations = len(calls["channel"]) if run != "bright-pulse" else 1
        assert len(built) == 2 * evaluations and executed == 19 * evaluations
        assert run != "bisection" or evaluations > 2
