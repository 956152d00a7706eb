"""Element-level behavior of the propagation core."""

import math
from collections.abc import Mapping
from dataclasses import fields, replace

import numpy as np
import pytest

from cfoptics import (
    BeamSplitter,
    Blocker,
    ChainConfig,
    Checkpoint,
    Discard,
    InvalidNetworkError,
    ModeState,
    Network,
    apply_beam_splitter,
    apply_blocker,
    build_chain_network,
    propagate,
    total_probability,
)
from cfoptics import core
from cfoptics.core import compile_network
from helpers import fold_elements

RNG = np.random.default_rng(20240917)


def coupler_matrix(theta):
    return np.array(
        [
            [math.cos(theta), 1j * math.sin(theta)],
            [1j * math.sin(theta), math.cos(theta)],
        ]
    )


class TestBeamSplitter:
    def test_first_coupler_from_single_photon(self):
        """Input (1,0,0) becomes (cos t, i sin t, 0)."""
        for theta in (0.25, 0.37, 1.2, -0.9):
            state = apply_beam_splitter(ModeState.single_photon(3), 0, 1, theta)
            np.testing.assert_allclose(
                state.amplitudes,
                [math.cos(theta), 1j * math.sin(theta), 0.0],
                atol=1e-15,
            )

    def test_zero_angle_is_identity(self):
        state = ModeState([0.3 + 0.1j, -0.4j, 0.2])
        out = apply_beam_splitter(state, 0, 2, 0.0)
        np.testing.assert_array_equal(out.amplitudes, state.amplitudes)

    def test_fifty_fifty_after_first_coupler(self):
        """Second coupler on modes (1,2) yields (c1, i s1/sqrt2, -s1/sqrt2)."""
        theta1 = 0.25
        state = apply_beam_splitter(ModeState.single_photon(3), 0, 1, theta1)
        state = apply_beam_splitter(state, 1, 2, math.pi / 4)
        s1 = math.sin(theta1)
        expected = [math.cos(theta1), 1j * s1 / math.sqrt(2), -s1 / math.sqrt(2)]
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)

    def test_unitarity_over_angle_range(self):
        """U(t)^dagger U(t) = I entrywise within 1e-14 for t in [-pi, pi]."""
        for theta in np.linspace(-math.pi, math.pi, 181):
            u = coupler_matrix(theta)
            np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-14)

    def test_inverse_composition(self):
        """Coupler of t then -t on the same pair restores the state."""
        for _ in range(50):
            amps = RNG.normal(size=4) + 1j * RNG.normal(size=4)
            theta = RNG.uniform(-math.pi, math.pi)
            state = ModeState(amps)
            out = apply_beam_splitter(apply_beam_splitter(state, 1, 3, theta), 1, 3, -theta)
            np.testing.assert_allclose(out.amplitudes, amps, atol=1e-12)

    def test_rejects_equal_modes(self):
        with pytest.raises(InvalidNetworkError):
            apply_beam_splitter(ModeState.single_photon(3), 1, 1, 0.5)

    def test_rejects_out_of_range_mode(self):
        with pytest.raises(InvalidNetworkError):
            apply_beam_splitter(ModeState.single_photon(3), 0, 3, 0.5)


class TestBlocker:
    def test_books_absorbed_probability(self):
        theta1 = 0.25
        state = apply_beam_splitter(ModeState.single_photon(3), 0, 1, theta1)
        state = apply_beam_splitter(state, 1, 2, math.pi / 4)
        blocked = apply_blocker(state, 2, "bob")
        assert blocked.amplitudes[2] == 0.0
        # sin(0.25)^2 / 2 evaluated at high precision
        assert blocked.absorbed["bob"] == pytest.approx(0.0306043595274068, abs=1e-12)
        np.testing.assert_array_equal(blocked.amplitudes[:2], state.amplitudes[:2])

    def test_blocking_vacuum_mode_changes_nothing(self):
        state = ModeState([1.0, 0.0, 0.0])
        blocked = apply_blocker(state, 2, "bob")
        np.testing.assert_array_equal(blocked.amplitudes, state.amplitudes)
        assert blocked.absorbed == {"bob": 0.0}

    def test_idempotent(self):
        state = apply_beam_splitter(ModeState.single_photon(2), 0, 1, 0.8)
        once = apply_blocker(state, 1, "x")
        twice = apply_blocker(once, 1, "x")
        assert twice.absorbed == once.absorbed
        np.testing.assert_array_equal(twice.amplitudes, once.amplitudes)

    def test_rejects_out_of_range_mode(self):
        with pytest.raises(InvalidNetworkError):
            apply_blocker(ModeState.single_photon(2), 5, "x")


@pytest.mark.parametrize(
    "element, message",
    [
        (BeamSplitter(0, 3, 0.5), "beam-splitter mode_b 3 out of range for 3 modes"),
        (BeamSplitter(-1, 1, 0.5), "beam-splitter mode_a -1 out of range for 3 modes"),
        (BeamSplitter(1.5, 1, 0.5), "beam-splitter mode_a must be an integer mode index"),
        (BeamSplitter(0, None, 0.5), "beam-splitter mode_b must be an integer mode index"),
        (Blocker(5, "x"), "absorber mode 5 out of range for 3 modes"),
        (Blocker(1.5, "x"), "absorber mode must be an integer mode index"),
        (Blocker(None, "x"), "absorber mode must be an integer mode index"),
        (BeamSplitter(1, 1, 0.5), "beam splitter needs two distinct modes"),
        (BeamSplitter(0, 1, math.nan), "beam-splitter angle must be a finite real number"),
        (BeamSplitter(0, 1, math.inf), "beam-splitter angle must be a finite real number"),
        (Blocker(0, ""), "absorber label must be a non-empty string"),
        (Blocker(0, 1), "absorber label must be a non-empty string"),
        (Blocker(0, None), "absorber label must be a non-empty string"),
        (Blocker(0, b"bob"), "absorber label must be a non-empty string"),
    ],
    ids=[
        "coupler-mode-range", "coupler-mode-negative", "coupler-mode-float", "coupler-mode-none",
        "absorber-mode-range", "absorber-mode-float", "absorber-mode-none", "equal-modes",
        "angle-nan", "angle-inf", "label-empty", "label-int", "label-none", "label-bytes",
    ],
)
def test_standalone_operations_fail_like_the_network(element, message):
    """``apply_beam_splitter`` and ``apply_blocker`` refuse what ``Network``
    refuses for the same element, with the same message."""
    with pytest.raises(InvalidNetworkError) as excinfo:
        Network(3, (element,))
    assert str(excinfo.value) == message
    state = ModeState.single_photon(3)
    with pytest.raises(InvalidNetworkError) as excinfo:
        if isinstance(element, BeamSplitter):
            apply_beam_splitter(state, element.mode_a, element.mode_b, element.theta)
        else:
            apply_blocker(state, element.mode, element.label)
    assert str(excinfo.value) == message


def random_network(rng, mode_count=4, n_elements=12):
    elements = []
    for k in range(n_elements):
        kind = rng.integers(0, 4)
        if kind <= 1:
            a, b = rng.choice(mode_count, size=2, replace=False)
            elements.append(BeamSplitter(int(a), int(b), float(rng.uniform(-math.pi, math.pi))))
        elif kind == 2:
            cls = Blocker if rng.integers(0, 2) == 0 else Discard
            elements.append(cls(int(rng.integers(0, mode_count)), f"abs{rng.integers(0, 3)}"))
        else:
            elements.append(Checkpoint(f"cp{k}"))
    return Network(mode_count, tuple(elements))


class TestPropagate:
    def test_empty_network_is_identity(self):
        state = ModeState([0.6, 0.8j])
        final, checkpoints = propagate(Network(2), state)
        np.testing.assert_array_equal(final.amplitudes, state.amplitudes)
        assert checkpoints == {}
        assert final.absorbed == {}

    def test_conservation_on_random_networks(self):
        for _ in range(200):
            network = random_network(RNG)
            final, _ = propagate(network, ModeState.single_photon(4))
            assert total_probability(final) == pytest.approx(1.0, abs=1e-12)

    def test_matches_sequential_element_application(self):
        """Kernel route equals folding the standalone operations, final state
        and every checkpoint snapshot; long chains included."""
        cases = [(random_network(RNG), 1e-12) for _ in range(100)]
        cases += [(build_chain_network(ChainConfig(6, 40), bit), 1e-14) for bit in (0, 1)]
        for network, atol in cases:
            state = ModeState.single_photon(network.mode_count)
            final, checkpoints = propagate(network, state)
            folded, folded_checkpoints = fold_elements(state, network.elements)
            np.testing.assert_allclose(final.amplitudes, folded.amplitudes, atol=atol)
            assert set(final.absorbed) == set(folded.absorbed)
            for label, value in folded.absorbed.items():
                assert final.absorbed[label] == pytest.approx(value, abs=atol)
            assert list(checkpoints) == list(folded_checkpoints)
            for name, snapshot in folded_checkpoints.items():
                np.testing.assert_allclose(checkpoints[name], snapshot, atol=atol)
            assert total_probability(final) == pytest.approx(1.0, abs=1e-12)

    def test_matches_sequential_element_application_exactly(self):
        """The kernel evaluates the same expressions in the same order as the
        standalone operations, so final amplitudes, every checkpoint and the
        ledger agree bit for bit, not just to a tolerance."""
        rng = np.random.default_rng(20261017)
        networks = [random_network(rng) for _ in range(300)]
        networks += [build_chain_network(ChainConfig(6, 40), bit) for bit in (0, 1)]
        for network in networks:
            state = ModeState.single_photon(network.mode_count)
            final, checkpoints = propagate(network, state)
            folded, folded_checkpoints = fold_elements(state, network.elements)
            assert np.array_equal(final.amplitudes, folded.amplitudes)
            assert final.absorbed == folded.absorbed
            assert list(checkpoints) == list(folded_checkpoints)
            for name, snapshot in folded_checkpoints.items():
                assert np.array_equal(checkpoints[name], snapshot)

    def test_linearity(self):
        """Propagating c*psi scales amplitudes by c and the ledger by |c|^2."""
        network = random_network(RNG)
        amps = RNG.normal(size=4) + 1j * RNG.normal(size=4)
        scale = complex(0.31, -1.2)
        base, _ = propagate(network, ModeState(amps))
        scaled, _ = propagate(network, ModeState(scale * amps))
        np.testing.assert_allclose(scaled.amplitudes, scale * base.amplitudes, atol=1e-12)
        for label, value in base.absorbed.items():
            assert scaled.absorbed[label] == pytest.approx(abs(scale) ** 2 * value, rel=1e-12, abs=1e-12)

    def test_checkpoints_capture_positional_snapshots(self):
        theta = 0.7
        network = Network(
            2,
            (
                Checkpoint("before"),
                BeamSplitter(0, 1, theta),
                Checkpoint("after"),
            ),
        )
        _, checkpoints = propagate(network, ModeState.single_photon(2))
        np.testing.assert_allclose(checkpoints["before"], [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(
            checkpoints["after"], [math.cos(theta), 1j * math.sin(theta)], atol=1e-15
        )

    def test_input_ledger_carries_over(self):
        state = ModeState([1.0], absorbed={"earlier": 0.25})
        final, _ = propagate(Network(1, (Blocker(0, "now"),)), state)
        assert final.absorbed == {"earlier": 0.25, "now": 1.0}

    def test_mode_count_mismatch_rejected(self):
        with pytest.raises(InvalidNetworkError):
            propagate(Network(3), ModeState.single_photon(2))

    def test_overflowing_absorption_rejected(self):
        """|1e200|^2 overflows the ledger entry; the output state is refused
        with the same message a constructed state gets."""
        with pytest.raises(InvalidNetworkError) as excinfo:
            propagate(Network(1, (Blocker(0, "x"),)), ModeState([1e200]))
        assert str(excinfo.value) == "absorbed['x'] must be a finite non-negative probability"

    def test_overflowing_amplitudes_rejected(self):
        network = Network(2, (BeamSplitter(0, 1, math.pi / 4),))
        with pytest.raises(InvalidNetworkError) as excinfo:
            propagate(network, ModeState([1.5e308, -1.5e308j]))
        assert str(excinfo.value) == "amplitudes must be finite"

    def test_input_state_untouched(self):
        for _ in range(50):
            network = random_network(RNG)
            amplitudes = RNG.normal(size=4) + 1j * RNG.normal(size=4)
            state = ModeState(amplitudes, absorbed={"x": 0.5, "earlier": 0.25})
            before = (state.amplitudes.copy(), dict(state.absorbed))
            final, checkpoints = propagate(network, state)
            assert np.array_equal(state.amplitudes, before[0])
            assert state.absorbed == before[1]
            assert not np.shares_memory(final.amplitudes, state.amplitudes)
            assert final.absorbed is not state.absorbed
            for snapshot in checkpoints.values():
                assert not np.shares_memory(snapshot, state.amplitudes)


class TestCheckpointMapping:
    def network(self):
        coupler = BeamSplitter(0, 1, 0.4)
        return Network(
            3,
            (
                Checkpoint("c"),
                coupler,
                Checkpoint("a"),
                Blocker(1, "x"),
                coupler,
                Checkpoint("b"),
                BeamSplitter(1, 2, -0.9),
            ),
        )

    def test_read_only_mapping_in_plan_order(self):
        state = ModeState([0.6, 0.8j, 0.0])
        _, checkpoints = propagate(self.network(), state)
        assert isinstance(checkpoints, Mapping)
        assert list(checkpoints) == ["c", "a", "b"]
        assert len(checkpoints) == 3
        assert "a" in checkpoints and "missing" not in checkpoints
        assert np.array_equal(checkpoints.get("b"), checkpoints["b"])
        assert checkpoints.get("missing") is None
        with pytest.raises(KeyError):
            checkpoints["missing"]
        with pytest.raises(TypeError):
            checkpoints["a"] = np.zeros(3)
        np.testing.assert_array_equal(checkpoints["c"], state.amplitudes)
        assert propagate(Network(2, (BeamSplitter(0, 1, 0.1),)), ModeState.single_photon(2))[1] == {}

    def test_rows_share_one_matrix_of_their_own(self):
        state = ModeState([0.6, 0.8j, 0.0])
        _, checkpoints = propagate(self.network(), state)
        rows = list(checkpoints.values())
        assert all(row.base is rows[0].base for row in rows)
        assert rows[0].base is checkpoints.matrix
        assert checkpoints.matrix.shape == (3, 3)
        for row in rows:
            assert not np.shares_memory(row, state.amplitudes)

    def test_repeated_propagation_reuses_an_unchanged_plan(self):
        """Two propagations of one network return independent matrices and
        identical results, so the kernel leaves the stored plan alone."""
        network = self.network()
        plan = compile_network(network)
        before = [list(column) for column in plan[:4]], plan.ledger_labels, dict(plan.checkpoint_rows)
        state = ModeState([0.6, 0.8j, 0.0])
        first, first_checkpoints = propagate(network, state)
        second, second_checkpoints = propagate(network, state)
        assert compile_network(network) is plan
        assert ([list(column) for column in plan[:4]], plan.ledger_labels, dict(plan.checkpoint_rows)) == before
        assert not np.shares_memory(first_checkpoints.matrix, second_checkpoints.matrix)
        assert not np.shares_memory(first.amplitudes, second.amplitudes)
        assert np.array_equal(first.amplitudes, second.amplitudes)
        assert first.absorbed == second.absorbed
        assert np.array_equal(first_checkpoints.matrix, second_checkpoints.matrix)


class TestNetworkValidation:
    def test_duplicate_checkpoint_names(self):
        with pytest.raises(InvalidNetworkError):
            Network(2, (Checkpoint("x"), Checkpoint("x")))

    def test_element_mode_out_of_range(self):
        with pytest.raises(InvalidNetworkError):
            Network(2, (BeamSplitter(0, 2, 0.1),))
        with pytest.raises(InvalidNetworkError):
            Network(2, (Blocker(2, "x"),))

    def test_equal_coupler_modes(self):
        with pytest.raises(InvalidNetworkError):
            Network(3, (BeamSplitter(2, 2, 0.1),))

    def test_non_finite_angle(self):
        for theta in (math.nan, "0.1", None, 10**400):
            with pytest.raises(InvalidNetworkError):
                Network(2, (BeamSplitter(0, 1, theta),))
        with pytest.raises(InvalidNetworkError):
            apply_beam_splitter(ModeState.single_photon(2), 0, 1, "x")

    @pytest.mark.parametrize("elements", [None, 5, 0.5])
    def test_elements_must_be_iterable(self, elements):
        with pytest.raises(InvalidNetworkError, match="^elements must be an iterable of elements$"):
            Network(3, elements)

    def test_elements_may_be_any_iterable(self):
        splitter = BeamSplitter(0, 1, 0.3)
        assert Network(3, iter([])).elements == ()
        assert Network(3, (e for e in [splitter])).elements == (splitter,)

    def test_bad_mode_count(self):
        with pytest.raises(InvalidNetworkError):
            Network(0)

    @pytest.mark.parametrize(
        "element, message",
        [
            (BeamSplitter(True, 1, 0.1), "beam-splitter mode_a must be an integer mode index"),
            (BeamSplitter(0, 1.0, 0.1), "beam-splitter mode_b must be an integer mode index"),
            (Blocker(False, "x"), "absorber mode must be an integer mode index"),
            (Discard(1.0, "x"), "absorber mode must be an integer mode index"),
            (Blocker(0, ""), "absorber label must be a non-empty string"),
            (Discard(0, ""), "absorber label must be a non-empty string"),
            (Blocker(0, None), "absorber label must be a non-empty string"),
            (Checkpoint(""), "checkpoint name must be a non-empty string"),
            (Checkpoint(7), "checkpoint name must be a non-empty string"),
            ((0, 1, 0.1), "unknown element type tuple"),
            (object(), "unknown element type object"),
        ],
    )
    def test_rejected_element_messages(self, element, message):
        with pytest.raises(InvalidNetworkError) as excinfo:
            Network(2, (element,))
        assert str(excinfo.value) == message

    def test_first_rejection_wins_with_shared_objects(self):
        """Elements are checked in position order and the first invalid one
        names the error, however often valid or invalid objects repeat."""

        class TaggedCheckpoint(Checkpoint):
            pass

        coupler = BeamSplitter(0, 1, 0.3)
        far_blocker = Blocker(5, "x")
        mark, tagged = Checkpoint("x"), TaggedCheckpoint("t")
        cases = [
            ((coupler, far_blocker, coupler, far_blocker), "absorber mode 5 out of range for 2 modes"),
            (
                (coupler, coupler, Checkpoint("a"), coupler, Blocker(0, ""), Checkpoint("")),
                "absorber label must be a non-empty string",
            ),
            ((mark, coupler, mark), "duplicate checkpoint name 'x'"),
            ((coupler, mark, Blocker(0, "y"), mark, far_blocker), "duplicate checkpoint name 'x'"),
            ((TaggedCheckpoint("x"), coupler, TaggedCheckpoint("x")), "duplicate checkpoint name 'x'"),
            ((Checkpoint("x"), TaggedCheckpoint("x")), "duplicate checkpoint name 'x'"),
            ((TaggedCheckpoint("x"), Checkpoint("x")), "duplicate checkpoint name 'x'"),
            ((tagged, coupler, tagged), "duplicate checkpoint name 't'"),
        ]
        for elements, message in cases:
            with pytest.raises(InvalidNetworkError) as excinfo:
                Network(2, elements)
            assert str(excinfo.value) == message

    def test_subclass_instance_is_read_at_every_position(self):
        """Only exact element types are lowered once per object; a subclass
        instance, whose attributes may be computed, is read at each of its
        positions, as a position-by-position walk would."""

        class DriftingSplitter(BeamSplitter):
            reads = 0

            @property
            def theta(self):
                DriftingSplitter.reads += 1
                return 0.25 * DriftingSplitter.reads

            @theta.setter
            def theta(self, value):
                pass

        drifting = DriftingSplitter(0, 1, 0.0)
        plan = compile_network(Network(2, (drifting, Checkpoint("mid"), drifting)))
        assert plan.coeff[0] == (math.cos(0.25), 1j * math.sin(0.25))
        assert plan.coeff[2] == (math.cos(0.5), 1j * math.sin(0.5))

    def test_element_subclass_accepted(self):
        """A subclass of an element type is validated and propagated exactly
        like its base class."""

        class TaggedSplitter(BeamSplitter):
            pass

        class TaggedBlocker(Blocker):
            pass

        class TaggedCheckpoint(Checkpoint):
            pass

        network = Network(
            3,
            (
                TaggedSplitter(0, 1, 0.7),
                TaggedCheckpoint("mid"),
                TaggedBlocker(1, "x"),
                TaggedSplitter(0, 2, -1.1),
            ),
        )
        reference = Network(
            3,
            (BeamSplitter(0, 1, 0.7), Checkpoint("mid"), Blocker(1, "x"), BeamSplitter(0, 2, -1.1)),
        )
        state = ModeState.single_photon(3)
        final, checkpoints = propagate(network, state)
        expected, expected_checkpoints = propagate(reference, state)
        assert np.array_equal(final.amplitudes, expected.amplitudes)
        assert final.absorbed == expected.absorbed
        assert np.array_equal(checkpoints["mid"], expected_checkpoints["mid"])
        with pytest.raises(InvalidNetworkError) as excinfo:
            Network(3, (TaggedSplitter(0, 0, 0.7),))
        assert str(excinfo.value) == "beam splitter needs two distinct modes"


class TestPlanKeyword:
    """``Network(m, elements, _lowered=plan)`` takes a plan lowered
    elsewhere; by default, and under ``dataclasses.replace``, the network
    lowers its own elements."""

    def elements(self):
        return (BeamSplitter(0, 1, 0.1), Checkpoint("a"), BeamSplitter(1, 2, 0.4),
                Blocker(2, "x"), BeamSplitter(0, 1, 0.2))

    def test_lowered_is_a_keyword_only_argument_not_a_field(self):
        elements = self.elements()
        plain = Network(3, elements)
        given = Network(3, elements, _lowered=compile_network(plain))
        assert [f.name for f in fields(Network)] == ["mode_count", "elements", "_plan"]
        assert given == plain and repr(given) == repr(plain) == repr(Network(3, elements))
        with pytest.raises(TypeError):
            Network(3, elements, compile_network(plain))
        with pytest.raises(TypeError):
            Network(3, elements, _plan=compile_network(plain))

    def test_a_given_plan_is_the_networks_plan(self):
        elements = self.elements()
        plan = compile_network(Network(3, elements))
        assert compile_network(Network(3, elements, _lowered=plan)) is plan

    def test_no_plan_lowers_the_elements(self):
        elements = self.elements()
        assert compile_network(Network(3, elements, _lowered=None)) == core._lower(elements, 3)
        with pytest.raises(InvalidNetworkError, match="out of range for 2 modes"):
            Network(2, elements, _lowered=None)

    def test_replace_lowers_the_new_elements_and_checks_the_mode_count(self):
        elements = self.elements()
        network = Network(3, elements, _lowered=compile_network(Network(3, elements)))
        other = (BeamSplitter(0, 2, 0.3), Checkpoint("b"), Discard(1, "y"))
        replaced = replace(network, elements=other)
        assert compile_network(replaced) == core._lower(other, 3)
        assert compile_network(replaced) != compile_network(network)
        with pytest.raises(InvalidNetworkError, match="out of range for 2 modes"):
            replace(network, mode_count=2)
        assert compile_network(replace(network, mode_count=4)) == core._lower(elements, 4)


class TestModeState:
    def test_negative_absorbed_rejected(self):
        for value in (-0.1, "a"):
            with pytest.raises(InvalidNetworkError):
                ModeState([1.0], absorbed={"x": value})
        refused = (
            [math.nan], [1.0, complex(0.0, math.inf)], ["x"], ["1", 0], [b"1", 0],
            [True, False], [np.True_, 0], [True, 0.5], np.array([True, False]), [10**400, 0],
        )
        for amplitudes in refused:
            with pytest.raises(InvalidNetworkError):
                ModeState(amplitudes)

    @pytest.mark.parametrize("absorbed", [5, "ab", object(), [("x", 0.1, 0.2)], [1.5]])
    def test_a_ledger_that_is_no_mapping_is_refused(self, absorbed):
        with pytest.raises(InvalidNetworkError, match="^absorbed must map absorber labels"):
            ModeState([1, 0], absorbed)

    @pytest.mark.parametrize("absorbed, ledger", [
        (None, {}), ((), {}), ({"x": 0.25}, {"x": 0.25}), ([("x", 1)], {"x": 1.0}),
    ])
    def test_a_ledger_is_anything_dict_takes(self, absorbed, ledger):
        assert ModeState([1, 0], absorbed).absorbed == ledger

    def test_ledger_labels_must_be_strings(self):
        with pytest.raises(InvalidNetworkError, match="absorber labels must be strings"):
            ModeState([1, 0], {1: 0.0})

    def test_total_probability_fresh_input(self):
        assert total_probability(ModeState.single_photon(3)) == 1.0

    def test_total_probability_includes_ledger(self):
        theta1 = 0.25
        state = apply_beam_splitter(ModeState.single_photon(3), 0, 1, theta1)
        state = apply_beam_splitter(state, 1, 2, math.pi / 4)
        assert total_probability(state) == pytest.approx(1.0, abs=1e-12)
        blocked = apply_blocker(state, 2, "bob")
        assert total_probability(blocked) == pytest.approx(1.0, abs=1e-12)

    def test_mode_counts_are_bounded(self):
        """States and networks refuse more than ``MAX_MODES`` modes with the
        library's own error, before allocating a state vector."""
        bound = 2**20
        for count in (10**400, bound + 1):
            with pytest.raises(InvalidNetworkError):
                ModeState.single_photon(count)
            with pytest.raises(InvalidNetworkError):
                Network(count, ())
        with pytest.raises(InvalidNetworkError):
            ModeState(np.zeros(bound + 1))
        assert Network(bound, ()).mode_count == bound == core.MAX_MODES
