"""Property tests over the validated angle domain.

Examples are derandomized and bounded, so every run checks the same
inputs and the suite stays deterministic and fast.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cfoptics import (
    BeamSplitter,
    Blocker,
    ChainConfig,
    Checkpoint,
    Discard,
    ModeState,
    NestedConfig,
    Network,
    propagate,
    run_chain,
    run_protocol,
    total_probability,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

# The validated angle domain (-pi, pi].
angles = st.floats(min_value=-math.pi, max_value=math.pi, exclude_min=True)
bits = st.sampled_from((0, 1))
components = st.floats(min_value=-2.0, max_value=2.0)
amplitudes = st.lists(st.builds(complex, components, components), min_size=4, max_size=4)


@st.composite
def networks(draw, mode_count=4):
    elements = []
    for k in range(draw(st.integers(min_value=0, max_value=16))):
        kind = draw(st.sampled_from(("split", "block", "discard", "checkpoint")))
        if kind == "split":
            mode_a, mode_b = draw(
                st.lists(st.integers(0, mode_count - 1), min_size=2, max_size=2, unique=True)
            )
            elements.append(BeamSplitter(mode_a, mode_b, draw(angles)))
        elif kind == "checkpoint":
            elements.append(Checkpoint(f"cp{k}"))
        else:
            cls = Blocker if kind == "block" else Discard
            elements.append(cls(draw(st.integers(0, mode_count - 1)), draw(st.sampled_from("xyz"))))
    return Network(mode_count, tuple(elements))


def nested_total(outcome):
    return outcome.p_d1 + outcome.p_d2 + outcome.absorbed["bob"] + outcome.absorbed["discard"]


@PROPERTY
@given(angles, angles, bits)
def test_nested_run_conserves_probability(theta1, theta2, bit):
    assert abs(nested_total(run_protocol(NestedConfig(theta1, theta2), bit)) - 1.0) <= 1e-12


@PROPERTY
@given(
    st.integers(1, 4), st.integers(1, 6), angles, angles, angles, bits
)
def test_small_chain_conserves_probability(outer, inner, outer_angle, inner_angle, final_angle, bit):
    chain = ChainConfig(outer, inner, outer_angle, inner_angle, final_angle)
    outcome = run_chain(chain, bit)
    total = outcome.p_d1 + outcome.p_d2 + outcome.absorbed["bob"] + outcome.absorbed["discard"]
    assert abs(total - 1.0) <= 1e-12


@PROPERTY
@given(networks(), amplitudes, st.builds(complex, components, components))
def test_propagate_is_linear(network, amps, scale):
    """Propagating c*psi scales amplitudes and snapshots by c and the ledger
    by |c|^2."""
    base, base_checkpoints = propagate(network, ModeState(amps))
    scaled, scaled_checkpoints = propagate(network, ModeState([scale * z for z in amps]))
    np.testing.assert_allclose(scaled.amplitudes, scale * base.amplitudes, rtol=1e-12, atol=1e-12)
    for name, snapshot in base_checkpoints.items():
        np.testing.assert_allclose(scaled_checkpoints[name], scale * snapshot, rtol=1e-12, atol=1e-12)
    assert set(scaled.absorbed) == set(base.absorbed)
    for label, value in base.absorbed.items():
        assert math.isclose(scaled.absorbed[label], abs(scale) ** 2 * value, rel_tol=1e-12, abs_tol=1e-12)
    assert math.isclose(
        total_probability(scaled), abs(scale) ** 2 * total_probability(base), rel_tol=1e-12, abs_tol=1e-12
    )


@PROPERTY
@given(angles, angles)
def test_blocked_arm_emits_exactly_nothing(theta1, theta2):
    assert run_protocol(NestedConfig(theta1, theta2), 0).legs["bob_to_charlie"] == 0


@PROPERTY
@given(st.integers(1, 4), st.integers(1, 6), angles, angles, angles)
def test_blocked_chain_emits_exactly_nothing(outer, inner, outer_angle, inner_angle, final_angle):
    chain = ChainConfig(outer, inner, outer_angle, inner_angle, final_angle)
    assert run_chain(chain, 0).leg_peaks["bob_to_charlie"] == 0.0


@PROPERTY
@given(angles, angles)
def test_open_arm_returns_nothing_to_alice(theta1, theta2):
    """Exact 50-50 inner couplers cancel the return leg for b = 1; only
    rounding is left."""
    leg = run_protocol(NestedConfig(theta1, theta2), 1).legs["charlie_to_alice"]
    assert abs(leg) ** 2 < 1e-30
