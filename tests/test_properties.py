"""Property tests over the validated angle domain.

Examples are derandomized and bounded, so every run checks the same
inputs and the suite stays deterministic and fast.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfoptics import (
    LEG_NAMES,
    BeamSplitter,
    Blocker,
    ChainConfig,
    ChannelModel,
    Checkpoint,
    Discard,
    DomainError,
    InputPrior,
    ModeState,
    NestedConfig,
    Network,
    build_chain_network,
    build_nested_network,
    capacity,
    mutual_information,
    propagate,
    run_bright_pulse,
    run_chain,
    run_protocol,
    total_probability,
)
from cfoptics import analysis, cli, core
from cfoptics.kernel import OP_ABSORB, OP_SNAPSHOT, OP_SPLIT

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


LEG_MODE = {"alice_to_charlie": 1, "charlie_to_bob": 2, "bob_to_charlie": 2, "charlie_to_alice": 1}


@PROPERTY
@given(st.integers(1, 4), st.integers(1, 6), angles, angles, angles, bits)
def test_chain_outcome_is_the_per_checkpoint_reference(
    outer, inner, outer_angle, inner_angle, final_angle, bit
):
    """run_chain reads leg peaks from snapshot columns; a loop over
    propagate's checkpoint dict, name by name, gives the same numbers bit
    for bit."""
    chain = ChainConfig(outer, inner, outer_angle, inner_angle, final_angle)
    outcome = run_chain(chain, bit)
    final, checkpoints = propagate(build_chain_network(chain, bit), ModeState.single_photon(3))
    amplitudes = {leg: [] for leg in LEG_NAMES}
    for name, vector in checkpoints.items():
        leg = name.partition("[")[0]
        amplitudes[leg].append(vector.item(LEG_MODE[leg]))
    assert outcome.leg_peaks == {
        leg: max([abs(z) ** 2 for z in values], default=0.0) for leg, values in amplitudes.items()
    }
    assert outcome.p_d1 == abs(final.amplitudes.item(0)) ** 2
    assert outcome.p_d2 == abs(final.amplitudes.item(1)) ** 2
    assert outcome.absorbed == {
        "bob": final.absorbed.get("bob", 0.0),
        "discard": final.absorbed.get("discard", 0.0),
    }


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


# Inner-coupler detuning: exact 50-50 couplers and detuned ones.
offsets = st.one_of(st.just(0.0), st.floats(min_value=-0.5, max_value=0.5))


@PROPERTY
@given(angles, angles, offsets, st.floats(min_value=1e-3, max_value=1e9))
def test_detector_only_runs_are_run_protocol(theta1, theta2, offset, intensity):
    """Channel rows and bright-pulse intensities read only the detectors;
    they equal what the full ``run_protocol`` outcome gives, bit for bit."""
    config = NestedConfig(theta1, theta2, inner_offset=offset)
    expected = []
    for bit in (0, 1):
        outcome = run_protocol(config, bit)
        p_d1, p_d2 = outcome.p_d1, outcome.p_d2
        expected.append((p_d1, p_d2, max(0.0, 1.0 - p_d1 - p_d2)))
        i_d1, i_d2 = intensity * p_d1, intensity * p_d2
        if i_d1 != i_d2:  # an exact tie is refused, not read
            reading = run_bright_pulse(config, bit, intensity)
            assert (reading.i_d1, reading.i_d2) == (i_d1, i_d2)
    # ChannelModel clips the expected rows as it clips the computed ones.
    channel = analysis.channel_from_protocol(config)
    assert channel.p_given_b.tolist() == ChannelModel(expected).p_given_b.tolist()


# Channel entries on and just past the edges of [0, 1], inside the 1e-12
# tolerance ChannelModel accepts.
EDGES = (-1e-13, -0.0, 0.0, 1.0 + 1e-13)
edge_or_probability = st.one_of(st.sampled_from(EDGES), st.floats(0.0, 1.0))
priors = st.one_of(st.sampled_from((0.0, 0.5, 1.0)), st.floats(0.0, 1.0))


@st.composite
def channel_rows(draw):
    rows = []
    for _ in range(2):
        first = draw(edge_or_probability)
        second = draw(st.one_of(st.sampled_from(EDGES), st.floats(0.0, max(0.0, 1.0 - first))))
        rows.append(draw(st.permutations((first, second, 1.0 - first - second))))
    return rows


def valid_channel(rows):
    return all(-1e-12 <= p <= 1.0 + 1e-12 for row in rows for p in row)


def bits_of(value):
    return np.float64(value).tobytes()


def reference_entropy_bits(distribution):
    total = 0.0
    for p in distribution:
        if p > 0.0:
            total -= p * math.log2(p)
    return total


def reference_mutual_information(channel, prior):
    """H(outcome) - H(outcome | B) with the rows and the marginal as
    ndarrays: the formula the float-native version must reproduce."""
    weights = (prior.p0, prior.p1)
    marginal = weights[0] * channel.p_given_b[0] + weights[1] * channel.p_given_b[1]
    info = reference_entropy_bits(marginal)
    for bit in (0, 1):
        info -= weights[bit] * reference_entropy_bits(channel.p_given_b[bit])
    return float(min(1.0, max(0.0, info)))


@PROPERTY
@given(channel_rows().filter(valid_channel))
def test_channel_clip_is_numpy_clip(rows):
    expected = np.clip(np.array(rows, dtype=np.float64), 0.0, 1.0)
    matrix = ChannelModel(rows).p_given_b
    assert matrix.dtype == expected.dtype and matrix.shape == expected.shape
    assert matrix.tobytes() == expected.tobytes()


ROW_TOL = 1e-12


def around(x):
    return math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)


# Entries on and one ulp either side of every edge of the accepted range,
# the edges of [0, 1] themselves and the non-finite values, drawn as often as
# ordinary probabilities; offsets that put a row's sum at 1, inside
# 1 +- 1e-12, and on and either side of its edges.
INSIDE = (-ROW_TOL, math.nextafter(-ROW_TOL, 0.0), -0.0, 0.0, *around(ROW_TOL),
          *around(1.0 - ROW_TOL), 1.0, math.nextafter(1.0 + ROW_TOL, 0.0), 1.0 + ROW_TOL)
OUTSIDE = (math.nextafter(-ROW_TOL, -math.inf), math.nextafter(1.0 + ROW_TOL, math.inf),
           math.inf, -math.inf, math.nan)
SUM_OFFSETS = (0.0, 0.5 * ROW_TOL, -0.5 * ROW_TOL, *around(ROW_TOL), *around(-ROW_TOL))


@st.composite
def boundary_rows(draw):
    entry = st.one_of(st.sampled_from(INSIDE), st.floats(0.0, 1.0), st.sampled_from(INSIDE + OUTSIDE))
    rows = []
    for _ in range(2):
        first = draw(entry)
        second = draw(entry) if draw(st.booleans()) else (1.0 - first) * draw(st.floats(0.0, 1.0))
        if draw(st.integers(0, 3)) == 0:
            third = draw(entry)
        else:
            third = 1.0 - first - second + draw(st.sampled_from(SUM_OFFSETS))
        rows.append(draw(st.permutations((first, second, third))))
    return rows


def reference_channel_error(rows):
    """The refusal ``rows`` must meet, or None: every entry finite, then
    every entry in [-1e-12, 1 + 1e-12], then every row summing to 1 within
    1e-12.  A row is summed left to right, as ``sum`` does up to Python 3.11."""
    entries = [p for row in rows for p in row]
    if not all(math.isfinite(p) for p in entries):
        return "channel entries must be finite"
    if not all(-ROW_TOL <= p <= 1.0 + ROW_TOL for p in entries):
        return "channel entries must be probabilities in [0, 1]"
    if any(abs((row[0] + row[1]) + row[2] - 1.0) > ROW_TOL for row in rows):
        return f"channel rows must sum to 1, got {np.array(rows, dtype=np.float64).sum(axis=1)}"
    return None


@settings(PROPERTY, max_examples=300)
@given(boundary_rows())
def test_channel_accepts_and_refuses_like_the_reference(rows):
    expected = reference_channel_error(rows)
    try:
        matrix = ChannelModel(rows).p_given_b
    except DomainError as exc:
        assert str(exc) == expected
    else:
        assert expected is None
        assert matrix.tobytes() == np.clip(np.array(rows, dtype=np.float64), 0.0, 1.0).tobytes()


def channel_bytes_or_message(rows):
    try:
        return ChannelModel(rows).p_given_b.tobytes()
    except DomainError as exc:
        return str(exc)


@settings(PROPERTY, max_examples=150)
@given(boundary_rows())
def test_numpy_entries_give_the_float_channel(rows):
    """Entries read by the number rule, as an ndarray's are, are accepted,
    refused and stored exactly as the Python floats they hold."""
    expected = channel_bytes_or_message(rows)
    assert channel_bytes_or_message(np.array(rows)) == expected
    assert channel_bytes_or_message([list(map(np.float64, row)) for row in rows]) == expected


@PROPERTY
@given(channel_rows().filter(valid_channel), priors)
def test_mutual_information_is_the_ndarray_formula(rows, p0):
    channel, prior = ChannelModel(rows), InputPrior(p0)
    assert bits_of(mutual_information(channel, prior)) == bits_of(
        reference_mutual_information(channel, prior)
    )


@PROPERTY
@given(channel_rows().filter(valid_channel), st.sampled_from((1e-10, 1e-6, 1e-3)))
def test_capacity_is_the_ndarray_formula(rows, tol):
    """The same search over the reference formula finds the same optimum,
    bit for bit."""
    channel = ChannelModel(rows)
    bits, prior = capacity(channel, tol)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "mutual_information", reference_mutual_information)
        expected_bits, expected_prior = capacity(channel, tol)
    assert bits_of(bits) == bits_of(expected_bits)
    assert bits_of(prior.p0) == bits_of(expected_prior.p0)



@st.composite
def simplex_objectives(draw):
    """A 2-D objective (smooth, a minimum of trig terms, or a plateau
    rounded to exact ties) that reads -1 outside a random box."""
    kind = draw(st.sampled_from(("quadratic", "trig", "plateau")))
    a, b, c, d = draw(st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4))
    digits = draw(st.integers(0, 2))
    low, high = draw(st.floats(-1.0, 0.4)), draw(st.floats(0.6, 2.0))

    def objective(point):
        x, y = point
        if not (low < x < high and low < y < high):
            return -1.0
        if kind == "trig":
            return min(math.sin(a * x + b), math.cos(c * y + d))
        value = -(x - a) ** 2 - 3.0 * (y - b) ** 2 + c * x * y
        return round(value, digits) if kind == "plateau" else value

    return objective


@settings(PROPERTY, max_examples=150)
@given(simplex_objectives(), st.tuples(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5)),
       st.sampled_from((1e-3, 0.1, 0.5)), st.integers(0, 200))
def test_simplex_returns_the_first_best_point_it_evaluated(objective, start, step, max_iter):
    """The refinement returns the largest value it evaluated, at the first
    point that reached it, within three evaluations plus four per step."""
    seen = []

    def recorded(point):
        value = objective(point)
        seen.append((tuple(point), value))
        return value

    point, value = analysis._simplex_max(recorded, list(start), step, max_iter)
    assert value == max(v for _, v in seen)
    assert tuple(point) == next(p for p, v in seen if v == value)
    assert len(seen) <= 3 + 4 * max_iter

class TaggedSplitter(BeamSplitter):
    pass


class TaggedBlocker(Blocker):
    pass


class TaggedDiscard(Discard):
    pass


class TaggedCheckpoint(Checkpoint):
    pass


@st.composite
def shared_element_networks(draw):
    """Networks over a small pool of element objects placed at several
    positions each: exact types and subclasses, distinct absorbers that
    share a label, and fresh checkpoints of both kinds between them."""
    mode_count = draw(st.integers(min_value=2, max_value=5))
    modes = st.integers(0, mode_count - 1)
    pool = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        kind = draw(st.sampled_from((BeamSplitter, TaggedSplitter, Blocker, TaggedBlocker, Discard, TaggedDiscard)))
        if issubclass(kind, BeamSplitter):
            mode_a, mode_b = draw(st.lists(modes, min_size=2, max_size=2, unique=True))
            pool.append(kind(mode_a, mode_b, draw(angles)))
        else:
            pool.append(kind(draw(modes), draw(st.sampled_from("xy"))))
    elements = []
    for k in range(draw(st.integers(min_value=0, max_value=24))):
        if draw(st.booleans()):
            elements.append(draw(st.sampled_from(pool)))
        else:
            elements.append(draw(st.sampled_from((Checkpoint, TaggedCheckpoint)))(f"cp{k}"))
    return Network(mode_count, tuple(elements))


def reference_lowering(elements):
    """Element-by-element lowering to the kernel's plan: couplers carry
    ``(cos theta, 1j * sin theta)``, absorbers their label's ledger slot and
    checkpoints their snapshot row, slots and rows in first-seen order."""
    ops, arg_a, arg_b, coeff, labels, rows = [], [], [], [], [], {}
    for element in elements:
        if isinstance(element, BeamSplitter):
            theta = element.theta
            entry = (OP_SPLIT, element.mode_a, element.mode_b, (math.cos(theta), 1j * math.sin(theta)))
        elif isinstance(element, Checkpoint):
            entry = (OP_SNAPSHOT, len(rows), 0, None)
            rows[element.name] = len(rows)
        else:
            if element.label not in labels:
                labels.append(element.label)
            entry = (OP_ABSORB, element.mode, labels.index(element.label), None)
        for column, value in zip((ops, arg_a, arg_b, coeff), entry):
            column.append(value)
    return ops, arg_a, arg_b, coeff, tuple(labels), rows


@PROPERTY
@given(shared_element_networks())
def test_plan_is_the_element_by_element_lowering(network):
    """The plan stored at construction, lowered once per distinct element
    object, equals lowering every position on its own."""
    plan = core.compile_network(network)
    ops, arg_a, arg_b, coeff, labels, rows = reference_lowering(network.elements)
    assert list(plan.ops) == ops
    assert list(plan.arg_a) == arg_a
    assert list(plan.arg_b) == arg_b
    assert list(plan.coeff) == coeff
    assert plan.ledger_labels == labels
    assert list(plan.checkpoint_rows.items()) == list(rows.items())


def plan_columns(plan):
    return ([list(column) for column in plan[:4]], plan.ledger_labels,
            list(plan.checkpoint_rows.items()))


@settings(PROPERTY, max_examples=100)
@given(angles, angles, offsets, bits)
def test_nested_plan_is_the_element_by_element_lowering(theta1, theta2, offset, bit):
    """A nested build's plan, the shared open plan with its outer couplers'
    coefficients spliced in (or, under an inner offset, the layout lowered
    in full), is the lowering of its elements one by one."""
    network = build_nested_network(NestedConfig(theta1, theta2, offset), bit)
    assert plan_columns(core.compile_network(network)) == plan_columns(
        core._lower(network.elements, 3))


def reference_number(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if value == 0.0:
        return "0"
    return format(float(value), ".12g")


def reference_json(value, indent=0):
    """The renderer's contract, one isinstance test after another: two-space
    indentation, JSON strings, 12 significant digits, -0.0 as 0."""
    pad, inner = "  " * indent, "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [f"{inner}{json.dumps(str(key))}: {reference_json(item, indent + 1)}"
                 for key, item in value.items()]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        parts = [f"{inner}{reference_json(item, indent + 1)}" for item in value]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    return reference_number(value)


def reference_flatten(value, prefix, out):
    if isinstance(value, dict):
        for key, item in value.items():
            reference_flatten(item, f"{prefix}.{key}" if prefix else str(key), out)
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            reference_flatten(item, f"{prefix}[{index}]", out)
    elif isinstance(value, str):
        out.append((prefix, value))
    elif value is None:
        out.append((prefix, ""))
    else:
        out.append((prefix, reference_number(value)))


def reference_csv(document):
    results = document["results"]
    if isinstance(results, dict) and "columns" in results and "rows" in results:
        lines = [",".join(results["columns"])]
        for row in results["rows"]:
            lines.append(",".join(cell if isinstance(cell, str) else reference_number(cell)
                                  for cell in row))
        return "\n".join(lines) + "\n"
    pairs = []
    reference_flatten(document, "", pairs)
    return "\n".join(["key,value"] + [f"{key},{value}" for key, value in pairs]) + "\n"


numbers = st.one_of(
    st.sampled_from((0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, math.nan, math.inf, -math.inf)),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-10**20, 10**20),
    st.booleans(),
    st.floats(allow_nan=True).map(np.float64),
)
leaves = st.one_of(numbers, st.none(), st.text(max_size=6))
keys = st.text(max_size=6)
trees = st.recursive(
    leaves,
    lambda children: st.one_of(st.lists(children, max_size=4), st.tuples(children, children),
                               st.dictionaries(keys, children, max_size=4)),
    max_leaves=24,
)
tables = st.fixed_dictionaries({
    "columns": st.lists(keys, min_size=1, max_size=4),
    "rows": st.lists(st.lists(st.one_of(numbers, st.text(max_size=6)), max_size=4), max_size=4),
})


@settings(PROPERTY, max_examples=200)
@given(st.dictionaries(keys, trees, max_size=3), st.one_of(trees, tables))
def test_rendering_is_the_reference_renderer(extra, results):
    """JSON and CSV documents, nested or tabular, render to the reference's
    bytes whatever mix of numbers, strings and None they hold."""
    document = {**extra, "results": results}
    assert cli._render(document, "json") == reference_json(document) + "\n"
    assert cli._render(document, "csv") == reference_csv(document)
