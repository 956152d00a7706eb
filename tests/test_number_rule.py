"""One rule for what counts as a number, at every entry point.

A real number is a ``numbers.Real`` that is no ``bool``, and an integer a
``numbers.Integral`` that is no ``bool``; ``numpy.bool_`` is neither.  A
numpy real or integer scalar counts as the Python number it holds, as does
a ``Fraction``.  Text, bytes, booleans, ``Decimal`` and ``complex`` values,
nan, the infinities and integers too large for a float are refused with the
entry point's own ``CfOpticsError`` subclass, never a bare ``TypeError``,
``OverflowError`` or ``ValueError``; where an integer is due, ``1.0`` is
refused too.  Each parameter gives every value it refuses one message,
except where a test pins a message that states a number: a work budget, a
mode index out of range and ``ChannelModel``'s three conditions.
"""

import json
import math
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfoptics import (
    BeamSplitter,
    Blocker,
    ChainConfig,
    ChannelModel,
    DomainError,
    InputPrior,
    InvalidNetworkError,
    ModeState,
    NestedConfig,
    Network,
    apply_beam_splitter,
    apply_blocker,
    balance_root_solve,
    balanced_theta2,
    build_chain_network,
    capacity,
    channel_from_protocol,
    counterfactual_witness,
    optimize_angles,
    propagate,
    run_billiard,
    run_bright_pulse,
    run_protocol,
    run_pulse_relay,
)
from cfoptics.core import MAX_MODES

CONFIG = NestedConfig(0.25, 0.3)
CHANNEL = channel_from_protocol(CONFIG)
OUTCOME = run_protocol(CONFIG, 1)


def _amplitudes(network, mode_count):
    return propagate(network, ModeState.single_photon(mode_count))[0].amplitudes.tolist()


def _chain(config):
    return (config.outer_cycles, config.inner_cycles, config.outer_angle,
            config.inner_angle, config.final_angle)


def _optimum(result):
    return result.theta1, result.theta2, result.objective_value, result.evaluations


# name -> (entry point of one argument, its error, a Python float and a
# Python int it accepts).  0.25 is exact in float32 too.
REAL = {
    "Network coupler angle": (
        lambda v: _amplitudes(Network(2, (BeamSplitter(0, 1, v),)), 2), InvalidNetworkError, 0.25, 1),
    "apply_beam_splitter theta": (
        lambda v: apply_beam_splitter(ModeState.single_photon(2), 0, 1, v).amplitudes.tolist(),
        InvalidNetworkError, 0.25, 1),
    "ModeState ledger value": (
        lambda v: ModeState([1, 0], {"x": v}).absorbed, InvalidNetworkError, 0.25, 1),
    "NestedConfig theta1": (lambda v: run_protocol(NestedConfig(v, 0.3), 1).p_d1, DomainError, 0.25, 1),
    "NestedConfig theta2": (lambda v: run_protocol(NestedConfig(0.25, v), 1).p_d1, DomainError, 0.25, 1),
    "ChainConfig outer_angle": (lambda v: _chain(ChainConfig(2, 3, outer_angle=v)), DomainError, 0.25, 1),
    "ChainConfig inner_angle": (lambda v: _chain(ChainConfig(2, 3, inner_angle=v)), DomainError, 0.25, 1),
    "ChainConfig final_angle": (lambda v: _chain(ChainConfig(2, 3, final_angle=v)), DomainError, 0.25, 1),
    "run_bright_pulse intensity": (
        lambda v: tuple(run_bright_pulse(CONFIG, 0, v)), DomainError, 0.25, 2),
    "InputPrior p0": (lambda v: (InputPrior(v).p0, InputPrior(v).p1), DomainError, 0.25, 1),
    "capacity tol": (lambda v: capacity(CHANNEL, tol=v)[0], DomainError, 0.25, 1),
    "balanced_theta2 theta1": (lambda v: balanced_theta2(v), DomainError, 0.25, 1),
    "balance_root_solve theta1": (lambda v: balance_root_solve(v, 1e-6), DomainError, 0.25, 1),
    "balance_root_solve tol": (lambda v: balance_root_solve(0.25, v), DomainError, 0.25, 1),
    "ChannelModel entry": (
        lambda v: ChannelModel([[v, 0.0, 0.0], [0.0, 1.0, 0.0]]).p_given_b.tobytes(),
        DomainError, 1.0, 1),
}

# name -> (entry point of one argument, its error, a Python int it accepts).
INTEGER = {
    "Network mode_count": (lambda v: Network(v, ()).mode_count, InvalidNetworkError, 2),
    "single_photon mode_count": (
        lambda v: ModeState.single_photon(v).amplitudes.tolist(), InvalidNetworkError, 2),
    "single_photon mode": (
        lambda v: ModeState.single_photon(2, v).amplitudes.tolist(), InvalidNetworkError, 1),
    "Network coupler mode": (
        lambda v: _amplitudes(Network(3, (BeamSplitter(v, 0, 0.25),)), 3), InvalidNetworkError, 1),
    "Network absorber mode": (
        lambda v: propagate(Network(2, (Blocker(v, "x"),)), ModeState.single_photon(2, 1))[0].absorbed,
        InvalidNetworkError, 1),
    "apply_beam_splitter mode": (
        lambda v: apply_beam_splitter(ModeState.single_photon(3), v, 0, 0.25).amplitudes.tolist(),
        InvalidNetworkError, 1),
    "apply_blocker mode": (
        lambda v: apply_blocker(ModeState.single_photon(2, 1), v, "x").absorbed, InvalidNetworkError, 1),
    "run_protocol bit": (lambda v: run_protocol(CONFIG, v).p_d1, DomainError, 1),
    "counterfactual_witness bit": (lambda v: counterfactual_witness(OUTCOME, v), DomainError, 1),
    "run_bright_pulse bit": (lambda v: tuple(run_bright_pulse(CONFIG, v, 2.0)), DomainError, 1),
    "build_chain_network bit": (
        lambda v: len(build_chain_network(ChainConfig(2, 3), v).elements), DomainError, 1),
    "ChainConfig outer_cycles": (lambda v: _chain(ChainConfig(v, 3)), DomainError, 2),
    "ChainConfig inner_cycles": (lambda v: _chain(ChainConfig(2, v)), DomainError, 2),
    "optimize_angles grid_points": (
        lambda v: _optimum(optimize_angles("min-success", v, 0)), DomainError, 8),
    "optimize_angles refine_iters": (
        lambda v: _optimum(optimize_angles("min-success", 8, v)), DomainError, 2),
    "run_billiard bit": (lambda v: run_billiard(v).observation, DomainError, 1),
    "run_pulse_relay bit": (lambda v: run_pulse_relay([v]).decoded, DomainError, 1),
    "ChannelModel.row bit": (lambda v: CHANNEL.row(v).tolist(), DomainError, 1),
}

NOT_NUMBERS = {
    "True": True,
    "numpy True": np.True_,
    "text": "0.25",
    "bytes": b"0.25",
    "decimal": Decimal("0.25"),
    "complex": 0.25 + 0j,
    "400-digit integer": 10**400,
    "5,000-digit integer": 10**5000,
    "nan": math.nan,
    "inf": math.inf,
}


def _refusals(table, extra):
    for name, (call, error, *_) in table.items():
        for label, value in {**NOT_NUMBERS, **extra}.items():
            yield pytest.param(call, error, value, id=f"{name}-{label}")


@pytest.mark.parametrize("call, error, value", [
    *_refusals(REAL, {}), *_refusals(INTEGER, {"1.0": 1.0}),
])
def test_refused_with_the_entry_points_error(call, error, value):
    with pytest.raises(error):
        call(value)


# name -> the numbers outside the parameter's domain, beside nan and the
# infinities.  A mode index out of range is left out: its message states it.
OUT_OF_DOMAIN = {
    "Network coupler angle": (),
    "apply_beam_splitter theta": (),
    "ModeState ledger value": (-0.25,),
    "NestedConfig theta1": (-4.0, 4.0),
    "NestedConfig theta2": (-4.0, 4.0),
    "ChainConfig outer_angle": (-4.0, 4.0),
    "ChainConfig inner_angle": (-4.0, 4.0),
    "ChainConfig final_angle": (-4.0, 4.0),
    "run_bright_pulse intensity": (0.0, -4.0),
    "InputPrior p0": (-0.5, 1.5),
    "capacity tol": (0.0, -1.0),
    "balanced_theta2 theta1": (0.0, 2.0, -4.0),
    "balance_root_solve theta1": (0.0, 2.0, -4.0),
    "balance_root_solve tol": (0.0, -1.0),
    "Network mode_count": (0, -1, MAX_MODES + 1),
    "single_photon mode_count": (0, MAX_MODES + 1),
    "single_photon mode": (-1, 2),
    "Network coupler mode": (),
    "Network absorber mode": (),
    "apply_beam_splitter mode": (),
    "apply_blocker mode": (),
    "run_protocol bit": (-1, 2),
    "counterfactual_witness bit": (-1, 2),
    "run_bright_pulse bit": (-1, 2),
    "build_chain_network bit": (-1, 2),
    "ChainConfig outer_cycles": (0, -1),
    "ChainConfig inner_cycles": (0, -1),
    "optimize_angles grid_points": (7, 0, -1),
    "optimize_angles refine_iters": (-1,),
    "run_billiard bit": (-1, 2),
    "run_pulse_relay bit": (-1, 2),
    "ChannelModel.row bit": (-1, 2),
}

# Parameters whose large integers meet a message that states a number: a
# mode index out of range or a work budget.
STATES_LARGE_INTEGERS = {
    "Network coupler mode", "Network absorber mode", "apply_beam_splitter mode",
    "apply_blocker mode", "ChainConfig outer_cycles", "ChainConfig inner_cycles",
    "optimize_angles grid_points", "optimize_angles refine_iters",
}


def _refused_by_own_check(name):
    """``NOT_NUMBERS``, less the large integers whose message states them,
    the parameter's out-of-domain numbers and the numpy form of each
    refused number."""
    values = [v for v in NOT_NUMBERS.values()
              if not (name in STATES_LARGE_INTEGERS and type(v) is int)]
    outside = OUT_OF_DOMAIN[name]
    if name in REAL:
        outside = (*outside, -math.inf)
        return values + [*outside, *map(np.float64, (*outside, math.nan, math.inf))]
    return values + [*outside, 1.0, np.float64(1.0), *map(np.int64, outside)]


def test_every_parameter_lists_its_out_of_domain_numbers():
    assert set(OUT_OF_DOMAIN) == (set(REAL) | set(INTEGER)) - {"ChannelModel entry"}


@pytest.mark.parametrize("name", sorted(OUT_OF_DOMAIN))
def test_one_message_per_parameter_whatever_the_type(name):
    """A refused value reads the same whatever its type: nan, the
    infinities and out-of-domain numbers as Python or numpy scalars, text,
    bytes, booleans and an int too long to print."""
    call, error, *_ = {**REAL, **INTEGER}[name]
    messages = set()
    for value in _refused_by_own_check(name):
        with pytest.raises(error) as caught:
            call(value)
        messages.add(str(caught.value))
    assert len(messages) == 1, messages


@pytest.mark.parametrize("name", sorted(STATES_LARGE_INTEGERS))
def test_a_stated_number_too_long_to_print_keeps_the_error(name):
    call, error, *_ = INTEGER[name]
    with pytest.raises(error, match="-bit integer>"):
        call(10**5000)


@pytest.mark.parametrize("name", sorted(REAL))
@pytest.mark.parametrize("scalar", [np.float64, np.float32, Fraction])
def test_real_scalars_count_as_the_python_float(name, scalar):
    call, _, real, _ = REAL[name]
    assert call(scalar(real)) == call(real)


@pytest.mark.parametrize("name", sorted(REAL))
def test_numpy_integers_count_as_the_python_int_where_a_real_is_due(name):
    call, _, _, integer = REAL[name]
    assert call(np.int64(integer)) == call(integer)


@pytest.mark.parametrize("name", sorted(INTEGER))
def test_numpy_integers_count_as_the_python_int(name):
    call, _, integer = INTEGER[name]
    assert call(np.int64(integer)) == call(integer)


def test_converted_values_are_stored_as_python_numbers():
    nested = NestedConfig(np.float32(0.25), np.float64(0.3))
    assert [type(v) for v in (nested.theta1, nested.theta2)] == [float] * 2
    chain = ChainConfig(np.int64(2), np.int64(3), outer_angle=np.float32(0.25))
    assert [type(v) for v in _chain(chain)] == [int, int, float, float, float]
    assert type(InputPrior(np.float32(0.25)).p0) is float
    assert type(Network(np.int64(2), ()).mode_count) is int
    assert type(ModeState([1, 0], {"x": np.int64(0)}).absorbed["x"]) is float


def test_budgets_count_fixed_width_integers_exactly():
    # In int64 arithmetic 2**62 * 17 + 1 wraps around to 2**62 + 1, and
    # 4 * 2**62 to 0; the budgets count in Python ints.
    with pytest.raises(DomainError, match="needs 78398662313265594369 elements"):
        ChainConfig(np.int64(2**62), 3)
    with pytest.raises(DomainError, match="allow 18446744073709551683 channel evaluations"):
        optimize_angles("min-success", 8, np.int64(2**62))


BIG = 10**400


@pytest.mark.parametrize("command, config, name", [
    ("simulate", {"theta1": BIG, "balanced": True, "bit": 1}, "theta1"),
    ("capacity", {"theta1": 0.25, "balanced": True, "tol": BIG}, "tol"),
    ("simulate", {"theta1": 0.25, "theta2": -BIG, "bit": 0}, "theta2"),
    ("sweep", {"theta1": [0.1, BIG], "balanced": True}, "theta1 range endpoint"),
], ids=["simulate-theta1", "capacity-tol", "simulate-theta2", "sweep-range-end"])
def test_cli_refuses_a_400_digit_config_number(tmp_path, command, config, name):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(config))
    completed = subprocess.run(
        [sys.executable, "-m", "cfoptics", command, "--config", str(path)],
        capture_output=True, text=True,
    )
    assert completed.returncode == 2
    assert completed.stdout == ""
    assert completed.stderr.startswith(f"cfoptics {command}: error: {name} must be ")
    assert "Traceback" not in completed.stderr



class _Float(float):
    """A float that is no exact ``float``, so an entry point reads it by
    the number rule."""


# Entries at the edges of ChannelModel's checks: nan, the infinities, the
# signed zeros and numbers just inside and just outside its 1e-12 tolerance
# around [0, 1].
_CHANNEL_EDGES = (math.nan, math.inf, -math.inf, 0.0, -0.0, 0.5, 1.0, -5e-13, -1e-12, -2e-12,
                  1 + 5e-13, 1 + 1e-12, 1 + 2e-12)
_CHANNEL_ENTRY = st.one_of(st.sampled_from(_CHANNEL_EDGES), st.floats(-1e-11, 1 + 1e-11), st.floats())
_CLOSE_TO_A_PROBABILITY = st.one_of(st.sampled_from((0.0, -0.0, -5e-13, 1.0, 1 + 5e-13)), st.floats(0.0, 1.0))


@st.composite
def _channel_rows(draw):
    """Two rows of three floats: drawn entry by entry, or two entries near
    [0, 1] and a third that makes the sum 1 up to an offset near the
    tolerance."""
    rows = []
    for _ in range(2):
        if draw(st.booleans()):
            rows.append(tuple(draw(_CHANNEL_ENTRY) for _ in range(3)))
            continue
        p = draw(_CLOSE_TO_A_PROBABILITY)
        q = draw(_CLOSE_TO_A_PROBABILITY) * (1.0 - p)
        offset = draw(st.sampled_from((0.0, 5e-13, -5e-13, 2e-12, -2e-12)))
        rows.append((p, q, 1.0 - p - q + offset))
    return rows


def _channel_bytes_or_error(rows):
    try:
        return ChannelModel(rows).p_given_b.tobytes()
    except Exception as exc:  # compared, not hidden: both builds must agree
        return type(exc), str(exc)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(_channel_rows())
def test_exact_float_channel_entries_read_as_the_number_rule_reads_them(rows):
    """ChannelModel takes six exact floats as they are and reads any other
    entries by the number rule; either way it stores the same bytes or
    refuses with the same error and message."""
    wrapped = [[_Float(p) for p in row] for row in rows]
    assert _channel_bytes_or_error(rows) == _channel_bytes_or_error(wrapped)
