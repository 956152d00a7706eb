"""Independent oracles shared by the test modules.

Everything here is deliberately written against the math, not against the
package internals: detector amplitudes come from the final-state closed
forms, chained networks from 2x2 matrix products with scalar inner-chain
transfer factors, and mutual information from a direct joint-table
summation.  Tests compare the simulator's propagated results to these.
The ``dec_*`` functions evaluate sin, cos and atan to 50 significant digits
with the standard library's ``decimal``, a reference whose own error is far
below any float's rounding.
"""

import math
from decimal import Decimal, localcontext
from types import SimpleNamespace

import numpy as np


def closed_form_final(theta1, theta2, bit):
    """Detector-mode amplitudes (mode 0, mode 1) of the basic protocol.

    For an open emitter arm (bit 1) the detector amplitudes are
    ``(c1 c2, i c1 s2)``; for a blocked arm (bit 0) they are
    ``(c1 c2 - s1 s2 / 2, i (c1 s2 + s1 c2 / 2))``.
    """
    c1, s1 = math.cos(theta1), math.sin(theta1)
    c2, s2 = math.cos(theta2), math.sin(theta2)
    if bit == 1:
        return complex(c1 * c2, 0.0), complex(0.0, c1 * s2)
    return complex(c1 * c2 - 0.5 * s1 * s2, 0.0), complex(0.0, c1 * s2 + 0.5 * s1 * c2)


def closed_form_success(theta1, theta2):
    """(p00, p11) from the closed forms."""
    amp0_b0, amp1_b0 = closed_form_final(theta1, theta2, 0)
    amp0_b1, amp1_b1 = closed_form_final(theta1, theta2, 1)
    return abs(amp1_b0) ** 2, abs(amp0_b1) ** 2


def chain_matrix_oracle(outer_cycles, inner_cycles, outer_angle, inner_angle, final_angle, bit):
    """(p_d1, p_d2) of the chained network via 2x2 matrix products.

    Each inner chain acts on the lower outer arm as a scalar transfer:
    cos((M+1) beta) with the blockers absent (everything that crossed to the
    far arm is discarded at the chain output), cos(beta)^(M+1) with a
    blocker zeroing the far arm after each of the first M couplers.
    """
    if bit == 1:
        transfer = math.cos((inner_cycles + 1) * inner_angle)
    else:
        transfer = math.cos(inner_angle) ** (inner_cycles + 1)

    def coupler(theta):
        return np.array(
            [
                [math.cos(theta), 1j * math.sin(theta)],
                [1j * math.sin(theta), math.cos(theta)],
            ]
        )

    state = np.array([1.0 + 0j, 0.0 + 0j])
    for _ in range(outer_cycles):
        state = coupler(outer_angle) @ state
        state[1] *= transfer
    state = coupler(final_angle) @ state
    return abs(state[0]) ** 2, abs(state[1]) ** 2


def mi_direct_joint(rows, p0):
    """Mutual information by explicit summation over the 2x3 joint table."""
    weights = (p0, 1.0 - p0)
    joint = [[weights[b] * rows[b][y] for y in range(3)] for b in range(2)]
    marginal = [joint[0][y] + joint[1][y] for y in range(3)]
    info = 0.0
    for b in range(2):
        for y in range(3):
            if joint[b][y] > 0.0 and weights[b] > 0.0 and marginal[y] > 0.0:
                info += joint[b][y] * math.log2(joint[b][y] / (weights[b] * marginal[y]))
    return info


def random_channel_rows(rng):
    """A random valid 2x3 row-stochastic matrix."""
    raw = rng.uniform(0.0, 1.0, size=(2, 3))
    return raw / raw.sum(axis=1, keepdims=True)


def random_config_angles(rng):
    """Random (theta1, theta2) over the full validated config domain."""
    return rng.uniform(-math.pi + 1e-9, math.pi), rng.uniform(-math.pi + 1e-9, math.pi)


def fold_elements(state, elements):
    """Sequential reference for ``propagate``, in plain Python complex
    arithmetic: nothing here calls into the package, whose element classes
    only tell the element kinds apart.

    Each coupler maps ``(za, zb)`` to ``(c*za + 1j*s*zb, 1j*s*za + c*zb)``
    with ``c, s = cos(theta), sin(theta)``.  Python groups ``1j*s*zb`` as
    ``(1j*s)*zb``, the kernel's ``js*zb`` with ``js = 1j*sin(theta)``, so
    both evaluate the same operations in the same order and agree bit for
    bit.  An absorber adds ``|z|^2`` to its label's ledger entry and empties
    the mode; ``propagate`` sums a label's absorptions from 0.0 before adding
    the input's entry, so ledgers agree bit for bit when the input's is
    empty.  Fields are read at every position, as ``Network`` reads them
    when it lowers a hand-built network; the kernel reads only the plan.

    Returns ``(final, checkpoints)`` like ``propagate``: ``final`` has the
    ``amplitudes`` (complex128) and ``absorbed`` of the output state, and
    ``checkpoints`` maps each checkpoint name to a complex128 copy of the
    amplitudes at its position.
    """
    from cfoptics import BeamSplitter, Blocker, Checkpoint, Discard

    amps = state.amplitudes.tolist()
    ledger = dict(state.absorbed)
    checkpoints = {}
    for element in elements:
        if isinstance(element, BeamSplitter):
            a, b, theta = element.mode_a, element.mode_b, element.theta
            c, s = math.cos(theta), math.sin(theta)
            za, zb = amps[a], amps[b]
            amps[a] = c * za + 1j * s * zb
            amps[b] = 1j * s * za + c * zb
        elif isinstance(element, (Blocker, Discard)):
            mode, label = element.mode, element.label
            z = amps[mode]
            ledger[label] = ledger.get(label, 0.0) + (z.real * z.real + z.imag * z.imag)
            amps[mode] = 0j
        elif isinstance(element, Checkpoint):
            checkpoints[element.name] = np.array(amps, dtype=np.complex128)
    final = SimpleNamespace(amplitudes=np.array(amps, dtype=np.complex128), absorbed=ledger)
    return final, checkpoints


# Digits of the decimal reference, and the guard digits its series carry.
DEC_DIGITS = 50
_GUARD = 10


def _dec(compute, x):
    """``compute(Decimal(x))`` with guard digits, rounded to ``DEC_DIGITS``;
    a float ``x`` enters as its exact binary value."""
    with localcontext() as ctx:
        ctx.prec = DEC_DIGITS + _GUARD
        result = compute(Decimal(x))
    with localcontext() as ctx:
        ctx.prec = DEC_DIGITS
        return +result


def _dec_series(x, first, step):
    """Sum of the alternating series whose first term is ``first`` and
    whose term k+1 is term k times ``-x^2 / step(k)``, to the working
    precision."""
    total = term = first
    x2, k = x * x, 1
    while True:
        term = -term * x2 / step(k)
        if total + term == total:
            return total
        total += term
        k += 1


def dec_sin(x):
    """sin(x) as a Decimal of ``DEC_DIGITS`` digits (|x| up to a few radians)."""
    return _dec(lambda x: _dec_series(x, x, lambda k: 2 * k * (2 * k + 1)), x)


def dec_cos(x):
    """cos(x) as a Decimal of ``DEC_DIGITS`` digits (|x| up to a few radians)."""
    return _dec(lambda x: _dec_series(x, Decimal(1), lambda k: (2 * k - 1) * 2 * k), x)


def _dec_atan(x):
    # Each halving atan(x) = 2 atan(x / (1 + sqrt(1 + x^2))) shrinks the
    # argument until the series x - x^3/3 + x^5/5 - ... converges fast.
    doublings = 0
    while abs(x) > Decimal("0.01"):
        x /= 1 + (1 + x * x).sqrt()
        doublings += 1
    return _dec_series(x, x, lambda k: Decimal(2 * k + 1) / (2 * k - 1)) * 2 ** doublings


def dec_atan(x):
    """atan(x) as a Decimal of ``DEC_DIGITS`` digits, for any finite x."""
    return _dec(_dec_atan, x)
