"""Classical-channel analysis of the interferometric protocol.

Each coupler configuration induces a binary-input channel: Bob's bit goes
in, Alice observes one of three outcomes (click in D1, click in D2, no
click).  "No click" never counts as success, but it is kept as a third
outcome for the information-theoretic quantities.  This module builds that
channel from protocol runs, evaluates success probabilities, mutual
information and capacity, solves the angle-balance condition making both
success probabilities equal, and searches for optimal coupling angles.

Logarithms are base 2 throughout (bits), with the convention 0 log 0 = 0.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, Callable, Sequence, Tuple

from .core import _BuiltOnRead, _decimal, _finite_real, _integer, _Record
from .errors import BracketError, DomainError
# ``run_protocol`` stays a name of this module: perfbench wraps it here.
from .protocols import NestedConfig, _detector_probabilities, _validate_bit, run_protocol

if TYPE_CHECKING:  # numpy is imported where an array is built
    import numpy

__all__ = [
    "OUTCOME_LABELS",
    "ChannelModel",
    "InputPrior",
    "MAX_OPTIMIZE_EVALUATIONS",
    "OptimizationResult",
    "balance_root_solve",
    "balanced_theta2",
    "capacity",
    "channel_from_protocol",
    "mutual_information",
    "optimize_angles",
    "success_probabilities",
]

OUTCOME_LABELS = ("d1", "d2", "none")

_HALF_PI = math.pi / 2
_ROW_TOL = 1e-12


def _read_only_array(channel: ChannelModel) -> numpy.ndarray:
    import numpy as np

    array = np.array(channel._rows)
    array.flags.writeable = False
    return array


class ChannelModel(_Record):
    """Conditional distribution P(outcome | b) as a 2x3 row-stochastic matrix.

    Rows are the sender bits 0 and 1; columns are (D1, D2, none).  The six
    entries are read by the number rule and kept as floats, which every
    reader in the package takes.  ``p_given_b``, a read-only float64 array
    of them, is built on first read, so only that read imports numpy; a
    write into it raises.  ``_entropies``, the rows' entropies, is built on
    its first read by :func:`mutual_information`.  Two channels are equal,
    and hash alike, when their six entries are, for as long as they live.
    """

    __match_args__ = ("p_given_b",)
    p_given_b = _BuiltOnRead("p_given_b", _read_only_array)
    _entropies = _BuiltOnRead("_entropies", lambda c: tuple(map(_entropy_bits, c._rows)))

    def __init__(self, p_given_b):
        try:
            (a, b, c), (d, e, f) = p_given_b
        except (TypeError, ValueError):
            raise DomainError("channel matrix must be 2x3") from None
        # Exact floats stand as they are (nan and the infinities fail both
        # tests below); any other entry _finite_real refuses reads as nan.
        if not type(a) is type(b) is type(c) is type(d) is type(e) is type(f) is float:
            a, b, c, d, e, f = (math.nan if (p := _finite_real(x)) is None else p
                                for x in (a, b, c, d, e, f))
        # Six entries: straight-line float checks cost far less than numpy
        # calls.  A comparison with nan is false, so the range test alone
        # passes only finite entries; its failure finds the first error.
        low, high = -_ROW_TOL, 1 + _ROW_TOL
        if not (low <= a <= high and low <= b <= high and low <= c <= high
                and low <= d <= high and low <= e <= high and low <= f <= high):
            if not all(map(math.isfinite, (a, b, c, d, e, f))):
                raise DomainError("channel entries must be finite")
            raise DomainError("channel entries must be probabilities in [0, 1]")
        if abs(a + b + c - 1.0) > _ROW_TOL or abs(d + e + f - 1.0) > _ROW_TOL:
            import numpy as np

            sums = np.array(((a, b, c), (d, e, f))).sum(axis=1)
            raise DomainError(f"channel rows must sum to 1, got {sums}")
        # Clip entry by entry as np.clip does (-0.0 stays -0.0), when an
        # entry needs it.
        if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0 and 0.0 <= c <= 1.0
                and 0.0 <= d <= 1.0 and 0.0 <= e <= 1.0 and 0.0 <= f <= 1.0):
            a, b, c, d, e, f = (0.0 if p < 0.0 else 1.0 if p > 1.0 else p
                                for p in (a, b, c, d, e, f))
        self.__dict__["_rows"] = (a, b, c), (d, e, f)

    def row(self, bit: int) -> numpy.ndarray:
        return self.p_given_b[_validate_bit(bit)]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self):
        return hash(self._rows)

    def __getstate__(self):
        # A copied array would be writable, so a copy builds its own.
        return {"_rows": self._rows}


class InputPrior(_Record):
    """Probability that the sender transmits b = 0."""

    __match_args__ = ("p0",)

    def __init__(self, p0: float):
        if (number := _finite_real(p0)) is None or not 0.0 <= number <= 1.0:
            raise DomainError("prior p0 must be a finite real number in [0, 1]")
        self.__dict__["p0"] = number

    @property
    def p1(self) -> float:
        return 1.0 - self.p0


# The uniform prior of the sweep, the capacity report and the
# mutual-info-uniform objective; a frozen value, so one serves every call.
_UNIFORM_PRIOR = InputPrior(0.5)


class OptimizationResult(_Record):
    """The best angles an :func:`optimize_angles` search found, the objective
    there, and the channel evaluations the search used."""

    __match_args__ = ("theta1", "theta2", "objective_value", "objective_name", "evaluations")

    def __init__(self, theta1: float, theta2: float, objective_value: float, objective_name: str,
                 evaluations: int):
        attrs = self.__dict__
        attrs["theta1"], attrs["theta2"], attrs["objective_value"] = theta1, theta2, objective_value
        attrs["objective_name"], attrs["evaluations"] = objective_name, evaluations


def channel_from_protocol(config: NestedConfig) -> ChannelModel:
    """Fill each channel row from the two detectors of one run per bit."""
    rows = []
    for bit in (0, 1):
        p_d1, p_d2 = _detector_probabilities(config, bit)
        rows.append((p_d1, p_d2, max(0.0, 1.0 - p_d1 - p_d2)))
    return ChannelModel(rows)


def success_probabilities(channel: ChannelModel) -> Tuple[float, float]:
    """(P(a=0 | b=0), P(a=1 | b=1)) under argmax decoding: D2 reads as a=0
    and D1 as a=1; "no click" never counts as success."""
    return channel._rows[0][1], channel._rows[1][0]


def _entropy_bits(distribution: Sequence[float]) -> float:
    total = 0.0
    for p in distribution:
        if p > 0.0:
            total -= p * math.log2(p)
    return total


def mutual_information(channel: ChannelModel, prior: InputPrior) -> float:
    """I(B; outcome) in bits, via H(outcome) - H(outcome | B)."""
    return _information(channel, prior.p0)


def _information(channel: ChannelModel, p0: float) -> float:
    """I(B; outcome) in bits at P(b = 0) = ``p0``, a float in [0, 1]."""
    p1 = 1.0 - p0
    (a, b, c), (d, e, f) = channel._rows
    h0, h1 = channel._entropies
    info = _entropy_bits((p0 * a + p1 * d, p0 * b + p1 * e, p0 * c + p1 * f)) - p0 * h0 - p1 * h1
    # min(1.0, max(0.0, info)), nan and -0.0 included, without the two
    # calls: a capacity search makes ~55 probes.
    info = info if info > 0.0 else 0.0
    return info if info < 1.0 else 1.0


def _check_tol(tol) -> float:
    if (number := _finite_real(tol)) is None or number <= 0:
        raise DomainError("tol must be a positive finite real number")
    return number


def _check_theta1(theta1) -> float:
    if (angle := _finite_real(theta1)) is None or not 0.0 < angle < _HALF_PI:
        raise DomainError("theta1 must be a finite real angle in (0, pi/2)")
    return angle


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section_max(f: Callable[[float], float], lo: float, hi: float, xtol: float):
    """Deterministic golden-section maximization of a concave scalar function."""
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    best_x, best_f = (c, fc) if fc >= fd else (d, fd)
    while hi - lo > xtol:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
            if fc > best_f:
                best_x, best_f = c, fc
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
            if fd > best_f:
                best_x, best_f = d, fd
    return best_x, best_f


def capacity(channel: ChannelModel, tol: float = 1e-10) -> Tuple[float, InputPrior]:
    """Channel capacity in bits per use, maximizing I over the input prior.

    Mutual information is concave in the prior, so a golden-section scalar
    search suffices for a binary input.  The uniform prior and both
    endpoints are always evaluated too, which makes
    ``capacity >= I(uniform) - tol`` hold unconditionally.  Each probe is a
    float that the search makes in [0, 1] and reads I at as
    :func:`mutual_information` does; only the optimum becomes an
    :class:`InputPrior`.
    """
    tol = _check_tol(tol)
    xtol = max(min(tol, 1e-6), 1e-12)
    best_x, best_f = _golden_section_max(functools.partial(_information, channel), 0.0, 1.0, xtol)
    for candidate in (0.5, 0.0, 1.0):
        value = _information(channel, candidate)
        if value > best_f:
            best_x, best_f = candidate, value
    return best_f, InputPrior(best_x)


def balanced_theta2(theta1: float) -> float:
    """Closing-coupler angle that equalizes the two success probabilities.

    The success probabilities are ``p00 = (c1 s2 + s1 c2 / 2)^2`` and
    ``p11 = (c1 c2)^2``, equal where ``tan(theta2) = 1 - tan(theta1) / 2``;
    the root lies in (-pi/2, pi/2) and is negative once ``tan(theta1) > 2``.
    """
    return math.atan(1.0 - 0.5 * math.tan(_check_theta1(theta1)))


def balance_root_solve(theta1: float, tol: float = 1e-10) -> float:
    """Find the balancing theta2 in (0, pi/2) by bisection on p00 - p11.

    Works entirely through propagated protocol runs, so it cross-checks the
    closed form independently.  Raises :class:`BracketError` when the signed
    difference does not change sign on [0, pi/2] (the case tan(theta1) > 2,
    where no non-negative balancing angle exists).
    """
    theta1 = _check_theta1(theta1)
    tol = _check_tol(tol)

    def signed_gap(theta2: float) -> float:
        p00, p11 = success_probabilities(
            channel_from_protocol(NestedConfig(theta1, theta2))
        )
        return p00 - p11

    lo, hi = 0.0, _HALF_PI
    gap_lo, gap_hi = signed_gap(lo), signed_gap(hi)
    if gap_lo == 0.0:
        return lo
    if gap_hi == 0.0:
        return hi
    if (gap_lo > 0) == (gap_hi > 0):
        raise BracketError(
            f"p00 - p11 does not change sign on [0, pi/2] at theta1={theta1!r}"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # no float left between the ends
            break
        gap_mid = signed_gap(mid)
        if gap_mid == 0.0:
            return mid
        if (gap_mid > 0) == (gap_lo > 0):
            lo, gap_lo = mid, gap_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _simplex_max(f, x0, step, max_iter):
    """Deterministic Nelder-Mead maximization on two parameters.

    Axis-aligned compass steps stall on the crease of min(p00, p11) along
    the balance curve (no single-coordinate move improves a balanced
    point), so local refinement uses a simplex that can align itself with
    the crease.  Returns the best point/value seen, never worse than x0.
    """
    # Vertices are [value, point].  No step makes the best vertex worse, so
    # it is the best point seen; stable sorts keep ties in evaluation order.
    vertices = [[f(p), p] for p in ([x0[0], x0[1]], [x0[0] + step, x0[1]], [x0[0], x0[1] + step])]
    for _ in range(max_iter):
        vertices.sort(key=lambda vertex: vertex[0], reverse=True)
        (best, p0), (second, p1), (worst, p2) = vertices
        if max(abs(p[d] - p0[d]) for p in (p1, p2) for d in (0, 1)) < 1e-13:
            break
        centroid = [(p0[d] + p1[d]) / 2.0 for d in (0, 1)]
        reflected = [centroid[d] + (centroid[d] - p2[d]) for d in (0, 1)]
        if (f_reflected := f(reflected)) > best:
            expanded = [centroid[d] + 2.0 * (centroid[d] - p2[d]) for d in (0, 1)]
            f_expanded = f(expanded)
            vertices[2] = ([f_expanded, expanded] if f_expanded > f_reflected
                           else [f_reflected, reflected])
        elif f_reflected > second:
            vertices[2] = [f_reflected, reflected]
        else:
            contracted = [centroid[d] + 0.5 * (p2[d] - centroid[d]) for d in (0, 1)]
            if (f_contracted := f(contracted)) > worst:
                vertices[2] = [f_contracted, contracted]
            else:
                for vertex in vertices[1:]:
                    vertex[1] = [p0[d] + 0.5 * (vertex[1][d] - p0[d]) for d in (0, 1)]
                    vertex[0] = f(vertex[1])
    value, point = max(vertices, key=lambda vertex: vertex[0])
    return point, value


_OBJECTIVE_NAMES = ("min-success", "mutual-info-uniform")

# Work budget of one optimization, in channel evaluations.  An evaluation
# (two protocol runs and the objective) takes 16-26 us on a shared 2-vCPU
# Intel Xeon (best of 7 ``optimize_angles("min-success", 24, 200)`` over its
# 842, in each of nine processes; median 17 us), so the budget, 11 times the
# 1,379 that grid 24 and refine 200 allow, is 0.24-0.39 s.
MAX_OPTIMIZE_EVALUATIONS = 15_000


def optimize_angles(
    objective: str, grid_points: int = 32, refine_iters: int = 200
) -> OptimizationResult:
    """Coarse grid search over (theta1, theta2) in (0, pi/2)^2 followed by
    derivative-free simplex refinement from the best grid point.

    ``objective`` is ``"min-success"`` (maximize min(p00, p11)) or
    ``"mutual-info-uniform"`` (maximize I at the uniform prior).  With
    ``refine_iters = 0`` the best grid point is returned unrefined.  The
    result is never below the best grid value.

    The search may use up to ``grid_points**2 + 3 + 4 * refine_iters``
    channel evaluations (the grid, the initial simplex, and at most four
    per refinement step); settings that allow more than
    :data:`MAX_OPTIMIZE_EVALUATIONS` are rejected before the first one.
    """
    if not isinstance(objective, str) or objective not in _OBJECTIVE_NAMES:
        raise DomainError(f"objective must be one of {_OBJECTIVE_NAMES}")
    if (grid := _integer(grid_points)) is None or grid < 8:
        raise DomainError("grid_points must be an integer >= 8")
    if (refine := _integer(refine_iters)) is None or refine < 0:
        raise DomainError("refine_iters must be a non-negative integer")
    allowed = grid * grid + 3 + 4 * refine
    if allowed > MAX_OPTIMIZE_EVALUATIONS:
        raise DomainError(
            f"grid_points={_decimal(grid)} and refine_iters={_decimal(refine)} allow "
            f"{_decimal(allowed)} channel evaluations, above the budget of "
            f"{MAX_OPTIMIZE_EVALUATIONS}"
        )

    evaluations = 0

    def score(point) -> float:
        nonlocal evaluations
        theta1, theta2 = point
        if not (0.0 < theta1 < _HALF_PI and 0.0 < theta2 < _HALF_PI):
            return -1.0  # outside the search domain; worse than any channel
        evaluations += 1
        channel = channel_from_protocol(NestedConfig(theta1, theta2))
        if objective == "min-success":
            return min(success_probabilities(channel))
        return mutual_information(channel, _UNIFORM_PRIOR)

    cell = _HALF_PI / grid
    centers = [(i + 0.5) * cell for i in range(grid)]
    best_point, best_value = [centers[0], centers[0]], -math.inf
    for theta1 in centers:
        for theta2 in centers:
            value = score((theta1, theta2))
            if value > best_value:
                best_point, best_value = [theta1, theta2], value

    if refine > 0:
        best_point, best_value = _simplex_max(score, best_point, cell / 2.0, refine)

    return OptimizationResult(
        theta1=best_point[0],
        theta2=best_point[1],
        objective_value=best_value,
        objective_name=objective,
        evaluations=evaluations,
    )
