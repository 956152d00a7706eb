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

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .core import _is_finite
from .errors import BracketError, DomainError
# ``run_protocol`` stays a name of this module: perfbench wraps it here.
from .protocols import NestedConfig, _detector_probabilities, run_protocol

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


@dataclass(frozen=True)
class ChannelModel:
    """Conditional distribution P(outcome | b) as a 2x3 row-stochastic matrix.

    Rows are the sender bits 0 and 1; columns are (D1, D2, none).
    """

    p_given_b: np.ndarray

    def __post_init__(self):
        matrix = np.array(self.p_given_b, dtype=np.float64)
        if matrix.shape != (2, 3):
            raise DomainError(f"channel matrix must be 2x3, got shape {matrix.shape}")
        # Six entries: plain-float checks cost far less than numpy calls.
        rows = matrix.tolist()
        entries = rows[0] + rows[1]
        if not all(map(math.isfinite, entries)):
            raise DomainError("channel entries must be finite")
        low, high = min(entries), max(entries)
        if low < -_ROW_TOL or high > 1 + _ROW_TOL:
            raise DomainError("channel entries must be probabilities in [0, 1]")
        if any(abs(sum(row) - 1.0) > _ROW_TOL for row in rows):
            raise DomainError(f"channel rows must sum to 1, got {matrix.sum(axis=1)}")
        # ``matrix`` is this instance's own copy: clip it in place, entry by
        # entry as np.clip does (-0.0 stays -0.0), when an entry needs it.
        if low < 0.0 or high > 1.0:
            matrix[:] = [[0.0 if p < 0.0 else 1.0 if p > 1.0 else p for p in row] for row in rows]
        object.__setattr__(self, "p_given_b", matrix)

    def row(self, bit: int) -> np.ndarray:
        return self.p_given_b[bit]


@dataclass(frozen=True)
class InputPrior:
    """Probability that the sender transmits b = 0."""

    p0: float

    def __post_init__(self):
        if not _is_finite(self.p0) or not 0.0 <= self.p0 <= 1.0:
            raise DomainError(f"prior p0 must lie in [0, 1], got {self.p0!r}")

    @property
    def p1(self) -> float:
        return 1.0 - self.p0


@dataclass(frozen=True)
class OptimizationResult:
    theta1: float
    theta2: float
    objective_value: float
    objective_name: str
    evaluations: int


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
    return float(channel.p_given_b[0, 1]), float(channel.p_given_b[1, 0])


def _entropy_bits(distribution: Sequence[float]) -> float:
    total = 0.0
    for p in distribution:
        if p > 0.0:
            total -= p * math.log2(p)
    return total


def mutual_information(channel: ChannelModel, prior: InputPrior) -> float:
    """I(B; outcome) in bits, via H(outcome) - H(outcome | B)."""
    # Plain floats: three-entry ndarray arithmetic costs more than the sums.
    weights = (prior.p0, prior.p1)
    rows = channel.p_given_b.tolist()
    marginal = [weights[0] * p + weights[1] * q for p, q in zip(rows[0], rows[1])]
    info = _entropy_bits(marginal)
    for bit in (0, 1):
        info -= weights[bit] * _entropy_bits(rows[bit])
    return float(min(1.0, max(0.0, info)))


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
    ``capacity >= I(uniform) - tol`` hold unconditionally.
    """
    if not (isinstance(tol, (int, float)) and math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be positive, got {tol!r}")

    def info(p0: float) -> float:
        return mutual_information(channel, InputPrior(p0))

    xtol = max(min(float(tol), 1e-6), 1e-12)
    best_x, best_f = _golden_section_max(info, 0.0, 1.0, xtol)
    for candidate in (0.5, 0.0, 1.0):
        value = info(candidate)
        if value > best_f:
            best_x, best_f = candidate, value
    return float(best_f), InputPrior(best_x)


def balanced_theta2(theta1: float) -> float:
    """Closing-coupler angle that equalizes the two success probabilities.

    Uses the closed form ``cos(theta2)^2 = 4 c^2 / (s^2 - 4 c s + 8 c^2)``
    with ``c = cos(theta1)``, ``s = sin(theta1)``.  The non-negative arccos
    root balances the channel only while ``tan(theta1) <= 2``; past that
    point the balancing root is the negative angle of the same magnitude,
    which is what this function returns there.
    """
    if not (isinstance(theta1, (int, float)) and math.isfinite(theta1)):
        raise DomainError(f"theta1 must be a finite angle, got {theta1!r}")
    if not 0.0 < theta1 < _HALF_PI:
        raise DomainError(f"theta1 must lie in (0, pi/2), got {theta1!r}")
    c = math.cos(theta1)
    s = math.sin(theta1)
    rhs = 4.0 * c * c / (s * s - 4.0 * c * s + 8.0 * c * c)
    if not 0.0 <= rhs <= 1.0:
        raise DomainError(f"balance condition has no real solution at theta1={theta1!r}")
    theta2 = math.acos(math.sqrt(rhs))
    return -theta2 if s > 2.0 * c else theta2


def balance_root_solve(theta1: float, tol: float = 1e-10) -> float:
    """Find the balancing theta2 in (0, pi/2) by bisection on p00 - p11.

    Works entirely through propagated protocol runs, so it cross-checks the
    closed form independently.  Raises :class:`BracketError` when the signed
    difference does not change sign on [0, pi/2] (the case tan(theta1) > 2,
    where no non-negative balancing angle exists).
    """
    if not (isinstance(theta1, (int, float)) and math.isfinite(theta1)):
        raise DomainError(f"theta1 must be a finite angle, got {theta1!r}")
    if not 0.0 < theta1 < _HALF_PI:
        raise DomainError(f"theta1 must lie in (0, pi/2), got {theta1!r}")
    if not (isinstance(tol, (int, float)) and math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be positive, got {tol!r}")

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
    points: List[List[float]] = [list(x0), [x0[0] + step, x0[1]], [x0[0], x0[1] + step]]
    values = [f(p) for p in points]
    best_point, best_value = list(x0), values[0]
    for point, value in zip(points, values):
        if value > best_value:
            best_point, best_value = list(point), value

    def record(point, value):
        nonlocal best_point, best_value
        if value > best_value:
            best_point, best_value = list(point), value

    for _ in range(max_iter):
        order = sorted(range(3), key=lambda i: values[i], reverse=True)
        points = [points[i] for i in order]
        values = [values[i] for i in order]
        diameter = max(
            abs(points[i][d] - points[0][d]) for i in (1, 2) for d in (0, 1)
        )
        if diameter < 1e-13:
            break
        centroid = [(points[0][d] + points[1][d]) / 2.0 for d in (0, 1)]
        reflected = [centroid[d] + (centroid[d] - points[2][d]) for d in (0, 1)]
        f_reflected = f(reflected)
        record(reflected, f_reflected)
        if f_reflected > values[0]:
            expanded = [centroid[d] + 2.0 * (centroid[d] - points[2][d]) for d in (0, 1)]
            f_expanded = f(expanded)
            record(expanded, f_expanded)
            if f_expanded > f_reflected:
                points[2], values[2] = expanded, f_expanded
            else:
                points[2], values[2] = reflected, f_reflected
        elif f_reflected > values[1]:
            points[2], values[2] = reflected, f_reflected
        else:
            contracted = [centroid[d] + 0.5 * (points[2][d] - centroid[d]) for d in (0, 1)]
            f_contracted = f(contracted)
            record(contracted, f_contracted)
            if f_contracted > values[2]:
                points[2], values[2] = contracted, f_contracted
            else:
                for i in (1, 2):
                    points[i] = [
                        points[0][d] + 0.5 * (points[i][d] - points[0][d]) for d in (0, 1)
                    ]
                    values[i] = f(points[i])
                    record(points[i], values[i])
    return best_point, best_value


_OBJECTIVE_NAMES = ("min-success", "mutual-info-uniform")

# Work budget of one optimization, in channel evaluations.  An evaluation
# (two protocol runs and the objective) takes about 65 us on an Intel Xeon
# (best of 7 ``optimize_angles("min-success", 24, 200)`` over its 842), so
# the budget, 11 times the 1,379 that grid 24 and refine 200 allow, is ~1 s.
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
    if objective not in _OBJECTIVE_NAMES:
        raise DomainError(
            f"objective must be one of {_OBJECTIVE_NAMES}, got {objective!r}"
        )
    if not isinstance(grid_points, int) or isinstance(grid_points, bool) or grid_points < 8:
        raise DomainError(f"grid_points must be an integer >= 8, got {grid_points!r}")
    if not isinstance(refine_iters, int) or isinstance(refine_iters, bool) or refine_iters < 0:
        raise DomainError(f"refine_iters must be a non-negative integer, got {refine_iters!r}")
    allowed = grid_points * grid_points + 3 + 4 * refine_iters
    if allowed > MAX_OPTIMIZE_EVALUATIONS:
        raise DomainError(
            f"grid_points={grid_points} and refine_iters={refine_iters} allow {allowed} "
            f"channel evaluations, above the budget of {MAX_OPTIMIZE_EVALUATIONS}"
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
        return mutual_information(channel, InputPrior(0.5))

    cell = _HALF_PI / grid_points
    centers = [(i + 0.5) * cell for i in range(grid_points)]
    best_point, best_value = [centers[0], centers[0]], -math.inf
    for theta1 in centers:
        for theta2 in centers:
            value = score((theta1, theta2))
            if value > best_value:
                best_point, best_value = [theta1, theta2], value

    if refine_iters > 0:
        best_point, best_value = _simplex_max(score, best_point, cell / 2.0, refine_iters)

    return OptimizationResult(
        theta1=best_point[0],
        theta2=best_point[1],
        objective_value=best_value,
        objective_name=objective,
        evaluations=evaluations,
    )
