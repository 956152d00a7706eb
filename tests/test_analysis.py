"""Channel analysis: rows, information measures, balance solvers, optimizer."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from cfoptics import (
    BracketError,
    ChannelModel,
    DomainError,
    InputPrior,
    NestedConfig,
    balance_root_solve,
    balanced_theta2,
    capacity,
    channel_from_protocol,
    mutual_information,
    optimize_angles,
    run_protocol,
    success_probabilities,
)
from cfoptics import analysis
from helpers import (
    DEC_DIGITS,
    closed_form_success,
    dec_atan,
    dec_cos,
    dec_sin,
    mi_direct_joint,
    random_channel_rows,
)

RNG = np.random.default_rng(90125)

THETA1 = 0.25
COS_SQ_THETA2 = 0.567872729906958
THETA2_BALANCED = 0.717315239296132
P_SUCCESS = 0.533113967523193

BALANCED_ROW_B0 = (0.420979493185697, 0.533113967523193, 0.0459065392911102)
BALANCED_ROW_B1 = (0.533113967523193, 0.405677313421993, 0.0612087190548136)


class TestChannelModel:
    def test_rows_must_sum_to_one(self):
        with pytest.raises(DomainError):
            ChannelModel(np.array([[0.5, 0.4, 0.0], [0.1, 0.2, 0.7]]))

    def test_entries_must_be_probabilities(self):
        with pytest.raises(DomainError):
            ChannelModel(np.array([[1.2, -0.2, 0.0], [0.1, 0.2, 0.7]]))

    def test_shape_checked(self):
        for rows in (np.array([[0.5, 0.5], [0.5, 0.5]]), [[1.0, 0.0, 0.0]], "ab", 5, None,
                     [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]):
            with pytest.raises(DomainError, match="^channel matrix must be 2x3$"):
                ChannelModel(rows)

    def test_entries_follow_the_number_rule(self):
        """An entry the number rule refuses is refused as not finite."""
        for entry in (True, np.True_, "1", b"1", "0.5", 1 + 0j, np.complex128(1), Decimal(1),
                      10**400, 10**5000):
            with pytest.raises(DomainError, match="^channel entries must be finite$"):
                ChannelModel([[entry, 0.0, 0.0], [0.0, 1.0, 0.0]])

    def test_entries_of_any_real_type_give_the_float_channel(self):
        rows = [[0.25, 0.5, 0.25], [1.0, 0.0, 0.0]]
        expected = ChannelModel(rows).p_given_b.tobytes()
        for typed in ([[np.float64(0.25), np.float32(0.5), Fraction(1, 4)], [1, np.int64(0), 0]],
                      np.array(rows), np.array(rows, dtype=np.float32),
                      [tuple(row) for row in rows]):
            assert ChannelModel(typed).p_given_b.tobytes() == expected


class TestChannelFromProtocol:
    def test_uncoupled_inner_loop_gives_identical_rows(self):
        channel = channel_from_protocol(NestedConfig(0.0, 0.9))
        expected = (math.cos(0.9) ** 2, math.sin(0.9) ** 2, 0.0)
        for bit in (0, 1):
            np.testing.assert_allclose(channel.row(bit), expected, atol=1e-12)

    def test_balanced_point_rows(self):
        channel = channel_from_protocol(NestedConfig(THETA1, THETA2_BALANCED))
        np.testing.assert_allclose(channel.row(0), BALANCED_ROW_B0, atol=1e-9)
        np.testing.assert_allclose(channel.row(1), BALANCED_ROW_B1, atol=1e-9)

    def test_degenerate_angles(self):
        """Everything enters the inner loop and theta2 is inert: a blocked
        arm returns a quarter of the probability to D2, an open arm loses
        the excitation entirely."""
        channel = channel_from_protocol(NestedConfig(math.pi / 2, 0.0))
        np.testing.assert_allclose(channel.row(0), (0.0, 0.25, 0.75), atol=1e-12)
        np.testing.assert_allclose(channel.row(1), (0.0, 0.0, 1.0), atol=1e-12)

    def test_rows_sum_to_one_on_random_configs(self):
        for _ in range(300):
            theta1 = RNG.uniform(-math.pi + 1e-9, math.pi)
            theta2 = RNG.uniform(-math.pi + 1e-9, math.pi)
            channel = channel_from_protocol(NestedConfig(theta1, theta2))
            np.testing.assert_allclose(channel.p_given_b.sum(axis=1), 1.0, atol=1e-12)

    def test_rows_are_the_run_protocol_detectors_exactly(self):
        """A row reads only the run's two detectors and equals the full
        outcome's bit for bit.  A modulus squared another way differs in
        the last bit for about one value in 1,300, hence 2,000 configs,
        detuned inner couplers on every other one."""
        rng = np.random.default_rng(20261018)
        for k in range(2000):
            theta1, theta2 = rng.uniform(-math.pi + 1e-9, math.pi, size=2)
            offset = rng.uniform(-0.5, 0.5) if k % 2 else 0.0
            config = NestedConfig(theta1, theta2, inner_offset=offset)
            rows = []
            for bit in (0, 1):
                outcome = run_protocol(config, bit)
                rows.append((outcome.p_d1, outcome.p_d2, max(0.0, 1.0 - outcome.p_d1 - outcome.p_d2)))
            expected = ChannelModel(rows).p_given_b.tolist()
            assert channel_from_protocol(config).p_given_b.tolist() == expected, config


class TestSuccessProbabilities:
    def test_balanced_point(self):
        channel = channel_from_protocol(NestedConfig(THETA1, THETA2_BALANCED))
        p00, p11 = success_probabilities(channel)
        assert p00 == pytest.approx(P_SUCCESS, abs=1e-9)
        assert p11 == pytest.approx(P_SUCCESS, abs=1e-9)
        assert p00 > 0.5 and p11 > 0.5

    def test_uncoupled_inner_loop(self):
        channel = channel_from_protocol(NestedConfig(0.0, 0.6))
        p00, p11 = success_probabilities(channel)
        assert p00 == pytest.approx(math.sin(0.6) ** 2, abs=1e-12)
        assert p11 == pytest.approx(math.cos(0.6) ** 2, abs=1e-12)
        assert p00 + p11 == pytest.approx(1.0, abs=1e-12)

    def test_perfect_channel(self):
        channel = ChannelModel(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]))
        assert success_probabilities(channel) == (1.0, 1.0)


class TestInputPrior:
    def test_rejects_bad_p0(self):
        for p0 in (-0.1, 1.1, math.nan, "x"):
            with pytest.raises(DomainError):
                InputPrior(p0)

    def test_refuses_booleans(self):
        for p0 in (True, False):
            with pytest.raises(DomainError):
                InputPrior(p0)

    def test_refuses_numpy_booleans(self):
        for p0 in (np.True_, np.False_):
            with pytest.raises(DomainError, match="p0"):
                InputPrior(p0)


class TestMutualInformation:
    def test_identical_rows_carry_nothing(self):
        rows = random_channel_rows(RNG)
        channel = ChannelModel(np.array([rows[0], rows[0]]))
        for p0 in (0.0, 0.3, 0.5, 1.0):
            assert mutual_information(channel, InputPrior(p0)) == pytest.approx(0.0, abs=1e-14)

    def test_noiseless_channel_is_one_bit(self):
        channel = ChannelModel(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        assert mutual_information(channel, InputPrior(0.5)) == 1.0

    def test_matches_direct_joint_summation(self):
        for _ in range(200):
            rows = random_channel_rows(RNG)
            channel = ChannelModel(rows)
            p0 = float(RNG.uniform(0.0, 1.0))
            expected = mi_direct_joint(rows, p0)
            assert mutual_information(channel, InputPrior(p0)) == pytest.approx(
                expected, abs=1e-12
            )

    def test_balanced_point_is_strictly_informative(self):
        channel = channel_from_protocol(NestedConfig(THETA1, THETA2_BALANCED))
        info = mutual_information(channel, InputPrior(0.5))
        assert 0.0 < info < 1.0
        assert info == pytest.approx(
            mi_direct_joint(channel.p_given_b, 0.5), abs=1e-12
        )

    def test_bounds_and_zero_iff_identical_rows(self):
        for _ in range(200):
            rows = random_channel_rows(RNG)
            channel = ChannelModel(rows)
            info = mutual_information(channel, InputPrior(float(RNG.uniform(0, 1))))
            assert 0.0 <= info <= 1.0
        row0 = random_channel_rows(RNG)[0]
        row1 = row0 + RNG.uniform(-1e-13, 1e-13, 3)
        row1 = row1 / row1.sum()
        channel = ChannelModel(np.array([row0, row1]))
        assert np.max(np.abs(channel.p_given_b[0] - channel.p_given_b[1])) < 1e-12
        assert mutual_information(channel, InputPrior(0.5)) < 1e-10

    def test_merging_outcomes_never_gains_information(self):
        """Lumping D2 with the no-click column is post-processing."""
        for _ in range(200):
            rows = random_channel_rows(RNG)
            p0 = float(RNG.uniform(0.0, 1.0))
            merged = [[rows[b][0], rows[b][1] + rows[b][2], 0.0] for b in range(2)]
            assert mi_direct_joint(merged, p0) <= mi_direct_joint(rows, p0) + 1e-12


class TestCapacity:
    def test_identical_rows(self):
        rows = random_channel_rows(RNG)
        channel = ChannelModel(np.array([rows[0], rows[0]]))
        bits, _ = capacity(channel, 1e-10)
        assert bits == pytest.approx(0.0, abs=1e-12)

    def test_noiseless_channel(self):
        channel = ChannelModel(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        bits, prior = capacity(channel, 1e-10)
        assert bits == pytest.approx(1.0, abs=1e-12)
        assert prior.p0 == pytest.approx(0.5, abs=1e-6)

    def test_binary_symmetric_subchannel(self):
        channel = ChannelModel(np.array([[0.9, 0.1, 0.0], [0.1, 0.9, 0.0]]))
        bits, prior = capacity(channel, 1e-10)
        assert bits == pytest.approx(0.531004406410719, abs=1e-9)
        assert prior.p0 == pytest.approx(0.5, abs=1e-6)

    def test_dominates_uniform_prior(self):
        for _ in range(100):
            channel = ChannelModel(random_channel_rows(RNG))
            tol = 1e-9
            bits, prior = capacity(channel, tol)
            uniform = mutual_information(channel, InputPrior(0.5))
            assert bits >= uniform - tol
            assert bits == pytest.approx(
                mutual_information(channel, prior), abs=tol
            )

    def test_rejects_bad_tol(self):
        channel = ChannelModel(random_channel_rows(RNG))
        with pytest.raises(DomainError):
            capacity(channel, 0.0)

    def test_refuses_boolean_tol(self):
        channel = ChannelModel(random_channel_rows(RNG))
        with pytest.raises(DomainError, match="tol"):
            capacity(channel, True)


class TestBalancedTheta2:
    def test_reference_value(self):
        theta2 = balanced_theta2(THETA1)
        assert theta2 == pytest.approx(THETA2_BALANCED, abs=1e-12)
        assert math.cos(theta2) ** 2 == pytest.approx(COS_SQ_THETA2, abs=1e-12)

    def test_small_angle_limit(self):
        theta2 = balanced_theta2(1e-6)
        assert math.cos(theta2) ** 2 == pytest.approx(0.5, abs=1e-5)
        assert theta2 == pytest.approx(math.pi / 4, abs=1e-5)

    def test_balances_the_channel_across_the_domain(self):
        for _ in range(100):
            theta1 = float(RNG.uniform(0.01, 1.2))
            theta2 = balanced_theta2(theta1)
            p00, p11 = success_probabilities(
                channel_from_protocol(NestedConfig(theta1, theta2))
            )
            assert abs(p00 - p11) < 1e-9

    @staticmethod
    def _assert_exact_balance(angles):
        """Within 5e-16 of atan(1 - tan(theta1) / 2) evaluated at 50 digits
        from each float theta1, and p00 = p11 to 1e-12 in closed form."""
        for theta1 in angles:
            with localcontext() as ctx:
                ctx.prec = DEC_DIGITS
                exact = float(dec_atan(1 - dec_sin(theta1) / dec_cos(theta1) / 2))
            theta2 = balanced_theta2(theta1)
            assert abs(theta2 - exact) <= 5e-16, theta1
            p00, p11 = closed_form_success(theta1, theta2)
            assert abs(p00 - p11) <= 1e-12, theta1

    def test_matches_the_decimal_reference_across_the_domain(self):
        self._assert_exact_balance([k * (math.pi / 2) / 1201 for k in range(1, 1201)])

    def test_matches_the_decimal_reference_where_tan_theta1_is_two(self):
        """Across atan(2) the root passes through 0, and cos(theta2)^2 is 1
        to within rounding: an arccos of its square root loses up to 1.5e-8."""
        pivot = math.atan(2.0)
        angles = [pivot + k * 1e-10 for k in range(-300, 301)]
        self._assert_exact_balance(angles + [1.1071487133020903])

    def test_steep_couplers_balance_with_negative_angle(self):
        # past tan(theta1) = 2 the non-negative root stops balancing
        theta1 = 1.15
        theta2 = balanced_theta2(theta1)
        assert theta2 < 0.0
        p00, p11 = success_probabilities(
            channel_from_protocol(NestedConfig(theta1, theta2))
        )
        assert abs(p00 - p11) < 1e-9

    def test_domain_errors(self):
        for bad in (0.0, math.pi / 2, -0.3, math.nan):
            with pytest.raises(DomainError):
                balanced_theta2(bad)

    def test_refuses_boolean_and_oversized_angles(self):
        # float(True) is 1.0, a valid angle; 10**400 overflows a float
        for bad in (True, 10**400):
            with pytest.raises(DomainError, match="theta1"):
                balanced_theta2(bad)


class TestBalanceRootSolve:
    @pytest.mark.parametrize("theta1", (0.25, 0.5, 1.0))
    def test_agrees_with_closed_form(self, theta1):
        root = balance_root_solve(theta1, 1e-10)
        assert root == pytest.approx(balanced_theta2(theta1), abs=1e-9)

    def test_reference_value(self):
        assert balance_root_solve(0.25, 1e-10) == pytest.approx(0.717315239296, abs=1e-5)

    def test_no_bracket_past_the_steep_coupler_regime(self):
        with pytest.raises(BracketError):
            balance_root_solve(1.2, 1e-10)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            balance_root_solve(0.0, 1e-10)
        with pytest.raises(DomainError):
            balance_root_solve(0.5, 0.0)

    def test_refuses_booleans(self):
        # tol=True used to run a single halving and return pi/8
        with pytest.raises(DomainError, match="tol"):
            balance_root_solve(0.25, tol=True)
        with pytest.raises(DomainError, match="theta1"):
            balance_root_solve(True)


class TestOptimizeAngles:
    def test_no_refinement_returns_exact_grid_best(self):
        result = optimize_angles("min-success", grid_points=12, refine_iters=0)
        centers = [(i + 0.5) * (math.pi / 2) / 12 for i in range(12)]
        best_value, best_point = -math.inf, None
        for theta1 in centers:
            for theta2 in centers:
                value = min(
                    success_probabilities(
                        channel_from_protocol(NestedConfig(theta1, theta2))
                    )
                )
                if value > best_value:
                    best_value, best_point = value, (theta1, theta2)
        assert result.objective_value == best_value
        assert (result.theta1, result.theta2) == best_point

    def test_min_success_dominates_balanced_reference(self):
        result = optimize_angles("min-success", grid_points=24, refine_iters=200)
        assert result.objective_value >= P_SUCCESS - 1e-6
        p00, p11 = success_probabilities(
            channel_from_protocol(NestedConfig(result.theta1, result.theta2))
        )
        assert min(p00, p11) == pytest.approx(result.objective_value, abs=1e-9)
        assert result.evaluations > 24 * 24

    def test_min_success_reaches_the_closed_form_optimum(self):
        """On the balance curve p = 1/((1+t^2)(1+(1-t/2)^2)) with t = tan
        theta1; its maximum p* lies at the real root of 2t^3 - 6t^2 + 9t - 2,
        found here by 50-digit bisection (the cubic rises everywhere, from
        -2 at t = 0 to 3 at t = 1)."""
        with localcontext() as context:
            context.prec = 50
            low, high = Decimal(0), Decimal(1)
            for _ in range(200):
                middle = (low + high) / 2
                if ((2 * middle - 6) * middle + 9) * middle - 2 < 0:
                    low = middle
                else:
                    high = middle
            t = (low + high) / 2
            optimum = 1 / ((1 + t * t) * (1 + (1 - t / 2) ** 2))
        assert abs(optimum - Decimal("0.533154340656031")) < Decimal("1e-15")
        result = optimize_angles("min-success", grid_points=24, refine_iters=200)
        assert abs(result.objective_value - float(optimum)) <= 1e-12

    def test_mutual_info_dominates_balanced_reference(self):
        reference = mutual_information(
            channel_from_protocol(NestedConfig(THETA1, THETA2_BALANCED)), InputPrior(0.5)
        )
        result = optimize_angles("mutual-info-uniform", grid_points=16, refine_iters=120)
        assert result.objective_value >= reference
        assert result.objective_name == "mutual-info-uniform"

    @pytest.mark.parametrize(
        "objective",
        [np.array(["min-success"]), np.array(["min-success", "min-success"]), ["min-success"],
         b"min-success", None, "max-success"],
    )
    def test_objective_is_one_of_the_names(self, objective):
        with pytest.raises(
            DomainError, match=r"^objective must be one of \('min-success', 'mutual-info-uniform'\)$"
        ):
            optimize_angles(objective, 8, 0)

    def test_numpy_string_objective_is_the_name(self):
        assert optimize_angles(np.str_("min-success"), 8, 0) == optimize_angles("min-success", 8, 0)

    def test_refinement_never_loses_to_the_grid(self):
        coarse = optimize_angles("min-success", grid_points=8, refine_iters=0)
        refined = optimize_angles("min-success", grid_points=8, refine_iters=80)
        assert refined.objective_value >= coarse.objective_value

    def test_balanced_sweep_is_unimodal_and_dominated(self):
        """p00 along the balanced curve rises then falls; the optimizer must
        beat the whole sweep."""
        thetas = [0.05 * k for k in range(1, 21)]
        values = []
        for theta1 in thetas:
            channel = channel_from_protocol(NestedConfig(theta1, balanced_theta2(theta1)))
            values.append(success_probabilities(channel)[0])
        rises = [b - a for a, b in zip(values, values[1:])]
        sign_changes = sum(
            1 for a, b in zip(rises, rises[1:]) if (a > 0) != (b > 0)
        )
        assert sign_changes <= 1
        result = optimize_angles("min-success", grid_points=24, refine_iters=200)
        assert result.objective_value >= max(values)

    @pytest.mark.parametrize(
        "objective, grid, refine",
        (("min-success", 8, 0), ("min-success", 8, 150), ("mutual-info-uniform", 11, 60)),
    )
    def test_evaluations_stay_within_the_counted_bound(self, objective, grid, refine):
        result = optimize_angles(objective, grid_points=grid, refine_iters=refine)
        assert result.evaluations <= grid * grid + 3 + 4 * refine

    def test_evaluation_budget(self, monkeypatch):
        """Settings are charged grid^2 + 3 + 4 * refine evaluations; past
        MAX_OPTIMIZE_EVALUATIONS they are refused before the first one."""
        channel = channel_from_protocol(NestedConfig(THETA1, THETA2_BALANCED))
        calls = []

        def counted(config):
            calls.append(config)
            return channel

        monkeypatch.setattr(analysis, "channel_from_protocol", counted)
        assert 120 * 120 + 3 + 4 * 149 == analysis.MAX_OPTIMIZE_EVALUATIONS - 1
        optimize_angles("min-success", grid_points=120, refine_iters=149)
        assert calls
        calls.clear()
        for grid, refine in ((120, 150), (123, 0), (100000, 0), (8, 10**300)):
            with pytest.raises(DomainError) as excinfo:
                optimize_angles("min-success", grid_points=grid, refine_iters=refine)
            assert f"budget of {analysis.MAX_OPTIMIZE_EVALUATIONS}" in str(excinfo.value)
        assert calls == []

    def test_validation(self):
        with pytest.raises(DomainError):
            optimize_angles("nope")
        with pytest.raises(DomainError):
            optimize_angles("min-success", grid_points=4)
        with pytest.raises(DomainError):
            optimize_angles("min-success", refine_iters=-1)
