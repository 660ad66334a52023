import numpy as np
import pytest

from synthsel.diagnostics import (
    effect_path,
    penalty_distance,
    placebo_forecast,
    white_test,
)
from synthsel.errors import ConfigurationError
from synthsel.panel import PanelDataset
from synthsel.solvers import solve_penalized_sc, solve_sc

from conftest import make_instance


class TestWhiteTest:
    def test_constant_squared_residuals_explain_nothing(self):
        x = np.ones((12, 1))
        y = x[:, 0] + np.tile([1.0, -1.0], 6)
        fit = solve_sc(y, x)
        np.testing.assert_allclose(fit.residuals**2, 1.0)
        report = white_test(fit, x)
        assert report.r_squared == 0.0
        assert report.statistic == 0.0
        assert report.p_value == 1.0

    def test_statistic_is_n_times_r_squared(self):
        y, x = make_instance(1, n=60, p=4)
        report = white_test(solve_sc(y, x), x)
        assert report.statistic == pytest.approx(60 * report.r_squared)

    def test_p_value_monotone_in_r_squared_for_fixed_df(self):
        import scipy.stats

        df = 5
        stats = [10 * r2 for r2 in (0.1, 0.3, 0.6)]
        ps = [scipy.stats.chi2.sf(s, df) for s in stats]
        assert ps[0] > ps[1] > ps[2]

    def test_p_value_is_the_chi2_tail_of_the_statistic(self):
        import scipy.stats

        y, x = make_instance(1, n=60, p=4)
        report = white_test(solve_sc(y, x), x)
        assert report.statistic > 0.0
        tail = scipy.stats.chi2.sf(report.statistic, report.regressor_count)
        assert report.p_value == float(tail)

    def test_collinear_regressors_dropped_and_recorded(self):
        gen = np.random.default_rng(3)
        n = 40
        # one active donor coincides with the time-index regressor
        x = np.column_stack([np.linspace(-1.0, 1.0, n), gen.normal(size=n)])
        y = 0.5 * x[:, 0] + 0.5 * x[:, 1] + 0.3 * gen.normal(size=n)
        fit = solve_sc(y, x)
        assert fit.sets.a == (0, 1)
        report = white_test(fit, x)
        assert report.dropped_collinear >= 1

    def test_requires_enough_periods(self):
        y, x = make_instance(4, n=8, p=6)
        fit = solve_sc(y, x)
        if len(fit.sets.a) >= 3:
            with pytest.raises(ConfigurationError):
                white_test(fit, x)

    def test_size_and_power_snapshot(self):
        n, p = 150, 3
        null_rej = 0
        for s in range(120):
            gen = np.random.default_rng(s)
            x = gen.normal(size=(n, p))
            y = x @ np.array([0.4, 0.3, 0.3]) + 0.5 * gen.normal(size=n)
            null_rej += white_test(solve_sc(y, x), x).p_value < 0.05
        assert 0.005 <= null_rej / 120 <= 0.12
        power_rej = 0
        for s in range(60):
            gen = np.random.default_rng(10_000 + s)
            x = gen.normal(size=(n, p))
            scale = np.linspace(0.05, 1.2, n)
            y = x @ np.array([0.4, 0.3, 0.3]) + scale * gen.normal(size=n)
            power_rej += white_test(solve_sc(y, x), x).p_value < 0.05
        assert power_rej / 60 >= 0.9


class TestEffectPath:
    def test_exact_forecast_gives_zero_path(self, rng):
        y, x = make_instance(5)
        fit = solve_sc(y, x)
        post_x = rng.normal(size=(4, x.shape[1]))
        path = effect_path(fit, post_x @ fit.beta, post_x)
        np.testing.assert_allclose(path.tau, 0.0, atol=1e-14)
        assert path.tau_avg[1] == pytest.approx(0.0)

    def test_constant_shift_gives_constant_path(self, rng):
        y, x = make_instance(6)
        fit = solve_sc(y, x)
        post_x = rng.normal(size=(13, x.shape[1]))
        path = effect_path(fit, post_x @ fit.beta + 1.0, post_x)
        np.testing.assert_allclose(path.tau, 1.0, atol=1e-12)
        assert path.tau_avg[12] == pytest.approx(1.0)

    def test_hand_built_three_period_example(self):
        x = np.array([[1.0], [2.0]])
        y = x[:, 0]
        fit = solve_sc(y, x)
        post_x = np.array([[3.0], [4.0], [5.0]])
        post_y = np.array([4.0, 3.5, 7.0])
        path = effect_path(fit, post_y, post_x)
        np.testing.assert_allclose(path.tau, [1.0, -0.5, 2.0])
        assert path.tau_avg[1] == pytest.approx(1.0)
        assert path.tau_avg[12] is None

    def test_linearity_in_post_outcomes(self, rng):
        # the forecast is fixed, so the path is affine in the realized
        # outcomes: combinations with unit coefficient sum pass through
        y, x = make_instance(7)
        fit = solve_sc(y, x)
        post_x = rng.normal(size=(6, x.shape[1]))
        y1 = rng.normal(size=6)
        y2 = rng.normal(size=6)
        a, b = 0.3, 0.7
        combo = effect_path(fit, a * y1 + b * y2, post_x).tau
        parts = a * effect_path(fit, y1, post_x).tau + b * effect_path(fit, y2, post_x).tau
        np.testing.assert_allclose(combo, parts, atol=1e-12)

    def test_relative_effect_guarded_near_zero_forecast(self):
        x = np.array([[1.0], [1.0]])
        y = np.array([1.0, 1.0])
        fit = solve_sc(y, x)
        post_x = np.array([[0.0], [2.0]])
        path = effect_path(fit, np.array([1.0, 3.0]), post_x)
        assert np.isnan(path.relative[0])
        assert path.relative[1] == pytest.approx(0.5)

    def test_missing_post_data_rejected(self):
        y, x = make_instance(8)
        with pytest.raises(ConfigurationError):
            effect_path(solve_sc(y, x), None, None)


class TestPlacebo:
    def test_target_equal_to_donor_scores_zero(self, rng):
        x = rng.normal(size=(14, 4))
        y = x[:, 2].copy()
        panel = PanelDataset(y=y[:10], x=x[:10], post_y=y[10:], post_x=x[10:])
        fit = solve_sc(panel.y, panel.x)
        result = placebo_forecast(fit, panel)
        assert result.mse == pytest.approx(0.0, abs=1e-20)
        assert result.horizon == 4

    def test_noiseless_representable_target_scores_zero_for_all_penalties(self, rng):
        x = rng.normal(size=(16, 4))
        y = x[:, 0].copy()
        panel = PanelDataset(y=y[:12], x=x[:12], post_y=y[12:], post_x=x[12:])
        for lam in (0.0, 0.5, 3.0):
            fit = solve_penalized_sc(panel.y, panel.x, lam)
            assert placebo_forecast(fit, panel).mse == pytest.approx(0.0, abs=1e-18)

    def test_requires_post_data(self):
        y, x = make_instance(9)
        with pytest.raises(ConfigurationError):
            placebo_forecast(solve_sc(y, x), PanelDataset(y=y, x=x))

    @pytest.mark.parametrize("horizon", [0, -3])
    def test_horizon_below_one_rejected(self, rng, horizon):
        x = rng.normal(size=(16, 4))
        panel = PanelDataset(y=x[:10, 0], x=x[:10, 1:], post_y=x[10:, 0], post_x=x[10:, 1:])
        with pytest.raises(ConfigurationError, match="horizon must be >= 1"):
            placebo_forecast(solve_sc(panel.y, panel.x), panel, horizon=horizon)


class TestPenaltyDistance:
    def test_exact_match_donor_scores_zero(self, rng):
        x = rng.normal(size=(10, 4))
        fit = solve_sc(x[:, 1].copy(), x)
        assert penalty_distance(fit) == pytest.approx(0.0, abs=1e-18)

    def test_uniform_weights_average_squared_distances(self):
        # donors at squared distances 2 and 4 from the outcome
        y = np.zeros(2)
        x = np.array([[np.sqrt(2.0), 2.0], [0.0, 0.0]])
        fit = solve_sc(y, x)
        object.__setattr__(fit.weights, "beta", np.array([0.5, 0.5]))
        assert penalty_distance(fit) == pytest.approx(3.0)

    def test_non_increasing_along_penalty_path(self):
        y, x = make_instance(10, n=12, p=6, noise=0.8)
        values = [
            penalty_distance(solve_penalized_sc(y, x, lam))
            for lam in (0.0, 0.1, 0.5, 2.0, 8.0)
        ]
        for lo, hi in zip(values, values[1:]):
            assert hi <= lo + 1e-10


def test_placebo_error_is_u_shaped_on_overfit_prone_design():
    """Penalizing first improves then degrades the placebo forecast."""
    from synthsel.simulation import draw_factor_gaussian, spawn_rng, synthetic_factor_spec

    spec = synthetic_factor_spec(
        50, 34, r=2, seed=9, sigma_y=0.7, sigma_x=2.0, sigma_x_active=0.3,
        active_donors=3,
    )
    lams = np.concatenate([[0.0], np.geomspace(0.02, 10, 9)])
    totals = np.zeros(lams.size)
    reps = 40
    for rep in range(reps):
        draw = draw_factor_gaussian(spec, 32, spawn_rng(71, rep))
        panel = PanelDataset(
            y=draw.y[:20], x=draw.x[:20], post_y=draw.y[20:], post_x=draw.x[20:]
        )
        for i, lam in enumerate(lams):
            fit = solve_penalized_sc(panel.y, panel.x, lam)
            totals[i] += placebo_forecast(fit, panel).mse
    curve = totals / reps
    k = int(np.argmin(curve))
    assert 0 < k < lams.size - 1, curve
    assert curve[0] > curve[k] and curve[-1] > curve[k]
