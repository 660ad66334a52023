import numpy as np
import pytest
import scipy.stats

from synthsel import simulation
from synthsel.errors import ConfigurationError, SingularityError
from synthsel.panel import PanelDataset
from synthsel.selection import cv_holdout, cv_loo_untreated, cv_rolling, select_lambda_ic
from synthsel.simulation import (
    BENCHMARK_METHODS,
    FactorModelSpec,
    FactorPanelDraw,
    _spearman,
    ar_stationary_variance,
    conditional_mean_path,
    draw_ar_series,
    draw_factor_empirical,
    draw_factor_gaussian,
    fit_factor_model,
    mc_dof,
    run_selection_benchmark,
    select_ar_order,
    spawn_rng,
    stationary_bootstrap,
    synthetic_factor_spec,
    yule_walker,
)
from synthsel.solvers import solve_penalized_sc


def _seeded(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed))


class TestStationaryBootstrap:
    def test_unit_restart_probability_is_iid_resampling(self):
        series = np.arange(12, dtype=float)[:, None]
        draw = stationary_bootstrap(series, 1.0, 200, _seeded(3))
        assert set(draw.block_lengths) == {1}

    def test_seed_determinism(self):
        series = np.arange(30, dtype=float)[:, None]
        a = stationary_bootstrap(series, 0.3, 500, _seeded(9))
        b = stationary_bootstrap(series, 0.3, 500, _seeded(9))
        np.testing.assert_array_equal(a.data, b.data)
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_mean_block_length_matches_reciprocal_probability(self):
        series = np.arange(50, dtype=float)[:, None]
        draw = stationary_bootstrap(series, 0.2, 60_000, _seeded(5))
        lengths = np.asarray(draw.block_lengths[:-1])  # last block may be truncated
        assert lengths.size > 10_000
        assert np.mean(lengths) == pytest.approx(5.0, rel=0.05)

    def test_rows_resampled_jointly(self):
        series = np.column_stack([np.arange(20.0), 100 + np.arange(20.0)])
        draw = stationary_bootstrap(series, 0.5, 300, _seeded(1))
        np.testing.assert_array_equal(draw.data[:, 1] - draw.data[:, 0], 100.0)

    def test_marginal_distribution_goodness_of_fit(self):
        t_len = 25
        series = np.arange(t_len, dtype=float)[:, None]
        draw = stationary_bootstrap(series, 0.25, 10_000, _seeded(11))
        counts = np.bincount(draw.indices, minlength=t_len)
        stat = float(np.sum((counts - 10_000 / t_len) ** 2 / (10_000 / t_len)))
        p_value = float(scipy.stats.chi2.sf(stat, t_len - 1))
        assert p_value > 0.01

    def test_invalid_probability_rejected(self):
        series = np.arange(12, dtype=float)[:, None]
        with pytest.raises(ConfigurationError, match=r"\(0, 1\], got 0.0"):
            stationary_bootstrap(series, 0.0, 10, _seeded(0))
        with pytest.raises(ConfigurationError, match=r"\(0, 1\], got 1.5"):
            stationary_bootstrap(series, 1.5, 10, _seeded(0))


class TestArMachinery:
    def test_ar1_stationary_variance_closed_form(self):
        phi = 0.6
        assert ar_stationary_variance(np.array([phi])) == pytest.approx(1 / (1 - phi**2))

    def test_draw_matches_requested_marginal_variance(self):
        rng = spawn_rng(1)
        series = draw_ar_series(np.array([0.7]), 2.5, 200_000, rng)
        assert np.var(series) == pytest.approx(2.5, rel=0.05)

    def test_yule_walker_recovers_coefficients(self):
        rng = spawn_rng(2)
        series = draw_ar_series(np.array([0.5, 0.2]), 1.0, 100_000, rng)
        coefs, _ = yule_walker(series, 2)
        np.testing.assert_allclose(coefs, [0.5, 0.2], atol=0.02)

    def test_bic_order_selection(self):
        rng = spawn_rng(3)
        white = draw_ar_series(np.zeros(0), 1.0, 5_000, rng)
        persistent = draw_ar_series(np.array([0.8]), 1.0, 5_000, rng)
        assert select_ar_order(white) == 0
        assert select_ar_order(persistent) == 1


class TestFactorModel:
    def test_loading_identity_enforced(self):
        with pytest.raises(ConfigurationError, match="omega-combination"):
            FactorModelSpec(
                loadings=np.array([[1.0], [0.3], [0.4]]),
                delta=np.zeros(5),
                sigma=np.ones(3),
                omega_star=np.array([0.5, 0.5]),
                ar_coefs=((), (), ()),
            )

    def test_synthetic_spec_satisfies_loading_identity(self):
        spec = synthetic_factor_spec(12, 40, r=3, seed=4)
        gap = np.abs(spec.loadings[0] - spec.loadings[1:].T @ spec.omega_star)
        assert np.max(gap) <= 1e-10

    def test_zero_factor_model_is_pure_noise_around_fixed_effects(self):
        # noiseless, so the draw is its systematic part: the fixed effects
        spec = synthetic_factor_spec(5, 30, r=0, seed=2, sigma_y=0.0, sigma_x=0.0)
        assert spec.loadings.shape == (6, 0)
        draw = draw_factor_gaussian(spec, 20, 1)
        np.testing.assert_array_equal(draw.y, spec.delta[:20])
        np.testing.assert_array_equal(draw.x, np.tile(spec.delta[:20, None], (1, 5)))

    def test_noiseless_zero_factor_spec_has_a_singular_donor_covariance(self):
        spec = synthetic_factor_spec(5, 30, r=0, seed=2, sigma_y=0.0, sigma_x=0.0)
        with pytest.raises(SingularityError, match="donor covariance") as err:
            spec.conditional_variance()
        assert err.value.block == "donor covariance"

    def test_zero_factor_fit_draws_panels_of_the_panel_shape(self):
        gen = np.random.default_rng(12)
        panel = PanelDataset(y=gen.normal(size=14), x=gen.normal(size=(14, 4)))
        fitted = fit_factor_model(panel, r=0)
        assert fitted.n_factors == 0
        draw = draw_factor_gaussian(fitted, panel.n, 3)
        assert draw.y.shape == (panel.n,)
        assert draw.x.shape == (panel.n, panel.p)

    def test_draw_determinism(self):
        spec = synthetic_factor_spec(8, 40, seed=6)
        a = draw_factor_gaussian(spec, 30, 123)
        b = draw_factor_gaussian(spec, 30, 123)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.x, b.x)

    def test_noiseless_rank_one_outcome_is_omega_combination(self):
        spec = synthetic_factor_spec(6, 30, r=1, seed=3, sigma_y=0.0, sigma_x=0.0)
        draw = draw_factor_gaussian(spec, 25, 7)
        combo = draw.x @ spec.omega_star
        np.testing.assert_allclose(draw.y, combo, atol=1e-12)

    def test_sample_covariance_matches_design(self):
        spec = synthetic_factor_spec(4, 50_001, r=2, seed=8)
        draw = draw_factor_gaussian(spec, 50_000, 11)
        sample = np.cov(np.column_stack([draw.y, draw.x]).T)
        target = spec.covariance()
        rel = np.linalg.norm(sample - target) / np.linalg.norm(target)
        assert rel <= 0.03

    def test_fit_recovers_loading_space_in_noiseless_rank_one_panel(self):
        spec = synthetic_factor_spec(8, 40, r=1, seed=4, sigma_y=0.0, sigma_x=0.0)
        draw = draw_factor_gaussian(spec, 40, 8)
        fitted = fit_factor_model(PanelDataset(y=draw.y, x=draw.x), r=1)
        # cross-unit demeaning identifies loadings up to the common shift,
        # so compare the fitted donor loadings with the shifted truth
        shifted_truth = spec.loadings[1:, 0] - spec.loadings[:, 0].mean()
        recovered = fitted.loadings[1:, 0]
        cos = abs(float(shifted_truth @ recovered)) / (
            np.linalg.norm(shifted_truth) * np.linalg.norm(recovered)
        )
        assert cos == pytest.approx(1.0, abs=1e-6)

    def test_fit_uses_plain_weights_as_omega(self):
        spec = synthetic_factor_spec(6, 30, r=2, seed=9, sigma_y=0.4, sigma_x=0.4)
        draw = draw_factor_gaussian(spec, 30, 3)
        panel = PanelDataset(y=draw.y, x=draw.x)
        from synthsel.solvers import solve_sc

        fitted = fit_factor_model(panel, r=2)
        np.testing.assert_allclose(fitted.omega_star, solve_sc(draw.y, draw.x).beta, atol=1e-12)

    def test_negative_factor_count_rejected_by_the_synthetic_spec(self):
        with pytest.raises(ConfigurationError, match="factor count must be nonnegative"):
            synthetic_factor_spec(5, 20, r=-1)

    @pytest.mark.parametrize("n_donors", [0, -2])
    def test_synthetic_spec_needs_a_donor(self, n_donors):
        with pytest.raises(ConfigurationError, match=f"need at least 1 donor, got n_donors={n_donors}"):
            synthetic_factor_spec(n_donors, 20)

    @pytest.mark.parametrize("t_total", [0, -3])
    def test_synthetic_spec_needs_a_period(self, t_total):
        with pytest.raises(ConfigurationError, match=f"need at least 1 period, got {t_total}"):
            synthetic_factor_spec(4, t_total)

    @pytest.mark.parametrize("t_len", [0, -3])
    def test_gaussian_draw_needs_a_period(self, t_len):
        spec = synthetic_factor_spec(4, 20, seed=1)
        with pytest.raises(ConfigurationError, match=f"need at least 1 period, got {t_len}"):
            draw_factor_gaussian(spec, t_len, 2)

    def test_factor_count_exceeding_donors_rejected(self):
        spec = synthetic_factor_spec(4, 20, seed=1)
        draw = draw_factor_gaussian(spec, 20, 2)
        with pytest.raises(ConfigurationError):
            fit_factor_model(PanelDataset(y=draw.y, x=draw.x), r=9)


def _one_period_draw(demeaned_donors: np.ndarray, delta_t: float) -> FactorPanelDraw:
    """One period whose donors sit ``demeaned_donors`` above the fixed effect."""
    x = (np.asarray(demeaned_donors, dtype=float) + delta_t)[None, :]
    return FactorPanelDraw(y=np.zeros(1), x=x, delta=np.array([delta_t]))


class TestConditionalMean:
    def test_zero_loadings_give_fixed_effect(self):
        spec = synthetic_factor_spec(5, 20, r=0, seed=5)
        means = conditional_mean_path(spec, _one_period_draw(np.zeros(5), 2.5))
        assert means.shape == (1,)
        assert means[0] == pytest.approx(2.5)

    def test_zero_demeaned_donors_give_fixed_effect(self):
        spec = synthetic_factor_spec(5, 20, r=2, seed=5)
        means = conditional_mean_path(spec, _one_period_draw(np.zeros(5), 1.25))
        assert means.shape == (1,)
        assert means[0] == pytest.approx(1.25)

    def test_matches_monte_carlo_regression(self):
        spec = synthetic_factor_spec(6, 10, r=2, seed=3)
        rng = spawn_rng(1)
        n = 200_000
        psi = rng.standard_normal((n, spec.n_factors))
        noise = rng.standard_normal((n, spec.n_units)) * np.sqrt(spec.sigma)
        vals = psi @ spec.loadings.T + noise
        coef = np.linalg.lstsq(vals[:, 1:], vals[:, 0], rcond=None)[0]
        w = spec.blp_weights()
        assert np.max(np.abs(coef - w)) <= 0.02 * max(1.0, np.max(np.abs(w)))

    def test_empirical_draw_with_zero_pool_hits_conditional_mean(self):
        spec = synthetic_factor_spec(7, 30, r=2, seed=2)
        draw = draw_factor_empirical(spec, np.zeros(50), 25, 4)
        means = conditional_mean_path(spec, draw)
        np.testing.assert_allclose(draw.y, means, atol=1e-12)

    def test_empirical_innovation_variance_matches_pool(self):
        spec = synthetic_factor_spec(5, 10_001, r=2, seed=6)
        pool_rng = spawn_rng(8)
        pool = 1.7 * pool_rng.standard_normal(400)
        draw = draw_factor_empirical(spec, pool, 10_000, 12)
        innov = draw.y - conditional_mean_path(spec, draw)
        assert np.var(innov) == pytest.approx(np.var(pool), rel=0.05)

    def test_empirical_draw_determinism(self):
        spec = synthetic_factor_spec(5, 30, r=1, seed=6)
        pool = spawn_rng(9).standard_normal(60)
        a = draw_factor_empirical(spec, pool, 20, 33)
        b = draw_factor_empirical(spec, pool, 20, 33)
        np.testing.assert_array_equal(a.y, b.y)


class TestMcDof:
    def test_constant_estimator_spends_nothing(self):
        est = mc_dof(
            lambda rng: rng.standard_normal(10),
            lambda y: np.full(10, 3.0),
            100,
            1,
            sigma2=1.0,
        )
        assert est.df == pytest.approx(0.0, abs=1e-12)

    def test_ols_projection_spends_regressor_count(self):
        n, p = 30, 6
        x = spawn_rng(2).standard_normal((n, p))
        hat = x @ np.linalg.solve(x.T @ x, x.T)
        est = mc_dof(
            lambda rng: rng.standard_normal(n), lambda y: hat @ y, 400, 17, sigma2=1.0
        )
        assert abs(est.df - p) <= 3 * est.se

    def test_standard_error_shrinks_with_replications(self):
        n, p = 20, 3
        x = spawn_rng(3).standard_normal((n, p))
        hat = x @ np.linalg.solve(x.T @ x, x.T)
        ses = [
            mc_dof(
                lambda rng: rng.standard_normal(n), lambda y: hat @ y, reps, 29, sigma2=1.0
            ).se
            for reps in (100, 400, 1600)
        ]
        assert ses[2] < ses[0]
        assert 2.0 <= ses[0] / ses[2] <= 8.0


class TestBenchmark:
    def test_oracle_rows_have_zero_tuning_and_risk_error(self):
        report = run_selection_benchmark(
            "gaussian", ["risk"], 4, 3, n_donors=10, n_pre=18, n_post=12,
            lambda_grid=[0.0, 0.2, 1.0],
        )
        row = report.method("risk")
        assert row.mse_lambda == 0.0
        assert row.mse_risk_raw == 0.0
        assert row.mean_rank_corr == 1.0

    def test_singular_design_fails_before_any_replication(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the race drew a replication")

        monkeypatch.setattr(simulation, "draw_factor_gaussian", refuse)
        spec = synthetic_factor_spec(5, 30, r=0, seed=2, sigma_y=0.0, sigma_x=0.0)
        with pytest.raises(SingularityError, match="donor covariance"):
            run_selection_benchmark("gaussian", ["sure"], 1, 0, spec=spec, n_donors=5, n_pre=18, n_post=12)

    def test_race_runs_in_the_wide_regime(self):
        # 300 donors on 12 pre-periods: the plain fit behind sure's sigma^2
        # is rank deficient, and its re-solve used to exceed max_iter here
        spec = synthetic_factor_spec(300, 24, r=1, seed=100, sigma_y=0.5, sigma_x=2.0)
        report = run_selection_benchmark(
            "gaussian", ["risk", "sure", "cv_holdout"], 1, 0,
            spec=spec, n_donors=300, n_pre=12, n_post=12,
        )
        assert np.isfinite(report.method("sure").mse_tau1)

    def test_single_replication_reproducible(self):
        kwargs = dict(n_donors=8, n_pre=16, n_post=12, lambda_grid=[0.0, 0.5])
        a = run_selection_benchmark("gaussian", ["sure", "cv_holdout"], 1, 11, **kwargs)
        b = run_selection_benchmark("gaussian", ["sure", "cv_holdout"], 1, 11, **kwargs)
        assert a == b

    def test_block_bootstrap_reports_absent_truth_columns(self):
        report = run_selection_benchmark(
            "block_bootstrap", ["sure", "cv_holdout"], 3, 5,
            n_donors=8, n_pre=16, n_post=12, lambda_grid=[0.0, 0.5],
        )
        for name in ("sure", "cv_holdout"):
            row = report.method(name)
            assert row.mse_lambda is None
            assert row.mse_risk_raw is None
            assert row.mse_tau1 is not None

    def test_race_without_sure_solves_no_plain_fit(self, monkeypatch):
        # sigma-hat^2 may need a plain solve of its own (no grid fit at lam = 0
        # here), which can raise where the race's own fits do not; only sure
        # reads it
        import synthsel.selection

        def refuse(*args, **kwargs):
            raise AssertionError("the race solved a plain fit")

        monkeypatch.setattr(synthsel.selection, "solve_sc", refuse)
        kwargs = dict(n_donors=8, n_pre=16, n_post=12, lambda_grid=[0.1, 0.5])
        report = run_selection_benchmark("gaussian", ["risk", "cv_holdout"], 2, 3, **kwargs)
        assert report.method("cv_holdout").mse_tau1 is not None
        with pytest.raises(AssertionError, match="plain fit"):
            run_selection_benchmark("gaussian", ["sure"], 1, 3, **kwargs)

    @pytest.mark.parametrize("seed", [0, 10])
    def test_each_row_is_the_choice_of_the_methods_public_selector(self, seed):
        # one replication of every method: each row's errors are those of the
        # grid point its public selector chooses on the race's own draw
        grid, n_donors, n_pre, n_post = [0.0, 0.2, 1.0], 8, 16, 12
        report = run_selection_benchmark(
            "gaussian", BENCHMARK_METHODS, 1, seed, n_donors=n_donors, n_pre=n_pre,
            n_post=n_post, lambda_grid=grid,
        )
        spec = synthetic_factor_spec(n_donors, n_pre + n_post, seed=seed)
        draw = draw_factor_gaussian(spec, n_pre + n_post, spawn_rng(seed, 0))
        y, x = draw.y[:n_pre], draw.x[:n_pre]
        panel = PanelDataset(y=y, x=x, post_y=draw.y[n_pre:], post_x=draw.x[n_pre:])
        fits = [solve_penalized_sc(y, x, lam) for lam in grid]
        means = conditional_mean_path(spec, draw)[:n_pre]
        star = int(np.argmin([np.sum((fit.fitted - means) ** 2) for fit in fits]))
        chosen = {
            "risk": star,
            "sure_star": select_lambda_ic(
                panel, "penalized", grid, sigma2=spec.conditional_variance()
            ).chosen,
            "sure": select_lambda_ic(panel, "penalized", grid).chosen,
            "cv_holdout": cv_holdout(panel, "penalized", grid).chosen,
            "cv_loo_untreated": cv_loo_untreated(panel, "penalized", grid).chosen,
            "cv_rolling": cv_rolling(panel, "penalized", grid).chosen,
        }
        assert tuple(chosen) == BENCHMARK_METHODS
        for method, idx in chosen.items():
            row = report.method(method)
            tau = panel.post_y - panel.post_x @ fits[idx].beta
            assert row.mse_tau1 == pytest.approx(float(tau[0]) ** 2, rel=1e-9, abs=1e-15)
            assert row.mse_lambda == (grid[idx] - grid[star]) ** 2

    def test_repeated_methods_rejected(self):
        with pytest.raises(ConfigurationError, match=r"more than once: \['cv_holdout', 'sure'\]"):
            run_selection_benchmark(
                "gaussian", ["sure", "sure", "cv_holdout", "cv_holdout"], 1, 1,
                n_donors=6, n_pre=10, n_post=3,
            )

    def test_unknown_design_rejected(self):
        with pytest.raises(ConfigurationError):
            run_selection_benchmark("weird", ["sure"], 2, 1)

    @pytest.mark.parametrize("reps", [0, -1])
    def test_no_replications_rejected(self, reps):
        with pytest.raises(ConfigurationError, match="replications"):
            run_selection_benchmark("gaussian", ["sure"], reps, 1)

    @pytest.mark.parametrize("n_post", [0, -2])
    def test_no_post_periods_rejected(self, n_post):
        with pytest.raises(ConfigurationError, match="post-period"):
            run_selection_benchmark(
                "gaussian", ["sure"], 1, 1, n_donors=6, n_pre=12, n_post=n_post
            )

    def test_empty_method_list_rejected(self):
        with pytest.raises(ConfigurationError, match="no methods"):
            run_selection_benchmark("gaussian", [], 1, 1, n_donors=6, n_pre=12, n_post=3)

    def test_rank_correlation_is_scipys_spearman_on_ties(self):
        gen = np.random.default_rng(4)
        a = gen.integers(0, 5, size=20).astype(float)
        b = a + gen.integers(0, 3, size=20)
        assert len(np.unique(a)) < a.size and len(np.unique(b)) < b.size
        assert _spearman(a, b) == float(scipy.stats.spearmanr(a, b).statistic)
        for _ in range(400):
            n = int(gen.integers(3, 41))
            if gen.random() < 0.5:  # integers: many ties
                a = gen.integers(0, 4, size=n)
                b = a + gen.integers(-2, 3, size=n)
            else:  # floats, some of them rounded into ties
                a = gen.normal(size=n)
                b = np.round(a + gen.normal(size=n), int(gen.integers(0, 3)))
            if np.ptp(a) == 0 or np.ptp(b) == 0:
                continue
            assert _spearman(a, b) == float(scipy.stats.spearmanr(a, b).statistic)

    @pytest.mark.parametrize(
        "a, b",
        [
            ([2.0, 2.0, 2.0], [1.0, 3.0, 2.0]),
            ([1.0, 3.0, 2.0], [0.1, 0.1, 0.1]),
            ([1.0, np.nan, 2.0], [1.0, 3.0, 2.0]),
            ([1.0, 3.0, 2.0], [np.nan, np.nan, np.nan]),
        ],
    )
    def test_rank_correlation_is_none_on_constant_or_nan_input(self, a, b):
        assert _spearman(np.array(a), np.array(b)) is None

    def test_empirical_race_solves_the_predictor_weights_once(self, monkeypatch):
        # the outcome is drawn from the weights the race holds; drawn from
        # weights solved again per replication, as draw_factor_empirical
        # solves them, the report is the same to the bit
        solves = []
        blp_weights = FactorModelSpec.blp_weights
        monkeypatch.setattr(FactorModelSpec, "blp_weights",
                            lambda spec: solves.append(1) or blp_weights(spec))

        def race():
            return run_selection_benchmark("empirical", ["risk", "sure", "cv_holdout"], 3, 9,
                                           n_donors=8, n_pre=16, n_post=12, lambda_grid=[0.0, 0.3])

        report = race()
        assert len(solves) == 1
        draw = simulation._draw_empirical
        monkeypatch.setattr(simulation, "_draw_empirical",
                            lambda spec, pool, t_len, rng, w: draw(spec, pool, t_len, rng, spec.blp_weights()))
        assert race() == report
        assert len(solves) == 1 + 1 + 3

    def test_empirical_design_runs_with_default_pool(self):
        report = run_selection_benchmark(
            "empirical", ["risk", "sure"], 3, 9, n_donors=8, n_pre=16, n_post=12,
            lambda_grid=[0.0, 0.3],
        )
        assert report.method("risk").mse_lambda == 0.0
        assert report.method("sure").mse_tau12 is not None
