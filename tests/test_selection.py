import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthsel import selection, solvers
from synthsel.dof import df_hat
from synthsel.errors import ConfigurationError, ConvergenceError
from synthsel.panel import PanelDataset
from synthsel.selection import (
    _plain_sigma2,
    cv_holdout,
    cv_loo_untreated,
    cv_rolling,
    default_lambda_grid,
    ic_value,
    select_lambda_ic,
    select_v_ic,
    sigma2_hat,
    tuning_grid,
)
from synthsel.simulation import (
    draw_factor_gaussian,
    run_selection_benchmark,
    spawn_rng,
    synthetic_factor_spec,
)
from synthsel.solvers import (
    _active_set,
    _fit_grid,
    default_v_grid,
    solve_masc,
    solve_matching,
    solve_penalized_sc,
    solve_sc,
    solve_sc_cov_inner,
)

from conftest import make_instance, random_design
from oracles import masc_average


def _panel(seed=0, n=12, p=6, noise=0.4, post=0):
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(n + post, p))
    w = gen.dirichlet(np.full(p, 3.0))
    y = x @ w + noise * gen.normal(size=n + post)
    if post:
        return PanelDataset(
            y=y[:n], x=x[:n], post_y=y[n:], post_x=x[n:]
        )
    return PanelDataset(y=y, x=x)


class TestSigma2:
    def test_perfect_fit_gives_zero(self, rng):
        x = rng.normal(size=(8, 3))
        y = x @ np.array([0.5, 0.3, 0.2])
        assert sigma2_hat(y, x) == pytest.approx(0.0, abs=1e-18)

    def test_known_residuals(self):
        x = np.array([[1.0], [1.0], [1.0]])
        y = x[:, 0] + np.array([1.0, 2.0, 2.0])
        # single donor forces unit weight, so the residuals are exactly (1, 2, 2)
        assert sigma2_hat(y, x) == pytest.approx(3.0)

    def test_equals_independent_resolve(self):
        y, x = make_instance(40)
        fit = solve_sc(y, x)
        assert sigma2_hat(y, x) == pytest.approx(float(np.mean(fit.residuals**2)), abs=1e-15)


def _outcome(f, *args):
    """``f(*args)``, or the message of the ``ConvergenceError`` it raises:
    where ``solve_sc`` fails on a wide draw, the rule must fail as it does."""
    try:
        return f(*args)
    except ConvergenceError as exc:
        return str(exc)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    shape=st.sampled_from(["tall", "wide", "duplicated"]),
    kind=st.sampled_from(["penalized", "masc"]),
)
def test_sigma2_read_off_the_default_grid_is_sigma2_hat(seed, shape, kind):
    y, x = random_design(np.random.default_rng(seed), shape)
    points = tuning_grid(kind, n_donors=x.shape[1])
    want = _outcome(sigma2_hat, y, x)
    if kind == "masc" and isinstance(want, str):
        with pytest.raises(ConvergenceError, match=re.escape(want)):  # the grid's own plain solve fails
            _fit_grid(y, x, kind, points)
        return
    assert _outcome(_plain_sigma2, y, x, _fit_grid(y, x, kind, points)) == want


class TestPlainSigma2Fallback:
    """``_plain_sigma2`` solves plain synthetic control itself exactly when
    no fit it is given is ``solve_sc``'s fit: when none is at ``lam = 0``."""

    @pytest.fixture
    def solves(self, monkeypatch):
        # every plain synthetic-control solve, by solve_sc or by a grid's walker
        calls = []
        outer_solve = solvers._outer_solve

        def counted(kind, *a, **kw):
            if kind == "plain":
                calls.append(kind)
            return outer_solve(kind, *a, **kw)

        monkeypatch.setattr(solvers, "_outer_solve", counted)
        return calls

    def test_never_solves_when_the_grid_has_a_zero_penalty_fit(self, solves):
        # wide draws: many zero-penalty fits interpolate, with more active
        # donors than periods, and are still solve_sc's own fit
        interpolating = 0
        for seed in range(30):
            y, x = random_design(np.random.default_rng(seed), "wide")
            points = tuning_grid("penalized", [0.0, 0.1, 1.0])
            fits = _fit_grid(y, x, "penalized", points)
            want = _outcome(sigma2_hat, y, x)
            solves.clear()
            assert _outcome(_plain_sigma2, y, x, fits) == want
            assert not solves
            interpolating += fits[0].n_active > x.shape[0]
        assert interpolating > 0

    @pytest.mark.parametrize("kind", ["penalized", "masc"])
    def test_solves_when_the_grid_has_no_zero(self, solves, kind):
        y, x = random_design(np.random.default_rng(3), "tall")
        fits = _fit_grid(y, x, kind, tuning_grid(kind, [0.2, 0.7], [1, 2]))
        want = sigma2_hat(y, x)
        solves.clear()
        assert _plain_sigma2(y, x, fits) == want
        assert len(solves) == 1

    @pytest.mark.parametrize("kind", ["plain", "masc"])
    def test_reads_a_plain_or_averaged_zero_fit(self, solves, kind):
        y, x = random_design(np.random.default_rng(5), "duplicated")
        fits = _fit_grid(y, x, kind, tuning_grid(kind, [0.0], [2]))
        want = sigma2_hat(y, x)
        solves.clear()
        assert _plain_sigma2(y, x, fits) == want
        assert not solves

    def test_ic_selection_and_race_solve_plain_sc_only_for_their_grid(self, solves):
        panel = _panel(seed=2, n=14, p=5)
        select_lambda_ic(panel, "penalized")
        assert not solves
        select_lambda_ic(panel, "masc")
        assert len(solves) == 1  # the model-averaged grid's own plain component
        solves.clear()
        run_selection_benchmark("gaussian", ["sure"], 2, 1, n_donors=5, n_pre=14, n_post=3)
        assert not solves


class TestIcValue:
    def test_zero_noise_returns_rss(self):
        assert ic_value(7.5, 0.0, 11.0) == 7.5

    def test_formula_arithmetic(self):
        assert ic_value(10.0, 2.0, 3.0) == 22.0

    def test_penalized_fit_matches_display_formula(self):
        y, x = make_instance(41, n=14, p=5)
        lam = 0.4
        fit = solve_penalized_sc(y, x, lam)
        s2 = sigma2_hat(y, x)
        expected = fit.rss + 2 * s2 * (1 + lam) * (len(fit.sets.a) - 1)
        assert fit.kkt.face_dim == len(fit.sets.a) - 1
        assert ic_value(fit.rss, s2, df_hat(fit).df_hat) == pytest.approx(expected, rel=1e-12)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            ic_value(-1.0, 1.0, 1.0)

    def test_penalty_is_linear_in_df_with_slope_two_sigma2(self):
        s2 = 0.7
        gaps = [ic_value(3.0, s2, df) - 3.0 for df in (0.0, 1.0, 2.0, 5.0)]
        slopes = np.diff(gaps) / np.diff([0.0, 1.0, 2.0, 5.0])
        np.testing.assert_allclose(slopes, 2 * s2)

    def test_monotone_in_df_for_positive_noise(self):
        assert ic_value(3.0, 0.5, 4.0) > ic_value(3.0, 0.5, 3.0)


class TestSelectLambdaIc:
    def test_singleton_grid(self):
        res = select_lambda_ic(_panel(1), "penalized", grid=[0.7])
        assert res.chosen_point.lam == 0.7
        assert res.method == "sure"

    def test_overfit_instance_prefers_positive_lambda(self):
        # exact representation at zero penalty with many active donors, and
        # one donor sitting almost on the outcome; a large injected noise
        # level makes the df term dominate the zero-penalty score
        gen = np.random.default_rng(5)
        n, p = 6, 12
        x = gen.normal(size=(n, p))
        w = gen.dirichlet(np.full(p, 5.0))
        y = x @ w
        x[:, 0] = y + 0.05 * gen.normal(size=n)
        panel = PanelDataset(y=y, x=x)
        res = select_lambda_ic(panel, "penalized", grid=[0.0, 5.0], sigma2=10.0)
        fit0 = solve_penalized_sc(y, x, 0.0)
        fit1 = solve_penalized_sc(y, x, 5.0)
        by_hand = [
            ic_value(f.rss, 10.0, df_hat(f).df_hat) for f in (fit0, fit1)
        ]
        assert res.scores == pytest.approx(by_hand)
        assert fit0.rss == pytest.approx(0.0, abs=1e-16)
        assert df_hat(fit0).df_hat > df_hat(fit1).df_hat
        assert by_hand[1] < by_hand[0]
        assert res.chosen_point.lam == 5.0

    def test_equal_scores_break_to_larger_lambda(self, rng):
        x = rng.normal(size=(8, 3))
        y = x[:, 0].copy()
        res = select_lambda_ic(PanelDataset(y=y, x=x), "penalized", grid=[0.1, 0.2])
        assert res.chosen_point.lam == 0.2

    def test_masc_grid_joint_in_m(self):
        res = select_lambda_ic(_panel(3, p=5), "masc", grid=[0.0, 0.5], m_grid=[1, 2, 3])
        assert len(res.grid) == 6
        assert res.grid[res.chosen] is res.chosen_point

    def test_masc_grid_scores_equal_pointwise_fits_exactly(self):
        # the grid solves each component once; every score must still be
        # bit-identical to a fresh solve_masc at that point
        panel = _panel(4, p=6)
        res = select_lambda_ic(panel, "masc", grid=[0.0, 0.3, 1.0], m_grid=[1, 4])
        s2 = sigma2_hat(panel.y, panel.x)
        for pt, score in zip(res.grid, res.scores):
            fit = solve_masc(panel.y, panel.x, pt.lam, pt.m)
            assert score == ic_value(fit.rss, s2, df_hat(fit).df_hat)


def _select_design_draw(spec, key):
    """A draw of the select benchmark's design: 36 pre-periods of 40
    donors, and three covariate rows, the means over three blocks of
    periods (the outcome's are the targets)."""
    draw = draw_factor_gaussian(spec, 48, spawn_rng(key, 1))
    return _with_block_rows(draw.y[:36], draw.x[:36])


def _probe_draw(seed):
    """A probe draw: 5-39 periods, 2-59 donors, an outcome in the donors'
    hull plus noise, and block-mean covariate rows."""
    g = np.random.default_rng(seed)
    n, p = int(g.integers(5, 40)), int(g.integers(2, 60))
    x = g.normal(size=(n, p))
    return _with_block_rows(x @ g.dirichlet(np.ones(p)) + 0.3 * g.normal(size=n), x)


def _with_block_rows(y, x):
    blocks = np.array_split(np.arange(y.size), 3)
    return y, x, np.array([y[b].mean() for b in blocks]), np.vstack([x[b].mean(axis=0) for b in blocks])


@pytest.mark.parametrize("kind", ["penalized", "masc", "covariate"])
@pytest.mark.parametrize("design", ["select", "probe"])
def test_grid_fits_read_their_support_and_df_off_the_certificate(kind, design):
    """Every grid fit's active set is the support its certificate records,
    which is ``_active_set`` of the engine's solution (for model averaging,
    of the plain component; a matching fit's of its weights), and every IC
    score is ``ic_value`` of the fit's RSS and ``df_hat``, to the bit."""
    if design == "select":
        spec = synthetic_factor_spec(40, 48, r=1, seed=100, sigma_y=0.5, sigma_x=2.0)
        draws = [_select_design_draw(spec, key) for key in range(12)]
    else:
        draws = [_probe_draw(seed) for seed in range(50)]
    lams = np.concatenate([[0.0], np.geomspace(0.0125, 10.0, 19)])
    for y, x, z, d in draws:
        points = tuning_grid(kind, None if kind == "masc" else lams, n_donors=x.shape[1], n_cov=3)
        fits = _fit_grid(y, x, kind, points, z, d)
        res = selection._ic_select(points, fits, y, x)
        for fit, score in zip(fits, res.scores):
            assert fit.sets.a == fit.kkt.support == _active_set(fit.kkt.beta)
            assert kind == "masc" or fit.kkt.beta is fit.beta
            assert score == ic_value(fit.rss, res.sigma2_hat, df_hat(fit).df_hat)
        for m in sorted({pt.m for pt in points} - {None}):
            fit = solve_matching(y, x, m)
            assert fit.sets.a == fit.kkt.support == _active_set(fit.beta)


class TestSelectVIc:
    def test_singleton_grids(self):
        panel = _panel(7)
        gen = np.random.default_rng(17)
        d = gen.normal(size=(2, panel.p))
        z = d @ solve_sc(panel.y, panel.x).beta
        panel_cov = PanelDataset(y=panel.y, x=panel.x, z=z, d=d)
        v = np.array([0.5, 0.5])
        res = select_v_ic(panel_cov, [v], lambda_grid=[0.3])
        assert res.chosen_point.lam == 0.3
        assert res.chosen_point.v == tuple(v)

    def test_two_by_two_grid_matches_exhaustive_hand_evaluation(self):
        from synthsel.solvers import solve_sc_cov_inner

        panel = _panel(8)
        gen = np.random.default_rng(18)
        d = gen.normal(size=(2, panel.p))
        z = d @ np.full(panel.p, 1.0 / panel.p)
        panel_cov = PanelDataset(y=panel.y, x=panel.x, z=z, d=d)
        vs = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        lams = [0.0, 0.5]
        res = select_v_ic(panel_cov, vs, lambda_grid=lams)
        s2 = sigma2_hat(panel.y, panel.x)
        by_hand = []
        for v in vs:
            for lam in lams:
                fit = solve_sc_cov_inner(panel.y, panel.x, z, d, v, lam=lam)
                by_hand.append(ic_value(fit.rss, s2, df_hat(fit).df_hat))
        assert res.scores == pytest.approx(by_hand)
        assert res.chosen == int(np.argmin(by_hand)) or res.scores[res.chosen] == pytest.approx(min(by_hand))

    def test_requires_covariates(self):
        with pytest.raises(ConfigurationError):
            select_v_ic(_panel(9), [np.array([1.0])], lambda_grid=[0.0])

    @pytest.mark.parametrize(
        "bad, match",
        [
            ([0.5, 0.3, 0.2], "length does not match"),
            ([1.5, -0.5], "nonnegative"),
            ([0.0, 0.0], "not all be zero"),
            ([np.nan, 1.0], "must be finite"),
            ([np.inf, 1.0], "must be finite"),
        ],
    )
    def test_bad_weighting_fails_before_any_solve_of_it(self, monkeypatch, bad, match):
        from synthsel import solvers
        from synthsel.solvers import solve_sc_cov_inner

        panel = _panel(10)
        d = np.random.default_rng(19).normal(size=(2, panel.p))
        panel_cov = PanelDataset(y=panel.y, x=panel.x, z=d @ np.full(panel.p, 1.0 / panel.p), d=d)
        with pytest.raises(ConfigurationError, match=match):
            solve_sc_cov_inner(panel.y, panel.x, panel_cov.z, d, np.array(bad))
        solves = []
        engine = solvers.simplex_ls
        monkeypatch.setattr(solvers, "simplex_ls", lambda *a, **k: solves.append(1) or engine(*a, **k))
        with pytest.raises(ConfigurationError, match=match):
            select_v_ic(panel_cov, [np.array([0.5, 0.5]), np.array(bad)], lambda_grid=[0.0, 0.5])
        assert len(solves) == 1  # the inner solve of the good weighting, nothing after it


def _cov_panel(seed, n=10, p=4, post=4):
    """``_panel`` with two covariate rows: one the donors fit exactly, one
    shifted off every simplex fit."""
    panel = _panel(seed, n=n, p=p, post=post)
    gen = np.random.default_rng(seed + 100)
    d = gen.normal(size=(2, p))
    z = d @ gen.dirichlet(np.ones(p)) + np.array([0.0, 1.0])
    return PanelDataset(y=panel.y, x=panel.x, z=z, d=d, post_y=panel.post_y, post_x=panel.post_x)


@pytest.mark.parametrize("select", [
    lambda panel: select_lambda_ic(panel, "penalized", [-0.5, 0.0, 1.0]),
    lambda panel: select_v_ic(panel, default_v_grid(2), [0.0, np.nan]),
    lambda panel: cv_rolling(panel, "penalized", [1.0, -1.0]),
], ids=["ic_penalized", "ic_v", "cv_rolling"])
def test_bad_penalty_fails_before_any_solve(monkeypatch, select):
    # every tuning value of a grid is checked before the engine runs, inner
    # solves included, as a model-averaging grid's weights are
    solves = []
    engine = solvers.simplex_ls
    monkeypatch.setattr(solvers, "simplex_ls", lambda *a, **k: solves.append(1) or engine(*a, **k))
    with pytest.raises(ConfigurationError, match=r"^penalty parameter must be finite and >= 0, got "):
        select(_cov_panel(7))
    assert not solves


@pytest.mark.parametrize("m_grid, shown", [
    ([1, 0], "m=0"), ([7], "m=7"), ([2.5], "m=2.5"), ([None], "m=None"), ([np.nan], "m=nan"),
])
def test_bad_matching_count_fails_before_any_solve(monkeypatch, m_grid, shown):
    # a count that is not an integral value in 1..p is refused by name, as a
    # bad averaging weight is, before the plain component is solved
    panel = _panel(7, p=6, post=4)
    assert tuning_grid("masc", [0.5], m_grid)[-1].m is m_grid[-1]  # kept as given, not truncated
    solves = []
    engine = solvers.simplex_ls
    monkeypatch.setattr(solvers, "simplex_ls", lambda *a, **k: solves.append(1) or engine(*a, **k))
    match = rf"^matching count {re.escape(shown)} is not an integer in 1\.\.6$"
    with pytest.raises(ConfigurationError, match=match):
        select_lambda_ic(panel, "masc", [0.0, 0.5], m_grid=m_grid)
    with pytest.raises(ConfigurationError, match=match):
        cv_rolling(panel, "masc", [0.0, 0.5], m_grid=m_grid)
    with pytest.raises(ConfigurationError, match=match):
        solve_masc(panel.y, panel.x, 0.5, m_grid[-1])
    with pytest.raises(ConfigurationError, match=match):
        solvers.matching_weights(panel.y, panel.x, m_grid[-1])
    assert not solves


@pytest.mark.parametrize("sigma2", [np.nan, np.inf, -1.0])
@pytest.mark.parametrize("select", [
    lambda panel, s2: select_lambda_ic(panel, "penalized", sigma2=s2),
    lambda panel, s2: select_lambda_ic(panel, "masc", sigma2=s2),
    lambda panel, s2: select_v_ic(panel, default_v_grid(2), [0.0, 1.0], sigma2=s2),
], ids=["ic_penalized", "ic_masc", "ic_v"])
def test_bad_noise_variance_fails_before_any_solve(monkeypatch, select, sigma2):
    solves = []
    engine = solvers.simplex_ls
    monkeypatch.setattr(solvers, "simplex_ls", lambda *a, **k: solves.append(1) or engine(*a, **k))
    match = rf"^noise variance sigma2 must be finite and >= 0, got {re.escape(str(sigma2))}$"
    with pytest.raises(ConfigurationError, match=match):
        select(_cov_panel(7), sigma2)
    assert not solves


def _recorded(f, name, calls):
    """``f``, appending ``name`` to ``calls`` at each call."""
    def recorded(*args, **kwargs):
        calls.append(name)
        return f(*args, **kwargs)
    return recorded


def _assert_same_bits(got, want, name):
    """``got`` equals ``want`` bit for bit: arrays by shape, dtype and bytes,
    dataclasses field by field, anything else by ``==`` and type."""
    if dataclasses.is_dataclass(want):
        assert type(got) is type(want), name
        for f in dataclasses.fields(want):
            _assert_same_bits(getattr(got, f.name), getattr(want, f.name), f"{name}.{f.name}")
    elif isinstance(want, np.ndarray):
        assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes()), name
    else:
        assert type(got) is type(want) and got == want, name


@pytest.mark.filterwarnings("ignore:donor columns are exact duplicates")
@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    shape=st.sampled_from(["tall", "wide", "duplicated"]),
    m_draws=st.lists(st.integers(0, 1000), min_size=1, max_size=5),
    inner=st.lists(st.floats(0.0, 1.0), max_size=4),
)
def test_masc_grid_equals_the_average_of_its_component_fits(seed, shape, m_draws, inner):
    """Every field of every point of a model-averaging grid, unsorted and
    repeated counts included, and every IC score equal the average of the
    separately solved plain and matching fits (``oracles.masc_average``) bit
    for bit, and the IC solves plain synthetic control once and runs no
    matching estimator."""
    y, x = random_design(np.random.default_rng(seed), shape)
    m_grid = [1 + k % x.shape[1] for k in m_draws]
    lams = [1.0, *inner, 0.0]
    panel = PanelDataset(y=y, x=x)
    try:
        fit_sc = solve_sc(y, x)
    except ConvergenceError as exc:  # the grid's own plain solve fails as solve_sc does
        with pytest.raises(ConvergenceError, match=re.escape(str(exc))):
            select_lambda_ic(panel, "masc", lams, m_grid=m_grid)
        return
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("simplex_ls", "solve_matching"):
            mp.setattr(solvers, name, _recorded(getattr(solvers, name), name, calls))
        res = select_lambda_ic(panel, "masc", lams, m_grid=m_grid)
    assert calls == ["simplex_ls"]
    s2 = sigma2_hat(y, x)
    assert res.sigma2_hat == s2
    fits = _fit_grid(y, x, "masc", res.grid)
    assert len(fits) == len(res.grid) == len(list(fits))
    for pt, fit, score in zip(res.grid, fits, res.scores):
        want = masc_average(y, fit_sc, solve_matching(y, x, pt.m), pt.lam)
        for name, value in want.items():
            _assert_same_bits(getattr(fit, name), value, name)
        resid = want["residuals"]
        assert score == ic_value(float(resid @ resid), s2, (1.0 - pt.lam) * want["kkt"].face_dim)


class TestCovariateKind:
    @pytest.mark.parametrize("method", ["holdout", "rolling", "loo"])
    def test_cv_scores_are_fold_means_of_pointwise_fits(self, method):
        panel = _cov_panel(31)
        y, x, z, d, post_x = panel.y, panel.x, panel.z, panel.d, panel.post_x
        grid = [0.0, 0.5]
        if method == "holdout":
            res = cv_holdout(panel, "covariate", grid)
            folds = [(y[:5], x[:5], z, d, y[5:], x[5:])]
        elif method == "rolling":
            res = cv_rolling(panel, "covariate", grid)
            folds = [(y[:t], x[:t], z, d, y[t : t + 1], x[t : t + 1]) for t in range(5, 10)]
        else:
            res = cv_loo_untreated(panel, "covariate", grid)
            keeps = [[k for k in range(4) if k != j] for j in range(4)]
            folds = [(x[:, j], x[:, keep], d[:, j], d[:, keep], post_x[:, j], post_x[:, keep])
                     for j, keep in enumerate(keeps)]
        assert res.grid == tuning_grid("covariate", grid, n_cov=2)
        by_hand = []
        for pt in res.grid:
            errs = []
            for y_tr, x_tr, z_tr, d_tr, y_te, x_te in folds:
                fit = solve_sc_cov_inner(y_tr, x_tr, z_tr, d_tr, np.asarray(pt.v), lam=pt.lam)
                errs.append(float(np.mean((y_te - x_te @ fit.beta) ** 2)))
            by_hand.append(sum(errs) / len(folds))
        np.testing.assert_array_equal(res.scores, by_hand)

    @pytest.mark.parametrize("select", [select_lambda_ic, cv_holdout, cv_loo_untreated, cv_rolling])
    def test_every_selector_requires_covariates(self, select):
        with pytest.raises(ConfigurationError, match="needs covariates"):
            select(_panel(9, post=4), "covariate", [0.0])


class TestCvHoldout:
    def test_noiseless_representable_scores_zero_and_breaks_to_largest(self, rng):
        x = rng.normal(size=(8, 3))
        y = x[:, 1].copy()
        res = cv_holdout(PanelDataset(y=y, x=x), "penalized", grid=[0.0, 0.4, 1.2])
        np.testing.assert_allclose(res.scores, 0.0, atol=1e-18)
        assert res.chosen_point.lam == 1.2

    def test_hand_built_two_period_mse(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([1.5, 2.5, 4.0, 3.0])
        res = cv_holdout(PanelDataset(y=y, x=x), "plain", grid=[0.0], split_fraction=0.5)
        # single donor forces unit weight; test periods err by 1.0 and -1.0
        assert res.scores[0] == pytest.approx(1.0)

    def test_grid_zero_returns_zero(self):
        res = cv_holdout(_panel(10), "penalized", grid=[0.0])
        assert res.chosen_point.lam == 0.0

    def test_degenerate_split_rejected(self):
        with pytest.raises(ConfigurationError):
            cv_holdout(_panel(11, n=4), "penalized", grid=[0.0], split_fraction=0.1)

    def test_non_unique_window_keeps_its_cold_fit(self):
        # one acceptance-09 draw whose 18-row training window at lam=0 has
        # 19 active donors of rank 18 and a zero residual: a warm start from
        # the lam=0.0125 fit lands on another optimum with a worse forecast
        spec = synthetic_factor_spec(40, 48, r=1, seed=100, sigma_y=0.5, sigma_x=2.0)
        draw = draw_factor_gaussian(spec, 48, spawn_rng(389, 0))
        panel = PanelDataset(y=draw.y[:36], x=draw.x[:36], post_y=draw.y[36:], post_x=draw.x[36:])
        grid = np.concatenate([[0.0], np.geomspace(0.0125, 10.0, 19)])
        cold = solve_penalized_sc(panel.y[:18], panel.x[:18], 0.0)
        # X_A N is 18 x 18 of full rank, but every multiplier is zero
        assert (cold.n_active, cold.kkt.face_dim, cold.kkt.face_cols) == (19, 18, 18)
        assert not cold.kkt.unique
        res = cv_holdout(panel, "penalized", grid=grid, split_fraction=0.5)
        assert res.chosen == 1
        err = panel.y[18:] - panel.x[18:] @ cold.beta
        assert res.scores[0] == float(np.mean(err**2))


class TestCvLooUntreated:
    @pytest.mark.filterwarnings("ignore:donor columns are exact duplicates")
    def test_identical_donors_score_zero(self, rng):
        base = rng.normal(size=10)
        x = np.column_stack([base, base])
        y = rng.normal(size=10)
        post = rng.normal(size=4)
        panel = PanelDataset(y=y[:6], x=x[:6], post_y=y[6:], post_x=x[6:])
        res = cv_loo_untreated(panel, "penalized", grid=[0.0, 0.5])
        np.testing.assert_allclose(res.scores, 0.0, atol=1e-18)

    def test_matches_independent_recomputation(self):
        panel = _panel(12, n=10, p=3, post=4)
        res = cv_loo_untreated(panel, "plain", grid=[0.0])
        total = 0.0
        for j in range(3):
            keep = [k for k in range(3) if k != j]
            fit = solve_sc(panel.x[:, j], panel.x[:, keep])
            err = panel.post_x[:, j] - panel.post_x[:, keep] @ fit.beta
            total += float(np.mean(err**2))
        assert res.scores[0] == pytest.approx(total / 3)

    def test_requires_post_donor_data(self):
        with pytest.raises(ConfigurationError):
            cv_loo_untreated(_panel(13), "penalized", grid=[0.0])


class TestCvRolling:
    def test_matches_holdout_when_single_fold(self):
        panel = _panel(14, n=10)
        r1 = cv_rolling(panel, "penalized", grid=[0.0, 0.5], window=9, horizon=1)
        r2 = cv_holdout(panel, "penalized", grid=[0.0, 0.5], split_fraction=0.9)
        np.testing.assert_allclose(r1.scores, r2.scores)

    def test_noiseless_scores_zero(self, rng):
        x = rng.normal(size=(9, 3))
        y = x[:, 0].copy()
        res = cv_rolling(PanelDataset(y=y, x=x), "penalized", grid=[0.0, 1.0], window=5)
        np.testing.assert_allclose(res.scores, 0.0, atol=1e-18)

    def test_hand_built_two_fold_average(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0], [5.0], [6.0]])
        y = np.array([1.0, 2.0, 3.0, 4.0, 4.5, 6.5])
        res = cv_rolling(PanelDataset(y=y, x=x), "plain", grid=[0.0], window=4, horizon=1)
        # unit weight forecasts give errors -0.5 at t=5 and 0.5 at t=6
        assert res.scores[0] == pytest.approx(0.25)

    def test_infeasible_window_rejected(self):
        with pytest.raises(ConfigurationError):
            cv_rolling(_panel(15, n=6), "penalized", grid=[0.0], window=6, horizon=1)


def test_default_grids_have_documented_shape():
    pen = default_lambda_grid("penalized")
    masc = default_lambda_grid("masc")
    assert pen.size == 40 and pen[0] == 0.0 and pen[-1] == pytest.approx(10.0)
    assert pen[1] == pytest.approx(0.0125)
    assert masc.size == 21 and masc[0] == 0.0 and masc[-1] == 1.0
    np.testing.assert_array_equal(default_lambda_grid("covariate"), pen)


def test_tuning_grid_needs_donor_count_for_masc():
    with pytest.raises(ConfigurationError):
        tuning_grid("masc", [0.5])


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_selectors_return_grid_members_with_nonnegative_cv_scores(seed):
    gen = np.random.default_rng(seed)
    n, p = 12, 4
    x = gen.normal(size=(n + 4, p))
    y = x @ gen.dirichlet(np.full(p, 3.0)) + 0.5 * gen.normal(size=n + 4)
    panel = PanelDataset(y=y[:n], x=x[:n], post_y=y[n:], post_x=x[n:])
    grid = [0.0, 0.3, 1.5]
    for res in (
        select_lambda_ic(panel, "penalized", grid),
        cv_holdout(panel, "penalized", grid),
        cv_loo_untreated(panel, "penalized", grid),
        cv_rolling(panel, "penalized", grid),
    ):
        assert 0 <= res.chosen < len(res.grid)
        assert res.chosen_point.lam in grid
        if res.method != "sure":
            assert np.all(res.scores >= 0.0)
