from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthsel.dof import (
    CASE_COV_FEW,
    CASE_COV_MANY,
    df_hat,
    divergence,
    divergence_fd_oracle,
)
from synthsel.errors import ConfigurationError
from synthsel.solvers import (
    eq_constrained_hat,
    solve_masc,
    solve_matching,
    solve_penalized_sc,
    solve_sc,
    solve_sc_cov_inner,
)

from conftest import make_instance, near_common_rows
from oracles import rank_one_correction_divergence


def _all_active_instance(seed, n=14, p=5, noise=0.25):
    """Instance whose plain fit keeps every donor active."""
    gen = np.random.default_rng(seed)
    for attempt in range(50):
        x = gen.normal(size=(n, p))
        w = gen.dirichlet(np.full(p, 8.0))
        y = x @ w + noise * gen.normal(size=n)
        if len(solve_sc(y, x).sets.a) == p:
            return y, x
    raise AssertionError("could not build an all-active instance")


def _cov_few_instance(seed, n=12, p=6, k=2):
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(n, p))
    w = gen.dirichlet(np.full(p, 8.0))
    y = x @ w + 0.3 * gen.normal(size=n)
    d = gen.normal(size=(k, p))
    z = d @ w
    v = np.full(k, 1.0 / k)
    return y, x, z, d, v


def _cov_many_instance(seed, n=12, p=6, k=4):
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(n, p))
    y = x[:, 0] + 0.05 * gen.normal(size=n)
    d = gen.normal(size=(k, p))
    z = d @ np.full(p, 1.0 / p) + 10.0
    v = np.full(k, 1.0 / k)
    return y, x, z, d, v


class TestDivergenceSc:
    def test_single_active_donor_gives_zero_matrix(self, rng):
        x = rng.normal(size=(8, 4))
        fit = solve_sc(x[:, 2].copy(), x)
        assert fit.sets.a == (2,)
        div = divergence(fit, x)
        assert np.max(np.abs(div.matrix)) == pytest.approx(0.0, abs=1e-12)
        assert div.trace == pytest.approx(0.0, abs=1e-12)

    def test_trace_is_active_count_minus_one(self):
        for seed in range(10):
            y, x = make_instance(seed, n=12, p=6)
            fit = solve_sc(y, x)
            div = divergence(fit, x)
            assert div.trace == pytest.approx(len(fit.sets.a) - 1, abs=1e-10)

    def test_matrix_is_symmetric(self):
        y, x = make_instance(3, n=10, p=5)
        div = divergence(solve_sc(y, x), x)
        assert np.max(np.abs(div.matrix - div.matrix.T)) <= 1e-10

    def test_rank_one_correction_form_agrees(self):
        y, x = make_instance(4, n=10, p=5)
        fit = solve_sc(y, x)
        a = divergence(fit, x).matrix
        b = rank_one_correction_divergence(x[:, list(fit.sets.a)])
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_covariate_few_case_matches_finite_differences(self):
        y, x, z, d, v = _cov_few_instance(21)
        fit = solve_sc_cov_inner(y, x, z, d, v)
        assert fit.sets.e_minus_m and len(fit.sets.m_and_e) < len(fit.sets.a) - 1
        analytic = divergence(fit, x, d)
        fd = divergence_fd_oracle(lambda yy: solve_sc_cov_inner(yy, x, z, d, v), y)
        assert not fd.active_set_changed
        assert np.max(np.abs(analytic.matrix - fd.matrix)) <= 1e-5


class TestDivergencePen:
    def test_zero_penalty_equals_plain_divergence(self):
        y, x = make_instance(6)
        pen = solve_penalized_sc(y, x, 0.0)
        plain = solve_sc(y, x)
        np.testing.assert_allclose(
            divergence(pen, x).matrix, divergence(plain, x).matrix, atol=1e-10
        )

    def test_trace_five_active_donors_lambda_half(self):
        y, x = _all_active_instance(8, p=5)
        fit = solve_penalized_sc(y, x, 0.5)
        assert len(fit.sets.a) == 5
        assert divergence(fit, x).trace == pytest.approx(1.5 * 4, abs=1e-9)

    def test_finite_difference_agreement(self):
        y, x = make_instance(9, n=10, p=5)
        fit = solve_penalized_sc(y, x, 0.3)
        fd = divergence_fd_oracle(lambda yy: solve_penalized_sc(yy, x, 0.3), y)
        if fd.active_set_changed:
            pytest.skip("active set flipped at the perturbation points")
        assert np.max(np.abs(divergence(fit, x).matrix - fd.matrix)) <= 1e-5


class TestDivergenceMasc:
    def test_pure_matching_is_zero(self):
        y, x = make_instance(10)
        fit = solve_masc(y, x, 1.0, 2)
        div = divergence(fit, x)
        assert np.max(np.abs(div.matrix)) == 0.0

    def test_zero_averaging_recovers_sc_divergence(self):
        y, x = make_instance(11)
        fit = solve_masc(y, x, 0.0, 2)
        np.testing.assert_allclose(
            divergence(fit, x).matrix,
            divergence(solve_sc(y, x), x).matrix,
            atol=1e-12,
        )

    def test_trace_scales_with_one_minus_lambda(self):
        y, x = _all_active_instance(12, p=5)
        fit = solve_masc(y, x, 0.25, 2)
        assert len(fit.sets.a) == 5
        assert divergence(fit, x).trace == pytest.approx(0.75 * 4, abs=1e-9)


class TestDfHat:
    def test_plain_rank_four(self):
        y, x = _all_active_instance(13, p=4)
        report = df_hat(solve_sc(y, x))
        assert (report.n_active, report.face_dim) == (4, 3)
        assert report.df_hat == 3.0
        assert report.case == "plain"

    def test_covariate_few_branch_subtracts_binding_rows(self):
        y, x, z, d, v = _cov_few_instance(14, n=14, p=6, k=2)
        fit = solve_sc_cov_inner(y, x, z, d, v)
        report = df_hat(fit)
        assert report.case == CASE_COV_FEW
        assert report.df_hat == report.n_active - report.n_em - 1

    def test_covariate_many_branch_keeps_plain_value(self):
        y, x, z, d, v = _cov_many_instance(15)
        fit = solve_sc_cov_inner(y, x, z, d, v)
        report = df_hat(fit)
        assert report.case == CASE_COV_MANY
        assert report.df_hat == report.n_active - 1

    def test_masc_pure_matching_spends_nothing(self):
        y, x = make_instance(16)
        assert df_hat(solve_masc(y, x, 1.0, 2)).df_hat == 0.0

    def test_matching_fit_spends_nothing(self):
        y, x = make_instance(17)
        report = df_hat(solve_matching(y, x, 3))
        # the weights are not an engine solution: their face is empty
        assert (report.df_hat, report.face_dim) == (0.0, 0)


class TestFdOracle:
    def test_affine_map_recovered_exactly(self, rng):
        n = 7
        h_mat = rng.normal(size=(n, n))
        c = rng.normal(size=n)
        solver = lambda y: SimpleNamespace(fitted=h_mat @ y + c, sets=None)
        fd = divergence_fd_oracle(solver, rng.normal(size=n))
        np.testing.assert_allclose(fd.matrix, h_mat, atol=1e-8)
        assert not fd.active_set_changed

    def test_constant_map_gives_zero(self, rng):
        n = 5
        const = rng.normal(size=n)
        fd = divergence_fd_oracle(lambda y: SimpleNamespace(fitted=const, sets=None), rng.normal(size=n))
        assert np.max(np.abs(fd.matrix)) == 0.0

    def test_plain_sc_agreement_with_relative_step(self):
        y, x = make_instance(22, n=10, p=5)
        fit = solve_sc(y, x)
        fd = divergence_fd_oracle(lambda yy: solve_sc(yy, x), y)
        assert fd.step == pytest.approx(1e-5 * max(1.0, np.max(np.abs(y))))
        if fd.active_set_changed:
            pytest.skip("active set flipped at the perturbation points")
        assert np.max(np.abs(divergence(fit, x).matrix - fd.matrix)) <= 1e-5

    @pytest.mark.parametrize("step", [0.0, -1e-5, np.nan, np.inf, -np.inf])
    def test_step_must_be_finite_and_positive(self, rng, step):
        solved = []
        with pytest.raises(ConfigurationError, match="finite and positive"):
            divergence_fd_oracle(solved.append, rng.normal(size=4), step=step)
        assert not solved

    def test_flip_detection_flags_unstable_columns(self):
        # a fit whose active set depends on the sign of the first coordinate
        def solver(y):
            sets = (0,) if y[0] > 0 else (1,)
            return SimpleNamespace(fitted=np.abs(y), sets=sets)

        y = np.zeros(3)
        fd = divergence_fd_oracle(solver, y, step=0.5)
        assert fd.active_set_changed
        assert 0 in fd.changed_coordinates


def test_ols_projection_trace_equals_regressor_count(rng):
    x = rng.normal(size=(30, 6))
    assert np.trace(eq_constrained_hat(x, np.zeros((0, 6)))) == pytest.approx(6.0, abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_trace_identities_random_instances(seed):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(8, 16))
    p = int(gen.integers(2, 7))
    x = gen.normal(size=(n, p))
    y = x @ gen.dirichlet(np.full(p, 4.0)) + 0.4 * gen.normal(size=n)
    lam = float(gen.uniform(0, 2))
    alpha = float(gen.uniform(0, 1))

    plain = solve_sc(y, x)
    assert divergence(plain, x).trace == pytest.approx(len(plain.sets.a) - 1, abs=1e-8)
    pen = solve_penalized_sc(y, x, lam)
    assert divergence(pen, x).trace == pytest.approx((1 + lam) * (len(pen.sets.a) - 1), abs=1e-8)
    masc = solve_masc(y, x, alpha, 2)
    assert divergence(masc, x).trace == pytest.approx((1 - alpha) * (len(masc.sets.a) - 1), abs=1e-8)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_df_hat_equals_divergence_trace_for_every_kind(seed):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(10, 16))
    p = int(gen.integers(3, 6))
    x = gen.normal(size=(n, p))
    w = gen.dirichlet(np.full(p, 4.0))
    y = x @ w + 0.3 * gen.normal(size=n)
    lam = float(gen.uniform(0.05, 2.0))
    # two rows the weights fit exactly bind (cov_few); p - 1 rows that no
    # weights can fit outnumber any active set (cov_many)
    d_few = gen.normal(size=(2, p))
    d_many = gen.normal(size=(p - 1, p))
    few = solve_sc_cov_inner(y, x, d_few @ w, d_few, np.full(2, 0.5), lam=lam)
    v_many = np.full(p - 1, 1.0 / (p - 1))
    many = solve_sc_cov_inner(y, x, d_many @ w + 25.0, d_many, v_many, lam=lam)
    assert (df_hat(few).case, df_hat(many).case) == (CASE_COV_FEW, CASE_COV_MANY)
    no_rows = solve_sc_cov_inner(y, x, np.zeros(0), np.zeros((0, p)), np.zeros(0), lam=lam)
    fits = [
        (solve_sc(y, x), None),
        (solve_penalized_sc(y, x, lam), None),
        (solve_matching(y, x, 2), None),
        *[(solve_masc(y, x, alpha, 2), None) for alpha in (0.0, 0.5, 1.0)],
        (few, d_few),
        (many, d_many),
        (no_rows, None),
    ]
    for fit, d in fits:
        assert abs(df_hat(fit).df_hat - divergence(fit, x, d).trace) <= 1e-9


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_df_hat_equals_divergence_trace_with_near_common_covariate_rows(seed):
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(24, 12))
    w = gen.dirichlet(np.ones(12))
    y = x @ w + 0.3 * gen.normal(size=24)
    d = near_common_rows(gen, 12)[1:]
    fit = solve_sc_cov_inner(y, x, d @ w, d, np.full(d.shape[0], 1.0 / d.shape[0]),
                             lam=float(gen.uniform(0.0, 1.0)))
    assert abs(df_hat(fit).df_hat - divergence(fit, x, d).trace) <= 1e-12


def test_covariate_phase_transition_profile():
    """Adding exactly-fit covariate rows removes one df each until enough
    rows cannot be fit, at which point the plain value returns."""
    gen = np.random.default_rng(42)
    n, p = 40, 10
    x = gen.normal(size=(n, p))
    w = gen.dirichlet(np.full(p, 12.0))
    y = x @ w + 0.05 * gen.normal(size=n)
    d_full = gen.normal(size=(8, p))

    profile = []
    cases = []
    for k in range(0, 7):
        if k == 0:
            fit = solve_sc(y, x)
        else:
            d = d_full[:k]
            z = d @ w if k <= 4 else d @ w + 25.0
            fit = solve_sc_cov_inner(y, x, z, d, np.full(k, 1.0 / k))
        report = df_hat(fit)
        profile.append(report.df_hat)
        cases.append(report.case)
    # binding rows reduce df one-for-one, then the reduction disappears
    assert profile[0] == 9.0
    assert profile[1:5] == [8.0, 7.0, 6.0, 5.0]
    assert profile[5] == 9.0 and profile[6] == 9.0
    assert CASE_COV_FEW in cases[1:5]
    diffs = np.diff(profile)
    assert np.any(diffs < 0) and np.any(diffs > 0)


def _face_design(gen, design):
    """A draw of the property below: ``(y, x, z, d)``, ``z`` and ``d`` None
    without covariates.  "wide": up to 25 donors a period, whose plain fits
    often interpolate.  "copied_outcome": 24 periods and 10 donors, columns 8
    and 9 copying 1 and 3 in the outcome only, two rows the true weights
    fit.  "copied_donor": the same with the copies' covariates copied too."""
    if design == "wide":
        n = int(gen.integers(4, 13))
        x = gen.normal(size=(n, int(gen.integers(n + 1, 25 * n + 1))))
        return x @ gen.dirichlet(np.ones(x.shape[1])) + 0.3 * gen.normal(size=n), x, None, None
    x = gen.normal(size=(24, 10))
    x[:, 8], x[:, 9] = x[:, 1], x[:, 3]
    w = gen.dirichlet(np.ones(10))
    y = x @ w + 0.3 * gen.normal(size=24)
    d = gen.normal(size=(2, 10))
    if design == "copied_donor":
        d[:, 8], d[:, 9] = d[:, 1], d[:, 3]
    return y, x, d @ w, d


# 8 draws per design, each a fit and its 2n finite-difference re-solves:
# about 3 s for the three designs
@pytest.mark.filterwarnings("ignore:donor columns are exact duplicates")
@pytest.mark.parametrize("design", ["wide", "copied_outcome", "copied_donor"])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000), lam=st.sampled_from([0.0, 0.3]))
def test_df_hat_is_the_trace_of_a_stable_finite_difference_divergence(design, seed, lam):
    # df_hat is the dimension of the fit's face, also where X_A is rank
    # deficient: an interpolating wide fit, or a donor active with its copy
    y, x, z, d = _face_design(np.random.default_rng(seed), design)
    if d is not None:
        solve = lambda yy: solve_sc_cov_inner(yy, x, z, d, np.array([0.5, 0.5]), lam=lam)
    elif lam:
        solve = lambda yy: solve_penalized_sc(yy, x, lam)
    else:
        solve = lambda yy: solve_sc(yy, x)
    fit = solve(y)
    df = df_hat(fit).df_hat
    assert abs(df - divergence(fit, x, d).trace) <= 1e-6
    fd = divergence_fd_oracle(solve, y)
    if not fd.active_set_changed:
        assert abs(df - fd.trace) <= 1e-6
