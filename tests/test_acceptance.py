"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line when its assertions hold, so running
with ``-s`` (or reading the verbose test report) gives one line per
criterion.
"""

import numpy as np
import pytest
import scipy.stats

from synthsel.diagnostics import white_test
from synthsel.dof import (
    CASE_COV_FEW,
    CASE_COV_MANY,
    df_hat,
    divergence,
    divergence_fd_oracle,
)
from synthsel.simulation import (
    conditional_mean_path,
    draw_factor_gaussian,
    mc_dof,
    run_selection_benchmark,
    spawn_rng,
    stationary_bootstrap,
    synthetic_factor_spec,
)
from synthsel.solvers import (
    default_active_tol,
    eq_constrained_hat,
    simplex_ls,
    solve_masc,
    solve_penalized_sc,
    solve_sc,
    solve_sc_cov_inner,
)

from oracles import simplex_grid_min


def _report(name: str, detail: str = ""):
    line = f"ACCEPTANCE {name}: PASS"
    if detail:
        line += f"  ({detail})"
    print(line)


# ---------------------------------------------------------------------------
# 1. unconstrained projection spends one df per regressor
# ---------------------------------------------------------------------------


def test_criterion_01_ols_df_sanity():
    gen = np.random.default_rng(1)
    x = gen.normal(size=(30, 6))
    trace = float(np.trace(eq_constrained_hat(x, np.zeros((0, 6)))))
    assert trace == pytest.approx(6.0, abs=1e-10)
    _report("01 ols-df-sanity", f"trace={trace:.12f}")


# ---------------------------------------------------------------------------
# 2. Monte-Carlo df matches the active-donor count formula across
#    constraint levels
# ---------------------------------------------------------------------------


def test_criterion_02_mc_df_matches_active_count_across_levels():
    n, p, reps, sigma = 60, 40, 400, 0.5
    rng0 = spawn_rng(77, 1000)
    x = rng0.standard_normal((n, p))
    w = rng0.dirichlet(np.full(p, 0.5))
    mean = x @ w
    details = []
    for a in (0.5, 0.75, 1.0, 1.25, 1.5):
        actives = []

        def estimator(y, a=a):
            res = simplex_ls(y, x, sum_to=a)
            actives.append(float(np.sum(res.beta > default_active_tol(res.beta))))
            return x @ res.beta

        est = mc_dof(
            lambda rng: mean + sigma * rng.standard_normal(n),
            estimator,
            reps,
            55,
            sigma2=sigma**2,
        )
        acts = np.asarray(actives)
        target = acts.mean() - 1.0
        target_se = acts.std(ddof=1) / np.sqrt(acts.size)
        se = float(np.hypot(est.se, target_se))
        gap = abs(est.df - target)
        assert gap <= 3.0 * se, (a, est.df, target, se)
        details.append(f"a={a}:{gap / se:.2f}se")
    _report("02 mc-df-vs-active-count", " ".join(details))


# ---------------------------------------------------------------------------
# 3. exact trace identities
# ---------------------------------------------------------------------------


def test_criterion_03_exact_trace_identities():
    checked = {"plain": 0, "penalized": 0, "masc": 0}
    for i in range(100):
        gen = np.random.default_rng(3_000 + i)
        n = int(gen.integers(8, 18))
        p = int(gen.integers(2, 8))
        x = gen.normal(size=(n, p))
        y = x @ gen.dirichlet(np.full(p, 4.0)) + 0.4 * gen.normal(size=n)
        lam = float(gen.uniform(0, 2))
        alpha = float(gen.uniform(0, 1))

        plain = solve_sc(y, x)
        assert divergence(plain, x).trace == pytest.approx(len(plain.sets.a) - 1, abs=1e-8)
        checked["plain"] += 1
        pen = solve_penalized_sc(y, x, lam)
        assert divergence(pen, x).trace == pytest.approx(
            (1 + lam) * (len(pen.sets.a) - 1), abs=1e-8
        )
        checked["penalized"] += 1
        masc = solve_masc(y, x, alpha, int(gen.integers(1, p + 1)))
        assert divergence(masc, x).trace == pytest.approx(
            (1 - alpha) * (len(masc.sets.a) - 1), abs=1e-8
        )
        checked["masc"] += 1
    assert all(v == 100 for v in checked.values())
    _report("03 exact-trace-identities", "100 instances per estimator")


# ---------------------------------------------------------------------------
# 4. finite-difference oracle agreement across estimator kinds and both
#    covariate branches
# ---------------------------------------------------------------------------


def _fd_check(fit_fn, y, x, d=None):
    fd = divergence_fd_oracle(fit_fn, y)
    if fd.active_set_changed:
        return None
    analytic = divergence(fit_fn(y), x, d)
    return float(np.max(np.abs(analytic.matrix - fd.matrix)))


def test_criterion_04_finite_difference_oracle_agreement():
    stable = 0
    flipped = 0
    worst = 0.0
    kinds = {"plain": 0, "penalized": 0, "masc": 0, CASE_COV_FEW: 0, CASE_COV_MANY: 0}

    for i in range(20):
        gen = np.random.default_rng(4_000 + i)
        x = gen.normal(size=(10, 5))
        y = x @ gen.dirichlet(np.full(5, 4.0)) + 0.5 * gen.normal(size=10)
        for name, fn in (
            ("plain", lambda yy: solve_sc(yy, x)),
            ("penalized", lambda yy: solve_penalized_sc(yy, x, 0.3)),
            ("masc", lambda yy: solve_masc(yy, x, 0.25, 2)),
        ):
            dev = _fd_check(fn, y, x)
            if dev is None:
                flipped += 1
                continue
            assert dev <= 1e-5, (name, dev)
            worst = max(worst, dev)
            stable += 1
            kinds[name] += 1

    for i in range(12):
        gen = np.random.default_rng(4_500 + i)
        x = gen.normal(size=(12, 6))
        w = gen.dirichlet(np.full(6, 8.0))
        y = x @ w + 0.3 * gen.normal(size=12)
        d = gen.normal(size=(2, 6))
        z = d @ w
        v = np.array([0.5, 0.5])
        fn = lambda yy: solve_sc_cov_inner(yy, x, z, d, v)
        fit = fn(y)
        dev = _fd_check(fn, y, x, d)
        if dev is None:
            flipped += 1
            continue
        assert dev <= 1e-5, ("covariate-few", dev)
        assert df_hat(fit).case == CASE_COV_FEW
        worst = max(worst, dev)
        stable += 1
        kinds[CASE_COV_FEW] += 1

    for i in range(12):
        gen = np.random.default_rng(4_800 + i)
        x = gen.normal(size=(12, 6))
        y = x[:, 0] + 0.05 * gen.normal(size=12)
        d = gen.normal(size=(3, 6))
        z = d @ np.full(6, 1 / 6) + 9.0
        v = np.full(3, 1 / 3)
        fn = lambda yy: solve_sc_cov_inner(yy, x, z, d, v)
        fit = fn(y)
        dev = _fd_check(fn, y, x, d)
        if dev is None:
            flipped += 1
            continue
        assert dev <= 1e-5, ("covariate-many", dev)
        assert df_hat(fit).case == CASE_COV_MANY
        worst = max(worst, dev)
        stable += 1
        kinds[CASE_COV_MANY] += 1

    assert stable >= 50, (stable, flipped)
    assert all(count > 0 for count in kinds.values()), kinds
    _report(
        "04 fd-oracle-agreement",
        f"{stable} stable instances, worst dev {worst:.2e}, {flipped} flips excluded",
    )


# ---------------------------------------------------------------------------
# 5. covariate df phase transition and non-monotone profile
# ---------------------------------------------------------------------------


def test_criterion_05_covariate_phase_transition():
    # explicit instances on both sides of the branch condition
    saw_few = saw_many = 0
    for i in range(10):
        gen = np.random.default_rng(5_200 + i)
        x = gen.normal(size=(14, 6))
        w = gen.dirichlet(np.full(6, 8.0))
        y = x @ w + 0.3 * gen.normal(size=14)
        d = gen.normal(size=(2, 6))
        fit = solve_sc_cov_inner(y, x, d @ w, d, np.array([0.5, 0.5]))
        report = df_hat(fit)
        if report.case == CASE_COV_FEW and report.n_em > 0:
            assert report.n_me < report.n_active - 1
            assert report.df_hat == report.n_active - report.n_em - 1
            saw_few += 1
    for i in range(10):
        gen = np.random.default_rng(5_400 + i)
        x = gen.normal(size=(14, 6))
        y = x[:, 1] + 0.05 * gen.normal(size=14)
        d = gen.normal(size=(3, 6))
        z = d @ np.full(6, 1 / 6) + 9.0
        fit = solve_sc_cov_inner(y, x, z, d, np.full(3, 1 / 3))
        report = df_hat(fit)
        if report.case == CASE_COV_MANY:
            assert report.n_me >= report.n_active - 1
            assert report.df_hat == report.n_active - 1
            saw_many += 1
    assert saw_few >= 8 and saw_many >= 8, (saw_few, saw_many)

    # df against covariate count: falls one-for-one while rows bind, then
    # returns to the no-covariate value once the rows cannot be fit
    gen = np.random.default_rng(42)
    n, p = 40, 10
    x = gen.normal(size=(n, p))
    w = gen.dirichlet(np.full(p, 12.0))
    y = x @ w + 0.05 * gen.normal(size=n)
    d_full = gen.normal(size=(8, p))
    profile = [df_hat(solve_sc(y, x)).df_hat]
    for k in range(1, 7):
        d = d_full[:k]
        z = d @ w if k <= 4 else d @ w + 25.0
        profile.append(df_hat(solve_sc_cov_inner(y, x, z, d, np.full(k, 1.0 / k))).df_hat)
    diffs = np.diff(profile)
    assert np.any(diffs < 0) and np.any(diffs > 0), profile
    assert profile[-1] == profile[0]
    _report(
        "05 covariate-phase-transition",
        f"branches few={saw_few}/10 many={saw_many}/10, df profile {profile}",
    )


# ---------------------------------------------------------------------------
# 6. brute-force equivalence and KKT certification on small instances
# ---------------------------------------------------------------------------


def test_criterion_06_brute_force_qp_equivalence():
    worst_gap = -np.inf
    for i in range(200):
        gen = np.random.default_rng(6_000 + i)
        n = int(gen.integers(4, 9))
        p = int(gen.integers(1, 4))
        x = gen.normal(size=(n, p))
        y = gen.normal(size=n)
        fit = solve_sc(y, x)
        assert fit.kkt.stationarity_residual <= 1e-8
        assert fit.kkt.complementarity_gap <= 1e-8
        oracle_val, _ = simplex_grid_min(y, x, step=5e-3, rounds=3)
        gap = 0.5 * fit.rss - oracle_val
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-8
    _report("06 brute-force-equivalence", f"200 instances, worst gap {worst_gap:.2e}")


# ---------------------------------------------------------------------------
# 7. stationary bootstrap block lengths and marginal distribution
# ---------------------------------------------------------------------------


def test_criterion_07_stationary_bootstrap():
    series = np.arange(40, dtype=float)[:, None]
    details = []
    for prob in (0.1, 0.2, 0.5):
        target_blocks = 10_000
        out_len = int(target_blocks / prob * 1.2)
        draw = stationary_bootstrap(
            series, prob, out_len, np.random.default_rng(np.random.SeedSequence(17))
        )
        lengths = np.asarray(draw.block_lengths[:-1], dtype=float)
        assert lengths.size >= 10_000
        mean_len = float(lengths.mean())
        assert mean_len == pytest.approx(1.0 / prob, rel=0.05)
        details.append(f"p={prob}:{mean_len:.2f}")
    draw = stationary_bootstrap(
        series, 0.25, 10_000, np.random.default_rng(np.random.SeedSequence(3))
    )
    counts = np.bincount(draw.indices, minlength=40)
    expected = 10_000 / 40
    stat = float(np.sum((counts - expected) ** 2 / expected))
    p_value = float(scipy.stats.chi2.sf(stat, 39))
    assert p_value > 0.01
    _report("07 stationary-bootstrap", " ".join(details) + f" gof-p={p_value:.3f}")


# ---------------------------------------------------------------------------
# 8. heteroskedasticity test calibration
# ---------------------------------------------------------------------------


def test_criterion_08_white_test_calibration():
    n, p = 200, 4
    w = np.array([0.3, 0.3, 0.2, 0.2])
    null_rej = 0
    for s in range(1000):
        gen = np.random.default_rng(900_000 + s)
        x = gen.normal(size=(n, p))
        y = x @ w + 0.5 * gen.normal(size=n)
        null_rej += white_test(solve_sc(y, x), x).p_value < 0.05
    size = null_rej / 1000
    assert 0.03 <= size <= 0.07, size

    power_rej = 0
    for s in range(500):
        gen = np.random.default_rng(700_000 + s)
        x = gen.normal(size=(n, p))
        scale = np.linspace(0.05, 1.0, n)
        y = x @ w + scale * gen.normal(size=n)
        power_rej += white_test(solve_sc(y, x), x).p_value < 0.05
    power = power_rej / 500
    assert power >= 0.90, power
    _report("08 white-test-calibration", f"size={size:.3f} power={power:.3f}")


# ---------------------------------------------------------------------------
# 9. selection benchmark directional pattern
# ---------------------------------------------------------------------------


def test_criterion_09_selection_benchmark_directional():
    spec = synthetic_factor_spec(40, 48, r=1, seed=100, sigma_y=0.5, sigma_x=2.0)
    lams = np.concatenate([[0.0], np.geomspace(0.0125, 10.0, 19)])
    report = run_selection_benchmark(
        "gaussian",
        ["risk", "sure", "cv_holdout"],
        200,
        2024,
        spec=spec,
        n_donors=40,
        n_pre=36,
        n_post=12,
        lambda_grid=lams,
    )
    sure = report.method("sure")
    holdout = report.method("cv_holdout")
    assert report.method("risk").mse_lambda == 0.0
    assert sure.mse_lambda <= holdout.mse_lambda
    assert sure.mean_rank_corr >= 0.8
    _report(
        "09 selection-benchmark",
        f"mse_lam sure={sure.mse_lambda:.4f} <= holdout={holdout.mse_lambda:.4f}, "
        f"rank-corr={sure.mean_rank_corr:.3f}",
    )


# ---------------------------------------------------------------------------
# 10. overfitting produces an interior risk minimizer
# ---------------------------------------------------------------------------


def test_criterion_10_overfitting_u_shape():
    spec = synthetic_factor_spec(
        60, 34, r=2, seed=5, sigma_y=0.7, sigma_x=2.0, sigma_x_active=0.3,
        active_donors=3,
    )
    lams = np.concatenate([[0.0], np.geomspace(0.01, 10, 17)])
    interior = 0
    curves = []
    for rep in range(100):
        rng = spawn_rng(31, rep)
        draw = draw_factor_gaussian(spec, 20, rng)
        means = conditional_mean_path(spec, draw)
        risk = np.array(
            [
                float(np.sum((solve_penalized_sc(draw.y, draw.x, lam).fitted - means) ** 2))
                for lam in lams
            ]
        )
        curves.append(risk)
        if int(np.argmin(risk)) > 0:
            interior += 1
    mean_curve = np.mean(curves, axis=0)
    k = int(np.argmin(mean_curve))
    assert interior >= 80, interior
    assert 0 < k < len(lams) - 1
    assert mean_curve[0] > mean_curve[k] and mean_curve[-1] > mean_curve[k]
    _report(
        "10 overfitting-u-shape",
        f"interior minimizer in {interior}/100 draws, mean-curve argmin index {k}",
    )


# ---------------------------------------------------------------------------
# 11. active sets are locally stable under tiny perturbations
# ---------------------------------------------------------------------------


def test_criterion_11_active_set_stability():
    trials = 200
    details = []
    gen_cov = np.random.default_rng(123)
    x_cov = gen_cov.normal(size=(14, 6))
    w_cov = gen_cov.dirichlet(np.full(6, 8.0))
    d_cov = gen_cov.normal(size=(2, 6))
    z_cov = d_cov @ w_cov
    v_cov = np.array([0.5, 0.5])

    solvers = {
        "plain": lambda yy, x: solve_sc(yy, x).sets,
        "penalized": lambda yy, x: solve_penalized_sc(yy, x, 0.2).sets,
        "masc": lambda yy, x: solve_masc(yy, x, 0.3, 2).sets,
        "covariate": lambda yy, x: solve_sc_cov_inner(yy, x_cov, z_cov, d_cov, v_cov).sets,
    }
    for kind, solver in solvers.items():
        stable = 0
        for t in range(trials):
            gen = np.random.default_rng(11_000 + t)
            if kind == "covariate":
                x = x_cov
                y = x @ w_cov + 0.3 * gen.normal(size=14)
            else:
                x = gen.normal(size=(10, 5))
                y = x @ gen.dirichlet(np.full(5, 3.0)) + 0.6 * gen.normal(size=10)
            base = solver(y, x)
            delta = gen.normal(size=y.shape)
            delta *= 1e-7 * np.linalg.norm(y) / np.linalg.norm(delta)
            if solver(y + delta, x) == base:
                stable += 1
        assert stable >= 0.95 * trials, (kind, stable)
        details.append(f"{kind}:{stable}/{trials}")
    _report("11 active-set-stability", " ".join(details))
