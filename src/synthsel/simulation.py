"""Data-generating processes, true-risk computation, Monte-Carlo
degrees-of-freedom estimation and the selection-method benchmark.

The factor design draws each period's treated outcome and donor vector
jointly Gaussian with covariance ``L L' + Sigma``, where the treated
loading row is the best-linear-predictor combination of the donor loading
rows.  That structure keeps the conditional expectation of the outcome
given the donors available in closed form, which is what makes true risk
and true degrees of freedom computable alongside every estimate.

All randomness flows through ``numpy`` seed sequences: replication ``i`` of
a run seeded with ``s`` uses ``SeedSequence(s, spawn_key=(i,))``, so results
are reproducible and independent of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, SingularityError
from .panel import PanelDataset
from .selection import (
    METHOD_CV_HOLDOUT,
    METHOD_CV_LOO_UNTREATED,
    METHOD_CV_ROLLING,
    METHOD_SURE,
    SelectionResult,
    _ic_select,
    _select,
    tuning_grid,
    cv_holdout,
    cv_loo_untreated,
    cv_rolling,
)
from .solvers import PENALIZED, _fit_grid, solve_sc

METHOD_RISK = "risk"
METHOD_SURE_STAR = "sure_star"
BENCHMARK_METHODS = (
    METHOD_RISK,
    METHOD_SURE_STAR,
    METHOD_SURE,
    METHOD_CV_HOLDOUT,
    METHOD_CV_LOO_UNTREATED,
    METHOD_CV_ROLLING,
)
DESIGNS = ("gaussian", "empirical", "block_bootstrap")
#: stationary-bootstrap restart probability of the empirical and block designs
_BLOCK_PROB = 0.2
#: largest autoregressive order the BIC considers for a fitted design
_AR_MAX_ORDER = 3
#: contiguous batches behind the Monte-Carlo standard error
_MC_BATCHES = 20


def spawn_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic stream for (seed, replication-key)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


# ---------------------------------------------------------------------------
# stationary bootstrap
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BootstrapDraw:
    data: np.ndarray
    indices: np.ndarray
    block_lengths: tuple[int, ...]


def stationary_bootstrap(
    series: np.ndarray, block_prob: float, out_length: int, rng: np.random.Generator
) -> BootstrapDraw:
    """Resample ``out_length`` rows jointly in geometric-length blocks with
    circular wraparound; ``block_prob`` is the restart probability, so the
    expected block length is its reciprocal.  All columns share the same
    row indices, preserving the cross-sectional dependence, and the
    marginal row distribution is the empirical one."""
    if not 0.0 < block_prob <= 1.0:
        raise ConfigurationError(
            f"block restart probability must lie in (0, 1], got {block_prob}"
        )
    series = np.atleast_2d(np.asarray(series, dtype=float))
    t_len = series.shape[0]
    if t_len < 2:
        raise ConfigurationError("need at least two rows to bootstrap")
    n_out = int(out_length)
    indices = np.empty(n_out, dtype=np.int64)
    lengths: list[int] = []
    pos = 0
    while pos < n_out:
        start = int(rng.integers(t_len))
        length = int(rng.geometric(block_prob))
        take = min(length, n_out - pos)
        indices[pos : pos + take] = (start + np.arange(take)) % t_len
        lengths.append(take)
        pos += take
    return BootstrapDraw(
        data=series[indices], indices=indices, block_lengths=tuple(lengths)
    )


# ---------------------------------------------------------------------------
# Gaussian autoregressive innovations
# ---------------------------------------------------------------------------


def _ar_state_covariance(coefs: np.ndarray, innov_var: float) -> np.ndarray:
    """Stationary covariance of the companion-form state of an
    autoregression (at least one coefficient), from the discrete Lyapunov
    equation."""
    q = coefs.size
    comp = np.zeros((q, q))
    comp[0] = coefs
    comp[1:, :-1] = np.eye(q - 1)
    noise = np.zeros((q, q))
    noise[0, 0] = innov_var
    import scipy.linalg  # not at the top: ~0.3 s of import only the factor designs need

    return scipy.linalg.solve_discrete_lyapunov(comp, noise)


def ar_stationary_variance(coefs: np.ndarray) -> float:
    """Stationary variance of an autoregression driven by unit-variance
    innovations."""
    coefs = np.asarray(coefs, dtype=float).ravel()
    if coefs.size == 0:
        return 1.0
    return float(_ar_state_covariance(coefs, 1.0)[0, 0])


def draw_ar_series(
    coefs: np.ndarray, marginal_var: float, t_len: int, rng: np.random.Generator
) -> np.ndarray:
    """Stationary Gaussian autoregression with the requested marginal
    variance (innovations rescaled accordingly, initial state drawn from
    the exact stationary law)."""
    coefs = np.asarray(coefs, dtype=float).ravel()
    q = coefs.size
    if marginal_var < 0:
        raise ConfigurationError("marginal variance must be nonnegative")
    if marginal_var == 0.0:
        return np.zeros(t_len)
    if q == 0:
        return np.sqrt(marginal_var) * rng.standard_normal(t_len)
    unit_var = ar_stationary_variance(coefs)
    innov_sd = np.sqrt(marginal_var / unit_var)
    gamma = _ar_state_covariance(coefs, innov_sd**2)
    chol = np.linalg.cholesky(gamma + 1e-14 * np.eye(q))
    state = chol @ rng.standard_normal(q)
    out = np.empty(t_len)
    eps = innov_sd * rng.standard_normal(t_len)
    for t in range(t_len):
        val = float(coefs @ state) + eps[t]
        out[t] = val
        state = np.roll(state, 1)
        state[0] = val
    return out


def yule_walker(series: np.ndarray, order: int) -> tuple[np.ndarray, float]:
    """Autoregressive coefficients and innovation variance from the biased
    sample autocovariances (which keeps the fit stationary)."""
    series = np.asarray(series, dtype=float).ravel()
    t_len = series.size
    centered = series - series.mean()
    if order == 0:
        return np.zeros(0), float(centered @ centered / t_len)
    gammas = np.array(
        [centered[: t_len - k] @ centered[k:] / t_len for k in range(order + 1)]
    )
    import scipy.linalg  # not at the top: ~0.3 s of import only the factor designs need

    toep = scipy.linalg.toeplitz(gammas[:order])
    coefs = scipy.linalg.solve(toep, gammas[1 : order + 1], assume_a="sym")
    innov_var = float(gammas[0] - coefs @ gammas[1 : order + 1])
    return coefs, max(innov_var, 1e-12)


def select_ar_order(series: np.ndarray) -> int:
    """Bayesian information criterion over autoregressive orders up to
    ``_AR_MAX_ORDER``."""
    t_len = np.asarray(series).size
    best_order, best_bic = 0, np.inf
    for q in range(_AR_MAX_ORDER + 1):
        _, innov_var = yule_walker(series, q)
        bic = t_len * np.log(innov_var) + q * np.log(t_len)
        if bic < best_bic - 1e-12:
            best_order, best_bic = q, bic
    return best_order


# ---------------------------------------------------------------------------
# the factor model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FactorModelSpec:
    """Loadings (rows are units, row 0 the treated unit), per-period fixed
    effects, diagonal innovation variances, per-series autoregressive
    structure and the best-linear-predictor weights tying the treated
    loading row to the donor rows."""

    loadings: np.ndarray
    delta: np.ndarray
    sigma: np.ndarray
    omega_star: np.ndarray
    ar_coefs: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "loadings", np.atleast_2d(np.asarray(self.loadings, dtype=float)))
        object.__setattr__(self, "delta", np.asarray(self.delta, dtype=float).ravel())
        object.__setattr__(self, "sigma", np.asarray(self.sigma, dtype=float).ravel())
        object.__setattr__(self, "omega_star", np.asarray(self.omega_star, dtype=float).ravel())
        n_units = self.loadings.shape[0]
        if self.sigma.shape[0] != n_units:
            raise ConfigurationError("sigma length must match the unit count")
        if np.any(self.sigma < 0):
            raise ConfigurationError("innovation variances must be nonnegative")
        if self.omega_star.shape[0] != n_units - 1:
            raise ConfigurationError("omega_star must have one weight per donor")
        if len(self.ar_coefs) != n_units:
            raise ConfigurationError("need one coefficient tuple per unit")
        if self.loadings.shape[1] > 0:
            gap = np.max(
                np.abs(self.loadings[0] - self.loadings[1:].T @ self.omega_star)
            )
            if gap > 1e-10:
                raise ConfigurationError(
                    f"treated loading row must equal the omega-combination of the "
                    f"donor rows (gap {gap:.2e})"
                )

    @property
    def n_units(self) -> int:
        return self.loadings.shape[0]

    @property
    def n_factors(self) -> int:
        return self.loadings.shape[1]

    def covariance(self) -> np.ndarray:
        """Per-period covariance of (outcome, donors): ``L L' + diag(sigma)``."""
        return self.loadings @ self.loadings.T + np.diag(self.sigma)

    def blp_weights(self) -> np.ndarray:
        """Coefficients of the conditional expectation of the outcome in the
        contemporaneous donor values."""
        import scipy.linalg  # not at the top: ~0.3 s of import only the factor designs need

        cov = self.covariance()
        try:
            return scipy.linalg.solve(cov[1:, 1:], cov[1:, 0], assume_a="sym")
        except (scipy.linalg.LinAlgError, np.linalg.LinAlgError):
            raise SingularityError("donor covariance", "cannot form conditional mean")

    def conditional_variance(self) -> float:
        return self._blp()[1]

    def _blp(self) -> tuple[np.ndarray, float]:
        """``blp_weights()`` and ``conditional_variance()``, from one solve."""
        w, cov = self.blp_weights(), self.covariance()
        return w, float(cov[0, 0] - cov[0, 1:] @ w)


@dataclass(frozen=True)
class FactorPanelDraw:
    """One draw: observed outcome and donors, and the per-period fixed
    effects they were drawn around."""

    y: np.ndarray
    x: np.ndarray
    delta: np.ndarray


def conditional_mean_path(spec: FactorModelSpec, draw: FactorPanelDraw) -> np.ndarray:
    """Per-period conditional expectations along a draw."""
    return _conditional_mean(draw, spec.blp_weights())


def _conditional_mean(draw: FactorPanelDraw, w: np.ndarray) -> np.ndarray:
    """``conditional_mean_path`` given the spec's ``blp_weights`` ``w``."""
    return draw.delta + (draw.x - draw.delta[:, None]) @ w


def draw_factor_gaussian(
    spec: FactorModelSpec, t_len: int, seed: int | np.random.Generator
) -> FactorPanelDraw:
    """Gaussian factor draw: iid standard-normal factors plus stationary
    Gaussian autoregressive innovations scaled to the spec variances."""
    rng = seed if isinstance(seed, np.random.Generator) else spawn_rng(int(seed))
    if t_len < 1:
        raise ConfigurationError(f"need at least 1 period, got {t_len}")
    if t_len > spec.delta.size:
        raise ConfigurationError(
            f"requested {t_len} periods but the spec carries {spec.delta.size} fixed effects"
        )
    delta = spec.delta[:t_len]
    psi = rng.standard_normal((t_len, spec.n_factors))
    systematic = delta[:, None] + psi @ spec.loadings.T
    noise = np.column_stack(
        [
            draw_ar_series(np.asarray(spec.ar_coefs[i]), spec.sigma[i], t_len, rng)
            for i in range(spec.n_units)
        ]
    )
    obs = systematic + noise
    return FactorPanelDraw(y=obs[:, 0], x=obs[:, 1:], delta=delta)


def draw_factor_empirical(
    spec: FactorModelSpec,
    residual_pool: np.ndarray,
    t_len: int,
    seed: int | np.random.Generator,
) -> FactorPanelDraw:
    """Gaussian donor draw, treated outcome rebuilt as its closed-form
    conditional mean plus innovations resampled from an empirical pool via
    the stationary bootstrap."""
    residual_pool = np.asarray(residual_pool, dtype=float).ravel()
    if residual_pool.size == 0:
        raise ConfigurationError("empirical design needs a nonempty residual pool")
    rng = seed if isinstance(seed, np.random.Generator) else spawn_rng(int(seed))
    return _draw_empirical(spec, residual_pool, t_len, rng, spec.blp_weights())


def _draw_empirical(spec, residual_pool, t_len, rng, w) -> FactorPanelDraw:
    """``draw_factor_empirical`` from a checked pool and a generator, given
    the spec's ``blp_weights`` ``w``."""
    draw = draw_factor_gaussian(spec, t_len, rng)
    boot = stationary_bootstrap(residual_pool[:, None], _BLOCK_PROB, t_len, rng)
    return replace(draw, y=_conditional_mean(draw, w) + boot.data[:, 0])


def fit_factor_model(panel: PanelDataset, r: int) -> FactorModelSpec:
    """Estimate the factor design from an observed (preprocessed) panel.

    Fixed effects are per-period means across units; donor loadings come
    from principal components of the demeaned donors; the treated loading
    row is the plug-in best-linear-predictor combination with weights from
    the unpenalized synthetic control fit; innovation variances are the
    residual variances with autoregressive orders chosen by BIC.
    """
    n_donors = panel.p
    if r > n_donors:
        raise ConfigurationError(f"factor count {r} exceeds donor count {n_donors}")
    if r < 0:
        raise ConfigurationError("factor count must be nonnegative")
    joint = np.column_stack([panel.y, panel.x])
    t_len = joint.shape[0]
    delta = joint.mean(axis=1)
    centered = joint - delta[:, None]
    donors_c = centered[:, 1:]
    if r > 0:
        u_mat, svals, vt = np.linalg.svd(donors_c, full_matrices=False)
        factors = np.sqrt(t_len) * u_mat[:, :r]
        load_donors = (vt[:r].T * svals[:r]) / np.sqrt(t_len)
    else:
        factors = np.zeros((t_len, 0))
        load_donors = np.zeros((n_donors, 0))
    omega = solve_sc(panel.y, panel.x).beta
    load_treated = load_donors.T @ omega
    loadings = np.vstack([load_treated, load_donors])
    resid = centered - factors @ loadings.T
    ar_coefs = []
    sigma = np.empty(n_donors + 1)
    for i in range(n_donors + 1):
        order = select_ar_order(resid[:, i])
        coefs, _ = yule_walker(resid[:, i], order)
        ar_coefs.append(tuple(float(c) for c in coefs))
        sigma[i] = float(np.var(resid[:, i]))
    return FactorModelSpec(
        loadings=loadings,
        delta=delta,
        sigma=sigma,
        omega_star=omega,
        ar_coefs=tuple(ar_coefs),
    )


def synthetic_factor_spec(
    n_donors: int,
    t_total: int,
    *,
    r: int = 3,
    seed: int = 0,
    active_donors: int = 3,
    sigma_y: float = 0.7,
    sigma_x: float = 0.7,
    sigma_x_active: float | None = None,
) -> FactorModelSpec:
    """Deterministic synthetic design: random donor loadings, a sparse
    best-linear-predictor weight vector, and the treated loading row built
    from it.  ``sigma_x_active`` makes the weighted donors quieter than the
    rest, the configuration in which unpenalized fits overfit by chasing
    noise with far-away donors.  Innovations are white noise."""
    if n_donors < 1:
        raise ConfigurationError(f"need at least 1 donor, got n_donors={n_donors}")
    if t_total < 1:
        raise ConfigurationError(f"need at least 1 period, got {t_total}")
    if r < 0:
        raise ConfigurationError("factor count must be nonnegative")
    rng = spawn_rng(seed, 9)
    load_donors = rng.standard_normal((n_donors, r)) / np.sqrt(max(r, 1))
    omega = np.zeros(n_donors)
    chosen = rng.choice(n_donors, size=min(active_donors, n_donors), replace=False)
    omega[chosen] = rng.dirichlet(np.full(chosen.size, 5.0))
    load_treated = load_donors.T @ omega
    loadings = np.vstack([load_treated, load_donors])
    donor_var = sigma_x**2 * rng.uniform(0.5, 1.5, size=n_donors)
    if sigma_x_active is not None:
        donor_var[chosen] = sigma_x_active**2
    sigma = np.concatenate([[sigma_y**2], donor_var])
    return FactorModelSpec(
        loadings=loadings,
        delta=np.zeros(t_total),
        sigma=sigma,
        omega_star=omega,
        ar_coefs=tuple(() for _ in range(n_donors + 1)),
    )


# ---------------------------------------------------------------------------
# Monte-Carlo degrees of freedom
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class McDofEstimate:
    df: float
    se: float


def mc_dof(
    dgp,
    estimator,
    replications: int,
    seed: int,
    *,
    sigma2: float,
) -> McDofEstimate:
    """Covariance definition of degrees of freedom, estimated by simulation.

    ``dgp`` maps a generator to an outcome draw (the conditioned-upon design
    must be baked into both closures), ``estimator`` maps the outcome to
    fitted values.  The estimate is the per-coordinate sample covariance of
    outcome and fit summed and divided by the known noise variance; the
    standard error comes from contiguous batch means.
    """
    if replications < 4:
        raise ConfigurationError("need at least 4 replications")
    ys = []
    fits = []
    for rep in range(replications):
        rng = spawn_rng(seed, rep)
        y = np.asarray(dgp(rng), dtype=float).ravel()
        ys.append(y)
        fits.append(np.asarray(estimator(y), dtype=float).ravel())
    y_mat = np.vstack(ys)
    f_mat = np.vstack(fits)

    def _df(yb: np.ndarray, fb: np.ndarray) -> float:
        yc = yb - yb.mean(axis=0)
        fc = fb - fb.mean(axis=0)
        return float(np.sum(yc * fc) / (yb.shape[0] - 1) / sigma2)

    point = _df(y_mat, f_mat)
    n_batches = max(2, min(_MC_BATCHES, replications // 2))
    edges = np.linspace(0, replications, n_batches + 1, dtype=int)
    batches = tuple(
        _df(y_mat[a:b], f_mat[a:b]) for a, b in zip(edges[:-1], edges[1:]) if b - a >= 2
    )
    se = float(np.std(batches, ddof=1) / np.sqrt(len(batches)))
    return McDofEstimate(df=point, se=se)


# ---------------------------------------------------------------------------
# selection benchmark
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MethodResult:
    """Aggregated accuracy of one selection method.

    ``mse_risk_raw`` compares each method's risk estimate with the per-draw
    truth on the estimate's own scale; ``mse_risk_per_n`` divides the
    information-criterion estimates (which are pre-period totals) by the
    pre-period count so they sit on the per-period scale the
    cross-validation scores already use.  Entries are ``None`` where the
    design does not identify the target.
    """

    method: str
    mse_tau1: float | None
    mse_tau12: float | None
    mse_lambda: float | None
    mse_risk_raw: float | None
    mse_risk_per_n: float | None
    mean_rank_corr: float | None


@dataclass(frozen=True)
class BenchmarkReport:
    design: str
    replications: int
    seed: int
    n_pre: int
    n_post: int
    lambda_grid: tuple[float, ...]
    methods: tuple[MethodResult, ...]

    def method(self, name: str) -> MethodResult:
        for row in self.methods:
            if row.method == name:
                return row
        raise KeyError(name)


def _mean_or_none(values) -> float | None:
    vals = [v for v in values if v is not None]
    return float(np.mean(vals)) if vals else None


def _race_row(sel: SelectionResult | None, fits, y_post, x_post, n_pre: int, truth) -> tuple:
    """One replication's ``MethodResult`` fields for the selection ``sel``
    over the grid ``fits`` (Nones where the design does not identify the
    method), given ``truth``: ``(oracle selection, pre-period risk curve,
    forecast-risk curve)`` or None.  An information criterion's risk
    estimate is its score less ``n_pre`` times its noise variance."""
    if sel is None:
        return (None,) * 6
    idx = sel.chosen
    tau_path = y_post - x_post @ fits.beta[idx]
    taus = (float(tau_path[0]) ** 2, float(np.mean(tau_path[: min(12, len(y_post))])) ** 2)
    if truth is None:
        return (*taus, None, None, None, None)
    star, risk_curve, cv_truth_curve = truth
    lam_err = (sel.chosen_point.lam - star.chosen_point.lam) ** 2
    if sel is star:
        return (*taus, lam_err, 0.0, 0.0, 1.0)
    if sel.sigma2_hat is None:
        err = float(sel.scores[idx]) - cv_truth_curve[idx]
        risk_raw = risk_per_n = err**2
    else:
        err = sel.scores[idx] - n_pre * sel.sigma2_hat - risk_curve[idx]
        risk_raw, risk_per_n = err**2, (err / n_pre) ** 2
    return (*taus, lam_err, risk_raw, risk_per_n, _spearman(sel.scores, risk_curve))


def run_selection_benchmark(
    design: str,
    methods,
    replications: int,
    seed: int,
    *,
    spec: FactorModelSpec | None = None,
    n_donors: int = 40,
    n_pre: int = 36,
    n_post: int = 12,
    lambda_grid=None,
) -> BenchmarkReport:
    """Race the selection methods on a known design.

    Per replication the penalized estimator is fit along the grid, walked
    as one warm-started path (see ``selection``).  Each method picks a grid
    point as a ``SelectionResult``: the oracle minimizes the true risk
    curve, ``sure`` and ``sure_star`` are ``selection``'s information
    criterion on those fits (with ``sigma2_hat`` and with the true noise
    variance), and the cross-validation methods are ``selection``'s
    selectors, which fit their own folds.  Accuracy is scored on the
    one-period and twelve-period treatment-effect errors (the true effect
    is zero by construction), the squared distance of the chosen point
    from the per-draw true-risk minimizer, and the error of each method's
    own risk estimate (``_race_row``).  Under the block-bootstrap design
    the truth is unavailable, so the oracle rows and the risk/tuning
    columns are reported absent.  A method may be raced once.
    """
    if replications < 1:
        raise ConfigurationError(f"replications must be at least 1, got {replications}")
    if n_pre < 2:
        raise ConfigurationError(f"the race needs at least 2 pre-periods, got n_pre={n_pre}")
    if n_post < 1:
        raise ConfigurationError(f"the race needs at least 1 post-period, got n_post={n_post}")
    if design not in DESIGNS:
        raise ConfigurationError(f"unknown design {design!r}; expected one of {DESIGNS}")
    methods = tuple(methods)
    if not methods:
        raise ConfigurationError("no methods to race")
    unknown = [m for m in methods if m not in BENCHMARK_METHODS]
    if unknown:
        raise ConfigurationError(f"unknown methods {unknown}; expected among {BENCHMARK_METHODS}")
    repeated = sorted({m for m in methods if methods.count(m) > 1})
    if repeated:
        raise ConfigurationError(f"methods raced more than once: {repeated}")
    if spec is None:
        spec = synthetic_factor_spec(n_donors, n_pre + n_post, seed=seed)
    kind = PENALIZED  # the estimator whose tuning parameter is raced
    grid = tuning_grid(kind, lambda_grid)
    t_total = n_pre + n_post
    has_truth = design in ("gaussian", "empirical")
    blp, sigma2_true = spec._blp() if has_truth else (None, None)

    if design == "empirical":
        # standardized heavy-tailed pool scaled to the true conditional
        # variance keeps the design deliberately non-Gaussian
        pool_rng = spawn_rng(seed, 7, 7)
        raw = pool_rng.standard_t(df=5, size=2000)
        residual_pool = raw / raw.std() * np.sqrt(sigma2_true)
    base_panel = None
    if design == "block_bootstrap":
        base = draw_factor_gaussian(spec, t_total, spawn_rng(seed, 3, 3))
        base_panel = np.column_stack([base.y, base.x])
    # looked up per race, so a selector rebound on this module is the one raced
    cv_selectors = {METHOD_CV_HOLDOUT: cv_holdout, METHOD_CV_LOO_UNTREATED: cv_loo_untreated,
                    METHOD_CV_ROLLING: cv_rolling}
    rows: dict[str, list[tuple]] = {m: [] for m in methods}

    for rep in range(replications):
        rng = spawn_rng(seed, rep)
        if design == "block_bootstrap":
            data = stationary_bootstrap(base_panel, _BLOCK_PROB, t_total, rng).data
            draw, y_all, x_all = None, data[:, 0], data[:, 1:]
        else:
            draw = (draw_factor_gaussian(spec, t_total, rng) if design == "gaussian"
                    else _draw_empirical(spec, residual_pool, t_total, rng, blp))
            y_all, x_all = draw.y, draw.x
        y_pre, x_pre = y_all[:n_pre], x_all[:n_pre]
        y_post, x_post = y_all[n_pre:], x_all[n_pre:]
        panel = PanelDataset(y=y_pre, x=x_pre, post_y=y_post, post_x=x_post)
        fits = _fit_grid(y_pre, x_pre, kind, grid)

        truth = None
        if has_truth:
            means = _conditional_mean(draw, blp)
            means_pre, means_post = means[:n_pre], means[n_pre:]
            risk_curve = np.sum((fits.fitted - means_pre) ** 2, axis=1)
            forecasts = np.array([x_post @ beta for beta in fits.beta])
            cv_truth_curve = np.mean((forecasts - means_post) ** 2, axis=1) + sigma2_true
            truth = (_select(grid, risk_curve, None, METHOD_RISK), risk_curve, cv_truth_curve)

        for method in methods:
            if truth is None and method in (METHOD_RISK, METHOD_SURE_STAR):
                sel = None  # both need the true risk curve or noise variance
            elif method == METHOD_RISK:
                sel = truth[0]
            elif method == METHOD_SURE:
                sel = _ic_select(grid, fits, y_pre, x_pre)
            elif method == METHOD_SURE_STAR:
                sel = _ic_select(grid, fits, y_pre, x_pre, sigma2_true)
            else:
                sel = cv_selectors[method](panel, kind, grid=grid.lam)
            rows[method].append(_race_row(sel, fits, y_post, x_post, n_pre, truth))

    return BenchmarkReport(
        design=design,
        replications=replications,
        seed=seed,
        n_pre=n_pre,
        n_post=n_post,
        lambda_grid=tuple(grid.lam.tolist()),
        methods=tuple(MethodResult(m, *map(_mean_or_none, zip(*rows[m]))) for m in methods),
    )


def _spearman(a: np.ndarray, b: np.ndarray) -> float | None:
    """Spearman's rank correlation, computed as ``scipy.stats.spearmanr(a,
    b).statistic`` computes it: Pearson's correlation (``np.corrcoef``) of
    the average ranks.  None when either input is constant or holds a NaN."""
    if np.isnan(a).any() or np.isnan(b).any():
        return None
    ra, rb = _average_ranks(a), _average_ranks(b)
    if np.ptp(ra) == 0 or np.ptp(rb) == 0:
        return None
    return float(np.corrcoef(np.column_stack([ra, rb]), rowvar=False)[1, 0])


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, tied values sharing the mean of their ranks."""
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)
    return (last - 0.5 * (counts - 1))[group]
