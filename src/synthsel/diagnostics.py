"""Post-fit applied-analysis tools: heteroskedasticity check,
treatment-effect paths, placebo forecasts and the penalty-distance audit."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .panel import PanelDataset
from .solvers import ScFit, _qr_rank

_RELATIVE_GUARD = 1e-12


@dataclass(frozen=True)
class WhiteTestReport:
    """Squared residuals regressed on a time index, its square, the active
    donor series and their squares; ``n * r_squared`` is referred to an
    upper-tail chi-square with one degree of freedom per retained
    non-intercept regressor."""

    r_squared: float
    statistic: float
    p_value: float
    regressor_count: int
    dropped_collinear: int = 0


@dataclass(frozen=True)
class EffectPath:
    """Post-period gap between realized and forecast outcomes.

    ``tau_avg`` holds the averages over the first 1 and first 12 post
    periods (absent when the path is shorter than the horizon).
    """

    tau: np.ndarray
    tau_avg: dict[int, float | None]


def white_test(fit: ScFit, x: np.ndarray) -> WhiteTestReport:
    """Heteroskedasticity diagnostic on the fit residuals.

    Only the active donors enter the regressor set, which keeps the
    regression overdetermined when donors outnumber periods.  Collinear
    columns are dropped by pivoted QR and recorded.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    resid_sq = fit.residuals**2
    n = resid_sq.shape[0]
    a = list(fit.sets.a)
    t_idx = np.linspace(-1.0, 1.0, n)
    blocks = [t_idx, t_idx**2]
    if a:
        xa = x[:, a]
        blocks.extend([xa, xa**2])
    raw = np.column_stack(blocks)
    if n <= raw.shape[1] + 1:
        raise ConfigurationError(
            f"white test needs more periods ({n}) than regressors ({raw.shape[1]} + intercept)"
        )

    centered = raw - raw.mean(axis=0)
    keep_rank, piv = _qr_rank(centered)
    kept = np.sort(piv[:keep_rank])
    dropped = raw.shape[1] - keep_rank
    if keep_rank == 0:
        return WhiteTestReport(0.0, 0.0, 1.0, 0, dropped)

    design = np.column_stack([np.ones(n), centered[:, kept]])
    coef, *_ = np.linalg.lstsq(design, resid_sq, rcond=None)
    fitted = design @ coef
    sst = float(np.sum((resid_sq - resid_sq.mean()) ** 2))
    if sst <= _RELATIVE_GUARD * (1.0 + float(np.max(resid_sq, initial=0.0)) ** 2):
        return WhiteTestReport(0.0, 0.0, 1.0, keep_rank, dropped)
    ssr = float(np.sum((resid_sq - fitted) ** 2))
    r_squared = max(0.0, min(1.0, 1.0 - ssr / sst))
    statistic = n * r_squared
    from scipy.stats import chi2  # not at the top: ~0.8 s of import few commands need

    p_value = float(chi2.sf(statistic, keep_rank))
    return WhiteTestReport(r_squared, statistic, p_value, keep_rank, dropped)


def effect_path(fit: ScFit, post_y: np.ndarray, post_x: np.ndarray) -> EffectPath:
    """Treatment-effect path: realized minus forecast post-period outcomes."""
    if post_y is None or post_x is None:
        raise ConfigurationError("effect path needs post-treatment outcome and donors")
    post_y = np.asarray(post_y, dtype=float).ravel()
    post_x = np.atleast_2d(np.asarray(post_x, dtype=float))
    if post_x.shape[0] != post_y.shape[0]:
        raise ConfigurationError("post-period outcome and donor lengths disagree")
    tau = post_y - post_x @ fit.beta
    tau_avg: dict[int, float | None] = {}
    for h in (1, 12):
        tau_avg[h] = float(np.mean(tau[:h])) if tau.shape[0] >= h else None
    return EffectPath(tau=tau, tau_avg=tau_avg)


@dataclass(frozen=True)
class PlaceboResult:
    path: EffectPath
    mse: float
    horizon: int


def placebo_forecast(fit: ScFit, panel: PanelDataset, horizon: int = 12) -> PlaceboResult:
    """Forecast-error summary for a target known to be untreated.

    The squared forecast error over the horizon estimates out-of-sample
    risk directly, since the true effect is zero by assumption.  The
    horizon must be at least one period.
    """
    if horizon < 1:
        raise ConfigurationError(f"placebo horizon must be >= 1, got {horizon}")
    if not panel.has_post:
        raise ConfigurationError("placebo forecast needs post-period data")
    path = effect_path(fit, panel.post_y, panel.post_x)
    h = min(horizon, path.tau.shape[0])
    mse = float(np.mean(path.tau[:h] ** 2))
    return PlaceboResult(path=path, mse=mse, horizon=h)


def penalty_distance(fit: ScFit) -> float:
    """Weighted average squared donor distance at the fitted weights: the
    audit of how far the selected donors sit from the treated series."""
    return float(fit.beta @ fit.donor_sq_distances)
