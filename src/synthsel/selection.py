"""Tuning-parameter selection: Stein-type information criteria and the
three cross-validation baselines.

The information criterion is the unbiased-risk estimate

    IC = ||y - yhat||^2 + 2 * sigma2_hat * df_hat(yhat),

with ``sigma2_hat`` always taken from the unpenalized synthetic control
residuals, regardless of which candidate is being scored.  All selectors
return the grid, the per-point scores and the chosen index; exact score
ties break toward the largest tuning parameter (the most regularized
candidate), then toward grid order.  Every selector fits its grid through
``_fit_grid``, which solves a penalized grid as one warm-started path,
except ``select_v_ic``, which solves its covariate inner problem once per
diagonal weighting and walks that weighting's penalty grid the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .panel import PanelDataset
from .dof import df_hat
from .solvers import (
    MASC,
    PENALIZED,
    PLAIN,
    ScFit,
    _cov_inner,
    _cov_outer,
    _solve_penalized,
    masc_average,
    solve_matching,
    solve_sc,
)

METHOD_SURE = "sure"
METHOD_CV_HOLDOUT = "cv_holdout"
METHOD_CV_LOO_UNTREATED = "cv_loo_untreated"
METHOD_CV_ROLLING = "cv_rolling"


@dataclass(frozen=True)
class TuningPoint:
    """One candidate: an averaging/penalty weight, optionally a matching
    count and/or a diagonal covariate weighting."""

    lam: float
    m: int | None = None
    v: tuple[float, ...] | None = None

    def label(self) -> str:
        parts = [f"lam={self.lam:g}"]
        if self.m is not None:
            parts.append(f"m={self.m}")
        if self.v is not None:
            parts.append("v=(" + ",".join(f"{w:g}" for w in self.v) + ")")
        return " ".join(parts)


@dataclass(frozen=True)
class SelectionResult:
    grid: tuple[TuningPoint, ...]
    scores: np.ndarray
    sigma2_hat: float | None
    chosen: int
    method: str

    @property
    def chosen_point(self) -> TuningPoint:
        return self.grid[self.chosen]

    @property
    def chosen_score(self) -> float:
        return float(self.scores[self.chosen])


def _argmin_most_regularized(grid: tuple[TuningPoint, ...], scores: np.ndarray) -> int:
    finite = np.isfinite(scores)
    if not np.any(finite):
        raise ConfigurationError("every grid point failed to produce a score")
    best = float(np.min(scores[finite]))
    tol = 1e-12 * (1.0 + abs(best))
    tied = [i for i in range(len(grid)) if finite[i] and scores[i] <= best + tol]
    return max(tied, key=lambda i: (grid[i].lam, -i))


def _select(grid, scores, sigma2, method) -> SelectionResult:
    grid = tuple(grid)
    scores = np.asarray(scores, dtype=float)
    return SelectionResult(
        grid=grid,
        scores=scores,
        sigma2_hat=sigma2,
        chosen=_argmin_most_regularized(grid, scores),
        method=method,
    )


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def default_lambda_grid(kind: str) -> np.ndarray:
    """Penalized: zero plus 39 log-spaced points up to 10.  Model
    averaging: 21 uniform points on [0, 1]."""
    if kind == PENALIZED:
        return np.concatenate([[0.0], np.geomspace(0.0125, 10.0, 39)])
    if kind == MASC:
        return np.linspace(0.0, 1.0, 21)
    if kind == PLAIN:
        return np.array([0.0])
    raise ConfigurationError(f"no default grid for estimator kind {kind!r}")


def tuning_grid(
    kind: str,
    lambdas=None,
    m_grid=None,
    *,
    n_donors: int | None = None,
) -> tuple[TuningPoint, ...]:
    """Materialize the candidate list for one estimator kind."""
    lams = default_lambda_grid(kind) if lambdas is None else np.asarray(lambdas, dtype=float)
    if lams.size == 0:
        raise ConfigurationError("empty tuning grid")
    if kind == MASC:
        if m_grid is None:
            if n_donors is None:
                raise ConfigurationError("the matching-count grid needs the donor count")
            m_grid = range(1, min(10, n_donors) + 1)
        return tuple(TuningPoint(float(l), m=int(m)) for m in m_grid for l in lams)
    return tuple(TuningPoint(float(l)) for l in lams)


def _fit_grid(y: np.ndarray, x: np.ndarray, kind: str, points) -> list[ScFit]:
    """The fits at every grid point, in grid order.

    A penalized grid is walked as one path from the largest penalty down,
    each point warm-started from the fit before it; ``_solve_penalized``
    keeps a warm fit only where the optimum is unique, so every fit equals
    its cold ``solve_penalized_sc``.  A model-averaging grid solves plain
    synthetic control once and each matching count once and averages them
    per point.
    """
    if kind == PENALIZED:
        lams = np.array([pt.lam for pt in points])
        fits: list[ScFit | None] = [None] * len(points)
        beta = None
        for i in np.argsort(-lams, kind="stable"):
            fits[i] = _solve_penalized(y, x, lams[i], beta)
            beta = fits[i].beta
        return fits
    if kind == MASC:
        fit_sc = solve_sc(y, x)
        matches = {m: solve_matching(y, x, m) for m in sorted({pt.m for pt in points})}
        return [masc_average(y, fit_sc, matches[pt.m], pt.lam) for pt in points]
    if kind == PLAIN:
        return [solve_sc(y, x)] * len(points)
    raise ConfigurationError(f"unknown estimator kind {kind!r}")


# ---------------------------------------------------------------------------
# information criterion
# ---------------------------------------------------------------------------


def sigma2_hat(y: np.ndarray, x: np.ndarray) -> float:
    """Mean squared residual of the unpenalized synthetic control fit."""
    fit = solve_sc(y, x)
    return float(np.mean(fit.residuals**2))


def ic_value(rss: float, sigma2: float, df: float) -> float:
    """Unbiased-risk score: in-sample loss plus twice the noise-scaled
    model flexibility."""
    if rss < 0 or sigma2 < 0:
        raise ConfigurationError("rss and sigma2 must be nonnegative")
    return float(rss + 2.0 * sigma2 * df)


def ic_for_fit(fit: ScFit, sigma2: float) -> float:
    return ic_value(fit.rss, sigma2, df_hat(fit).df_hat)


def select_lambda_ic(
    panel: PanelDataset,
    estimator_kind: str,
    grid=None,
    *,
    m_grid=None,
    sigma2: float | None = None,
) -> SelectionResult:
    """Score every grid point by the information criterion and pick the
    minimizer.  The tuning parameter enters both directly and through the
    active-set size of each refit."""
    points = tuning_grid(estimator_kind, grid, m_grid, n_donors=panel.p)
    s2 = sigma2_hat(panel.y, panel.x) if sigma2 is None else float(sigma2)
    fits = _fit_grid(panel.y, panel.x, estimator_kind, points)
    return _select(points, [ic_for_fit(fit, s2) for fit in fits], s2, METHOD_SURE)


def select_v_ic(
    panel: PanelDataset,
    v_grid,
    lambda_grid=None,
    *,
    sigma2: float | None = None,
) -> SelectionResult:
    """Joint grid argmin of the information criterion over the diagonal
    covariate weighting and the penalty parameter.

    Every weighting is checked, and its ``lam``-independent inner covariate
    problem solved, once, before any outer solve.  Each weighting's penalty
    grid is then walked from the largest ``lam`` down, each outer solve
    warm-started from the previous fit when that fit has the same exactly-fit
    rows; ``_cov_outer`` keeps a warm fit only where the optimum is unique,
    so every score equals the one ``solve_sc_cov_inner`` gives at that point.
    """
    if not panel.has_covariates:
        raise ConfigurationError("V selection requires covariates in the panel")
    lams = (
        default_lambda_grid(PENALIZED)
        if lambda_grid is None
        else np.asarray(lambda_grid, dtype=float)
    )
    candidates = [np.asarray(v, dtype=float).ravel() for v in v_grid]
    if not candidates or lams.size == 0:
        raise ConfigurationError("empty (V, lambda) grid")
    y, x = panel.y, panel.x
    inners = [_cov_inner(y, x, panel.z, panel.d, v) for v in candidates]
    s2 = sigma2_hat(y, x) if sigma2 is None else float(sigma2)
    points = []
    scores = []
    for inner in inners:
        points += [TuningPoint(float(lam), v=tuple(inner.v)) for lam in lams]
        scores += [ic_for_fit(fit, s2) for fit in _fit_v_path(y, x, inner, lams)]
    return _select(points, np.asarray(scores), s2, METHOD_SURE)


def _fit_v_path(y: np.ndarray, x: np.ndarray, inner, lams: np.ndarray) -> list[ScFit]:
    """The covariate fits at one diagonal weighting (its first stage
    ``inner``, from ``solvers._cov_inner``) over the penalty grid ``lams``,
    in grid order, walked from the largest penalty down.  A fit warm-starts
    the next point only when it carries the weighting's exactly-fit rows as
    its equality rows; one that took the reduction to the plain estimator
    does not."""
    fits: list[ScFit | None] = [None] * lams.size
    fit = None
    for i in np.argsort(-lams, kind="stable"):
        warm = fit is not None and fit.cov_eq_rows == inner.exact_rows
        fit = _cov_outer(y, x, inner, float(lams[i]), fit.beta if warm else None)
        fits[i] = fit
    return fits


# ---------------------------------------------------------------------------
# cross-validation baselines
# ---------------------------------------------------------------------------


def _forecast_mse(fit: ScFit, x_new: np.ndarray, y_new: np.ndarray) -> float:
    err = y_new - x_new @ fit.beta
    return float(np.mean(err**2))


def cv_holdout(
    panel: PanelDataset,
    estimator_kind: str,
    grid=None,
    split_fraction: float = 0.5,
    *,
    m_grid=None,
) -> SelectionResult:
    """Train on the leading fraction of the pre-treatment sample, score the
    mean squared forecast error on the held-out tail."""
    n = panel.n
    n_train = math.ceil(split_fraction * n)
    if n_train < 2 or n_train >= n:
        raise ConfigurationError(
            f"holdout split {split_fraction} leaves train={n_train}, test={n - n_train}"
        )
    points = tuning_grid(estimator_kind, grid, m_grid, n_donors=panel.p)
    y_tr, x_tr = panel.y[:n_train], panel.x[:n_train]
    y_te, x_te = panel.y[n_train:], panel.x[n_train:]
    fits = _fit_grid(y_tr, x_tr, estimator_kind, points)
    scores = [_forecast_mse(fit, x_te, y_te) for fit in fits]
    return _select(points, scores, None, METHOD_CV_HOLDOUT)


def cv_loo_untreated(
    panel: PanelDataset,
    estimator_kind: str,
    grid=None,
    *,
    m_grid=None,
) -> SelectionResult:
    """Treat each donor in turn as a placebo outcome, fit on the remaining
    donors over the pre-period and score its post-period forecast error;
    average across donors."""
    if panel.post_x is None:
        raise ConfigurationError("leave-one-out validation needs post-treatment donor data")
    p = panel.p
    if p < 2:
        raise ConfigurationError("leave-one-out validation needs at least two donors")
    points = tuning_grid(estimator_kind, grid, m_grid, n_donors=p - 1)
    totals = np.zeros(len(points))
    for j in range(p):
        keep = [k for k in range(p) if k != j]
        y_j, x_j = panel.x[:, j], panel.x[:, keep]
        post_y_j, post_x_j = panel.post_x[:, j], panel.post_x[:, keep]
        fits = _fit_grid(y_j, x_j, estimator_kind, points)
        totals += [_forecast_mse(fit, post_x_j, post_y_j) for fit in fits]
    return _select(points, totals / p, None, METHOD_CV_LOO_UNTREATED)


def cv_rolling(
    panel: PanelDataset,
    estimator_kind: str,
    grid=None,
    window: int | None = None,
    horizon: int = 1,
    *,
    m_grid=None,
) -> SelectionResult:
    """Expanding-origin validation: train on periods up to each origin and
    score the single period ``horizon`` steps ahead; average over origins."""
    n = panel.n
    if window is None:
        window = math.ceil(n / 2)
    if window < 2 or horizon < 1 or window + horizon > n:
        raise ConfigurationError(
            f"rolling scheme infeasible: window={window}, horizon={horizon}, n={n}"
        )
    points = tuning_grid(estimator_kind, grid, m_grid, n_donors=panel.p)
    origins = range(window, n - horizon + 1)
    totals = np.zeros(len(points))
    for t in origins:
        y_tr, x_tr = panel.y[:t], panel.x[:t]
        target = t + horizon - 1
        x_te = panel.x[target : target + 1]
        y_te = panel.y[target : target + 1]
        fits = _fit_grid(y_tr, x_tr, estimator_kind, points)
        totals += [_forecast_mse(fit, x_te, y_te) for fit in fits]
    n_folds = len(list(origins))
    return _select(points, totals / n_folds, None, METHOD_CV_ROLLING)
