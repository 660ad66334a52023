"""Tuning-parameter selection: Stein-type information criteria and the
three cross-validation baselines.

The information criterion is the unbiased-risk estimate

    IC = ||y - yhat||^2 + 2 * sigma2_hat * df_hat(yhat),

with ``sigma2_hat`` always taken from the unpenalized synthetic control
residuals, regardless of which candidate is being scored.  The
penalized and model-averaged IC selectors read it off their own grid's fit
at ``lam = 0``, which is the one ``solve_sc`` returns (``_plain_sigma2``),
so plain synthetic control is solved once for them, and solve it
separately only when the grid has no zero.  Every selector takes every
estimator kind: ``tuning_grid`` lists its points, ``(m, lam)`` or
``(V, lam)``, and the package's one fit door, ``solvers._fit_grid``,
fits them.  All selectors return the grid, the per-point scores and the
chosen index; exact score ties break toward the largest tuning parameter
(the most regularized candidate), then toward grid order."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .panel import PanelDataset
from .dof import _dof
from .solvers import (
    COVARIATE,
    MASC,
    PENALIZED,
    PLAIN,
    TuningPoint,
    _fit_grid,
    _MascGrid,
    default_v_grid,
    solve_sc,
)

METHOD_SURE = "sure"
METHOD_CV_HOLDOUT = "cv_holdout"
METHOD_CV_LOO_UNTREATED = "cv_loo_untreated"
METHOD_CV_ROLLING = "cv_rolling"


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


def _select(grid, scores, sigma2, method) -> SelectionResult:
    """The grid point of least finite score ``best``; scores within
    ``1e-12 * (1 + |best|)`` of it tie, and a tie goes to the largest
    ``lam``, then to the earliest point."""
    grid = tuple(grid)
    scores = np.asarray(scores, dtype=float)
    finite = np.isfinite(scores)
    if not np.any(finite):
        raise ConfigurationError("every grid point failed to produce a score")
    best = float(np.min(scores[finite]))
    tol = 1e-12 * (1.0 + abs(best))
    tied = [i for i in range(len(grid)) if finite[i] and scores[i] <= best + tol]
    return SelectionResult(grid, scores, sigma2, max(tied, key=lambda i: (grid[i].lam, -i)), method)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def default_lambda_grid(kind: str) -> np.ndarray:
    """Penalized and covariate: zero plus 39 log-spaced points up to 10.
    Model averaging: 21 uniform points on [0, 1]."""
    if kind in (PENALIZED, COVARIATE):
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
    v_grid=None,
    *,
    n_donors: int | None = None,
    n_cov: int | None = None,
) -> tuple[TuningPoint, ...]:
    """The candidate list for one estimator kind, m-major for model
    averaging and V-major for the covariate estimator, whose default V grid
    is ``default_v_grid(n_cov)``.  Matching counts are kept as given."""
    lams = default_lambda_grid(kind) if lambdas is None else np.asarray(lambdas, dtype=float)
    if kind == MASC:
        if m_grid is None:
            if n_donors is None:
                raise ConfigurationError("the matching-count grid needs the donor count")
            m_grid = range(1, min(10, n_donors) + 1)
        points = tuple(TuningPoint(float(l), m=m) for m in m_grid for l in lams)
    elif kind == COVARIATE:
        if not n_cov:
            raise ConfigurationError("the covariate estimator needs covariates in the panel")
        vs = default_v_grid(n_cov) if v_grid is None else v_grid
        vs = [tuple(np.asarray(v, dtype=float).ravel()) for v in vs]
        points = tuple(TuningPoint(float(l), v=v) for v in vs for l in lams)
    else:
        points = tuple(TuningPoint(float(l)) for l in lams)
    if not points:
        raise ConfigurationError("empty tuning grid")
    return points


# ---------------------------------------------------------------------------
# information criterion
# ---------------------------------------------------------------------------


def sigma2_hat(y: np.ndarray, x: np.ndarray) -> float:
    """Mean squared residual of the unpenalized synthetic control fit."""
    return _plain_sigma2(y, x, ())


def _plain_sigma2(y: np.ndarray, x: np.ndarray, fits) -> float:
    """``sigma2_hat(y, x)``, bit for bit, read off the first of ``fits``
    (fits of ``y`` on ``x``) that is ``solve_sc``'s own fit; ``solve_sc``
    runs only when none is.

    Those are a plain fit; a model-averaged fit at ``lam = 0``, whose
    residuals are its plain component's; and a penalized fit at ``lam = 0``,
    which is ``solve_sc``'s cold solve: ``solve_sc`` is a one-point plain
    grid on the same door, ``solvers._fit_grid``, and a path keeps a warm
    fit only where it equals its cold solve.
    """
    fit = next((fit for fit in fits if fit.lam == 0.0 and fit.kind in (PLAIN, PENALIZED, MASC)), None)
    return float(np.mean((solve_sc(y, x) if fit is None else fit).residuals ** 2))


def ic_value(rss: float, sigma2: float, df: float) -> float:
    """Unbiased-risk score: in-sample loss plus twice the noise-scaled
    model flexibility."""
    if rss < 0 or sigma2 < 0:
        raise ConfigurationError("rss and sigma2 must be nonnegative")
    return float(rss + 2.0 * sigma2 * df)


def _ic_select(
    points, fits, y: np.ndarray, x: np.ndarray, sigma2: float | None = None
) -> SelectionResult:
    """The information-criterion selection over ``fits``, the fits of ``y``
    on ``x`` at the grid ``points``: ``ic_value``'s arithmetic on their RSS
    and ``df_hat`` vectors (a model-averaging grid's own, ``_MascGrid``),
    with the noise variance ``sigma2`` or, when it is None, ``sigma2_hat``
    read off the fits (``_plain_sigma2``)."""
    s2 = _plain_sigma2(y, x, fits) if sigma2 is None else float(sigma2)
    rss, df = ((fits.rss, _dof(fits)[0]) if isinstance(fits, _MascGrid)
               else np.array([(fit.rss, _dof(fit)[0]) for fit in fits]).T)
    return _select(points, rss + 2.0 * s2 * df, s2, METHOD_SURE)


def select_lambda_ic(
    panel: PanelDataset,
    estimator_kind: str,
    grid=None,
    *,
    m_grid=None,
    v_grid=None,
    sigma2: float | None = None,
) -> SelectionResult:
    """Score every grid point by the information criterion and pick the
    minimizer.  The tuning parameter enters both directly and through the
    active-set size of each refit.  ``sigma2`` must be finite and >= 0."""
    if sigma2 is not None and not 0.0 <= sigma2 < math.inf:
        raise ConfigurationError(f"noise variance sigma2 must be finite and >= 0, got {sigma2}")
    points = tuning_grid(estimator_kind, grid, m_grid, v_grid, n_donors=panel.p, n_cov=panel.n_cov)
    fits = _fit_grid(panel.y, panel.x, estimator_kind, points, panel.z, panel.d)
    return _ic_select(points, fits, panel.y, panel.x, sigma2)


def select_v_ic(
    panel: PanelDataset,
    v_grid,
    lambda_grid=None,
    *,
    sigma2: float | None = None,
) -> SelectionResult:
    """``select_lambda_ic`` of the covariate estimator: the joint grid
    argmin over the diagonal weighting and the penalty parameter."""
    return select_lambda_ic(panel, COVARIATE, lambda_grid, v_grid=v_grid, sigma2=sigma2)


# ---------------------------------------------------------------------------
# cross-validation baselines
# ---------------------------------------------------------------------------


def _cv_select(kind: str, points, folds, method: str) -> SelectionResult:
    """Fit the grid on each fold's training part, score the mean squared
    forecast error on its test part and average over the folds; a fold is
    ``(y_train, x_train, z_train, d_train, y_test, x_test)``."""
    totals = np.zeros(len(points))
    for y_tr, x_tr, z, d, y_te, x_te in folds:
        fits = _fit_grid(y_tr, x_tr, kind, points, z, d)
        totals += [float(np.mean((y_te - x_te @ fit.beta) ** 2)) for fit in fits]
    return _select(points, totals / len(folds), None, method)


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
    if not math.isfinite(split_fraction):
        raise ConfigurationError(f"holdout split must be finite, got {split_fraction}")
    n_train = math.ceil(split_fraction * n)
    if n_train < 2 or n_train >= n:
        raise ConfigurationError(
            f"holdout split {split_fraction} leaves train={n_train}, test={n - n_train}"
        )
    points = tuning_grid(estimator_kind, grid, m_grid, n_donors=panel.p, n_cov=panel.n_cov)
    y, x = panel.y, panel.x
    fold = (y[:n_train], x[:n_train], panel.z, panel.d, y[n_train:], x[n_train:])
    return _cv_select(estimator_kind, points, [fold], METHOD_CV_HOLDOUT)


def cv_loo_untreated(
    panel: PanelDataset,
    estimator_kind: str,
    grid=None,
    *,
    m_grid=None,
) -> SelectionResult:
    """Treat each donor in turn as a placebo outcome, fit on the remaining
    donors over the pre-period and score its post-period forecast error;
    average across donors.  The placebo's covariate target is its own
    covariate column, matched by the remaining donors' columns."""
    if panel.post_x is None:
        raise ConfigurationError("leave-one-out validation needs post-treatment donor data")
    p = panel.p
    if p < 2:
        raise ConfigurationError("leave-one-out validation needs at least two donors")
    points = tuning_grid(estimator_kind, grid, m_grid, n_donors=p - 1, n_cov=panel.n_cov)
    x, d, post_x = panel.x, panel.d, panel.post_x
    folds = []
    for j in range(p):
        keep = [k for k in range(p) if k != j]
        cov = (None, None) if d is None else (d[:, j], d[:, keep])
        folds.append((x[:, j], x[:, keep], *cov, post_x[:, j], post_x[:, keep]))
    return _cv_select(estimator_kind, points, folds, METHOD_CV_LOO_UNTREATED)


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
    points = tuning_grid(estimator_kind, grid, m_grid, n_donors=panel.p, n_cov=panel.n_cov)
    y, x, z, d = panel.y, panel.x, panel.z, panel.d
    folds = [
        (y[:t], x[:t], z, d, y[t + horizon - 1 : t + horizon], x[t + horizon - 1 : t + horizon])
        for t in range(window, n - horizon + 1)
    ]
    return _cv_select(estimator_kind, points, folds, METHOD_CV_ROLLING)
