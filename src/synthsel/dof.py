"""Analytic divergence matrices and degrees-of-freedom sample analogs.

The divergence of a fit is the matrix of derivatives of the fitted values
in the outcome.  Locally every estimator here projects the outcome onto a
face of ``{X b : b on the simplex, E b = f}``, so the divergence is a
scale times the projection onto the span of ``X_A N`` (``N`` a basis of
the null space of the binding rows on the active donors), and the degrees
of freedom are its trace, ``scale * face_dim`` (``ScFit.face_dim``):
``scale * (|A| - 1 - binding covariate rows)`` unless ``X_A N`` is rank
deficient, as with a donor active beside its copy.  ``_df_rule``:

* binding rows: the sum-to-one row, plus, for a covariate fit, the
  exactly-fit positively-weighted covariate rows the outer solve holds as
  equality rows (``ScFit.cov_eq_rows``), none when they are outnumbered
  (the ``cov_many`` case);
* scale: ``1 + lam`` for the donor-distance penalty of penalized and
  covariate fits (its trailing outcome dependence is annihilated by the
  constraint correction, leaving a pure rescaling), ``1 - lam`` for
  model-averaged fits (matching is locally constant), 1 for plain fits;
* matching: the zero matrix.

A central finite-difference oracle is provided to check the matrices
against re-solves of the actual estimator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .solvers import (
    COVARIATE,
    MASC,
    MATCHING,
    PENALIZED,
    PLAIN,
    ActiveSets,
    ScFit,
    _covariate_rows_idle,
    _face_rows,
    _rank_cut,
    eq_constrained_hat,
)

CASE_PLAIN = "plain"
CASE_COV_MANY = "cov_many"
CASE_COV_FEW = "cov_few"
CASE_PENALIZED = "penalized"
CASE_MASC = "masc"
CASE_MATCHING = "matching"


@dataclass(frozen=True)
class DivergenceMatrix:
    """Dense n x n derivative of fitted values with respect to the outcome."""

    matrix: np.ndarray

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix))


@dataclass(frozen=True)
class FdDivergence(DivergenceMatrix):
    """Finite-difference divergence plus active-set stability bookkeeping."""

    active_set_changed: bool = False
    changed_coordinates: tuple[int, ...] = ()
    step: float = 0.0


@dataclass(frozen=True)
class DofReport:
    """Closed-form degrees-of-freedom sample analog and which case produced it."""

    df_hat: float
    case: str
    face_dim: int
    n_active: int
    n_me: int
    n_em: int


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _df_rule(fit: ScFit) -> tuple[float, str]:
    """The scale and case of the module docstring's rule for a fit with a
    local least-squares problem.  A covariate fit's exactly-fit positively
    weighted rows bind unless ``solvers._covariate_rows_idle`` holds, in
    which case the covariate side exerts no force and the outer solve
    drops them."""
    if fit.kind == PLAIN:
        return 1.0, CASE_PLAIN
    if fit.kind == PENALIZED:
        return 1.0 + fit.lam, CASE_PENALIZED
    if fit.kind == MASC:
        return 1.0 - fit.lam, CASE_MASC
    if fit.kind == COVARIATE:
        return 1.0 + fit.lam, CASE_COV_MANY if _covariate_rows_idle(fit) else CASE_COV_FEW
    raise ConfigurationError(f"unknown fit kind {fit.kind}")


def divergence(fit: ScFit, x: np.ndarray, d: np.ndarray | None = None) -> DivergenceMatrix:
    """Divergence of any fit: ``_df_rule``'s scale times the projection
    onto the span of ``X_A N`` at the engine's rank cut of ``x``
    (``eq_constrained_hat``), whose trace is ``fit.face_dim``; the zero
    matrix for matching.  ``d`` is needed for a covariate fit with binding
    rows."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if fit.kind == MATCHING:
        return DivergenceMatrix(matrix=np.zeros((x.shape[0], x.shape[0])))
    scale, _ = _df_rule(fit)
    if not fit.sets.a:
        raise ConfigurationError("fit has an empty active set")
    if fit.cov_eq_rows and d is None:
        raise ConfigurationError("covariate fit with binding rows requires the covariate matrix")
    d = None if d is None else np.atleast_2d(np.asarray(d, dtype=float))
    e_a = _face_rows(fit.sets.a, fit.cov_eq_rows, d)
    hat = eq_constrained_hat(x.take(fit.sets.a, 1), e_a, _rank_cut(x))
    return DivergenceMatrix(matrix=scale * hat)


# ---------------------------------------------------------------------------
# degrees of freedom
# ---------------------------------------------------------------------------


def df_hat(fit: ScFit) -> DofReport:
    """Closed-form degrees-of-freedom sample analog of an estimator fit:
    ``_df_rule``'s scale times the dimension of the fit's face, or zero for
    a matching fit, which is locally constant in the outcome."""
    sets: ActiveSets = fit.sets
    counts = (fit.face_dim, len(sets.a), len(sets.m_and_e), len(sets.e_minus_m))
    if fit.kind == MATCHING:
        return DofReport(0.0, CASE_MATCHING, *counts)
    scale, case = _df_rule(fit)
    return DofReport(scale * fit.face_dim, case, *counts)


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------


def divergence_fd_oracle(solver, y: np.ndarray, step: float | None = None) -> FdDivergence:
    """Central-difference divergence of an arbitrary solver closure.

    ``solver`` maps an outcome vector to an object with ``fitted`` and
    ``sets`` attributes and must be deterministic.  Each coordinate is
    perturbed by ``+-step`` (default ``1e-5 * max(1, ||y||_inf)``; a step
    that is not finite and positive raises ``ConfigurationError``) and the
    fitted values differenced.  Coordinates at which the active sets flip
    are recorded: the analytic divergence is only defined away from those
    instability points, so flagged comparisons should be excluded rather
    than failed.
    """
    y = np.asarray(y, dtype=float).ravel()
    n = y.shape[0]
    if step is None:
        step = 1e-5 * max(1.0, float(np.max(np.abs(y), initial=0.0)))
    if not np.isfinite(step) or step <= 0:
        raise ConfigurationError(f"finite-difference step must be finite and positive, got {step}")
    base_sets = solver(y).sets

    columns = []
    changed = []
    for i in range(n):
        bump = np.zeros(n)
        bump[i] = step
        up = solver(y + bump)
        down = solver(y - bump)
        columns.append((up.fitted - down.fitted) / (2.0 * step))
        if up.sets != base_sets or down.sets != base_sets:
            changed.append(i)

    return FdDivergence(
        matrix=np.column_stack(columns),
        active_set_changed=bool(changed),
        changed_coordinates=tuple(changed),
        step=float(step),
    )
