"""Analytic divergence matrices and degrees-of-freedom sample analogs.

The divergence of a fit is the matrix of derivatives of the fitted values
in the outcome.  Locally every estimator here is an equality-constrained
least squares on its active donors, so the divergence is the closed-form
hat matrix of that local problem:

* plain / covariate fits: projection onto the active donors minus the
  correction for the binding equality rows (the sum-to-one row alone, or
  together with the exactly-fit positively-weighted covariate rows);
* penalized fits: the same matrix scaled by ``1 + lam`` (the donor-distance
  penalty contributes a term whose trailing outcome dependence is
  annihilated by the constraint correction, leaving a pure rescaling);
* model-averaged fits: the synthetic-control component's divergence scaled
  by ``1 - lam`` (matching is locally constant);
* matching: the zero matrix.

Traces therefore collapse to the closed-form degrees-of-freedom values,
and a central finite-difference oracle is provided to check the matrices
against re-solves of the actual estimator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, SingularityError
from .solvers import (
    COVARIATE,
    MASC,
    MATCHING,
    PENALIZED,
    PLAIN,
    ActiveSets,
    ConstrainedLstsqResult,
    ScFit,
    eq_constrained_hat,
    matrix_rank_qr,
)

CASE_PLAIN = "plain"
CASE_COV_MANY = "cov_many"
CASE_COV_FEW = "cov_few"
CASE_PENALIZED = "penalized"
CASE_MASC = "masc"
CASE_MATCHING = "matching"
CASE_CONSTRAINED_LS = "constrained_ls"


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
    rank_xa: int
    n_active: int
    n_me: int
    n_em: int


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _active_design(fit: ScFit, x: np.ndarray) -> np.ndarray:
    a = list(fit.sets.a)
    if not a:
        raise ConfigurationError("fit has an empty active set")
    xa = np.atleast_2d(np.asarray(x, dtype=float))[:, a]
    if matrix_rank_qr(xa) < xa.shape[1]:
        raise SingularityError("X_A", "active design not of full column rank")
    return xa


def _constraint_rows(fit: ScFit, d: np.ndarray | None) -> tuple[np.ndarray, str]:
    """Binding equality rows on the active donors and the case label.

    Without covariates only the sum-to-one row binds.  With covariates the
    exactly-fit positively-weighted rows bind in addition, unless the
    nonzero-residual weighted rows are at least as numerous as the active
    donors minus one, in which case the covariate side exerts no force.
    """
    a = list(fit.sets.a)
    ones = np.ones((1, len(a)))
    if fit.kind in (PLAIN, PENALIZED, MASC, MATCHING):
        return ones, CASE_PLAIN
    n_me = len(fit.sets.m_and_e)
    em = list(fit.sets.e_minus_m)
    if n_me >= len(a) - 1:
        return ones, CASE_COV_MANY
    if not em:
        return ones, CASE_COV_FEW
    if d is None:
        raise ConfigurationError(
            "covariate fit with binding rows requires the covariate matrix"
        )
    d = np.atleast_2d(np.asarray(d, dtype=float))
    return np.vstack([ones, d[np.ix_(em, a)]]), CASE_COV_FEW


def _active_hat(fit: ScFit, x: np.ndarray, d: np.ndarray | None) -> DivergenceMatrix:
    """Constrained hat matrix on the active donors, scaled by ``1 + lam``
    when the fit carries a donor-distance penalty."""
    xa = _active_design(fit, x)
    rows, _ = _constraint_rows(fit, d)
    mat = eq_constrained_hat(xa, rows)
    if fit.lam > 0:
        mat = (1.0 + fit.lam) * mat
    return DivergenceMatrix(matrix=mat)


def divergence_sc(fit: ScFit, x: np.ndarray, d: np.ndarray | None = None) -> DivergenceMatrix:
    """Divergence of a plain or covariate fit (scaled by ``1 + lam`` if the
    fit carries a donor-distance penalty)."""
    if fit.kind not in (PLAIN, COVARIATE):
        raise ConfigurationError(f"divergence_sc expects a plain or covariate fit, got {fit.kind}")
    return _active_hat(fit, x, d)


def divergence_pen(fit: ScFit, x: np.ndarray) -> DivergenceMatrix:
    """Divergence of the penalized fit: ``(1 + lam)`` times the unpenalized
    divergence on the same active set.  The outcome-dependent penalty terms
    cancel exactly against the constraint correction."""
    if fit.kind != PENALIZED:
        raise ConfigurationError(f"divergence_pen expects a penalized fit, got {fit.kind}")
    return _active_hat(fit, x, None)


def divergence_masc(fit_sc_component: ScFit, lam: float, x: np.ndarray) -> DivergenceMatrix:
    """Divergence of the model-averaged fit: the matching side is locally
    constant, so only ``(1 - lam)`` of the synthetic-control divergence
    survives."""
    if not 0.0 <= lam <= 1.0:
        raise ConfigurationError(f"averaging weight must lie in [0, 1], got {lam}")
    base = divergence_sc(fit_sc_component, x)
    return DivergenceMatrix(matrix=(1.0 - lam) * base.matrix)


def divergence(fit: ScFit, x: np.ndarray, d: np.ndarray | None = None) -> DivergenceMatrix:
    """Dispatch on the fit kind."""
    if fit.kind in (PLAIN, COVARIATE):
        return divergence_sc(fit, x, d)
    if fit.kind == PENALIZED:
        return divergence_pen(fit, x)
    if fit.kind == MASC:
        return divergence_masc(fit.sc_component, fit.lam, x)
    if fit.kind == MATCHING:
        n = np.atleast_2d(np.asarray(x)).shape[0]
        return DivergenceMatrix(matrix=np.zeros((n, n)))
    raise ConfigurationError(f"unknown fit kind {fit.kind}")


# ---------------------------------------------------------------------------
# degrees of freedom
# ---------------------------------------------------------------------------


def df_hat(fit) -> DofReport:
    """Closed-form degrees-of-freedom sample analog for any fit.

    Plain fits spend ``rank(X_A) - 1``; exactly-fit positively-weighted
    covariate rows each remove one more unless outnumbered as described in
    ``_constraint_rows``; the donor-distance penalty multiplies by
    ``1 + lam`` and model averaging by ``1 - lam``; matching is free; pure
    equality-constrained least squares spends ``rank(X) - h``.
    """
    if isinstance(fit, ConstrainedLstsqResult):
        rank_x = matrix_rank_qr(fit.design)
        h = fit.eq_mat.shape[0]
        return DofReport(
            df_hat=float(rank_x - h),
            case=CASE_CONSTRAINED_LS,
            rank_xa=rank_x,
            n_active=fit.design.shape[1],
            n_me=0,
            n_em=0,
        )
    sets: ActiveSets = fit.sets
    rank_xa = fit.rank_xa
    n_me = len(sets.m_and_e)
    n_em = len(sets.e_minus_m)
    if fit.kind == PLAIN:
        return DofReport(rank_xa - 1.0, CASE_PLAIN, rank_xa, len(sets.a), n_me, n_em)
    if fit.kind == COVARIATE:
        if n_me >= len(sets.a) - 1:
            base, case = rank_xa - 1.0, CASE_COV_MANY
        else:
            base, case = rank_xa - n_em - 1.0, CASE_COV_FEW
        return DofReport((1.0 + fit.lam) * base, case, rank_xa, len(sets.a), n_me, n_em)
    if fit.kind == PENALIZED:
        return DofReport(
            (1.0 + fit.lam) * (rank_xa - 1.0), CASE_PENALIZED, rank_xa, len(sets.a), n_me, n_em
        )
    if fit.kind == MASC:
        return DofReport(
            (1.0 - fit.lam) * (rank_xa - 1.0), CASE_MASC, rank_xa, len(sets.a), n_me, n_em
        )
    if fit.kind == MATCHING:
        return DofReport(0.0, CASE_MATCHING, rank_xa, len(sets.a), n_me, n_em)
    raise ConfigurationError(f"unknown fit kind {fit.kind}")


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------


def divergence_fd_oracle(solver, y: np.ndarray, step: float | None = None) -> FdDivergence:
    """Central-difference divergence of an arbitrary solver closure.

    ``solver`` maps an outcome vector to an object with ``fitted`` and
    ``sets`` attributes and must be deterministic.  Each coordinate is
    perturbed by ``+-step`` (default ``1e-5 * max(1, ||y||_inf)``) and the
    fitted values differenced.  Coordinates at which the active sets flip
    are recorded: the analytic divergence is only defined away from those
    instability points, so flagged comparisons should be excluded rather
    than failed.
    """
    y = np.asarray(y, dtype=float).ravel()
    n = y.shape[0]
    if step is None:
        step = 1e-5 * max(1.0, float(np.max(np.abs(y), initial=0.0)))
    if step <= 0:
        raise ConfigurationError("finite-difference step must be positive")
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
