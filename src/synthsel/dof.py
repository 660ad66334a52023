"""Analytic divergence matrices and degrees-of-freedom sample analogs.

The divergence of a fit is the matrix of derivatives of the fitted values
in the outcome.  Locally every estimator here is an equality-constrained
least squares on its active donors, so the divergence is a scale times the
closed-form hat matrix of that local problem, and the degrees of freedom
are its trace, ``scale * (rank(X_A) - 1 - binding rows)``.  One rule,
``_df_rule``, gives the scale, case and binding rows of every fit but a
matching one, and both ``divergence`` and ``df_hat`` read it:

* binding rows: the sum-to-one row, plus, for a covariate fit, the
  exactly-fit positively-weighted covariate rows unless they are
  outnumbered (the ``cov_many`` case);
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

from .errors import ConfigurationError, SingularityError
from .solvers import (
    COVARIATE,
    MASC,
    MATCHING,
    PENALIZED,
    PLAIN,
    ActiveSets,
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


def _df_rule(fit: ScFit) -> tuple[float, str, tuple[int, ...]]:
    """The degrees-of-freedom rule of the module docstring for a fit with a
    local least-squares problem: its scale, its case and the covariate rows
    that bind on top of the sum-to-one row.  The exactly-fit positively
    weighted rows bind unless the nonzero-residual weighted rows are at
    least as numerous as the active donors minus one, in which case the
    covariate side exerts no force."""
    if fit.kind == PLAIN:
        return 1.0, CASE_PLAIN, ()
    if fit.kind == PENALIZED:
        return 1.0 + fit.lam, CASE_PENALIZED, ()
    if fit.kind == MASC:
        return 1.0 - fit.lam, CASE_MASC, ()
    if fit.kind == COVARIATE:
        if len(fit.sets.m_and_e) >= fit.n_active - 1:
            return 1.0 + fit.lam, CASE_COV_MANY, ()
        return 1.0 + fit.lam, CASE_COV_FEW, fit.sets.e_minus_m
    raise ConfigurationError(f"unknown fit kind {fit.kind}")


def divergence(fit: ScFit, x: np.ndarray, d: np.ndarray | None = None) -> DivergenceMatrix:
    """Divergence of any fit: ``_df_rule``'s scale times the constrained
    hat matrix on the active donors; the zero matrix for matching.  ``d``
    is needed for a covariate fit with binding rows."""
    if fit.kind == MATCHING:
        n = np.atleast_2d(np.asarray(x)).shape[0]
        return DivergenceMatrix(matrix=np.zeros((n, n)))
    scale, _, rows = _df_rule(fit)
    xa = _active_design(fit, x)
    eq_mat = np.ones((1, xa.shape[1]))
    if rows:
        if d is None:
            raise ConfigurationError(
                "covariate fit with binding rows requires the covariate matrix"
            )
        d = np.atleast_2d(np.asarray(d, dtype=float))
        eq_mat = np.vstack([eq_mat, d[np.ix_(list(rows), list(fit.sets.a))]])
    return DivergenceMatrix(matrix=scale * eq_constrained_hat(xa, eq_mat))


# ---------------------------------------------------------------------------
# degrees of freedom
# ---------------------------------------------------------------------------


def df_hat(fit: ScFit) -> DofReport:
    """Closed-form degrees-of-freedom sample analog of an estimator fit:
    ``_df_rule``'s value, or zero for a matching fit, which is locally
    constant in the outcome."""
    sets: ActiveSets = fit.sets
    counts = (fit.rank_xa, len(sets.a), len(sets.m_and_e), len(sets.e_minus_m))
    if fit.kind == MATCHING:
        return DofReport(0.0, CASE_MATCHING, *counts)
    scale, case, rows = _df_rule(fit)
    return DofReport(scale * (fit.rank_xa - len(rows) - 1.0), case, *counts)


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
