"""Simplex-constrained least-squares solvers for synthetic control estimators.

Every estimator here reduces to one quadratic program

    minimize    0.5 * ||y - S b||^2 + c'b
    subject to  1'b = s,  (optional extra equality rows)  E b = f,   b >= 0,

solved by a primal active-set method: the sum constraint (and any extra
equality rows) stay in the working set throughout, and each working-set
subproblem is the equality-constrained least-squares problem solved in
closed form through its KKT system.  This terminates finitely and returns
exact multipliers, which we expose as a KKT certificate on every fit.

Multiplier convention for the nonnegativity constraints: stationarity is
``grad + A' xi + mu = 0`` with ``mu <= 0`` at an optimum.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dgeqp3 as _geqp3, dpotrf as _potrf, dpotrs as _potrs

from .errors import ConfigurationError, ConvergenceError, SingularityError

KKT_TOL = 1e-8
#: candidate iterates this far below zero are treated as infeasible
_FEAS_TOL = 5e-14
#: a zero-bound multiplier must exceed this to trigger a release
_RELEASE_TOL = 1e-10
#: relative infeasibility a caller's start may carry (rounding in the fit
#: it came from)
_START_TOL = 1e-8

PLAIN = "plain"
COVARIATE = "covariate"
PENALIZED = "penalized"
MASC = "masc"
MATCHING = "matching"
ESTIMATOR_KINDS = (PLAIN, COVARIATE, PENALIZED, MASC, MATCHING)


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------


def default_active_tol(beta: np.ndarray) -> float:
    """Relative threshold for active-set membership, 1e-8 * (1 + ||b||_inf)."""
    return 1e-8 * (1.0 + float(np.max(np.abs(beta), initial=0.0)))


@dataclass(frozen=True)
class Weights:
    """Donor weight vector with the threshold that defines its support."""

    beta: np.ndarray
    active_tol: float

    def __post_init__(self):
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float).ravel())

    def active_set(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.beta > self.active_tol))


@dataclass(frozen=True)
class ActiveSets:
    """Index sets: active donors ``a``, nonzero inner residuals ``m``,
    strictly positive covariate weights ``e`` (``m``/``e`` empty without
    covariates)."""

    a: tuple[int, ...]
    m: tuple[int, ...] = ()
    e: tuple[int, ...] = ()

    @property
    def m_and_e(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.m) & set(self.e)))

    @property
    def e_minus_m(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.e) - set(self.m)))


@dataclass(frozen=True)
class KktCertificate:
    """First-order certificate of the returned solution.

    ``mu`` are the nonnegativity multipliers (``<= 0`` at an optimum),
    ``eq_multipliers`` the equality multipliers with the sum-to-one row
    first.  ``degenerate`` flags instances where ties between equivalent
    optima had to be broken by the canonicalization re-solve.
    """

    stationarity_residual: float
    complementarity_gap: float
    eq_multipliers: np.ndarray
    mu: np.ndarray
    iterations: int = 0
    degenerate: bool = False

    def satisfied(self, tol: float = KKT_TOL) -> bool:
        return (
            self.stationarity_residual <= tol
            and self.complementarity_gap <= tol
            and float(np.max(self.mu, initial=0.0)) <= tol
        )


@dataclass(frozen=True)
class ScFit:
    """One fitted synthetic-control-style estimator.

    ``fitted`` is exactly ``x @ beta`` (for the model-averaged estimator it
    is the tuning-weighted combination of the two component fits) and
    ``residuals`` is ``y - fitted``.  ``sets`` hold the index sets the
    degrees-of-freedom formulas consume; for the model-averaged estimator
    they are the synthetic-control component's sets, since the matching
    component is locally constant in ``y``.
    """

    kind: str
    weights: Weights
    fitted: np.ndarray
    residuals: np.ndarray
    sets: ActiveSets
    kkt: KktCertificate
    lam: float = 0.0
    m: int | None = None
    v: np.ndarray | None = None
    rank_xa: int = 0
    donor_sq_distances: np.ndarray | None = None
    cov_residuals: np.ndarray | None = None
    cov_eq_rows: tuple[int, ...] = ()
    sc_component: "ScFit | None" = None
    ma_component: "ScFit | None" = None

    @property
    def beta(self) -> np.ndarray:
        return self.weights.beta

    @property
    def rss(self) -> float:
        return float(self.residuals @ self.residuals)

    @property
    def n_active(self) -> int:
        return len(self.sets.a)


@dataclass(frozen=True)
class EngineResult:
    """Raw output of the simplex quadratic program engine."""

    beta: np.ndarray
    eq_multipliers: np.ndarray
    mu: np.ndarray
    stationarity_residual: float
    complementarity_gap: float
    iterations: int

    def certificate(self, degenerate: bool = False) -> KktCertificate:
        return KktCertificate(
            stationarity_residual=self.stationarity_residual,
            complementarity_gap=self.complementarity_gap,
            eq_multipliers=self.eq_multipliers,
            mu=self.mu,
            iterations=self.iterations,
            degenerate=degenerate,
        )


# ---------------------------------------------------------------------------
# equality-constrained least squares (the working-set subproblem)
# ---------------------------------------------------------------------------


def _eq_ls_solve(gram, g, a_mat, rhs):
    """Solve ``G b + A' xi = g``, ``A b = rhs`` for (b, xi, consistent).

    The fast path factors the Gram block with LAPACK ``potrf``/``potrs``
    (what ``cho_factor``/``cho_solve`` call, minus their argument
    checking, which costs more than the solve at working-set sizes) and
    solves the ``h x h`` Schur complement ``A G^-1 A'`` directly; it falls
    back to a minimum-norm solve of the full KKT system.  Either way the
    candidate is validated by its own KKT residual: ``consistent=False``
    means the face problem has no stationary point (a rank-deficient Gram
    with a descent ray), which the caller must handle directionally.  ``g``
    and ``rhs`` may also be matrices with one column per right-hand side,
    as for the hat matrix.
    """
    k = gram.shape[0]
    h = a_mat.shape[0]
    scale = 1.0 + float(np.max(np.abs(g), initial=0.0)) + float(np.max(np.abs(rhs), initial=0.0))
    try:
        chol, info = _potrf(gram, lower=0, clean=0)
        if info:
            raise np.linalg.LinAlgError("Gram block is not positive definite")
        gi_g = _potrs(chol, g, lower=0)[0]
        if h == 0:
            beta, xi = gi_g, np.zeros(0)
        else:
            gi_at = _potrs(chol, a_mat.T, lower=0)[0]
            xi = np.linalg.solve(a_mat @ gi_at, a_mat @ gi_g - rhs)
            beta = gi_g - gi_at @ xi
        if _kkt_residual(gram, g, a_mat, rhs, beta, xi) <= 1e-9 * scale:
            return beta, xi, True
    except np.linalg.LinAlgError:
        pass
    kkt = np.zeros((k + h, k + h))
    kkt[:k, :k] = gram
    kkt[:k, k:] = a_mat.T
    kkt[k:, :k] = a_mat
    full_rhs = np.concatenate([g, rhs])
    sol, *_ = np.linalg.lstsq(kkt, full_rhs, rcond=None)
    beta, xi = sol[:k], sol[k:]
    consistent = _kkt_residual(gram, g, a_mat, rhs, beta, xi) <= 1e-8 * scale
    return beta, xi, consistent


def _kkt_residual(gram, g, a_mat, rhs, beta, xi) -> float:
    stat = gram @ beta - g
    if a_mat.shape[0]:
        stat = stat + a_mat.T @ xi
    feas = a_mat @ beta - rhs if a_mat.shape[0] else np.zeros(0)
    return max(
        float(np.max(np.abs(stat), initial=0.0)),
        float(np.max(np.abs(feas), initial=0.0)),
    )


def _null_descent_direction(design_f, a_f, lin_f):
    """Direction in ``null(X_F) ∩ null(A_F)`` along which the linear term
    decreases fastest; None when no such descent exists."""
    stacked = np.vstack([design_f, a_f])
    _, svals, vt = np.linalg.svd(stacked)
    tol = max(stacked.shape) * np.finfo(float).eps * (svals[0] if svals.size else 0.0)
    null_basis = vt[np.sum(svals > tol) :]
    if null_basis.shape[0] == 0:
        return None
    slopes = null_basis @ lin_f
    j = int(np.argmax(np.abs(slopes)))
    if abs(slopes[j]) <= 1e-12 * (1.0 + float(np.max(np.abs(lin_f), initial=0.0))):
        return None
    direction = null_basis[j]
    return -direction if slopes[j] > 0 else direction


@dataclass(frozen=True)
class ConstrainedLstsqResult:
    """Solution of least squares under pure linear equality constraints."""

    beta: np.ndarray
    eq_multipliers: np.ndarray
    design: np.ndarray
    eq_mat: np.ndarray

    def hat_matrix(self) -> np.ndarray:
        """Derivative of the fitted values in the outcome, in closed form."""
        return eq_constrained_hat(self.design, self.eq_mat)

    @property
    def fitted(self) -> np.ndarray:
        return self.design @ self.beta

    @property
    def df(self) -> float:
        return float(np.trace(self.hat_matrix()))


def _require_independent_blocks(x: np.ndarray, eq_mat: np.ndarray) -> None:
    """Raise unless ``X`` has full column rank and the rows of ``E`` are
    independent, i.e. unless ``X'X`` and ``E (X'X)^-1 E'`` are invertible."""
    if matrix_rank_qr(x) < x.shape[1]:
        raise SingularityError("X'X", "design not of full column rank")
    if matrix_rank_qr(eq_mat) < eq_mat.shape[0]:
        raise SingularityError("E (X'X)^-1 E'", "numerically dependent rows")


def eq_constrained_hat(design: np.ndarray, eq_mat: np.ndarray) -> np.ndarray:
    """Hat matrix of equality-constrained least squares.

    ``P - X G^-1 E' (E G^-1 E')^-1 E G^-1 X'`` with ``G = X'X`` and ``P``
    the unconstrained projection, obtained by solving the subproblem with
    right-hand side ``X'`` and zero constraint values; the trace is rank(X)
    minus the number of independent constraint rows.
    """
    x = np.asarray(design, dtype=float)
    _require_independent_blocks(x, eq_mat)
    beta, _, _ = _eq_ls_solve(x.T @ x, x.T, eq_mat, np.zeros((eq_mat.shape[0], x.shape[0])))
    return x @ beta


def solve_constrained_ls(
    y: np.ndarray,
    x: np.ndarray,
    eq_mat: np.ndarray | None = None,
    eq_rhs: np.ndarray | None = None,
    lin: np.ndarray | None = None,
) -> ConstrainedLstsqResult:
    """Minimize ``0.5||y - X b||^2 + lin'b`` subject to ``E b = f`` only.

    No inequality handling: this is the closed form that also powers every
    working-set subproblem of the simplex solver.  ``E`` empty reduces to
    ordinary least squares.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    p = x.shape[1]
    if eq_mat is None or np.size(eq_mat) == 0:
        eq_mat = np.zeros((0, p))
        eq_rhs = np.zeros(0)
    else:
        eq_mat = np.atleast_2d(np.asarray(eq_mat, dtype=float))
        eq_rhs = np.asarray(eq_rhs, dtype=float).ravel()
    _require_independent_blocks(x, eq_mat)
    g = x.T @ y if lin is None else x.T @ y - np.asarray(lin, dtype=float)
    beta, xi, _ = _eq_ls_solve(x.T @ x, g, eq_mat, eq_rhs)
    return ConstrainedLstsqResult(beta, xi, x, eq_mat)


# ---------------------------------------------------------------------------
# the simplex QP engine
# ---------------------------------------------------------------------------


def simplex_ls(
    target: np.ndarray,
    design: np.ndarray,
    *,
    lin: np.ndarray | None = None,
    sum_to: float = 1.0,
    eq_mat: np.ndarray | None = None,
    eq_rhs: np.ndarray | None = None,
    start: np.ndarray | None = None,
    kkt_tol: float = KKT_TOL,
    max_iter: int | None = None,
) -> EngineResult:
    """Minimize ``0.5||target - design @ b||^2 + lin'b`` over the scaled
    simplex ``{b >= 0, sum(b) = sum_to}`` intersected with optional extra
    equality rows.

    Deterministic: the start vertex, release rule (largest violating
    multiplier, lowest index on ties) and blocking rule (smallest step,
    lowest index on ties) are all tie-broken by index.  When extra equality
    rows are present a ``start`` must be supplied.  A ``start`` must be
    finite, of length ``p``, nonnegative and sum to ``sum_to``, up to
    ``1e-8 * (1 + sum|b| + |sum_to|)``; otherwise ``ConfigurationError`` is
    raised.  It need not meet the extra rows: the first working-set solve
    lands on them, and a caller such as the covariate estimator can only
    fit them to a tolerance scaled by data the engine does not see.
    """
    x = np.atleast_2d(np.asarray(design, dtype=float))
    y = np.asarray(target, dtype=float).ravel()
    n, p = x.shape
    if y.shape[0] != n:
        raise ValueError("target length does not match design rows")
    gram = x.T @ x
    g0 = x.T @ y
    if lin is not None:
        g0 = g0 - np.asarray(lin, dtype=float).ravel()

    if eq_mat is None or np.size(eq_mat) == 0:
        a_mat = np.ones((1, p))
        rhs = np.array([float(sum_to)])
    else:
        extra = np.atleast_2d(np.asarray(eq_mat, dtype=float))
        a_mat = np.vstack([np.ones((1, p)), extra])
        rhs = np.concatenate([[float(sum_to)], np.asarray(eq_rhs, dtype=float).ravel()])

    if start is None:
        if a_mat.shape[0] > 1:
            raise ConfigurationError(
                "a feasible start is required when extra equality rows are given"
            )
        vertex_obj = 0.5 * sum_to**2 * np.diag(gram) - sum_to * g0
        j0 = int(np.argmin(vertex_obj))
        beta = np.zeros(p)
        beta[j0] = sum_to
    else:
        beta = np.maximum(_feasible_start(start, p, float(sum_to)), 0.0)
    free = beta > 0.0
    if not np.any(free):
        free[0] = True

    if max_iter is None:
        max_iter = max(200, 30 * p)

    scale = 1.0 + float(np.max(np.abs(g0), initial=0.0))
    release_tol = min(kkt_tol, _RELEASE_TOL * scale)

    def _objective(b: np.ndarray) -> float:
        return float(0.5 * b @ (gram @ b) - g0 @ b)

    xi = np.zeros(a_mat.shape[0])
    best_obj = _objective(beta)
    stalled = 0
    bland = False
    for iteration in range(1, max_iter + 1):
        f_idx = np.flatnonzero(free)
        cand_f, xi, consistent = _eq_ls_solve(
            gram[np.ix_(f_idx, f_idx)], g0[f_idx], a_mat[:, f_idx], rhs
        )
        if not consistent:
            # the face problem has no stationary point: descend along a
            # null direction of the free design until a bound blocks
            ray = _null_descent_direction(x[:, f_idx], a_mat[:, f_idx], -g0[f_idx])
            if ray is None:
                raise ConvergenceError(
                    "inconsistent working-set system without a descent ray",
                    float("nan"),
                    0.0,
                )
            direction = np.zeros(p)
            direction[f_idx] = ray
            falling = free & (direction < -1e-14)
            if not np.any(falling):
                raise ConvergenceError(
                    "unbounded descent ray on a compact feasible set",
                    float("nan"),
                    0.0,
                )
            fall_idx = np.flatnonzero(falling)
            steps = beta[fall_idx] / -direction[fall_idx]
            k = int(np.argmin(steps))
            blocking = int(fall_idx[k])
            beta = beta + float(steps[k]) * direction
            beta[blocking] = 0.0
            beta[beta < 0.0] = 0.0
            free[blocking] = False
            continue
        cand = np.zeros(p)
        cand[f_idx] = cand_f
        feas_tol = _FEAS_TOL * max(1.0, float(np.max(np.abs(cand_f), initial=1.0)))
        if np.min(cand_f, initial=0.0) >= -feas_tol:
            beta = np.where(free, np.maximum(cand, 0.0), 0.0)
            grad = gram @ beta - g0
            mu = -(grad + a_mat.T @ xi)
            mu[free] = 0.0
            worst = float(np.max(mu, initial=0.0))
            if worst <= release_tol:
                return _finalize(beta, free, grad, a_mat, xi, mu, iteration)
            obj = _objective(beta)
            if obj < best_obj - 1e-14 * (1.0 + abs(best_obj)):
                best_obj = obj
                stalled = 0
            else:
                stalled += 1
                if stalled > p + 5:
                    bland = True
            if bland:
                release = int(np.flatnonzero(mu > release_tol)[0])
            else:
                release = int(np.argmax(mu))
            free[release] = True
        else:
            neg = free & (cand < 0.0)
            neg_idx = np.flatnonzero(neg)
            steps = beta[neg_idx] / (beta[neg_idx] - cand[neg_idx])
            k = int(np.argmin(steps))
            alpha = float(max(steps[k], 0.0))
            blocking = int(neg_idx[k])
            beta = beta + alpha * (cand - beta)
            beta[blocking] = 0.0
            beta[beta < 0.0] = 0.0
            free[blocking] = False

    grad = gram @ beta - g0
    mu = -(grad + a_mat.T @ xi)
    mu[free] = 0.0
    stat = float(np.max(np.abs((grad + a_mat.T @ xi)[free]), initial=0.0))
    comp = float(np.max(np.abs(mu * beta), initial=0.0))
    raise ConvergenceError(
        f"active-set solver exceeded {max_iter} iterations", stat, comp
    )


def _feasible_start(start, p: int, sum_to: float) -> np.ndarray:
    """The start as a float vector, or ``ConfigurationError`` unless it lies
    on the scaled simplex up to ``_START_TOL`` of its magnitude."""
    beta = np.asarray(start, dtype=float).ravel()
    if beta.shape[0] != p:
        raise ConfigurationError(f"start has length {beta.shape[0]}, expected {p}")
    if not np.all(np.isfinite(beta)):
        raise ConfigurationError("start has a non-finite entry")
    tol = _START_TOL * (1.0 + float(np.sum(np.abs(beta))) + abs(sum_to))
    if float(np.min(beta)) < -tol:
        raise ConfigurationError(f"start has a negative entry {float(np.min(beta)):.3g}")
    if abs(float(np.sum(beta)) - sum_to) > tol:
        raise ConfigurationError(f"start sums to {beta.sum():.12g}, expected {sum_to:.12g}")
    return beta


def _finalize(beta, free, grad, a_mat, xi, mu, iterations) -> EngineResult:
    lagrangian_grad = grad + a_mat.T @ xi + mu
    stat = float(np.max(np.abs(lagrangian_grad), initial=0.0))
    comp = float(np.max(np.abs(mu * beta), initial=0.0))
    return EngineResult(
        beta=beta,
        eq_multipliers=xi,
        mu=mu,
        stationarity_residual=stat,
        complementarity_gap=comp,
        iterations=iterations,
    )


# ---------------------------------------------------------------------------
# rank with the package-wide tolerance
# ---------------------------------------------------------------------------


def matrix_rank_qr(mat: np.ndarray) -> int:
    """Rank via column-pivoted QR, relative tolerance 1e-10 of the largest
    diagonal element.

    Calls LAPACK ``geqp3`` directly, with the workspace query that
    ``scipy.linalg.qr`` makes, so R is the same; the wrapper's argument
    handling costs more than the factorization at these sizes.
    """
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if min(mat.shape) == 0:
        return 0
    lwork = int(_geqp3(mat, lwork=-1)[3][0])
    r, _, _, _, info = _geqp3(mat, lwork=lwork)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK geqp3")
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] == 0.0:
        return 0
    return int(np.sum(diag > 1e-10 * diag[0]))


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def donor_sq_distances(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Squared distances ||y - x_i||^2 of the outcome to each donor column."""
    diff = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)[:, None]
    return np.einsum("ij,ij->j", diff, diff)


def _build_fit(
    kind: str,
    y: np.ndarray,
    x: np.ndarray,
    res: EngineResult,
    *,
    lam: float = 0.0,
    m: int | None = None,
    v: np.ndarray | None = None,
    sq_dist: np.ndarray | None = None,
    cov_residuals: np.ndarray | None = None,
    cov_eq_rows: tuple[int, ...] = (),
    sets: ActiveSets | None = None,
    degenerate: bool = False,
) -> ScFit:
    beta = res.beta
    tol = default_active_tol(beta)
    weights = Weights(beta=beta, active_tol=tol)
    if sets is None:
        sets = ActiveSets(a=weights.active_set())
    fitted = x @ beta
    a_idx = list(sets.a)
    rank_xa = matrix_rank_qr(x[:, a_idx]) if a_idx else 0
    return ScFit(
        kind=kind,
        weights=weights,
        fitted=fitted,
        residuals=y - fitted,
        sets=sets,
        kkt=res.certificate(degenerate=degenerate),
        lam=lam,
        m=m,
        v=v,
        rank_xa=rank_xa,
        donor_sq_distances=sq_dist if sq_dist is not None else donor_sq_distances(y, x),
        cov_residuals=cov_residuals,
        cov_eq_rows=cov_eq_rows,
    )


def _is_degenerate(fit: ScFit) -> bool:
    return fit.rank_xa < fit.n_active


def _is_unique_optimum(fit: ScFit, g0: np.ndarray) -> bool:
    """Sufficient condition for a unique minimizer: ``X_A`` has full column
    rank and every inactive multiplier is strictly negative (beyond the
    release tolerance), so no optimal direction leaves the active face and
    none moves within it."""
    inactive = np.ones(fit.beta.shape[0], dtype=bool)
    inactive[list(fit.sets.a)] = False
    tol = _RELEASE_TOL * (1.0 + float(np.max(np.abs(g0), initial=0.0)))
    return not _is_degenerate(fit) and bool(np.all(fit.kkt.mu[inactive] < -tol))


def solve_sc(
    y: np.ndarray,
    x: np.ndarray,
    *,
    kkt_tol: float = KKT_TOL,
    canonicalize: bool = True,
) -> ScFit:
    """Plain synthetic control: least squares over the probability simplex.

    When the active design is rank deficient (duplicate or collinear active
    donors make the optimum non-unique), the active set is canonicalized by
    re-solving with a vanishing donor-distance penalty, which picks out one
    optimum deterministically.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    res = simplex_ls(y, x, kkt_tol=kkt_tol)
    fit = _build_fit(PLAIN, y, x, res)
    if canonicalize and _is_degenerate(fit):
        pen = simplex_ls(y, x, lin=0.5e-8 * fit.donor_sq_distances, kkt_tol=kkt_tol)
        fit = _build_fit(PLAIN, y, x, pen, sq_dist=fit.donor_sq_distances, degenerate=True)
    return fit


def solve_penalized_sc(
    y: np.ndarray, x: np.ndarray, lam: float, *, kkt_tol: float = KKT_TOL
) -> ScFit:
    """Penalized synthetic control: adds ``lam * sum_i b_i ||y - x_i||^2``.

    The penalty is linear in ``b``, so the same engine runs with a shifted
    linear coefficient; ``lam = 0`` coincides with the plain estimator.
    """
    return _solve_penalized(y, x, lam, None, kkt_tol)


def _solve_penalized(y, x, lam: float, start, kkt_tol: float = KKT_TOL) -> ScFit:
    """``solve_penalized_sc``, warm-started from ``start`` unless it is None.

    ``start`` is a feasible weight vector, such as the fit at a neighbouring
    ``lam`` on a grid.  It never changes the answer: the warm fit is kept
    only where the optimum is unique (``X_A`` of full column rank, every
    inactive multiplier strictly negative), where it equals the cold fit;
    otherwise the point is solved again from the cold start vertex.
    """
    if not np.isfinite(lam) or lam < 0:
        raise ConfigurationError(f"penalty parameter must be finite and >= 0, got {lam}")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    q = donor_sq_distances(y, x)
    lin = 0.5 * lam * q
    res = simplex_ls(y, x, lin=lin, start=start, kkt_tol=kkt_tol)
    fit = _build_fit(PENALIZED, y, x, res, lam=float(lam), sq_dist=q)
    if start is not None and not _is_unique_optimum(fit, x.T @ y - lin):
        res = simplex_ls(y, x, lin=lin, kkt_tol=kkt_tol)
        fit = _build_fit(PENALIZED, y, x, res, lam=float(lam), sq_dist=q)
    return fit


def matching_weights(y: np.ndarray, x: np.ndarray, m: int) -> Weights:
    """Uniform weight 1/m on the m nearest donors (ties by lowest index)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    p = x.shape[1]
    if not 1 <= m <= p:
        raise ConfigurationError(f"matching count m={m} outside 1..{p}")
    dist = donor_sq_distances(y, x)
    order = np.argsort(dist, kind="stable")
    beta = np.zeros(p)
    beta[order[:m]] = 1.0 / m
    return Weights(beta=beta, active_tol=default_active_tol(beta))


def solve_matching(y: np.ndarray, x: np.ndarray, m: int) -> ScFit:
    """Matching estimator wrapped as a fit (locally constant in y)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    w = matching_weights(y, x, m)
    fitted = x @ w.beta
    sets = ActiveSets(a=w.active_set())
    cert = KktCertificate(
        stationarity_residual=0.0,
        complementarity_gap=0.0,
        eq_multipliers=np.zeros(1),
        mu=np.zeros(x.shape[1]),
    )
    return ScFit(
        kind=MATCHING,
        weights=w,
        fitted=fitted,
        residuals=y - fitted,
        sets=sets,
        kkt=cert,
        m=int(m),
        rank_xa=matrix_rank_qr(x[:, list(sets.a)]),
        donor_sq_distances=donor_sq_distances(y, x),
    )


def solve_masc(
    y: np.ndarray, x: np.ndarray, lam: float, m: int, *, kkt_tol: float = KKT_TOL
) -> ScFit:
    """Model-averaged estimator: lam * matching + (1 - lam) * synthetic control.

    The weight vector, the fitted values and hence the whole fit are the
    same convex combination of the two component solutions.  The stored
    index sets are those of the synthetic-control component, which is the
    only piece with a nonzero derivative in the outcome.
    """
    _check_averaging_weight(lam)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    return masc_average(y, solve_sc(y, x, kkt_tol=kkt_tol), solve_matching(y, x, m), lam)


def _check_averaging_weight(lam: float) -> None:
    if not 0.0 <= lam <= 1.0:
        raise ConfigurationError(f"averaging weight must lie in [0, 1], got {lam}")


def masc_average(y: np.ndarray, fit_sc: ScFit, fit_ma: ScFit, lam: float) -> ScFit:
    """The model-averaged fit ``lam * fit_ma + (1 - lam) * fit_sc`` from a
    plain synthetic-control fit and a matching fit of the outcome ``y``, so
    a grid over ``(lam, m)`` needs one solve of each component."""
    _check_averaging_weight(lam)
    beta = lam * fit_ma.beta + (1.0 - lam) * fit_sc.beta
    fitted = lam * fit_ma.fitted + (1.0 - lam) * fit_sc.fitted
    weights = Weights(beta=beta, active_tol=default_active_tol(beta))
    return ScFit(
        kind=MASC,
        weights=weights,
        fitted=fitted,
        residuals=np.asarray(y, dtype=float).ravel() - fitted,
        sets=fit_sc.sets,
        kkt=fit_sc.kkt,
        lam=float(lam),
        m=int(fit_ma.m),
        rank_xa=fit_sc.rank_xa,
        donor_sq_distances=fit_sc.donor_sq_distances,
        sc_component=fit_sc,
        ma_component=fit_ma,
    )


# ---------------------------------------------------------------------------
# covariate estimator
# ---------------------------------------------------------------------------


def _scaled_tol(base: float, values: np.ndarray) -> float:
    return base * (1.0 + float(np.max(np.abs(values), initial=0.0)))


def solve_sc_cov_inner(
    y: np.ndarray,
    x: np.ndarray,
    z: np.ndarray,
    d: np.ndarray,
    v: np.ndarray,
    *,
    lam: float = 0.0,
    kkt_tol: float = KKT_TOL,
    residual_tol: float = 1e-8,
    weight_tol: float = 1e-8,
) -> ScFit:
    """Covariate-constrained synthetic control at a fixed diagonal weighting.

    Two stages.  First the inner problem ``min ||z - d b||_v`` is solved
    over the simplex; its fitted values on the positively weighted rows are
    unique even when the minimizer is not, so they split those rows into
    exactly-fit rows and rows with nonzero inner residual.  Second, the
    outer loss is minimized over the inner solution set, which the
    exactly-fit rows pin down as equality constraints while the nonzero
    residual rows leave free.  If the nonzero-residual rows are at least as
    numerous as the active donors minus one, the equality rows exert no
    force at all and the fit reduces to the plain estimator on its active
    set; that reduction is applied and flagged when it fires.  The first
    stage does not depend on ``lam``, so a grid over ``lam`` at one
    weighting needs it once (see ``selection.select_v_ic``).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    d = np.atleast_2d(np.asarray(d, dtype=float)) if np.size(d) else np.zeros((0, x.shape[1]))
    z = np.asarray(z, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    if d.shape[0] == 0:
        base = solve_penalized_sc(y, x, lam) if lam > 0 else solve_sc(y, x)
        return replace(base, kind=COVARIATE, lam=float(lam), v=v)
    inner = _cov_inner(y, x, z, d, v, kkt_tol, residual_tol, weight_tol)
    return _cov_outer(y, x, inner, lam, None, kkt_tol)


@dataclass(frozen=True)
class _CovInner:
    """The ``lam``-independent first stage of the covariate estimator at one
    diagonal weighting ``v``: the informative weighted rows ``e_rows``, the
    rows the inner solution fits exactly (``exact_rows``, the outer
    equality rows) and that solution, the start of the outer solve."""

    z: np.ndarray
    d: np.ndarray
    v: np.ndarray
    e_rows: tuple[int, ...]
    exact_rows: tuple[int, ...]
    inner_beta: np.ndarray | None
    r_tol: float
    sq_dist: np.ndarray


def _cov_inner(y, x, z, d, v, kkt_tol=KKT_TOL, residual_tol=1e-8, weight_tol=1e-8) -> _CovInner:
    """Stage one of ``solve_sc_cov_inner``: check ``v`` against the ``d``
    rows, then solve the inner weighted problem over the simplex."""
    n_cov = d.shape[0]
    if v.shape[0] != n_cov:
        raise ConfigurationError("diagonal weight length does not match covariate rows")
    if np.any(v < 0):
        raise ConfigurationError("diagonal weights must be nonnegative")
    if float(np.max(v, initial=0.0)) <= 0.0:
        raise ConfigurationError("diagonal weights must not all be zero")

    w_tol = _scaled_tol(weight_tol, v)
    r_tol = _scaled_tol(residual_tol, z)
    weighted = [i for i in range(n_cov) if v[i] > w_tol]
    # all-zero rows with zero targets are vacuous: they cannot constrain b,
    # so they are excluded from the recorded sets as well
    e_rows = tuple(i for i in weighted if np.max(np.abs(d[i])) > 1e-12 or abs(z[i]) > 1e-12)
    inner_beta = None
    exact_rows: tuple[int, ...] = ()
    if e_rows:
        rows = list(e_rows)
        sqrt_v = np.sqrt(v[rows])
        inner_beta = simplex_ls(sqrt_v * z[rows], sqrt_v[:, None] * d[rows], kkt_tol=kkt_tol).beta
        inner_res = d[rows] @ inner_beta - z[rows]
        exact_rows = tuple(row for row, r in zip(e_rows, inner_res) if abs(r) <= r_tol)
    return _CovInner(z, d, v, e_rows, exact_rows, inner_beta, r_tol, donor_sq_distances(y, x))


def _cov_outer(y, x, inner: _CovInner, lam: float, start, kkt_tol: float = KKT_TOL) -> ScFit:
    """Stage two of ``solve_sc_cov_inner``: the outer loss over the inner
    solution set, warm-started from ``start`` unless it is None.

    ``start`` is a feasible weight vector, such as the fit at a neighbouring
    ``lam`` with the same equality rows.  As in ``_solve_penalized`` it
    never changes the answer: the warm fit is kept only where
    ``_is_unique_optimum`` holds, which pins the optimum with the equality
    rows as without them; otherwise the point is solved again from the
    inner solution.  The reduction to the plain estimator is always solved
    from the cold start vertex.
    """
    lin = 0.5 * lam * inner.sq_dist if lam > 0 else None

    def _fit(eq_rows: tuple[int, ...], start_beta, degenerate: bool = False) -> ScFit:
        rows = list(eq_rows)
        res = simplex_ls(y, x, lin=lin, eq_mat=inner.d[rows], eq_rhs=inner.z[rows],
                         start=start_beta, kkt_tol=kkt_tol)
        fit = _build_fit(COVARIATE, y, x, res, lam=float(lam), v=inner.v, sq_dist=inner.sq_dist,
                         cov_eq_rows=eq_rows, degenerate=degenerate)
        cov_res = inner.d @ fit.beta - inner.z
        m_rows = tuple(i for i in range(cov_res.shape[0]) if abs(cov_res[i]) > inner.r_tol)
        return replace(fit, sets=ActiveSets(a=fit.sets.a, m=m_rows, e=inner.e_rows),
                       cov_residuals=cov_res)

    rows = inner.exact_rows
    cold_start = inner.inner_beta if rows else None
    fit = _fit(rows, cold_start if start is None else start)
    if start is not None and not _is_unique_optimum(fit, x.T @ y if lin is None else x.T @ y - lin):
        fit = _fit(rows, cold_start)
    if rows and len(fit.sets.m_and_e) >= fit.n_active - 1:
        # with this many unfit weighted rows the equality rows carry no
        # force; drop them, re-solve once, and flag the switch
        fit = _fit((), None, degenerate=True)
    return fit


def default_v_grid(n_cov: int, lattice_step: float = 0.25) -> list[np.ndarray]:
    """Trace-one diagonal weight candidates: vertices, barycenter and a
    lattice of the given step on the simplex of diagonals (the lattice is
    skipped above eight covariate rows, where it would explode)."""
    if n_cov <= 0:
        raise ConfigurationError("need at least one covariate row for a V grid")
    grid: list[np.ndarray] = []
    seen: set[tuple[float, ...]] = set()

    def _push(vec: np.ndarray):
        key = tuple(np.round(vec, 12))
        if key not in seen:
            seen.add(key)
            grid.append(vec)

    for i in range(n_cov):
        vec = np.zeros(n_cov)
        vec[i] = 1.0
        _push(vec)
    _push(np.full(n_cov, 1.0 / n_cov))
    steps = int(round(1.0 / lattice_step))

    def _compositions(total: int, parts: int):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for tail in _compositions(total - head, parts - 1):
                yield (head,) + tail

    if n_cov <= 8:
        for comp in _compositions(steps, n_cov):
            _push(np.asarray(comp, dtype=float) / steps)
    return grid


def solve_sc_cov(
    y: np.ndarray,
    x: np.ndarray,
    z: np.ndarray,
    d: np.ndarray,
    v_grid,
    *,
    criterion=None,
    lam: float = 0.0,
    kkt_tol: float = KKT_TOL,
) -> ScFit:
    """Search the diagonal weighting over a grid, keeping the fit that
    minimizes the caller's criterion (outer residual sum of squares by
    default).  Ties go to the lexicographically smallest weighting."""
    candidates = [np.asarray(v, dtype=float).ravel() for v in v_grid]
    if not candidates:
        raise ConfigurationError("empty V grid")
    if criterion is None:
        criterion = lambda fit: fit.rss
    best = None
    best_key = None
    for v in candidates:
        fit = solve_sc_cov_inner(y, x, z, d, v, lam=lam, kkt_tol=kkt_tol)
        key = (float(criterion(fit)), tuple(v))
        if best_key is None or key < best_key:
            best, best_key = fit, key
    return best


# ---------------------------------------------------------------------------
# active sets
# ---------------------------------------------------------------------------


def active_sets(
    fit: ScFit,
    *,
    active_tol: float | None = None,
    residual_tol: float = 1e-8,
    weight_tol: float = 1e-8,
) -> ActiveSets:
    """Threshold the stored weight, inner-residual and diagonal vectors into
    index sets.  The canonical choice among equivalent optima is made at
    solve time (vanishing-penalty re-solve), so re-thresholding here is
    deterministic."""
    tol = active_tol if active_tol is not None else fit.weights.active_tol
    a = tuple(int(i) for i in np.flatnonzero(fit.beta > tol))
    m: tuple[int, ...] = ()
    e: tuple[int, ...] = ()
    if fit.cov_residuals is not None:
        r_tol = _scaled_tol(residual_tol, fit.cov_residuals)
        m = tuple(int(i) for i in np.flatnonzero(np.abs(fit.cov_residuals) > r_tol))
    if fit.v is not None and np.size(fit.v):
        w_tol = _scaled_tol(weight_tol, fit.v)
        e = tuple(int(i) for i in np.flatnonzero(fit.v > w_tol))
    return ActiveSets(a=a, m=m, e=e)
