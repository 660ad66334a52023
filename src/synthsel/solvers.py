"""Simplex-constrained least-squares solvers for synthetic control estimators.

Every estimator here reduces to one quadratic program

    minimize    0.5 * ||y - S b||^2 + c'b
    subject to  1'b = s,  (optional extra equality rows)  E b = f,   b >= 0,

solved by a primal active-set method: the sum constraint (and any extra
equality rows) stay in the working set throughout, and each working-set
subproblem is the equality-constrained least-squares problem on the free
columns, solved by the null-space method from one pivoted QR of the free
design (never its Gram matrix).  This terminates finitely and returns
exact multipliers, which we expose as a KKT certificate on every fit.
The certificate also records the face the solve ended on, read off the
factorization that certified it: its dimension, which the degrees of
freedom count (see ``dof``), and whether it pins the optimum, which
decides where a warm start is kept.  What a path of solves on one design
shares is formed once for it: X'X, X'y, the rank cut and the
factorization of the face the last solve ended on, which does not depend
on the penalty, so a warm solve at the next penalty that starts on that
face does not factor it again.

Multiplier convention for the nonnegativity constraints: stationarity is
``grad + A' xi + mu = 0`` with ``mu <= 0`` at an optimum.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import itertools
import os
import sys
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, ConvergenceError

_FLAPACK = "scipy.linalg._flapack"


def _load_flapack():
    """scipy's compiled LAPACK module, loaded from its file in scipy's
    directory without running the ``scipy`` or ``scipy.linalg`` package
    imports; ImportError when it is not there or does not load."""
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None or not scipy_spec.submodule_search_locations:
        raise ImportError("scipy is not installed as a package directory")
    dirs = [os.path.join(d, "linalg") for d in scipy_spec.submodule_search_locations]
    spec = importlib.machinery.PathFinder.find_spec(_FLAPACK, dirs)
    if spec is None:
        raise ImportError(f"{_FLAPACK} not found under {dirs}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # the extension enters itself in sys.modules; left there, a later
    # ``import scipy.linalg`` finds it and never sets ``scipy.linalg._flapack``
    sys.modules.pop(_FLAPACK, None)
    return module


def _lapack_kernels():
    """LAPACK ``dgeqp3``, ``dormqr`` and ``dtrtrs``: the routines
    ``scipy.linalg.lapack`` exports, without that package's import (about
    0.3 s and 25 MB per process, mostly numpy submodules nothing here uses).
    A module scipy has loaded already is reused; the package import is the
    fallback when the compiled module cannot be loaded on its own."""
    flapack = sys.modules.get(_FLAPACK)
    if flapack is None:
        try:
            flapack = _load_flapack()
        except ImportError:
            from scipy.linalg import lapack as flapack
    return flapack.dgeqp3, flapack.dormqr, flapack.dtrtrs


_geqp3, _ormqr, _trtrs = _lapack_kernels()

KKT_TOL = 1e-8
#: the package's rank cut, relative to the largest diagonal entry of R
_RANK_TOL = 1e-10
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


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------


def _absmax(v: np.ndarray) -> float:
    """``max |v|`` over every entry, 0.0 when ``v`` is empty; NaN propagates.
    Equal to ``np.max(np.abs(v), initial=0.0)`` at a fraction of its call
    cost, which the working-set engine pays several times per iteration."""
    return float(abs(v).max()) if v.size else 0.0


def default_active_tol(beta: np.ndarray) -> float:
    """Relative threshold for active-set membership, 1e-8 * (1 + ||b||_inf)."""
    return 1e-8 * (1.0 + _absmax(beta))


def _active_set(beta: np.ndarray) -> tuple[int, ...]:
    """Indices of the entries of ``beta`` above ``default_active_tol``."""
    return tuple((beta > default_active_tol(beta)).nonzero()[0].tolist())


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
    """A solution ``beta`` of the engine and its first-order certificate.

    ``mu`` are the nonnegativity multipliers (``<= 0`` at an optimum),
    ``eq_multipliers`` the equality multipliers with the sum-to-one row
    first.  ``degenerate`` flags a covariate fit solved again without its
    equality rows, which exert no force (``_covariate_rows_idle``).

    ``face_dim`` is the dimension of the solution's face (see ``dof``): the
    rank of ``X_A N`` at the engine's rank cut, ``A`` the ``support`` of
    ``beta`` (its entries above ``default_active_tol``) and ``N`` a basis,
    of ``face_cols`` columns, of the null space of the equality rows on
    ``A``.  ``unique`` is a sufficient condition for a unique minimizer:
    ``X_A N`` has full column rank and every multiplier off ``A`` is
    strictly negative (beyond the release tolerance), so no optimal
    direction leaves the face and none moves within it.  It is False for
    a degenerate fit.  A certificate that is not the engine's (a matching
    fit's) holds an empty face, ``(0, 0)``.
    """

    beta: np.ndarray
    stationarity_residual: float
    complementarity_gap: float
    eq_multipliers: np.ndarray
    mu: np.ndarray
    iterations: int = 0
    degenerate: bool = False
    face_dim: int = 0
    face_cols: int = 0
    unique: bool = False
    support: tuple[int, ...] = ()

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
    component is locally constant in ``y``.  The certificate ``kkt``
    records the fit's face, on the sum row and the equality rows
    ``cov_eq_rows``.
    """

    kind: str
    beta: np.ndarray
    fitted: np.ndarray
    residuals: np.ndarray
    sets: ActiveSets
    kkt: KktCertificate
    donor_sq_distances: np.ndarray
    lam: float = 0.0
    m: int | None = None
    v: np.ndarray | None = None
    cov_eq_rows: tuple[int, ...] = ()

    @property
    def active_tol(self) -> float:
        """The threshold that defines the support of ``beta``."""
        return default_active_tol(self.beta)

    @property
    def weights(self) -> ScFit:
        """The fit itself, so ``fit.weights.beta`` and
        ``fit.weights.active_tol`` read ``beta`` and ``active_tol`` (the
        benchmark harness in ``perfbench/`` reads the latter)."""
        return self

    @property
    def rss(self) -> float:
        return float(self.residuals @ self.residuals)

    @property
    def n_active(self) -> int:
        return len(self.sets.a)


# ---------------------------------------------------------------------------
# equality-constrained least squares (the working-set subproblem)
# ---------------------------------------------------------------------------


def _face_factor(x_f, y, a_f, rhs, cut):
    """The face problem ``min 0.5||y - X_F b||^2 + c'b`` subject to ``A_F b
    = rhs``, as far as it does not read ``c``.  It is solved by the
    null-space method of Lawson & Hanson (ch. 20-22): ``b = pinv rhs + N w``,
    ``(N, pinv)`` from ``_null_basis``, and ``w`` from one pivoted QR of
    ``X_F N``, cut at its rank, the count of R's diagonal entries above
    ``cut``.  Returns ``(N, pinv, b0, R11, R12, Q'(y - X_F b0))``, ``b0 =
    pinv rhs`` and ``N`` in the QR's pivot order.  Read-only, so that a path
    can finish it again at another ``c`` (see ``simplex_ls``)."""
    null, pinv = _null_basis(a_f.tobytes(), a_f.shape)
    b0 = pinv @ rhs
    b0.flags.writeable = False
    cols = null.shape[1]
    if not cols:
        return null, pinv, b0, None, None, None
    qr, piv, tau = _pivoted_qr(x_f @ null)
    null = null.take(piv - 1, 1)
    rank = _cut_rank(qr, cut)
    qr_y = _ormqr("L", "T", qr[:, : tau.shape[0]], tau, y - x_f @ b0, 1)[0][:rank]
    null.flags.writeable = qr.flags.writeable = qr_y.flags.writeable = False
    return null, pinv, b0, qr[:rank, :rank], qr[:rank, rank:], qr_y


def _face_finish(factor, lin_f):
    """The outcome ``(b, pinv, ray)`` of a face's ``_face_factor`` at ``c =
    lin_f`` (None for zero).  Full rank gives the range solve; rank
    deficient, a null vector of R along which ``c`` slopes by more than the
    package's rank cut of ``|N'c|`` is the unit descent ``ray`` (``b``,
    ``pinv`` None), and else the basic solution (null coordinates zero) is
    the face's stationary point.  The face's equality multipliers are
    ``-pinv' grad_F``."""
    null, pinv, b0, r11, r12, qr_y = factor
    if r11 is None:
        return b0, pinv, None
    rank, cols = r11.shape[0], null.shape[1]
    if lin_f is not None:
        c_null = lin_f @ null
        t = _tri_solve(r11, c_null[:rank], trans=1)
        qr_y = qr_y - t
        if rank < cols:
            z_top = -_tri_solve(r11, r12)
            slopes = (c_null[rank:] - r12.T @ t) / np.sqrt(1.0 + (z_top * z_top).sum(0))
            j = int(abs(slopes).argmax())
            if abs(slopes[j]) > _RANK_TOL * _absmax(c_null):
                ray = null[:, :rank] @ z_top[:, j] + null[:, rank + j]
                return None, None, ray * (-np.sign(slopes[j]) / np.sqrt(ray @ ray))
    return b0 + null[:, :rank] @ _tri_solve(r11, qr_y), pinv, None


def _pivoted_qr(mat):
    """LAPACK ``geqp3`` of ``mat``: ``(qr, piv, tau)``, ``piv`` 1-based."""
    qr, piv, tau, _, info = _geqp3(mat, lwork=_geqp3_lwork(mat.shape))
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK geqp3")
    return qr, piv, tau


def _cut_rank(qr, cut) -> int:
    """The count of R's diagonal entries above ``cut``; a column-pivoted R
    has a falling diagonal, so its last entry tells when it is above."""
    cols = qr.shape[1]
    if qr.shape[0] >= cols and abs(qr[cols - 1, cols - 1]) > cut:
        return cols
    return np.count_nonzero(abs(qr.diagonal()) > cut)


def _face_qr(x_a, e_a, cut):
    """``(rank, cols, qr, tau)``: the pivoted QR of ``X_A N``, ``N`` the
    ``_null_basis`` of ``e_a`` with ``cols`` columns, and its rank at
    ``cut``; ``(0, 0, None, None)`` when ``N`` is empty."""
    null = _null_basis(e_a.tobytes(), e_a.shape)[0]
    if not null.shape[1]:
        return 0, 0, None, None
    qr, _, tau = _pivoted_qr(x_a @ null)
    return _cut_rank(qr, cut), null.shape[1], qr, tau


def _tri_solve(r, rhs, trans=0):
    """``r^-1 rhs`` (``r'^-1 rhs`` with ``trans=1``), ``r`` upper triangular."""
    return _trtrs(r, rhs, trans=trans)[0] if r.size else rhs


@functools.lru_cache(maxsize=256)
def _null_basis(data: bytes, shape: tuple[int, int]):
    """``(null, pinv)`` of the matrix ``A`` of ``shape`` whose bytes are
    ``data``: an orthonormal basis of the null space of the rows kept, and
    their pseudo-inverse in the kept columns of ``pinv`` (zero in the
    others).  The first row, which must be nonzero, is kept (its Householder
    reflector gives its basis); a later one unless its part in the null
    space of the rows before falls below the package's rank cut of the
    largest row norm, by a pivoted QR.  Memoized, as the same rows recur on
    the faces of every path (the sum row alone on each face of ``k``
    donors); a path keeps only its current face's whole factorization
    (``simplex_ls``).  The arrays are read-only."""
    h, k = shape
    a_mat = np.frombuffer(data).reshape(shape)
    null, pinv = np.eye(k), np.zeros((k, h))
    if h == 1:
        norm = np.copysign(np.sqrt(a_mat[0] @ a_mat[0]), a_mat[0, 0])
        u = a_mat[0].copy()
        u[0] += norm
        null -= np.outer(u / (norm * u[0]), u)
        null, pinv = null[:, 1:], null[:, :1] / -norm
    elif h > 1:
        null, first = _null_basis(a_mat[0].tobytes(), (1, k))
        pinv[:, :1] = first
        if k > 1:
            qr, piv, tau = _pivoted_qr(null.T @ a_mat[1:].T)
            rank = _cut_rank(qr, _RANK_TOL * np.sqrt(np.einsum("ij,ij->i", a_mat, a_mat).max()))
            null = _ormqr("R", "N", qr[:, : tau.shape[0]], tau, null, k)[0]
            basis = np.column_stack([first / np.sqrt(first[:, 0] @ first[:, 0]), null[:, :rank]])
            kept = [0, *piv[:rank].tolist()]
            # A[kept]' = basis @ tri, tri upper triangular but for rounding
            # below its diagonal, which the triangular solve does not read
            pinv[:, kept] = _trtrs(basis.T @ a_mat[kept].T, basis.T)[0].T
            null = null[:, rank:]
    null.flags.writeable = pinv.flags.writeable = False
    return null, pinv


def eq_constrained_hat(design: np.ndarray, eq_mat: np.ndarray, cut: float | None = None) -> np.ndarray:
    """Hat matrix of equality-constrained least squares: the orthogonal
    projection ``Q_r Q_r'`` onto the range of ``X N``, where the columns of
    ``N`` span ``null(E)`` (``_null_basis``, which drops dependent rows) and
    ``Q_r`` holds the first ``r`` columns of ``Q`` from the pivoted QR of
    ``X N`` (``_face_qr``), ``r`` its rank at ``cut`` (by default the
    engine's for the design ``X``).  Its trace is ``r``, the dimension of
    the face, to rounding; a zero rank leaves an exactly zero matrix.
    """
    x = np.asarray(design, dtype=float)
    n = x.shape[0]
    rank, _, qr, tau = _face_qr(x, np.asarray(eq_mat, dtype=float), _rank_cut(x) if cut is None else cut)
    if not rank:
        return np.zeros((n, n))
    q = _ormqr("L", "N", qr[:, : tau.shape[0]], tau, np.eye(n, rank), rank)[0]
    return q @ q.T


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
    _normal: _NormalEquations | None = None,
) -> KktCertificate:
    """Minimize ``0.5||target - design @ b||^2 + lin'b`` over the scaled
    simplex ``{b >= 0, sum(b) = sum_to}`` intersected with optional extra
    equality rows; returns the minimizer with its certificate.  An argument
    of the wrong shape raises ``ValueError``, one with a non-finite entry
    ``ConfigurationError`` naming it.

    Deterministic: the start vertex, release rule (largest violating
    multiplier, lowest index on ties) and blocking rule (smallest step,
    lowest index on ties) are all tie-broken by index.  When extra equality
    rows are present a ``start`` must be supplied.  A ``start`` must be
    finite, of length ``p``, nonnegative and sum to ``sum_to``, up to
    ``1e-8 * (1 + sum|b| + |sum_to|)``; otherwise ``ConfigurationError`` is
    raised.  It need not meet the extra rows: the first working-set solve
    lands on them, and a caller such as the covariate estimator can only
    fit them to a tolerance scaled by data the engine does not see.

    ``_normal`` is internal to the package: ``_normal_equations(target,
    design)`` when the caller already holds it, as a path of solves on one
    design does (see ``_fit_grid``); the result is the same either way.
    It keeps the ``_face_factor`` of the face the last solve ended on, which
    does not depend on ``lin``, for the next solve to finish again.

    The certificate's face is read off that factor: its rank and null-space
    columns.  When a free donor ends at zero weight, the face of the
    support is ranked on its own (``_face_qr``), unless the free face has
    no null columns, in which case neither has.
    """
    y, x = _data(target, design)
    p = x.shape[1]
    if _normal is None:
        _check_args(p, lin, sum_to, eq_mat, eq_rhs)
    normal = _normal_equations(y, x) if _normal is None else _normal
    gram, g0 = normal.gram, normal.xty
    if lin is not None:
        lin = np.asarray(lin, dtype=float).ravel()
        g0, lin = g0 - lin, lin if lin.any() else None

    a_mat, rhs, rows_key = normal.sum_row
    if eq_mat is not None and np.size(eq_mat):
        a_mat = np.vstack([a_mat, np.atleast_2d(np.asarray(eq_mat, dtype=float))])
        rhs = np.concatenate([[float(sum_to)], np.asarray(eq_rhs, dtype=float).ravel()])
        rows_key = (a_mat.tobytes(), rhs.tobytes())
    elif sum_to != 1.0:
        rhs = np.array([float(sum_to)])
        rows_key = (rows_key[0], rhs.tobytes())

    if start is None:
        if a_mat.shape[0] > 1:
            raise ConfigurationError(
                "a feasible start is required when extra equality rows are given"
            )
        vertex_obj = 0.5 * sum_to**2 * gram.diagonal() - sum_to * g0
        j0 = int(vertex_obj.argmin())
        beta = np.zeros(p)
        beta[j0] = sum_to
    else:
        beta = np.maximum(_feasible_start(start, p, float(sum_to)), 0.0)
    free = beta > 0.0
    if not free.any():
        free[0] = True

    max_iter = max(200, 30 * p)
    scale = 1.0 + _absmax(g0)
    release_tol = min(KKT_TOL, _RELEASE_TOL * scale)

    def _objective(b: np.ndarray) -> float:
        return float(0.5 * b @ (gram @ b) - g0 @ b)

    xi = np.zeros(a_mat.shape[0])
    start_beta = beta
    best_obj = None  # the start's objective, formed when the stall test first reads it
    stalled = 0
    bland = False
    for iteration in range(1, max_iter + 1):
        f_idx = free.nonzero()[0]
        key = (f_idx.tobytes(), rows_key)
        if normal.face[0] != key:
            factor = _face_factor(x.take(f_idx, 1), y, a_mat.take(f_idx, 1), rhs, normal.cut)
            normal.face = (key, factor)
        lin_f = None if lin is None else lin.take(f_idx)
        cand_f, pinv, ray = _face_finish(normal.face[1], lin_f)
        if ray is not None:
            # no stationary point on the face: descend along the ray until a
            # bound blocks.  The unit ray sums to zero (the sum row is always
            # kept), so some entry falls by at least k^-1.5
            direction = np.zeros(p)
            direction[f_idx] = ray
            falling = (free & (direction < -1e-14)).nonzero()[0]
            beta, blocking = _step_to_bound(beta, direction, falling)
            free[blocking] = False
            continue
        cand = np.zeros(p)
        cand[f_idx] = cand_f
        feas_tol = _FEAS_TOL * max(1.0, _absmax(cand_f))
        if cand_f.min() >= -feas_tol:
            # cand is zero off the free set, so this zeroes the bound entries
            beta = np.maximum(cand, 0.0)
            grad = gram @ beta - g0
            xi = pinv.T @ -grad.take(f_idx)
            resid = grad + a_mat.T @ xi
            mu = -resid
            mu[free] = 0.0
            # mu is zero on the (nonempty) free set, so its max is >= 0
            if mu.max() <= release_tol:
                support = _active_set(beta)
                null, r11 = normal.face[1][0], normal.face[1][3]
                face = (0 if r11 is None else r11.shape[0], null.shape[1])
                if face[1] and len(support) < f_idx.size:
                    e_a = a_mat.take(support, 1)
                    face = _face_qr(x.take(support, 1), e_a, normal.cut)[:2] if support else (0, 0)
                # mu is exactly zero on the free set, which holds the support
                pinned = np.count_nonzero(mu < -_RELEASE_TOL * scale) == p - len(support)
                return KktCertificate(
                    beta=beta,
                    # resid + mu: resid on the free set, exactly zero off it
                    stationarity_residual=_absmax(resid.take(f_idx)),
                    complementarity_gap=_absmax(mu * beta),
                    eq_multipliers=xi,
                    mu=mu,
                    iterations=iteration,
                    face_dim=face[0],
                    face_cols=face[1],
                    unique=bool(face[0] == face[1] and pinned),
                    support=support,
                )
            obj = _objective(beta)
            if best_obj is None:
                best_obj = _objective(start_beta)
            if obj < best_obj - 1e-14 * (1.0 + abs(best_obj)):
                best_obj = obj
                stalled = 0
            else:
                stalled += 1
                if stalled > p + 5:
                    bland = True
            if bland:
                release = int((mu > release_tol).nonzero()[0][0])
            else:
                release = int(mu.argmax())
            free[release] = True
        else:
            neg_idx = (free & (cand < 0.0)).nonzero()[0]
            beta, blocking = _step_to_bound(beta, cand - beta, neg_idx)
            free[blocking] = False

    # stationarity on the free set; the bound set's multipliers give the gap
    resid = gram @ beta - g0 + a_mat.T @ xi
    stat, comp = _absmax(resid[free]), _absmax(resid[~free] * beta[~free])
    raise ConvergenceError(f"active-set solver exceeded {max_iter} iterations", stat, comp)


def _step_to_bound(beta: np.ndarray, direction: np.ndarray, idx: np.ndarray):
    """Move ``beta`` along ``direction`` until the first entry among ``idx``
    (entries that fall along it) reaches zero, lowest index on ties; that
    entry is set to zero and rounding below zero is clipped.  Returns the
    new point and the blocking entry."""
    steps = beta[idx] / -direction[idx]
    k = int(steps.argmin())
    blocking = int(idx[k])
    beta = beta + float(max(steps[k], 0.0)) * direction
    beta[blocking] = 0.0
    beta[beta < 0.0] = 0.0
    return beta, blocking


class _NormalEquations:
    """What ``simplex_ls`` keeps of its target ``y`` and design ``x`` across
    the solves of a path: ``gram = x'x``, ``xty = x'y``, the rank cut ``cut``
    of the faces (the package's rank cut of the design's largest column
    norm, R's largest entry), the sum row ``1'b = 1`` as ``(row, right
    side, their face key)`` in ``sum_row``, read-only, and, in ``face``,
    the ``(key, factor)`` of the last face solved, ``key`` being its free
    indices and equality rows."""

    __slots__ = ("gram", "xty", "cut", "sum_row", "face")

    def __init__(self, gram: np.ndarray, xty: np.ndarray | None):
        self.gram, self.xty = gram, xty
        self.cut = _RANK_TOL * np.sqrt(gram.diagonal().max())
        ones, rhs = np.ones((1, gram.shape[0])), np.ones(1)
        ones.flags.writeable = rhs.flags.writeable = False
        self.sum_row = (ones, rhs, (ones.tobytes(), rhs.tobytes()))
        self.face = (None, None)


def _data(y, x) -> tuple[np.ndarray, np.ndarray]:
    """The outcome ``y`` as a float vector and the donors ``x`` as a float
    matrix; ``ValueError`` unless ``y`` has one entry per row of ``x``."""
    y, x = np.asarray(y, dtype=float).ravel(), np.atleast_2d(np.asarray(x, dtype=float))
    if y.shape[0] != x.shape[0]:
        raise ValueError(f"target length {y.shape[0]} does not match the {x.shape[0]} design rows")
    return y, x


def _check_args(p: int, lin, sum_to, eq_mat, eq_rhs) -> None:
    """``simplex_ls``'s arguments besides its data and start, on ``p`` donors:
    ``ValueError`` at a wrong shape, ``ConfigurationError`` at a non-finite entry."""
    lin = np.zeros(p) if lin is None else np.asarray(lin, dtype=float).ravel()
    if lin.shape[0] != p:
        raise ValueError(f"lin has length {lin.shape[0]}, expected {p}")
    rows = eq_mat is not None and np.size(eq_mat)
    eq_mat = np.atleast_2d(np.asarray(eq_mat, dtype=float)) if rows else np.zeros((0, p))
    eq_rhs = np.asarray(eq_rhs if rows and eq_rhs is not None else (), dtype=float).ravel()
    if eq_mat.shape != (eq_rhs.shape[0], p):
        raise ValueError(f"eq_mat shape {eq_mat.shape} does not match "
                         f"{eq_rhs.shape[0]} eq_rhs entries and {p} donors")
    for name, a in [("sum_to", np.asarray(sum_to, dtype=float)), ("lin", lin),
                    ("eq_mat", eq_mat), ("eq_rhs", eq_rhs)]:
        _check_finite(name, a)


def _rank_cut(x: np.ndarray) -> float:
    """The rank cut ``simplex_ls`` takes for its faces on the design ``x``."""
    return _NormalEquations(x.T @ x, None).cut


def _normal_equations(y: np.ndarray, x: np.ndarray) -> _NormalEquations:
    """The ``_NormalEquations`` of ``(y, x)``, which ``simplex_ls`` forms
    from its target and design.  ``ConfigurationError`` names the first NaN
    or infinite entry of either, so a path of solves on one design checks
    its data once."""
    if not (np.isfinite(y).all() and np.isfinite(x).all()):
        _check_finite("target", y)
        _check_finite("design", x)
    return _NormalEquations(x.T @ x, x.T @ y)


def _check_finite(name: str, a: np.ndarray) -> None:
    """``ConfigurationError`` at the first non-finite entry of ``a``, named
    by its 0-based row (and column) unless ``a`` is a scalar."""
    bad = np.argwhere(~np.isfinite(a))
    if len(bad):
        at = tuple(int(i) for i in bad[0])
        where = ", ".join(f"{axis} {i}" for axis, i in zip(("row", "column"), at))
        raise ConfigurationError(f"{name} has a non-finite entry {a[at]}" + (f" at {where}" if at else ""))


def _feasible_start(start, p: int, sum_to: float) -> np.ndarray:
    """The start as a float vector, or ``ConfigurationError`` unless it lies
    on the scaled simplex up to ``_START_TOL`` of its magnitude."""
    beta = np.asarray(start, dtype=float).ravel()
    if beta.shape[0] != p:
        raise ConfigurationError(f"start has length {beta.shape[0]}, expected {p}")
    low, total = float(beta.min()), float(beta.sum())
    # with no negative entry and a finite sum, every entry is finite and the sum is sum|b|
    if not (low >= 0.0 and abs(total) < np.inf) and not np.isfinite(beta).all():
        raise ConfigurationError("start has a non-finite entry")
    tol = _START_TOL * (1.0 + (total if low >= 0.0 else float(abs(beta).sum())) + abs(sum_to))
    if low < -tol:
        raise ConfigurationError(f"start has a negative entry {low:.3g}")
    if abs(total - sum_to) > tol:
        raise ConfigurationError(f"start sums to {total:.12g}, expected {sum_to:.12g}")
    return beta


# ---------------------------------------------------------------------------
# rank with the package-wide tolerance
# ---------------------------------------------------------------------------


def _qr_rank(mat: np.ndarray) -> tuple[int, np.ndarray]:
    """Rank via column-pivoted QR, relative tolerance 1e-10 of the largest
    diagonal element, and the column pivots (0-based, the first ``rank`` of
    them the retained columns).

    ``_pivoted_qr`` takes the workspace ``scipy.linalg.qr(mat, mode="r",
    pivoting=True)`` queries, so R and the pivots are scipy's, without the
    wrapper's argument handling, which costs more at these sizes."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if min(mat.shape) == 0:
        return 0, np.arange(mat.shape[1])
    r, piv, _ = _pivoted_qr(mat)
    return int(_cut_rank(r, _RANK_TOL * abs(r[0, 0]))), piv - 1


@functools.lru_cache(maxsize=1024)
def _geqp3_lwork(shape: tuple[int, int]) -> int:
    """``geqp3``'s optimal workspace for a matrix of ``shape``, which
    LAPACK's workspace query computes from the shape alone."""
    return int(_geqp3(np.zeros(shape), lwork=-1)[3][0])


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
    cert: KktCertificate,
    *,
    sq_dist: np.ndarray | None = None,
    m_rows: tuple[int, ...] = (),
    e_rows: tuple[int, ...] = (),
    cov_eq_rows: tuple[int, ...] = (),
    degenerate: bool = False,
    **fields,
) -> ScFit:
    """The fit of engine solution ``cert``, its certificate flagged
    ``degenerate`` (and so not ``unique``) when the covariate rows were
    dropped as idle; ``m_rows`` and ``e_rows`` are its covariate sets (see
    ``ActiveSets``), ``cov_eq_rows`` its equality rows, and ``fields`` go to
    the fit."""
    beta = cert.beta
    fitted = x @ beta
    return ScFit(
        kind=kind,
        beta=beta,
        fitted=fitted,
        residuals=y - fitted,
        sets=ActiveSets(a=cert.support, m=m_rows, e=e_rows),
        kkt=replace(cert, degenerate=True, unique=False) if degenerate else cert,
        cov_eq_rows=cov_eq_rows,
        donor_sq_distances=sq_dist if sq_dist is not None else donor_sq_distances(y, x),
        **fields,
    )


def _face_rows(a: tuple[int, ...], rows: tuple[int, ...], d: np.ndarray | None) -> np.ndarray:
    """``E_A``: the sum row and the rows ``rows`` of ``d`` on the donors ``a``."""
    return np.vstack([np.ones((1, len(a))), d[np.ix_(rows, a)]]) if rows else np.ones((1, len(a)))


def solve_sc(y: np.ndarray, x: np.ndarray) -> ScFit:
    """Plain synthetic control: least squares over the probability simplex.

    When the optimum is not unique (duplicate or collinear active donors,
    or more active donors than periods), the fit is the one the
    deterministic engine returns; its fitted values do not depend on which.
    """
    return _fit_grid(y, x, PLAIN, [TuningPoint(0.0)])[0]


def solve_penalized_sc(y: np.ndarray, x: np.ndarray, lam: float) -> ScFit:
    """Penalized synthetic control: adds ``lam * sum_i b_i ||y - x_i||^2``.

    The penalty is linear in ``b``, so the same engine runs with a shifted
    linear coefficient; ``lam = 0`` coincides with the plain estimator.
    This is the covariate estimator's outer solve with no covariate rows.
    """
    return _fit_grid(y, x, PENALIZED, [TuningPoint(lam)])[0]


@dataclass(frozen=True)
class _CovInner:
    """What the outer solve needs of the covariate rows at one diagonal
    weighting ``v``, none of it dependent on ``lam``: the informative
    weighted rows ``e_rows``, the rows the inner solution fits exactly
    (``exact_rows``, the outer equality rows), the cold start of the outer
    solve (that inner solution when ``exact_rows`` is not empty, else None),
    the inner residual tolerance and the donor distances of the penalty.
    The penalized estimator's has no rows (``_no_cov_rows``)."""

    z: np.ndarray
    d: np.ndarray
    v: np.ndarray | None
    e_rows: tuple[int, ...]
    exact_rows: tuple[int, ...]
    cold_start: np.ndarray | None
    r_tol: float
    sq_dist: np.ndarray


def _no_cov_rows(y: np.ndarray, x: np.ndarray) -> _CovInner:
    """The ``_CovInner`` of a fit without covariate rows and weighting."""
    return _CovInner(np.zeros(0), np.zeros((0, x.shape[1])), None, (), (), None, 0.0,
                     donor_sq_distances(y, x))


def _outer_solve(
    kind: str,
    y: np.ndarray,
    x: np.ndarray,
    inner: _CovInner,
    lam: float,
    prev: ScFit | None,
    *,
    normal: _NormalEquations,
) -> ScFit:
    """The outer solve of the penalized and covariate estimators:
    ``0.5||y - X b||^2 + 0.5 lam q'b`` over the simplex, ``q`` being
    ``inner.sq_dist``, with the exactly-fit covariate rows
    ``inner.exact_rows`` as equality rows (a penalized fit has none), on
    ``normal``, the ``_normal_equations(y, x)`` that its one caller,
    ``_fit_grid``, forms once for a whole grid.

    ``prev`` is a fit of the same ``x`` solved before, or None:
    ``_fit_grid`` passes the fit at the neighbouring ``lam`` on its path
    and, to a path's first solve, the fit of a nearby outcome it was given
    (``df --fd-check`` passes the checked fit).  The solve starts from
    ``prev.kkt.beta`` (of a model-averaged fit, its synthetic-control
    component) when ``prev`` has the same equality rows and from
    ``inner.cold_start`` otherwise (None: the engine's start vertex).
    A warm start never changes the answer: the warm fit is kept only where
    its certificate is ``unique``, which pins the optimum with equality
    rows as without them, so it equals the cold fit; otherwise the point is
    solved again from the cold start.  If the weighted rows left unfit are
    at least as numerous as the active donors minus one, the equality rows
    exert no force and the fit reduces to the plain estimator on its active
    set: the rows are dropped, the point is solved again from the start
    vertex, and the switch is flagged as degenerate.
    """
    lin = 0.5 * lam * inner.sq_dist

    def _fit(eq_rows: tuple[int, ...], start, degenerate=False) -> ScFit:
        rows = list(eq_rows)
        eq = {"eq_mat": inner.d[rows], "eq_rhs": inner.z[rows]} if rows else {}
        cert = simplex_ls(y, x, lin=lin, start=start, _normal=normal, **eq)
        cov_res = inner.d @ cert.beta - inner.z if inner.d.shape[0] else ()
        m_rows = tuple(i for i, r in enumerate(cov_res) if abs(r) > inner.r_tol)
        return _build_fit(kind, y, x, cert, sq_dist=inner.sq_dist, m_rows=m_rows,
                          e_rows=inner.e_rows, cov_eq_rows=eq_rows, degenerate=degenerate,
                          lam=float(lam), v=inner.v)

    rows = inner.exact_rows
    warm = prev is not None and prev.cov_eq_rows == rows
    fit = _fit(rows, prev.kkt.beta if warm else inner.cold_start)
    if warm and not fit.kkt.unique:
        fit = _fit(rows, inner.cold_start)
    if rows and _covariate_rows_idle(fit):
        fit = _fit((), None, degenerate=True)
    return fit


@dataclass(frozen=True)
class TuningPoint:
    """One candidate: an averaging/penalty weight, optionally a matching
    count and/or a diagonal covariate weighting."""

    lam: float
    m: int | None = None
    v: tuple[float, ...] | None = None


def _fit_grid(y: np.ndarray, x: np.ndarray, kind: str, points, z=None, d=None,
              prev: ScFit | None = None) -> Sequence[ScFit]:
    """The fits of estimator ``kind`` at every ``TuningPoint`` of
    ``points``, in grid order, of ``y`` on ``x`` and, for the covariate
    kind, of the covariate target ``z`` on the rows ``d``: the package's one
    fit door, which every public estimator, selector, the race and the CLI
    go through.

    Every tuning value is checked, and every weighting of the covariate
    rows checked and its inner problem solved (``_cov_inner``), before any
    outer solve.  A penalized or covariate grid's penalties are grouped by
    weighting (a penalized grid's all in one group without rows); a plain
    or model-averaging grid is one group without rows at ``lam = 0``.  Each
    group is one path on ``X'X`` and ``X'y``, formed once for all: solved
    from the largest penalty down, each solve starting from the fit solved
    just before it and the first from ``prev``, a fit of the same kind and
    ``x`` to a nearby outcome, or None.  ``_outer_solve`` keeps a warm fit
    only where the optimum is unique, so every fit equals its cold solve.

    The outer problem sees a weighting only through its weighted rows and
    the rows its inner solution fits exactly, ``(inner.e_rows,
    inner.exact_rows)``: weightings that agree on both pose the same
    objective, equality rows, ``r_tol`` and ``sq_dist``, and differ only in
    their cold start.  So a weighting whose rows and penalties were solved
    before takes those fits, each with its own ``v``, when every one of them
    is ``unique`` (the optimum, which no start changes); otherwise it is
    solved as the first was.  A model-averaging grid is the plain fit's
    ``_MascGrid``, which averages it with each matching count's fit.
    """
    y, x = _data(y, x)
    outer = kind in (PENALIZED, COVARIATE)
    if not outer and kind not in (PLAIN, MASC):
        raise ConfigurationError(f"unknown estimator kind {kind!r}")
    runs: dict = {}  # grid indices by weighting, None for no covariate rows
    for i, pt in enumerate(points):
        if kind == MASC and not 0.0 <= pt.lam <= 1.0:
            raise ConfigurationError(f"averaging weight must lie in [0, 1], got {pt.lam}")
        if outer and not 0.0 <= pt.lam < np.inf:
            raise ConfigurationError(f"penalty parameter must be finite and >= 0, got {pt.lam}")
        runs.setdefault(pt.v, []).append(i)
    for m in dict.fromkeys(pt.m for pt in points) if kind == MASC else ():
        _matching_count(m, x.shape[1])
    problems = [(v, [points[i].lam for i in idx]) for v, idx in runs.items()] if outer else [(None, [0.0])]
    inners = [_no_cov_rows(y, x) if v is None else _cov_inner(y, x, z, d, v) for v, _ in problems]
    normal = _normal_equations(y, x)
    solved: dict = {}
    paths = []
    for inner, (_, lams) in zip(inners, problems):
        key = (inner.e_rows, inner.exact_rows, tuple(lams))
        if key in solved:
            paths.append([replace(fit, v=inner.v) for fit in solved[key]])
            continue
        path, fit = [None] * len(lams), prev
        for j in np.argsort(-np.asarray(lams, dtype=float), kind="stable"):
            fit = path[j] = _outer_solve(kind if outer else PLAIN, y, x, inner, float(lams[j]), fit,
                                         normal=normal)
        if all(fit.kkt.unique for fit in path):
            solved[key] = path
        paths.append(path)
    if outer:
        fits = {}
        for idx, path in zip(runs.values(), paths):
            fits.update(zip(idx, path))
        return [fits[i] for i in range(len(points))]
    [[fit_sc]] = paths
    return [fit_sc] * len(points) if kind == PLAIN else _MascGrid(y, x, fit_sc, points)


def matching_weights(y: np.ndarray, x: np.ndarray, m: int) -> np.ndarray:
    """Uniform weight 1/m on the m nearest donors (ties by lowest index).
    ``ConfigurationError`` names a bad ``m`` or non-finite ``y`` or ``x``."""
    y, x = _data(y, x)
    m = _matching_count(m, x.shape[1])
    _check_finite("target", y)
    _check_finite("design", x)
    return _nearest(np.argsort(donor_sq_distances(y, x), kind="stable"), m)


def _matching_count(m, p: int) -> int:
    """``m`` as an int; ``ConfigurationError`` unless it is integral in 1..p."""
    if m not in range(1, p + 1):
        raise ConfigurationError(f"matching count m={m} is not an integer in 1..{p}")
    return int(m)


def _nearest(order: np.ndarray, m: int) -> np.ndarray:
    """Uniform weight 1/m on the first m donors of ``order``."""
    return np.bincount(order[:m], minlength=order.shape[0]) / m


def solve_matching(y: np.ndarray, x: np.ndarray, m: int) -> ScFit:
    """Matching estimator wrapped as a fit (locally constant in y)."""
    y, x = _data(y, x)
    # not an engine solution: an all-zero certificate, its face empty
    beta = matching_weights(y, x, m)
    cert = KktCertificate(
        beta=beta,
        stationarity_residual=0.0,
        complementarity_gap=0.0,
        eq_multipliers=np.zeros(1),
        mu=np.zeros(x.shape[1]),
        support=_active_set(beta),
    )
    return _build_fit(MATCHING, y, x, cert, m=int(m))


def solve_masc(y: np.ndarray, x: np.ndarray, lam: float, m: int) -> ScFit:
    """Model-averaged estimator: lam * matching + (1 - lam) * synthetic control.

    The weight vector, the fitted values and hence the whole fit are the
    same convex combination of the two component solutions.  The stored
    index sets are those of the synthetic-control component, which is the
    only piece with a nonzero derivative in the outcome.
    """
    return _fit_grid(y, x, MASC, [TuningPoint(lam, m=m)])[0]


class _MascGrid(Sequence):
    """The model-averaging fits ``lam * (x @ w_m) + (1 - lam) * fit_sc`` at
    ``points``, ``w_m`` from one stable sort of the plain fit's donor
    distances: ``fitted`` and ``residuals`` are (points x n) arrays, ``rss``
    their rows' dot products, and a point's ``ScFit`` is built when indexed.
    With its ``kind``, ``kkt`` and vector ``lam``, ``dof._dof`` reads it as
    one fit and gives the df vector."""

    kind = MASC

    def __init__(self, y: np.ndarray, x: np.ndarray, fit_sc: ScFit, points):
        order = np.argsort(fit_sc.donor_sq_distances, kind="stable")
        self.matching = {m: _nearest(order, m) for m in {int(pt.m) for pt in points}}
        matched = {m: x @ w for m, w in self.matching.items()}
        self.plain, self.kkt, self.points = fit_sc, fit_sc.kkt, tuple(points)
        self.lam = np.array([pt.lam for pt in self.points], dtype=float)
        lam = self.lam[:, None]
        self.fitted = lam * np.array([matched[int(pt.m)] for pt in self.points]) + (1.0 - lam) * fit_sc.fitted
        self.residuals = y - self.fitted
        self.rss = np.array([r.dot(r) for r in self.residuals])

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i: int) -> ScFit:
        pt, sc = self.points[i], self.plain
        return replace(sc, kind=MASC, beta=pt.lam * self.matching[int(pt.m)] + (1.0 - pt.lam) * sc.beta,
                       fitted=self.fitted[i], residuals=self.residuals[i], lam=float(pt.lam), m=int(pt.m))


# ---------------------------------------------------------------------------
# covariate estimator
# ---------------------------------------------------------------------------

#: relative tolerance of an exactly-fit covariate row (of ``max|z|``) and of
#: a positive diagonal weight (of ``max v``)
_COV_TOL = 1e-8


def solve_sc_cov_inner(
    y: np.ndarray,
    x: np.ndarray,
    z: np.ndarray,
    d: np.ndarray,
    v: np.ndarray,
    *,
    lam: float = 0.0,
) -> ScFit:
    """Covariate-constrained synthetic control at a fixed diagonal weighting.

    Two stages.  First the inner problem ``min ||z - d b||_v`` is solved
    over the simplex; its fitted values on the positively weighted rows are
    unique even when the minimizer is not, so they split those rows into
    exactly-fit rows and rows with nonzero inner residual.  Second, the
    outer loss, with the donor-distance penalty of ``solve_penalized_sc``
    at ``lam``, is minimized over the simplex with the exactly-fit rows held
    at their targets as equality rows; this is the one outer solve the
    penalized estimator also runs.  The rows with nonzero inner residual
    are dropped from it, not held at their inner fitted values, so the
    outer minimum is taken over more than the inner solution set when such
    rows exist: with no exactly-fit row (every target outside the donors'
    hull, say) the weights are ``solve_penalized_sc``'s.  So ``v`` enters
    the fit only through the weighted rows and the exactly-fit rows, and
    through the outer solve's start, which matters only at a non-unique
    optimum.  If the nonzero-residual rows are at least as numerous as the
    active donors minus one, the equality rows exert no force at all and
    the fit reduces to the plain estimator on its active set; that
    reduction is applied and flagged when it fires.  The fit is a
    one-point grid on the package's one fit door, ``_fit_grid``; the first
    stage does not depend on ``lam``, so a grid over ``lam`` at one
    weighting needs it once there.  ``lam`` must be finite and ``>= 0``,
    with or without covariate rows; otherwise ``ConfigurationError`` is
    raised before any solve, as by ``solve_penalized_sc``.  It is
    raised too unless ``v`` is finite, nonnegative, not all zero and has one
    entry per covariate row.  An empty ``d`` has no rows: the fit is then
    the penalized one on the same path, and only a length-0 ``v`` is valid.
    ``ValueError`` is raised unless ``d`` has one row per entry of ``z`` and
    one column per donor.
    """
    v = tuple(np.asarray(v, dtype=float).ravel())
    return _fit_grid(y, x, COVARIATE, [TuningPoint(lam, v=v)], z, d)[0]


def _cov_inner(y, x, z, d, v) -> _CovInner:
    """Stage one of ``solve_sc_cov_inner`` on its ``_data``: coerce and check
    ``z``, ``d`` (empty: no rows) and ``v``, a finite, nonnegative diagonal
    weighting of the rows, then solve the inner weighted problem over the
    simplex."""
    z, v = np.asarray(z, dtype=float).ravel(), np.asarray(v, dtype=float).ravel()
    d = np.atleast_2d(np.asarray(d, dtype=float)) if np.size(d) else np.zeros((0, x.shape[1]))
    if d.shape != (z.shape[0], x.shape[1]):
        raise ValueError(f"covariate matrix shape {d.shape} incompatible with "
                         f"{z.shape[0]} covariates and {x.shape[1]} donors")
    n_cov = d.shape[0]
    if v.shape[0] != n_cov:
        raise ConfigurationError("diagonal weight length does not match covariate rows")
    # a NaN passes the sign checks and an inf makes the weight tolerance
    # infinite; either would silently drop every covariate row
    if not np.isfinite(v).all():
        raise ConfigurationError(f"diagonal weights must be finite, got {v.tolist()}")
    if np.any(v < 0):
        raise ConfigurationError("diagonal weights must be nonnegative")
    if n_cov and float(np.max(v)) <= 0.0:
        raise ConfigurationError("diagonal weights must not all be zero")
    _check_finite("covariate target", z)
    _check_finite("covariate matrix", d)

    w_tol, r_tol = _COV_TOL * (1.0 + _absmax(v)), _COV_TOL * (1.0 + _absmax(z))
    weighted = [i for i in range(n_cov) if v[i] > w_tol]
    # all-zero rows with zero targets are vacuous: they cannot constrain b,
    # so they are excluded from the recorded sets as well
    e_rows = tuple(i for i in weighted if np.max(np.abs(d[i])) > 1e-12 or abs(z[i]) > 1e-12)
    inner_beta = None
    exact_rows: tuple[int, ...] = ()
    if e_rows:
        rows = list(e_rows)
        sqrt_v = np.sqrt(v[rows])
        inner_beta = simplex_ls(sqrt_v * z[rows], sqrt_v[:, None] * d[rows]).beta
        inner_res = d[rows] @ inner_beta - z[rows]
        exact_rows = tuple(row for row, r in zip(e_rows, inner_res) if abs(r) <= r_tol)
    cold_start = inner_beta if exact_rows else None
    return _CovInner(z, d, v, e_rows, exact_rows, cold_start, r_tol, donor_sq_distances(y, x))


def _covariate_rows_idle(fit: ScFit) -> bool:
    """True when the weighted rows left unfit are at least as numerous as
    the active donors minus one: the exactly-fit rows then exert no force,
    and the fit is the plain estimator's on its active set."""
    return len(fit.sets.m_and_e) >= fit.n_active - 1


def default_v_grid(n_cov: int) -> list[np.ndarray]:
    """Trace-one diagonal weight candidates: vertices, barycenter and a
    lattice of step 1/4 on the simplex of diagonals (the lattice is
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

    if n_cov <= 8:
        # the compositions of 4 into n_cov parts in lexicographic order, as
        # stars and bars: the bars' positions among n_cov + 3 slots
        for bars in itertools.combinations(range(n_cov + 3), n_cov - 1):
            _push((np.diff([-1, *bars, n_cov + 3]) - 1) / 4)
    return grid


def solve_sc_cov(
    y: np.ndarray,
    x: np.ndarray,
    z: np.ndarray,
    d: np.ndarray,
    v_grid,
    *,
    lam: float = 0.0,
) -> ScFit:
    """Search the diagonal weighting over a grid, keeping the fit with the
    smallest outer residual sum of squares.  Ties go to the
    lexicographically smallest weighting.  Each weighting's fit is
    ``solve_sc_cov_inner``'s, from one ``_fit_grid`` over the weightings at
    ``lam``, and the choice is ``_least_rss``."""
    candidates = [tuple(np.asarray(v, dtype=float).ravel()) for v in v_grid]
    if not candidates:
        raise ConfigurationError("empty V grid")
    return _least_rss(_fit_grid(y, x, COVARIATE, [TuningPoint(lam, v=v) for v in candidates], z, d))


def _least_rss(fits) -> ScFit:
    """The in-sample V search's choice among covariate fits at one penalty:
    the least outer residual sum of squares, ties to the lexicographically
    smallest weighting."""
    return min(fits, key=lambda fit: (fit.rss, tuple(fit.v)))
