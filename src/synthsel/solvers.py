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
    """``max |v|`` over every entry, 0.0 when ``v`` is empty; NaN propagates.  Read at ``argmax``
    (the first NaN, if any): a fraction of ``max``'s call cost, paid several times an iteration."""
    a = abs(v).ravel()
    return float(a[a.argmax()]) if a.size else 0.0


def default_active_tol(beta: np.ndarray) -> float:
    """Relative threshold for active-set membership, 1e-8 * (1 + ||b||_inf)."""
    return 1e-8 * (1.0 + _absmax(beta))


def _active_set(beta: np.ndarray) -> tuple[int, ...]:
    """Indices of the entries of ``beta`` (nonnegative, not empty) above ``default_active_tol``."""
    return tuple((beta > 1e-8 * (1.0 + float(beta[beta.argmax()]))).nonzero()[0].tolist())


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
    Such a caller has coerced and checked ``target``, ``design`` and
    ``lin`` (a float vector or None) itself, and ``start`` is a certificate's
    ``beta``, so all four are taken as given.  It keeps the ``_face_factor``
    of the face the last solve ended on, which does not depend on ``lin``,
    for the next solve to finish again.

    The certificate's face is read off that factor: its rank and null-space
    columns.  When a free donor ends at zero weight, the face of the
    support is ranked on its own (``_face_qr``), unless the free face has
    no null columns, in which case neither has.
    """
    y, x, normal = target, design, _normal
    if normal is None:
        y, x = _data(target, design)
        _check_args(x.shape[1], lin, sum_to, eq_mat, eq_rhs)
        normal = _normal_equations(y, x)
        lin = None if lin is None else np.asarray(lin, dtype=float).ravel()
        start = start if start is None else np.maximum(_feasible_start(start, x.shape[1], float(sum_to)), 0.0)
    p = x.shape[1]
    gram, g0 = normal.gram, normal.xty
    if lin is not None:
        g0, lin = g0 - lin, lin if np.count_nonzero(lin) else None

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
            raise ConfigurationError("a feasible start is required when extra equality rows are given")
        vertex_obj = 0.5 * sum_to**2 * gram.diagonal() - sum_to * g0
        start = np.zeros(p)
        start[int(vertex_obj.argmin())] = sum_to
    beta = start
    free = beta > 0.0
    if not np.count_nonzero(free):
        free[0] = True

    max_iter = max(200, 30 * p)
    scale = 1.0 + _absmax(g0)
    release_tol = min(KKT_TOL, _RELEASE_TOL * scale)

    xi = np.zeros(a_mat.shape[0])
    best_obj = None  # the start's objective, formed when the stall test first reads it
    stalled = 0
    bland = False
    for iteration in range(1, max_iter + 1):
        f_idx = free.nonzero()[0]
        key = (f_idx.tobytes(), rows_key)
        if normal.face[0] != key:
            factor = _face_factor(x.take(f_idx, 1), y, a_mat.take(f_idx, 1), rhs, normal.cut)
            normal.face = (key, factor)
        lin_f = None if lin is None else lin[f_idx]
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
        low = cand_f[cand_f.argmin()]  # the least entry, or the first NaN
        if low >= 0.0 or low >= -_FEAS_TOL * max(1.0, _absmax(cand_f)):
            beta = np.zeros(p)
            beta[f_idx] = np.maximum(cand_f, 0.0)
            gram_beta = gram @ beta
            grad = gram_beta - g0
            xi = pinv.T @ -grad[f_idx]
            # A' xi of the sum row alone: xi[0] + 0.0, as the product rounds -0.0
            resid = grad + (xi[0] + 0.0 if a_mat.shape[0] == 1 else a_mat.T @ xi)
            mu = -resid
            mu[f_idx] = 0.0
            # mu is zero on the (nonempty) free set, so its max is >= 0
            release = int(mu.argmax())
            if mu[release] <= release_tol:
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
                    stationarity_residual=_absmax(resid[f_idx]),
                    complementarity_gap=_absmax(mu * beta),
                    eq_multipliers=xi,
                    mu=mu,
                    iterations=iteration,
                    face_dim=face[0],
                    face_cols=face[1],
                    unique=bool(face[0] == face[1] and pinned),
                    support=support,
                )
            obj = float(0.5 * beta @ gram_beta - g0 @ beta)
            if best_obj is None:
                best_obj = float(0.5 * start @ (gram @ start) - g0 @ start)
            if obj < best_obj - 1e-14 * (1.0 + abs(best_obj)):
                best_obj = obj
                stalled = 0
            else:
                stalled += 1
                if stalled > p + 5:
                    bland = True
            if bland:
                release = int((mu > release_tol).nonzero()[0][0])
            free[release] = True
        else:
            cand = np.zeros(p)
            cand[f_idx] = cand_f
            beta, blocking = _step_to_bound(beta, cand - beta, f_idx[cand_f < 0.0])
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


def _face_rows(a: tuple[int, ...], rows: tuple[int, ...], d: np.ndarray | None) -> np.ndarray:
    """``E_A``: the sum row and the rows ``rows`` of ``d`` on the donors ``a``."""
    return np.vstack([np.ones((1, len(a))), d[np.ix_(rows, a)]]) if rows else np.ones((1, len(a)))


def solve_sc(y: np.ndarray, x: np.ndarray) -> ScFit:
    """Plain synthetic control: least squares over the probability simplex.

    When the optimum is not unique (duplicate or collinear active donors,
    or more active donors than periods), the fit is the one the
    deterministic engine returns; its fitted values do not depend on which.
    """
    return _fit_grid(y, x, PLAIN, _TuningGrid([0.0]))[0]


def solve_penalized_sc(y: np.ndarray, x: np.ndarray, lam: float) -> ScFit:
    """Penalized synthetic control: adds ``lam * sum_i b_i ||y - x_i||^2``.

    The penalty is linear in ``b``, so the same engine runs with a shifted
    linear coefficient; ``lam = 0`` coincides with the plain estimator.
    This is the covariate estimator's outer solve with no covariate rows.
    """
    return _fit_grid(y, x, PENALIZED, _TuningGrid([lam]))[0]


def _outer_solve(
    y: np.ndarray,
    x: np.ndarray,
    cov: tuple[np.ndarray, np.ndarray, float],
    inner: tuple[tuple[int, ...], tuple[int, ...], np.ndarray | None],
    lin: np.ndarray,
    prev: tuple[np.ndarray, tuple[int, ...]] | None,
    *,
    normal: _NormalEquations,
) -> tuple[KktCertificate, tuple[int, ...], tuple[int, ...]]:
    """The outer solve of the penalized and covariate estimators:
    ``0.5||y - X b||^2 + lin'b`` over the simplex, ``lin`` being the
    penalty's ``0.5 lam`` times the donor distances, with one weighting's
    exactly-fit rows as equality rows.  ``cov`` is the grid's covariate
    data ``(z, d, r_tol)`` (a penalized grid's has no rows) and ``inner``
    the weighting's row sets ``(e_rows, exact_rows, cold_start)``
    (``_cov_inner``); ``normal`` is the ``_normal_equations(y, x)`` that
    its one caller, ``_fit_grid``, forms once for a whole grid from the
    ``y`` and ``x`` it coerced.  Returns the solution's certificate, the
    covariate rows it leaves unfit (``_unfit_rows``) and its equality rows.

    ``prev`` is the weights and equality rows of a fit of the same ``x``
    solved before, or None: ``_fit_grid`` passes the fit at the
    neighbouring ``lam`` on its path and, to a path's first solve, the fit
    of a nearby outcome it was given when that fit is ``unique`` (``df
    --fd-check`` passes the checked fit).  The solve starts from those
    weights when the rows are the solve's and from ``cold_start``
    otherwise (None: the engine's start vertex).  A warm start never
    changes the answer: the warm fit is kept only where its certificate is
    ``unique``, which pins the optimum with equality rows as without them,
    so it equals the cold fit; otherwise the point is solved again from the
    cold start.  If the weighted rows left unfit are at least as numerous
    as the active donors minus one, the equality rows exert no force and
    the fit reduces to the plain estimator on its active set: the rows are
    dropped, the point is solved again from the start vertex, and its
    certificate is flagged ``degenerate`` (and so not ``unique``).
    """
    (z, d, _), (e_rows, rows, cold_start) = cov, inner
    eq = {"eq_mat": d[list(rows)], "eq_rhs": z[list(rows)]} if rows else {}
    warm = prev is not None and prev[1] == rows
    cert = simplex_ls(y, x, lin=lin, start=prev[0] if warm else cold_start, _normal=normal, **eq)
    if warm and not cert.unique:
        cert = simplex_ls(y, x, lin=lin, start=cold_start, _normal=normal, **eq)
    m_rows = _unfit_rows(cov, cert.beta)
    if rows and _covariate_rows_idle(ActiveSets(cert.support, m_rows, e_rows)):
        cert, rows = replace(simplex_ls(y, x, lin=lin, _normal=normal), degenerate=True, unique=False), ()
        m_rows = _unfit_rows(cov, cert.beta)
    return cert, m_rows, rows


def _unfit_rows(cov: tuple[np.ndarray, np.ndarray, float], beta: np.ndarray) -> tuple[int, ...]:
    """The rows of the covariate data ``cov = (z, d, r_tol)`` whose residual
    at ``beta`` exceeds ``r_tol``: the ``m`` set of ``ActiveSets``."""
    z, d, r_tol = cov
    if not d.shape[0]:
        return ()
    return tuple(i for i, r in enumerate(d @ beta - z) if abs(r) > r_tol)


@dataclass(frozen=True)
class TuningPoint:
    """One candidate: an averaging/penalty weight, optionally a matching
    count and/or a diagonal covariate weighting."""

    lam: float
    m: int | None = None
    v: tuple[float, ...] | None = None


class _TuningGrid(Sequence):
    """A tuning grid as columns: the float vector ``lam``; each point's
    matching count as given, ``m`` (an object vector), or None; and, from
    diagonal weightings ``vs`` and each point's index into them ``v_at``
    (by default one point per weighting), the table ``vs`` of the distinct
    weightings, each once as a float tuple in order of first use, and
    ``v_at`` indexing it, or both None.  The one place a weighting is
    coerced; ``_fit_grid`` checks the columns.  Indexing builds a point's
    ``TuningPoint`` (a slice, a tuple of them)."""

    def __init__(self, lam, m=None, vs=None, v_at=slice(None)):
        self.lam = np.asarray(lam, dtype=float)
        self.m = None if m is None else np.fromiter(m, dtype=object)
        self.vs = self.v_at = None
        if vs is not None:
            first: dict = {}
            pos = [first.setdefault(tuple(np.asarray(v, dtype=float).ravel()), len(first)) for v in vs]
            self.vs, self.v_at = tuple(first), np.array(pos, dtype=int)[v_at]

    def __len__(self) -> int:
        return len(self.lam)

    def __getitem__(self, i: int) -> TuningPoint:
        if isinstance(i, slice):
            return tuple(self[j] for j in range(len(self))[i])
        return TuningPoint(float(self.lam[i]), None if self.m is None else self.m[i],
                           None if self.vs is None else self.vs[self.v_at[i]])


def _fit_grid(y: np.ndarray, x: np.ndarray, kind: str, grid: _TuningGrid, z=None, d=None,
              prev: ScFit | None = None) -> _FitGrid:
    """The fits of estimator ``kind`` at every point of ``grid``, in grid
    order, of ``y`` on ``x`` and, for the covariate kind, of the covariate
    target ``z`` on the rows ``d``, as one ``_FitGrid``: the package's one
    fit door, which every public estimator, selector, the race and the CLI
    go through.

    Every tuning column is checked, the first bad value in grid order named
    (a plain grid's ``lam`` must be 0), and so are the covariate data and
    each weighting (``_cov_data``), before any solve; each weighting's
    inner problem is solved (``_cov_inner``) before any outer solve.  The
    covariate data (none but for the covariate kind), their row tolerance
    and the donor distances are formed once.  A penalized or covariate
    grid's penalties are grouped by weighting (a penalized grid's all in
    one group without rows); a plain or model-averaging grid is one group
    without rows at ``lam = 0``.  Each group is one path on ``X'X`` and
    ``X'y``, formed once for all: solved from the largest penalty down, each
    solve starting from the fit solved just before it and the first from
    ``prev``, a fit of the same kind and ``x`` to a nearby outcome, unless
    it is None or not ``unique``.  ``_outer_solve`` keeps a warm fit only
    where the optimum is unique, so every fit equals its cold solve.

    The outer problem sees a weighting only through its weighted rows and
    the rows its inner solution fits exactly, ``(e_rows, exact_rows)``:
    weightings that agree on both pose the same objective and equality
    rows, and differ only in their cold start.  So a weighting whose rows
    and penalties were solved before takes those solutions, each with its
    own ``v``, when every one of them is ``unique`` (the optimum, which no
    start changes); otherwise it is solved as the first was.  A
    model-averaging point is ``lam * w_m + (1 - lam) * b`` of the plain
    solution ``b`` and the matching weights ``w_m``, every ``m``'s from one
    stable sort of the donor distances, and its fitted values the same
    average of ``x @ w_m`` and ``x @ b``.  The rows ``x @ beta`` (``x @ w_m``) come from one
    stacked product (``_matvecs``), the same BLAS routine per row as a loop over them.
    """
    y, x = _data(y, x)
    outer = kind in (PENALIZED, COVARIATE)
    if not outer and kind not in (PLAIN, MASC):
        raise ConfigurationError(f"unknown estimator kind {kind!r}")
    lam = grid.lam
    hi, what = {MASC: (1.0, "averaging weight must lie in [0, 1]"),
                PLAIN: (0.0, "a plain fit has no tuning parameter: lambda must be 0")}.get(
        kind, (np.inf, "penalty parameter must be finite and >= 0"))
    ok = (0.0 <= lam) & (lam <= hi) & (lam < np.inf)
    if not ok.all():
        raise ConfigurationError(f"{what}, got {lam[ok.argmin()]}")
    for m in dict.fromkeys(grid.m) if kind == MASC else ():
        _matching_count(m, x.shape[1])
    if kind == COVARIATE:
        z, d, vs = _cov_data(z, d, grid.vs, x.shape[1])
        runs = [(grid.v_at == k).nonzero()[0] for k in range(len(vs))]
    else:
        z, d, vs, runs = np.zeros(0), np.zeros((0, x.shape[1])), [None], [np.arange(len(lam))]
    cov = (z, d, _COV_TOL * (1.0 + _absmax(z)))
    inners = [((), (), None) if v is None else _cov_inner(cov, v) for v in vs]
    normal, sq_dist = _normal_equations(y, x), donor_sq_distances(y, x)
    start = (prev.kkt.beta, prev.cov_eq_rows) if prev is not None and prev.kkt.unique else None
    kkt, sets = [None] * len(lam), [None] * len(lam)
    solved: dict = {}
    for v, inner, idx in zip(vs, inners, runs):
        lams = lam[idx] if outer else np.zeros(1)
        key = (inner[0], inner[1], tuple(lams.tolist()))
        path = solved.get(key)
        if path is None:
            path, last = [None] * len(lams), start
            for j in np.argsort(-lams, kind="stable"):
                path[j] = _outer_solve(y, x, cov, inner, 0.5 * float(lams[j]) * sq_dist, last, normal=normal)
                last = (path[j][0].beta, path[j][2])
            if all(cert.unique for cert, _, _ in path):
                solved[key] = path
        # a plain or model-averaging grid's one plain solve is every point's
        for i, (cert, m_rows, rows) in zip(idx.tolist(), path if outer else path * len(idx)):
            kkt[i], sets[i] = cert, (m_rows, inner[0], rows, v)
    if kind != MASC:
        beta = np.array([cert.beta for cert in kkt])
        return _FitGrid(kind, grid, y, beta, _matvecs(x, beta), kkt, sets, sq_dist)
    ms, at = np.unique(grid.m.astype(int), return_inverse=True)
    order = np.argsort(sq_dist, kind="stable")
    matching, fitted_sc = np.array([_nearest(order, m) for m in ms.tolist()]), x @ kkt[0].beta

    def average(rows, base, i=slice(None)):  # lam * rows[at] + (1 - lam) * base at the points i
        out, col = rows[at[i]], lam[i, None]
        out *= col
        out += (1.0 - col) * base
        return out

    fitted = average(_matvecs(x, matching), fitted_sc)
    return _FitGrid(kind, grid, y, functools.partial(average, matching, kkt[0].beta), fitted, kkt, sets,
                    sq_dist, y - fitted_sc)


def _matvecs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ r`` for each row ``r`` of ``b`` (``a`` one matrix, or one per row) as one stacked
    ``np.matmul``: per row the BLAS routine ``a @ r`` calls (gemv, or ddot for a one-row
    ``a``), so the bits are a loop's; an einsum or one gemm would round differently."""
    return np.matmul(a, b[..., None])[..., 0]


class _FitGrid(Sequence):
    """The fits of estimator ``kind`` on the tuning ``grid``, as
    ``_fit_grid`` forms them: rows of weights ``beta``, ``fitted`` values
    (each ``x @ beta`` but for model averaging, see ``_fit_grid``) and
    ``residuals``, their rows' dot products ``rss``, and the ``lam`` and
    ``face_dim`` vectors that ``df_hat`` reads; each point's certificate in
    ``kkt`` and its covariate sets ``(m, e, equality rows, v)`` in ``cov``.
    A point's ``ScFit`` is built only when indexed; its ``beta`` is its
    certificate's but for model averaging, whose record holds, in place of
    the rows, the function of the points that forms them, so a row is formed
    only when it is read (``beta`` or a point).  ``plain_residuals`` are
    ``solve_sc``'s residuals where the grid holds its fit: a plain or
    model-averaging grid's plain solution, or a penalized grid's first
    point at ``lam = 0`` (its path keeps a warm fit only where that equals
    the cold solve, which ``solve_sc`` is); otherwise None.  ``fitted`` and ``rss``
    are each one stacked product (``_matvecs``), the same BLAS routine per row as a loop."""

    def __init__(self, kind, grid, y, beta, fitted, kkt, cov, sq_dist, plain_residuals=None):
        self.kind, self.grid, self.lam, self.kkt, self.cov = kind, grid, grid.lam, kkt, cov
        self._beta, self.fitted, self.residuals, self.sq_dist = beta, fitted, y - fitted, sq_dist
        self.rss = _matvecs(self.residuals[:, None], self.residuals)[:, 0]
        self.face_dim = np.array([cert.face_dim for cert in kkt])
        zero = (self.lam == 0.0).nonzero()[0]
        if kind in (PLAIN, PENALIZED) and zero.size:
            plain_residuals = self.residuals[zero[0]]
        self.plain_residuals = plain_residuals

    @property
    def beta(self) -> np.ndarray:
        return self._beta() if self.kind == MASC else self._beta

    def __len__(self) -> int:
        return len(self.grid)

    def __getitem__(self, i: int) -> ScFit:
        cert, (m_rows, e_rows, rows, v) = self.kkt[i], self.cov[i]
        return ScFit(kind=self.kind, beta=self._beta([i])[0] if self.kind == MASC else cert.beta,
                     fitted=self.fitted[i], residuals=self.residuals[i],
                     sets=ActiveSets(a=cert.support, m=m_rows, e=e_rows), kkt=cert,
                     donor_sq_distances=self.sq_dist, lam=float(self.lam[i]),
                     m=int(self.grid.m[i]) if self.kind == MASC else None, v=v, cov_eq_rows=rows)


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
    cert = KktCertificate(beta=beta, stationarity_residual=0.0, complementarity_gap=0.0,
                          eq_multipliers=np.zeros(1), mu=np.zeros(x.shape[1]), support=_active_set(beta))
    fitted = x @ beta
    return ScFit(MATCHING, beta, fitted, y - fitted, ActiveSets(a=cert.support), cert,
                 donor_sq_distances(y, x), m=int(m))


def solve_masc(y: np.ndarray, x: np.ndarray, lam: float, m: int) -> ScFit:
    """Model-averaged estimator: lam * matching + (1 - lam) * synthetic control.

    The weight vector, the fitted values and hence the whole fit are the
    same convex combination of the two component solutions.  The stored
    index sets are those of the synthetic-control component, which is the
    only piece with a nonzero derivative in the outcome.
    """
    return _fit_grid(y, x, MASC, _TuningGrid([lam], m=[m]))[0]


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
    raised before any solve, as by ``solve_penalized_sc``.  It is raised
    too at a non-finite entry of ``z`` or ``d``, named, and unless ``v`` is
    finite, nonnegative, not all zero and has one entry per covariate row.
    An empty ``d`` has no rows: the fit is then the penalized one on the
    same path, and only a length-0 ``v`` is valid.  ``ValueError`` is
    raised unless ``d`` has one row per entry of ``z`` and one column per
    donor.
    """
    return _fit_grid(y, x, COVARIATE, _TuningGrid([lam], vs=[v]), z, d)[0]


def _cov_data(z, d, vs, p: int) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """A covariate grid's data on ``p`` donors, as ``_data`` takes ``y`` and
    ``x``: ``z`` and ``d`` as a float vector and matrix (empty: no rows) and
    the weightings ``vs`` as vectors, all checked as ``solve_sc_cov_inner``
    states, the first bad weighting in ``vs``'s order named."""
    z = np.asarray(z, dtype=float).ravel()
    d = np.atleast_2d(np.asarray(d, dtype=float)) if np.size(d) else np.zeros((0, p))
    if d.shape != (z.shape[0], p):
        raise ValueError(f"covariate matrix shape {d.shape} incompatible with "
                         f"{z.shape[0]} covariates and {p} donors")
    _check_finite("covariate target", z)
    _check_finite("covariate matrix", d)
    vs = [np.asarray(v) for v in vs]
    for v in vs:
        if v.shape[0] != d.shape[0]:
            raise ConfigurationError("diagonal weight length does not match covariate rows")
        # a NaN passes the sign checks and an inf makes the weight tolerance
        # infinite; either would silently drop every covariate row
        if not np.isfinite(v).all():
            raise ConfigurationError(f"diagonal weights must be finite, got {v.tolist()}")
        if np.any(v < 0):
            raise ConfigurationError("diagonal weights must be nonnegative")
        if d.shape[0] and float(np.max(v)) <= 0.0:
            raise ConfigurationError("diagonal weights must not all be zero")
    return z, d, vs


def _cov_inner(cov: tuple[np.ndarray, np.ndarray, float], v: np.ndarray):
    """Stage one of ``solve_sc_cov_inner``: what the checked diagonal
    weighting ``v`` decides of the grid's covariate data ``cov = (z, d,
    r_tol)``, none of it dependent on ``lam``.  Returns the informative
    weighted rows ``e_rows``, the rows the inner weighted solution over the
    simplex fits to within ``r_tol`` (``exact_rows``, the outer equality
    rows) and the outer solve's cold start (that inner solution when
    ``exact_rows`` is not empty, else None)."""
    z, d, r_tol = cov
    w_tol = _COV_TOL * (1.0 + _absmax(v))
    weighted = [i for i in range(d.shape[0]) if v[i] > w_tol]
    # all-zero rows with zero targets are vacuous: they cannot constrain b,
    # so they are excluded from the recorded sets as well
    e_rows = tuple(i for i in weighted if np.max(np.abs(d[i])) > 1e-12 or abs(z[i]) > 1e-12)
    if not e_rows:
        return (), (), None
    rows = list(e_rows)
    sqrt_v = np.sqrt(v[rows])
    inner_beta = simplex_ls(sqrt_v * z[rows], sqrt_v[:, None] * d[rows]).beta
    exact_rows = tuple(row for row, r in zip(e_rows, d[rows] @ inner_beta - z[rows]) if abs(r) <= r_tol)
    return e_rows, exact_rows, inner_beta if exact_rows else None


def _covariate_rows_idle(sets: ActiveSets) -> bool:
    """True when a covariate fit's weighted rows left unfit are at least as
    numerous as its active donors minus one: the exactly-fit rows then
    exert no force, and the fit is the plain estimator's on its active set."""
    return len(sets.m_and_e) >= len(sets.a) - 1


def default_v_grid(n_cov: int) -> list[np.ndarray]:
    """Trace-one diagonal weight candidates: vertices, barycenter and a
    lattice of step 1/4 on the simplex of diagonals (the lattice is
    skipped above eight covariate rows, where it would explode), each once."""
    if n_cov <= 0:
        raise ConfigurationError("need at least one covariate row for a V grid")
    grid = [*np.eye(n_cov), np.full(n_cov, 1.0 / n_cov)]
    if n_cov <= 8:
        # the compositions of 4 into n_cov parts in lexicographic order, as
        # stars and bars: the bars' positions among n_cov + 3 slots
        bars = itertools.combinations(range(n_cov + 3), n_cov - 1)
        grid += [(np.diff([-1, *b, n_cov + 3]) - 1) / 4 for b in bars]
    return [np.array(v) for v in dict.fromkeys(map(tuple, grid))]


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
    vs = list(v_grid)
    if not vs:
        raise ConfigurationError("empty V grid")
    fits = _fit_grid(y, x, COVARIATE, _TuningGrid(np.full(len(vs), lam), vs=vs), z, d)
    return fits[_least_rss(fits)]


def _least_rss(fits: _FitGrid) -> int:
    """The in-sample V search's choice in a covariate grid at one penalty,
    as its index: the least outer residual sum of squares, ties to the
    lexicographically smallest weighting (read off the grid's table of
    weightings), then the earliest point."""
    return min(range(len(fits)), key=lambda i: (fits.rss[i], fits.grid.vs[fits.grid.v_at[i]]))
