"""Brute-force oracles used by the test suite.

These deliberately share no code with the solvers they check: the simplex
oracle enumerates a dense grid of weight vectors and refines locally, the
constraint-line oracle scans the one-dimensional feasible set of an
equality-constrained problem, the rank-one-correction divergence
writes the sum-to-one hat matrix in a form the package never uses, the
face dimension is a rank read off singular values instead of a pivoted
QR (and so is the uniqueness condition built on it), and the KKT
reference solves the working-set system densely by ``lstsq`` instead of by
the null-space method.  The warm-start check is kept in its first form,
one pass over the start per condition, for the engine's to be compared
against.  The model-averaged fit is its first form, one average of two
component fits per grid point.
"""

import numpy as np

from synthsel.errors import ConfigurationError


def simplex_objective(y, x, betas, lin=None):
    resid = y[:, None] - x @ betas.T
    vals = 0.5 * np.einsum("ij,ij->j", resid, resid)
    if lin is not None:
        vals = vals + betas @ lin
    return vals


def _grid_patch(center, radius, step, p):
    axes = [
        np.arange(max(0.0, c - radius), min(1.0, c + radius) + step / 2, step)
        for c in center[:-1]
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    head = np.stack([m.ravel() for m in mesh], axis=1)
    last = 1.0 - head.sum(axis=1)
    keep = last >= -1e-12
    return np.column_stack([head[keep], np.clip(last[keep], 0.0, None)])


def simplex_grid_min(y, x, lin=None, step=1e-2, rounds=4):
    """Minimum objective over the probability simplex by dense enumeration
    with local refinement (p <= 3 intended)."""
    p = x.shape[1]
    if p == 1:
        return float(simplex_objective(y, x, np.ones((1, 1)), lin)[0]), np.ones(1)
    center = np.full(p, 1.0 / p)
    radius, s = 1.0, step
    best_val, best_pt = np.inf, center
    for _ in range(rounds):
        pts = _grid_patch(center, radius, s, p)
        vals = simplex_objective(y, x, pts, lin)
        k = int(np.argmin(vals))
        best_val, best_pt = float(vals[k]), pts[k]
        center, radius, s = best_pt, 2 * s, s / 10
    return best_val, best_pt


def constraint_line_min(y, x, d_row, z_val, span=25.0, step=1e-3, rounds=4):
    """Minimizer of 0.5||y - X b||^2 over the line {b : d'b = z} for p = 2,
    by dense scan of the line parameter with refinement."""
    d_row = np.asarray(d_row, dtype=float).ravel()
    # particular solution plus the null direction of d
    b0 = d_row * z_val / (d_row @ d_row)
    null = np.array([-d_row[1], d_row[0]])
    null = null / np.linalg.norm(null)

    center, radius, s = 0.0, span, step
    best_t = 0.0
    for _ in range(rounds):
        ts = np.arange(center - radius, center + radius + s / 2, s)
        pts = b0[None, :] + ts[:, None] * null[None, :]
        vals = simplex_objective(y, x, pts)
        k = int(np.argmin(vals))
        best_t = float(ts[k])
        center, radius, s = best_t, 2 * s, s / 10
    return b0 + best_t * null


def rank_one_correction_divergence(xa):
    """Hat matrix of least squares on the columns of ``xa`` under the single
    row ``1'b = 1``, in its rank-one-correction form
    ``P_A - b b' / (1' G^-1 1)`` with ``G = X_A'X_A`` and ``b = X_A G^-1 1``."""
    gram_inv = np.linalg.inv(xa.T @ xa)
    ones = np.ones(xa.shape[1])
    b = xa @ gram_inv @ ones
    proj = xa @ gram_inv @ xa.T
    return proj - np.outer(b, b) / float(ones @ gram_inv @ ones)


def _svd_rank(mat, rel=1e-9):
    sv = np.linalg.svd(mat, compute_uv=False)
    return int(np.sum(sv > rel * sv[0])) if sv.size and sv[0] > 0 else 0


def face_dim(xa, e_a):
    """``rank(X_A N)``, ``N`` a basis of the null space of the rows ``e_a``,
    both from singular value decompositions with a relative cut of 1e-9."""
    vt = np.linalg.svd(e_a)[2]
    null = vt[_svd_rank(e_a):].T
    return _svd_rank(xa @ null)


def unique_optimum(xa, e_a, mu, g0):
    """Sufficient condition for a unique minimizer at a solution with
    support ``A`` (the columns ``xa``), equality rows ``e_a`` on ``A`` and
    nonnegativity multipliers ``mu``: ``X_A N`` has full column rank and
    every multiplier off ``A`` is below ``-1e-10 (1 + |g0|_inf)``, ``g0``
    being ``X'y`` less the linear term."""
    cols = e_a.shape[1] - _svd_rank(e_a)
    tol = 1e-10 * (1.0 + np.abs(g0).max())
    return face_dim(xa, e_a) == cols and np.count_nonzero(mu < -tol) == mu.size - xa.shape[1]


def duplicate_pairs_by_loop(x):
    """Pairs (i, j), i < j, of donor columns equal under ``np.array_equal``,
    by comparing every pair."""
    p = x.shape[1]
    return [
        (i, j) for i in range(p) for j in range(i + 1, p) if np.array_equal(x[:, i], x[:, j])
    ]


def kkt_lstsq_solve(gram, g, a_mat, rhs):
    """Minimum-norm least-squares solution (b, xi) of the dense KKT system
    ``[[G, A'], [A, 0]] [b; xi] = [g; rhs]``, and its residual norm."""
    k, h = gram.shape[0], a_mat.shape[0]
    kkt = np.block([[gram, a_mat.T], [a_mat, np.zeros((h, h))]])
    full_rhs = np.concatenate([g, rhs])
    sol = np.linalg.lstsq(kkt, full_rhs, rcond=None)[0]
    return sol[:k], sol[k:], float(np.linalg.norm(kkt @ sol - full_rhs))


def feasible_start(start, p, sum_to):
    """The start as a float vector, or ``ConfigurationError`` unless it is
    finite, of length ``p``, and lies on the simplex scaled to ``sum_to`` up
    to ``1e-8 (1 + sum|b| + |sum_to|)``: each condition checked in turn."""
    beta = np.asarray(start, dtype=float).ravel()
    if beta.shape[0] != p:
        raise ConfigurationError(f"start has length {beta.shape[0]}, expected {p}")
    if not np.isfinite(beta).all():
        raise ConfigurationError("start has a non-finite entry")
    tol = 1e-8 * (1.0 + float(abs(beta).sum()) + abs(sum_to))
    low = float(beta.min())
    if low < -tol:
        raise ConfigurationError(f"start has a negative entry {low:.3g}")
    total = float(beta.sum())
    if abs(total - sum_to) > tol:
        raise ConfigurationError(f"start sums to {total:.12g}, expected {sum_to:.12g}")
    return beta


def masc_average(y, fit_sc, fit_ma, lam):
    """The fields of the model-averaged fit ``lam * fit_ma + (1 - lam) *
    fit_sc``, from a plain synthetic-control fit and a matching fit of the
    outcome ``y``: weights and fitted values averaged elementwise, residuals
    ``y - fitted``, and the rest the plain component's, the only piece with
    a nonzero derivative in ``y``."""
    fitted = lam * fit_ma.fitted + (1.0 - lam) * fit_sc.fitted
    return {
        "kind": "masc",
        "beta": lam * fit_ma.beta + (1.0 - lam) * fit_sc.beta,
        "fitted": fitted,
        "residuals": np.asarray(y, dtype=float).ravel() - fitted,
        "sets": fit_sc.sets,
        "kkt": fit_sc.kkt,
        "donor_sq_distances": fit_sc.donor_sq_distances,
        "lam": float(lam),
        "m": int(fit_ma.m),
        "v": fit_sc.v,
        "cov_eq_rows": fit_sc.cov_eq_rows,
    }
