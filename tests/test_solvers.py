import dataclasses
import importlib.util
import inspect
import itertools
import os
import subprocess
import sys
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthsel import selection, solvers
from synthsel.dof import df_hat
from synthsel.errors import ConfigurationError, ConvergenceError
from synthsel.panel import PanelDataset
from synthsel.selection import ic_value, select_lambda_ic, select_v_ic, tuning_grid
from synthsel.simulation import draw_factor_gaussian, spawn_rng, synthetic_factor_spec
from synthsel.solvers import (
    ActiveSets,
    KktCertificate,
    _COV_TOL,
    _absmax,
    _active_set,
    _cov_data,
    _cov_inner,
    _face_factor,
    _face_finish,
    _face_rows,
    _feasible_start,
    _fit_grid,
    _normal_equations,
    _outer_solve,
    _qr_rank,
    default_active_tol,
    default_v_grid,
    donor_sq_distances,
    eq_constrained_hat,
    matching_weights,
    simplex_ls,
    solve_masc,
    solve_matching,
    solve_penalized_sc,
    solve_sc,
    solve_sc_cov,
    solve_sc_cov_inner,
)

from conftest import make_instance, near_common_rows, random_design
from oracles import (
    constraint_line_min,
    face_dim,
    feasible_start,
    kkt_lstsq_solve,
    simplex_grid_min,
    unique_optimum,
)


# ---------------------------------------------------------------------------
# equality-constrained least squares
# ---------------------------------------------------------------------------


def _face(x, y, lin, a_mat, rhs):
    """``_face_finish`` of ``_face_factor`` at the rank cut ``simplex_ls``
    takes for design ``x``, with the multipliers ``simplex_ls`` reads off its
    ``pinv`` at the face solution: ``(b, xi, ray)``."""
    cut = 1e-10 * np.sqrt(np.max(np.sum(x * x, axis=0)))
    beta, pinv, ray = _face_finish(_face_factor(x, y, a_mat, rhs, cut), lin)
    if ray is not None:
        return beta, None, ray
    grad = x.T @ (x @ beta - y) + (0.0 if lin is None else lin)
    return beta, pinv.T @ -grad, ray


def _eq_ls_beta(y, x, eq_mat, eq_rhs):
    """Minimizer of ``0.5||y - X b||^2`` subject to ``E b = f`` by the
    working-set kernel."""
    beta, _, ray = _face(x, y, None, eq_mat, np.asarray(eq_rhs, dtype=float))
    assert ray is None
    return beta


class TestConstrainedLs:
    """Equality-constrained least squares: ``_face`` for the solution,
    ``eq_constrained_hat`` for the hat matrix."""

    def test_single_column_sum_constraint_forces_unit_weight(self, rng):
        y = rng.normal(size=5)
        x = rng.normal(size=(5, 1))
        beta = _eq_ls_beta(y, x, np.ones((1, 1)), np.array([1.0]))
        assert beta == pytest.approx([1.0], abs=1e-12)

    def test_empty_constraints_reduce_to_ols(self, rng):
        y = rng.normal(size=8)
        x = rng.normal(size=(8, 3))
        beta = _eq_ls_beta(y, x, np.zeros((0, 3)), np.zeros(0))
        ols = np.linalg.lstsq(x, y, rcond=None)[0]
        np.testing.assert_allclose(beta, ols, atol=1e-10)

    def test_matches_line_scan_oracle(self):
        gen = np.random.default_rng(11)
        y = gen.normal(size=4)
        x = gen.normal(size=(4, 2))
        d_row = np.array([1.0, 2.0])
        beta = _eq_ls_beta(y, x, d_row[None, :], np.array([0.7]))
        oracle = constraint_line_min(y, x, d_row, 0.7)
        np.testing.assert_allclose(beta, oracle, atol=1e-6)

    def test_rank_deficient_design_projects_onto_the_face(self, rng):
        x = rng.normal(size=(6, 2))
        x = np.column_stack([x, x[:, 0]])
        hat = eq_constrained_hat(x, np.zeros((0, 3)))
        assert np.trace(hat) == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(hat @ x, x, atol=1e-12)
        # under the sum row the face is the line of x_1 - x_0: dimension 1
        diff = x[:, 1] - x[:, 0]
        hat = eq_constrained_hat(x, np.ones((1, 3)))
        np.testing.assert_allclose(hat, np.outer(diff, diff) / (diff @ diff), atol=1e-12)

    def test_dependent_constraint_rows_are_dropped(self, rng):
        x = rng.normal(size=(6, 3))
        rows = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
        hat = eq_constrained_hat(x, rows)
        assert np.trace(hat) == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(hat, eq_constrained_hat(x, rows[:1]), atol=1e-12)

    def test_hat_matrix_trace_is_rank_minus_constraints(self, rng):
        x = rng.normal(size=(12, 5))
        rows = rng.normal(size=(2, 5))
        assert np.trace(eq_constrained_hat(x, rows)) == pytest.approx(5 - 2, abs=1e-9)

    def test_rows_that_pin_the_weights_leave_an_exactly_zero_hat(self, rng):
        x = rng.normal(size=(12, 3))
        rows = np.array([[0.0, 1.0, 2.0], [0.0, 1.0, 2.0 + 1e-3]])  # cond([1; rows]) = 1.2e4
        assert np.max(np.abs(eq_constrained_hat(x, np.vstack([np.ones(3), rows])))) == 0.0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_hat_is_a_projection_of_rank_k_minus_h(seed):
    gen = np.random.default_rng(seed)
    k = int(gen.integers(4, 10))
    x = gen.normal(size=(24, k))
    e = near_common_rows(gen, k)
    hat = eq_constrained_hat(x, e)
    assert abs(np.trace(hat) - (k - e.shape[0])) <= 1e-12
    assert np.max(np.abs(hat - hat.T)) <= 1e-12
    assert np.max(np.abs(hat @ hat - hat)) <= 1e-12


class TestWorkingSetKernel:
    """``_face`` against the dense KKT ``lstsq`` reference."""

    @pytest.mark.parametrize("h", [1, 3])
    def test_matches_dense_reference(self, rng, h):
        x, y = rng.normal(size=(15, 6)), rng.normal(size=15)
        lin = rng.normal(size=6)
        a_mat = np.vstack([np.ones((1, 6)), rng.normal(size=(2, 6))])[:h]
        rhs = rng.normal(size=h)
        beta, xi, ray = _face(x, y, lin, a_mat, rhs)
        ref_beta, ref_xi, ref_res = kkt_lstsq_solve(x.T @ x, x.T @ y - lin, a_mat, rhs)
        assert ray is None and ref_res <= 1e-10
        np.testing.assert_allclose(beta, ref_beta, rtol=0, atol=1e-10)
        np.testing.assert_allclose(xi, ref_xi, rtol=0, atol=1e-10)

    def test_dependent_rows_are_dropped_with_zero_multipliers(self, rng):
        x, y = rng.normal(size=(15, 6)), rng.normal(size=15)
        lin = rng.normal(size=6)
        row = rng.normal(size=6)
        a_mat = np.vstack([np.ones(6), row, 2.0 * row + 3.0])  # row 2 = 2 row 1 + 3 row 0
        rhs = a_mat @ rng.dirichlet(np.ones(6))
        beta, xi, ray = _face(x, y, lin, a_mat, rhs)
        ref_beta, ref_xi, ref_res = kkt_lstsq_solve(x.T @ x, x.T @ y - lin, a_mat, rhs)
        assert ray is None and ref_res <= 1e-10
        np.testing.assert_allclose(beta, ref_beta, rtol=0, atol=1e-10)
        # the multipliers of dependent rows are not unique; their action is
        np.testing.assert_allclose(a_mat.T @ xi, a_mat.T @ ref_xi, rtol=0, atol=1e-10)
        assert xi[0] != 0.0 and np.count_nonzero(xi == 0.0) == 1

    def test_singular_gram_without_stationary_point_is_inconsistent(self, rng):
        base = rng.normal(size=(8, 2))
        x = np.column_stack([base, base[:, 0]])  # duplicate donor: singular Gram
        y, lin = rng.normal(size=8), np.array([0.0, 0.0, 1.0])
        a_mat = np.ones((1, 3))
        beta, xi, ray = _face(x, y, lin, a_mat, np.array([1.0]))
        assert kkt_lstsq_solve(x.T @ x, x.T @ y - lin, a_mat, np.array([1.0]))[2] > 1e-3
        assert beta is None and xi is None
        # a unit descent ray of the linear term along which the fit and the
        # sum do not move: weight passes from the costly copy to donor 0
        np.testing.assert_allclose(ray, [2**-0.5, 0.0, -(2**-0.5)], rtol=0, atol=1e-12)
        assert np.max(np.abs(x @ ray)) <= 1e-12 and abs(ray.sum()) <= 1e-12

    def test_singular_gram_with_stationary_points_is_consistent(self, rng):
        base = rng.normal(size=(8, 2))
        x = np.column_stack([base, base[:, 0]])
        y = rng.normal(size=8)
        beta, xi, ray = _face(x, y, None, np.ones((1, 3)), np.array([1.0]))
        ref_beta, ref_xi, ref_res = kkt_lstsq_solve(x.T @ x, x.T @ y, np.ones((1, 3)), np.array([1.0]))
        assert ray is None and ref_res <= 1e-10
        # the weights of the two copies are not unique; the fit, the sum
        # and the multiplier are
        np.testing.assert_allclose(x @ beta, x @ ref_beta, rtol=0, atol=1e-10)
        np.testing.assert_allclose(xi, ref_xi, rtol=0, atol=1e-10)
        assert beta.sum() == pytest.approx(1.0, abs=1e-12)


class TestStart:
    @pytest.mark.parametrize(
        "start, match",
        [
            ([0.5, 0.5], "length"),
            ([0.5, np.nan, 0.5], "non-finite"),
            ([1.2, -0.1, -0.1], "negative"),
            ([0.5, 0.4, 0.0], "sums to"),
        ],
    )
    def test_infeasible_start_rejected(self, start, match):
        y, x = make_instance(5, p=3)
        with pytest.raises(ConfigurationError, match=match):
            simplex_ls(y, x, start=np.array(start))

    def test_start_off_the_extra_equality_rows_lands_on_them(self):
        y, x = make_instance(6, p=3)
        row, target = np.array([[1.0, 0.0, 0.0]]), np.array([0.5])
        on = simplex_ls(y, x, eq_mat=row, eq_rhs=target, start=np.array([0.5, 0.25, 0.25]))
        off = simplex_ls(y, x, eq_mat=row, eq_rhs=target, start=np.array([0.2, 0.4, 0.4]))
        assert abs(float(row[0] @ off.beta) - 0.5) <= 1e-12
        np.testing.assert_allclose(off.beta, on.beta, rtol=0, atol=1e-12)

    def test_rounding_level_infeasibility_accepted(self):
        y, x = make_instance(7, p=3)
        start = np.array([0.5, 0.5 + 1e-12, -1e-12])
        cold, warm = simplex_ls(y, x), simplex_ls(y, x, start=start)
        np.testing.assert_allclose(warm.beta, cold.beta, atol=1e-12)


#: entries of a start: mostly on [0, 1], some slightly negative, and odd
#: values (non-finite, signed zero, rounding-level negative, near 1e308)
_START_ENTRY = st.one_of(
    *[st.floats(0.0, 1.0)] * 3,
    st.floats(-1e-3, 0.0),
    st.sampled_from([np.nan, np.inf, -np.inf, -0.0, -1e-12, -1e-3, 1e308, 1.7e308, -1e308]),
)


@settings(max_examples=300, deadline=None)
@given(
    entries=st.lists(_START_ENTRY, min_size=1, max_size=8),
    sum_to=st.sampled_from([1.0, 2.5, 1e308]),
    on_simplex=st.booleans(),
    short=st.sampled_from([0, 0, 0, 1]),
)
def test_start_check_matches_its_first_form(entries, sum_to, on_simplex, short):
    """The engine's start check, which passes over the entries again only
    when one is negative or the sum is not finite, raises what the check
    made one pass per condition raises, and returns the same start."""
    start = np.array(entries)
    with np.errstate(all="ignore"):
        total = start.sum()
        if on_simplex and np.isfinite(total) and total > 0:
            start = start / total * sum_to

        def outcome(check):
            try:
                return check(start, start.size + short, sum_to).tobytes()
            except Exception as exc:  # the type is compared too
                return type(exc), str(exc)

        assert outcome(_feasible_start) == outcome(feasible_start)


class TestNonFiniteData:
    """A NaN or infinite entry of the target or the design is named, with
    its 0-based place, before the engine or numpy sees it."""

    SOLVES = {
        "simplex_ls": simplex_ls,
        "solve_sc": solve_sc,
        "solve_penalized_sc": partial(solve_penalized_sc, lam=0.3),
        "solve_masc": partial(solve_masc, lam=0.5, m=2),
        "solve_sc_cov_inner": lambda y, x: solve_sc_cov_inner(
            y, x, np.ones(1), np.ones((1, x.shape[1])), np.ones(1), lam=0.3
        ),
        "solve_matching": partial(solve_matching, m=2),
        "matching_weights": partial(matching_weights, m=2),
    }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("solve", SOLVES.values(), ids=SOLVES.keys())
    def test_first_bad_entry_is_named(self, solve, bad):
        y, x = make_instance(1, n=10, p=4)
        y_bad, x_bad = y.copy(), x.copy()
        y_bad[[3, 7]] = bad
        x_bad[2, 3] = x_bad[5, 0] = bad
        with pytest.raises(ConfigurationError, match=r"^target has a non-finite entry \S+ at row 3$"):
            solve(y_bad, x)
        with pytest.raises(ConfigurationError, match=r"^design has a non-finite entry \S+ at row 2, column 3$"):
            solve(y, x_bad)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("search", [False, True], ids=["fixed_v", "v_search"])
    def test_covariate_data_are_named_apart_from_the_outcome(self, search, bad):
        y, x = make_instance(1, n=10, p=4)
        z, d = np.ones(2), np.ones((2, 4))
        z_bad, d_bad = z.copy(), d.copy()
        z_bad[1] = d_bad[1, 2] = bad

        def solve(z, d):
            if search:
                return solve_sc_cov(y, x, z, d, default_v_grid(2), lam=0.3)
            return solve_sc_cov_inner(y, x, z, d, np.ones(2), lam=0.3)

        with pytest.raises(ConfigurationError,
                           match=r"^covariate target has a non-finite entry \S+ at row 1$"):
            solve(z_bad, d)
        with pytest.raises(ConfigurationError,
                           match=r"^covariate matrix has a non-finite entry \S+ at row 1, column 2$"):
            solve(z, d_bad)

    @pytest.mark.filterwarnings("error")
    def test_all_nan_target_of_a_penalized_fit(self):
        y, x = make_instance(2)
        with pytest.raises(ConfigurationError, match="target has a non-finite entry nan at row 0"):
            solve_penalized_sc(np.full_like(y, np.nan), x, 0.3)

    def test_a_grid_path_checks_its_data_once(self, monkeypatch):
        y, x = make_instance(3)
        formed = []
        monkeypatch.setattr(solvers, "_normal_equations",
                            lambda y, x, _f=_normal_equations: formed.append(y.size) or _f(y, x))
        _fit_grid(y, x, "penalized", tuning_grid("penalized"))
        assert formed == [y.size]
        # a covariate grid's inner solves form their own, of the covariate rows
        d = np.random.default_rng(3).normal(size=(2, x.shape[1]))
        _fit_grid(y, x, "covariate", tuning_grid("covariate", n_cov=2), d @ np.full(x.shape[1], 0.2), d)
        assert formed.count(y.size) == 2
        with pytest.raises(ConfigurationError, match="target"):
            _fit_grid(np.full_like(y, np.inf), x, "penalized", tuning_grid("penalized"))


class TestShapes:
    """Mis-shaped data fail at the solvers' door with ``ValueError`` naming
    the sizes, and so do the engine's other arguments; a non-finite one is
    named with ``ConfigurationError``."""

    ESTIMATORS = {
        "solve_sc": solve_sc,
        "solve_penalized_sc": partial(solve_penalized_sc, lam=0.3),
        "solve_matching": partial(solve_matching, m=2),
        "solve_masc": partial(solve_masc, lam=0.5, m=2),
        "solve_sc_cov_inner": lambda y, x: solve_sc_cov_inner(
            y, x, np.ones(1), np.ones((1, x.shape[1])), np.ones(1), lam=0.3
        ),
        "solve_sc_cov": lambda y, x: solve_sc_cov(
            y, x, np.ones(1), np.ones((1, x.shape[1])), [np.ones(1)], lam=0.3
        ),
    }

    @pytest.mark.parametrize("solve", ESTIMATORS.values(), ids=ESTIMATORS.keys())
    def test_outcome_one_period_short(self, solve):
        y, x = make_instance(1, n=10, p=4)
        with pytest.raises(ValueError, match=r"^target length 9 does not match the 10 design rows$"):
            solve(y[:9], x)

    @pytest.mark.parametrize("case", ["one_target", "three_targets", "one_donor_short"])
    @pytest.mark.parametrize("search", [False, True], ids=["fixed_v", "v_search"])
    def test_covariate_rows_must_match_their_targets_and_the_donors(self, search, case):
        y, x = make_instance(1, n=10, p=4)
        d = np.random.default_rng(1).normal(size=(2, 4))
        z = d @ np.full(4, 0.25)
        if case == "one_target":
            z = z[:1]
        elif case == "three_targets":
            z = np.append(z, 1.0)
        else:
            d = d[:, :3]
        v = np.full(2, 0.5)
        with pytest.raises(ValueError, match=rf"^covariate matrix shape \(2, {d.shape[1]}\) incompatible "
                                             rf"with {z.size} covariates and 4 donors$"):
            if search:
                solve_sc_cov(y, x, z, d, [v], lam=0.3)
            else:
                solve_sc_cov_inner(y, x, z, d, v, lam=0.3)

    @staticmethod
    def _engine(**kwargs):
        y, x = make_instance(2, n=10, p=4)
        args = {"eq_mat": np.ones((1, 4)), "eq_rhs": np.array([1.0]), "start": np.full(4, 0.25)}
        return simplex_ls(y, x, **{**args, **kwargs})

    def test_lin_of_the_wrong_length(self):
        with pytest.raises(ValueError, match=r"^lin has length 3, expected 4$"):
            self._engine(lin=np.ones(3))

    @pytest.mark.parametrize(
        "eq_mat, eq_rhs, n_rhs",
        [(np.ones((1, 3)), [1.0], 1), (np.ones((1, 4)), [1.0, 2.0], 2), (np.ones((1, 4)), None, 0)],
        ids=["eq_mat_too_narrow", "eq_rhs_too_long", "eq_rhs_missing"],
    )
    def test_extra_rows_of_the_wrong_shape(self, eq_mat, eq_rhs, n_rhs):
        with pytest.raises(ValueError, match=rf"^eq_mat shape \(1, {eq_mat.shape[1]}\) does not match "
                                             rf"{n_rhs} eq_rhs entries and 4 donors$"):
            self._engine(eq_mat=eq_mat, eq_rhs=eq_rhs)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "arg, value, where",
        [
            ("lin", np.array([0.0, 0.1, np.nan, 0.3]), " at row 2"),
            ("sum_to", np.nan, ""),
            ("eq_mat", np.array([[1.0, np.inf, 1.0, 1.0]]), " at row 0, column 1"),
            ("eq_rhs", np.array([np.nan]), " at row 0"),
        ],
    )
    def test_non_finite_argument_is_named(self, arg, value, where):
        with pytest.raises(ConfigurationError, match=rf"^{arg} has a non-finite entry \S+{where}$"):
            self._engine(**{arg: value})


def _cov_rows(p, z=None, d=None, v=None):
    """``(cov, inner)`` as ``_fit_grid`` forms them on ``p`` donors: the
    covariate data ``(z, d, r_tol)`` and the row sets of the weighting
    ``v``; without ``z``, a grid's with no covariate rows."""
    if z is None:
        return (np.zeros(0), np.zeros((0, p)), _COV_TOL), ((), (), None)
    z, d, (v,) = _cov_data(z, d, [v], p)
    cov = (z, d, _COV_TOL * (1.0 + _absmax(z)))
    return cov, _cov_inner(cov, v)


def _outer_fit(y, x, rows, lam, start=None, eq_rows=()):
    """``_outer_solve`` at ``lam`` with the covariate data and row sets
    ``rows`` (``_cov_rows``) on normal equations of its own, from a previous
    fit with weights ``start`` (None: no previous fit) and equality rows
    ``eq_rows``, with the fields of the ``ScFit`` its grid builds from it."""
    cov, inner = rows
    prev = None if start is None else (np.asarray(start, dtype=float), eq_rows)
    lin = 0.5 * lam * donor_sq_distances(y, x)
    cert, m_rows, eq_rows = _outer_solve(y, x, cov, inner, lin, prev, normal=_normal_equations(y, x))
    return SimpleNamespace(beta=cert.beta, kkt=cert, sets=ActiveSets(cert.support, m_rows, inner[0]),
                           cov_eq_rows=eq_rows)


class TestPenalizedPath:
    def test_start_never_changes_the_answer(self):
        y, x = make_instance(9, n=6, p=12)
        cold = solve_penalized_sc(y, x, 0.05)
        for seed in range(5):
            start = np.random.default_rng(seed).dirichlet(np.ones(12))
            warm = _outer_fit(y, x, _cov_rows(12), 0.05, start, cold.cov_eq_rows)
            np.testing.assert_allclose(warm.beta, cold.beta, rtol=0, atol=1e-12)
            assert warm.sets == cold.sets

    @pytest.mark.parametrize(
        "start",
        [
            [0.2, 0.0, 0.3, 0.5],  # other optimum: an inactive multiplier is zero
            [0.2, 0.25, 0.3, 0.25],  # both copies active: rank(X_A) < |A|
        ],
    )
    def test_warm_fit_with_non_unique_optimum_is_solved_cold(self, start):
        y, x = self._duplicated_instance()
        cold = solve_penalized_sc(y, x, 0.0)
        warm = _outer_fit(y, x, _cov_rows(4), 0.0, start, cold.cov_eq_rows)
        np.testing.assert_array_equal(warm.beta, cold.beta)
        assert warm.sets == cold.sets

    @staticmethod
    def _duplicated_instance():
        # donor 3 duplicates donor 1, so the optimum is not unique
        gen = np.random.default_rng(10)
        base = gen.normal(size=(8, 3))
        return base @ np.array([0.2, 0.5, 0.3]), np.column_stack([base, base[:, 1]])

    def test_a_previous_fit_that_is_not_unique_is_ignored(self, monkeypatch):
        # the walker starts nothing from it: the same solves, from the same
        # starts and with the same iterations, as with no previous fit
        y, x = self._duplicated_instance()
        prev = solve_penalized_sc(y, x, 0.3)
        assert not prev.kkt.unique
        y_near = y + 1e-3 * np.random.default_rng(1).normal(size=y.size)
        engine, calls = solvers.simplex_ls, []

        def counted(*args, **kwargs):
            cert = engine(*args, **kwargs)
            calls.append((kwargs.get("start") is None, cert.iterations))
            return cert

        monkeypatch.setattr(solvers, "simplex_ls", counted)
        runs = []
        for start in (None, prev):
            calls.clear()
            fits = _fit_grid(y_near, x, "penalized", tuning_grid("penalized", [0.0, 0.3]), prev=start)
            runs.append((list(calls), fits.beta))
        assert runs[1][0] == runs[0][0]
        np.testing.assert_array_equal(runs[1][1], runs[0][1])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), shape=st.sampled_from(["tall", "wide", "duplicated"]))
def test_grid_path_equals_pointwise_cold_solves(seed, shape):
    gen = np.random.default_rng(seed)
    y, x = random_design(gen, shape)
    lams = np.concatenate([[0.0], np.geomspace(0.0125, 10.0, int(gen.integers(3, 12)))])
    points = tuning_grid("penalized", gen.permutation(lams))
    for pt, fit in zip(points, _fit_grid(y, x, "penalized", points)):
        cold = solve_penalized_sc(y, x, pt.lam)
        np.testing.assert_allclose(fit.beta, cold.beta, rtol=0, atol=1e-12)
        assert fit.sets == cold.sets
        assert fit.kkt.satisfied()


class TestShortcuts:
    """The engine's cheaper forms of numpy and LAPACK calls give the same
    bits as the calls they replace."""

    @pytest.mark.parametrize(
        "v",
        [
            np.zeros(0),
            np.zeros((0, 3)),
            np.array([-0.0, 0.0]),
            np.array([1.5, -7.25, 3.0]),
            np.array([1.0, np.nan, -2.0]),
            np.array([np.inf, -1.0]),
            np.arange(-6.0, 6.0).reshape(3, 4),
            np.array([[0.5, np.nan], [-3.0, 1.0]]),
        ],
    )
    def test_absmax_is_numpy_max_of_abs(self, v):
        want = float(np.max(np.abs(v), initial=0.0))
        got = _absmax(v)
        assert type(got) is float
        np.testing.assert_array_equal(got, want)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    shape=st.sampled_from(["tall", "wide", "duplicated"]),
    n_rows=st.integers(0, 2),
    warm=st.booleans(),
)
def test_solve_on_shared_normal_equations_is_the_plain_solve(seed, shape, n_rows, warm):
    gen = np.random.default_rng(seed)
    y, x = random_design(gen, shape)
    w = gen.dirichlet(np.ones(x.shape[1]))
    d = gen.normal(size=(n_rows, x.shape[1]))
    rows = {"eq_mat": d, "eq_rhs": d @ w} if n_rows else {}
    start = w if warm or n_rows else None  # extra rows need a start
    normal = _normal_equations(y, x)
    kept = [normal.gram.copy(), normal.xty.copy()]

    def solve_both(lin, first, **eq):
        plain = simplex_ls(y, x, lin=lin, start=first, **eq)
        shared = simplex_ls(y, x, lin=lin, start=first, _normal=normal, **eq)
        for field in dataclasses.fields(KktCertificate):
            np.testing.assert_array_equal(getattr(shared, field.name), getattr(plain, field.name))
        return shared

    for lam in (0.0, 0.3, 3.0):
        lin = 0.5 * lam * donor_sq_distances(y, x)
        shared = solve_both(lin, start, **rows)
        if n_rows:
            # without the rows, from the face that solve ended on, as a
            # covariate fit whose rows are dropped is solved again
            solve_both(lin, shared.beta)
    # a path shares them: no solve may write to them, nor to the face factor it keeps
    for a, b in zip([normal.gram, normal.xty], kept):
        np.testing.assert_array_equal(a, b)
    for a in normal.face[1]:
        if a is not None and a.size:
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = 0.0


def test_a_warm_path_factors_a_recurring_face_once(monkeypatch):
    # each penalty's first face is the one the penalty before it ended on;
    # the path keeps that face's factorization, which does not depend on lam
    spec = synthetic_factor_spec(40, 48, r=1, seed=100, sigma_y=0.5, sigma_x=2.0)
    draw = draw_factor_gaussian(spec, 48, spawn_rng(0, 1))
    panel = PanelDataset(y=draw.y[:36], x=draw.x[:36], post_y=draw.y[36:], post_x=draw.x[36:])
    counts = {"factored": 0, "solved": 0}
    factor, finish = solvers._face_factor, solvers._face_finish

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(solvers, "_face_factor", counted("factored", factor))
    monkeypatch.setattr(solvers, "_face_finish", counted("solved", finish))
    select_lambda_ic(panel, "penalized")
    assert counts["solved"] > 0
    assert 2 * counts["factored"] <= counts["solved"]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    shape=st.sampled_from(["tall", "wide", "duplicated"]),
    n_rows=st.integers(0, 2),
)
def test_grid_path_is_bitwise_its_warm_solves_made_one_by_one(seed, shape, n_rows):
    # the path shares X'X, X'y and the factorization of the face a solve
    # ends on; each fit must equal the same warm solve made without any of
    # them.  With rows, a covariate path at one weighting whose targets the
    # donors fit exactly
    gen = np.random.default_rng(seed)
    y, x = random_design(gen, shape)
    lams = np.concatenate([[0.0], np.geomspace(0.0125, 10.0, int(gen.integers(3, 12)))])
    if n_rows:
        kind, d = "covariate", gen.normal(size=(n_rows, x.shape[1]))
        z, v = d @ gen.dirichlet(np.ones(x.shape[1])), gen.dirichlet(np.ones(n_rows))
        rows = _cov_rows(x.shape[1], z, d, v)
        fits = _fit_grid(y, x, kind, tuning_grid(kind, lams, v_grid=[v], n_cov=n_rows), z, d)
    else:
        kind, rows = "penalized", _cov_rows(x.shape[1])
        fits = _fit_grid(y, x, kind, tuning_grid(kind, lams))
    prev = None
    for lam, fit in sorted(zip(lams, fits), key=lambda pair: -pair[0]):
        alone = _outer_fit(y, x, rows, lam, *(() if prev is None else (prev.beta, prev.cov_eq_rows)))
        for got, want in [
            (fit.beta, alone.beta),
            (fit.kkt.mu, alone.kkt.mu),
            (fit.kkt.eq_multipliers, alone.kkt.eq_multipliers),
            (fit.kkt.stationarity_residual, alone.kkt.stationarity_residual),
            (fit.kkt.complementarity_gap, alone.kkt.complementarity_gap),
            (fit.kkt.iterations, alone.kkt.iterations),
            (fit.kkt.degenerate, alone.kkt.degenerate),
            (fit.kkt.face_dim, alone.kkt.face_dim),
            (fit.kkt.face_cols, alone.kkt.face_cols),
            (fit.kkt.unique, alone.kkt.unique),
            (fit.sets, alone.sets),
            (fit.cov_eq_rows, alone.cov_eq_rows),
        ]:
            np.testing.assert_array_equal(got, want)
        x_a = x[:, list(fit.sets.a)]
        e_a = _face_rows(fit.sets.a, fit.cov_eq_rows, d if n_rows else None)
        assert fit.kkt.face_dim == face_dim(x_a, e_a)
        g0 = x.T @ y - 0.5 * lam * donor_sq_distances(y, x)
        assert fit.kkt.unique == (not fit.kkt.degenerate and unique_optimum(x_a, e_a, fit.kkt.mu, g0))
        prev = fit


# ---------------------------------------------------------------------------
# plain synthetic control
# ---------------------------------------------------------------------------


class TestSolveSc:
    def test_exact_match_donor(self, rng):
        x = rng.normal(size=(8, 4))
        fit = solve_sc(x[:, 1].copy(), x)
        expected = np.zeros(4)
        expected[1] = 1.0
        np.testing.assert_allclose(fit.beta, expected, atol=1e-10)
        assert fit.rss == pytest.approx(0.0, abs=1e-18)
        assert fit.sets.a == (1,)

    def test_interior_convex_combination(self, rng):
        x = rng.normal(size=(6, 2))
        y = 0.5 * x[:, 0] + 0.5 * x[:, 1]
        fit = solve_sc(y, x)
        np.testing.assert_allclose(fit.beta, [0.5, 0.5], atol=1e-10)

    def test_objective_matches_refined_grid_oracle(self):
        gen = np.random.default_rng(3)
        y = gen.normal(size=6)
        x = gen.normal(size=(6, 3))
        fit = solve_sc(y, x)
        oracle_val, _ = simplex_grid_min(y, x, step=1e-3)
        assert 0.5 * fit.rss == pytest.approx(oracle_val, abs=1e-8)

    def test_fitted_and_residual_identities(self, rng):
        y, x = make_instance(1)
        fit = solve_sc(y, x)
        np.testing.assert_array_equal(fit.fitted, x @ fit.beta)
        np.testing.assert_array_equal(fit.residuals, y - fit.fitted)

    def test_certified_or_raises_on_a_wide_probe(self):
        # seed 42 of the ROADMAP probe generator: 46 donors, 8 periods
        g = np.random.default_rng(42)
        n, p = int(g.integers(5, 40)), int(g.integers(2, 60))
        x = g.normal(size=(n, p))
        y = x @ g.dirichlet(np.ones(p)) + 0.3 * g.normal(size=n)
        try:
            fit = solve_sc(y, x)
        except ConvergenceError:
            return
        assert fit.kkt.satisfied()


# ---------------------------------------------------------------------------
# penalized synthetic control
# ---------------------------------------------------------------------------


class TestPenalized:
    def test_wide_fold_with_a_singular_face_gram_is_certified_at_any_scale(self):
        # a 7-period fold of 300 donors, the abstract's regime: a face of 8
        # donors on 7 rows has a Gram singular to rounding (cond ~4e16),
        # though [X_F; 1'] has full column rank (cond(X_F) ~11), so the
        # face problem has one solution
        spec = synthetic_factor_spec(300, 24, r=1, seed=100, sigma_y=0.5, sigma_x=2.0)
        draw = draw_factor_gaussian(spec, 24, spawn_rng(0, 28))
        y, x = draw.y[:7], draw.x[:7]
        lam = selection.default_lambda_grid("penalized")[5]
        fit = solve_penalized_sc(y, x, lam)
        assert fit.kkt.satisfied()
        for c in (1e-3, 0.1, 10.0):
            np.testing.assert_allclose(solve_penalized_sc(c * y, c * x, lam).beta, fit.beta, rtol=0, atol=1e-12)

    def test_zero_penalty_equals_plain(self):
        y, x = make_instance(5)
        np.testing.assert_allclose(
            solve_penalized_sc(y, x, 0.0).beta, solve_sc(y, x).beta, atol=1e-12
        )

    def test_huge_penalty_selects_nearest_donor(self):
        y, x = make_instance(6, n=8, p=4)
        fit = solve_penalized_sc(y, x, 1e6)
        nearest = int(np.argmin(donor_sq_distances(y, x)))
        expected = np.zeros(4)
        expected[nearest] = 1.0
        np.testing.assert_allclose(fit.beta, expected, atol=1e-5)

    def test_objective_matches_grid_oracle(self):
        gen = np.random.default_rng(8)
        y = gen.normal(size=6)
        x = gen.normal(size=(6, 3))
        lam = 0.3
        lin = 0.5 * lam * donor_sq_distances(y, x)
        fit = solve_penalized_sc(y, x, lam)
        value = 0.5 * fit.rss + lin @ fit.beta
        oracle_val, _ = simplex_grid_min(y, x, lin=lin, step=1e-3)
        assert value == pytest.approx(oracle_val, abs=1e-8)

    def test_negative_penalty_rejected(self):
        y, x = make_instance(2)
        with pytest.raises(ConfigurationError):
            solve_penalized_sc(y, x, -0.1)

    @pytest.mark.parametrize("seed", range(6))
    def test_path_monotonicity(self, seed):
        y, x = make_instance(seed, n=9, p=5, noise=0.8)
        lams = [0.0, 0.05, 0.2, 0.8, 2.0, 8.0]
        fits = [solve_penalized_sc(y, x, lam) for lam in lams]
        rss = [f.rss for f in fits]
        pen = [f.beta @ f.donor_sq_distances for f in fits]
        for lo, hi in zip(rss, rss[1:]):
            assert hi >= lo - 1e-10
        for lo, hi in zip(pen, pen[1:]):
            assert hi <= lo + 1e-10


# ---------------------------------------------------------------------------
# matching and model averaging
# ---------------------------------------------------------------------------


class TestMatchingAndMasc:
    def test_single_match_is_nearest_donor(self):
        y, x = make_instance(9, n=7, p=5)
        w = matching_weights(y, x, 1)
        nearest = int(np.argmin(donor_sq_distances(y, x)))
        assert _active_set(w) == (nearest,)

    def test_all_donors_uniform(self):
        y, x = make_instance(10, p=4)
        np.testing.assert_allclose(matching_weights(y, x, 4), np.full(4, 0.25))

    def test_hand_built_distances(self):
        x = np.array([[1.0, 3.0, 2.0], [0.0, 0.0, 0.0]])
        w = matching_weights(np.zeros(2), x, 2)
        np.testing.assert_allclose(w, [0.5, 0.0, 0.5])

    def test_tie_on_mth_distance_keeps_lowest_index(self):
        x = np.array([[2.0, 1.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0]])
        w = matching_weights(np.zeros(2), x, 2)
        assert _active_set(w) == (1, 2)

    def test_m_out_of_range(self):
        y, x = make_instance(0, p=3)
        with pytest.raises(ConfigurationError):
            matching_weights(y, x, 0)
        with pytest.raises(ConfigurationError):
            matching_weights(y, x, 4)

    def test_masc_endpoints(self):
        y, x = make_instance(12)
        sc = solve_sc(y, x)
        ma = solve_matching(y, x, 2)
        np.testing.assert_allclose(solve_masc(y, x, 0.0, 2).beta, sc.beta, atol=1e-14)
        np.testing.assert_allclose(solve_masc(y, x, 1.0, 2).beta, ma.beta, atol=1e-14)

    def test_masc_midpoint_is_mean_of_component_fits(self):
        y, x = make_instance(13)
        fit = solve_masc(y, x, 0.5, 2)
        combined = 0.5 * solve_matching(y, x, 2).fitted + 0.5 * solve_sc(y, x).fitted
        np.testing.assert_allclose(fit.fitted, combined, atol=1e-12, rtol=0.0)

    @pytest.mark.parametrize("lam", [0.0, 0.25, 0.6, 1.0])
    def test_masc_exact_linearity(self, lam):
        y, x = make_instance(14, n=12, p=6)
        fit = solve_masc(y, x, lam, 3)
        target = lam * solve_matching(y, x, 3).fitted + (1 - lam) * solve_sc(y, x).fitted
        assert np.max(np.abs(fit.fitted - target)) == 0.0

    def test_averaging_weight_checked_before_the_component_solves(self):
        y, x = make_instance(15, p=3)
        with pytest.raises(ConfigurationError, match="averaging weight"):
            solve_masc(y, x, 1.5, 99)


# ---------------------------------------------------------------------------
# covariate estimator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n_cov", [1, 2, 3, 4, 8, 9])
def test_default_v_grid_is_vertices_barycenter_then_quarter_lattice(n_cov):
    """The vertices, the barycenter and, up to eight rows, every diagonal of
    quarters summing to one in lexicographic order, each weighting once."""
    want = [*np.eye(n_cov), np.full(n_cov, 1.0 / n_cov)]
    if n_cov <= 8:
        want += [np.array(c) / 4 for c in itertools.product(range(5), repeat=n_cov) if sum(c) == 4]
    keys = [tuple(np.round(v, 12)) for v in want]
    want = [v for i, v in enumerate(want) if keys[i] not in keys[:i]]
    got = default_v_grid(n_cov)
    assert len(got) == len(want)
    assert all(g.dtype == np.float64 and np.array_equal(g, v) for g, v in zip(got, want))


class TestCovariate:
    def test_no_covariate_rows_reduce_to_plain(self):
        y, x = make_instance(20)
        fit = solve_sc_cov_inner(y, x, np.zeros(0), np.zeros((0, x.shape[1])), np.zeros(0))
        np.testing.assert_allclose(fit.beta, solve_sc(y, x).beta, atol=1e-12)
        assert fit.kind == "covariate"

    def test_single_binding_row_with_unique_point(self, rng):
        x = rng.normal(size=(6, 2))
        y = rng.normal(size=6)
        d = np.array([[0.0, 1.0], [5.0, -1.0]])
        z = np.array([0.3, 123.0])
        v = np.array([1.0, 0.0])
        fit = solve_sc_cov_inner(y, x, z, d, v)
        np.testing.assert_allclose(fit.beta, [0.7, 0.3], atol=1e-10)
        assert fit.sets.e == (0,)

    def test_many_unfit_rows_reduce_to_plain_on_active_set(self, rng):
        x = rng.normal(size=(10, 5))
        y = x[:, 2] + 0.05 * rng.normal(size=10)
        beta_probe = np.full(5, 0.2)
        d = rng.normal(size=(3, 5))
        z = d @ beta_probe + 9.0
        fit = solve_sc_cov_inner(y, x, z, d, np.full(3, 1 / 3))
        assert len(fit.sets.m_and_e) >= len(fit.sets.a) - 1
        a = list(fit.sets.a)
        restricted = solve_sc(y, x[:, a])
        np.testing.assert_allclose(fit.beta[a], restricted.beta, atol=1e-8)

    def test_exactly_fit_rows_become_equalities(self, rng):
        x = rng.normal(size=(12, 6))
        w_true = np.array([0.3, 0.25, 0.2, 0.15, 0.05, 0.05])
        y = x @ w_true + 0.3 * rng.normal(size=12)
        d = rng.normal(size=(2, 6))
        z = d @ w_true
        fit = solve_sc_cov_inner(y, x, z, d, np.array([0.6, 0.4]))
        np.testing.assert_allclose(d @ fit.beta, z, atol=1e-9)
        assert fit.sets.e_minus_m == (0, 1)
        assert fit.cov_eq_rows == (0, 1)

    def test_small_exact_row_beside_a_large_covariate(self):
        # row 1 counts as exactly fit under a residual tolerance scaled by
        # the large target of row 0, with an inner residual far above the
        # rounding level of row 1 itself; the outer solve still starts from
        # the inner solution and lands on the row
        gen = np.random.default_rng(0)
        x = gen.normal(size=(8, 3))
        y = x @ np.array([0.2, 0.3, 0.5]) + 0.1 * gen.normal(size=8)
        d = np.array([[1e6, 1e6 + 1.0, 1e6 + 2.0], [0.0, 1.0, 2.0]])
        z = np.array([1.5e6, 1.0])
        v = np.array([3e-8, 1.0 - 3e-8])
        sqrt_v = np.sqrt(v)
        inner = simplex_ls(sqrt_v * z, sqrt_v[:, None] * d)
        assert 1e-6 < float(d[1] @ inner.beta) - z[1] <= 1e-8 * (1.0 + z[0])
        fit = solve_sc_cov_inner(y, x, z, d, v)
        assert fit.cov_eq_rows == (1,)
        assert fit.kkt.satisfied()
        ref, _, _ = kkt_lstsq_solve(
            x.T @ x, x.T @ y, np.vstack([np.ones(3), d[1]]), np.array([1.0, z[1]])
        )
        assert np.all(ref > 0)
        np.testing.assert_allclose(fit.beta, ref, rtol=0, atol=1e-10)

    def test_weighting_is_checked_without_covariate_rows(self):
        y, x = make_instance(20)
        no_rows = (np.zeros(0), np.zeros((0, x.shape[1])))
        with pytest.raises(ConfigurationError, match="length does not match"):
            solve_sc_cov_inner(y, x, *no_rows, np.array([np.nan, -3.0]))
        with pytest.raises(ConfigurationError, match="length does not match"):
            solve_sc_cov(y, x, *no_rows, [np.zeros(0), np.array([0.5])])

    def test_all_weights_zero_rejected(self, rng):
        x = rng.normal(size=(6, 3))
        with pytest.raises(ConfigurationError):
            solve_sc_cov_inner(rng.normal(size=6), x, np.zeros(2), np.ones((2, 3)), np.zeros(2))

    @pytest.mark.parametrize("lam", [-0.5, np.nan, np.inf])
    @pytest.mark.parametrize("n_cov", [0, 2])
    def test_invalid_penalty_rejected_with_and_without_rows(self, lam, n_cov):
        y, x = make_instance(24, n=10, p=5)
        d = np.random.default_rng(24).normal(size=(n_cov, 5))
        v = np.full(n_cov, 0.5)
        with pytest.raises(ConfigurationError, match="penalty parameter"):
            solve_sc_cov_inner(y, x, d @ np.full(5, 0.2), d, v, lam=lam)

    def test_invalid_penalty_rejected_by_grid_search_and_selection(self):
        y, x = make_instance(25, n=10, p=5)
        d = np.random.default_rng(25).normal(size=(2, 5))
        z = d @ np.full(5, 0.2)
        with pytest.raises(ConfigurationError, match="penalty parameter"):
            solve_sc_cov(y, x, z, d, default_v_grid(2), lam=-0.5)
        panel = PanelDataset(y=y, x=x, z=z, d=d)
        for grid in ([-0.5, 0.0], [0.0, np.nan]):
            with pytest.raises(ConfigurationError, match="penalty parameter"):
                select_v_ic(panel, default_v_grid(2), grid)

    def test_grid_singleton_matches_inner(self, rng):
        x = rng.normal(size=(8, 4))
        y = rng.normal(size=8)
        d = rng.normal(size=(2, 4))
        z = d @ np.full(4, 0.25)
        v = np.array([0.5, 0.5])
        best = solve_sc_cov(y, x, z, d, [v])
        inner = solve_sc_cov_inner(y, x, z, d, v)
        np.testing.assert_allclose(best.beta, inner.beta, atol=1e-14)

    def test_grid_selects_rss_dominating_weighting(self, rng):
        x = rng.normal(size=(10, 4))
        w_true = np.array([0.4, 0.3, 0.2, 0.1])
        y = x @ w_true
        d = rng.normal(size=(2, 4))
        # row 0 is consistent with the outcome-optimal weights; row 1's
        # target is donor 3's value, which they miss, so pinning it costs
        # RSS beyond rounding
        z = np.array([float(d[0] @ w_true), float(d[1, 3])])
        grid = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        best = solve_sc_cov(y, x, z, d, grid)
        assert solve_sc_cov(y, x, z, d, grid[1:]).rss > 1e-3
        np.testing.assert_array_equal(best.v, grid[0])
        assert best.rss == pytest.approx(0.0, abs=1e-16)

    def test_tie_breaks_to_lexicographically_smaller_v(self, rng):
        x = rng.normal(size=(8, 3))
        w_true = np.array([0.5, 0.3, 0.2])
        y = x @ w_true
        d = rng.normal(size=(2, 3))
        z = d @ w_true
        grid = [np.array([0.5, 0.5]), np.array([0.25, 0.75])]
        best = solve_sc_cov(y, x, z, d, grid)
        np.testing.assert_array_equal(best.v, np.array([0.25, 0.75]))

    def test_empty_grid_rejected(self, rng):
        x = rng.normal(size=(6, 3))
        with pytest.raises(ConfigurationError):
            solve_sc_cov(rng.normal(size=6), x, np.zeros(1), np.ones((1, 3)), [])

    def test_default_v_grid_contents(self):
        grid = default_v_grid(2)
        as_tuples = {tuple(np.round(v, 6)) for v in grid}
        assert (1.0, 0.0) in as_tuples
        assert (0.5, 0.5) in as_tuples
        assert (0.25, 0.75) in as_tuples
        for v in grid:
            assert v.sum() == pytest.approx(1.0)


class TestCovariatePath:
    def _duplicated_instance(self):
        # donor 3 duplicates donor 1 in the outcome and in both covariate
        # rows; row 0 is fit exactly, row 1 is the same for every donor and
        # cannot be fit, so row 0 is the one outer equality row
        gen = np.random.default_rng(10)
        base = gen.normal(size=(8, 3))
        x = np.column_stack([base, base[:, 1]])
        w = np.array([0.2, 0.5, 0.3])
        d_base = np.vstack([gen.normal(size=3), np.ones(3)])
        d = np.column_stack([d_base, d_base[:, 1]])
        z = np.array([d_base[0] @ w, 5.0])
        return base @ w, x, z, d, np.array([0.7, 0.3])

    @pytest.mark.parametrize(
        "start",
        [
            [0.2, 0.0, 0.3, 0.5],  # other optimum: an inactive multiplier is zero
            [0.2, 0.25, 0.3, 0.25],  # both copies active: rank(X_A) < |A|
        ],
    )
    def test_warm_fit_with_non_unique_optimum_restarts_from_the_inner_solution(self, start):
        y, x, z, d, v = self._duplicated_instance()
        rows = _cov_rows(x.shape[1], z, d, v)
        assert rows[1][1] == (0,)  # the exactly-fit rows
        cold = solve_sc_cov_inner(y, x, z, d, v)
        warm = _outer_fit(y, x, rows, 0.0, start, cold.cov_eq_rows)
        np.testing.assert_array_equal(warm.beta, cold.beta)
        assert warm.sets == cold.sets
        assert warm.cov_eq_rows == cold.cov_eq_rows == (0,)

    def test_path_across_the_reduction_equals_pointwise_cold_solves(self):
        # rows 1 and 2 are the same for every donor and never fit, so the
        # fit reduces to the plain estimator wherever at most three donors
        # are active: at the large penalties, not at the small ones
        gen = np.random.default_rng(0)
        x = gen.normal(size=(10, 6))
        w = gen.dirichlet(np.ones(6))
        y = x @ w + 0.3 * gen.normal(size=10)
        d = np.vstack([gen.normal(size=6), np.ones(6), 2.0 * np.ones(6)])
        z = np.array([d[0] @ w, 3.0, -1.0])
        v = np.array([0.5, 0.25, 0.25])
        lams = np.concatenate([[0.0], np.geomspace(0.0125, 10.0, 9)])
        _, (_, exact_rows, _) = _cov_rows(x.shape[1], z, d, v)
        fits = _fit_grid(y, x, "covariate", tuning_grid("covariate", lams, v_grid=[v], n_cov=3), z, d)
        reduced = [fit.kkt.degenerate for fit in fits]
        assert exact_rows == (0,)
        assert reduced[-1] and not reduced[0]
        for lam, fit in zip(lams, fits):
            cold = solve_sc_cov_inner(y, x, z, d, v, lam=lam)
            np.testing.assert_array_equal(fit.beta, cold.beta)
            assert fit.cov_eq_rows == cold.cov_eq_rows == (() if fit.kkt.degenerate else (0,))
            if fit.kkt.degenerate:
                # the penalized solve it repeats pins its optimum, but a fit
                # whose rows were dropped is never a start to keep or share
                assert solve_penalized_sc(y, x, lam).kkt.unique and not fit.kkt.unique

    @staticmethod
    def _count_solves(monkeypatch):
        """Counts, as they run, of inner solves (engine calls without
        ``_normal``), outer engine calls and outer paths (outer solves with
        no previous fit)."""
        counts = {"inner": 0, "outer": 0, "paths": 0}
        engine, outer = solvers.simplex_ls, solvers._outer_solve

        def counted_engine(*args, **kwargs):
            counts["outer" if "_normal" in kwargs else "inner"] += 1
            return engine(*args, **kwargs)

        def counted_outer(y, x, cov, inner, lin, prev, **kwargs):
            counts["paths"] += prev is None
            return outer(y, x, cov, inner, lin, prev, **kwargs)

        monkeypatch.setattr(solvers, "simplex_ls", counted_engine)
        monkeypatch.setattr(solvers, "_outer_solve", counted_outer)
        return counts

    def test_a_covariate_grid_takes_its_data_once(self, monkeypatch):
        # z and d are checked and the donor distances formed once for the
        # grid, not once per weighting of default_v_grid(3)
        y, x = make_instance(11, n=12, p=8)
        d = np.random.default_rng(11).normal(size=(3, 8))
        distances, checked = [], []
        sq_dist, check = solvers.donor_sq_distances, solvers._check_finite
        monkeypatch.setattr(solvers, "donor_sq_distances", lambda *a: distances.append(1) or sq_dist(*a))
        monkeypatch.setattr(solvers, "_check_finite", lambda name, a: checked.append(name) or check(name, a))
        grid = tuning_grid("covariate", [0.0, 0.3], n_cov=3)
        fits = _fit_grid(y, x, "covariate", grid, d @ np.full(8, 0.125), d)
        assert len(fits.grid.vs) == 16
        assert len(distances) == 1
        assert checked.count("covariate target") == checked.count("covariate matrix") == 1

    def test_weightings_with_the_same_rows_solve_one_outer_path(self, monkeypatch):
        # every target is the donors' value at one simplex weighting, so each
        # weighting fits all its weighted rows: the 16 weightings of
        # default_v_grid(3) pose one outer problem per nonempty row set, 7
        y, x = make_instance(11, n=12, p=8)
        gen = np.random.default_rng(11)
        d = gen.normal(size=(3, 8))
        z = d @ gen.dirichlet(np.ones(8))
        lams = [0.0, 0.3, 2.0]
        v_grid = default_v_grid(3)
        points = tuning_grid("covariate", lams, v_grid=v_grid, n_cov=3)
        counts = self._count_solves(monkeypatch)
        fits = _fit_grid(y, x, "covariate", points, z, d)
        assert counts == {"inner": 16, "outer": 7 * len(lams), "paths": 7}
        assert len({(fit.sets.e, fit.cov_eq_rows) for fit in fits}) == 7
        counts.update(inner=0, outer=0, paths=0)
        solve_sc_cov(y, x, z, d, v_grid, lam=0.3)
        assert counts == {"inner": 16, "outer": 7, "paths": 7}

    def test_weightings_at_a_non_unique_optimum_share_nothing(self, monkeypatch):
        y, x, z, d, _ = self._duplicated_instance()
        lams = [0.0, 0.3, 2.0]
        v_grid = default_v_grid(2)
        points = tuning_grid("covariate", lams, v_grid=v_grid, n_cov=2)
        inners = [_cov_rows(x.shape[1], z, d, v)[1] for v in v_grid]
        # three of the five weightings pose the same outer problem
        assert len({(e_rows, exact_rows) for e_rows, exact_rows, _ in inners}) == 3
        counts = self._count_solves(monkeypatch)
        fits = _fit_grid(y, x, "covariate", points, z, d)
        assert counts["inner"] == counts["paths"] == len(v_grid)
        counts.update(paths=0)
        solve_sc_cov(y, x, z, d, v_grid)
        assert counts["paths"] == len(v_grid)
        monkeypatch.undo()
        for pt, fit in zip(points, fits):
            _assert_same_fit(fit, solve_sc_cov_inner(y, x, z, d, np.asarray(pt.v), lam=pt.lam))


@pytest.mark.filterwarnings("ignore:donor columns are exact duplicates")
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), shape=st.sampled_from(["tall", "wide", "duplicated"]))
def test_v_path_equals_pointwise_cold_solves(seed, shape):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(5, 20))
    p = int(gen.integers(n + 1, 3 * n)) if shape == "wide" else int(gen.integers(2, n))
    x = gen.normal(size=(n, p))
    n_cov = int(gen.integers(1, 4))
    d = gen.normal(size=(n_cov, p))
    if shape == "duplicated":
        copies = gen.integers(0, p, size=2)
        x = np.column_stack([x, x[:, copies]])
        d = np.column_stack([d, d[:, copies]])
    w = gen.dirichlet(np.ones(x.shape[1]))
    y = x @ w + 0.3 * gen.normal(size=n)
    # each covariate row is fit by the true weights, shifted off them, or
    # the same for every donor (never fit, and no pull on the inner solution)
    kinds = gen.choice(["exact", "shifted", "constant"], size=n_cov)
    d[kinds == "constant"] = 1.0
    z = d @ w + np.where(kinds == "exact", 0.0, 2.0)
    lams = gen.permutation(np.concatenate([[0.0], np.geomspace(0.0125, 10.0, int(gen.integers(3, 9)))]))
    v_grid = default_v_grid(n_cov)  # vertices put zero weight on rows
    scores = select_v_ic(PanelDataset(y=y, x=x, z=z, d=d), v_grid, lams, sigma2=1.0).scores
    cold_scores = []
    for v in v_grid:
        path = _fit_grid(y, x, "covariate", tuning_grid("covariate", lams, v_grid=[v], n_cov=n_cov), z, d)
        for lam, fit in zip(lams, path):
            cold = solve_sc_cov_inner(y, x, z, d, v, lam=lam)
            np.testing.assert_allclose(fit.beta, cold.beta, rtol=0, atol=1e-12)
            assert fit.sets == cold.sets
            assert fit.cov_eq_rows == cold.cov_eq_rows
            assert fit.kkt.degenerate == cold.kkt.degenerate
            assert fit.kkt.satisfied()
            cold_scores.append(ic_value(cold.rss, 1.0, df_hat(cold).df_hat))
    np.testing.assert_array_equal(scores, cold_scores)


def _assert_same_solve(got, want):
    np.testing.assert_array_equal(got.beta, want.beta)
    assert got.sets == want.sets
    for field in dataclasses.fields(KktCertificate):
        np.testing.assert_array_equal(getattr(got.kkt, field.name), getattr(want.kkt, field.name))


def _assert_same_fit(got, want):
    """The same optimum, bit for bit, however many iterations reached it."""
    np.testing.assert_array_equal(got.beta, want.beta)
    assert got.sets == want.sets
    assert got.cov_eq_rows == want.cov_eq_rows
    assert (got.kkt.face_dim, got.kkt.face_cols) == (want.kkt.face_dim, want.kkt.face_cols)
    np.testing.assert_array_equal(got.kkt.mu, want.kkt.mu)
    assert got.kkt.degenerate == want.kkt.degenerate


def _cov_design(gen, shape):
    """A "tall", "wide" or "duplicated" draw, as ``random_design`` makes
    them, with 1-3 covariate rows that duplicate with their donors.  Each
    row's target is the true weights' value, inside the donors' hull, or 1
    above every donor's value, outside it."""
    n = int(gen.integers(5, 20))
    p = int(gen.integers(n + 1, 3 * n)) if shape == "wide" else int(gen.integers(2, n))
    x = gen.normal(size=(n, p))
    d = gen.normal(size=(int(gen.integers(1, 4)), p))
    if shape == "duplicated":
        copies = gen.integers(0, p, size=2)
        x = np.column_stack([x, x[:, copies]])
        d = np.column_stack([d, d[:, copies]])
    w = gen.dirichlet(np.ones(x.shape[1]))
    y = x @ w + 0.3 * gen.normal(size=n)
    z = np.where(gen.random(d.shape[0]) < 0.3, d.max(axis=1) + 1.0, d @ w)
    return y, x, z, d


_COV_LAMS = [0.0, 0.05, 0.3, 2.0]


@pytest.mark.filterwarnings("ignore:donor columns are exact duplicates")
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), shape=st.sampled_from(["tall", "wide", "duplicated"]))
def test_every_weighting_gets_its_own_fit_from_a_shared_path(seed, shape):
    # weightings with the same weighted and exactly-fit rows share one outer
    # path; each point's fit is still its own weighting's solve
    y, x, z, d = _cov_design(np.random.default_rng(seed), shape)
    v_grid = default_v_grid(d.shape[0])
    points = tuning_grid("covariate", _COV_LAMS, v_grid=v_grid, n_cov=d.shape[0])
    for pt, fit in zip(points, _fit_grid(y, x, "covariate", points, z, d)):
        _assert_same_fit(fit, solve_sc_cov_inner(y, x, z, d, np.asarray(pt.v), lam=pt.lam))
        np.testing.assert_array_equal(fit.v, pt.v)
    for lam in _COV_LAMS:
        got = solve_sc_cov(y, x, z, d, v_grid, lam=lam)
        want = min((solve_sc_cov_inner(y, x, z, d, v, lam=lam) for v in v_grid),
                   key=lambda fit: (fit.rss, tuple(fit.v)))
        _assert_same_fit(got, want)
        np.testing.assert_array_equal(got.v, want.v)


@pytest.mark.filterwarnings("ignore:donor columns are exact duplicates")
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), shape=st.sampled_from(["tall", "wide", "duplicated"]))
def test_rows_outside_the_donors_hull_leave_the_penalized_fit(seed, shape):
    # no simplex weight reaches a target above every donor's value, so the
    # inner solution fits no row and the outer solve drops every row rather
    # than holding it at its inner fitted value
    y, x, _, d = _cov_design(np.random.default_rng(seed), shape)
    z = d.max(axis=1) + 1.0
    v_grid = default_v_grid(d.shape[0])
    points = tuning_grid("covariate", _COV_LAMS, v_grid=v_grid, n_cov=d.shape[0])
    for pt, on_grid in zip(points, _fit_grid(y, x, "covariate", points, z, d)):
        penalized = solve_penalized_sc(y, x, pt.lam)
        alone = solve_sc_cov_inner(y, x, z, d, np.asarray(pt.v), lam=pt.lam)
        assert alone.cov_eq_rows == on_grid.cov_eq_rows == ()
        np.testing.assert_array_equal(alone.beta, penalized.beta)
        np.testing.assert_array_equal(on_grid.beta, penalized.beta)


@pytest.mark.filterwarnings("ignore:donor columns are exact duplicates")
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), shape=st.sampled_from(["tall", "wide", "duplicated"]))
def test_covariate_fit_with_only_vacuous_rows_is_the_penalized_fit(seed, shape):
    # a zero donor row with a zero target constrains nothing: the covariate
    # fit is the outer solve with no rows, which is the penalized fit
    gen = np.random.default_rng(seed)
    y, x = random_design(gen, shape)
    n_cov = int(gen.integers(1, 4))
    z, d, v = np.zeros(n_cov), np.zeros((n_cov, x.shape[1])), gen.dirichlet(np.ones(n_cov))
    lams = gen.permutation(np.concatenate([[0.0], np.geomspace(0.0125, 10.0, int(gen.integers(3, 9)))]))
    path = _fit_grid(y, x, "covariate", tuning_grid("covariate", lams, v_grid=[v], n_cov=n_cov), z, d)
    grid = _fit_grid(y, x, "penalized", tuning_grid("penalized", lams))
    for lam, fit, on_grid in zip(lams, path, grid):
        alone = solve_sc_cov_inner(y, x, z, d, v, lam=lam)
        penalized = solve_penalized_sc(y, x, lam)
        assert alone.kind == fit.kind == "covariate"
        assert alone.cov_eq_rows == fit.cov_eq_rows == ()
        _assert_same_solve(alone, penalized)
        _assert_same_solve(fit, on_grid)


# ---------------------------------------------------------------------------
# active sets
# ---------------------------------------------------------------------------


class TestActiveSets:
    def test_exact_zeros(self):
        assert _active_set(np.array([0.5, 0.5, 0.0])) == (0, 1)

    def test_below_threshold_entries_excluded(self):
        assert _active_set(np.array([1 - 1e-12, 1e-12, 0.0])) == (0,)

    def test_duplicate_donor_instance_stable_across_resolves(self):
        gen = np.random.default_rng(77)
        base = gen.normal(size=(8, 3))
        x = np.column_stack([base, base[:, 0]])  # exact duplicate donor
        y = base @ np.array([0.5, 0.3, 0.2]) + 0.1 * gen.normal(size=8)
        with pytest.warns(UserWarning):
            from synthsel.panel import PanelDataset

            PanelDataset(y=y, x=x)
        supports = {solve_sc(y, x).sets.a for _ in range(10)}
        assert len(supports) == 1

    def test_active_tol_is_the_default_of_beta_for_every_fit_kind(self):
        y, x = make_instance(21, n=12, p=6)
        gen = np.random.default_rng(21)
        d = gen.normal(size=(2, 6))
        z = d @ gen.dirichlet(np.ones(6))
        fits = [
            solve_sc(y, x),
            solve_penalized_sc(y, x, 0.4),
            solve_matching(y, x, 3),
            solve_masc(y, x, 0.3, 2),
            solve_sc_cov_inner(y, x, z, d, np.array([0.6, 0.4]), lam=0.1),
        ]
        assert [fit.kind for fit in fits] == ["plain", "penalized", "matching", "masc", "covariate"]
        for fit in fits:
            assert fit.active_tol == fit.weights.active_tol == default_active_tol(fit.beta)
            assert _active_set(fit.beta) == tuple(np.flatnonzero(fit.beta > fit.active_tol))


# ---------------------------------------------------------------------------
# pivoted-QR rank
# ---------------------------------------------------------------------------


def _rank_matrices():
    gen = np.random.default_rng(5)
    for n, p in [(1, 1), (3, 7), (7, 3), (12, 12), (40, 9)]:
        yield pytest.param(gen.normal(size=(n, p)), id=f"random-{n}x{p}")
        collinear = gen.normal(size=(n, p))
        collinear[:, -1] = 2.0 * collinear[:, 0] - collinear[:, p // 2]
        yield pytest.param(collinear, id=f"collinear-{n}x{p}")
        yield pytest.param(np.zeros((n, p)), id=f"zero-{n}x{p}")
    low = gen.normal(size=(15, 2)) @ gen.normal(size=(2, 8))
    yield pytest.param(low, id="rank-two")
    yield pytest.param(np.column_stack([low, 1e-12 * gen.normal(size=15)]), id="below-the-cut")


@pytest.mark.parametrize("mat", list(_rank_matrices()))
def test_qr_rank_matches_scipy_pivoted_qr(mat):
    import scipy.linalg

    r_mat, piv = scipy.linalg.qr(mat, mode="r", pivoting=True, check_finite=False)
    diag = np.abs(np.diag(r_mat))
    expected = int(np.sum(diag > 1e-10 * diag[0])) if diag[0] > 0 else 0
    rank, pivots = _qr_rank(mat)
    assert rank == expected
    np.testing.assert_array_equal(pivots, piv)


def _kernel_outputs(geqp3, ormqr, trtrs):
    """R, pivots, Q-products and triangular solves of a few matrices,
    through the given LAPACK kernels."""
    gen = np.random.default_rng(11)
    out = []
    for n, p in [(3, 7), (7, 3), (12, 12), (40, 9)]:
        mat = gen.normal(size=(n, p))
        mat[:, -1] = mat[:, 0] - mat[:, p // 2]
        lwork = int(geqp3(np.zeros(mat.shape), lwork=-1)[3][0])
        qr, piv, tau = geqp3(mat, lwork=lwork)[:3]
        out.extend([qr, piv, ormqr("L", "T", qr[:, : tau.shape[0]], tau, gen.normal(size=n), 1)[0]])
        tri = np.triu(gen.normal(size=(p, p))) + 3 * np.eye(p)
        rhs = gen.normal(size=(p, 2))
        out.extend([trtrs(tri, rhs)[0], trtrs(tri, rhs, trans=1)[0]])
    return out


def test_lapack_kernels_are_scipys_when_loaded_first():
    # synthsel loads scipy's compiled LAPACK module before scipy.linalg is
    # imported; the package's own kernels must give the same bits after it
    code = "\n".join([
        inspect.getsource(_kernel_outputs),
        "import sys",
        "import numpy as np",
        "from synthsel import solvers",
        "assert 'scipy.linalg' not in sys.modules",
        "import scipy.linalg",
        "from scipy.linalg import lapack",
        "assert scipy.linalg._flapack.dgeqp3 is lapack.dgeqp3",
        "mine = _kernel_outputs(solvers._geqp3, solvers._ormqr, solvers._trtrs)",
        "theirs = _kernel_outputs(lapack.dgeqp3, lapack.dormqr, lapack.dtrtrs)",
        "assert all(np.array_equal(a, b) for a, b in zip(mine, theirs, strict=True))",
        "mat = np.random.default_rng(2).normal(size=(9, 14))",
        "_, piv = scipy.linalg.qr(mat, mode='r', pivoting=True)",
        "assert np.array_equal(solvers._qr_rank(mat)[1], piv)",
    ])
    env = {**os.environ, "PYTHONPATH": str(Path(solvers.__file__).resolve().parents[1])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_lapack_kernels_reuse_a_loaded_module_or_fall_back(monkeypatch):
    from scipy.linalg import lapack

    public = (lapack.dgeqp3, lapack.dormqr, lapack.dtrtrs)
    assert solvers._lapack_kernels() == public
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    monkeypatch.setattr(importlib.util, "find_spec", lambda name, package=None: None)
    with pytest.raises(ImportError):
        solvers._load_flapack()
    fallback = solvers._lapack_kernels()
    monkeypatch.undo()
    assert fallback == public
    mine = _kernel_outputs(solvers._geqp3, solvers._ormqr, solvers._trtrs)
    for a, b in zip(mine, _kernel_outputs(*fallback), strict=True):
        np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# engine-level invariants
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_every_solve_is_feasible_and_kkt_certified(seed):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(4, 12))
    p = int(gen.integers(1, 9))
    x = gen.normal(size=(n, p))
    y = gen.normal(size=n)
    lam = float(gen.uniform(0, 2))
    for fit in (solve_sc(y, x), solve_penalized_sc(y, x, lam)):
        assert fit.kkt.satisfied(1e-8)
        assert fit.beta.sum() == pytest.approx(1.0, abs=1e-10)
        assert fit.beta.min() >= -1e-12
        assert len(fit.sets.a) >= 1


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_oracle_dominance_small_instances(seed):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(4, 9))
    p = int(gen.integers(1, 4))
    x = gen.normal(size=(n, p))
    y = gen.normal(size=n)
    fit = solve_sc(y, x)
    oracle_val, _ = simplex_grid_min(y, x, step=5e-3, rounds=3)
    assert 0.5 * fit.rss <= oracle_val + 1e-8


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_wide_instances_stay_certified(seed):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(5, 15))
    p = int(gen.integers(n + 1, 4 * n))
    x = gen.normal(size=(n, p))
    y = gen.normal(size=n)
    lam = float(gen.choice([0.0, 0.01, 0.5]))
    fit = solve_penalized_sc(y, x, lam)
    assert fit.kkt.satisfied(1e-8)
    assert fit.beta.min() >= -1e-12
    assert fit.beta.sum() == pytest.approx(1.0, abs=1e-10)


def test_sum_constraint_target_is_respected():
    gen = np.random.default_rng(4)
    x = gen.normal(size=(12, 6))
    y = gen.normal(size=12)
    for target in (0.5, 1.0, 2.0):
        res = simplex_ls(y, x, sum_to=target)
        assert res.beta.sum() == pytest.approx(target, abs=1e-10)
        assert res.beta.min() >= -1e-12


def test_weights_all_below_the_support_threshold_leave_an_empty_face():
    # at a tiny sum several donors end free, at weights under the support
    # threshold: the support, and so the face the certificate records, is
    # empty
    x = np.random.default_rng(4).normal(size=(12, 6))
    res = simplex_ls(np.zeros(12), x, sum_to=1e-9)
    assert np.count_nonzero(res.beta) > 1 and _active_set(res.beta) == ()
    assert (res.face_dim, res.face_cols, res.unique) == (0, 0, False)


@pytest.mark.parametrize("kind", ["plain", "penalized", "masc"])
def test_active_set_local_stability(kind):
    stable = 0
    trials = 60
    for t in range(trials):
        y, x = make_instance(1000 + t, n=10, p=5, noise=0.6)
        if kind == "plain":
            fit = lambda yy: solve_sc(yy, x)
        elif kind == "penalized":
            fit = lambda yy: solve_penalized_sc(yy, x, 0.2)
        else:
            fit = lambda yy: solve_masc(yy, x, 0.3, 2)
        base = fit(y).sets
        gen = np.random.default_rng(50_000 + t)
        delta = gen.normal(size=y.shape)
        delta *= 1e-7 * np.linalg.norm(y) / np.linalg.norm(delta)
        if fit(y + delta).sets == base:
            stable += 1
    assert stable >= 0.95 * trials
