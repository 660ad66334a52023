import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from synthsel import cli, simulation, solvers
from synthsel.dof import df_hat, divergence, divergence_fd_oracle
from synthsel.errors import ConfigurationError, ConvergenceError, PanelParseError
from synthsel.io import (
    LoadedPanel,
    load_panel,
    moving_average,
    preprocess,
    preprocess_loaded,
    to_jsonable,
    write_benchmark_csv,
    write_panel_csv,
)
from synthsel.panel import PanelDataset
from synthsel.selection import cv_holdout, default_lambda_grid, select_lambda_ic, tuning_grid
from synthsel.simulation import BenchmarkReport, MethodResult
from synthsel.solvers import _fit_grid, solve_masc, solve_penalized_sc, solve_sc, solve_sc_cov_inner

from conftest import random_design
from oracles import face_dim


def _write_panel(path, times, header, rows):
    lines = [",".join(header)] + [",".join(str(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def panel_csv(tmp_path):
    gen = np.random.default_rng(0)
    times = [f"2013-{m:02d}" for m in range(1, 10)]
    header = ["time", "treated", "d1", "d2"]
    rows = []
    for i, t in enumerate(times):
        vals = gen.normal(size=3) + 5
        rows.append([t, *vals])
    path = tmp_path / "panel.csv"
    _write_panel(path, times, header, rows)
    return path


class TestLoadPanel:
    def test_well_formed_panel_splits_at_treatment(self, panel_csv):
        loaded = load_panel(str(panel_csv), "treated", "2013-07")
        assert loaded.dataset.n == 6
        assert loaded.dataset.post_y.shape == (3,)
        assert loaded.donor_names == ("d1", "d2")
        assert loaded.pre_times[-1] == "2013-06"
        assert loaded.post_times[0] == "2013-07"

    def test_missing_treatment_period_names_the_label(self, panel_csv):
        with pytest.raises(PanelParseError, match="2019-01"):
            load_panel(str(panel_csv), "treated", "2019-01")

    def test_missing_treated_column_names_the_column(self, panel_csv):
        with pytest.raises(PanelParseError, match="corolla"):
            load_panel(str(panel_csv), "corolla", "2013-07")

    def test_non_numeric_cell_reports_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,treated,d1\n2013-01,1.0,2.0\n2013-02,oops,3.0\n2013-03,1,1\n")
        with pytest.raises(PanelParseError, match="row 3"):
            load_panel(str(path), "treated", "2013-03")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_reports_location(self, tmp_path, cell):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"time,treated,d1\n2013-01,1.0,2.0\n2013-02,1.0,{cell}\n2013-03,1,1\n")
        with pytest.raises(PanelParseError, match=r"non-finite .*row 3, column 'd1'"):
            load_panel(str(path), "treated", "2013-03")

    def test_ragged_row_reports_location(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("time,treated,d1\n2013-01,1.0,2.0\n2013-02,1.0\n2013-03,1,1\n")
        with pytest.raises(PanelParseError, match="ragged"):
            load_panel(str(path), "treated", "2013-03")

    def test_crlf_and_quoted_headers_load_identically(self, tmp_path):
        body_lf = 'time,treated,d1\n2013-01,1.0,2.0\n2013-02,1.5,2.5\n2013-03,2.0,3.0\n'
        body_crlf = '"time","treated","d1"\r\n2013-01,1.0,2.0\r\n2013-02,1.5,2.5\r\n2013-03,2.0,3.0\r\n'
        a = tmp_path / "lf.csv"
        b = tmp_path / "crlf.csv"
        a.write_text(body_lf)
        b.write_bytes(body_crlf.encode())
        la = load_panel(str(a), "treated", "2013-03")
        lb = load_panel(str(b), "treated", "2013-03")
        np.testing.assert_array_equal(la.dataset.y, lb.dataset.y)
        np.testing.assert_array_equal(la.dataset.x, lb.dataset.x)
        assert la.pre_times == lb.pre_times

    def test_covariate_file_attaches_z_and_d(self, tmp_path, panel_csv):
        cov = tmp_path / "cov.csv"
        cov.write_text("cov,treated,d1,d2\nprice,1.0,2.0,3.0\nsize,4.0,5.0,6.0\n")
        loaded = load_panel(str(panel_csv), "treated", "2013-07", covariates_path=str(cov))
        np.testing.assert_array_equal(loaded.dataset.z, [1.0, 4.0])
        np.testing.assert_array_equal(loaded.dataset.d, [[2.0, 3.0], [5.0, 6.0]])

    def test_repeated_unit_in_the_header_is_named(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("time,treated,a,b,b\n1,1,2,3,4\n2,1,2,3,4\n3,1,2,3,4\n")
        with pytest.raises(PanelParseError, match=r"'b' repeated .*row 1, column 'b'"):
            load_panel(str(path), "treated", "3")

    def test_round_trip_preserves_dataset(self, tmp_path, panel_csv):
        loaded = load_panel(str(panel_csv), "treated", "2013-07")
        out = tmp_path / "rt.csv"
        write_panel_csv(str(out), loaded)
        again = load_panel(str(out), "treated", "2013-07")
        np.testing.assert_array_equal(loaded.dataset.y, again.dataset.y)
        np.testing.assert_array_equal(loaded.dataset.x, again.dataset.x)
        np.testing.assert_array_equal(loaded.dataset.post_y, again.dataset.post_y)
        assert loaded.pre_times == again.pre_times
        assert loaded.donor_names == again.donor_names

    def test_simulated_panel_round_trips_byte_for_byte(self, tmp_path, capsys):
        first = tmp_path / "sim.csv"
        argv = ["simulate", "--units", "7", "--periods", "15", "--seed", "4"]
        assert cli.main([*argv, "--output-panel", str(first)]) == 0
        again = tmp_path / "again.csv"
        write_panel_csv(str(again), load_panel(str(first), "treated", "t11"))
        assert again.read_bytes() == first.read_bytes()


def test_benchmark_csv_writes_float_reprs_and_empty_cells(tmp_path):
    rows = (
        MethodResult("risk", 0.1, 1 / 3, 0.0, 0.0, 0.0, 1.0),
        MethodResult("cv_holdout", 2.5e-300, 12345.678901234567, None, None, None, None),
    )
    report = BenchmarkReport("gaussian", 2, 0, 10, 3, (0.0, 1.0), rows)
    path = tmp_path / "bench.csv"
    write_benchmark_csv(str(path), report)
    expected = [
        "method,mse_tau1,mse_tau12,mse_lambda,mse_risk_raw,mse_risk_per_n,mean_rank_corr",
        f"risk,{0.1!r},{1 / 3!r},0.0,0.0,0.0,1.0",
        f"cv_holdout,{2.5e-300!r},{12345.678901234567!r},,,,",
    ]
    assert path.read_bytes() == ("\r\n".join(expected) + "\r\n").encode()


class TestPreprocess:
    def test_identity_when_window_one_and_no_demeaning(self):
        gen = np.random.default_rng(1)
        panel = PanelDataset(y=gen.normal(size=6), x=gen.normal(size=(6, 2)))
        out = preprocess(panel, ma_window=1, demean=False)
        np.testing.assert_array_equal(out.y, panel.y)
        np.testing.assert_array_equal(out.x, panel.x)

    @pytest.mark.filterwarnings("ignore:donor columns are exact duplicates")
    def test_constant_series_demeans_to_zero(self):
        panel = PanelDataset(y=np.full(5, 3.0), x=np.full((5, 2), 7.0))
        out = preprocess(panel, demean=True)
        np.testing.assert_allclose(out.y, 0.0)
        np.testing.assert_allclose(out.x, 0.0)

    def test_trailing_window_two_arithmetic(self):
        assert list(moving_average(np.array([1.0, 2.0, 3.0, 4.0]), 2)) == [1.5, 2.5, 3.5]
        panel = PanelDataset(y=np.array([1.0, 2.0, 3.0, 4.0]), x=np.ones((4, 1)))
        out = preprocess(panel, ma_window=2)
        np.testing.assert_allclose(out.y, [1.5, 2.5, 3.5])

    def test_post_periods_filtered_with_trailing_pre_values(self):
        panel = PanelDataset(
            y=np.array([1.0, 2.0, 3.0]),
            x=np.ones((3, 1)),
            post_y=np.array([4.0]),
            post_x=np.ones((1, 1)),
        )
        out = preprocess(panel, ma_window=2)
        np.testing.assert_allclose(out.post_y, [3.5])

    def test_demeaning_uses_pre_treatment_means_only(self):
        panel = PanelDataset(
            y=np.array([1.0, 3.0]),
            x=np.array([[2.0], [4.0]]),
            post_y=np.array([10.0]),
            post_x=np.array([[10.0]]),
        )
        out = preprocess(panel, demean=True)
        np.testing.assert_allclose(out.post_y, [8.0])
        np.testing.assert_allclose(out.post_x, [[7.0]])

    def test_window_one_moving_average_is_the_series(self):
        series = np.random.default_rng(4).normal(size=7)
        np.testing.assert_array_equal(moving_average(series, 1), series)

    @pytest.mark.parametrize("window", [0, -2])
    def test_window_below_one_rejected(self, window):
        panel = PanelDataset(y=np.ones(3), x=np.ones((3, 1)))
        with pytest.raises(ConfigurationError, match="moving-average window must be >= 1"):
            preprocess(panel, ma_window=window)

    def test_window_exceeding_sample_rejected(self):
        panel = PanelDataset(y=np.ones(3), x=np.ones((3, 1)))
        with pytest.raises(ConfigurationError):
            preprocess(panel, ma_window=4)

    def test_loaded_wrapper_trims_time_labels(self, panel_csv):
        loaded = load_panel(str(panel_csv), "treated", "2013-07")
        out = preprocess_loaded(loaded, ma_window=3)
        assert out.pre_times == loaded.pre_times[2:]
        assert out.dataset.n == loaded.dataset.n - 2


@pytest.fixture
def cov_csv(tmp_path):
    path = tmp_path / "cov.csv"
    path.write_text("cov,treated,d1,d2\nprice,2.5,2.0,3.0\nsize,4.0,5.0,3.0\n")
    return path


class TestCli:
    def _fit_args(self, panel_csv, *extra):
        return [
            "fit",
            "--input",
            str(panel_csv),
            "--treated",
            "treated",
            "--treatment-period",
            "2013-07",
            *extra,
        ]

    def test_fit_writes_report_with_expected_fields(self, panel_csv, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = cli.main(self._fit_args(panel_csv, "--estimator", "penalized", "--lambda", "0.3", "--output", str(out)))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 2
        assert payload["command"] == "fit"
        res = payload["results"]
        assert res["estimator"] == "penalized"
        assert set(res["weights"]) <= {"d1", "d2"}
        assert "df_hat" in res and "ic" in res and "sigma2_hat" in res
        assert "effect" in res

    def test_select_dispatch(self, panel_csv, capsys):
        code = cli.main(
            self._fit_args(panel_csv)[1:0] or [
                "select",
                "--input", str(panel_csv),
                "--treated", "treated",
                "--treatment-period", "2013-07",
                "--method", "sure",
                "--estimator", "masc",
                "--grid", "0:1:5",
                "--m-grid", "1:2",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"]["method"] == "sure"
        assert len(payload["results"]["grid"]) == 10

    def _select_args(self, panel_csv, *extra):
        return ["select", *self._fit_args(panel_csv)[1:], "--method", "sure", *extra]

    def test_penalized_curve_csv_has_one_row_per_lambda(self, panel_csv, tmp_path, capsys):
        curve = tmp_path / "curve.csv"
        args = self._select_args(panel_csv, "--estimator", "penalized", "--grid", "0,0.5,2")
        assert cli.main([*args, "--curve-csv", str(curve)]) == 0
        res = json.loads(capsys.readouterr().out)["results"]
        lines = curve.read_text().splitlines()
        assert lines[0] == "lambda,m,v,score"
        rows = [line.split(",") for line in lines[1:]]
        assert [float(r[0]) for r in rows] == [0.0, 0.5, 2.0]
        assert all(r[1] == "" and r[2] == "" for r in rows)
        assert [float(r[3]) for r in rows] == res["scores"]

    def test_covariate_curve_csv_tells_the_weightings_apart(self, panel_csv, cov_csv, tmp_path, capsys):
        curve = tmp_path / "curve.csv"
        args = self._select_args(
            panel_csv, "--covariates", str(cov_csv), "--estimator", "covariate", "--grid", "0,0.5"
        )
        assert cli.main([*args, "--curve-csv", str(curve)]) == 0
        res = json.loads(capsys.readouterr().out)["results"]
        lines = curve.read_text().splitlines()
        assert lines[0] == "lambda,m,v,score"
        rows = [line.split(",") for line in lines[1:]]
        keys = [(float(r[0]), tuple(float(w) for w in r[2].split(";"))) for r in rows]
        assert keys == [(pt["lambda"], tuple(pt["v"])) for pt in res["grid"]]
        assert len(set(keys)) == len(keys) == 2 * len({k[1] for k in keys}) > 2
        assert [float(r[3]) for r in rows] == res["scores"]

    @pytest.mark.parametrize(
        "command, method",
        [("select", m) for m in ("sure", "cv-holdout", "cv-loo", "cv-rolling")]
        + [("cv", m) for m in ("holdout", "loo-untreated", "rolling")],
    )
    def test_covariate_estimator_takes_every_selection_method(
        self, panel_csv, cov_csv, capsys, command, method
    ):
        flag = "--method" if command == "select" else "--cv-method"
        argv = [command, *self._fit_args(panel_csv)[1:], flag, method, "--estimator", "covariate",
                "--grid", "0,0.5"]
        assert cli.main(argv) == 1
        self._assert_config_error(capsys, "needs covariates")
        assert cli.main([*argv, "--covariates", str(cov_csv)]) == 0
        grid = json.loads(capsys.readouterr().out)["results"]["grid"]
        v_grid = [list(v) for v in solvers.default_v_grid(2)]
        assert grid == [{"lambda": lam, "m": None, "v": v} for v in v_grid for lam in (0.0, 0.5)]

    def test_covariate_loo_with_dependent_rows_at_a_vertex_exits_zero(self, tmp_path, capsys):
        # placebo donor 1 at V = (0.25, 0, 0.75) fits price and age exactly,
        # and age alone pins one vertex there: its equality rows are
        # dependent, and the working-set solve drops the redundant one
        panel, covs = tmp_path / "p.csv", tmp_path / "c.csv"
        assert cli.main(["simulate", "--units", "9", "--periods", "20", "--seed", "3",
                         "--output-panel", str(panel)]) == 0
        covs.write_text(
            "cov,treated," + ",".join(f"donor_{j}" for j in range(1, 9)) + "\n"
            "price,2.5,1,2,3,4,1,2,3,4\nsize,2,4,1,3,0,2,2,1,3\nage,1,0,1,2,1,0,2,1,1\n"
        )
        capsys.readouterr()
        assert cli.main(["select", "--input", str(panel), "--treated", "treated",
                         "--treatment-period", "t16", "--covariates", str(covs),
                         "--estimator", "covariate", "--method", "cv-loo"]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["method"] == "cv_loo_untreated"

    @pytest.mark.parametrize("split", ["inf", "nan"])
    def test_non_finite_holdout_split_exits_one(self, panel_csv, capsys, split):
        argv = [*self._select_args(panel_csv, "--estimator", "penalized"), "--method", "cv-holdout"]
        assert cli.main([*argv, "--split", split]) == 1
        self._assert_config_error(capsys, "holdout split must be finite", split)

    def test_df_command_reports_case_and_trace(self, panel_csv, capsys):
        code = cli.main([
            "df",
            "--input", str(panel_csv),
            "--treated", "treated",
            "--treatment-period", "2013-07",
            "--estimator", "plain",
        ])
        assert code == 0
        res = json.loads(capsys.readouterr().out)["results"]
        assert res["case"] == "plain"
        assert res["df_hat"] == pytest.approx(res["divergence_trace"], abs=1e-8)

    def test_cv_command(self, panel_csv, capsys):
        code = cli.main([
            "cv",
            "--input", str(panel_csv),
            "--treated", "treated",
            "--treatment-period", "2013-07",
            "--cv-method", "rolling",
            "--grid", "0,0.5",
            "--estimator", "penalized",
        ])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["results"]["method"] == "cv_rolling"

    def test_whitetest_command(self, tmp_path, capsys):
        gen = np.random.default_rng(6)
        times = [f"t{i:02d}" for i in range(1, 31)]
        rows = [[t, *(gen.normal(size=3) + 5)] for t in times]
        path = tmp_path / "long.csv"
        _write_panel(path, times, ["time", "treated", "d1", "d2"], rows)
        code = cli.main([
            "whitetest",
            "--input", str(path),
            "--treated", "treated",
            "--treatment-period", "t25",
        ])
        assert code == 0
        res = json.loads(capsys.readouterr().out)["results"]
        assert 0.0 <= res["p_value"] <= 1.0

    def test_placebo_command(self, panel_csv, capsys):
        code = cli.main([
            "placebo",
            "--input", str(panel_csv),
            "--target", "d1",
            "--treatment-period", "2013-07",
            "--exclude", "treated",
        ])
        assert code == 0
        res = json.loads(capsys.readouterr().out)["results"]
        assert res["mean_squared_forecast_error"] >= 0.0

    def _placebo_pair(self, tmp_path, units):
        """Outcome and covariate CSVs over ``units`` cut from one fixed panel."""
        gen = np.random.default_rng(12)
        names = ["a", "b", "c", "d", "e"]
        values = gen.normal(size=(14, 5)) + 4
        cov = gen.normal(size=(2, 5))
        cols = [names.index(u) for u in units]
        tag = "_".join(units)
        panel = tmp_path / f"panel_{tag}.csv"
        _write_panel(panel, None, ["time", *units],
                     [[f"t{i:02d}", *values[i, cols]] for i in range(14)])
        covs = tmp_path / f"cov_{tag}.csv"
        _write_panel(covs, None, ["cov", *units],
                     [[f"c{k}", *cov[k, cols]] for k in range(2)])
        return str(panel), str(covs)

    def _placebo_args(self, panel, covs, *extra):
        return ["placebo", "--input", panel, "--covariates", covs, "--target", "a",
                "--treatment-period", "t10", "--estimator", "covariate", "--v", "0.5,0.5",
                "--horizon", "4", *extra]

    def test_placebo_exclusion_keeps_the_covariates(self, tmp_path, capsys):
        full = self._placebo_pair(tmp_path, ["a", "b", "c", "d", "e"])
        assert cli.main(self._placebo_args(*full, "--exclude", "b")) == 0
        excluded = json.loads(capsys.readouterr().out)["results"]
        reduced = self._placebo_pair(tmp_path, ["a", "c", "d", "e"])
        assert cli.main(self._placebo_args(*reduced)) == 0
        direct = json.loads(capsys.readouterr().out)["results"]
        assert excluded["tau"] == direct["tau"]
        assert excluded["mean_squared_forecast_error"] == direct["mean_squared_forecast_error"]

    def test_placebo_exclusion_of_an_unknown_donor_exits_one(self, panel_csv, capsys):
        code = cli.main([
            "placebo",
            "--input", str(panel_csv),
            "--target", "d1",
            "--treatment-period", "2013-07",
            "--exclude", "treated,zzz",
        ])
        assert code == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "ConfigurationError"
        assert "zzz" in error["message"] and "treated" not in error["message"]

    def test_simulate_writes_panel(self, tmp_path, capsys):
        out_panel = tmp_path / "sim.csv"
        code = cli.main([
            "simulate",
            "--units", "6",
            "--periods", "20",
            "--factors", "2",
            "--seed", "9",
            "--output-panel", str(out_panel),
        ])
        assert code == 0
        loaded = load_panel(str(out_panel), "treated", "t20")
        assert loaded.dataset.n == 19

    def test_simulate_empirical_design_from_a_panel(self, tmp_path, capsys):
        gen = np.random.default_rng(8)
        source = tmp_path / "source.csv"
        _write_panel(source, None, ["time", "treated", *(f"u{j}" for j in range(5))],
                     [[f"p{i:02d}", *(gen.normal(size=6) + 3)] for i in range(30)])
        argv = [
            "simulate",
            "--design", "empirical",
            "--fit-from", str(source),
            "--treated", "treated",
            "--treatment-period", "p25",
            "--factors", "2",
            "--seed", "3",
        ]
        outputs = []
        for name in ("a.csv", "b.csv"):
            assert cli.main([*argv, "--output-panel", str(tmp_path / name)]) == 0
            res = json.loads(capsys.readouterr().out)["results"]
            assert res["design"] == "empirical"
            assert res["periods"] == 25 and res["units"] == 6 and res["factors"] == 2
            outputs.append((tmp_path / name).read_bytes())
        assert outputs[0] == outputs[1]
        loaded = load_panel(str(tmp_path / "a.csv"), "treated", "t25")
        assert loaded.dataset.n == 24 and loaded.dataset.p == 5

    def test_benchmark_reports_are_reproducible_bytes(self, tmp_path):
        argv = [
            "benchmark",
            "--design", "gaussian",
            "--reps", "2",
            "--seed", "7",
            "--methods", "risk,sure",
            "--donors", "8",
            "--pre", "14",
            "--post", "12",
            "--grid", "0,0.5",
        ]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert cli.main(argv + ["--output", str(a)]) == 0
        assert cli.main(argv + ["--output", str(b)]) == 0
        assert a.read_bytes().replace(str(a).encode(), b"") == b.read_bytes().replace(str(b).encode(), b"")

    def test_computation_failure_exits_one_with_structured_error(self, panel_csv, capsys):
        code = cli.main(self._fit_args(panel_csv, "--estimator", "penalized", "--lambda", "-1"))
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["type"] == "ConfigurationError"

    @pytest.mark.parametrize("command", ["select", "fit"])
    def test_negative_covariate_penalty_exits_one(self, panel_csv, cov_csv, capsys, command):
        if command == "select":
            argv = self._select_args(panel_csv, "--grid=-0.5,0")
        else:
            argv = self._fit_args(panel_csv, "--lambda", "-0.5")
        argv += ["--covariates", str(cov_csv), "--estimator", "covariate"]
        assert cli.main(argv) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "ConfigurationError"
        assert "penalty parameter" in error["message"]

    @pytest.mark.parametrize("flag", ["--input", "--covariates"])
    def test_missing_file_exits_one_with_structured_error(self, panel_csv, tmp_path, capsys, flag):
        argv = self._fit_args(panel_csv)
        absent = str(tmp_path / "absent.csv")
        if flag == "--input":
            argv[argv.index("--input") + 1] = absent
        else:
            argv += ["--covariates", absent]
        assert cli.main(argv) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "PanelParseError"
        assert "absent.csv" in error["message"]

    def test_header_only_covariate_file_exits_one_naming_it(self, panel_csv, tmp_path, capsys):
        cov = tmp_path / "covh.csv"
        cov.write_text("cov,treated,d1,d2\n")
        argv = self._fit_args(panel_csv, "--covariates", str(cov), "--estimator", "covariate")
        assert cli.main(argv) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "PanelParseError"
        assert "covh.csv" in error["message"] and "no rows" in error["message"]

    def test_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["fit", "--nonsense"])
        assert exc.value.code == 2

    def test_grid_parsing(self):
        np.testing.assert_allclose(cli.parse_grid("0:1:3"), [0.0, 0.5, 1.0])
        np.testing.assert_allclose(cli.parse_grid("log:0.1:10:3"), [0.1, 1.0, 10.0])
        np.testing.assert_allclose(cli.parse_grid("0.1,0.5"), [0.1, 0.5])
        assert cli.parse_int_grid("1:3") == [1, 2, 3]
        with pytest.raises(ConfigurationError):
            cli.parse_grid("nope:1")
        for spec in ("1:2:3", "1,x", "a:b"):
            with pytest.raises(ConfigurationError, match=f"integer grid spec '{spec}'"):
                cli.parse_int_grid(spec)

    def test_bad_covariate_weights_exit_one_naming_the_option(self, panel_csv, cov_csv, capsys):
        argv = self._fit_args(
            panel_csv, "--covariates", str(cov_csv), "--estimator", "covariate", "--v", "0.5,x"
        )
        assert cli.main(argv) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "ConfigurationError"
        assert "--v '0.5,x'" in error["message"] and "'x'" in error["message"]

    @pytest.mark.parametrize("extra, message", [
        (["--estimator", "covariate"], "covariate estimator requires --covariates"),
        (["--estimator", "covariate", "--v", "0.5,0.5"], "covariate estimator requires --covariates"),
        (["--estimator", "masc", "--lambda", "2", "--m", "9"], "averaging weight must lie in [0, 1]"),
    ])
    def test_bad_estimator_options_exit_one_before_any_solve(
        self, panel_csv, monkeypatch, capsys, extra, message
    ):
        solves = []
        simplex_ls = solvers.simplex_ls
        monkeypatch.setattr(solvers, "simplex_ls", lambda *a, **kw: solves.append(a) or simplex_ls(*a, **kw))
        assert cli.main(self._fit_args(panel_csv, *extra)) == 1
        self._assert_config_error(capsys, message)
        assert not solves

    def test_non_finite_covariate_weights_exit_one(self, panel_csv, cov_csv, capsys):
        argv = self._fit_args(
            panel_csv, "--covariates", str(cov_csv), "--estimator", "covariate", "--v", "nan,1"
        )
        assert cli.main(argv) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "ConfigurationError"
        assert "must be finite" in error["message"]

    def _assert_config_error(self, capsys, *fragments):
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "ConfigurationError"
        for fragment in fragments:
            assert fragment in error["message"]

    def test_placebo_exclusion_warning_names_the_cli(self, tmp_path, capsys):
        gen = np.random.default_rng(21)
        values = gen.normal(size=(12, 4)) + 3
        values[:, 3] = values[:, 2]  # donors c and d are equal
        panel = tmp_path / "dup.csv"
        _write_panel(panel, None, ["time", "a", "b", "c", "d"],
                     [[f"t{i:02d}", *values[i]] for i in range(12)])
        argv = ["placebo", "--input", str(panel), "--target", "a", "--treatment-period", "t09",
                "--exclude", "b"]
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            assert cli.main(argv) == 0
        duplicates = [w for w in record if "exact duplicates" in str(w.message)]
        assert duplicates
        assert not [w for w in record if os.path.basename(w.filename) == "dataclasses.py"]
        assert os.path.basename(duplicates[-1].filename) == "cli.py"

    @pytest.mark.parametrize("horizon", ["0", "-3"])
    def test_placebo_horizon_below_one_exits_one(self, panel_csv, capsys, horizon):
        code = cli.main([
            "placebo",
            "--input", str(panel_csv),
            "--target", "d1",
            "--treatment-period", "2013-07",
            f"--horizon={horizon}",
        ])
        assert code == 1
        self._assert_config_error(capsys, "horizon must be >= 1")

    @pytest.mark.parametrize(
        "extra, fragment",
        [
            (["--post", "0"], "post-period"),
            (["--methods", ""], "no methods"),
            (["--pre", "1", "--donors", "3", "--post", "1"], "at least 2 pre-periods"),
            (["--methods", "sure,sure,cv_holdout,cv_holdout"], "methods raced more than once"),
        ],
    )
    def test_benchmark_bad_inputs_exit_one(self, capsys, extra, fragment):
        argv = ["benchmark", "--reps", "1", "--donors", "6", "--pre", "10", "--grid", "0,1"]
        assert cli.main(argv + extra) == 1
        self._assert_config_error(capsys, fragment)

    def test_simulate_units_count_the_treated_unit_and_the_donors(self, tmp_path, capsys):
        out_panel = tmp_path / "p.csv"
        argv = ["simulate", "--units", "5", "--periods", "12", "--seed", "1"]
        assert cli.main([*argv, "--output-panel", str(out_panel)]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["units"] == 5
        header = out_panel.read_text().splitlines()[0].split(",")
        assert header == ["time", "treated", "donor_1", "donor_2", "donor_3", "donor_4"]

    def test_simulate_single_unit_exits_one(self, capsys):
        assert cli.main(["simulate", "--units", "1", "--periods", "12"]) == 1
        self._assert_config_error(capsys, "need at least 1 donor, got n_donors=0")

    @pytest.mark.parametrize("periods", [0, -3])
    @pytest.mark.parametrize("fit_from", [False, True])
    def test_simulate_periods_below_one_exit_one(self, panel_csv, capsys, fit_from, periods):
        argv = ["simulate", "--units", "5", f"--periods={periods}", "--seed", "1"]
        if fit_from:
            argv += ["--fit-from", str(panel_csv), "--treated", "treated",
                     "--treatment-period", "2013-07", "--factors", "1"]
        assert cli.main(argv) == 1
        self._assert_config_error(capsys, f"need at least 1 period, got {periods}")

    def test_simulate_negative_factor_count_exits_one(self, capsys):
        assert cli.main(["simulate", "--units", "5", "--periods", "12", "--factors", "-1"]) == 1
        self._assert_config_error(capsys, "factor count must be nonnegative")

    def test_simulate_zero_moving_average_window_exits_one(self, capsys):
        assert cli.main(["simulate", "--units", "5", "--periods", "12", "--ma-window", "0"]) == 1
        self._assert_config_error(capsys, "moving-average window must be >= 1")

    def test_benchmark_config_echoes_only_its_options(self, capsys):
        argv = ["benchmark", "--reps", "1", "--donors", "6", "--pre", "10", "--post", "3",
                "--grid", "0,1"]
        assert cli.main(argv) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert "ma_window" not in config and "demean" not in config
        assert config["donors"] == 6 and config["grid"] == "0,1"

    @pytest.mark.parametrize("command", ["select", "cv"])
    @pytest.mark.parametrize("flag", [["--lambda", "0.7"], ["--m", "3"], ["--v", "0,1"]])
    def test_select_and_cv_refuse_the_options_of_one_fit(self, panel_csv, capsys, command, flag):
        # a grid command reads no --lambda, --m or --v; --m is not read as --m-grid either
        argv = [command, *self._fit_args(panel_csv)[1:], "--estimator", "masc"]
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, *flag])
        assert exc.value.code == 2
        assert cli.main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["config"]) - {"cv_method"} == {
            "input", "treated", "treatment_period", "ma_window", "demean", "estimator", "method",
            "split", "horizon",
        }
        panel = load_panel(str(panel_csv), "treated", "2013-07").dataset
        selector = select_lambda_ic if command == "select" else cv_holdout
        want = cli._selection_results(selector(panel, "masc"))
        assert payload["results"] == json.loads(json.dumps(to_jsonable(want)))

    @pytest.mark.parametrize("argv", [
        ["select", "--method", "sure", "--estimator", "plain", "--grid", "0,0.5,3"],
        ["fit", "--estimator", "plain", "--lambda", "0.5"],
    ])
    def test_a_plain_fit_with_a_penalty_exits_one_before_any_solve(self, panel_csv, monkeypatch,
                                                                   capsys, argv):
        solves = []
        engine = solvers.simplex_ls
        monkeypatch.setattr(solvers, "simplex_ls", lambda *a, **kw: solves.append(a) or engine(*a, **kw))
        assert cli.main([argv[0], *self._fit_args(panel_csv)[1:], *argv[1:]]) == 1
        self._assert_config_error(capsys, "a plain fit has no tuning parameter", "got 0.5")
        assert not solves

    def test_benchmark_without_replications_exits_one(self, capsys):
        assert cli.main(["benchmark", "--reps", "0"]) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "ConfigurationError"
        assert "replications" in error["message"]

    def test_import_leaves_scipy_stats_unloaded(self):
        # this test process has loaded scipy.stats already, so check a fresh one
        code = "import sys, synthsel, synthsel.cli; assert 'scipy.stats' not in sys.modules"
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_fit_and_df_leave_scipy_linalg_unloaded(self, panel_csv):
        # the solver loads scipy's compiled LAPACK module on its own, not
        # through the scipy.linalg package, and neither command draws, so
        # the simulation module stays unloaded; a fresh process shows what loaded
        args = ["--input", str(panel_csv), "--treated", "treated", "--treatment-period", "2013-07"]
        code = (
            "import sys, synthsel.cli; "
            "assert not {'scipy.linalg', 'scipy.stats'} & set(sys.modules), 'import'; "
            f"assert synthsel.cli.main(['fit', *{args}, '--estimator', 'penalized', '--lambda', '0.3']) == 0; "
            f"assert synthsel.cli.main(['df', *{args}, '--estimator', 'penalized', '--lambda', '0.3', '--fd-check']) == 0; "
            "loaded = {m for m in sys.modules if m.startswith('scipy.')}; "
            "assert loaded <= {'scipy.linalg._flapack'}, loaded; "
            "assert 'synthsel.simulation' not in sys.modules, 'simulation'"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        subprocess.run([sys.executable, "-c", code], env=env, check=True, stdout=subprocess.DEVNULL)

    def test_race_leaves_scipy_stats_unloaded(self):
        code = (
            "import sys; from synthsel import run_selection_benchmark; "
            "run_selection_benchmark('gaussian', ['sure', 'cv_holdout'], 1, 1, n_donors=6, "
            "n_pre=10, n_post=3, lambda_grid=[0, 1]); "
            "assert 'scipy.stats' not in sys.modules"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_bad_matching_grid_exits_one(self, panel_csv, capsys):
        argv = self._select_args(panel_csv, "--estimator", "masc", "--m-grid", "1:2:3")
        assert cli.main(argv) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "ConfigurationError"
        assert "1:2:3" in error["message"]


# ---------------------------------------------------------------------------
# df --fd-check: each perturbed outcome solved from the fit it checks
# ---------------------------------------------------------------------------


def _factor_panel_csv(path, seed, n_donors=40, n_pre=36, twice=False):
    """A panel of the factor design with ``n_pre`` periods before the
    treatment, at the last period ``t{n_pre + 1}``; ``twice`` lists every
    donor a second time, as an exact duplicate."""
    n = n_pre + 1
    spec = simulation.synthetic_factor_spec(n_donors, n, r=1, seed=100, sigma_y=0.5, sigma_x=2.0)
    draw = simulation.draw_factor_gaussian(spec, n, seed)
    x = np.hstack([draw.x, draw.x]) if twice else draw.x
    header = ["time", "treated", *(f"d{j + 1:02d}" for j in range(x.shape[1]))]
    rows = [[f"t{t + 1}", repr(float(draw.y[t])), *(repr(float(c)) for c in x[t])]
            for t in range(n)]
    _write_panel(path, None, header, rows)
    return ["--input", str(path), "--treated", "treated", "--treatment-period", f"t{n}"]


@pytest.fixture
def fd_check_iterations(monkeypatch, capsys):
    """Run ``df ... --fd-check`` on a panel and return its report's
    ``fd_check`` and the working-set iterations of each ``simplex_ls`` call."""
    simplex_ls = solvers.simplex_ls

    def run(args):
        iterations = []

        def counted(*a, **kw):
            cert = simplex_ls(*a, **kw)
            iterations.append(cert.iterations)
            return cert

        monkeypatch.setattr(solvers, "simplex_ls", counted)
        assert cli.main(["df", *args, "--fd-check"]) == 0
        return json.loads(capsys.readouterr().out)["results"]["fd_check"], iterations

    return run


def test_fd_check_solves_each_perturbation_from_the_checked_fit(tmp_path, fd_check_iterations):
    # solved cold, these 74 solves take 1,110 working-set iterations
    args = _factor_panel_csv(tmp_path / "panel.csv", seed=2)
    fd, iterations = fd_check_iterations([*args, "--estimator", "penalized", "--lambda", "0.3"])
    assert fd["max_abs_deviation"] < 1e-6 and not fd["active_set_changed"]
    assert len(iterations) == 2 * 36 + 2
    assert sum(iterations) <= 150


def test_fd_check_of_a_masc_fit_starts_from_its_synthetic_control_component(
    tmp_path, monkeypatch, capsys
):
    # the averaged weights are not the optimum the fit's certificate holds;
    # its synthetic-control component is, and each re-solve starts there
    args = _factor_panel_csv(tmp_path / "panel.csv", seed=2)
    checked, starts = [], []
    monkeypatch.setattr(cli, "df_hat", lambda fit: checked.append(fit) or df_hat(fit))
    simplex_ls = solvers.simplex_ls
    monkeypatch.setattr(
        solvers, "simplex_ls", lambda *a, **kw: starts.append(kw.get("start")) or simplex_ls(*a, **kw)
    )
    argv = ["df", *args, "--estimator", "masc", "--lambda", "0.5", "--m", "2", "--fd-check"]
    assert cli.main(argv) == 0
    fd = json.loads(capsys.readouterr().out)["results"]["fd_check"]
    assert fd["max_abs_deviation"] < 1e-6 and not fd["active_set_changed"]
    (fit,) = checked
    assert fit.kkt.unique and not np.array_equal(fit.beta, fit.kkt.beta)
    warm = [start for start in starts if start is not None]
    assert len(warm) == 2 * 36 + 1  # the base outcome's re-solve and each perturbation's
    assert all(np.array_equal(start, fit.kkt.beta) for start in warm)


@pytest.mark.filterwarnings("ignore:donor columns are exact duplicates")
@pytest.mark.parametrize(
    "estimator", [["plain"], ["penalized", "--lambda", "0.3"], ["masc", "--lambda", "0.5", "--m", "2"]]
)
def test_fd_check_from_a_fit_that_is_not_unique_costs_no_more_than_cold(
    tmp_path, monkeypatch, fd_check_iterations, estimator
):
    # every donor twice: a warm start from the checked fit, which is not the
    # unique optimum, would fail the guard and be solved again cold
    args = [*_factor_panel_csv(tmp_path / "panel.csv", seed=2, twice=True), "--estimator", *estimator]
    checked = []
    monkeypatch.setattr(cli, "df_hat", lambda fit: checked.append(fit) or df_hat(fit))
    warm_fd, warm = fd_check_iterations(args)
    assert not checked[0].kkt.unique
    fit_one = cli._fit_one
    monkeypatch.setattr(cli, "_fit_one", lambda args, panel, y=None, prev=None: fit_one(args, panel, y))
    cold_fd, cold = fd_check_iterations(args)
    assert warm_fd == cold_fd
    assert len(warm) == len(cold) and sum(warm) <= sum(cold)


def test_fd_check_warm_starts_the_in_sample_v_search(tmp_path, monkeypatch, capsys):
    # without --v the covariate fit searches the default V grid in sample;
    # each perturbed outcome's search starts from the checked fit, which
    # changes the work and never the finite-difference matrix
    args = _factor_panel_csv(tmp_path / "panel.csv", seed=2)
    gen = np.random.default_rng(2)
    d = gen.normal(size=(3, 40))
    z = d @ gen.dirichlet(np.ones(40)) + np.array([0.0, 0.0, 2.0])
    cov = tmp_path / "cov.csv"
    _write_panel(cov, None, ["cov", "treated", *(f"d{j + 1:02d}" for j in range(40))],
                 [[f"c{i}", repr(float(z[i])), *(repr(float(c)) for c in d[i])] for i in range(3)])
    args += ["--covariates", str(cov), "--estimator", "covariate", "--lambda", "0.3", "--fd-check"]
    engine, oracle, fit_one = solvers.simplex_ls, cli.divergence_fd_oracle, cli._fit_one

    def run(warm):
        checked, starts, iterations, fds = [], [], [], []

        def counted(*a, **kw):
            cert = engine(*a, **kw)
            starts.append(kw.get("start"))
            iterations.append(cert.iterations)
            return cert

        def fd_oracle(*a, **kw):
            fds.append(oracle(*a, **kw))
            return fds[-1]

        monkeypatch.setattr(solvers, "simplex_ls", counted)
        monkeypatch.setattr(cli, "divergence_fd_oracle", fd_oracle)
        monkeypatch.setattr(cli, "df_hat", lambda fit: checked.append(fit) or df_hat(fit))
        monkeypatch.setattr(cli, "_fit_one", fit_one if warm else
                            lambda args, panel, y=None, prev=None: fit_one(args, panel, y))
        assert cli.main(["df", *args]) == 0
        capsys.readouterr()
        return checked[0], starts, iterations, fds[0].matrix

    fit, starts, warm, warm_fd = run(warm=True)
    assert fit.kkt.unique
    assert any(start is not None and np.array_equal(start, fit.kkt.beta) for start in starts)
    _, _, cold, cold_fd = run(warm=False)
    assert np.array_equal(warm_fd, cold_fd)
    assert len(warm) == len(cold) and sum(warm) <= sum(cold)


@pytest.mark.parametrize("estimator", ["penalized", "masc", "covariate"])
def test_fit_at_the_selected_point_is_the_selections_own_fit(tmp_path, capsys, estimator):
    # the CI's 12-period panel, and its covariate rows for the covariate estimator
    panel_csv, cov_csv = tmp_path / "p.csv", tmp_path / "c.csv"
    assert cli.main(["simulate", "--units", "5", "--periods", "12", "--seed", "1",
                     "--output-panel", str(panel_csv)]) == 0
    cov_csv.write_text("cov,treated,donor_1,donor_2,donor_3,donor_4\nprice,2.5,1,2,3,4\nsize,2,4,1,3,0\n")
    args = ["--input", str(panel_csv), "--treated", "treated", "--treatment-period", "t10",
            "--estimator", estimator]
    if estimator == "covariate":
        args += ["--covariates", str(cov_csv)]
    capsys.readouterr()
    assert cli.main(["select", *args, "--method", "sure"]) == 0
    chosen = json.loads(capsys.readouterr().out)["results"]["chosen"]
    point = ["--lambda", repr(chosen["lambda"])]
    if estimator == "masc":
        point += ["--m", str(chosen["m"])]
    if estimator == "covariate":
        point += ["--v", ",".join(repr(w) for w in chosen["v"])]
    assert cli.main(["fit", *args, *point]) == 0
    got = json.loads(capsys.readouterr().out)["results"]

    loaded = load_panel(str(panel_csv), "treated", "t10", covariates_path=str(cov_csv))
    panel = preprocess_loaded(loaded, ma_window=1, demean=False).dataset
    points = tuning_grid(estimator, n_donors=panel.p, n_cov=panel.n_cov)
    res = select_lambda_ic(panel, estimator)
    want = _fit_grid(panel.y, panel.x, estimator, points, panel.z, panel.d)[res.chosen]
    names = loaded.donor_names
    assert got["active_set"] == [names[i] for i in want.sets.a]
    want_weights = {names[i]: w for i, w in enumerate(want.beta) if w > want.active_tol}
    assert got["weights"].keys() == want_weights.keys()
    for name, w in want_weights.items():
        assert got["weights"][name] == pytest.approx(w, rel=0, abs=1e-12)
    assert got["rss"] == pytest.approx(want.rss, rel=0, abs=1e-12)


def _duplicated_donor_csvs(tmp_path, seed):
    """24 periods before the treatment at ``t25`` and 10 donors, of which
    columns 8 and 9 copy columns 1 and 3, with two covariate rows the true
    weights fit exactly; the copies' covariates are not copied."""
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(25, 10))
    x[:, 8], x[:, 9] = x[:, 1], x[:, 3]
    w = gen.dirichlet(np.ones(10))
    y = x @ w + 0.3 * gen.normal(size=25)
    d = gen.normal(size=(2, 10))
    names = [f"d{j}" for j in range(10)]
    _write_panel(tmp_path / "panel.csv", None, ["time", "treated", *names],
                 [[f"t{t + 1}", repr(float(y[t])), *map(repr, x[t].tolist())] for t in range(25)])
    _write_panel(tmp_path / "cov.csv", None, ["cov", "treated", *names],
                 [[f"c{i}", repr(float(d[i] @ w)), *map(repr, d[i].tolist())] for i in range(2)])
    return ["--input", str(tmp_path / "panel.csv"), "--treated", "treated",
            "--treatment-period", "t25", "--covariates", str(tmp_path / "cov.csv")]


@pytest.mark.filterwarnings("ignore:donor columns are exact duplicates")
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("lam", ["0", "0.3"])
def test_df_of_a_covariate_fit_on_duplicated_donors(tmp_path, capsys, seed, lam):
    # the fit keeps a donor and its copy active together: X_A is rank
    # deficient, and df_hat is the dimension of the fit's face
    args = _duplicated_donor_csvs(tmp_path, seed)
    argv = ["df", *args, "--estimator", "covariate", "--v", "0.5,0.5", "--lambda", lam, "--fd-check"]
    assert cli.main(argv) == 0
    res = json.loads(capsys.readouterr().out)["results"]
    assert res["df_hat"] == pytest.approx(res["divergence_trace"], abs=1e-9)
    if not res["fd_check"]["active_set_changed"]:
        assert res["fd_check"]["max_abs_deviation"] < 1e-6


def test_a_donor_free_at_zero_weight_leaves_the_face_of_the_support(tmp_path, monkeypatch, capsys):
    # placebo donor_2's leave-one-out fold of the covariate panel the CI
    # runs, at V = (0, 0, 1) on the default grid: some solves end with a
    # free donor at zero weight, so the engine ranks the face of the
    # support on its own, not the free face it factored
    panel, covs = tmp_path / "p.csv", tmp_path / "c.csv"
    assert cli.main(["simulate", "--units", "9", "--periods", "20", "--seed", "3",
                     "--output-panel", str(panel)]) == 0
    capsys.readouterr()
    covs.write_text(
        "cov,treated," + ",".join(f"donor_{j}" for j in range(1, 9)) + "\n"
        "price,2.5,1,2,3,4,1,2,3,4\nsize,2,4,1,3,0,2,2,1,3\nage,1,0,1,2,1,0,2,1,1\n"
    )
    data = load_panel(str(panel), "treated", "t16", covariates_path=str(covs)).dataset
    keep = [k for k in range(data.p) if k != 1]
    y, x, z, d = data.x[:, 1], data.x[:, keep], data.d[:, 1], data.d[:, keep]
    ranked = []
    face_qr = solvers._face_qr
    monkeypatch.setattr(solvers, "_face_qr", lambda *a: ranked.append(a) or face_qr(*a))
    points = tuning_grid("covariate", default_lambda_grid("covariate"), v_grid=[[0.0, 0.0, 1.0]], n_cov=3)
    fits = solvers._fit_grid(y, x, "covariate", points, z, d)
    assert ranked
    monkeypatch.undo()
    for fit in fits:
        a = list(fit.sets.a)
        e_a = solvers._face_rows(fit.sets.a, fit.cov_eq_rows, d)
        null_cols = len(a) - np.linalg.matrix_rank(e_a)
        assert (fit.kkt.face_dim, fit.kkt.face_cols) == (face_dim(x[:, a], e_a), null_cols)
        assert df_hat(fit).df_hat == pytest.approx(divergence(fit, x, d).trace, abs=1e-9)


@pytest.mark.filterwarnings("ignore:donor columns are exact duplicates")
@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    shape=st.sampled_from(["tall", "wide", "duplicated"]),
    kind=st.sampled_from(["plain", "penalized", "masc", "covariate"]),
)
def test_fd_check_warm_solves_equal_the_cold_ones(seed, shape, kind):
    gen = np.random.default_rng(seed)
    y, x = random_design(gen, shape)
    p = x.shape[1]
    n_cov = int(gen.integers(1, 4))
    d = gen.normal(size=(n_cov, p))
    # half the draws have covariate rows the donors fit exactly, which bind
    z = d @ gen.dirichlet(np.ones(p)) if gen.random() < 0.5 else gen.normal(size=n_cov)
    v = gen.dirichlet(np.ones(n_cov))
    lam, m = float(gen.uniform(0.05, 1.0)), int(gen.integers(1, p + 1))
    if kind == "plain":
        lam = 0.0  # a plain fit has no tuning parameter
    cold = {
        "plain": lambda yy: solve_sc(yy, x),
        "penalized": lambda yy: solve_penalized_sc(yy, x, lam),
        "masc": lambda yy: solve_masc(yy, x, lam, m),
        "covariate": lambda yy: solve_sc_cov_inner(yy, x, z, d, v, lam=lam),
    }[kind]
    try:
        want = divergence_fd_oracle(cold, y)
    except ConvergenceError:
        assume(False)  # wide draws the engine cannot solve cold (ROADMAP item 1)
    args = SimpleNamespace(estimator=kind, lam=lam, m=m, v=",".join(repr(float(w)) for w in v))
    panel = PanelDataset(y=y, x=x, z=z, d=d)
    fit = cli._fit_one(args, panel)
    got = divergence_fd_oracle(lambda yy: cli._fit_one(args, panel, yy, fit), y)
    np.testing.assert_array_equal(got.matrix, want.matrix)
    assert got.changed_coordinates == want.changed_coordinates
