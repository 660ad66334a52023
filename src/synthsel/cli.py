"""Command-line interface.

Subcommands: ``fit``, ``select``, ``df``, ``cv``, ``simulate``,
``benchmark``, ``placebo``, ``whitetest``.  Every command writes a JSON
report (to ``--output`` or stdout) and optionally plot-ready CSV tables.
Exit codes: 0 on success, 1 on a computation failure (with a structured
error report), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import diagnostics, io as pio, selection, simulation
from .dof import df_hat, divergence, divergence_fd_oracle
from .errors import ConfigurationError, SynthselError
from .panel import PanelDataset
from .solvers import (
    COVARIATE,
    MASC,
    PENALIZED,
    PLAIN,
    ScFit,
    _FitGrid,
    _fit_grid,
    _least_rss,
)


def parse_grid(spec: str) -> np.ndarray:
    """Grid notations: ``a:b:count`` (uniform), ``log:a:b:count``
    (log-spaced), or a comma-separated list of values."""
    spec = spec.strip()
    try:
        if spec.startswith("log:"):
            a, b, count = spec[4:].split(":")
            return np.geomspace(float(a), float(b), int(count))
        if ":" in spec:
            a, b, count = spec.split(":")
            return np.linspace(float(a), float(b), int(count))
        return np.asarray([float(tok) for tok in spec.split(",") if tok.strip() != ""])
    except ValueError as exc:
        raise ConfigurationError(f"cannot parse grid spec {spec!r}: {exc}")


def parse_int_grid(spec: str) -> list[int]:
    """Integer grid notations: ``a:b`` (inclusive range) or a
    comma-separated list of values."""
    spec = spec.strip()
    try:
        if ":" in spec:
            a, b = spec.split(":")
            return list(range(int(a), int(b) + 1))
        return [int(tok) for tok in spec.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigurationError(f"cannot parse integer grid spec {spec!r}: {exc}")


def _load(args) -> pio.LoadedPanel:
    loaded = pio.load_panel(
        args.input,
        treated=args.treated,
        treatment_period=args.treatment_period,
        covariates_path=getattr(args, "covariates", None),
    )
    return pio.preprocess_loaded(loaded, ma_window=args.ma_window, demean=args.demean)


def _fit_point(args, panel: PanelDataset, y=None, prev=None) -> tuple[_FitGrid, int]:
    """The grid and the index of the chosen estimator's fit of the outcome
    ``y`` (None: the panel's own) against the panel's already-validated
    donors and covariates, on the package's one fit door,
    ``solvers._fit_grid``, started from ``prev``, a fit of the same
    estimator to a nearby outcome, or cold when it is None or not
    ``unique``.  A solve keeps a warm fit only where it equals the cold one,
    so ``prev`` changes the work and never the fit.  The grid is the one
    point of ``--lambda``, ``--m`` and ``--v``; the covariate estimator
    without ``--v`` searches V in sample, over the default V grid at
    ``--lambda``, and keeps ``solve_sc_cov``'s choice (``_least_rss``)."""
    kind = args.estimator
    y = panel.y if y is None else y
    if kind == COVARIATE and not panel.has_covariates:
        raise ConfigurationError("covariate estimator requires --covariates")
    v_grid = None
    if kind == COVARIATE and args.v:
        try:
            v_grid = [[float(tok) for tok in args.v.split(",")]]
        except ValueError as exc:
            raise ConfigurationError(f"cannot parse --v {args.v!r}: {exc}")
    points = selection.tuning_grid(kind, [args.lam], [args.m], v_grid, n_cov=panel.n_cov)
    fits = _fit_grid(y, panel.x, kind, points, panel.z, panel.d, prev=prev)
    return fits, _least_rss(fits) if kind == COVARIATE else 0


def _fit_one(args, panel: PanelDataset, y=None, prev=None) -> ScFit:
    """The fit ``_fit_point`` chooses."""
    fits, i = _fit_point(args, panel, y, prev)
    return fits[i]


def _fit_report(fit: ScFit, plain_residuals, loaded: pio.LoadedPanel, panel: PanelDataset) -> dict:
    """``fit``'s report; ``plain_residuals`` are its grid's (``_FitGrid``)."""
    s2 = selection._plain_sigma2(panel.y, panel.x, plain_residuals)
    report = df_hat(fit)
    results = {
        "estimator": fit.kind,
        "lambda": fit.lam,
        "m": fit.m,
        "weights": {
            loaded.donor_names[i]: float(w)
            for i, w in enumerate(fit.beta)
            if w > fit.active_tol
        },
        "active_set": [loaded.donor_names[i] for i in fit.sets.a],
        "rss": fit.rss,
        "sigma2_hat": s2,
        "df_hat": report.df_hat,
        "df_case": report.case,
        "face_dim": report.face_dim,
        "ic": selection.ic_value(fit.rss, s2, report.df_hat),
        "penalty_distance": diagnostics.penalty_distance(fit),
        "kkt": {
            "stationarity_residual": fit.kkt.stationarity_residual,
            "complementarity_gap": fit.kkt.complementarity_gap,
            "degenerate": fit.kkt.degenerate,
        },
    }
    if panel.has_post:
        path = diagnostics.effect_path(fit, panel.post_y, panel.post_x)
        results["effect"] = {
            "tau": path.tau,
            "tau_avg_1": path.tau_avg[1],
            "tau_avg_12": path.tau_avg[12],
        }
    return results


def _selection_results(res: selection.SelectionResult) -> dict:
    def point(pt: selection.TuningPoint) -> dict:
        return {"lambda": pt.lam, "m": pt.m, "v": list(pt.v) if pt.v else None}

    return {
        "method": res.method,
        "sigma2_hat": res.sigma2_hat,
        "grid": [point(pt) for pt in res.grid],
        "scores": res.scores,
        "chosen_index": res.chosen,
        "chosen": point(res.chosen_point),
        "chosen_score": res.chosen_score,
    }


def _curve_csv(path: str, res: selection.SelectionResult) -> None:
    """One row per grid point; ``v`` holds the diagonal covariate weights
    joined by ``;`` (empty when the point has none)."""
    pio.write_csv(
        path,
        ["lambda", "m", "v", "score"],
        [
            [
                pt.lam,
                pt.m if pt.m is not None else "",
                ";".join(str(float(w)) for w in pt.v) if pt.v is not None else "",
                float(s),
            ]
            for pt, s in zip(res.grid, res.scores)
        ],
    )


# ---------------------------------------------------------------------------
# subcommand runners
# ---------------------------------------------------------------------------


def _cmd_fit(args) -> dict:
    loaded = _load(args)
    panel = loaded.dataset
    fits, chosen = _fit_point(args, panel)
    fit = fits[chosen]
    results = _fit_report(fit, fits.plain_residuals, loaded, panel)
    if args.fitted_csv:
        pio.write_csv(
            args.fitted_csv,
            ["time", "observed", "fitted"],
            [
                [loaded.pre_times[i], float(panel.y[i]), float(fit.fitted[i])]
                for i in range(panel.n)
            ],
        )
    return results


def _cmd_select(args) -> dict:
    loaded = _load(args)
    panel = loaded.dataset
    grid = parse_grid(args.grid) if args.grid else None
    m_grid = parse_int_grid(args.m_grid) if args.m_grid else None
    method = args.method
    if method == "sure":
        res = selection.select_lambda_ic(panel, args.estimator, grid, m_grid=m_grid)
    elif method == "cv-holdout":
        res = selection.cv_holdout(panel, args.estimator, grid, args.split, m_grid=m_grid)
    elif method == "cv-loo":
        res = selection.cv_loo_untreated(panel, args.estimator, grid, m_grid=m_grid)
    elif method == "cv-rolling":
        res = selection.cv_rolling(
            panel, args.estimator, grid, args.window, args.horizon, m_grid=m_grid
        )
    else:
        raise ConfigurationError(f"unknown selection method {method!r}")
    if args.curve_csv:
        _curve_csv(args.curve_csv, res)
    return _selection_results(res)


def _cmd_cv(args) -> dict:
    args.method = {"holdout": "cv-holdout", "loo-untreated": "cv-loo", "rolling": "cv-rolling"}[
        args.cv_method
    ]
    return _cmd_select(args)


def _cmd_df(args) -> dict:
    loaded = _load(args)
    panel = loaded.dataset
    fit = _fit_one(args, panel)
    report = df_hat(fit)
    div = divergence(fit, panel.x, panel.d)
    results = {
        "estimator": fit.kind,
        "lambda": fit.lam,
        "df_hat": report.df_hat,
        "case": report.case,
        "face_dim": report.face_dim,
        "n_active": report.n_active,
        "n_m_and_e": report.n_me,
        "n_e_minus_m": report.n_em,
        "divergence_trace": div.trace,
    }
    if args.fd_check:
        fd = divergence_fd_oracle(lambda y: _fit_one(args, panel, y, fit), panel.y)
        results["fd_check"] = {
            "max_abs_deviation": float(np.max(np.abs(div.matrix - fd.matrix))),
            "active_set_changed": fd.active_set_changed,
            "step": fd.step,
        }
    return results


def _cmd_simulate(args) -> dict:
    if args.fit_from:
        loaded = pio.load_panel(args.fit_from, args.treated, args.treatment_period)
        loaded = pio.preprocess_loaded(loaded, ma_window=args.ma_window, demean=args.demean)
        spec = simulation.fit_factor_model(loaded.dataset, r=args.factors)
        periods = loaded.dataset.n if args.periods is None else args.periods
    else:
        if args.design == "empirical":
            raise ConfigurationError("the empirical design needs --fit-from for a residual pool")
        periods = 48 if args.periods is None else args.periods
        # --units counts the treated unit as well as the donors
        spec = simulation.synthetic_factor_spec(
            args.units - 1, periods, r=args.factors, seed=args.seed
        )
    if args.design == "gaussian":
        draw = simulation.draw_factor_gaussian(spec, periods, args.seed)
    else:
        observed = loaded.dataset
        pool = observed.y - simulation.conditional_mean_path(
            spec,
            simulation.FactorPanelDraw(y=observed.y, x=observed.x, delta=spec.delta[: observed.n]),
        )
        draw = simulation.draw_factor_empirical(spec, pool, periods, args.seed)
    if args.output_panel:
        names = tuple(f"donor_{j + 1}" for j in range(draw.x.shape[1]))
        loaded_out = pio.LoadedPanel(
            dataset=PanelDataset(y=draw.y, x=draw.x),
            treated="treated",
            donor_names=names,
            pre_times=tuple(f"t{idx + 1}" for idx in range(draw.y.shape[0])),
            post_times=(),
        )
        pio.write_panel_csv(args.output_panel, loaded_out)
    return {
        "design": args.design,
        "periods": periods,
        "units": spec.n_units,
        "factors": spec.n_factors,
        "seed": args.seed,
        "conditional_variance": spec.conditional_variance(),
        "sigma": spec.sigma,
        "panel_csv": args.output_panel,
    }


def _cmd_benchmark(args) -> simulation.BenchmarkReport:
    methods = [tok.strip() for tok in args.methods.split(",") if tok.strip()]
    grid = parse_grid(args.grid) if args.grid else None
    report = simulation.run_selection_benchmark(
        args.design,
        methods,
        args.reps,
        args.seed,
        n_donors=args.donors,
        n_pre=args.pre,
        n_post=args.post,
        lambda_grid=grid,
    )
    if args.csv:
        pio.write_benchmark_csv(args.csv, report)
    return report


def _cmd_placebo(args) -> dict:
    args.treated = args.target
    loaded = _load(args)
    panel = loaded.dataset
    if args.exclude:
        drop = {name.strip() for name in args.exclude.split(",") if name.strip()}
        unknown = sorted(drop - set(loaded.donor_names))
        if unknown:
            raise ConfigurationError(f"--exclude names no donor: {', '.join(unknown)}")
        keep = [i for i, name in enumerate(loaded.donor_names) if name not in drop]
        if not keep:
            raise ConfigurationError("every donor was excluded")

        def columns(mat):
            return None if mat is None else mat[:, keep]

        # a constructor call of this module's, so that a duplicate-donor
        # warning names this line
        panel = PanelDataset(
            y=panel.y, x=panel.x[:, keep], z=panel.z, d=columns(panel.d),
            post_y=panel.post_y, post_x=columns(panel.post_x),
        )
    fit = _fit_one(args, panel)
    placebo = diagnostics.placebo_forecast(fit, panel, horizon=args.horizon)
    return {
        "target": args.target,
        "estimator": fit.kind,
        "lambda": fit.lam,
        "horizon": placebo.horizon,
        "mean_squared_forecast_error": placebo.mse,
        "tau": placebo.path.tau,
    }


def _cmd_whitetest(args) -> dict:
    loaded = _load(args)
    panel = loaded.dataset
    fit = _fit_one(args, panel)
    report = diagnostics.white_test(fit, panel.x)
    return {"estimator": fit.kind, "lambda": fit.lam, **dataclasses.asdict(report)}


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _add_panel_args(sub, treated_flag=True):
    sub.add_argument("--input", required=True, help="outcome panel CSV")
    if treated_flag:
        sub.add_argument("--treated", required=True, help="treated unit column name")
    sub.add_argument("--treatment-period", required=True, dest="treatment_period")
    sub.add_argument("--covariates", default=None, help="optional covariate CSV")
    sub.add_argument("--ma-window", type=int, default=1, dest="ma_window")
    sub.add_argument("--demean", action="store_true")


def _add_cv_args(sub):
    sub.add_argument("--grid", default=None, help="a:b:count, log:a:b:count, or v1,v2,...")
    sub.add_argument("--m-grid", default=None, dest="m_grid", help="a:b or m1,m2,...")
    sub.add_argument("--split", type=float, default=0.5)
    sub.add_argument("--window", type=int, default=None)
    sub.add_argument("--horizon", type=int, default=1)
    sub.add_argument("--curve-csv", default=None, dest="curve_csv")


def _add_estimator_args(sub, point=True):
    sub.add_argument(
        "--estimator",
        default=PLAIN,
        choices=[PLAIN, PENALIZED, MASC, COVARIATE],
    )
    if point:  # the one point a command fits; select and cv take grids
        sub.add_argument("--lambda", type=float, default=0.0, dest="lam")
        sub.add_argument("--m", type=int, default=1)
        sub.add_argument("--v", default=None, help="fixed diagonal weights, comma separated")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synthsel",
        description="synthetic control estimation, degrees of freedom and model selection",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", default=None, help="JSON report path (default stdout)")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)

    def add_parser(name, help_text, **kwargs):
        return subs.add_parser(name, help=help_text, parents=[common], **kwargs)

    fit = add_parser("fit", "fit one estimator and report weights and df")
    _add_panel_args(fit)
    _add_estimator_args(fit)
    fit.add_argument("--fitted-csv", default=None, dest="fitted_csv")
    fit.set_defaults(run=_cmd_fit)

    # no abbreviations, or a refused --m would read as --m-grid
    sel = add_parser("select", "select tuning parameters", allow_abbrev=False)
    _add_panel_args(sel)
    _add_estimator_args(sel, point=False)
    sel.add_argument("--method", default="sure", choices=["sure", "cv-holdout", "cv-loo", "cv-rolling"])
    _add_cv_args(sel)
    sel.set_defaults(run=_cmd_select)

    dfp = add_parser("df", "degrees of freedom and divergence of one fit")
    _add_panel_args(dfp)
    _add_estimator_args(dfp)
    dfp.add_argument("--fd-check", action="store_true", dest="fd_check")
    dfp.set_defaults(run=_cmd_df)

    cvp = add_parser("cv", "cross-validation scoring", allow_abbrev=False)
    _add_panel_args(cvp)
    _add_estimator_args(cvp, point=False)
    cvp.add_argument("--cv-method", default="holdout", dest="cv_method",
                     choices=["holdout", "loo-untreated", "rolling"])
    _add_cv_args(cvp)
    cvp.set_defaults(run=_cmd_cv)

    sim = add_parser("simulate", "draw a synthetic panel from the factor design")
    sim.add_argument("--design", default="gaussian", choices=["gaussian", "empirical"])
    sim.add_argument("--fit-from", default=None, dest="fit_from", help="panel CSV to calibrate from")
    sim.add_argument("--treated", default=None)
    sim.add_argument("--treatment-period", default=None, dest="treatment_period")
    sim.add_argument("--ma-window", type=int, default=1, dest="ma_window")
    sim.add_argument("--demean", action="store_true")
    sim.add_argument("--units", type=int, default=11,
                     help="unit count of a synthetic spec: the treated unit plus the donors")
    sim.add_argument("--periods", type=int, default=None)
    sim.add_argument("--factors", type=int, default=3)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--output-panel", default=None, dest="output_panel")
    sim.set_defaults(run=_cmd_simulate)

    ben = add_parser("benchmark", "race the selection methods on a known design")
    ben.add_argument("--design", default="gaussian", choices=list(simulation.DESIGNS))
    ben.add_argument("--reps", type=int, default=200)
    ben.add_argument("--seed", type=int, default=0)
    ben.add_argument("--methods", default="risk,sure,cv_holdout")
    ben.add_argument("--donors", type=int, default=40)
    ben.add_argument("--pre", type=int, default=36)
    ben.add_argument("--post", type=int, default=12)
    ben.add_argument("--grid", default=None)
    ben.add_argument("--csv", default=None)
    ben.set_defaults(run=_cmd_benchmark)

    pla = add_parser("placebo", "forecast a known-untreated unit")
    _add_panel_args(pla, treated_flag=False)
    pla.add_argument("--target", required=True, help="untreated unit to forecast")
    pla.add_argument("--exclude", default=None, help="donors to exclude, comma separated")
    pla.add_argument("--horizon", type=int, default=12)
    _add_estimator_args(pla)
    pla.set_defaults(run=_cmd_placebo)

    whi = add_parser("whitetest", "heteroskedasticity diagnostic")
    _add_panel_args(whi)
    _add_estimator_args(whi)
    whi.set_defaults(run=_cmd_whitetest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # checked before the command runs, also where no panel is preprocessed
        if getattr(args, "ma_window", 1) < 1:
            raise ConfigurationError("moving-average window must be >= 1")
        results = args.run(args)
    except (SynthselError, ValueError) as exc:
        error_payload = {
            "schema_version": pio.SCHEMA_VERSION,
            "command": args.command,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        sys.stdout.write(json.dumps(error_payload, indent=2, sort_keys=True) + "\n")
        return 1
    text = pio.write_report(args.output, args.command, _config_echo(args), results)
    if not args.output:
        sys.stdout.write(text)
    return 0


def _config_echo(args) -> dict:
    """The command's options as parsed (and as the command completed them),
    without the unset ones."""
    return {k: v for k, v in vars(args).items() if k not in ("run", "command") and v is not None}


if __name__ == "__main__":
    sys.exit(main())
