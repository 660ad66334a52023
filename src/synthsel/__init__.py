"""Synthetic control estimation with analytic degrees of freedom and
Stein-type model selection."""

from .errors import (
    ConfigurationError,
    ConvergenceError,
    PanelParseError,
    SingularityError,
    SynthselError,
)
from .panel import PanelDataset
from .solvers import (
    ActiveSets,
    KktCertificate,
    ScFit,
    Weights,
    default_v_grid,
    matching_weights,
    simplex_ls,
    solve_masc,
    solve_matching,
    solve_penalized_sc,
    solve_sc,
    solve_sc_cov,
    solve_sc_cov_inner,
)
from .dof import (
    DivergenceMatrix,
    DofReport,
    df_hat,
    divergence,
    divergence_fd_oracle,
)
from .selection import (
    SelectionResult,
    TuningPoint,
    cv_holdout,
    cv_loo_untreated,
    cv_rolling,
    default_lambda_grid,
    ic_value,
    select_lambda_ic,
    select_v_ic,
    sigma2_hat,
)
from .simulation import (
    BenchmarkReport,
    BootstrapSpec,
    FactorModelSpec,
    conditional_mean_path,
    draw_factor_empirical,
    draw_factor_gaussian,
    fit_factor_model,
    mc_dof,
    run_selection_benchmark,
    stationary_bootstrap,
    synthetic_factor_spec,
    true_proportional_risk,
)
from .diagnostics import (
    EffectPath,
    WhiteTestReport,
    effect_path,
    penalty_distance,
    placebo_forecast,
    white_test,
)
from .io import LoadedPanel, load_panel, preprocess, preprocess_loaded

__version__ = "0.1.0"
