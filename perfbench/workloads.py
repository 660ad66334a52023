"""Workload definitions: input generation, operations and output checks.

Every workload turns ``--seed`` into its inputs and exposes

* ``kind(i)``: the name of operation ``i`` (the latency series it feeds);
* ``run(i)``: operation ``i`` itself, the only code that is timed;
* ``check(i, out)``: a list of problems with the operation's output
  (empty when the output is correct).

Checks use only the public API of ``synthsel`` and compare against the
committed table ``expected.json`` (chosen grid indices recorded on the
seed commit, see ``make_expected.py``) or against an in-process library
call.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import numpy as np

import synthsel
from synthsel import simulation
from tracing import SELECTORS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
EXPECTED_PATH = os.path.join(HERE, "expected.json")

#: the acceptance-09 design: 40 donors, 36 pre- and 12 post-periods
N_DONORS, N_PRE, N_POST = 40, 36, 12
RACE_METHODS = ("risk", "sure", "cv_holdout")
RACE_POOL = 1024
SELECT_POOL = 96
N_COV = 3
#: draws prepared per selector at set-up; later calls of a selector reuse them
SELECT_PREPARED = 12
GOLDEN = (5**0.5 - 1) / 2
CLI_LAMBDA = "0.3"
DF_TOL = 1e-9
REL_TOL = 1e-6

CLI_BOOT = "import sys; from synthsel.cli import main; sys.exit(main())"


def factor_spec():
    return synthsel.synthetic_factor_spec(
        N_DONORS, N_PRE + N_POST, r=1, seed=100, sigma_y=0.5, sigma_x=2.0
    )


def race_grid() -> np.ndarray:
    return np.concatenate([[0.0], np.geomspace(0.0125, 10.0, 19)])


def pool_order(seed: int, size: int) -> np.ndarray:
    """The seed's own ordering of a committed input pool."""
    return np.random.default_rng([int(seed), size]).permutation(size)


def select_panel(spec, key: int) -> synthsel.PanelDataset:
    """36x40 pre-period draw, 12 post-periods and three covariate rows
    (the outcome averaged over three consecutive 12-period blocks)."""
    draw = synthsel.draw_factor_gaussian(spec, N_PRE + N_POST, simulation.spawn_rng(int(key), 1))
    y, x = draw.y[:N_PRE], draw.x[:N_PRE]
    blocks = np.array_split(np.arange(N_PRE), N_COV)
    z = np.array([y[b].mean() for b in blocks])
    d = np.vstack([x[b].mean(axis=0) for b in blocks])
    return synthsel.PanelDataset(
        y=y, x=x, z=z, d=d, post_y=draw.y[N_PRE:], post_x=draw.x[N_PRE:]
    )


def run_selector(name: str, panel: synthsel.PanelDataset):
    grid = race_grid()
    if name == "ic_penalized":
        return synthsel.select_lambda_ic(panel, "penalized")
    if name == "ic_masc":
        return synthsel.select_lambda_ic(panel, "masc")
    if name == "cv_loo":
        return synthsel.cv_loo_untreated(panel, "penalized", grid=grid)
    if name == "cv_rolling":
        return synthsel.cv_rolling(panel, "penalized", grid=grid)
    if name == "ic_v":
        return synthsel.select_v_ic(panel, synthsel.default_v_grid(N_COV), grid)
    raise ValueError(f"unknown selector {name!r}")


def check_kkt(fit) -> list[str]:
    if fit.kkt.satisfied():
        return []
    return [f"uncertified {fit.kind} fit (stationarity={fit.kkt.stationarity_residual:.2e})"]


def check_fit(fit, x, d=None) -> list[str]:
    """KKT certificate, and df_hat against the divergence trace."""
    problems = check_kkt(fit)
    df = synthsel.df_hat(fit).df_hat
    trace = synthsel.divergence(fit, x, d).trace
    if not abs(df - trace) <= DF_TOL:
        problems.append(f"df_hat {df!r} != divergence trace {trace!r}")
    return problems


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + 1e-12


def table_digest(table) -> str:
    text = json.dumps(table, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_expected() -> dict:
    """Committed chosen indices; the embedded digest guards the table."""
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        data = json.load(handle)
    for name in ("race", "select", "select_work"):
        if table_digest(data[name]) != data["digest"][name]:
            raise ValueError(f"expected.json: {name} table does not match its digest")
    return data


# ---------------------------------------------------------------------------
# race: one replication of the acceptance-09 selection benchmark
# ---------------------------------------------------------------------------


class Race:
    """Replication keys come from a committed pool of 1024; each replication
    draws under its own key, ``spawn_rng(key, 0)``."""

    name = "race"
    round_size = 8

    def __init__(self, seed: int, chosen=None):
        self.spec = factor_spec()
        self.grid = race_grid()
        self.keys = pool_order(seed, RACE_POOL)
        self.chosen = load_expected()["race"] if chosen is None else chosen

    def kind(self, i: int) -> str:
        return "rep"

    def key(self, i: int) -> int:
        return int(self.keys[i % RACE_POOL])

    def run(self, i: int):
        return synthsel.run_selection_benchmark(
            "gaussian", RACE_METHODS, 1, self.key(i),
            spec=self.spec, n_donors=N_DONORS, n_pre=N_PRE, n_post=N_POST,
            lambda_grid=self.grid,
        )

    def draw(self, key: int):
        return synthsel.draw_factor_gaussian(
            self.spec, N_PRE + N_POST, simulation.spawn_rng(key, 0)
        )

    def check(self, i: int, report) -> list[str]:
        """The report rows must be those of the committed chosen indices:
        the effect errors of the fit at each index and the squared lambda
        distance to the risk-optimal index."""
        key = self.key(i)
        chosen = self.chosen[key]
        draw = self.draw(key)
        y, x = draw.y[:N_PRE], draw.x[:N_PRE]
        y_post, x_post = draw.y[N_PRE:], draw.x[N_PRE:]
        problems: list[str] = []
        fits = {
            idx: synthsel.solve_penalized_sc(y, x, self.grid[idx]) for idx in sorted(set(chosen))
        }
        for idx, fit in fits.items():
            checks = check_fit(fit, x) if idx == chosen[1] else check_kkt(fit)
            problems += [f"key {key}: index {idx}: {p}" for p in checks]
        lam_star = self.grid[chosen[0]]
        for method, idx in zip(RACE_METHODS, chosen):
            row = report.method(method)
            tau = y_post - x_post @ fits[idx].beta
            want = (float(tau[0]) ** 2, float(np.mean(tau)) ** 2, (self.grid[idx] - lam_star) ** 2)
            got = (row.mse_tau1, row.mse_tau12, row.mse_lambda)
            if not all(g is not None and close(g, w) for g, w in zip(got, want)):
                problems.append(f"key {key}: {method} row {got} is not grid index {idx} {want}")
        return problems


# ---------------------------------------------------------------------------
# select: one selector call on a fresh 36x40 draw
# ---------------------------------------------------------------------------


def select_sequence(work: list[int], start: float) -> list[int]:
    """Pool keys for successive calls of one selector.

    The pool is ranked by the selector's work on each draw (simplex
    iterations, recorded with the chosen indices) and a golden-ratio
    sequence from ``start`` walks the ranking, so the first calls of any
    seed spread evenly over easy and hard draws and a run's median does
    not hinge on which few draws its seed picks."""
    ranked = sorted(range(len(work)), key=lambda k: (work[k], k))
    return [
        ranked[int(((start + j * GOLDEN) % 1.0) * len(ranked))] for j in range(SELECT_PREPARED)
    ]


class Select:
    """Operation ``i`` runs selector ``i mod 5`` on a draw from a committed
    pool of 96; each selector walks the pool by ``select_sequence``."""

    name = "select"
    round_size = len(SELECTORS)

    def __init__(self, seed: int):
        self.spec = factor_spec()
        expected = load_expected()
        self.chosen = expected["select"]
        starts = np.random.default_rng([int(seed), SELECT_POOL]).random(len(SELECTORS))
        self.keys = [
            select_sequence([row[s] for row in expected["select_work"]], starts[s])
            for s in range(len(SELECTORS))
        ]
        self.panels = {
            k: select_panel(self.spec, k) for k in sorted({k for keys in self.keys for k in keys})
        }

    def kind(self, i: int) -> str:
        return SELECTORS[i % len(SELECTORS)]

    def key(self, i: int) -> int:
        return self.keys[i % len(SELECTORS)][(i // len(SELECTORS)) % SELECT_PREPARED]

    def run(self, i: int):
        return run_selector(self.kind(i), self.panels[self.key(i)])

    def check(self, i: int, res) -> list[str]:
        name, key = self.kind(i), self.key(i)
        panel = self.panels[key]
        want = self.chosen[key][SELECTORS.index(name)]
        if res.chosen != want:
            return [f"draw {key}: {name} chose index {res.chosen}, expected {want}"]
        if not np.all(np.isfinite(res.scores)):
            return [f"draw {key}: {name} has non-finite scores"]
        pt = res.chosen_point
        if name == "ic_masc":
            fit = synthsel.solve_masc(panel.y, panel.x, pt.lam, pt.m)
        elif name == "ic_v":
            fit = synthsel.solve_sc_cov_inner(
                panel.y, panel.x, panel.z, panel.d, np.asarray(pt.v), lam=pt.lam
            )
        else:
            fit = synthsel.solve_penalized_sc(panel.y, panel.x, pt.lam)
        problems = [f"draw {key}: {name}: {p}" for p in check_fit(fit, panel.x, panel.d)]
        if name.startswith("ic_"):
            score = synthsel.ic_value(fit.rss, res.sigma2_hat, synthsel.df_hat(fit).df_hat)
            if not close(score, res.chosen_score):
                problems.append(f"draw {key}: {name} score {res.chosen_score!r} != {score!r}")
        return problems


# ---------------------------------------------------------------------------
# cli: one fresh synthsel process on a CSV panel
# ---------------------------------------------------------------------------


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def spawn(argv: list[str], stderr_path: str):
    """Run one child to completion; returns (exit code, stdout, peak RSS in
    MB), the RSS from the child's own resource usage."""
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=cli_env(), cwd=ROOT)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss / 1024.0


class Cli:
    """One 36x40 panel CSV (48 periods, treatment at ``t37``) written once;
    operations alternate ``fit`` and ``df --fd-check``."""

    name = "cli"
    round_size = 2
    kinds = ("fit", "df_fd")

    def __init__(self, seed: int, tag: str = "run"):
        self.seed = int(seed)
        self.dir = os.path.join(OUT_DIR, f"cli-{tag}-{self.seed}")
        os.makedirs(self.dir, exist_ok=True)
        self.csv = os.path.join(self.dir, "panel.csv")
        spec = factor_spec()
        draw = synthsel.draw_factor_gaussian(
            spec, N_PRE + N_POST, simulation.spawn_rng(self.seed, 2)
        )
        times = [f"t{t + 1}" for t in range(N_PRE + N_POST)]
        header = ["time", "treated", *(f"d{j + 1:02d}" for j in range(N_DONORS))]
        with open(self.csv, "w", encoding="utf-8") as handle:
            handle.write(",".join(header) + "\n")
            for t, label in enumerate(times):
                cells = [label, repr(float(draw.y[t]))] + [repr(float(v)) for v in draw.x[t]]
                handle.write(",".join(cells) + "\n")
        self.treatment_period = times[N_PRE]
        self.expected = self.library_reference()
        self.peak_rss_mb = 0.0

    def kind(self, i: int) -> str:
        return self.kinds[i % 2]

    def argv(self, i: int) -> list[str]:
        cmd = "fit" if self.kind(i) == "fit" else "df"
        args = [
            cmd, "--input", self.csv, "--treated", "treated",
            "--treatment-period", self.treatment_period,
            "--estimator", "penalized", "--lambda", CLI_LAMBDA,
        ]
        return args + (["--fd-check"] if cmd == "df" else [])

    def run(self, i: int, prefix: list[str] | None = None):
        prefix = prefix or [sys.executable, "-c", CLI_BOOT]
        code, out, rss = spawn(prefix + self.argv(i), os.path.join(self.dir, "stderr.txt"))
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        return code, out

    def library_reference(self) -> dict:
        """The same fit computed in this process."""
        loaded = synthsel.preprocess_loaded(
            synthsel.load_panel(self.csv, "treated", self.treatment_period)
        )
        panel = loaded.dataset
        fit = synthsel.solve_penalized_sc(panel.y, panel.x, float(CLI_LAMBDA))
        return {
            "df_hat": synthsel.df_hat(fit).df_hat,
            "rss": fit.rss,
            "trace": synthsel.divergence(fit, panel.x).trace,
            "weights": {
                loaded.donor_names[j]: float(w)
                for j, w in enumerate(fit.beta)
                if w > fit.weights.active_tol
            },
            "problems": check_fit(fit, panel.x),
        }

    def check(self, i: int, out) -> list[str]:
        code, stdout = out
        if code != 0:
            return [f"{self.kind(i)} exited with code {code}"]
        ref = self.expected
        res = json.loads(stdout)["results"]
        problems = list(ref["problems"])
        if not close(res["df_hat"], ref["df_hat"], 1e-12):
            problems.append(f"df_hat {res['df_hat']!r} != library {ref['df_hat']!r}")
        if self.kind(i) == "fit":
            if not close(res["rss"], ref["rss"], 1e-12):
                problems.append(f"rss {res['rss']!r} != library {ref['rss']!r}")
            w = res["weights"]
            if set(w) != set(ref["weights"]) or not all(
                close(w[k], ref["weights"][k], 1e-12) for k in w
            ):
                problems.append("weights differ from the library fit")
        else:
            if not close(res["divergence_trace"], ref["trace"], 1e-12):
                problems.append("divergence trace differs from the library")
            fd = res.get("fd_check") or {}
            if not np.isfinite(fd.get("max_abs_deviation", np.nan)):
                problems.append("finite-difference check missing or not finite")
        return problems


WORKLOADS = {"race": Race, "select": Select, "cli": Cli}
