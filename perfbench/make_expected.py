#!/usr/bin/env python3
"""Record the chosen grid indices of every pooled input into expected.json.

Run once on the commit that defines the baseline; the benchmark then
checks every operation against this table.  For the race pool the
indices come from an independent recomputation (all 20 penalized fits,
the per-draw true risk, the information criterion and the holdout
selector), and the benchmark's own check of the replication report must
accept them before they are recorded.  For the select pool it also
records each selector's work on each draw (simplex iterations), by which
the select workload spreads its draws.

    python3 perfbench/make_expected.py
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import synthsel  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def most_regularized_argmin(lams, scores) -> int:
    """Minimizer with exact ties (1e-12 relative) broken toward the largest
    tuning parameter, then the earliest grid point."""
    scores = np.asarray(scores, dtype=float)
    best = float(np.min(scores))
    tied = [i for i in range(len(scores)) if scores[i] <= best + 1e-12 * (1.0 + abs(best))]
    return max(tied, key=lambda i: (lams[i], -i))


def race_entry(race: wl.Race, key: int):
    draw = race.draw(key)
    y, x = draw.y[: wl.N_PRE], draw.x[: wl.N_PRE]
    grid = race.grid
    fits = [synthsel.solve_penalized_sc(y, x, lam) for lam in grid]
    means = synthsel.conditional_mean_path(race.spec, draw)[: wl.N_PRE]
    star = most_regularized_argmin(grid, [np.sum((f.fitted - means) ** 2) for f in fits])
    s2 = float(np.mean(synthsel.solve_sc(y, x).residuals ** 2))
    sure = most_regularized_argmin(
        grid, [f.rss + 2.0 * s2 * synthsel.df_hat(f).df_hat for f in fits]
    )
    panel = synthsel.PanelDataset(
        y=y, x=x, post_y=draw.y[wl.N_PRE :], post_x=draw.x[wl.N_PRE :]
    )
    holdout = synthsel.cv_holdout(panel, "penalized", grid=grid, split_fraction=0.5).chosen
    return [star, sure, int(holdout)]


def build(part: str):
    if part == "race":
        race = wl.Race(0, chosen={})
        race.keys = np.arange(wl.RACE_POOL)
        table = []
        for key in range(wl.RACE_POOL):
            race.chosen[key] = entry = race_entry(race, key)
            problems = race.check(key, race.run(key))
            if problems:
                raise SystemExit(f"race key {key}: {problems}")
            table.append(entry)
        return table, None
    spec = wl.factor_spec()
    chosen, work = [], []
    for key in range(wl.SELECT_POOL):
        panel = wl.select_panel(spec, key)
        row, iterations = [], []
        for name in wl.SELECTORS:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                row.append(int(wl.run_selector(name, panel).chosen))
            finally:
                tracer.uninstall()
            iterations.append(
                sum(s[5]["iterations"] for s in tracer.spans if s[1] == tracing.SIMPLEX)
            )
        chosen.append(row)
        work.append(iterations)
    return chosen, work


def main() -> int:
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(2) as pool:
        (race, _), (select, work) = pool.map(build, ["race", "select"])
    tables = {"race": race, "select": select, "select_work": work}
    data = {
        "about": "chosen grid indices per pooled input: race rows are "
        "[risk, sure, cv_holdout] per replication key, select rows follow "
        + ",".join(wl.SELECTORS)
        + "; select_work rows hold each selector's simplex iterations on that draw",
        **tables,
        "digest": {name: wl.table_digest(table) for name, table in tables.items()},
    }
    with open(wl.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(data, handle, separators=(",", ":"))
        handle.write("\n")
    print(f"wrote {wl.EXPECTED_PATH}: {len(race)} race and {len(select)} select entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
