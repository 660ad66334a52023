#!/usr/bin/env python3
"""Full selection-method race across the three simulation designs.

Runs every selection method (oracle risk, information criteria with true
and estimated noise, and the three cross-validation baselines) under the
Gaussian factor design, the empirical-innovation design, and the block
bootstrap, writing one CSV table per design.
"""

import argparse
import sys

import numpy as np

from synthsel.io import write_benchmark_csv
from synthsel.simulation import (
    BENCHMARK_METHODS,
    run_selection_benchmark,
    synthetic_factor_spec,
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--reps", type=int, default=200)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--donors", type=int, default=40)
    ap.add_argument("--pre", type=int, default=36)
    ap.add_argument("--post", type=int, default=12)
    ap.add_argument("--designs", default="gaussian,empirical,block_bootstrap")
    ap.add_argument(
        "--methods",
        default=",".join(BENCHMARK_METHODS),
        help="subset of: " + ",".join(BENCHMARK_METHODS),
    )
    ap.add_argument("--grid-points", type=int, default=20)
    ap.add_argument("--prefix", default="benchmark")
    args = ap.parse_args(argv)

    spec = synthetic_factor_spec(
        args.donors, args.pre + args.post, r=1, seed=100, sigma_y=0.5, sigma_x=2.0
    )
    lams = np.concatenate([[0.0], np.geomspace(0.0125, 10.0, args.grid_points - 1)])
    methods = [tok.strip() for tok in args.methods.split(",") if tok.strip()]

    for design in (tok.strip() for tok in args.designs.split(",") if tok.strip()):
        report = run_selection_benchmark(
            design,
            methods,
            args.reps,
            args.seed,
            spec=spec,
            n_donors=args.donors,
            n_pre=args.pre,
            n_post=args.post,
            lambda_grid=lams,
        )
        path = f"{args.prefix}_{design}.csv"
        write_benchmark_csv(path, report)
        print(f"[{design}]")
        for row in report.methods:
            lam = "   *  " if row.mse_lambda is None else f"{row.mse_lambda:6.4f}"
            t1 = "   *  " if row.mse_tau1 is None else f"{row.mse_tau1:6.3f}"
            t12 = "   *  " if row.mse_tau12 is None else f"{row.mse_tau12:6.3f}"
            print(f"  {row.method:18s} mse_tau1={t1} mse_tau12={t12} mse_lambda={lam}")
        print(f"  wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
