#!/usr/bin/env python3
"""Self-test of the benchmark.

1. Two traced runs of one seed, one round each (``--seconds 0``), must report identical
   deterministic counters (solves, iterations, solve_sc calls and unique
   inputs, canonical re-solves, uncertified fits, ...) and no failures.
2. In a directory that holds only BENCHMARK.json and the benchmark's own
   files, the benchmark must exit non-zero without printing a result.

    python3 perfbench/selftest.py [--seed 7] [--workloads race,select,cli]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

from tracing import LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNTERS = [name for name, unit, _ in LAYER_METRICS if unit == "count"] + [
    "solvers.solve_sc.unique_ratio"
]


def traced_counters(workload: str, seed: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "1", "--seconds", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload}: run failed\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload}: run reported failures\n{done.stdout[-2000:]}")
    return {name: result["metrics"][name]["value"] for name in COUNTERS}


def bare_directory_fails() -> bool:
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "race", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return done.returncode != 0 and '"metrics"' not in done.stdout


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--workloads", default="race,select,cli")
    args = ap.parse_args()
    ok = True
    for workload in args.workloads.split(","):
        first = traced_counters(workload, args.seed)
        second = traced_counters(workload, args.seed)
        differ = {k: (first[k], second[k]) for k in COUNTERS if first[k] != second[k]}
        ok &= not differ
        print(f"{workload}: counters {'identical' if not differ else f'DIFFER {differ}'}")
        print("  " + ", ".join(f"{k}={v:g}" for k, v in first.items() if v))
    bare_ok = bare_directory_fails()
    ok &= bare_ok
    print(f"bare directory: {'exits non-zero without a result' if bare_ok else 'DID NOT FAIL'}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
