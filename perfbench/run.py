#!/usr/bin/env python3
"""synthsel benchmark: the race, select and cli workloads.

    python3 perfbench/run.py --workload race --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Each workload is a closed loop with one caller in one process.  With
``--trace 0`` the run measures end-to-end metrics with tracing off; with
``--trace 1`` it alternates untraced and traced executions of the same
operations and reports per-layer metrics (``tracing.py``) and the
tracing overhead.  Every operation's output is checked; an operation that
raises or fails a check counts as failed.  Human-readable lines come
first and the last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--workload all`` runs the three workloads in turn (untraced) and prints
every end-to-end metric of each.
"""

from __future__ import annotations

import os
import sys

# BLAS is pinned to one thread before numpy loads: the matrices are at most
# 40 columns wide, where one thread is both faster and steadier.  The
# package's own thread policy is left at its default.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("SYNTHSEL_THREADS", None)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402

import tracing  # noqa: E402
from calibration import NOMINAL_S, Calibration  # noqa: E402

SETUP_REPEATS = 5
MAX_FAILURE_LINES = 5
END_TO_END = (("op_s.p50", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
#: the latency series each workload reports, as named in the report lines
SERIES_NAMES = {
    "rep": "rep_s",
    "fit": "fit_s",
    "df_fd": "df_fd_s",
    **{sel: f"{sel}_s" for sel in tracing.SELECTORS},
}


def import_package():
    """Import synthsel from this checkout's ``src`` or exit with code 2."""
    if not os.path.isfile(os.path.join(SRC, "synthsel", "__init__.py")):
        sys.stderr.write(f"benchmark: no synthsel sources under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import synthsel

    if os.path.dirname(os.path.dirname(os.path.abspath(synthsel.__file__))) != SRC:
        sys.stderr.write(f"benchmark: synthsel imported from {synthsel.__file__}, not {SRC}\n")
        raise SystemExit(2)
    return synthsel


def environment(args) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        openblas = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "synthsel")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "blas_threads": int(BLAS_THREADS),
        "package_threads": package_threads(),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def package_threads() -> int:
    """Worker threads the package would use; 1 where it has no pool."""
    try:
        from synthsel.parallel import thread_count
    except ImportError:
        return 1
    return int(thread_count())


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def p90(values) -> float | None:
    """90th percentile when at least ten samples lie beyond it."""
    if len(values) < 100:
        return None
    return statistics.quantiles(values, n=10)[-1]


def series_lines(workload: str, raw: dict, calibrated: dict) -> list[str]:
    lines = []
    for kind, values in calibrated.items():
        name, n = SERIES_NAMES[kind], len(values)
        lines.append(
            f"{workload} {name}.p50 = {statistics.median(values):.6f} s "
            f"(n={n}; raw {statistics.median(raw[kind]):.6f} s)"
        )
        high = p90(values)
        if high is not None:
            beyond = sum(1 for v in values if v > high)
            lines.append(
                f"{workload} {name}.p90 = {high:.6f} s "
                f"(n={n}, {beyond} beyond; raw {p90(raw[kind]):.6f} s)"
            )
    return lines


def op_p50(latencies: dict) -> float:
    """Median operation time; with several operation kinds, the geometric
    mean of the per-kind medians, so each kind weighs the same.  One kind
    slowing by a factor f moves it by f**(1/kinds) only; see the README."""
    logs = [math.log(statistics.median(v)) for v in latencies.values()]
    return math.exp(sum(logs) / len(logs))


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def build(wl_mod, name: str, seed: int, tag: str = "run"):
    cls = wl_mod.WORKLOADS[name]
    return cls(seed, tag) if name == "cli" else cls(seed)


def setup_times(args, clock: Calibration):
    """Raw and calibrated wall times of fresh processes that import
    synthsel and generate the workload's inputs."""
    raw, calibrated = [], []
    clock.tick()
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            raise RuntimeError(f"set-up process failed: {done.stderr.strip()[-400:]}")
        clock.tick(after=elapsed)
        raw.append(elapsed)
        calibrated.append(clock.rescale(elapsed))
    return raw, calibrated


# ---------------------------------------------------------------------------
# the measured loops
# ---------------------------------------------------------------------------


class Outcomes:
    """Attempted and failed operations with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < MAX_FAILURE_LINES:
                self.messages.append("; ".join(problems)[:500])


def execute(workload, i: int, outcomes: Outcomes, runner=None) -> float:
    """Run operation ``i`` (through ``runner`` if given), check it and
    return its latency.  An operation that raises is timed up to the
    raise and counted as failed."""
    runner = runner or workload.run
    start = time.perf_counter()
    try:
        out = runner(i)
        elapsed = time.perf_counter() - start
        problems = workload.check(i, out)
    except Exception as exc:  # every failure is counted, never skipped
        elapsed = time.perf_counter() - start
        problems = [f"op {i} ({workload.kind(i)}): {type(exc).__name__}: {exc}"]
        traceback.print_exc(file=sys.stderr)
    outcomes.record(problems)
    return elapsed


def plain_loop(workload, seconds: float, outcomes: Outcomes, clock: Calibration):
    """One round of operations, then more until ``seconds`` have passed,
    with calibration ticks between them; returns the raw and the
    calibrated wall times of each operation kind."""
    raw, calibrated = defaultdict(list), defaultdict(list)
    clock.tick()
    deadline = time.perf_counter() + seconds
    i = 0
    while i < workload.round_size or time.perf_counter() < deadline:
        elapsed = execute(workload, i, outcomes)
        clock.tick(after=elapsed)
        raw[workload.kind(i)].append(elapsed)
        calibrated[workload.kind(i)].append(clock.rescale(elapsed))
        i += 1
    return raw, calibrated


def traced_loop(workload, seconds: float, outcomes: Outcomes, tracer):
    """Repeat the first ``round_size`` operations, each once untraced and
    once traced, for one round and then until ``seconds`` have passed."""
    untraced = traced = 0.0
    import_s: list[float] = []
    if workload.name == "cli":
        runner = traced_cli_runner(workload, tracer, import_s)
    else:
        def runner(i):
            tracer.install()
            try:
                return tracer.call(tracing.OP, workload.run, (i,), note={"kind": workload.kind(i)})
            finally:
                tracer.uninstall()
    deadline = time.perf_counter() + seconds
    done = 0
    while done == 0 or time.perf_counter() < deadline:
        for i in range(workload.round_size):
            untraced += execute(workload, i, outcomes)
            traced += execute(workload, i, outcomes, runner)
        done += 1
    overhead = traced / untraced - 1.0 if untraced > 0 else 0.0
    return overhead, (statistics.mean(import_s) if import_s else 0.0)


def traced_cli_runner(workload, tracer, import_s: list):
    child = os.path.join(HERE, "cli_child.py")
    spans_path = os.path.join(workload.dir, "spans.json")

    def runner(i):
        if os.path.exists(spans_path):
            os.remove(spans_path)
        out = workload.run(i, prefix=[sys.executable, child, spans_path])
        with open(spans_path, encoding="utf-8") as handle:
            data = json.load(handle)
        tracer.absorb(data["spans"])
        import_s.append(data["import_s"])
        return out

    return runner


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run_one(args, wl_mod, env: dict) -> dict:
    print("# env " + json.dumps(env, sort_keys=True), flush=True)
    workload = build(wl_mod, args.workload, args.seed)
    outcomes = Outcomes()
    if args.trace:
        tracer = tracing.Tracer()
        overhead, import_s = traced_loop(workload, args.seconds, outcomes, tracer)
        values = tracing.layer_metrics(
            tracer.spans, threads=env["package_threads"], cli_import_s=import_s
        )
        values["trace.overhead_ratio"] = overhead
        units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
        os.makedirs(wl_mod.OUT_DIR, exist_ok=True)
        tracer.dump(
            os.path.join(wl_mod.OUT_DIR, f"spans-{args.workload}-{args.seed}.json"), {"env": env}
        )
        for name, unit in {**units, **dict(tracing.WORKLOAD_LAYER_TIMES)}.items():
            print(f"{args.workload} {name} = {values[name]:.6g} {unit}")
    else:
        clock = Calibration()
        raw_setups, setups = setup_times(args, clock)
        raw, latencies = plain_loop(workload, args.seconds, outcomes, clock)
        for line in series_lines(args.workload, raw, latencies):
            print(line)
        os.makedirs(wl_mod.OUT_DIR, exist_ok=True)
        with open(os.path.join(wl_mod.OUT_DIR, f"latencies-{args.workload}-{args.seed}.json"),
                  "w", encoding="utf-8") as handle:
            json.dump({"env": env, "raw": raw, "calibrated": latencies, "setup_raw": raw_setups,
                       "setup_calibrated": setups, "ticks": clock.groups}, handle)
        rss = workload.peak_rss_mb if args.workload == "cli" else (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        values = {
            "op_s.p50": op_p50(latencies),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss,
        }
        units = dict(END_TO_END)
        print(f"{args.workload} setup_s = {values['setup_s']:.6f} s (n={len(setups)}; raw "
              + ", ".join(f"{t:.4f}" for t in raw_setups) + " s)")
        print(f"{args.workload} calibration: median of {len(clock.ticks)} kernel times "
              f"{statistics.median(clock.ticks):.6f} s, nominal {NOMINAL_S} s")
        print(f"{args.workload} peak_rss_mb = {rss:.3f} MB")
        print(f"{args.workload} op_s.p50 = {values['op_s.p50']:.6f} s")
    ratio = outcomes.failed / outcomes.attempted if outcomes.attempted else 1.0
    print(f"{args.workload} failed_ratio = {ratio:.6g} ({outcomes.failed}/{outcomes.attempted})")
    for message in outcomes.messages:
        print(f"{args.workload} FAILED: {message}")
    return {
        "correct": outcomes.failed == 0 and outcomes.attempted > 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["race", "select", "cli", "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    import_package()
    import workloads as wl_mod

    if args.setup_only:
        build(wl_mod, args.workload, args.seed, tag="setup")
        return 0
    if args.workload == "all":
        results = {}
        for name in ("race", "select", "cli"):
            args.workload = name
            results[name] = run_one(args, wl_mod, environment(args))
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()
            },
        }
        print(json.dumps(summary))
        return 0
    result = run_one(args, wl_mod, environment(args))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
