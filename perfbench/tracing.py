"""Span tracing around synthsel's public functions, and the per-layer
metrics derived from the spans.

``Tracer.install`` replaces every public function of every loaded
``synthsel`` module, at every module that binds the name, with a wrapper
that records a span ``(id, name, parent, start, end, note)`` in memory;
``PanelDataset`` construction is wrapped the same way.  A span's name is
``<layer>.<function>`` where the layer is the defining module.  Spans of
worker threads that start with an empty stack take the main thread's
innermost open span as their parent (the thread pool's caller).

A layer's self time is its span's duration minus the union of the
intervals its child spans cover.  Only the standard library is used, so
the tracer can also run inside a fresh command-line process.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

OP = "bench.op"
SIMPLEX = "solvers.simplex_ls"
SOLVE_SC = "solvers.solve_sc"
COV_INNER = "solvers.solve_sc_cov_inner"
FD_ORACLE = "dof.divergence_fd_oracle"
SELECTOR_SPANS = {
    ("selection.select_lambda_ic", "penalized"): "ic_penalized",
    ("selection.select_lambda_ic", "masc"): "ic_masc",
    ("selection.cv_loo_untreated", None): "cv_loo",
    ("selection.cv_rolling", None): "cv_rolling",
    ("selection.select_v_ic", None): "ic_v",
}
SELECTORS = ("ic_penalized", "ic_masc", "cv_loo", "cv_rolling", "ic_v")

#: (name, unit, better) of the per-layer metrics in the traced run's JSON
#: result; counts and times are per traced operation unless the name says
#: otherwise.  Each time here is measured on every workload.
LAYER_METRICS = [
    ("solvers.simplex_ls.calls", "count", "lower"),
    ("solvers.simplex_ls.iterations", "count", "lower"),
    ("solvers.simplex_ls.iters_per_call", "count", "lower"),
    ("solvers.simplex_ls.self_s", "s", "lower"),
    ("solvers.simplex_ls.us_per_iter", "us", "lower"),
    ("solvers.solve_sc.calls", "count", "lower"),
    ("solvers.solve_sc.unique_inputs", "count", "lower"),
    ("solvers.solve_sc.unique_ratio", "ratio", "higher"),
    ("solvers.fit_overhead_s", "s", "lower"),
    ("solvers.cov_inner.calls", "count", "lower"),
    ("solvers.canonical_resolves", "count", "lower"),
    ("solvers.uncertified", "count", "lower"),
    ("solvers.convergence_errors", "count", "lower"),
    *[(f"selection.{sel}.fits", "count", "lower") for sel in SELECTORS],
    ("dof.df_hat.calls", "count", "lower"),
    ("dof.df_hat_s", "s", "lower"),
    ("dof.fd_oracle.solves", "count", "lower"),
    ("parallel.threads", "count", "lower"),
    ("panel.PanelDataset.calls", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

#: times of layers that some workload never enters: printed by name on
#: every traced run but left out of the JSON result, where such a time
#: would read exactly 0 on every run of that workload
WORKLOAD_LAYER_TIMES = [
    ("solvers.cov_inner.self_s", "s"),
    *[(f"selection.{sel}.self_s", "s") for sel in SELECTORS],
    ("dof.divergence_s", "s"),
    ("dof.fd_oracle_s", "s"),
    ("simulation.draw_s", "s"),
    ("simulation.race_self_s", "s"),
    ("panel.PanelDataset_s", "s"),
    ("io.load_panel_s", "s"),
    ("io.preprocess_s", "s"),
    ("io.write_report_s", "s"),
    ("cli.import_s", "s"),
    ("cli.main_s", "s"),
]


def _input_digest(y, x) -> str:
    h = hashlib.blake2b(digest_size=16)
    for arr in (y, x):
        h.update(repr(getattr(arr, "shape", None)).encode())
        h.update(arr.tobytes() if hasattr(arr, "tobytes") else repr(arr).encode())
    return h.hexdigest()


def _annotate(name: str, args, kwargs, result):
    """Facts a span records about its call, beyond its timing."""
    if name == SIMPLEX:
        return {"iterations": result.iterations}
    if name.startswith("solvers.") and hasattr(result, "kkt"):
        note = {"certified": bool(result.kkt.satisfied())}
        if name == SOLVE_SC:
            y = kwargs.get("y", args[0] if args else None)
            x = kwargs.get("x", args[1] if len(args) > 1 else None)
            note["input"] = _input_digest(y, x)
            note["degenerate"] = bool(result.kkt.degenerate)
        return note
    if name == "selection.select_lambda_ic":
        return {"kind": kwargs.get("estimator_kind", args[1] if len(args) > 1 else None)}
    if name == "parallel.thread_count":
        return {"value": result}
    return None


class Tracer:
    """Collects spans in memory while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args=(), kwargs=None, note=None):
        kwargs = kwargs or {}
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            end = time.perf_counter()
            note = {"error": type(exc).__name__}
            raise
        else:
            end = time.perf_counter()
            note = note or _annotate(name, args, kwargs, result)
            return result
        finally:
            stack.pop()
            self.spans.append((sid, name, parent, start, end, note))

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [
            mod
            for mod_name, mod in sorted(sys.modules.items())
            if mod is not None and (mod_name == "synthsel" or mod_name.startswith("synthsel."))
        ]
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("synthsel"):
                    continue
                if obj not in wrappers:
                    layer = obj.__module__.rsplit(".", 1)[-1]
                    wrappers[obj] = self._wrap(obj, f"{layer}.{obj.__name__}")
                self._patch(mod, attr, wrappers[obj])
        panel_cls = sys.modules["synthsel.panel"].PanelDataset
        self._patch(panel_cls, "__init__", self._wrap(panel_cls.__init__, "panel.PanelDataset"))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def dump(self, path: str, extra: dict | None = None) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, **(extra or {})}, handle)

    def absorb(self, spans) -> None:
        """Append spans recorded by another process, with fresh ids."""
        remap = {}
        for sid, *_ in spans:
            remap[sid] = next(self._ids)
        for sid, name, parent, start, end, note in spans:
            self.spans.append((remap[sid], name, remap.get(parent), start, end, note))


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def _covered(intervals, lo: float, hi: float) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    children = defaultdict(list)
    for _, _, parent, start, end, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        sid: (end - start) - _covered(children.get(sid, ()), start, end)
        for sid, _, _, start, end, _ in spans
    }


def layer_metrics(spans, *, threads: int, cli_import_s: float = 0.0) -> dict[str, float]:
    """Per-layer metrics per traced operation (``bench.op`` span)."""
    by_id = {s[0]: s for s in spans}
    selfs = self_times(spans)
    n_ops = sum(1 for s in spans if s[1] == OP) or 1

    def name_of(sid):
        return by_id[sid][1] if sid in by_id else None

    def within(sid, target_names) -> bool:
        parent = by_id[sid][2]
        while parent is not None and parent in by_id:
            if by_id[parent][1] in target_names:
                return True
            parent = by_id[parent][2]
        return False

    def op_of(sid):
        while sid is not None and by_id[sid][1] != OP:
            sid = by_id[sid][2]
        return sid

    def is_solver_entry(span) -> bool:
        parent_name = name_of(span[2]) or ""
        return span[1].startswith("solvers.solve_") and not parent_name.startswith("solvers.")

    def outermost(prefixes, exclude=()):
        def match(name):
            return name is not None and name.startswith(prefixes) and name not in exclude

        return [s for s in spans if match(s[1]) and not match(name_of(s[2]))]

    def inclusive(selected) -> float:
        return sum(s[4] - s[3] for s in selected) / n_ops

    simplex = [s for s in spans if s[1] == SIMPLEX]
    iterations = sum((s[5] or {}).get("iterations", 0) for s in simplex)
    simplex_self = sum(selfs[s[0]] for s in simplex)
    solve_sc = [s for s in spans if s[1] == SOLVE_SC]
    distinct = {(op_of(s[0]), (s[5] or {}).get("input")) for s in solve_sc}
    entries = [s for s in spans if is_solver_entry(s)]
    cov = [s for s in spans if s[1] == COV_INNER]

    m = {
        "solvers.simplex_ls.calls": len(simplex) / n_ops,
        "solvers.simplex_ls.iterations": iterations / n_ops,
        "solvers.simplex_ls.iters_per_call": iterations / len(simplex) if simplex else 0.0,
        "solvers.simplex_ls.self_s": simplex_self / n_ops,
        "solvers.simplex_ls.us_per_iter": 1e6 * simplex_self / iterations if iterations else 0.0,
        "solvers.solve_sc.calls": len(solve_sc) / n_ops,
        "solvers.solve_sc.unique_inputs": len(distinct) / n_ops,
        "solvers.solve_sc.unique_ratio": len(distinct) / len(solve_sc) if solve_sc else 0.0,
        "solvers.fit_overhead_s": sum(
            selfs[s[0]] for s in spans if s[1].startswith("solvers.") and s[1] != SIMPLEX
        ) / n_ops,
        "solvers.cov_inner.calls": len(cov) / n_ops,
        "solvers.cov_inner.self_s": sum(selfs[s[0]] for s in cov) / n_ops,
        "solvers.canonical_resolves": sum(
            1 for s in solve_sc if (s[5] or {}).get("degenerate")
        ) / n_ops,
        "solvers.uncertified": sum(
            1 for s in entries if (s[5] or {}).get("certified") is False
        ) / n_ops,
        "solvers.convergence_errors": sum(
            1 for s in simplex if (s[5] or {}).get("error") == "ConvergenceError"
        ) / n_ops,
    }

    selector_spans = defaultdict(list)
    for s in spans:
        kind = (s[5] or {}).get("kind")
        sel = SELECTOR_SPANS.get((s[1], kind)) or SELECTOR_SPANS.get((s[1], None))
        if sel:
            selector_spans[sel].append(s[0])
    entry_ancestors = defaultdict(int)
    for s in entries:
        parent = s[2]
        while parent is not None and parent in by_id:
            entry_ancestors[parent] += 1
            parent = by_id[parent][2]
    for sel in SELECTORS:
        ids = selector_spans.get(sel, [])
        calls = len(ids) or 1
        m[f"selection.{sel}.self_s"] = sum(selfs[i] for i in ids) / calls
        m[f"selection.{sel}.fits"] = sum(entry_ancestors[i] for i in ids) / calls

    seen_threads = [
        (s[5] or {}).get("value") for s in spans if s[1] == "parallel.thread_count"
    ]
    m.update(
        {
            "dof.df_hat.calls": sum(1 for s in spans if s[1] == "dof.df_hat") / n_ops,
            "dof.df_hat_s": inclusive([s for s in spans if s[1] == "dof.df_hat"]),
            "dof.divergence_s": inclusive(outermost(("dof.divergence",), (FD_ORACLE,))),
            "dof.fd_oracle_s": inclusive([s for s in spans if s[1] == FD_ORACLE]),
            "dof.fd_oracle.solves": sum(1 for s in entries if within(s[0], {FD_ORACLE})) / n_ops,
            "parallel.threads": float(max(seen_threads, default=threads)),
            "simulation.draw_s": inclusive(outermost(("simulation.draw_",))),
            "simulation.race_self_s": sum(
                selfs[s[0]] for s in spans if s[1] == "simulation.run_selection_benchmark"
            ) / n_ops,
            "panel.PanelDataset.calls": sum(
                1 for s in spans if s[1] == "panel.PanelDataset"
            ) / n_ops,
            "panel.PanelDataset_s": inclusive(outermost(("panel.PanelDataset",))),
            "io.load_panel_s": inclusive([s for s in spans if s[1] == "io.load_panel"]),
            "io.preprocess_s": inclusive(outermost(("io.preprocess",))),
            "io.write_report_s": inclusive([s for s in spans if s[1] == "io.write_report"]),
            "cli.import_s": cli_import_s,
            "cli.main_s": inclusive([s for s in spans if s[1] == "cli.main"]),
        }
    )
    return m
