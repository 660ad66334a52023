"""Panel ingestion, preprocessing and report serialization.

Input format: CSV with a header whose first column is ``time`` and whose
remaining columns are unit names; one column is designated the treated
unit.  The treatment period names the first post-treatment row.  An
optional covariate CSV uses the same layout with covariate names in the
first column and one row per covariate.

Reports are UTF-8 JSON with a ``schema_version`` field; tabular artifacts
(fitted paths, effect paths, score curves, benchmark tables) are written
as plain CSV for plotting.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, PanelParseError
from .panel import PanelDataset
from .simulation import BenchmarkReport, MethodResult

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class LoadedPanel:
    """Arrays plus the label metadata needed for readable reports."""

    dataset: PanelDataset
    treated: str
    donor_names: tuple[str, ...]
    pre_times: tuple[str, ...]
    post_times: tuple[str, ...]


def _read_rows(path: str, what: str) -> list[list[str]]:
    """The nonblank rows of the ``what`` CSV file at ``path``, at least one."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as handle:
            rows = [row for row in csv.reader(handle) if row and any(cell.strip() for cell in row)]
    except (OSError, UnicodeDecodeError) as exc:
        raise PanelParseError(f"cannot read {path!r}: {exc}") from exc
    if not rows:
        raise PanelParseError(f"empty {what} file", row=0)
    return rows


def _parse_value(cell: str, row: int, column: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise PanelParseError(f"non-numeric cell {cell!r}", row=row, column=column)
    if not np.isfinite(value):
        raise PanelParseError(f"non-finite cell {cell!r}", row=row, column=column)
    return value


def _parse_rows(rows: list[list[str]], header: list[str], what: str):
    """Each row after the header as its first cell and its other cells
    parsed; ``PanelParseError`` at a ``what`` whose width is not the
    header's, or at a cell that is not a finite number."""
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise PanelParseError(
                f"ragged {what}: expected {len(header)} cells, found {len(row)}", row=i
            )
        yield row[0], [_parse_value(cell, i, header[j + 1]) for j, cell in enumerate(row[1:])]


def load_panel(
    path: str,
    treated: str,
    treatment_period: str,
    covariates_path: str | None = None,
) -> LoadedPanel:
    """Read an outcome panel, split it at the treatment period, and attach
    optional covariates."""
    rows = _read_rows(path, "input")
    header = [cell.strip() for cell in rows[0]]
    if not header or header[0].lower() != "time":
        raise PanelParseError("first header column must be 'time'", row=1, column=header[0] if header else "")
    units = header[1:]
    repeated = next((u for i, u in enumerate(units) if u in units[:i]), None)
    if repeated is not None:
        raise PanelParseError(f"unit {repeated!r} repeated in the header", row=1, column=repeated)
    if treated not in units:
        raise PanelParseError(f"treated column {treated!r} not found", column=treated)
    parsed = list(_parse_rows(rows, header, "row"))
    times = [label.strip() for label, _ in parsed]
    if treatment_period not in times:
        raise PanelParseError(f"treatment period {treatment_period!r} not in the time column")
    cut = times.index(treatment_period)
    if cut < 2:
        raise PanelParseError(
            f"need at least 2 pre-treatment periods before {treatment_period!r}"
        )
    mat = np.asarray([vals for _, vals in parsed], dtype=float)
    t_col = units.index(treated)
    donor_cols = [j for j in range(len(units)) if j != t_col]
    donor_names = tuple(units[j] for j in donor_cols)

    z = d = None
    if covariates_path is not None:
        cov_rows = _read_rows(covariates_path, "covariate")
        cov_header = [cell.strip() for cell in cov_rows[0]]
        if cov_header[1:] != units:
            raise PanelParseError(
                "covariate file units must match the outcome file units in order"
            )
        cov = [vals for _, vals in _parse_rows(cov_rows, cov_header, "covariate row")]
        if not cov:
            raise PanelParseError(f"covariate file {covariates_path!r} has a header and no rows")
        z = np.asarray([vals[t_col] for vals in cov], dtype=float)
        d = np.asarray([[vals[j] for j in donor_cols] for vals in cov], dtype=float)

    # the treatment period is a row, so the post-period is never empty
    dataset = PanelDataset(
        y=mat[:cut, t_col],
        x=mat[:cut][:, donor_cols],
        z=z,
        d=d,
        post_y=mat[cut:, t_col],
        post_x=mat[cut:][:, donor_cols],
    )
    return LoadedPanel(
        dataset=dataset,
        treated=treated,
        donor_names=donor_names,
        pre_times=tuple(times[:cut]),
        post_times=tuple(times[cut:]),
    )


def moving_average(series: np.ndarray, window: int) -> np.ndarray:
    """Trailing moving average; the first ``window - 1`` periods are
    dropped by the caller."""
    if window < 1:
        raise ConfigurationError("moving-average window must be >= 1")
    series = np.asarray(series, dtype=float)
    if window == 1:
        return series.copy()
    kernel = np.full(window, 1.0 / window)
    out = np.convolve(series, kernel, mode="full")[window - 1 : series.shape[0]]
    return out


def preprocess(panel: PanelDataset, ma_window: int = 1, demean: bool = False) -> PanelDataset:
    """Trailing moving average plus pre-treatment-mean removal.

    The filter is backward looking and the means come from pre-treatment
    periods only, so no post-treatment information leaks across the
    boundary.  The first ``ma_window - 1`` pre-treatment periods are
    dropped; post-period filtering reuses the trailing pre-period values.
    """
    if ma_window < 1:
        raise ConfigurationError("moving-average window must be >= 1")
    if ma_window > panel.n:
        raise ConfigurationError(
            f"moving-average window {ma_window} exceeds the {panel.n} pre-treatment periods"
        )
    y, x = panel.y, panel.x
    post_y, post_x = panel.post_y, panel.post_x
    if ma_window > 1:
        full_y = y if post_y is None else np.concatenate([y, post_y])
        full_x = x if post_x is None else np.vstack([x, post_x])
        filt_y = moving_average(full_y, ma_window)
        filt_x = np.column_stack(
            [moving_average(full_x[:, j], ma_window) for j in range(full_x.shape[1])]
        )
        n_pre = panel.n - (ma_window - 1)
        y, x = filt_y[:n_pre], filt_x[:n_pre]
        if post_y is not None:
            post_y, post_x = filt_y[n_pre:], filt_x[n_pre:]
    if demean:
        y_mean = y.mean()
        x_mean = x.mean(axis=0)
        y = y - y_mean
        x = x - x_mean
        if post_y is not None:
            post_y = post_y - y_mean
            post_x = post_x - x_mean
    return PanelDataset(y=y, x=x, z=panel.z, d=panel.d, post_y=post_y, post_x=post_x)


def preprocess_loaded(loaded: LoadedPanel, ma_window: int = 1, demean: bool = False) -> LoadedPanel:
    """Preprocess and keep the time labels aligned with the dropped periods."""
    dataset = preprocess(loaded.dataset, ma_window=ma_window, demean=demean)
    return LoadedPanel(
        dataset=dataset,
        treated=loaded.treated,
        donor_names=loaded.donor_names,
        pre_times=loaded.pre_times[ma_window - 1 :],
        post_times=loaded.post_times,
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def to_jsonable(value):
    """Recursively convert numpy containers into plain JSON values."""
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [to_jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return to_jsonable(dataclasses.asdict(value))
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


def render_report(command: str, config: dict, results) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": to_jsonable(config),
        "results": to_jsonable(results),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_report(path: str | None, command: str, config: dict, results) -> str:
    text = render_report(command, config, results)
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text


def write_csv(path: str, header: list[str], rows) -> None:
    """Every CSV table the package writes: cells go through
    ``to_jsonable``, so a float is written as its ``repr`` and ``None`` as
    an empty cell."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([to_jsonable(cell) for cell in row])


def write_benchmark_csv(path: str, report: BenchmarkReport) -> None:
    """Benchmark table: one row per method, the columns of ``MethodResult``
    in field order."""
    names = [field.name for field in dataclasses.fields(MethodResult)]
    write_csv(path, names, ([getattr(row, name) for name in names] for row in report.methods))


def write_panel_csv(path: str, loaded: LoadedPanel) -> None:
    """Round-trippable outcome panel (pre and post periods concatenated)."""
    ds = loaded.dataset
    times = list(loaded.pre_times) + list(loaded.post_times)
    y = ds.y if ds.post_y is None else np.concatenate([ds.y, ds.post_y])
    x = ds.x if ds.post_x is None else np.vstack([ds.x, ds.post_x])
    header = ["time", loaded.treated, *loaded.donor_names]
    write_csv(path, header, ([times[i], y[i], *x[i]] for i in range(len(times))))
