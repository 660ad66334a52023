"""Each command-line script under ``scripts/`` runs end to end on a tiny
configuration and writes its table."""

import csv
import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _main(name: str):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def test_every_script_is_covered():
    covered = {"selection_benchmark", "risk_curves", "df_vs_active_donors"}
    assert {path.stem for path in SCRIPTS.glob("*.py")} == covered


def test_selection_benchmark(tmp_path, capsys):
    prefix = tmp_path / "bench"
    argv = ["--reps", "1", "--donors", "6", "--pre", "12", "--post", "4", "--grid-points", "3",
            "--prefix", str(prefix)]
    assert _main("selection_benchmark")(argv) == 0
    methods = ["risk", "sure_star", "sure", "cv_holdout", "cv_loo_untreated", "cv_rolling"]
    for design in ("gaussian", "empirical", "block_bootstrap"):
        rows = _rows(Path(f"{prefix}_{design}.csv"))
        assert [row["method"] for row in rows] == methods
        # the block bootstrap has no truth, so its oracle rows stay empty
        oracles = {"risk", "sure_star"} if design == "block_bootstrap" else set()
        assert {row["method"] for row in rows if row["mse_tau1"]} == set(methods) - oracles
    assert "wrote" in capsys.readouterr().out


def test_risk_curves(tmp_path):
    out = tmp_path / "risk.csv"
    argv = ["--reps", "2", "--donors", "8", "--pre", "12", "--grid-points", "4", "--output", str(out)]
    assert _main("risk_curves")(argv) == 0
    rows = _rows(out)
    assert len(rows) == 4
    assert float(rows[0]["lambda"]) == 0.0
    assert all(float(row["true_risk"]) >= 0.0 for row in rows)


def test_df_vs_active_donors(tmp_path):
    out = tmp_path / "df.csv"
    argv = ["--reps", "8", "--donors", "6", "--periods", "12", "--levels", "0.5,1.0",
            "--output", str(out)]
    assert _main("df_vs_active_donors")(argv) == 0
    rows = _rows(out)
    assert [float(row["sum_constraint"]) for row in rows] == [0.5, 1.0]
    assert all(1.0 <= float(row["mean_active"]) <= 6.0 for row in rows)
