"""Tests of the benchmark's own checks.

Run from the root of a checkout:  python3 -m pytest -q perfbench/test_perfbench.py

The last three tests run the benchmark itself on its two fastest workloads
(about a minute on two cores).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import worker  # noqa: E402
from mnpred.io import read_rows_csv  # noqa: E402
from mnpred.simulation import MethodOutcome, Scenario, SimulationReport  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
METHODS = ("pointwise", "mvn")
CATEGORIES = ("a", "b")

GOOD_CSV = """method,category,L,U,y_hat,sep,multiplier_L,multiplier_U
pointwise,a,1,9,5,2,2,2
pointwise,b,0,4.5,2,1,2,2.5
mvn,a,0.5,9.5,5,2,2.25,2.25
mvn,b,0,5,2,1,2.25,2.25
"""


def rows_of(tmp_path: Path, text: str):
    path = tmp_path / "intervals.csv"
    path.write_text(text, encoding="utf-8")
    return read_rows_csv(str(path))


def test_valid_intervals_pass(tmp_path):
    rows = rows_of(tmp_path, GOOD_CSV)
    assert worker.check_interval_rows(rows, METHODS, CATEGORIES, m=10) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda t: t.replace("pointwise,a,1,9,", "pointwise,a,9,1,"),  # L > U
        lambda t: t.replace("mvn,b,0,5,2,1,2.25,2.25\n", ""),  # missing method row
        lambda t: t + "mvn,b,0,5,2,1,2.25,2.25\n",  # duplicated row
        lambda t: t.replace("mvn,a,0.5,9.5,", "mvn,a,0.5,11,"),  # U > m
        lambda t: t.replace("mvn,a,0.5,", "mvn,a,-1,"),  # L < 0
        lambda t: t.replace("mvn,a,0.5,", "mvn,a,,"),  # missing (NaN) bound
        lambda t: t.replace("mvn,a,0.5,9.5,", "mvn,a,0.5,inf,"),  # infinite bound
    ],
)
def test_corrupted_intervals_rejected(tmp_path, corrupt):
    rows = rows_of(tmp_path, corrupt(GOOD_CSV))
    assert worker.check_interval_rows(rows, METHODS, CATEGORIES, m=10)


def test_missing_verdict_rejected():
    text = "containment pointwise yes\ncontainment mvn no\n"
    assert worker.check_verdicts(text, METHODS) == []
    assert worker.check_verdicts("containment pointwise yes\n", METHODS)


def _rep(digest: str, problems=()) -> dict:
    return {
        "wall_s": 1.0,
        "units": 1,
        "completed": 1,
        "failed": 0,
        "warnings": 0,
        "error": None,
        "digest": digest,
        "problems": list(problems),
    }


def test_digest_must_match_across_reruns():
    same = {"reps": [_rep("sha256:aa"), _rep("sha256:aa")]}
    assert run.check_result(same) == (True, 2, 0, [])
    differ = {"reps": [_rep("sha256:aa"), _rep("sha256:bb")]}
    correct, _, _, problems = run.check_result(differ)
    assert not correct and "differs between reruns" in problems[0]


def test_failed_call_counted():
    failed = dict(_rep(None), error="exit code 4", completed=0, failed=1)
    correct, attempted, n_failed, _ = run.check_result({"reps": [_rep("sha256:aa"), failed]})
    assert (correct, attempted, n_failed) == (False, 2, 1)


def _report(n_completed: int, n_failed: int, contained: int) -> SimulationReport:
    scenario = Scenario(pi_true=(0.5, 0.5), K=5, n=10, phi=2.0, n_iter=4, methods=("mvn",))
    outcome = MethodOutcome(
        "mvn",
        n_eval=n_completed,
        contained=contained,
        below_lower=[0, 0],
        above_upper=[0, 0],
    )
    return SimulationReport(scenario, {"mvn": outcome}, n_completed, n_failed, 0.0)


def _sim_rows(coverage: float):
    return [{"method": "mvn", "category": c, "coverage": coverage} for c in ("1", "2")]


def test_simulation_checks():
    assert worker.check_simulation(_report(3, 1, 3), _sim_rows(1.0), ("mvn",)) == []
    assert worker.check_simulation(_report(3, 0, 3), _sim_rows(1.0), ("mvn",))
    assert worker.check_simulation(_report(2, 2, 3), _sim_rows(1.5), ("mvn",))
    assert worker.check_simulation(_report(3, 1, 3), _sim_rows(1.0)[:1], ("mvn",))


def test_benchmark_json_matches_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= SPEC["end_to_end"][0].items()
    assert max(m["bound"] for m in SPEC["end_to_end"]) == SPEC["end_to_end"][0]["bound"] <= 0.25


def _run(*args: str) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
        check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_workload_layers_carry_units():
    reported = {m["name"] for m in SPEC["per_layer"]}
    assert not reported & set(run.WORKLOAD_LAYERS)
    layers = dict.fromkeys(run.WORKLOAD_LAYERS, 1.5)
    extra = run.workload_layers({**layers, "io.write_rows_ms": 2.0}, {"io.write_rows_ms": {}})
    assert {k: v["unit"] for k, v in extra.items()} == run.WORKLOAD_LAYERS


@pytest.mark.parametrize(
    "workload,trace,section,printed",
    [
        ("simulate-cell", "0", "end_to_end", ()),
        ("predict-wide", "1", "per_layer", ("cli.self_ms", "io.parse_counts_csv_ms")),
        (
            "simulate-cell",
            "1",
            "per_layer",
            (
                "dm.generate_dataset_ms",
                "dm.sample_dm_counts_ms",
                "simulation.iter_ms.p50",
                "simulation.iter_ms.p95",
                "catalog.scenario_catalog_ms",
            ),
        ),
    ],
)
def test_every_metric_emitted_with_unit(workload, trace, section, printed):
    lines, result = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    units = {line.split()[1]: line.split()[-1] for line in lines if " = " in line}
    assert {name: units.get(name) for name in printed} == {
        name: run.WORKLOAD_LAYERS[name] for name in printed
    }
