"""Benchmark of mnpred: three workloads run through the package's public entry points.

Run from the root of a checkout:

    python3 perfbench/run.py --workload predict-severity --seed 1 --seconds 10 --trace 0

The program sees only the count tables, future rows and simulate config that
this script draws from ``--seed`` with plain numpy (it never calls
``mnpred.dm``, so a change to the program's draw layout cannot change the
benchmark's inputs).  Each run measures set-up time in fresh interpreters, then
hands the workload to one child process (``worker.py``) with BLAS and OpenMP
pinned to one thread; nothing else runs while it measures.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced replay; both are listed in ``BENCHMARK.json``, which also
gives their units.  Human-readable lines (output digest, warning count, error
rate) come first; the last line of standard output is the JSON result.
NOTES.md explains the workloads, the metrics and the baseline findings.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

FREQUENTIST = (
    "pointwise",
    "bonferroni",
    "mvn",
    "symmetric",
    "asymmetric",
    "marginal",
    "masr",
    "rank-scs",
)
BAYES_CAUCHY = ("bayes-bonf-cauchy", "bayes-mean-cauchy", "bayes-scs-cauchy")

# Settings of every predict call, equal to the CLI defaults at the time the
# benchmark was defined.  They are passed explicitly so that a change of
# defaults does not silently change the workload.
PREDICT_ARGS = {
    "B": 10_000,
    "chains": 4,
    "sampling": 2500,
    "warmup": 1000,
    "mvn_draws": 100_000,
    "alpha": 0.05,
    "prior": "cauchy",
}

# Catalog vector C10-06 as tabulated in the source study.
C10_06 = (0.025, 0.025, 0.025, 0.025, 0.05, 0.05, 0.05, 0.05, 0.10, 0.60)

WORKLOADS = {
    # The paper's headline use: one severity table, every method; MCMC dominates.
    "predict-severity": {
        "kind": "predict",
        "K": 10,
        "n": 46,
        "m": 46,
        "phi": 3.19,
        "pi": (0.224, 0.466, 0.273, 0.031, 0.004),
        "labels": ("none", "minimal", "mild", "moderate", "severe"),
        "methods": "all",
        "expect": FREQUENTIST + BAYES_CAUCHY,
    },
    # One large, memory-bound ensemble (catalog cell C10-06-K100-n500-phi8); no MCMC.
    "predict-wide": {
        "kind": "predict",
        "K": 100,
        "n": 500,
        "m": 500,
        "phi": 8.0,
        "pi": C10_06,
        "labels": tuple(f"cat_{i}" for i in range(1, 11)),
        "methods": ",".join(FREQUENTIST),
        "expect": FREQUENTIST,
    },
    # Many small ensembles: one catalog cell simulated the way `mnpred simulate` runs it.
    "simulate-cell": {
        "kind": "simulate",
        "cell": "C5-05-K10-n50-phi5",
        "n_iter": 25,
        "B": 2000,
        "methods": FREQUENTIST,
        "trace_iters": 200,
    },
}

# Per-layer metrics of layers that only some workloads call, with their units.
# A traced run prints those it measured, but keeps them out of the JSON
# result, where every metric is measured on every workload.
WORKLOAD_LAYERS = {
    "cli.self_ms": "ms",
    "io.parse_counts_csv_ms": "ms",
    "dm.generate_dataset_ms": "ms",
    "dm.sample_dm_counts_ms": "ms",
    "simulation.iter_ms.p50": "ms",
    "simulation.iter_ms.p95": "ms",
    "catalog.scenario_catalog_ms": "ms",
    "bayes.mcmc_sample.cauchy_s": "s",
    "bayes.logpost_evals": "count",
    "bayes.logpost_us": "us",
    "bayes.accept_rate": "ratio",
    "bayes.rhat_max": "ratio",
    "bayes.posterior_predictive_ms": "ms",
    "bayes.intervals_ms": "ms",
}

SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 170

# What a fresh `mnpred simulate` process does before its first iteration:
# import the CLI, read the config and build the Scenario from the catalog.
_SIMULATE_SETUP = """
import sys
import mnpred.cli
from mnpred.catalog import scenario_catalog
from mnpred.io import parse_config
cfg = parse_config(sys.argv[1])
cells = [
    s
    for s in scenario_catalog(
        n_iter=cfg.n_iter, B=cfg.B, S=cfg.S, methods=cfg.methods, seed=cfg.seed
    )
    if s.scenario_id.startswith(cfg.scenarios)
]
if len(cells) != 1:
    sys.exit(f"expected one catalog cell, found {len(cells)}")
"""


# ---------------------------------------------------------------------------
# inputs


def dm_rows(gen, rows: int, n: int, pi, phi: float):
    """Dirichlet-multinomial rows of n units at dispersion phi (plain numpy)."""
    import numpy as np

    p = np.asarray(pi, dtype=float)
    p = p / p.sum()
    eta0 = (n - phi) / (phi - 1.0)
    probs = gen.dirichlet(eta0 * p, size=rows)
    return gen.multinomial(n, probs)


def write_counts(path: Path, labels, counts, names) -> None:
    lines = ["study," + ",".join(labels)]
    lines += [f"{name}," + ",".join(str(int(v)) for v in row) for name, row in zip(names, counts)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def make_inputs(name: str, seed: int, work: Path) -> dict:
    """Draw the workload's inputs from the seed and describe the job for the worker."""
    import numpy as np

    wl = WORKLOADS[name]
    job = {"workload": name, "kind": wl["kind"], "seed": seed, "work": str(work)}
    if wl["kind"] == "simulate":
        config = work / "simulate.cfg"
        config.write_text(
            f"scenarios = {wl['cell']}\n"
            f"methods = {','.join(wl['methods'])}\n"
            f"n_iter = {wl['n_iter']}\n"
            f"B = {wl['B']}\n"
            f"seed = {seed}\n",
            encoding="utf-8",
        )
        job.update(config=str(config), n_iter=wl["n_iter"], trace_iters=wl["trace_iters"])
        return job
    gen = np.random.default_rng(seed)
    # The program rejects a category with no historical counts, so redraw
    # until every category is seen (deterministic for a given seed).
    while True:
        counts = dm_rows(gen, wl["K"], wl["n"], wl["pi"], wl["phi"])
        if np.all(counts.sum(axis=0) > 0):
            break
    future = dm_rows(gen, 1, wl["m"], wl["pi"], wl["phi"])
    data, fut = work / "counts.csv", work / "future.csv"
    write_counts(data, wl["labels"], counts, [f"study_{k}" for k in range(1, wl["K"] + 1)])
    write_counts(fut, wl["labels"], future, ["future"])
    job.update(
        data=str(data),
        future=str(fut),
        m=wl["m"],
        methods=wl["methods"],
        expect=list(wl["expect"]),
        categories=list(wl["labels"]),
        settings=PREDICT_ARGS,
    )
    return job


# ---------------------------------------------------------------------------
# measurement


def measure_setup(job: dict) -> float:
    """Median wall time of fresh interpreters doing the CLI's set-up, after one warm-up."""
    if job["kind"] == "simulate":
        cmd = [sys.executable, "-c", _SIMULATE_SETUP, job["config"]]
    else:
        cmd = [sys.executable, "-c", "import mnpred.cli"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=60)
        if i:  # the first start compiles bytecode, which users pay only once
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_worker(job: dict) -> dict:
    work = Path(job["work"])
    job_path = work / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    subprocess.run(
        [sys.executable, str(Path(__file__).with_name("worker.py")), str(job_path)],
        cwd=ROOT,
        check=True,
        timeout=WORKER_TIMEOUT_S,
    )
    return json.loads((work / "result.json").read_text(encoding="utf-8"))


def end_to_end(result: dict, setup_s: float) -> dict[str, float]:
    """End-to-end metrics of an untraced run from the worker's per-call records."""
    ok = [r for r in result["reps"] if r["error"] is None]
    return {
        "setup_s": setup_s,
        "predict_s": statistics.median(r["wall_s"] / r["units"] for r in ok),
        "sim_iter_per_s": statistics.median(r["completed"] / r["wall_s"] for r in ok),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def check_result(result: dict) -> tuple[bool, int, int, list[str]]:
    """Correctness, attempted and failed operations, and the problems found."""
    reps = result["reps"]
    problems = [p for r in reps for p in r["problems"]]
    problems += [f"rep {i}: {r['error']}" for i, r in enumerate(reps) if r["error"]]
    digests = {r["digest"] for r in reps if r["error"] is None}
    if len(digests) > 1:
        problems.append(f"output differs between reruns: {sorted(digests)}")
    if not digests:
        problems.append("no call completed")
    attempted = sum(r["units"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    return not problems, attempted, failed, problems


def with_units(values: dict[str, float], specs: list[dict]) -> dict[str, dict]:
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def workload_layers(layers: dict[str, float], reported: dict) -> dict[str, dict]:
    """The measured per-layer metrics that are not in the JSON result, with units."""
    return {
        name: {"value": value, "unit": WORKLOAD_LAYERS[name]}
        for name, value in layers.items()
        if name not in reported
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mnpred" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no mnpred source under {ROOT / 'src'}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # Set before numpy is imported for the inputs; every child inherits them.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))

    work = WORK / f"{args.workload}-{args.seed}-{'trace' if args.trace else 'run'}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    job = make_inputs(args.workload, args.seed, work)
    job.update(seconds=args.seconds, trace=bool(args.trace))

    setup_s = None if args.trace else measure_setup(job)
    result = run_worker(job)
    correct, attempted, failed, problems = check_result(result)
    # The digest covers the output file (and predict's verdict lines), so a
    # later change can state whether its outputs stayed byte-identical.
    digest = next((r["digest"] for r in result["reps"] if r["digest"]), None)
    warns = sum(r["warnings"] for r in result["reps"])
    print(
        f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
        f"calls={len(result['reps'])} digest={digest} warnings={warns}"
    )
    for problem in problems:
        print(f"perfbench problem: {problem}")
    if not any(r["error"] is None for r in result["reps"]):
        sys.stderr.write("perfbench: every call failed; nothing to measure\n")
        return 1
    extra = {}
    if args.trace:
        metrics = with_units(result["layers"], spec["per_layer"])
        extra = workload_layers(result["layers"], metrics)
    else:
        metrics = with_units(end_to_end(result, setup_s), spec["end_to_end"])
    for name, m in {**metrics, **extra}.items():
        print(f"perfbench {name} = {m['value']:.6g} {m['unit']}")
    print(f"perfbench error_rate = {failed / attempted:.6g} ratio ({failed}/{attempted})")
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
