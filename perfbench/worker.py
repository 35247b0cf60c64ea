"""Child process of the benchmark: runs one workload in-process and checks its output.

Usage: ``python worker.py JOB.json`` with ``src`` on PYTHONPATH (``run.py``
writes the job and reads ``result.json`` back from the same directory).

Untraced mode repeats the workload's call until the time budget is spent
(at least twice, so that reruns can be compared byte for byte).

Traced mode makes one untraced call, then replays it layer by layer through
each module's public functions, recording a span around every call.  The
replay of ``compute_intervals`` uses the child streams that
``mnpred.methods`` assigns (ensemble 0, mvn 1, MCMC 2, predictive 3); whether
its intervals equal the real call's is reported as ``trace.replica_matches``.
The real call is then made once more with the functions it reaches through
module globals swapped for timing wrappers, which gives self times and the
layers nested inside other calls.  The spans are written to ``spans.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _stdio
import json
import math
import resource
import statistics
import sys
import time
import traceback
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

import mnpred.bootstrap
import mnpred.methods
from mnpred import cli
from mnpred.asymptotic import bonferroni_interval, mvn_interval, pointwise_interval
from mnpred.bayes import (
    PriorChoice,
    bayes_bonferroni_interval,
    bayes_mean_centered_interval,
    bayes_rank_scs_interval,
    mcmc_sample,
    posterior_predictive,
)
from mnpred.bootstrap import (
    asymmetric_calibration,
    build_ensemble,
    marginal_calibration,
    masr_interval,
    rank_scs_interval,
    symmetric_calibration,
)
from mnpred.catalog import scenario_catalog
from mnpred.dm import generate_dataset, sample_dm_counts
from mnpred.errors import ConvergenceWarning, DegenerateRankWarning, MnpredError
from mnpred.io import (
    INTERVAL_COLUMNS,
    SIMULATION_COLUMNS,
    interval_rows,
    parse_config,
    parse_counts_csv,
    parse_future_csv,
    read_rows_csv,
    rows_to_csv,
    simulation_rows,
    write_text,
)
from mnpred.methods import compute_intervals, resolve_methods
from mnpred.model import FutureSpec, fit_model
from mnpred.rng import RngStream
from mnpred.simulation import MethodOutcome, SimulationReport, run_simulation

MIN_CALLS = 2
CATALOG_REPEATS = 5

_CALIBRATIONS = {
    "symmetric": symmetric_calibration,
    "asymmetric": asymmetric_calibration,
    "marginal": marginal_calibration,
    "masr": masr_interval,
    "rank-scs": rank_scs_interval,
}
_BAYES = {
    "bayes-bonf": bayes_bonferroni_interval,
    "bayes-mean": bayes_mean_centered_interval,
    "bayes-scs": bayes_rank_scs_interval,
}
_CALIBRATION_WARNINGS = (ConvergenceWarning, DegenerateRankWarning)


# ---------------------------------------------------------------------------
# correctness checks


def check_interval_rows(rows, methods, categories, m) -> list[str]:
    """Exactly one row per method and category, each bound finite with 0 <= L <= U <= m."""
    problems = []
    keys = [(r["method"], r["category"]) for r in rows]
    expected = {(meth, cat) for meth in methods for cat in categories}
    if len(keys) != len(set(keys)):
        problems.append("duplicate method/category rows")
    if set(keys) != expected:
        missing = sorted(expected - set(keys))
        extra = sorted(set(keys) - expected)
        problems.append(f"rows missing {missing[:3]} unexpected {extra[:3]}")
    for r in rows:
        lo, hi = r["L"], r["U"]
        finite = all(isinstance(v, (int, float)) and math.isfinite(v) for v in (lo, hi))
        if not finite or not 0 <= lo <= hi <= m:
            problems.append(f"bad bounds {r['method']}/{r['category']}: L={lo} U={hi} m={m}")
    return problems


def check_verdicts(text: str, methods) -> list[str]:
    """A containment verdict line for each method."""
    seen = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0] == "containment" and parts[2] in ("yes", "no"):
            seen[parts[1]] = parts[2]
    return [f"no containment verdict for {meth}" for meth in methods if meth not in seen]


def check_simulation(report: SimulationReport, rows, methods) -> list[str]:
    """Iterations add up, every coverage is a proportion, one row per method and category."""
    problems = []
    n_iter = report.scenario.n_iter
    if report.n_completed + report.n_failed != n_iter:
        problems.append(
            f"n_completed {report.n_completed} + n_failed {report.n_failed} != n_iter {n_iter}"
        )
    coverages = [o.coverage for o in report.outcomes.values()] + [r["coverage"] for r in rows]
    if not all(0.0 <= c <= 1.0 for c in coverages):
        problems.append(f"coverage outside [0, 1]: {coverages}")
    keys = sorted((r["method"], r["category"]) for r in rows)
    C = report.scenario.n_categories
    if keys != sorted((meth, str(c)) for meth in methods for c in range(1, C + 1)):
        problems.append("simulation rows are not one per method and category")
    return problems


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return "sha256:" + h.hexdigest()


# ---------------------------------------------------------------------------
# untraced calls


def predict_argv(job: dict, out: Path) -> list[str]:
    s = job["settings"]
    return [
        "predict",
        "--data", job["data"],
        "--m", str(job["m"]),
        "--future", job["future"],
        "--methods", job["methods"],
        "--seed", str(job["seed"]),
        "--B", str(s["B"]),
        "--chains", str(s["chains"]),
        "--sampling", str(s["sampling"]),
        "--warmup", str(s["warmup"]),
        "--mvn-draws", str(s["mvn_draws"]),
        "--alpha", str(s["alpha"]),
        "--prior", s["prior"],
        "--out", str(out),
    ]


def predict_call(job: dict) -> dict:
    """One `mnpred predict` call in-process; the verdict lines it prints are captured."""
    out = Path(job["work"]) / "intervals.csv"
    out.unlink(missing_ok=True)
    argv = predict_argv(job, out)
    stdout = _stdio.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv)
            error = None if code == 0 else f"exit code {code}"
        except Exception as exc:  # a failed operation is counted, not fatal
            traceback.print_exc()
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
    rep = {"wall_s": wall, "units": 1, "warnings": len(caught), "error": error, "problems": []}
    if error is not None:
        return dict(rep, completed=0, failed=1, digest=None)
    text = stdout.getvalue()
    try:
        rows = read_rows_csv(str(out))
    except MnpredError as exc:
        rows, rep["problems"] = [], [f"unreadable output: {exc}"]
    rep["problems"] += check_interval_rows(rows, job["expect"], job["categories"], job["m"])
    rep["problems"] += check_verdicts(text, job["expect"])
    return dict(rep, completed=1, failed=0, digest=digest(out.read_bytes(), text.encode()))


def catalog_cell(cfg):
    """The Scenario `mnpred simulate` builds for this config (one catalog cell)."""
    cells = [
        replace(
            s,
            alpha=cfg.alpha,
            repair=cfg.repair,
            chains=cfg.chains,
            warmup=cfg.warmup,
            mvn_draws=cfg.mvn_draws,
            priors=cfg.priors,
        )
        for s in scenario_catalog(
            n_iter=cfg.n_iter, B=cfg.B, S=cfg.S, methods=cfg.methods, seed=cfg.seed
        )
        if s.scenario_id.startswith(cfg.scenarios)
    ]
    if len(cells) != 1:
        raise ValueError(f"config selects {len(cells)} catalog cells, expected 1")
    return cells[0]


def write_simulation(report: SimulationReport, path: Path) -> None:
    write_text(rows_to_csv(simulation_rows([report]), SIMULATION_COLUMNS), str(path))


def simulate_call(job: dict, scenario) -> dict:
    """One `run_simulation` of the catalog cell, written as `mnpred simulate` writes it."""
    out = Path(job["work"]) / "simulation.csv"
    out.unlink(missing_ok=True)
    n_iter = scenario.n_iter
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            report = run_simulation(scenario)
            write_simulation(report, out)
            error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            traceback.print_exc()
            report, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
    rep = {"wall_s": wall, "units": n_iter, "warnings": len(caught), "error": error}
    if report is None:
        return dict(rep, completed=0, failed=n_iter, digest=None, problems=[])
    try:
        problems = check_simulation(report, read_rows_csv(str(out)), scenario.methods)
    except MnpredError as exc:
        problems = [f"unreadable output: {exc}"]
    return dict(
        rep,
        completed=report.n_completed,
        failed=report.n_failed,
        digest=digest(out.read_bytes()),
        problems=problems,
    )


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """Spans kept in memory: name, parent span, start and end (perf_counter seconds).

    Root spans marked ``replay`` are units of the layer-by-layer replay (one
    predict call or one simulate iteration); the others time real calls.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, replay: bool = True):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "replay": replay,
            "start": time.perf_counter(),
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    @contextlib.contextmanager
    def wrapped(self, module, names: dict[str, str]):
        """Record a span around each call the program makes through `module.<name>`.

        The module's source is untouched: its globals are swapped for timing
        wrappers for the duration of the block.  The last result of each
        wrapped function is kept in the yielded dict.
        """
        results: dict[str, object] = {}
        saved = {name: getattr(module, name) for name in names}

        def timed(name, fn):
            def call(*args, **kwargs):
                with self.span(names[name], replay=False):
                    results[name] = fn(*args, **kwargs)
                return results[name]

            return call

        for name, fn in saved.items():
            setattr(module, name, timed(name, fn))
        try:
            yield results
        finally:
            for name, fn in saved.items():
                setattr(module, name, fn)

    def duration_ms(self, record: dict) -> float:
        return (record["end"] - record["start"]) * 1e3

    def self_ms(self, record: dict) -> float:
        """A span's duration minus the time its direct children cover."""
        children = (s for s in self.spans if s["parent"] == record["id"])
        return self.duration_ms(record) - sum(self.duration_ms(s) for s in children)

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def median_ms(self, name: str) -> float:
        """Median over root spans of the time in spans called `name` (0 if never called)."""
        totals: dict[int, float] = {}
        for s in self.named(name):
            root = s
            while root["parent"] is not None:
                root = self.spans[root["parent"]]
            totals[root["id"]] = totals.get(root["id"], 0.0) + self.duration_ms(s)
        return statistics.median(totals.values()) if totals else 0.0

    def coverage(self) -> float:
        """Share of the replayed roots' time covered by their direct child spans."""
        roots = [s for s in self.spans if s["parent"] is None and s["replay"]]
        return 1.0 - sum(self.self_ms(s) for s in roots) / sum(self.duration_ms(s) for s in roots)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans), encoding="utf-8")


# Functions the program calls through these modules' globals, timed during a
# real call, with the span name each records.  Spans named "call.*" exist
# only to give their parent's self time.
_METHODS_CHILDREN = {
    name: f"call.{name}"
    for name in (
        "build_ensemble",
        "mcmc_sample",
        "posterior_predictive",
        "pointwise_interval",
        "bonferroni_interval",
        "mvn_interval",
        "symmetric_calibration",
        "asymmetric_calibration",
        "marginal_calibration",
        "masr_interval",
        "rank_scs_interval",
        "bayes_bonferroni_interval",
        "bayes_mean_centered_interval",
        "bayes_rank_scs_interval",
    )
}
_BOOTSTRAP_NESTED = {
    "sample_dm_matrix": "dm.sample_dm_matrix",
    "rank_summary": "empirical.rank_summary",
}
_CLI_CHILDREN = {
    name: f"call.{name}"
    for name in (
        "parse_counts_csv",
        "parse_future_csv",
        "fit_model",
        "interval_rows",
        "rows_to_csv",
        "write_text",
    )
}
_CLI_CHILDREN["compute_intervals"] = "methods.compute_intervals"


@contextlib.contextmanager
def real_call_spans(tr: Tracer):
    """Time compute_intervals' children and the layers nested in the ensemble."""
    with tr.wrapped(mnpred.methods, _METHODS_CHILDREN), tr.wrapped(
        mnpred.bootstrap, _BOOTSTRAP_NESTED
    ):
        yield


class Replica:
    """`compute_intervals` decomposed into its layer calls, each under a span."""

    def __init__(self, tracer: Tracer, B, mvn_draws, chains, sampling, warmup) -> None:
        self.tr = tracer
        self.B, self.mvn_draws = B, mvn_draws
        self.chains, self.sampling, self.warmup = chains, sampling, warmup
        self.calibration_warnings = 0
        self.ensemble_cells = 0
        self.ensemble_bytes = 0
        self.mcmc = None  # (seconds, PosteriorDraws) of the replayed MCMC run

    def intervals(self, data, fit, spec, requests, rng: RngStream) -> dict:
        tr = self.tr
        ensemble = predictive = None
        if any(r.construction in _CALIBRATIONS for r in requests):
            ensemble = tr.call(
                "bootstrap.build_ensemble", build_ensemble, fit, data, spec, self.B, rng.child(0)
            )
            self.ensemble_cells = self.B * data.n_clusters * data.n_categories
            # Computed from array sizes, not measured: the B x K x C int64
            # replicate matrix plus the four B x C arrays the ensemble keeps.
            self.ensemble_bytes = 8 * self.ensemble_cells + 4 * ensemble.z.nbytes
        priors = {r.prior for r in requests if r.prior is not None}
        if priors - {"cauchy"}:
            raise ValueError(f"the replica covers the cauchy prior only, got {sorted(priors)}")
        if priors:
            with tr.span("bayes.mcmc_sample.cauchy") as s:
                draws = mcmc_sample(
                    data,
                    PriorChoice.half_cauchy(),
                    rng.child(2),
                    chains=self.chains,
                    sampling_iters=self.sampling,
                    warmup=self.warmup,
                )
            self.mcmc = (s["end"] - s["start"], draws)
            predictive = tr.call(
                "bayes.posterior_predictive", posterior_predictive, draws, spec.m, rng.child(3)
            )
        out = {}
        for req in requests:
            kind = req.construction
            if kind == "pointwise":
                result = tr.call("asymptotic.normal", pointwise_interval, fit, spec)
            elif kind == "bonferroni":
                result = tr.call("asymptotic.normal", bonferroni_interval, fit, spec)
            elif kind == "mvn":
                result = tr.call(
                    "asymptotic.mvn", mvn_interval, fit, spec, rng.child(1), n_draws=self.mvn_draws
                )
            elif kind in _CALIBRATIONS:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    result = tr.call(
                        "bootstrap." + kind.replace("-", "_"),
                        _CALIBRATIONS[kind],
                        ensemble,
                        fit,
                        spec,
                    )
                self.calibration_warnings += sum(
                    issubclass(w.category, _CALIBRATION_WARNINGS) for w in caught
                )
            else:
                result = tr.call(
                    "bayes.intervals", _BAYES[kind], predictive, spec.alpha, label=req.output_id
                )
            out[req.output_id] = result
        return out


def same_intervals(a: dict, b: dict) -> bool:
    fields = ("lower", "upper", "y_hat", "sep", "multiplier_lower", "multiplier_upper")
    return list(a) == list(b) and all(
        np.array_equal(getattr(a[k], f), getattr(b[k], f), equal_nan=True)
        for k in a
        for f in fields
    )


# Layers every workload calls.
_LAYER_SPANS = {
    "io.write_rows_ms": "io.write_rows",
    "model.fit_model_ms": "model.fit_model",
    "dm.sample_dm_matrix_ms": "dm.sample_dm_matrix",
    "bootstrap.build_ensemble_ms": "bootstrap.build_ensemble",
    "bootstrap.symmetric_ms": "bootstrap.symmetric",
    "bootstrap.asymmetric_ms": "bootstrap.asymmetric",
    "bootstrap.marginal_ms": "bootstrap.marginal",
    "bootstrap.masr_ms": "bootstrap.masr",
    "bootstrap.rank_scs_ms": "bootstrap.rank_scs",
    "empirical.rank_summary_ms": "empirical.rank_summary",
    "asymptotic.mvn_ms": "asymptotic.mvn",
    "asymptotic.normal_ms": "asymptotic.normal",
    "methods.compute_intervals_ms": "methods.compute_intervals",
}


def layer_metrics(tr: Tracer, replica: Replica) -> dict:
    """Per-layer metrics of the layers every workload calls, plus MCMC's if it ran."""
    out = {metric: tr.median_ms(name) for metric, name in _LAYER_SPANS.items()}
    out["bootstrap.ensemble_cells"] = replica.ensemble_cells
    out["bootstrap.ensemble_bytes"] = replica.ensemble_bytes
    out["bootstrap.calibration_warnings"] = replica.calibration_warnings
    out["methods.self_ms"] = statistics.median(
        tr.self_ms(s) for s in tr.named("methods.compute_intervals")
    )
    out["trace.coverage"] = tr.coverage()
    if replica.mcmc is not None:
        seconds, draws = replica.mcmc
        evals = replica.chains * (replica.warmup + replica.sampling) * draws.pi_global.shape[1]
        out.update(
            {
                "bayes.mcmc_sample.cauchy_s": seconds,
                "bayes.logpost_evals": evals,
                "bayes.logpost_us": seconds * 1e6 / evals,
                "bayes.accept_rate": float(np.mean(draws.accept_rates)),
                "bayes.rhat_max": float(np.nanmax(draws.rhat)),
                "bayes.posterior_predictive_ms": tr.median_ms("bayes.posterior_predictive"),
                "bayes.intervals_ms": tr.median_ms("bayes.intervals"),
            }
        )
    return out


def trace_predict(job: dict, tr: Tracer) -> tuple[dict, dict]:
    """One untraced `predict`, its layer-by-layer replay, then one `predict` with timed calls."""
    rep = predict_call(job)
    s = job["settings"]
    replica = Replica(tr, s["B"], s["mvn_draws"], s["chains"], s["sampling"], s["warmup"])
    requests = resolve_methods(job["methods"].split(","), (s["prior"],))
    work = Path(job["work"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with tr.span("predict") as unit:
            data = tr.call("io.parse_counts_csv", parse_counts_csv, job["data"])
            tr.call("io.parse_counts_csv", parse_future_csv, job["future"])
            fit = tr.call("model.fit_model", fit_model, data)
            spec = FutureSpec(m=job["m"], alpha=s["alpha"])
            sets = replica.intervals(data, fit, spec, requests, RngStream(job["seed"]))
            with tr.span("io.write_rows"):
                rows = interval_rows(sets, data.categories)
                write_text(rows_to_csv(rows, INTERVAL_COLUMNS), str(work / "intervals-replay.csv"))
        with real_call_spans(tr), tr.wrapped(cli, _CLI_CHILDREN) as results:
            with contextlib.redirect_stdout(_stdio.StringIO()), tr.span("cli.main", replay=False) as main:
                cli.main(predict_argv(job, work / "intervals-timed.csv"))
    layers = layer_metrics(tr, replica)
    layers.update(
        {
            "cli.self_ms": tr.self_ms(main),
            "io.parse_counts_csv_ms": tr.median_ms("io.parse_counts_csv"),
            "trace.overhead": tr.duration_ms(unit) / (rep["wall_s"] * 1e3),
            "trace.replica_matches": int(same_intervals(sets, results["compute_intervals"])),
        }
    )
    return rep, layers


def trace_simulate(job: dict, tr: Tracer) -> tuple[dict, dict]:
    """One untraced simulate call, then a replay of the iteration loop through the public calls.

    The replay runs ``trace_iters`` iterations for the iteration-time
    percentiles.  The first ``n_iter`` of them are aggregated and written as
    ``run_simulation`` does, to compare with the untraced output, and for
    those the real ``compute_intervals`` is also called, with timed children.
    """
    cfg = parse_config(job["config"])
    catalog_ms = []
    for _ in range(CATALOG_REPEATS):
        t0 = time.perf_counter()
        sc = catalog_cell(cfg)
        catalog_ms.append((time.perf_counter() - t0) * 1e3)
    rep = simulate_call(job, sc)
    replica = Replica(tr, sc.B, sc.mvn_draws, sc.chains, max(sc.S // sc.chains, 4), sc.warmup)
    requests = resolve_methods(sc.methods, sc.priors)
    spec = FutureSpec(m=sc.m, alpha=sc.alpha)
    root = RngStream(sc.seed)
    outcomes = {
        r.output_id: MethodOutcome(
            method=r.output_id,
            below_lower=np.zeros(sc.n_categories, dtype=np.int64),
            above_upper=np.zeros(sc.n_categories, dtype=np.int64),
        )
        for r in requests
    }
    n_completed = n_failed = 0
    matches = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i in range(max(job["trace_iters"], sc.n_iter)):
            it = root.child(i)
            try:
                with tr.span("simulation.iter"):
                    data = tr.call(
                        "dm.generate_dataset",
                        generate_dataset,
                        sc.K, sc.n, sc.pi_true, sc.phi, it.child(0), repair=sc.repair,
                    )
                    y = tr.call(
                        "dm.sample_dm_counts", sample_dm_counts, sc.m, sc.pi_true, sc.phi, it.child(1)
                    )
                    fit = tr.call("model.fit_model", fit_model, data)
                    sets = replica.intervals(data, fit, spec, requests, it.child(2))
            except MnpredError:
                n_failed += i < sc.n_iter
                continue
            if i >= sc.n_iter:
                continue
            n_completed += 1
            for method_id, intervals in sets.items():
                o = outcomes[method_id]
                below, above = y < intervals.lower, y > intervals.upper
                o.n_eval += 1
                o.contained += int(not (below.any() or above.any()))
                o.below_lower += below
                o.above_upper += above
            with real_call_spans(tr), tr.span("methods.compute_intervals", replay=False):
                real = compute_intervals(
                    data,
                    fit,
                    spec,
                    requests,
                    it.child(2),
                    B=replica.B,
                    mvn_draws=replica.mvn_draws,
                    chains=replica.chains,
                    sampling_iters=replica.sampling,
                    warmup=replica.warmup,
                )
            matches = matches and same_intervals(sets, real)
    report = SimulationReport(sc, outcomes, n_completed, n_failed, runtime_seconds=0.0)
    out = Path(job["work"]) / "simulation-replay.csv"
    with tr.span("simulation.write"):
        tr.call("io.write_rows", write_simulation, report, out)
    layers = layer_metrics(tr, replica)
    iter_ms = [tr.duration_ms(s) for s in tr.named("simulation.iter")]
    layers.update(
        {
            "dm.generate_dataset_ms": tr.median_ms("dm.generate_dataset"),
            "dm.sample_dm_counts_ms": tr.median_ms("dm.sample_dm_counts"),
            "simulation.iter_ms.p50": float(np.percentile(iter_ms, 50)),
            "simulation.iter_ms.p95": float(np.percentile(iter_ms, 95)),
            "catalog.scenario_catalog_ms": statistics.median(catalog_ms),
            "trace.overhead": statistics.mean(iter_ms[: sc.n_iter]) * sc.n_iter
            / (rep["wall_s"] * 1e3),
            "trace.replica_matches": int(matches and digest(out.read_bytes()) == rep["digest"]),
        }
    )
    return rep, layers


def repeat(call, seconds: float) -> list[dict]:
    """Call until `seconds` have passed, and at least MIN_CALLS times."""
    reps = []
    t0 = time.perf_counter()
    while len(reps) < MIN_CALLS or time.perf_counter() - t0 < seconds:
        reps.append(call())
    return reps


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    work = Path(job["work"])
    tr = Tracer()
    result: dict = {}
    if job["kind"] == "predict" and job["trace"]:
        rep, result["layers"] = trace_predict(job, tr)
        reps = [rep]
    elif job["kind"] == "predict":
        reps = repeat(lambda: predict_call(job), job["seconds"])
    elif job["trace"]:
        rep, result["layers"] = trace_simulate(job, tr)
        reps = [rep]
    else:
        scenario = catalog_cell(parse_config(job["config"]))
        reps = repeat(lambda: simulate_call(job, scenario), job["seconds"])
    result["reps"] = reps
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if job["trace"]:
        tr.dump(work / "spans.json")
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
