"""Release gate: one test per numbered headline criterion.

Each test prints a `[criterion N] PASS/FAIL` line directly to the
terminal (bypassing capture), so a plain pytest run doubles as the
acceptance report.  Scenario seeds are frozen; every run reproduces the
same numbers byte for byte.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.stats import norm

import mnpred as mp
from mnpred.bayes import (
    PriorChoice,
    bayes_rank_scs_interval,
    dm_log_pmf,
    mcmc_sample,
    posterior_predictive,
)
from mnpred.bootstrap import build_ensemble, rank_multipliers
from mnpred.cli import main
from mnpred.dm import derive_eta0, sample_dm_counts
from mnpred.empirical import rank_summary
from mnpred.errors import ConvergenceWarning
from mnpred.io import (
    INTERVAL_COLUMNS,
    SIMULATION_COLUMNS,
    interval_rows,
    read_rows_csv,
    rows_to_csv,
    simulation_rows,
)
from mnpred.methods import resolve_methods, compute_intervals
from mnpred.simulation import Scenario, run_simulation, tail_balance

from conftest import dm_box_probability, mc_equicoordinate_quantile

ALPHA = 0.05

# the nominal/liberal coverage study cell used by criteria 1-3
CELL_PI = (0.25, 0.25, 0.5)
CELL = dict(pi_true=CELL_PI, K=10, n=50, n_iter=500, B=2000, seed=4)

# the historical severity-profile fixture used by criterion 10
FIXTURE_PI = (0.224, 0.466, 0.273, 0.031, 0.004)
FIXTURE_PHI = 3.19
BEST_METHODS = ("symmetric", "asymmetric", "marginal", "masr", "rank-scs", "bayes-scs")
# criterion 10b tiers: the paper's reliable methods hold the nominal level,
# the single-multiplier calibrations sit near it, the asymptotic bands fall
# clearly short of it
NOMINAL_METHODS = ("marginal", "rank-scs", "bayes-scs-cauchy")
NEAR_NOMINAL_METHODS = ("symmetric", "asymmetric", "masr")
LIBERAL_CONTROLS = ("bonferroni", "mvn")


@pytest.fixture
def verdict(capsys):
    def emit(n, ok, detail=""):
        with capsys.disabled():
            print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} {detail}".rstrip())
        assert ok, f"criterion {n}: {detail}"

    return emit


@pytest.fixture(scope="module")
def overdispersed_report():
    scenario = Scenario(
        phi=5.0,
        methods=("pointwise", "bonferroni", "marginal", "rank-scs"),
        scenario_id="acceptance-liberal",
        **CELL,
    )
    return run_simulation(scenario)


@pytest.fixture(scope="module")
def recovery_run():
    """One full-length posterior fit plus its serialized interval table."""
    truth = np.array([0.3, 0.35, 0.35])
    root = mp.RngStream(808)
    data = mp.generate_dataset(20, 50, truth, 5.0, root.child(0))
    draws = mcmc_sample(
        data, PriorChoice.half_cauchy(), root.child(1),
        chains=4, sampling_iters=2500, warmup=1000,
    )
    pred = posterior_predictive(draws, 50, root.child(2))
    ivs = bayes_rank_scs_interval(pred, ALPHA)
    futures = sample_dm_counts(50, truth, 5.0, root.child(3), size=200)
    csv_text = rows_to_csv(
        interval_rows({"bayes-scs-cauchy": ivs}, data.categories), INTERVAL_COLUMNS
    )
    return truth, draws, ivs, futures, csv_text


def test_criterion_01_liberal_asymptotics(overdispersed_report, verdict):
    out = overdispersed_report.outcomes
    pw, bf = out["pointwise"], out["bonferroni"]
    mg, rs = out["marginal"], out["rank-scs"]
    ok = (
        pw.coverage < 0.90
        and bf.coverage < (1 - ALPHA) - bf.mc_error
        and 0.93 <= mg.coverage <= 0.985
        and 0.93 <= rs.coverage <= 0.985
        and overdispersed_report.runtime_seconds < 1800
    )
    verdict(
        1, ok,
        f"pointwise {pw.coverage:.3f} bonferroni {bf.coverage:.3f} "
        f"marginal {mg.coverage:.3f} rank-scs {rs.coverage:.3f} "
        f"({overdispersed_report.runtime_seconds:.0f}s)",
    )


def test_criterion_02_near_multinomial_agreement(verdict):
    scenario = Scenario(
        phi=1.01, methods=("symmetric", "masr"),
        scenario_id="acceptance-multinomial", **CELL,
    )
    report = run_simulation(scenario)
    sym, masr = report.outcomes["symmetric"], report.outcomes["masr"]

    # the two calibrations must also agree multiplier-for-multiplier on
    # fresh near-multinomial datasets, not just in aggregate coverage
    diffs = []
    for i in range(50):
        st = mp.RngStream(99).child(i)
        d = mp.generate_dataset(10, 50, CELL_PI, 1.01, st.child(0))
        fit = mp.fit_model(d)
        spec = mp.FutureSpec(m=50, alpha=ALPHA)
        ens = build_ensemble(fit, d, spec, B=2000, rng=st.child(1))
        s, a = mp.symmetric_calibration(ens, fit, spec), mp.masr_interval(ens, fit, spec)
        diffs.append(max(
            np.abs(s.multiplier_lower - a.multiplier_lower).max(),
            np.abs(s.multiplier_upper - a.multiplier_upper).max(),
        ))
    worst = max(diffs)
    ok = (
        0.93 <= sym.coverage <= 0.985
        and 0.93 <= masr.coverage <= 0.985
        and worst < 0.05
    )
    verdict(
        2, ok,
        f"symmetric {sym.coverage:.3f} masr {masr.coverage:.3f} "
        f"max multiplier gap {worst:.4f}",
    )


def test_criterion_03_tail_balance(overdispersed_report, verdict):
    rows = [r for r in tail_balance(overdispersed_report) if r.method == "marginal"]
    assert len(rows) == 3
    checks, details = [], []
    for row in rows:
        lo_ok = row.p_at_or_above_lower >= row.reference - 2 * row.mc_error_lower
        hi_ok = row.p_at_or_below_upper >= row.reference - 2 * row.mc_error_upper
        checks.append(lo_ok and hi_ok)
        details.append(f"cat{row.category} {row.p_at_or_above_lower:.3f}/{row.p_at_or_below_upper:.3f}")
    verdict(3, all(checks), " ".join(details) + f" ref {rows[0].reference:.4f}")


def test_criterion_04_dispersion_estimator(verdict):
    import time

    t0 = time.perf_counter()
    means = {}
    for slot, phi in ((0, 5.0), (1, 1.01)):
        raws = [
            mp.fit_model(
                mp.generate_dataset(100, 50, CELL_PI, phi, mp.RngStream(31).child(i).child(slot))
            ).phi_raw
            for i in range(200)
        ]
        means[phi] = float(np.mean(raws))
    elapsed = time.perf_counter() - t0
    ok = 4.5 <= means[5.0] <= 5.5 and 0.9 <= means[1.01] <= 1.2 and elapsed < 60
    verdict(4, ok, f"mean raw dispersion {means[5.0]:.3f} / {means[1.01]:.3f} ({elapsed:.1f}s)")


def test_criterion_05_generator_moments(verdict):
    pi = np.array([0.3, 0.7])
    draws = sample_dm_counts(50, pi, 5.0, mp.RngStream(77), size=100_000)
    ratio = draws.var(axis=0, ddof=1) / (50 * pi * (1 - pi))
    ok = bool(np.all((ratio >= 4.75) & (ratio <= 5.25)))
    verdict(5, ok, f"variance inflation {ratio[0]:.3f} {ratio[1]:.3f}")


def test_criterion_06_mvn_quantile_oracles(verdict):
    corr = np.array([[1.0, -1.0], [-1.0, 1.0]])
    q2 = mc_equicoordinate_quantile(corr, ALPHA, mp.RngStream(13), n_draws=400_000)
    q3 = mc_equicoordinate_quantile(np.eye(3), ALPHA, mp.RngStream(14), n_draws=400_000)
    sidak = norm.ppf((1 + (1 - ALPHA) ** (1 / 3)) / 2)
    ok = abs(q2 - 1.96) <= 0.01 and abs(q3 - sidak) <= 0.02
    verdict(6, ok, f"antithetic pair {q2:.4f} vs 1.96, independent {q3:.4f} vs {sidak:.4f}")


def test_criterion_07_pmf_normalization(verdict):
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(20):
        C = int(rng.integers(2, 4))
        n = int(rng.integers(1, 7))
        eta = rng.uniform(0.1, 8.0, size=C)
        total = 0.0
        for head in itertools.product(range(n + 1), repeat=C - 1):
            if sum(head) <= n:
                x = (*head, n - sum(head))
                total += math.exp(dm_log_pmf(x, n, eta))
        worst = max(worst, abs(total - 1.0))
    verdict(7, worst <= 1e-10, f"worst normalization error {worst:.2e}")


def test_criterion_08_bayesian_recovery(recovery_run, verdict):
    truth, draws, ivs, futures, _ = recovery_run
    rhat_max = float(np.nanmax(draws.rhat))
    dev = float(np.abs(draws.pi_global.mean(axis=0) - truth).max())
    coverage = float(
        np.mean(np.all((futures >= ivs.lower) & (futures <= ivs.upper), axis=1))
    )
    ok = rhat_max < 1.05 and dev <= 0.05 and coverage >= 0.93
    verdict(
        8, ok,
        f"max split R-hat {rhat_max:.4f}, probability error {dev:.4f}, "
        f"future coverage {coverage:.3f}",
    )


def test_criterion_09_rank_exactness(verdict):
    rng = np.random.default_rng(9)
    z = rng.standard_normal((100, 1))
    z_sorted = np.sort(z[:, 0])

    # enumeration oracle: literally count replicates inside each
    # candidate central rank band and take the smallest adequate one
    oracle_tau = None
    for tau in range(50, 101):
        lo, hi = z_sorted[100 - tau], z_sorted[tau - 1]
        frac = float(np.mean((z[:, 0] >= lo) & (z[:, 0] <= hi)))
        if frac >= 1 - ALPHA:
            oracle_tau = tau
            break
    summary = rank_summary(z, ALPHA)
    q_lo, q_hi = rank_multipliers(z, ALPHA)
    ok = (
        oracle_tau == 98
        and summary.tau_star == oracle_tau
        and q_lo[0] == abs(z_sorted[2])
        and q_hi[0] == z_sorted[97]
    )
    verdict(9, ok, f"critical rank {summary.tau_star} (oracle {oracle_tau}), bounds = order stats 3/98")


@pytest.mark.filterwarnings("ignore::mnpred.errors.ConvergenceWarning")
def test_criterion_10a_end_to_end_cli(tmp_path, verdict):
    counts = str(tmp_path / "counts.csv")
    future = str(tmp_path / "future.csv")
    table = str(tmp_path / "intervals.csv")
    rc_gen = main([
        "generate", "--K", "10", "--n", "46", "--phi", str(FIXTURE_PHI),
        "--pi", ",".join(str(p) for p in FIXTURE_PI),
        "--categories", "Minimal,Mild,Moderate,Marked,Massive",
        "--seed", "0", "--m", "46", "--future-out", future, "--out", counts,
    ])
    rc_pred = main([
        "predict", "--data", counts, "--m", "46", "--future", future,
        "--methods", "all", "--seed", "0", "--out", table,
    ])
    rows = read_rows_csv(table)
    methods = {r["method"] for r in rows}
    shape_ok = (
        len(rows) == 11 * 5
        and len(methods) == 11
        and all(set(r) == set(INTERVAL_COLUMNS) for r in rows)
        and all(r["L"] <= r["U"] for r in rows)
    )
    ok = rc_gen == 0 and rc_pred == 0 and shape_ok
    verdict(10, ok, f"pipeline exit codes {rc_gen}/{rc_pred}, {len(rows)} table rows, part a")


def test_exact_box_probability_oracle():
    """`dm_box_probability` against brute-force enumeration with `dm_log_pmf`."""
    rng = np.random.default_rng(10)
    worst_box = worst_full = 0.0
    for _ in range(20):
        C = int(rng.integers(2, 5))
        n = int(rng.integers(1, 8))
        eta = rng.uniform(0.1, 8.0, size=C)
        # a random box around a random composition, with fractional edges
        centre = rng.multinomial(n, np.full(C, 1.0 / C))
        lower = centre - rng.uniform(0.0, 3.0, size=C)
        upper = centre + rng.uniform(0.0, 3.0, size=C)
        box = full = 0.0
        for head in itertools.product(range(n + 1), repeat=C - 1):
            if sum(head) <= n:
                x = np.array((*head, n - sum(head)))
                p = math.exp(dm_log_pmf(x, n, eta))
                full += p
                if np.all((lower <= x) & (x <= upper)):
                    box += p
        worst_box = max(worst_box, abs(dm_box_probability(lower, upper, n, eta) - box))
        whole = dm_box_probability(np.zeros(C), np.full(C, n), n, eta)
        worst_full = max(worst_full, abs(whole - full), abs(whole - 1.0))
        # empty boxes: an empty category range, or ranges that cannot reach n
        empty = upper.copy()
        empty[0] = math.ceil(lower[0]) - 0.5
        assert dm_box_probability(lower, empty, n, eta) == 0.0
        assert dm_box_probability(np.zeros(C), np.full(C, (n - 1) / C), n, eta) == 0.0
    assert worst_box <= 1e-12, f"box probability error {worst_box:.2e}"
    assert worst_full <= 1e-12, f"full-box normalization error {worst_full:.2e}"


@pytest.mark.slow
def test_criterion_10b_fixture_containment_rate(verdict):
    """Exact coverage of the severity fixture, per method, at the paper's level.

    Runs the generate-and-predict experiment over the frozen seeds 0-99
    at reduced (but frozen) sampler settings.  For each historical
    dataset the coverage of a band is P(L <= y <= U), computed exactly
    under the generating DM(46, pi, 3.19) by `dm_box_probability`, then
    averaged over the 100 datasets; the standard error is taken across
    datasets.  Each method is judged on its own:

    - marginal and rank-scs, which the paper finds reliable with rare
      categories, and the Bayesian rank band bayes-scs-cauchy must
      reach 0.95;
    - symmetric, asymmetric and masr must sit in the near-nominal band
      [0.93, 0.985] that criteria 1-2 assert for calibrated methods.
      One shared multiplier cannot cover the two rare, strongly discrete
      categories without overshooting the dense ones, so the symmetric
      and masr bands miss mostly in the upper tail of Marked and Massive;
    - bonferroni and mvn, the liberal asymptotic bands, are a negative
      control and must come out below 0.93, so the exact measure still
      tells liberal bands from calibrated ones on this fixture.

    An intersection of six 0.95 bands has no 0.95 guarantee, and even an
    exactly calibrated band reaches 95 of 100 Bernoulli draws only 62% of
    the time, so the realised joint containment of one future draw per
    seed is printed as information only.
    """
    pi = np.array(FIXTURE_PI, dtype=float)
    pi /= pi.sum()
    eta = derive_eta0(46, FIXTURE_PHI) * pi
    requests = resolve_methods(BEST_METHODS + LIBERAL_CONTROLS, ("cauchy",))
    best = NOMINAL_METHODS + NEAR_NOMINAL_METHODS
    names = best + LIBERAL_CONTROLS
    spec = mp.FutureSpec(m=46, alpha=ALPHA)
    cover = {name: [] for name in names}
    joint, hits = [], 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        for seed in range(100):
            root = mp.RngStream(seed)
            data = mp.generate_dataset(10, 46, pi, FIXTURE_PHI, root.child(0), repair=True)
            y = sample_dm_counts(46, pi, FIXTURE_PHI, root.child(1))
            fit = mp.fit_model(data)
            sets = compute_intervals(
                data, fit, spec, requests, root.child(2),
                B=2000, chains=2, sampling_iters=750, warmup=500,
            )
            for name in names:
                cover[name].append(
                    dm_box_probability(sets[name].lower, sets[name].upper, 46, eta)
                )
            lower = np.max([sets[name].lower for name in best], axis=0)
            upper = np.min([sets[name].upper for name in best], axis=0)
            joint.append(dm_box_probability(lower, upper, 46, eta))
            hits += bool(np.all((lower <= y) & (y <= upper)))
    mean = {name: float(np.mean(v)) for name, v in cover.items()}
    se = {name: float(np.std(v, ddof=1) / math.sqrt(len(v))) for name, v in cover.items()}
    ok = (
        all(mean[name] >= 1 - ALPHA for name in NOMINAL_METHODS)
        and all(0.93 <= mean[name] <= 0.985 for name in NEAR_NOMINAL_METHODS)
        and all(mean[name] < 0.93 for name in LIBERAL_CONTROLS)
    )
    detail = " ".join(f"{name} {mean[name]:.3f}(se {se[name]:.3f})" for name in names)
    verdict(
        10, ok,
        f"exact coverage {detail}; six-band intersection {np.mean(joint):.3f}, "
        f"joint draws {hits}/100 (info), part b",
    )


def predict_with_blas_threads(counts, out, threads):
    """Run `mnpred predict` in a fresh interpreter with a fixed BLAS thread count.

    OpenBLAS reads its thread count when it loads, so the setting only
    takes effect in a new process.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    src = os.path.dirname(os.path.dirname(mp.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [
            sys.executable, "-m", "mnpred.cli", "predict", "--data", counts, "--m", "46",
            "--methods", "pointwise,mvn,marginal", "--seed", "0", "--out", out,
        ],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    with open(out, "rb") as fh:
        return fh.read()


def test_criterion_11_byte_identical_reruns(
    overdispersed_report, recovery_run, verdict, tmp_path
):
    first_sim = rows_to_csv(simulation_rows([overdispersed_report]), SIMULATION_COLUMNS)
    first_fit_csv = recovery_run[4]

    scenario = Scenario(
        phi=5.0,
        methods=("pointwise", "bonferroni", "marginal", "rank-scs"),
        scenario_id="acceptance-liberal",
        **CELL,
    )
    second_sim = rows_to_csv(simulation_rows([run_simulation(scenario)]), SIMULATION_COLUMNS)

    truth = np.array([0.3, 0.35, 0.35])
    root = mp.RngStream(808)
    data = mp.generate_dataset(20, 50, truth, 5.0, root.child(0))
    draws = mcmc_sample(
        data, PriorChoice.half_cauchy(), root.child(1),
        chains=4, sampling_iters=2500, warmup=1000,
    )
    pred = posterior_predictive(draws, 50, root.child(2))
    ivs = bayes_rank_scs_interval(pred, ALPHA)
    second_fit_csv = rows_to_csv(
        interval_rows({"bayes-scs-cauchy": ivs}, data.categories), INTERVAL_COLUMNS
    )
    sim_same = second_sim.encode() == first_sim.encode()
    fit_same = second_fit_csv.encode() == first_fit_csv.encode()

    # the mvn multiplier no longer multiplies matrices, so no step here is known
    # to use BLAS threads; the check keeps any that comes from moving the bytes
    counts = str(tmp_path / "counts.csv")
    assert main([
        "generate", "--K", "10", "--n", "46", "--phi", str(FIXTURE_PHI),
        "--pi", ",".join(str(p) for p in FIXTURE_PI), "--seed", "1", "--out", counts,
    ]) == 0
    one_thread = predict_with_blas_threads(counts, str(tmp_path / "one.csv"), 1)
    two_threads = predict_with_blas_threads(counts, str(tmp_path / "two.csv"), 2)
    threads_same = one_thread == two_threads
    verdict(
        11, sim_same and fit_same and threads_same,
        f"simulation bytes equal: {sim_same}, interval bytes equal: {fit_same}, "
        f"1- and 2-thread BLAS predict bytes equal: {threads_same}",
    )
