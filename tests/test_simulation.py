import itertools
import math
import os
import sys
import threading
import time
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

import mnpred as mp
from mnpred.catalog import (
    C3_VECTORS,
    C5_VECTORS,
    C10_VECTORS,
    CLUSTER_GRID,
    DISPERSION_GRID,
    SIZE_GRID,
    build_scenarios,
    catalog_vectors,
    scenario_catalog,
)
from mnpred.bayes import dm_log_pmf
from mnpred.dm import generate_dataset, sample_dm_matrix
from mnpred.errors import FailureCapError, ValidationError
from mnpred.io import SIMULATION_COLUMNS, RunConfig, rows_to_csv, simulation_rows
from mnpred.methods import FREQUENTIST_METHODS
from mnpred.simulation import Scenario, run_simulation, tail_balance

from conftest import appender, assert_no_child_left, dm_box_probability


def cheap_scenario(**kw):
    base = dict(
        pi_true=(0.3, 0.3, 0.4),
        K=5,
        n=20,
        phi=2.0,
        n_iter=8,
        methods=("pointwise", "bonferroni"),
        B=200,
        seed=11,
    )
    base.update(kw)
    return Scenario(**base)


class TestScenario:
    def test_future_size_defaults_to_cluster_size(self):
        s = cheap_scenario()
        assert s.m == 20

    def test_probabilities_normalised_and_frozen(self):
        s = cheap_scenario(pi_true=(0.52, 0.26, 0.26))  # a sum within [0.9, 1.1]
        np.testing.assert_allclose(s.pi_true, [0.5, 0.25, 0.25])
        with pytest.raises(ValueError):
            s.pi_true[0] = 0.9

    def test_sparse_flag(self):
        assert cheap_scenario(pi_true=(0.02, 0.98), n=10, phi=1.5).min_expected_count == pytest.approx(0.2)
        assert cheap_scenario(pi_true=(0.5, 0.5), n=10, phi=1.5).min_expected_count == 5.0

    @pytest.mark.parametrize(
        "kw",
        [
            dict(phi=20.0),             # phi must stay below min(n, m)
            dict(phi=25.0, m=30),
            dict(phi=1.0),
            dict(pi_true=(1.0,)),
            dict(pi_true=(0.5, 0.0, 0.5)),
            dict(K=1),
            dict(n=1),
            dict(n_iter=0),
            dict(alpha=1.0),
            dict(B=0),
            dict(seed=-1),
            dict(S=0),
            dict(chains=0),             # would divide by zero in sampling_iters
            dict(warmup=0),
            dict(mvn_draws=10),         # below what the mvn quantile accepts
            dict(chains=1, methods=("bayes-scs",)),  # split R-hat needs two chains
            dict(chains=1, methods=("pointwise", "bayes-mean-beta")),
            dict(chains=1, methods=("all",)),
            dict(pi_true=(0.3, 0.3, 4.0)),    # the sum must lie in [0.9, 1.1]
            dict(pi_true=(30, 30, 40)),
            dict(pi_true=(0.3, 0.3, 0.2)),
        ],
    )
    def test_rejects_bad_cells(self, kw):
        with pytest.raises(ValidationError):
            cheap_scenario(**kw)

    def test_one_chain_is_legal_without_bayesian_methods(self):
        # A Bayesian cell with one chain would fail every iteration: refused at construction.
        with pytest.raises(ValidationError, match="chains"):
            Scenario(pi_true=(0.3, 0.7), K=5, n=20, phi=2.0, n_iter=4,
                     methods=("bayes-scs",), chains=1, S=200, warmup=50)
        report = run_simulation(cheap_scenario(chains=1, n_iter=2))
        assert report.n_completed == 2

    def test_one_replicate_is_refused_by_name(self):
        # B = 1 would pass here and then fail every iteration in build_ensemble
        with pytest.raises(ValidationError, match="B must be at least 2"):
            cheap_scenario(B=1)


@pytest.fixture(scope="module")
def report():
    return run_simulation(cheap_scenario())


class TestRunSimulation:
    def test_bookkeeping(self, report):
        assert report.n_completed + report.n_failed == 8
        assert report.n_failed == sum(report.failures.values())
        assert report.runtime_seconds > 0.0
        assert set(report.outcomes) == {"pointwise", "bonferroni"}
        for out in report.outcomes.values():
            assert out.n_eval == report.n_completed
            assert 0.0 <= out.coverage <= 1.0
            assert out.below_lower.shape == (3,)
            assert out.above_upper.shape == (3,)

    def test_deterministic(self, report):
        again = run_simulation(cheap_scenario())
        for name, out in report.outcomes.items():
            assert out.contained == again.outcomes[name].contained
            np.testing.assert_array_equal(out.below_lower, again.outcomes[name].below_lower)
            np.testing.assert_array_equal(out.above_upper, again.outcomes[name].above_upper)

    def test_nested_methods_order_coverage(self, report):
        # the Bonferroni band contains the pointwise band iteration by iteration
        assert report.outcomes["pointwise"].contained <= report.outcomes["bonferroni"].contained

    def test_simultaneous_at_most_per_category(self, report):
        for out in report.outcomes.values():
            per_cat = 1.0 - out.p_below - out.p_above
            assert out.coverage <= per_cat.min() + 1e-12

    def test_mc_error_formula(self, report):
        out = report.outcomes["pointwise"]
        p = out.coverage
        assert out.mc_error == pytest.approx(1.96 * np.sqrt(p * (1 - p) / out.n_eval))

    def test_single_iteration_is_defined(self):
        report = run_simulation(cheap_scenario(n_iter=1))
        out = report.outcomes["pointwise"]
        assert out.coverage in (0.0, 1.0)
        assert out.mc_error == 0.0

    def test_failure_cap_trips(self):
        # repair disabled plus a near-degenerate category makes most draws
        # unfittable, which must abort rather than silently bias coverage
        with pytest.raises(FailureCapError):
            run_simulation(failing_scenario())


def failing_scenario():
    """test_failure_cap_trips' cell: most iterations fail, so the cap trips."""
    return cheap_scenario(
        pi_true=(0.02, 0.98), K=2, n=5, phi=1.5,
        n_iter=10, methods=("pointwise",), B=50, repair=False, seed=0,
    )


# The harness oracle's shape: K=3 clusters of n=6 units in C=3 categories
# and a future of m=6, so a table has 28^3 outcomes.
ORACLE = dict(pi_true=(0.6, 0.25, 0.15), K=3, n=6, phi=2.0)


def exact_deterministic_coverage(methods):
    """Exact P(future in box) of each method whose box depends on the table alone.

    ``methods`` maps each method's name to its interval function of the
    fit and the future spec.
    A sum over the 3-cluster tables' multisets (the fit and so the box do
    not depend on the clusters' order), with each empty column's repair
    unit given to each of the K clusters with probability 1/K, and over
    the futures through ``dm_box_probability``.
    """
    K, n, phi = ORACLE["K"], ORACLE["n"], ORACLE["phi"]
    pi = np.asarray(ORACLE["pi_true"])
    eta = mp.derive_eta0(n, phi) * pi
    heads = [h for h in itertools.product(range(n + 1), repeat=2) if sum(h) <= n]
    outcomes = [(*h, n - sum(h)) for h in heads]
    p = np.exp([dm_log_pmf(np.array(x), n, eta) for x in outcomes])
    spec = mp.FutureSpec(m=n)
    coverage = dict.fromkeys(methods, 0.0)
    for idx in itertools.combinations_with_replacement(range(len(outcomes)), K):
        orders = math.factorial(K) / math.prod(
            math.factorial(idx.count(i)) for i in set(idx)
        )
        table = np.array([outcomes[i] for i in idx])
        empty = np.flatnonzero(table.sum(axis=0) == 0)
        weight = orders * np.prod(p[list(idx)]) / K ** empty.shape[0]
        for chosen in itertools.product(range(K), repeat=empty.shape[0]):
            repaired = table.copy()
            repaired[list(chosen), empty] += 1
            fit = mp.fit_model(mp.HistoricalDataset(repaired))
            for method in methods:
                box = methods[method](fit, spec)
                coverage[method] += weight * dm_box_probability(box.lower, box.upper, n, eta)
    return coverage


def test_coverage_matches_the_exact_harness_law():
    """run_simulation's coverage of pointwise and Bonferroni against its exact value.

    The exact coverage (0.77746 and 0.84155) is a finite sum; the Monte
    Carlo coverage of 8000 iterations at seed 9, both fixed before the
    run, must lie within 4 binomial standard errors of it.
    """
    methods = ("pointwise", "bonferroni")
    exact = exact_deterministic_coverage(
        {"pointwise": mp.pointwise_interval, "bonferroni": mp.bonferroni_interval}
    )
    assert round(exact["pointwise"], 5) == 0.77746
    assert round(exact["bonferroni"], 5) == 0.84155
    n_iter = 8000
    report = run_simulation(Scenario(**ORACLE, n_iter=n_iter, methods=methods, seed=9))
    assert report.n_failed == 0
    for method in methods:
        p = exact[method]
        bar = 4.0 * math.sqrt(p * (1.0 - p) / n_iter)
        assert abs(report.outcomes[method].coverage - p) < bar, (method, p)


class TestParallelIterations:
    """The iterations run in chunks on forked worker processes; the report never depends on it.

    The cell has failing iterations (repair disabled) and bootstrap methods
    whose ensembles take three blocks of 500 replicates, so the nested
    block calls run inline in each worker process.
    """

    @staticmethod
    def scenario():
        return cheap_scenario(
            pi_true=(0.08, 0.92), K=5, n=10, phi=1.5, n_iter=40, B=1100, repair=False,
            seed=1, methods=("pointwise", "mvn", "symmetric", "marginal", "rank-scs"),
        )

    @staticmethod
    def report_bytes(report):
        return rows_to_csv(simulation_rows([report]), SIMULATION_COLUMNS).encode()

    def test_same_bytes_for_any_worker_count(self, monkeypatch):
        before = threading.active_count()
        reports = []
        for workers in (1, 2, 3):
            monkeypatch.setattr("mnpred.pool._WORKERS", workers)
            reports.append(run_simulation(self.scenario()))
        assert threading.active_count() == before
        assert len({self.report_bytes(r) for r in reports}) == 1
        for r in reports:  # 2 of 40 iterations draw an empty category, under the 5% cap
            assert (r.n_completed, r.n_failed, r.failures) == (38, 2, {"ZeroCategory": 2})

    def test_failure_cap_same_error_for_any_worker_count(self, monkeypatch, tmp_path):
        """The cap trips with the serial loop's message, and no iteration starts once it must.

        The cell's first iteration fails, and one failure trips the cap: one
        iteration starts on one worker, and at most one per process on two
        (the caller forks only once the first iteration has been merged),
        counted in a file that worker processes would append to.
        """
        log = tmp_path / "started"
        record = appender(log)
        messages, started = [], []

        def counted(*args, **kwargs):
            record(str(os.getpid()))
            return generate_dataset(*args, **kwargs)

        monkeypatch.setattr("mnpred.simulation.generate_dataset", counted)
        for workers in (1, 2):
            monkeypatch.setattr("mnpred.pool._WORKERS", workers)
            log.write_text("")
            with pytest.raises(FailureCapError) as caught:
                run_simulation(failing_scenario())
            messages.append(str(caught.value))
            started.append(len(log.read_text().splitlines()))
        assert messages[0] == messages[1] == "1 of 10 iterations failed (cap 5%) in scenario custom"
        assert started[0] == 1 and started[1] <= 2
        assert_no_child_left()

    def test_each_process_draws_on_one_thread(self, monkeypatch, tmp_path):
        """At most _WORKERS processes draw, each on its one thread, and none outlives the call.

        Three workers, and a draw wrapper that appends which process draws
        and how many threads it has alive to a file, so the records of the
        worker processes survive them.
        """
        workers = 3
        monkeypatch.setattr("mnpred.pool._WORKERS", 1)
        want = self.report_bytes(run_simulation(self.scenario()))
        log = tmp_path / "draws"
        record = appender(log)

        def counted(*args, **kwargs):
            record(f"{os.getpid()} {threading.active_count()}")
            return sample_dm_matrix(*args, **kwargs)

        monkeypatch.setattr("mnpred.pool._WORKERS", workers)
        monkeypatch.setattr("mnpred.bootstrap.sample_dm_matrix", counted)
        got = self.report_bytes(run_simulation(self.scenario()))
        draws = [line.split() for line in log.read_text().splitlines()]
        assert len(draws) == 3 * 38  # three blocks per completed iteration
        assert {alive for _, alive in draws} == {"1"}
        assert 1 < len({pid for pid, _ in draws}) <= workers
        assert_no_child_left()
        assert got == want

    @staticmethod
    def warnings_seen(monkeypatch, action):
        """The (category, message) sequence of each worker count's run, under one filter action.

        B=20 puts the rank-scs critical rank at the ensemble edge in most iterations.
        """
        s = cheap_scenario(methods=("rank-scs", "marginal"), B=20, n_iter=12)
        seen = []
        for workers in (1, 2, 3):
            monkeypatch.setattr("mnpred.pool._WORKERS", workers)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter(action)
                run_simulation(s)
            seen.append([(w.category, str(w.message)) for w in caught])
        return seen

    def test_same_warnings_for_any_worker_count(self, monkeypatch):
        """The worker processes' warnings reach the caller in iteration order."""
        seen = self.warnings_seen(monkeypatch, "always")
        assert seen[0] == seen[1] == seen[2]
        assert len(seen[0]) > 1

    def test_warning_filters_apply_across_processes(self, monkeypatch):
        """Under the "default" action a warning shows once, however many processes issued it."""
        seen = self.warnings_seen(monkeypatch, "default")
        assert seen[0] == seen[1] == seen[2]
        assert len(seen[0]) == 1


class TestWorkerProcesses:
    """What a worker process raises reaches the caller, and no worker outlives the call."""

    @staticmethod
    def run(monkeypatch, draw, workers=3):
        monkeypatch.setattr("mnpred.pool._WORKERS", workers)
        monkeypatch.setattr("mnpred.simulation.generate_dataset", draw)
        return run_simulation(cheap_scenario(n_iter=9))

    def test_child_error_reraises_with_its_class_and_message(self, monkeypatch):
        caller = os.getpid()

        def draw(*args, **kwargs):
            if os.getpid() != caller:
                raise RuntimeError("raised in a worker process")
            return generate_dataset(*args, **kwargs)

        with pytest.raises(RuntimeError) as caught:
            self.run(monkeypatch, draw)
        assert type(caught.value) is RuntimeError
        assert str(caught.value) == "raised in a worker process"
        if sys.version_info >= (3, 11):  # the child's traceback travels as a note
            assert "in draw" in caught.value.__notes__[0]
        assert_no_child_left()

    def test_child_that_dies_names_its_exit_status(self, monkeypatch):
        caller = os.getpid()

        def draw(*args, **kwargs):
            if os.getpid() != caller:
                os._exit(3)
            return generate_dataset(*args, **kwargs)

        with pytest.raises(RuntimeError, match=r"worker process \d+ exited with status 3 "):
            self.run(monkeypatch, draw)
        assert_no_child_left()

    def test_callers_error_kills_the_children(self, monkeypatch):
        """The caller's own chunk raises, after the fork, while the children would draw for a minute."""
        caller, calls = os.getpid(), []

        def draw(*args, **kwargs):
            if os.getpid() != caller:
                time.sleep(60)
            calls.append(1)
            if len(calls) > 1:  # the caller's second iteration: its children run
                raise RuntimeError("raised in the caller")
            return generate_dataset(*args, **kwargs)

        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match="raised in the caller"):
            self.run(monkeypatch, draw)
        assert time.perf_counter() - t0 < 30
        assert_no_child_left()

    @pytest.mark.parametrize("case", ["other-thread", "not-linux", "no-fork"])
    def test_no_fork_where_it_is_unsafe(self, monkeypatch, forks, case):
        """The iterations run in process, with the same bytes, wherever a fork is unsafe."""
        s = cheap_scenario(n_iter=9)
        report_bytes = TestParallelIterations.report_bytes
        monkeypatch.setattr("mnpred.pool._WORKERS", 1)
        want = report_bytes(run_simulation(s))
        monkeypatch.setattr("mnpred.pool._WORKERS", 2)
        assert report_bytes(run_simulation(s)) == want
        assert len(forks) == 1  # the wrapper sees a safe fork
        forks.clear()
        got = []
        if case == "other-thread":
            runner = threading.Thread(target=lambda: got.append(report_bytes(run_simulation(s))))
            runner.start()
            runner.join()
        else:
            if case == "not-linux":
                monkeypatch.setattr(sys, "platform", "darwin")
            elif case == "no-fork":
                monkeypatch.delattr(os, "fork")
            got.append(report_bytes(run_simulation(s)))
        assert got == [want]
        assert forks == []
        assert_no_child_left()


class TestTailBalance:
    def test_rows_and_reference(self, report):
        rows = tail_balance(report)
        assert len(rows) == 2 * 3
        assert [r.category for r in rows if r.method == "pointwise"] == [1, 2, 3]
        for row in rows:
            assert row.reference == pytest.approx(1.0 - 0.05 / 6.0)
            out = report.outcomes[row.method]
            c = row.category - 1
            assert row.p_at_or_above_lower == pytest.approx(1.0 - out.p_below[c])
            assert row.p_at_or_below_upper == pytest.approx(1.0 - out.p_above[c])

    def test_identity_with_forced_tail_counts(self):
        # a scenario extreme enough that tails actually fire, so the
        # bound-retention identity is checked against nonzero exceedances
        s = cheap_scenario(pi_true=(0.1, 0.9), n=10, phi=1.5, n_iter=30, B=100)
        rep = run_simulation(s)
        rows = tail_balance(rep)
        total_exceed = sum(
            out.below_lower.sum() + out.above_upper.sum()
            for out in rep.outcomes.values()
        )
        assert total_exceed > 0
        for row in rows:
            out = rep.outcomes[row.method]
            c = row.category - 1
            assert row.p_at_or_above_lower == pytest.approx(1.0 - out.p_below[c])
            assert row.p_at_or_below_upper == pytest.approx(1.0 - out.p_above[c])


class TestCatalog:
    def test_vector_tables(self):
        vecs = catalog_vectors()
        assert len(vecs) == 32
        assert len(C3_VECTORS) == 12 and len(C5_VECTORS) == 10 and len(C10_VECTORS) == 10
        for vid, v in vecs.items():
            assert v.sum() == pytest.approx(1.0, abs=1e-12)
            assert not v.flags.writeable
            assert vid.startswith(("C3-", "C5-", "C10-"))
        np.testing.assert_allclose(vecs["C3-05"], [0.25, 0.25, 0.50])
        np.testing.assert_allclose(vecs["C5-07"], [0.80, 0.10, 0.05, 0.04, 0.01])

    def test_full_cross(self):
        cells = scenario_catalog()
        assert len(cells) == 32 * 4 * 4 * 3
        ids = [s.scenario_id for s in cells]
        assert len(set(ids)) == len(ids)
        assert "C3-01-K5-n10-phi1.01" in ids
        seeds = [s.seed for s in cells]
        assert len(set(seeds)) == len(seeds)
        assert all(s.methods == FREQUENTIST_METHODS for s in cells)
        assert all(s.n_iter == 500 and s.B == 2000 and s.S == 4000 for s in cells)

    def test_every_cell_can_be_generated(self):
        """No cell has phi >= n, so the catalog needs no feasibility filter."""
        assert max(DISPERSION_GRID) < min(SIZE_GRID)
        cells = scenario_catalog()
        assert len(cells) == 1536
        assert all(s.phi < s.n for s in cells)


def reference_scenarios(cfg):
    """The scenario logic of `mnpred simulate` before build_scenarios: a
    custom branch, and a catalog branch that crossed the grids and then
    replace()d the remaining settings into every cell."""
    if cfg.pi is not None:
        for name in ("K", "n", "phi"):
            if getattr(cfg, name) is None:
                raise ValidationError(f"custom scenario config needs {name}")
        return [
            Scenario(
                pi_true=np.asarray(cfg.pi, dtype=float), K=cfg.K, n=cfg.n, phi=cfg.phi,
                m=cfg.m, n_iter=cfg.n_iter, methods=cfg.methods, B=cfg.B, S=cfg.S,
                alpha=cfg.alpha, seed=cfg.seed, repair=cfg.repair, chains=cfg.chains,
                warmup=cfg.warmup, mvn_draws=cfg.mvn_draws, priors=cfg.priors,
            )
        ]
    cells = []
    for vec_id, pi in catalog_vectors().items():
        for K in CLUSTER_GRID:
            for n in SIZE_GRID:
                for phi in DISPERSION_GRID:
                    if phi >= n:
                        continue
                    cells.append(
                        Scenario(
                            pi_true=pi, K=K, n=n, phi=phi, n_iter=cfg.n_iter,
                            methods=cfg.methods, B=cfg.B, S=cfg.S, seed=cfg.seed + len(cells),
                            scenario_id=f"{vec_id}-K{K}-n{n}-phi{phi:g}",
                        )
                    )
    cells = [
        replace(
            s, alpha=cfg.alpha, repair=cfg.repair, chains=cfg.chains,
            warmup=cfg.warmup, mvn_draws=cfg.mvn_draws, priors=cfg.priors,
        )
        for s in cells
    ]
    if cfg.scenarios:
        cells = [s for s in cells if any(s.scenario_id.startswith(p) for p in cfg.scenarios)]
    if not cells:
        raise ValidationError(f"no scenarios match filters {cfg.scenarios}")
    return cells


def assert_same_scenarios(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for f in fields(Scenario):
            if f.name == "pi_true":
                if a.scenario_id.startswith("C5-03-"):
                    # the reference's replace() normalised pi once more, and
                    # this one vector is not a fixed point of x / x.sum()
                    assert np.array_equal(a.pi_true / a.pi_true.sum(), b.pi_true)
                else:
                    assert np.array_equal(a.pi_true, b.pi_true), a.scenario_id
            else:
                assert getattr(a, f.name) == getattr(b, f.name), (a.scenario_id, f.name)


NON_DEFAULT = dict(
    alpha=0.1, repair=False, chains=2, warmup=50, mvn_draws=5000,
    priors=("cauchy", "beta"), n_iter=7, B=300, S=900,
    methods=("pointwise", "mvn", "bayes-scs"), seed=5,
)


class TestBuildScenarios:
    @pytest.mark.parametrize(
        "cfg",
        [
            RunConfig(scenarios=("C3-01-K5", "C10-0"), **NON_DEFAULT),
            RunConfig(**NON_DEFAULT),
            RunConfig(pi=(0.2, 0.3, 0.5), K=6, n=30, m=45, phi=3.0, **NON_DEFAULT),
            RunConfig(pi=(0.2, 0.8), K=6, n=30, phi=3.0, **NON_DEFAULT),
        ],
        ids=["catalog-filter", "whole-catalog", "custom-m-ne-n", "custom-m-default"],
    )
    def test_matches_two_branch_reference(self, cfg):
        assert_same_scenarios(build_scenarios(cfg), reference_scenarios(cfg))

    def test_c5_03_is_the_only_renormalised_vector(self):
        # pins the premise of the ulp allowance in assert_same_scenarios
        moved = [
            vid for vid, v in catalog_vectors().items()
            if not np.array_equal(v / v.sum(), (v / v.sum()) / (v / v.sum()).sum())
        ]
        assert moved == ["C5-03"]

    @pytest.mark.parametrize(
        "prefixes", [("C5-05-K10-n50-phi5",), ("C10-", "C3-02"), ("C3-12-K100",)]
    )
    def test_filter_keeps_whole_catalog_seeds(self, prefixes):
        """Only the selected cells are built, each with its seed in the whole catalog."""
        got = build_scenarios(RunConfig(scenarios=prefixes, **NON_DEFAULT))
        want = [s for s in scenario_catalog(**NON_DEFAULT) if s.scenario_id.startswith(prefixes)]
        built = scenario_catalog(prefixes=prefixes, **NON_DEFAULT)
        assert len(got) == len(want) == len(built) > 0
        for a, b, c in zip(got, want, built):
            for f in fields(Scenario):
                if f.name == "pi_true":
                    assert a.pi_true.tobytes() == b.pi_true.tobytes() == c.pi_true.tobytes()
                else:
                    assert getattr(a, f.name) == getattr(b, f.name) == getattr(c, f.name), (
                        a.scenario_id, f.name,
                    )

    def test_defaults_keep_catalog_cells(self):
        cells = build_scenarios(RunConfig(scenarios=("C3-01-K5-n10-phi1.01",)))
        assert [s.scenario_id for s in cells] == ["C3-01-K5-n10-phi1.01"]
        assert cells[0].sampling_iters == 1000
        assert cells[0].seed == 0
