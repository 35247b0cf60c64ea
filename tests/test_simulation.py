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
from mnpred.errors import FailureCapError, ValidationError
from mnpred.io import RunConfig
from mnpred.methods import FREQUENTIST_METHODS
from mnpred.simulation import Scenario, run_simulation, tail_balance


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
        s = cheap_scenario(pi_true=(2.0, 1.0, 1.0))
        np.testing.assert_allclose(s.pi_true, [0.5, 0.25, 0.25])
        with pytest.raises(ValueError):
            s.pi_true[0] = 0.9

    def test_sparse_flag(self):
        assert cheap_scenario(pi_true=(0.02, 0.98), n=10, phi=1.5).sparse
        assert not cheap_scenario(pi_true=(0.5, 0.5), n=10, phi=1.5).sparse
        assert cheap_scenario(pi_true=(0.02, 0.98), n=10, phi=1.5).min_expected_count == pytest.approx(0.2)

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
            dict(S=0),
            dict(chains=0),             # would divide by zero in sampling_iters
            dict(warmup=0),
            dict(mvn_draws=10),         # below what the mvn quantile accepts
            dict(chains=1, methods=("bayes-scs",)),  # split R-hat needs two chains
            dict(chains=1, methods=("pointwise", "bayes-mean-beta")),
            dict(chains=1, methods=("all",)),
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


@pytest.fixture(scope="module")
def report():
    return run_simulation(cheap_scenario())


class TestRunSimulation:
    def test_bookkeeping(self, report):
        assert report.n_completed + report.n_failed == 8
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
        s = cheap_scenario(
            pi_true=(0.02, 0.98), K=2, n=5, phi=1.5,
            n_iter=10, methods=("pointwise",), B=50, repair=False, seed=0,
        )
        with pytest.raises(FailureCapError):
            run_simulation(s)


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

    def test_infeasible_dispersion_dropped(self):
        cells = scenario_catalog(clusters=(5,), sizes=(10, 50), dispersions=(12.0,))
        assert all(s.n == 50 for s in cells)
        assert len(cells) == 32


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

    def test_defaults_keep_catalog_cells(self):
        cells = build_scenarios(RunConfig(scenarios=("C3-01-K5-n10-phi1.01",)))
        assert [s.scenario_id for s in cells] == ["C3-01-K5-n10-phi1.01"]
        assert cells[0].sampling_iters == 1000
        assert cells[0].seed == 0
