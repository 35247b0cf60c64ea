import os
import pickle
import sys
import threading
import warnings

import numpy as np
import pytest

import mnpred as mp
import mnpred.bayes
import mnpred.bootstrap
import mnpred.methods
from mnpred.bayes import PriorChoice
from mnpred.cli import main
from mnpred.dm import InversionTable
from mnpred.errors import ConvergenceWarning, InitializationError, ValidationError
from mnpred.methods import (
    BAYES_CONSTRUCTIONS,
    FREQUENTIST_METHODS,
    MethodRequest,
    compute_intervals,
    resolve_methods,
)

from conftest import appender, assert_no_child_left

BAYES_IDS = tuple(f"{mid}-{p}" for mid in BAYES_CONSTRUCTIONS for p in ("cauchy", "beta"))


def ids(requests):
    return [r.output_id for r in requests]


class TestResolveMethods:
    def test_all_with_both_priors_gives_fourteen_ids_in_order(self):
        requests = resolve_methods(["all"], ("cauchy", "beta"))
        assert ids(requests) == [*FREQUENTIST_METHODS, *BAYES_IDS]
        assert len(requests) == 14
        assert requests[0] == MethodRequest("pointwise", "pointwise")
        assert requests[-1] == MethodRequest("bayes-scs-beta", "bayes-scs", "beta")

    def test_bare_bayesian_id_expands_once_per_prior(self):
        assert resolve_methods(["bayes-scs"], ("beta", "cauchy")) == (
            MethodRequest("bayes-scs-beta", "bayes-scs", "beta"),
            MethodRequest("bayes-scs-cauchy", "bayes-scs", "cauchy"),
        )
        assert ids(resolve_methods(["bayes-mean"])) == ["bayes-mean-cauchy"]

    @pytest.mark.parametrize("priors", [("cauchy",), ("cauchy", "beta"), ()])
    def test_suffix_pins_the_prior(self, priors):
        assert resolve_methods(["bayes-mean-beta"], priors) == (
            MethodRequest("bayes-mean-beta", "bayes-mean", "beta"),
        )

    def test_duplicates_keep_their_first_occurrence(self):
        requests = resolve_methods(["masr", "bayes-bonf-cauchy", "pointwise", "masr", "all"])
        rest = [m for m in FREQUENTIST_METHODS if m not in ("masr", "pointwise")]
        assert ids(requests) == [
            "masr", "bayes-bonf-cauchy", "pointwise", *rest, "bayes-mean-cauchy", "bayes-scs-cauchy"
        ]

    def test_tokens_ignore_case_and_whitespace(self):
        assert ids(resolve_methods([" Pointwise ", "RANK-SCS", "\tBayes-Scs-Beta\n"])) == [
            "pointwise", "rank-scs", "bayes-scs-beta"
        ]

    def test_unknown_method_lists_the_valid_ids_in_order(self):
        with pytest.raises(ValidationError) as info:
            resolve_methods(["pointwise", "wald"])
        assert str(info.value) == (
            "unknown method 'wald'; valid ids: all, pointwise, bonferroni, mvn, symmetric, "
            "asymmetric, marginal, masr, rank-scs, bayes-bonf, bayes-mean, bayes-scs, "
            "bayes-bonf-cauchy, bayes-bonf-beta, bayes-mean-cauchy, bayes-mean-beta, "
            "bayes-scs-cauchy, bayes-scs-beta"
        )

    def test_unknown_prior_is_rejected(self):
        with pytest.raises(ValidationError, match="unknown prior 'normal'; valid: cauchy, beta"):
            resolve_methods(["pointwise"], ("cauchy", "normal"))

    def test_empty_method_list_is_rejected(self):
        with pytest.raises(ValidationError, match="empty method list"):
            resolve_methods([])

    def test_bare_bayesian_id_without_priors_is_rejected(self):
        for tokens in (["pointwise", "bayes-scs"], ["bayes-scs"]):
            with pytest.raises(ValidationError, match="'bayes-scs' needs a prior") as info:
                resolve_methods(tokens, ())
            assert "cauchy, beta" in str(info.value)
        # all without priors is the frequentist methods alone
        assert ids(resolve_methods(["all"], ())) == list(FREQUENTIST_METHODS)


# The builders and shared resources perfbench's tracer swaps in mnpred.methods.
RESOURCES = ("build_ensemble", "mcmc_sample", "posterior_predictive")
FREQUENTIST_BUILDERS = (
    "pointwise_interval",
    "bonferroni_interval",
    "mvn_interval",
    "symmetric_calibration",
    "asymmetric_calibration",
    "marginal_calibration",
    "masr_interval",
    "rank_scs_interval",
)
BAYES_BUILDERS = {
    "bayes_bonferroni_interval": "bayes-bonf",
    "bayes_mean_centered_interval": "bayes-mean",
    "bayes_rank_scs_interval": "bayes-scs",
}
SMALL = dict(B=200, mvn_draws=2000, chains=2, sampling_iters=500)


def summary(value):
    """A call argument small enough to send through a file: streams, priors and scalars as is."""
    if isinstance(value, (mp.RngStream, PriorChoice, str, int, float)):
        return value
    return type(value).__name__


def test_dispatch_goes_through_the_module_globals(monkeypatch, tmp_path, histo_data):
    """perfbench times each builder by swapping its mnpred.methods global.

    The priors' families run in a forked worker process, so each call is
    appended to a file, which the worker's records survive.  Two workers
    make the split the same on any host: the caller works the asymptotic
    and bootstrap families, one child both priors in order.
    """
    fit = mp.fit_model(histo_data)
    spec = mp.FutureSpec(m=46)
    requests = resolve_methods(["all"], ("cauchy", "beta"))
    expected = compute_intervals(histo_data, fit, spec, requests, mp.RngStream(21), **SMALL)

    names = (*RESOURCES, *FREQUENTIST_BUILDERS, *BAYES_BUILDERS)
    log = tmp_path / "calls"
    record = appender(log)

    def recorder(name, fn):
        def call(*args, **kwargs):
            kept = ([summary(a) for a in args], {k: summary(v) for k, v in kwargs.items()})
            record(pickle.dumps((name, os.getpid(), kept)).hex())
            return fn(*args, **kwargs)

        return call

    for name in names:
        monkeypatch.setattr(mnpred.methods, name, recorder(name, getattr(mnpred.methods, name)))
    monkeypatch.setattr("mnpred.pool._WORKERS", 2)
    got = compute_intervals(histo_data, fit, spec, requests, mp.RngStream(21), **SMALL)
    assert_no_child_left()

    calls = {name: [] for name in names}
    pids = {name: set() for name in names}
    for line in log.read_text().splitlines():
        name, pid, kept = pickle.loads(bytes.fromhex(line))
        calls[name].append(kept)
        pids[name].add(pid)
    assert {pid for name in FREQUENTIST_BUILDERS for pid in pids[name]} == {os.getpid()}
    assert os.getpid() not in {pid for name in BAYES_BUILDERS for pid in pids[name]}

    for name in FREQUENTIST_BUILDERS:
        assert len(calls[name]) == 1, name
    for name, construction in BAYES_BUILDERS.items():
        assert [kw["label"] for _, kw in calls[name]] == [
            f"{construction}-cauchy",
            f"{construction}-beta",
        ]
    ((ensemble_args, _),) = calls["build_ensemble"]
    assert ensemble_args[4] == mp.RngStream(21, (0,))
    assert calls["mvn_interval"][0][0][2] == mp.RngStream(21, (1,))
    assert [(args[1].kind, args[2]) for args, _ in calls["mcmc_sample"]] == [
        ("cauchy", mp.RngStream(21, (2,))),
        ("beta", mp.RngStream(21, (4,))),
    ]
    assert [args[2] for args, _ in calls["posterior_predictive"]] == [
        mp.RngStream(21, (3,)),
        mp.RngStream(21, (5,)),
    ]

    assert list(got) == list(expected) == ids(requests)
    for mid, ivs in got.items():
        np.testing.assert_array_equal(ivs.lower, expected[mid].lower)
        np.testing.assert_array_equal(ivs.upper, expected[mid].upper)


# The severity fixture of criterion 10 (K=10 clusters of 46, phi 3.19).
GENERATE = [
    "generate", "--K", "10", "--n", "46", "--phi", "3.19",
    "--pi", "0.224,0.466,0.273,0.031,0.004", "--seed", "0",
]
PREDICT = [
    "--m", "46", "--prior", "cauchy,beta",
    "--B", "500", "--mvn-draws", "5000", "--chains", "2", "--sampling", "500", "--seed", "0",
]


@pytest.fixture(scope="module")
def counts_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("families") / "counts.csv"
    assert main([*GENERATE, "--out", str(path)]) == 0
    return str(path)


def predict_bytes(counts_csv, tmp_path, methods="all") -> bytes:
    out = tmp_path / "intervals.csv"
    argv = ["predict", "--data", counts_csv, "--methods", methods, *PREDICT]
    assert main([*argv, "--out", str(out)]) == 0
    return out.read_bytes()


class TestFamilyTasks:
    """Given two or more heavy families the priors run in forked workers; the bytes never move."""

    def test_same_bytes_for_any_worker_count(self, monkeypatch, tmp_path, counts_csv, forks):
        got = []
        for workers in (1, 2, 3):
            monkeypatch.setattr("mnpred.pool._WORKERS", workers)
            got.append(predict_bytes(counts_csv, tmp_path))
            assert_no_child_left()
        assert got[0] == got[1] == got[2]
        # Four tasks: none forked on one worker, one child on two, two on three.
        assert len(forks) == 3

    @pytest.mark.parametrize("case", ["other-thread", "not-linux", "no-fork"])
    def test_no_fork_where_it_is_unsafe(self, monkeypatch, tmp_path, counts_csv, forks, case):
        monkeypatch.setattr("mnpred.pool._WORKERS", 1)
        want = predict_bytes(counts_csv, tmp_path)
        monkeypatch.setattr("mnpred.pool._WORKERS", 2)
        got = []
        if case == "other-thread":
            runner = threading.Thread(
                target=lambda: got.append(predict_bytes(counts_csv, tmp_path))
            )
            runner.start()
            runner.join()
        else:
            if case == "not-linux":
                monkeypatch.setattr(sys, "platform", "darwin")
            elif case == "no-fork":
                monkeypatch.delattr(os, "fork")
            got.append(predict_bytes(counts_csv, tmp_path))
        assert got == [want]
        assert forks == []
        assert_no_child_left()

    def test_frequentist_only_forks_for_its_ensemble(
        self, monkeypatch, tmp_path, counts_csv, forks, histo_data
    ):
        """One heavy family stays one task on the caller, so the ensemble's blocks fork instead.

        The gamma route is forced as in TestParallelBlocks, so B=500 takes
        three blocks, whose draws are logged with the drawing pid to a file
        that worker processes would append to.  With the priors added the
        ensemble runs inline, and the one fork is the priors' worker.
        """
        C = histo_data.counts.shape[1]
        monkeypatch.setattr("mnpred.bootstrap._TABLE_CELLS", 0)
        monkeypatch.setattr("mnpred.bootstrap._BLOCK_CELLS", InversionTable.cells(46, C) - 1)
        monkeypatch.setattr("mnpred.pool._WORKERS", 2)
        log = tmp_path / "draws"
        record = appender(log)
        sample = mnpred.bootstrap.sample_dm_matrix

        def counted(*args, **kwargs):
            record(str(os.getpid()))
            return sample(*args, **kwargs)

        monkeypatch.setattr(mnpred.bootstrap, "sample_dm_matrix", counted)
        for methods in (",".join(FREQUENTIST_METHODS), "all"):
            log.write_text("")
            forks.clear()
            predict_bytes(counts_csv, tmp_path, methods)
            assert len(forks) == 1
            assert_no_child_left()
            drawn_by = log.read_text().split()
            assert len(drawn_by) == 3
            assert len(set(drawn_by)) == (2 if methods != "all" else 1)
        assert set(drawn_by) == {str(os.getpid())}

    def test_same_warnings_for_any_worker_count(self, monkeypatch, histo_data, forks):
        """A prior's ConvergenceWarning reaches the caller, in task order, from a worker too.

        The off-centre proposal of test_poor_mixing_warns makes both priors warn.
        """
        laplace = mnpred.bayes._laplace

        def off_centre(logp, theta):
            mode, cov = laplace(logp, theta)
            return mode + 2.0 * np.sqrt(np.diag(cov)), cov / 25.0

        monkeypatch.setattr(mnpred.bayes, "_laplace", off_centre)
        fit = mp.fit_model(histo_data)
        requests = resolve_methods(["all"], ("cauchy", "beta"))
        seen = []
        for workers in (1, 2):
            monkeypatch.setattr("mnpred.pool._WORKERS", workers)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                compute_intervals(
                    histo_data, fit, mp.FutureSpec(m=46), requests, mp.RngStream(42), **SMALL
                )
            seen.append([(w.category, str(w.message)) for w in caught])
        assert seen[0] == seen[1]
        assert ConvergenceWarning in {category for category, _ in seen[0]}
        assert len(forks) == 1
        assert_no_child_left()

    def test_prior_error_reraises_with_its_class_and_message(self, monkeypatch, histo_data, forks):
        sample = mnpred.methods.mcmc_sample

        def failing(data, prior, *args, **kwargs):
            if prior.kind == "beta":
                raise InitializationError("no finite start for the beta prior")
            return sample(data, prior, *args, **kwargs)

        monkeypatch.setattr(mnpred.methods, "mcmc_sample", failing)
        fit = mp.fit_model(histo_data)
        requests = resolve_methods(["all"], ("cauchy", "beta"))
        for workers in (1, 2):
            monkeypatch.setattr("mnpred.pool._WORKERS", workers)
            with pytest.raises(InitializationError) as caught:
                compute_intervals(
                    histo_data, fit, mp.FutureSpec(m=46), requests, mp.RngStream(3), **SMALL
                )
            assert type(caught.value) is InitializationError
            assert str(caught.value) == "no finite start for the beta prior"
            assert_no_child_left()
        assert len(forks) == 1  # the second run raised in the worker
