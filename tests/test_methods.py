import numpy as np
import pytest

import mnpred as mp
import mnpred.methods
from mnpred.errors import ValidationError
from mnpred.methods import (
    BAYES_CONSTRUCTIONS,
    FREQUENTIST_METHODS,
    MethodRequest,
    compute_intervals,
    resolve_methods,
)

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


def test_dispatch_goes_through_the_module_globals(monkeypatch, histo_data):
    """perfbench times each builder by swapping its mnpred.methods global."""
    fit = mp.fit_model(histo_data)
    spec = mp.FutureSpec(m=46)
    requests = resolve_methods(["all"], ("cauchy", "beta"))
    expected = compute_intervals(histo_data, fit, spec, requests, mp.RngStream(21), **SMALL)

    calls = {name: [] for name in (*RESOURCES, *FREQUENTIST_BUILDERS, *BAYES_BUILDERS)}

    def recorder(name, fn):
        def call(*args, **kwargs):
            calls[name].append((args, kwargs))
            return fn(*args, **kwargs)

        return call

    for name in calls:
        monkeypatch.setattr(mnpred.methods, name, recorder(name, getattr(mnpred.methods, name)))
    got = compute_intervals(histo_data, fit, spec, requests, mp.RngStream(21), **SMALL)

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
