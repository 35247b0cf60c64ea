"""Method registry and one-call orchestration of all interval constructions.

Computing several methods for one dataset shares the expensive pieces:
all five bootstrap-based methods read a single replicate ensemble, and
the three Bayesian constructions per prior read a single posterior sample.
Random substreams are assigned by fixed child indices, so adding or
removing methods never changes the result of the ones that remain.

The methods fall into families: the asymptotic ones (pointwise,
bonferroni, mvn), the bootstrap ones with their ensemble, and one per
prior with its posterior and predictive.  A request with two or more of
the heavy families (bootstrap and priors) runs each family as one task
on the package's worker processes (``pool.run_in_order``): the caller
works the asymptotic and bootstrap tasks, the ensemble's blocks inline
on its one thread, while forked children work the priors.  A request
with fewer, or a call nested in a simulation's worker, runs as one task
on the caller, and a top-level one spreads its ensemble's blocks over
the worker processes instead.  Each family draws only from its own
substreams, so the bytes are the same either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .asymptotic import bonferroni_interval, mvn_interval, pointwise_interval
from .bayes import (
    PriorChoice,
    bayes_bonferroni_interval,
    bayes_mean_centered_interval,
    bayes_rank_scs_interval,
    mcmc_sample,
    posterior_predictive,
)
from .bootstrap import (
    asymmetric_calibration,
    build_ensemble,
    marginal_calibration,
    masr_interval,
    rank_scs_interval,
    symmetric_calibration,
)
from .errors import ValidationError
from .model import PREDICT_DEFAULTS, FutureSpec, HistoricalDataset, ModelFit, PredictionIntervalSet
from .pool import run_in_order
from .rng import RngStream, require_stream

__all__ = [
    "FREQUENTIST_METHODS",
    "BAYES_CONSTRUCTIONS",
    "PRIORS",
    "MethodRequest",
    "resolve_methods",
    "compute_intervals",
]

_ASYMPTOTIC_METHODS = ("pointwise", "bonferroni", "mvn")
_BOOTSTRAP_METHODS = ("symmetric", "asymmetric", "marginal", "masr", "rank-scs")
FREQUENTIST_METHODS = _ASYMPTOTIC_METHODS + _BOOTSTRAP_METHODS
BAYES_CONSTRUCTIONS = ("bayes-bonf", "bayes-mean", "bayes-scs")

# Fixed substream indices per shared resource (see module docstring): the
# ensemble, the mvn slot (mvn_interval checks its stream but draws nothing),
# then each prior's posterior and predictive.
_STREAM_ENSEMBLE = 0
_STREAM_MVN = 1
_PRIOR_TABLE = {
    "cauchy": (PriorChoice.half_cauchy(), 2, 3),
    "beta": (PriorChoice.beta_icc(), 4, 5),
}
PRIORS = tuple(_PRIOR_TABLE)


@dataclass(frozen=True)
class MethodRequest:
    """One requested interval computation: output id, construction, optional prior."""

    output_id: str
    construction: str
    prior: str | None = None


def resolve_methods(
    tokens: Iterable[str],
    priors: Iterable[str] = ("cauchy",),
) -> tuple[MethodRequest, ...]:
    """Expand user method tokens into unique, ordered computation requests.

    Bare Bayesian ids expand once per entry in ``priors``; an explicit
    suffix (e.g. ``bayes-scs-beta``) pins the prior regardless.  A bare
    Bayesian id with no prior to expand to is an error; ``all`` then
    expands to the frequentist methods only.
    """
    priors = tuple(priors)
    for p in priors:
        if p not in PRIORS:
            raise ValidationError(f"unknown prior {p!r}; valid: {', '.join(PRIORS)}")
    frequentist = {mid: [MethodRequest(mid, mid)] for mid in FREQUENTIST_METHODS}
    bare = {
        mid: [MethodRequest(f"{mid}-{p}", mid, p) for p in priors] for mid in BAYES_CONSTRUCTIONS
    }
    # Every valid token, in the order an unknown one lists them.
    table = {
        "all": [req for reqs in (*frequentist.values(), *bare.values()) for req in reqs],
        **frequentist,
        **bare,
        **{
            f"{mid}-{p}": [MethodRequest(f"{mid}-{p}", mid, p)]
            for mid in BAYES_CONSTRUCTIONS
            for p in PRIORS
        },
    }
    out: dict[str, MethodRequest] = {}
    for token in tokens:
        reqs = table.get(token.strip().lower())
        if reqs is None:
            raise ValidationError(f"unknown method {token!r}; valid ids: {', '.join(table)}")
        if not reqs:
            raise ValidationError(
                f"method {token.strip()!r} needs a prior; valid priors: {', '.join(PRIORS)}"
            )
        for req in reqs:
            out.setdefault(req.output_id, req)
    if not out:
        raise ValidationError("empty method list")
    return tuple(out.values())


def compute_intervals(
    data: HistoricalDataset,
    fit: ModelFit,
    spec: FutureSpec,
    requests: tuple[MethodRequest, ...],
    rng: RngStream,
    B: int = PREDICT_DEFAULTS.B,
    mvn_draws: int = PREDICT_DEFAULTS.mvn_draws,
    chains: int = PREDICT_DEFAULTS.chains,
    sampling_iters: int = PREDICT_DEFAULTS.sampling_iters,
    warmup: int = PREDICT_DEFAULTS.warmup,
) -> dict[str, PredictionIntervalSet]:
    """Compute every requested interval set, sharing ensembles and posteriors.

    The sets come back in request order.  The method families run as
    separate tasks when two or more heavy ones are requested (see the
    module docstring).
    """
    require_stream(rng, "compute_intervals")

    def family(requests: list[MethodRequest]) -> dict[str, PredictionIntervalSet]:
        ensemble = None
        if any(r.construction in _BOOTSTRAP_METHODS for r in requests):
            ensemble = build_ensemble(fit, data, spec, B, rng.child(_STREAM_ENSEMBLE))
        predictive = {}
        for name, (prior, mcmc_stream, predictive_stream) in _PRIOR_TABLE.items():
            if any(r.prior == name for r in requests):
                draws = mcmc_sample(
                    data,
                    prior,
                    rng.child(mcmc_stream),
                    chains=chains,
                    sampling_iters=sampling_iters,
                    warmup=warmup,
                )
                predictive[name] = posterior_predictive(
                    draws, spec.m, rng.child(predictive_stream)
                )

        # One builder per construction id.  Each names its builder inside the
        # lambda, so the module global is read at call time and a wrapper
        # swapped into it sees the call.
        builders = {
            "pointwise": lambda r: pointwise_interval(fit, spec),
            "bonferroni": lambda r: bonferroni_interval(fit, spec),
            "mvn": lambda r: mvn_interval(fit, spec, rng.child(_STREAM_MVN), n_draws=mvn_draws),
            "symmetric": lambda r: symmetric_calibration(ensemble, fit, spec),
            "asymmetric": lambda r: asymmetric_calibration(ensemble, fit, spec),
            "marginal": lambda r: marginal_calibration(ensemble, fit, spec),
            "masr": lambda r: masr_interval(ensemble, fit, spec),
            "rank-scs": lambda r: rank_scs_interval(ensemble, fit, spec),
            "bayes-bonf": lambda r: bayes_bonferroni_interval(
                predictive[r.prior], spec.alpha, label=r.output_id
            ),
            "bayes-mean": lambda r: bayes_mean_centered_interval(
                predictive[r.prior], spec.alpha, label=r.output_id
            ),
            "bayes-scs": lambda r: bayes_rank_scs_interval(
                predictive[r.prior], spec.alpha, label=r.output_id
            ),
        }
        return {r.output_id: builders[r.construction](r) for r in requests}

    heavy = [[r for r in requests if r.construction in _BOOTSTRAP_METHODS]]
    heavy += [[r for r in requests if r.prior == name] for name in _PRIOR_TABLE]
    heavy = [reqs for reqs in heavy if reqs]
    if len(heavy) < 2:
        tasks = [list(requests)]
    else:
        # Task 0, run on the caller before any fork, is the cheap asymptotic family.
        tasks = [[r for r in requests if r.construction in _ASYMPTOTIC_METHODS], *heavy]
    sets: dict[str, PredictionIntervalSet] = {}
    run_in_order(lambda j: family(tasks[j]), len(tasks), sets.update)
    return {r.output_id: sets[r.output_id] for r in requests}
