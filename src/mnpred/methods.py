"""Method registry and one-call orchestration of all interval constructions.

Computing several methods for one dataset shares the expensive pieces:
all five bootstrap-based methods read a single replicate ensemble, and
the three Bayesian constructions per prior read a single MCMC run.
Random substreams are assigned by fixed child indices, so adding or
removing methods never changes the result of the ones that remain.
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
from .rng import RngStream, require_stream

__all__ = [
    "FREQUENTIST_METHODS",
    "BAYES_CONSTRUCTIONS",
    "PRIORS",
    "MethodRequest",
    "resolve_methods",
    "compute_intervals",
]

FREQUENTIST_METHODS = (
    "pointwise",
    "bonferroni",
    "mvn",
    "symmetric",
    "asymmetric",
    "marginal",
    "masr",
    "rank-scs",
)
_BOOTSTRAP_METHODS = ("symmetric", "asymmetric", "marginal", "masr", "rank-scs")
BAYES_CONSTRUCTIONS = ("bayes-bonf", "bayes-mean", "bayes-scs")
PRIORS = ("cauchy", "beta")

# Fixed substream indices per shared resource (see module docstring).
_STREAM_ENSEMBLE = 0
_STREAM_MVN = 1
_STREAM_MCMC = {"cauchy": 2, "beta": 4}
_STREAM_PREDICTIVE = {"cauchy": 3, "beta": 5}


@dataclass(frozen=True)
class MethodRequest:
    """One requested interval computation: output id, construction, optional prior."""

    output_id: str
    construction: str
    prior: str | None = None


def _parse_token(token: str, priors: tuple[str, ...]) -> list[MethodRequest]:
    t = token.strip().lower()
    if t == "all":
        out = [MethodRequest(mid, mid) for mid in FREQUENTIST_METHODS]
        for mid in BAYES_CONSTRUCTIONS:
            out.extend(MethodRequest(f"{mid}-{p}", mid, p) for p in priors)
        return out
    if t in FREQUENTIST_METHODS:
        return [MethodRequest(t, t)]
    if t in BAYES_CONSTRUCTIONS:
        return [MethodRequest(f"{t}-{p}", t, p) for p in priors]
    for mid in BAYES_CONSTRUCTIONS:
        for p in PRIORS:
            if t == f"{mid}-{p}":
                return [MethodRequest(t, mid, p)]
    valid = (
        ("all",)
        + FREQUENTIST_METHODS
        + BAYES_CONSTRUCTIONS
        + tuple(f"{m}-{p}" for m in BAYES_CONSTRUCTIONS for p in PRIORS)
    )
    raise ValidationError(
        f"unknown method {token!r}; valid ids: {', '.join(valid)}"
    )


def resolve_methods(
    tokens: Iterable[str],
    priors: Iterable[str] = ("cauchy",),
) -> tuple[MethodRequest, ...]:
    """Expand user method tokens into unique, ordered computation requests.

    Bare Bayesian ids expand once per entry in ``priors``; an explicit
    suffix (e.g. ``bayes-scs-beta``) pins the prior regardless.
    """
    priors = tuple(priors)
    for p in priors:
        if p not in PRIORS:
            raise ValidationError(f"unknown prior {p!r}; valid: {', '.join(PRIORS)}")
    out: list[MethodRequest] = []
    seen: set[str] = set()
    for token in tokens:
        for req in _parse_token(token, priors):
            if req.output_id not in seen:
                seen.add(req.output_id)
                out.append(req)
    if not out:
        raise ValidationError("empty method list")
    return tuple(out)


def _prior_object(name: str) -> PriorChoice:
    return PriorChoice.half_cauchy() if name == "cauchy" else PriorChoice.beta_icc()


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
    clip: bool = True,
) -> dict[str, PredictionIntervalSet]:
    """Compute every requested interval set, sharing ensembles and posteriors."""
    require_stream(rng, "compute_intervals")
    ensemble = None
    if any(r.construction in _BOOTSTRAP_METHODS for r in requests):
        ensemble = build_ensemble(fit, data, spec, B, rng.child(_STREAM_ENSEMBLE))
    predictive = {}
    for prior_name in PRIORS:
        if any(r.prior == prior_name for r in requests):
            draws = mcmc_sample(
                data,
                _prior_object(prior_name),
                rng.child(_STREAM_MCMC[prior_name]),
                chains=chains,
                sampling_iters=sampling_iters,
                warmup=warmup,
            )
            predictive[prior_name] = posterior_predictive(
                draws, spec.m, rng.child(_STREAM_PREDICTIVE[prior_name])
            )

    out: dict[str, PredictionIntervalSet] = {}
    for req in requests:
        kind = req.construction
        if kind == "pointwise":
            result = pointwise_interval(fit, spec, clip=clip)
        elif kind == "bonferroni":
            result = bonferroni_interval(fit, spec, clip=clip)
        elif kind == "mvn":
            result = mvn_interval(
                fit, spec, rng.child(_STREAM_MVN), n_draws=mvn_draws, clip=clip
            )
        elif kind == "symmetric":
            result = symmetric_calibration(ensemble, fit, spec, clip=clip)
        elif kind == "asymmetric":
            result = asymmetric_calibration(ensemble, fit, spec, clip=clip)
        elif kind == "marginal":
            result = marginal_calibration(ensemble, fit, spec, clip=clip)
        elif kind == "masr":
            result = masr_interval(ensemble, fit, spec, clip=clip)
        elif kind == "rank-scs":
            result = rank_scs_interval(ensemble, fit, spec, clip=clip)
        elif kind == "bayes-bonf":
            result = bayes_bonferroni_interval(
                predictive[req.prior], spec.alpha, label=req.output_id, clip=clip
            )
        elif kind == "bayes-mean":
            result = bayes_mean_centered_interval(
                predictive[req.prior], spec.alpha, label=req.output_id, clip=clip
            )
        elif kind == "bayes-scs":
            result = bayes_rank_scs_interval(
                predictive[req.prior], spec.alpha, label=req.output_id, clip=clip
            )
        else:  # pragma: no cover - resolve_methods screens ids
            raise ValidationError(f"unhandled construction {kind!r}")
        out[req.output_id] = result
    return out
