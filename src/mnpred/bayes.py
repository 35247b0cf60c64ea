"""Bayesian Dirichlet-multinomial model of the historical clusters.

Each cluster's probability vector is drawn from Dirichlet(eta0 * pi)
around a global pi; integrating the cluster-level vectors out leaves
the Dirichlet-multinomial likelihood, so the posterior lives on just
(pi, eta0).  Sampling runs in unconstrained coordinates (additive
log-ratio of pi plus log eta0) with an adaptive coordinate-wise
random-walk Metropolis sampler.  Prediction intervals come from the
posterior predictive counts of a future cluster: Bonferroni-adjusted
quantiles, a mean-centred max-deviation calibration, or the same
rank-based simultaneous construction used by the parametric bootstrap.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import betaln, gammaln

from .dm import sample_dirichlet
from .empirical import nearest_rank_quantile, rank_summary
from .errors import (
    ConvergenceWarning,
    DomainError,
    InitializationError,
    ValidationError,
)
from .model import (
    HistoricalDataset,
    PredictionIntervalSet,
    clamp_dispersion,
    pearson_dispersion,
)
from .rng import RngStream, as_generator

__all__ = [
    "PriorChoice",
    "PosteriorDraws",
    "PredictiveSamples",
    "dm_log_pmf",
    "log_posterior",
    "mcmc_sample",
    "posterior_predictive",
    "bayes_bonferroni_interval",
    "bayes_mean_centered_interval",
    "bayes_rank_scs_interval",
]

_RHAT_WARN = 1.05
_ADAPT_BATCH = 50
_ACCEPT_BAND = (0.20, 0.45)


@dataclass(frozen=True)
class PriorChoice:
    """Prior on the concentration eta0 (the global pi is always Dirichlet(1,...,1)).

    ``half_cauchy`` puts a heavy-tailed scale prior directly on eta0;
    ``beta_icc`` puts Beta(a, b) on the intra-cluster correlation
    rho = 1/(1 + eta0), which for (1, 10) favours mild overdispersion.
    """

    kind: str
    scale: float = 5.0
    beta_a: float = 1.0
    beta_b: float = 10.0

    def __post_init__(self) -> None:
        if self.kind not in ("cauchy", "beta"):
            raise ValidationError(f"unknown prior kind {self.kind!r}")
        if self.scale <= 0.0 or self.beta_a <= 0.0 or self.beta_b <= 0.0:
            raise ValidationError("prior parameters must be positive")

    @classmethod
    def half_cauchy(cls, scale: float = 5.0) -> "PriorChoice":
        return cls(kind="cauchy", scale=scale)

    @classmethod
    def beta_icc(cls, a: float = 1.0, b: float = 10.0) -> "PriorChoice":
        return cls(kind="beta", beta_a=a, beta_b=b)

    def log_density_eta0(self, eta0: "float | np.ndarray") -> "float | np.ndarray":
        """Log prior density evaluated in eta0 space (no Jacobian).

        Vectorised over ``eta0``; -inf wherever eta0 is not a positive
        finite number.
        """
        eta0 = np.asarray(eta0, dtype=float)
        ok = (eta0 > 0.0) & np.isfinite(eta0)
        x = np.where(ok, eta0, 1.0)
        if self.kind == "cauchy":
            out = (
                math.log(2.0 / math.pi)
                - math.log(self.scale)
                - np.log1p((x / self.scale) ** 2)
            )
        else:
            a, b = self.beta_a, self.beta_b
            # Beta density in rho = 1/(1+eta0) times |d rho / d eta0| = rho^2.
            out = (
                -float(betaln(a, b))
                - (a + 1.0) * np.log1p(x)
                + (b - 1.0) * (np.log(x) - np.log1p(x))
            )
        return np.where(ok, out, -np.inf)[()]


@dataclass(frozen=True)
class PosteriorDraws:
    """Pooled MCMC draws with convergence diagnostics."""

    pi_global: np.ndarray      # (S, C)
    eta0: np.ndarray           # (S,)
    rhat: np.ndarray           # split R-hat per pi component plus log eta0
    accept_rates: np.ndarray   # (chains, C) post-warmup acceptance per coordinate
    chains: int

    @property
    def n_draws(self) -> int:
        return self.eta0.shape[0]

    @property
    def rho(self) -> np.ndarray:
        """Implied intra-cluster correlation 1/(1+eta0) per draw."""
        return 1.0 / (1.0 + self.eta0)


@dataclass(frozen=True)
class PredictiveSamples:
    """Posterior predictive counts for one future cluster of m units."""

    y_pred: np.ndarray   # (S, C) integer counts
    m: int

    @property
    def y_hat(self) -> np.ndarray:
        return self.y_pred.mean(axis=0)

    @property
    def sd(self) -> np.ndarray:
        return self.y_pred.std(axis=0, ddof=1)


def dm_log_pmf(x, n: int, eta) -> float:
    """Log pmf of the Dirichlet-multinomial with concentration vector eta."""
    x = np.asarray(x)
    eta = np.asarray(eta, dtype=float)
    if np.any(eta <= 0.0):
        raise DomainError("concentration entries must be strictly positive")
    if x.shape != eta.shape:
        raise ValidationError("counts and concentrations must have equal length")
    if np.any(x < 0) or int(x.sum()) != int(n):
        raise ValidationError(f"counts must be non-negative and sum to n={n}")
    eta0 = float(eta.sum())
    return float(
        gammaln(n + 1.0)
        + gammaln(eta0)
        - gammaln(n + eta0)
        + np.sum(gammaln(x + eta) - gammaln(x + 1.0) - gammaln(eta))
    )


class _LogPosterior:
    """Unnormalised log posterior in unconstrained coordinates, batched over rows.

    theta = (additive log-ratios of pi against the last category,
    log eta0).  Includes the two change-of-variable Jacobians, so the
    sampler targets the correct density in theta space.  Count-dependent
    gamma terms are compressed to the distinct count values per column,
    which makes an evaluation cheap even for K = 100.
    """

    def __init__(self, data: HistoricalDataset, prior: PriorChoice) -> None:
        counts = data.counts
        self.K, self.C = counts.shape
        self.prior = prior
        sizes = data.cluster_sizes
        self.size_vals, self.size_mult = np.unique(sizes, return_counts=True)
        vals, cols, mult = [], [], []
        for c in range(self.C):
            u, k = np.unique(counts[:, c], return_counts=True)
            vals.append(u)
            cols.append(np.full(u.shape[0], c))
            mult.append(k)
        self.count_vals = np.concatenate(vals).astype(float)
        self.count_cols = np.concatenate(cols)
        self.count_mult = np.concatenate(mult).astype(float)
        self.const = float(
            np.sum(gammaln(sizes + 1.0)) - np.sum(gammaln(counts + 1.0))
        )

    def __call__(self, theta: np.ndarray) -> np.ndarray:
        """Log densities of the rows of a (J, dim) theta array, shape (J,).

        A row outside the support (log eta0 >= 700, or some eta_c
        underflowing to 0, as it does when eta0 does) or with a non-finite
        result scores -inf on its own; the other rows are unaffected.
        """
        log_pi = _log_softmax(theta[:, : self.C - 1])
        u = theta[:, self.C - 1]
        with np.errstate(all="ignore"):
            eta0 = np.exp(u)
            eta = eta0[:, None] * np.exp(log_pi)
            ok = (u < 700.0) & np.all(eta > 0.0, axis=1)
            ll = (
                self.const
                + self.K * gammaln(eta0)
                - gammaln(self.size_vals + eta0[:, None]) @ self.size_mult
                + gammaln(self.count_vals + eta[:, self.count_cols]) @ self.count_mult
                - self.K * gammaln(eta).sum(axis=1)
            )
            lp = ll + self.prior.log_density_eta0(eta0) + log_pi.sum(axis=1) + u
        return np.where(ok & np.isfinite(lp), lp, -np.inf)


def _log_softmax(free: np.ndarray) -> np.ndarray:
    """log pi from additive log-ratios against the last category, row-wise."""
    logits = np.concatenate([free, np.zeros(free.shape[:-1] + (1,))], axis=-1)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def log_posterior(theta, data: HistoricalDataset, prior: PriorChoice) -> float:
    """Log posterior density at unconstrained theta (-inf outside the support)."""
    theta = np.asarray(theta, dtype=float)
    return float(_LogPosterior(data, prior)(theta[None, :])[0])


def _split_rhat(per_chain: np.ndarray) -> float:
    """Split R-hat of one scalar parameter from (chains, draws) values."""
    M, N = per_chain.shape
    half = N // 2
    if half < 2:
        return math.nan
    seqs = np.concatenate([per_chain[:, :half], per_chain[:, half : 2 * half]], axis=0)
    w = float(seqs.var(axis=1, ddof=1).mean())
    b = float(seqs.mean(axis=1).var(ddof=1))
    if w == 0.0:
        return 1.0
    return math.sqrt((half - 1.0) / half * w + b) / math.sqrt(w)


def _initial_theta(data: HistoricalDataset) -> np.ndarray:
    """Moment-based start: smoothed pooled probabilities, dispersion-matched eta0."""
    totals = data.counts.sum(axis=0)
    C = totals.shape[0]
    pooled = (totals + 0.5) / (data.n_total + 0.5 * C)
    sizes = data.cluster_sizes
    phi_raw = float(pearson_dispersion(data.counts, pooled)[2])
    phi = clamp_dispersion(phi_raw, max(2, int(sizes.min())))
    n_bar = float(sizes.mean())
    eta0 = max((n_bar - phi) / (phi - 1.0), 0.5) if phi < n_bar else 0.5
    return np.append(np.log(pooled[:-1] / pooled[-1]), math.log(eta0))


def mcmc_sample(
    data: HistoricalDataset,
    prior: PriorChoice,
    rng: RngStream,
    chains: int = 4,
    sampling_iters: int = 2500,
    warmup: int = 1000,
) -> PosteriorDraws:
    """Adaptive coordinate-wise random-walk Metropolis over (pi, eta0).

    Chain j draws from its own substream ``rng.child(j)``: a 0.1-scale
    jitter of the moment-based start, then per coordinate update one
    normal proposal step and one uniform for the accept test.  The chains
    advance in lockstep, so every coordinate update scores all chains'
    proposals in one batched log-posterior call.  Proposal scales adapt
    in batches of 50 warmup iterations toward an acceptance rate in
    [0.20, 0.45] and are frozen afterwards, so the sampling phase targets
    the exact posterior.  Draws from all chains are pooled in chain
    order; a split R-hat above 1.05 for any component triggers a
    ConvergenceWarning.
    """
    if not isinstance(rng, RngStream):
        raise ValidationError("mcmc_sample needs an RngStream: one substream per chain")
    if chains < 2:
        raise ValidationError("need at least 2 chains for the split R-hat diagnostic")
    if sampling_iters < 4 or warmup < 0:
        raise ValidationError("nonsensical iteration counts")
    logp = _LogPosterior(data, prior)
    dim = data.n_categories
    base = _initial_theta(data)
    gens = [rng.child(j).generator() for j in range(chains)]

    theta = np.empty((chains, dim))
    lp_cur = np.empty(chains)
    for j, gen in enumerate(gens):
        for _ in range(100):
            cand = base + 0.1 * gen.standard_normal(dim)
            lp_cand = logp(cand[None, :])[0]
            if math.isfinite(lp_cand):
                theta[j], lp_cur[j] = cand, lp_cand
                break
        else:
            raise InitializationError(
                "no finite posterior density near the moment-based start after 100 jitters"
            )

    scales = np.full((chains, dim), 0.5)
    step_z = np.empty(chains)
    log_u = np.empty(chains)

    def sweep(accepted: np.ndarray) -> None:
        """One update of every coordinate in every chain, counted in ``accepted``."""
        for d in range(dim):
            for j, gen in enumerate(gens):
                step_z[j] = gen.standard_normal()
                log_u[j] = math.log(gen.random())
            prop = theta.copy()
            prop[:, d] += scales[:, d] * step_z
            lp_prop = logp(prop)
            take = log_u < lp_prop - lp_cur
            theta[take] = prop[take]
            lp_cur[take] = lp_prop[take]
            accepted[take, d] += 1.0

    batch_acc = np.zeros((chains, dim))
    for it in range(warmup):
        sweep(batch_acc)
        if (it + 1) % _ADAPT_BATCH == 0:
            rate = batch_acc / _ADAPT_BATCH
            step = min(0.25, ((it + 1) // _ADAPT_BATCH) ** -0.5)
            scales[rate > _ACCEPT_BAND[1]] *= math.exp(step)
            scales[rate < _ACCEPT_BAND[0]] *= math.exp(-step)
            batch_acc[:] = 0.0
    accept = np.zeros((chains, dim))
    theta_store = np.empty((chains, sampling_iters, dim))
    for it in range(sampling_iters):
        sweep(accept)
        theta_store[:, it] = theta
    pi_store = np.exp(_log_softmax(theta_store[:, :, : dim - 1]))
    eta_store = np.exp(theta_store[:, :, dim - 1])

    accept /= sampling_iters
    rhat = np.array(
        [_split_rhat(pi_store[:, :, c]) for c in range(dim)]
        + [_split_rhat(np.log(eta_store))]
    )
    worst = np.nanmax(rhat)
    if worst > _RHAT_WARN:
        warnings.warn(
            f"split R-hat reached {worst:.3f} (> {_RHAT_WARN}); chains may not have "
            "mixed -- consider more iterations",
            ConvergenceWarning,
            stacklevel=2,
        )
    return PosteriorDraws(
        pi_global=pi_store.reshape(chains * sampling_iters, dim),
        eta0=eta_store.reshape(chains * sampling_iters),
        rhat=rhat,
        accept_rates=accept,
        chains=chains,
    )


def posterior_predictive(draws: PosteriorDraws, m: int, rng) -> PredictiveSamples:
    """One future cluster of m units per posterior draw."""
    if m < 1:
        raise ValidationError(f"future cluster size must be positive, got {m}")
    gen = as_generator(rng)
    eta = draws.eta0[:, None] * draws.pi_global
    # Exact zeros can only come from floating underflow; nudge them so the
    # Dirichlet sampler keeps its support check.
    eta = np.maximum(eta, np.finfo(float).tiny)
    p = sample_dirichlet(eta, gen)
    y = gen.multinomial(int(m), p)
    return PredictiveSamples(y_pred=y, m=int(m))


def _predictive_set(
    label: str,
    pred: PredictiveSamples,
    lower: np.ndarray,
    upper: np.ndarray,
    mult_lower,
    mult_upper,
    alpha: float,
    clip: bool,
) -> PredictionIntervalSet:
    C = pred.y_pred.shape[1]
    if clip:
        lower = np.clip(lower, 0.0, pred.m)
        upper = np.clip(upper, 0.0, pred.m)
    return PredictionIntervalSet(
        method=label,
        lower=lower,
        upper=upper,
        y_hat=pred.y_hat,
        sep=pred.sd,
        multiplier_lower=np.broadcast_to(np.asarray(mult_lower, dtype=float), (C,)),
        multiplier_upper=np.broadcast_to(np.asarray(mult_upper, dtype=float), (C,)),
        alpha=alpha,
    )


def bayes_bonferroni_interval(
    pred: PredictiveSamples,
    alpha: float,
    label: str = "bayes-bonf",
    clip: bool = True,
) -> PredictionIntervalSet:
    """Per-category predictive quantiles at the Bonferroni-adjusted level."""
    C = pred.y_pred.shape[1]
    p_lo, p_hi = alpha / (2.0 * C), 1.0 - alpha / (2.0 * C)
    lower = np.array([nearest_rank_quantile(pred.y_pred[:, c], p_lo) for c in range(C)])
    upper = np.array([nearest_rank_quantile(pred.y_pred[:, c], p_hi) for c in range(C)])
    return _predictive_set(label, pred, lower, upper, math.nan, math.nan, alpha, clip)


def bayes_mean_centered_interval(
    pred: PredictiveSamples,
    alpha: float,
    label: str = "bayes-mean",
    clip: bool = True,
) -> PredictionIntervalSet:
    """Mean-centred band calibrated on the max standardised predictive deviation.

    Categories whose predictive draws are constant contribute nothing to
    the max statistic and collapse to the degenerate interval at their
    predictive mean.
    """
    mean = pred.y_hat
    sd = pred.sd
    active = sd > 0.0
    if np.any(active):
        z = np.abs(pred.y_pred[:, active] - mean[active]) / sd[active]
        q = nearest_rank_quantile(z.max(axis=1), 1.0 - alpha)
    else:
        q = 0.0
    return _predictive_set(
        label, pred, mean - q * sd, mean + q * sd, q, q, alpha, clip
    )


def bayes_rank_scs_interval(
    pred: PredictiveSamples,
    alpha: float,
    label: str = "bayes-scs",
    clip: bool = True,
) -> PredictionIntervalSet:
    """Rank-based simultaneous bounds taken directly on predictive counts."""
    summary = rank_summary(pred.y_pred, alpha)
    S, C = pred.y_pred.shape
    tau = summary.tau_star
    y_sorted = np.sort(pred.y_pred, axis=0)
    lower = y_sorted[S - tau, :].astype(float)
    upper = y_sorted[tau - 1, :].astype(float)
    return _predictive_set(label, pred, lower, upper, math.nan, math.nan, alpha, clip)
