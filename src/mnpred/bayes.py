"""Bayesian Dirichlet-multinomial model of the historical clusters.

Each cluster's probability vector is drawn from Dirichlet(eta0 * pi)
around a global pi; integrating the cluster-level vectors out leaves
the Dirichlet-multinomial likelihood, so the posterior lives on just
(pi, eta0).  Sampling runs in unconstrained coordinates (additive
log-ratio of pi plus log eta0) with an adaptive coordinate-wise
random-walk Metropolis sampler.  The sampler pre-fetches: for each
block of up to three coordinates it scores, in one batched call, every
proposal that a sequential sweep could make (one per accept/reject
history of the block's earlier coordinates, 2**k - 1 in all), then
replays the accept tests in coordinate order, so the chains equal those
of a one-coordinate-at-a-time sweep.  Prediction intervals come from the
posterior predictive counts of a future cluster: Bonferroni-adjusted
quantiles, a mean-centred max-deviation calibration, or the same
rank-based simultaneous construction used by the parametric bootstrap.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import betaln, gammaln

from .dm import multinomial_in_place, sample_dirichlet
from .empirical import max_abs_quantile, nearest_rank_quantile, rank_summary
from .errors import (
    ConvergenceWarning,
    DomainError,
    InitializationError,
    ValidationError,
)
from .model import (
    PREDICT_DEFAULTS,
    FutureSpec,
    HistoricalDataset,
    PredictionIntervalSet,
    PredictionPoint,
    _frozen_array,
    clamp_dispersion,
    interval_set,
    pearson_dispersion,
    scaled_interval_set,
)
from .rng import RngStream, require_stream

__all__ = [
    "MIN_CHAINS",
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

# Split R-hat compares chains, so it needs at least two.
MIN_CHAINS = 2
_RHAT_WARN = 1.05
_ADAPT_BATCH = 50
_ACCEPT_BAND = (0.20, 0.45)
# Coordinates per pre-fetched Metropolis block.  A block of k costs one
# log-posterior call of chains * (2**k - 1) rows; past three, the doubling row
# count outweighs the calls saved (at C=10, K=100, n=500 a block of five ran
# slower than one coordinate at a time).
_BLOCK = 3
# Above this u = eta0 / scale, the cauchy prior takes log1p(u**2) as 2 log u,
# which it equals to double precision; u**2 overflows past about 1.3e154.
_SQUARE_SAFE = 1e150


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
        if not all(
            math.isfinite(p) and p > 0.0 for p in (self.scale, self.beta_a, self.beta_b)
        ):
            raise ValidationError("prior parameters must be positive finite numbers")

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
        return np.where(ok, self._log_density(np.where(ok, eta0, 1.0)), -np.inf)[()]

    def _log_density(self, x: np.ndarray) -> np.ndarray:
        """``log_density_eta0`` without its support check; rows of x that are
        not positive finite numbers come out as garbage, not -inf."""
        if self.kind == "cauchy":
            u = x / self.scale
            big = u > _SQUARE_SAFE
            if big.any():
                safe = np.minimum(u, _SQUARE_SAFE)
                tail = np.where(big, 2.0 * np.log(np.maximum(u, _SQUARE_SAFE)), np.log1p(safe**2))
            else:
                tail = np.log1p(u**2)
            return math.log(2.0 / math.pi) - math.log(self.scale) - tail
        a, b = self.beta_a, self.beta_b
        # Beta density in rho = 1/(1+eta0) times |d rho / d eta0| = rho^2.
        return (
            -float(betaln(a, b))
            - (a + 1.0) * np.log1p(x)
            + (b - 1.0) * (np.log(x) - np.log1p(x))
        )


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

    # Computed on first read and shared by every later one, hence read-only.
    @cached_property
    def y_hat(self) -> np.ndarray:
        return _frozen_array(self.y_pred.mean(axis=0))

    @cached_property
    def sd(self) -> np.ndarray:
        return _frozen_array(self.y_pred.std(axis=0, ddof=1))


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
        self.size_vals, size_mult = np.unique(sizes, return_counts=True)
        self.size_mult = size_mult.astype(float)
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
        result scores -inf on its own; the other rows are unaffected.  Every
        reduction runs along a row, so a row's score does not depend on the
        rows batched with it.
        """
        log_pi = _log_softmax(theta[:, : self.C - 1])
        u = theta[:, self.C - 1]
        with np.errstate(all="ignore"):
            eta0 = np.exp(u)
            eta = eta0[:, None] * np.exp(log_pi)
            # Weighted row sums rather than matvecs: a sum along one C-order
            # row does not depend on the rows batched with it (``take``, unlike
            # ``eta[:, cols]``, returns C order).
            size_terms = gammaln(self.size_vals + eta0[:, None]) * self.size_mult
            count_terms = gammaln(self.count_vals + eta.take(self.count_cols, axis=1))
            ll = (
                self.const
                + self.K * gammaln(eta0)
                - size_terms.sum(axis=1)
                + (count_terms * self.count_mult).sum(axis=1)
                - self.K * gammaln(eta).sum(axis=1)
            )
            # The prior goes unchecked: u < 700 keeps eta0 finite, and an
            # eta_c of 0 (hence an eta0 of 0) makes -K * gammaln(eta_c) -inf,
            # so ll, and with it lp, is -inf or nan on every row outside the
            # support.
            lp = ll + self.prior._log_density(eta0) + log_pi.sum(axis=1) + u
        return np.where((u < 700.0) & np.isfinite(lp), lp, -np.inf)


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


def _replay(lp_prop: np.ndarray, lp_cur: list, log_u: list) -> list:
    """Replay one pre-fetched block's Metropolis tests in coordinate order.

    ``lp_prop[j, (1 << i) - 1 + h]`` scores chain j's proposal for the
    block's coordinate i after accept history h (bit b set when the
    block's coordinate b was accepted), and ``log_u[j][i]`` is that test's
    log uniform.  Runs on plain floats; updates ``lp_cur`` in place and
    returns each chain's final history.
    """
    history = []
    for j, (row, row_u) in enumerate(zip(lp_prop.tolist(), log_u)):
        cur, h = lp_cur[j], 0
        for i, lu in enumerate(row_u):
            lp = row[(1 << i) - 1 + h]
            if lu < lp - cur:
                cur, h = lp, h | (1 << i)
        lp_cur[j] = cur
        history.append(h)
    return history


def mcmc_sample(
    data: HistoricalDataset,
    prior: PriorChoice,
    rng: RngStream,
    chains: int = PREDICT_DEFAULTS.chains,
    sampling_iters: int = PREDICT_DEFAULTS.sampling_iters,
    warmup: int = PREDICT_DEFAULTS.warmup,
) -> PosteriorDraws:
    """Adaptive coordinate-wise random-walk Metropolis over (pi, eta0).

    Chain j draws from its own substream ``rng.child(j)``: a 0.1-scale
    jitter of the moment-based start, then per coordinate update one
    normal proposal step and one uniform for the accept test.  Each sweep
    first draws every chain's steps and uniforms, in that per-generator
    order, then pre-fetches: the coordinates go in blocks of up to three,
    and one batched log-posterior call scores, for every chain at once,
    all 2**k - 1 proposals that a sequential sweep of a k-coordinate block
    could make, one per accept/reject history of the block's earlier
    coordinates.  The accept tests are then replayed in coordinate order,
    so the chains are exactly those of a one-coordinate-at-a-time sweep.
    Proposal scales adapt in batches of 50 warmup iterations toward an
    acceptance rate in [0.20, 0.45] and are frozen afterwards, so the
    sampling phase targets the exact posterior.  Draws from all chains are
    pooled in chain order; a split R-hat above 1.05 for any component
    triggers a ConvergenceWarning.
    """
    require_stream(rng, "mcmc_sample")
    if chains < MIN_CHAINS:
        raise ValidationError(f"need at least {MIN_CHAINS} chains for the split R-hat diagnostic")
    if sampling_iters < 4 or warmup < 0:
        raise ValidationError("nonsensical iteration counts")
    logp = _LogPosterior(data, prior)
    dim = data.n_categories
    base = _initial_theta(data)
    gens = [rng.child(j).generator() for j in range(chains)]

    # Columns [0, dim) hold each chain's theta, [dim, 2 dim) the sweep's
    # proposed values theta_d + scales_d * z_d.
    state = np.empty((chains, 2 * dim))
    theta = state[:, :dim]
    lp_cur = [0.0] * chains
    for j, gen in enumerate(gens):
        for _ in range(100):
            cand = base + 0.1 * gen.standard_normal(dim)
            lp_cand = float(logp(cand[None, :])[0])
            if math.isfinite(lp_cand):
                theta[j], lp_cur[j] = cand, lp_cand
                break
        else:
            raise InitializationError(
                "no finite posterior density near the moment-based start after 100 jitters"
            )

    scales = np.full((chains, dim), 0.5)
    step_z = np.empty((chains, dim))
    # Row h: which of a block's coordinates accept history h has moved
    # (bit b = the block's coordinate b).
    bits = ((np.arange(1 << _BLOCK)[:, None] >> np.arange(_BLOCK)) & 1).astype(bool)
    blocks = []
    for lo in range(0, dim, _BLOCK):
        hi = min(lo + _BLOCK, dim)
        k = hi - lo
        # Proposal r of the block is the state after history r + 1: its
        # highest moved coordinate is the one under test, the others were
        # accepted.  ``cols[r]`` picks that proposal's columns of ``state``.
        cols = np.tile(np.arange(dim), ((1 << k) - 1, 1))
        cols[:, lo:hi] += np.where(bits[1 : 1 << k, :k], dim, 0)
        blocks.append((lo, hi, cols))

    def sweep(accepted: np.ndarray) -> None:
        """One update of every coordinate in every chain, counted in ``accepted``."""
        log_u = []
        for j, gen in enumerate(gens):
            normal, uniform = gen.standard_normal, gen.random
            row_u = []
            for d in range(dim):
                step_z[j, d] = normal()
                row_u.append(math.log(uniform()))
            log_u.append(row_u)
        state[:, dim:] = theta + scales * step_z
        for lo, hi, cols in blocks:
            lp_prop = logp(state[:, cols].reshape(-1, dim)).reshape(chains, -1)
            history = _replay(lp_prop, lp_cur, [row_u[lo:hi] for row_u in log_u])
            take = bits[history, : hi - lo]
            theta[:, lo:hi] = np.where(take, state[:, dim + lo : dim + hi], theta[:, lo:hi])
            accepted[:, lo:hi] += take

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


def posterior_predictive(draws: PosteriorDraws, m: int, rng: RngStream) -> PredictiveSamples:
    """One future cluster of m units per posterior draw, drawn from ``rng``."""
    gen = require_stream(rng, "posterior_predictive").generator()
    if m < 1:
        raise ValidationError(f"future cluster size must be positive, got {m}")
    eta = draws.eta0[:, None] * draws.pi_global
    # Exact zeros can only come from floating underflow; nudge them so the
    # Dirichlet sampler keeps its support check.
    eta = np.maximum(eta, np.finfo(float).tiny)
    y = multinomial_in_place(int(m), sample_dirichlet(eta, gen), gen)
    return PredictiveSamples(y_pred=y, m=int(m))


def bayes_bonferroni_interval(
    pred: PredictiveSamples, alpha: float, label: str = "bayes-bonf"
) -> PredictionIntervalSet:
    """Per-category predictive quantiles at the Bonferroni-adjusted level."""
    spec = FutureSpec(pred.m, alpha)
    C = pred.y_pred.shape[1]
    lower = nearest_rank_quantile(pred.y_pred, alpha / (2.0 * C))
    upper = nearest_rank_quantile(pred.y_pred, 1.0 - alpha / (2.0 * C))
    return interval_set(label, PredictionPoint(pred.y_hat, pred.sd), spec, lower, upper)


def bayes_mean_centered_interval(
    pred: PredictiveSamples, alpha: float, label: str = "bayes-mean"
) -> PredictionIntervalSet:
    """Mean-centred band calibrated on the max standardised predictive deviation.

    Categories whose predictive draws are constant contribute nothing to
    the max statistic and collapse to the degenerate interval at their
    predictive mean.
    """
    spec = FutureSpec(pred.m, alpha)
    point = PredictionPoint(pred.y_hat, pred.sd)
    active = point.sep > 0.0
    if np.any(active):
        z = (pred.y_pred[:, active] - point.y_hat[active]) / point.sep[active]
        q = max_abs_quantile(z, alpha)
    else:
        q = 0.0
    return scaled_interval_set(label, point, q, q, spec)


def bayes_rank_scs_interval(
    pred: PredictiveSamples, alpha: float, label: str = "bayes-scs"
) -> PredictionIntervalSet:
    """Rank-based simultaneous bounds taken directly on predictive counts."""
    spec = FutureSpec(pred.m, alpha)
    summary = rank_summary(pred.y_pred, alpha)
    point = PredictionPoint(pred.y_hat, pred.sd)
    return interval_set(label, point, spec, summary.lower, summary.upper)
