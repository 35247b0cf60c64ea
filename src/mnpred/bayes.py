"""Bayesian Dirichlet-multinomial model of the historical clusters.

Each cluster's probability vector is drawn from Dirichlet(eta0 * pi)
around a global pi; integrating the cluster-level vectors out leaves
the Dirichlet-multinomial likelihood, so the posterior lives on just
(pi, eta0).  It is sampled in unconstrained coordinates (additive
log-ratios of pi plus u = log eta0) by sampling-importance-resampling
(Rubin 1988): i.i.d. proposals from a grid over u (the one awkward
direction, after INLA's grid over a hyperparameter; Rue, Martino &
Chopin 2009) with Student-t log-ratios given u, both built from a Laplace
fit at the posterior mode, are weighted by posterior over proposal
density and resampled.  The weights' effective sample size and their
Pareto k-hat (PSIS; Vehtari et al. 2024) report how well the proposal
covered the posterior.  Prediction intervals come from the posterior
predictive counts of a future cluster: Bonferroni-adjusted quantiles, a
mean-centred max-deviation calibration, or the same rank-based
simultaneous construction used by the parametric bootstrap.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dm import sample_dirichlet
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

# Split R-hat compares batches, so it needs at least two.
MIN_CHAINS = 2
_RHAT_WARN = 1.05
# Above this Pareto k-hat the importance weights' tail is too heavy for their
# self-normalised estimates to be trusted (Vehtari et al. 2024).
_KHAT_WARN = 0.7
# The proposal for u: equal cells over [mode + lo * sd, mode + hi * sd].  The
# span is lopsided because the posterior in u has a steep left wall and, for
# near-multinomial data, an exponential right tail.
_GRID_CELLS = 400
_GRID_SPAN = (-8.0, 25.0)
# Degrees of freedom of the Student-t proposal for the log-ratios given u.
_T_DF = 7.0
# Proposals scored per log-posterior call, which bounds the kernel's
# (rows, terms) temporary.
_SCORE_BLOCK = 1024
# Newton search for the mode: central-difference step, iteration cap, and the
# Newton decrement g . step below which the mode counts as found.
_FD_STEP = 1e-3
_NEWTON_ITERS = 100
_NEWTON_TOL = 1e-9
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
            -_betaln(a, b)
            - (a + 1.0) * np.log1p(x)
            + (b - 1.0) * (np.log(x) - np.log1p(x))
        )


@dataclass(frozen=True)
class PosteriorDraws:
    """Pooled posterior draws with their importance-sampling diagnostics."""

    pi_global: np.ndarray      # (S, C)
    eta0: np.ndarray           # (S,)
    rhat: np.ndarray           # split R-hat across batches, per pi component plus log eta0
    ess: np.ndarray            # (batches,) effective sample size of each batch's weights
    khat: np.ndarray           # (batches,) Pareto k-hat of each batch's weights

    @property
    def n_draws(self) -> int:
        return self.eta0.shape[0]

    @property
    def rho(self) -> np.ndarray:
        """Implied intra-cluster correlation 1/(1+eta0) per draw."""
        return 1.0 / (1.0 + self.eta0)

    @property
    def accept_rates(self) -> np.ndarray:
        """ESS per proposal of each batch.

        Kept, read-only, for the benchmark's traced runs, which read the
        acceptance rates of the Metropolis sampler this one replaced.
        """
        return self.ess / (self.n_draws // self.ess.shape[0])


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


def _betaln(a: float, b: float) -> float:
    """log B(a, b) for positive a and b."""
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def dm_log_pmf(x, n: int, eta) -> float:
    """Log pmf of the Dirichlet-multinomial with concentration vector eta."""
    x = np.asarray(x, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if not np.all(np.isfinite(eta) & (eta > 0.0)):
        raise DomainError("concentration entries must be positive finite numbers")
    if x.shape != eta.shape:
        raise ValidationError("counts and concentrations must have equal length")
    if not float(n).is_integer() or not np.all(x == np.floor(x)):
        raise ValidationError(f"counts and n={n} must be whole numbers")
    if np.any(x < 0) or x.sum() != n:
        raise ValidationError(f"counts must be non-negative and sum to n={n}")
    n = float(n)
    eta0 = float(eta.sum())
    return (
        math.lgamma(n + 1.0)
        + math.lgamma(eta0)
        - math.lgamma(n + eta0)
        + sum(
            math.lgamma(xc + ec) - math.lgamma(xc + 1.0) - math.lgamma(ec)
            for xc, ec in zip(x.tolist(), eta.tolist())
        )
    )


class _LogPosterior:
    """Unnormalised log posterior in unconstrained coordinates, batched over rows.

    theta = (additive log-ratios of pi against the last category,
    log eta0).  Includes the two change-of-variable Jacobians, so the
    sampler targets the correct density in theta space.  The likelihood
    needs no gamma function: for a whole number x,
    lgamma(x + e) - lgamma(e) = sum_{i < x} log(e + i), so summed over the
    clusters each of the concentrations (eta0, eta_1, ..., eta_C) enters as
    sum_i w_i log(eta + i), where w_i counts the clusters with more than i
    units (of the cluster, for eta0; of category c, for eta_c).  ``__init__``
    lays those terms out once as three flat arrays (offset i, which
    concentration, weight w_i, negated for eta0), so an evaluation is one log
    and one weighted row sum over about as many terms as the largest
    cluster size and column maxima add up to.
    """

    def __init__(self, data: HistoricalDataset, prior: PriorChoice) -> None:
        counts = data.counts
        K, self.C = counts.shape
        self.prior = prior
        sizes = data.cluster_sizes
        offsets, index, weights = [], [], []
        for j, (col, sign) in enumerate(
            [(sizes, -1.0)] + [(counts[:, c], 1.0) for c in range(self.C)]
        ):
            # more[i] = number of clusters with more than i units, i < max.
            more = K - np.cumsum(np.bincount(col))[:-1]
            offsets.append(np.arange(more.shape[0], dtype=float))
            index.append(np.full(more.shape[0], j))
            weights.append(sign * more)
        self.offsets = np.concatenate(offsets)
        self.index = np.concatenate(index)
        self.weights = np.concatenate(weights).astype(float)
        self.const = sum(math.lgamma(s + 1.0) for s in sizes.tolist()) - sum(
            math.lgamma(x + 1.0) for x in counts.ravel().tolist()
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
            ext = np.empty((theta.shape[0], self.C + 1))
            ext[:, 0] = eta0
            np.multiply(eta0[:, None], np.exp(log_pi), out=ext[:, 1:])
            # A weighted row sum rather than a matvec: a sum along one C-order
            # row does not depend on the rows batched with it (``take``, unlike
            # ``ext[:, index]``, returns C order).
            terms = ext.take(self.index, axis=1)
            terms += self.offsets
            np.log(terms, out=terms)
            terms *= self.weights
            ll = self.const + terms.sum(axis=1)
            # The prior goes unchecked: u < 700 keeps eta0 finite and every
            # eta_c > 0 keeps eta0 positive, so the rows it could get wrong
            # are masked below.
            lp = ll + self.prior._log_density(eta0) + log_pi.sum(axis=1) + u
        ok = (u < 700.0) & (ext.min(axis=1) > 0.0) & np.isfinite(lp)
        return np.where(ok, lp, -np.inf)


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
    """Split R-hat of one scalar parameter from (batches, draws) values."""
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


def _laplace(logp: _LogPosterior, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mode and the inverse negative Hessian there, by damped Newton steps.

    Each iteration scores, in one batched call, the point and its
    central-difference stencil (1 + d + d**2 rows in d coordinates), which
    give the gradient and the Hessian; a second call scores the Newton step
    halved 0 to 29 times, and the longest that does not lower the density is
    taken.  Where the curvature is not negative the step uses its magnitude,
    so every step climbs.  Uses no randomness.  Raises InitializationError
    when the stencil leaves the support or no mode is reached.
    """
    d = theta.shape[0]
    h = _FD_STEP
    axes = np.eye(d) * h
    i, j = np.triu_indices(d, 1)
    pairs = axes[i] + axes[j]
    stencil = np.concatenate([np.zeros((1, d)), axes, -axes, pairs, -pairs])
    halvings = 0.5 ** np.arange(30)[:, None]
    for _ in range(_NEWTON_ITERS):
        f = logp(theta + stencil)
        if not np.all(np.isfinite(f)):
            break
        f0, up, down = f[0], f[1 : d + 1], f[d + 1 : 2 * d + 1]
        both_up, both_down = np.split(f[2 * d + 1 :], 2)
        grad = (up - down) / (2.0 * h)
        neg_hess = np.empty((d, d))
        neg_hess[np.diag_indices(d)] = (2.0 * f0 - up - down) / h**2
        neg_hess[i, j] = neg_hess[j, i] = (
            up[i] + up[j] + down[i] + down[j] - 2.0 * f0 - both_up - both_down
        ) / (2.0 * h**2)
        curv, vecs = np.linalg.eigh(neg_hess)
        concave = bool(curv.min() > 0.0)
        step = vecs @ ((vecs.T @ grad) / np.maximum(np.abs(curv), 1e-8 * np.abs(curv).max()))
        if concave and grad @ step < _NEWTON_TOL:
            return theta, (vecs / curv) @ vecs.T
        trial = logp(theta + halvings * step)
        climbs = np.flatnonzero(trial >= f0)
        if climbs.shape[0]:
            theta = theta + halvings[climbs[0]] * step
        elif concave:
            # No step gains within rounding: the mode is as found as it can be.
            return theta, (vecs / curv) @ vecs.T
        else:
            break
    raise InitializationError(
        "the Newton search from the moment-based start found no finite posterior mode"
    )


def _pick(weights: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Indices drawn with probability proportional to non-negative weights,
    by inverting their cumulative sum at the given uniforms."""
    cdf = np.cumsum(weights)
    # uniform * total can round up to the total; that draw takes the last
    # index of positive weight.
    last = np.flatnonzero(weights)[-1]
    return np.minimum(np.searchsorted(cdf, uniforms * cdf[-1], side="right"), last)


class _GridProposal:
    """Importance proposal over theta built from a Laplace fit (mode, cov).

    u = log eta0 comes from a piecewise-constant density on equal grid
    cells over [mode - 8 sd, mode + 25 sd], proportional to the posterior at
    each cell's centre on the line where the log-ratios sit at their linear
    conditional mean given u.  Given u, the log-ratios are multivariate t
    around that mean, with the conditional (Schur complement) covariance as
    scale matrix.  ``draw`` returns proposals with their exact log density.
    """

    def __init__(self, logp: _LogPosterior, mode: np.ndarray, cov: np.ndarray) -> None:
        p = mode.shape[0] - 1
        self.mode = mode
        self.slope = cov[:p, p] / cov[p, p]
        self.scale = np.linalg.cholesky(cov[:p, :p] - np.outer(self.slope, cov[p, :p]))
        self.edges = mode[p] + math.sqrt(cov[p, p]) * np.linspace(*_GRID_SPAN, _GRID_CELLS + 1)
        self.width = float(self.edges[1] - self.edges[0])
        log_mass = logp(self._line(self.edges[:-1] + 0.5 * self.width))
        if not np.isfinite(log_mass).any():
            raise InitializationError("no grid cell over log eta0 has finite posterior density")
        self.mass = np.exp(log_mass - log_mass.max())
        self.mass /= self.mass.sum()
        with np.errstate(divide="ignore"):
            self.log_density = np.log(self.mass) - math.log(self.width)
        nu = _T_DF
        self.log_t_norm = (
            math.lgamma(0.5 * (nu + p))
            - math.lgamma(0.5 * nu)
            - 0.5 * p * math.log(nu * math.pi)
            - float(np.log(np.diag(self.scale)).sum())
        )

    def _line(self, u: np.ndarray) -> np.ndarray:
        """Thetas at the given u with the log-ratios at their conditional mean."""
        theta = np.empty((u.shape[0], self.mode.shape[0]))
        theta[:, -1] = u
        shift = u - self.mode[-1]
        for a, slope in enumerate(self.slope.tolist()):
            theta[:, a] = self.mode[a] + slope * shift
        return theta

    def draw(self, gen: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        """n proposals, shape (n, dim), and their log proposal densities."""
        cell = _pick(self.mass, gen.random(n))
        theta = self._line(self.edges[cell] + self.width * gen.random(n))
        p = theta.shape[1] - 1
        t = gen.standard_normal((n, p))
        t /= np.sqrt(gen.chisquare(_T_DF, n) / _T_DF)[:, None]
        # Multiply-adds rather than a matmul, whose sums a threaded BLAS may
        # split differently from run to run.
        for a in range(p):
            for b in range(a + 1):
                theta[:, a] += self.scale[a, b] * t[:, b]
        log_t = -0.5 * (_T_DF + p) * np.log1p((t * t).sum(axis=1) / _T_DF)
        return theta, self.log_density[cell] + self.log_t_norm + log_t


def _pareto_khat(log_w: np.ndarray) -> float:
    """Pareto k-hat of importance weights given as logs (PSIS; Vehtari et al. 2024).

    A generalized Pareto distribution is fitted to the excesses of the
    largest min(S/5, 3 sqrt(S)) weights over the next one, by the
    empirical-Bayes estimate of Zhang & Stephens (2009), and its shape is
    shrunk toward 0.5 by ten pseudo-observations as PSIS does.  Infinite
    when no more than four weights exceed that threshold.
    """
    x = log_w - log_w.max()
    S = x.shape[0]
    tail = math.ceil(min(0.2 * S, 3.0 * math.sqrt(S)))
    # Nearest-rank levels half a rank below k pick the k-th smallest value
    # whatever the rounding of k / S.
    cutoff = max(nearest_rank_quantile(x, (S - tail - 0.5) / S), math.log(np.finfo(float).tiny))
    excess = np.exp(x[x > cutoff]) - math.exp(cutoff)
    n = excess.shape[0]
    if n <= 4:
        return math.inf
    m = 30 + int(math.sqrt(n))
    b = 1.0 - np.sqrt(m / (np.arange(1, m + 1) - 0.5))
    b /= 3.0 * nearest_rank_quantile(excess, (int(n / 4 + 0.5) - 0.5) / n)
    b += 1.0 / excess.max()
    k = np.log1p(-b[:, None] * excess).mean(axis=1)
    log_lik = n * (np.log(-b / k) - k - 1.0)
    weight = np.exp(log_lik - log_lik.max())
    b_post = float((b * weight).sum() / weight.sum())
    k_post = float(np.log1p(-b_post * excess).mean())
    return (n * k_post + 10 * 0.5) / (n + 10)


def mcmc_sample(
    data: HistoricalDataset,
    prior: PriorChoice,
    rng: RngStream,
    chains: int = PREDICT_DEFAULTS.chains,
    sampling_iters: int = PREDICT_DEFAULTS.sampling_iters,
    warmup: int = PREDICT_DEFAULTS.warmup,
) -> PosteriorDraws:
    """Posterior draws of (pi, eta0) by grid-guided sampling-importance-resampling.

    The proposal is built once per call, with no randomness: a damped
    Newton search from the moment-based start finds the posterior mode and
    the curvature there, and a grid over u = log eta0 with Student-t
    log-ratios given u is laid over them (``_GridProposal``).  Each of the
    ``chains`` batches then draws from its own substream ``rng.child(j)``:
    ``sampling_iters`` i.i.d. proposals, weighted by posterior over proposal
    density, and as many draws resampled from them with probability
    proportional to weight.  Batches are pooled in order.  The split R-hat
    across batches measures their importance-sampling error; a
    ConvergenceWarning is raised when it exceeds 1.05 for any component or
    a batch's Pareto k-hat exceeds 0.7.

    ``warmup`` is validated but has no effect, since i.i.d. proposals need
    no burn-in.  It and this function's name are kept for callers written
    for the Metropolis sampler this one replaced.
    """
    require_stream(rng, "mcmc_sample")
    if chains < MIN_CHAINS:
        raise ValidationError(f"need at least {MIN_CHAINS} batches for the split R-hat diagnostic")
    if sampling_iters < 4 or warmup < 0:
        raise ValidationError("nonsensical iteration counts")
    logp = _LogPosterior(data, prior)
    dim = data.n_categories
    proposal = _GridProposal(logp, *_laplace(logp, _initial_theta(data)))

    theta_store = np.empty((chains, sampling_iters, dim))
    ess = np.empty(chains)
    khat = np.empty(chains)
    for j in range(chains):
        gen = rng.child(j).generator()
        theta, log_q = proposal.draw(gen, sampling_iters)
        log_w = np.concatenate(
            [logp(theta[i : i + _SCORE_BLOCK]) for i in range(0, sampling_iters, _SCORE_BLOCK)]
        )
        log_w -= log_q
        if not np.isfinite(log_w).any():
            raise InitializationError(f"no proposal of batch {j} has finite posterior density")
        w = np.exp(log_w - log_w.max())
        ess[j] = w.sum() ** 2 / (w * w).sum()
        khat[j] = _pareto_khat(log_w)
        theta_store[j] = theta[_pick(w, gen.random(sampling_iters))]
    pi_store = np.exp(_log_softmax(theta_store[:, :, : dim - 1]))
    eta_store = np.exp(theta_store[:, :, dim - 1])

    rhat = np.array(
        [_split_rhat(pi_store[:, :, c]) for c in range(dim)]
        + [_split_rhat(theta_store[:, :, dim - 1])]
    )
    worst_rhat, worst_khat = float(np.nanmax(rhat)), float(khat.max())
    if worst_rhat > _RHAT_WARN or worst_khat > _KHAT_WARN:
        warnings.warn(
            f"split R-hat {worst_rhat:.3f} (warns above {_RHAT_WARN}), Pareto k-hat "
            f"{worst_khat:.2f} (warns above {_KHAT_WARN}): the importance proposal may "
            "not cover the posterior -- consider more draws",
            ConvergenceWarning,
            stacklevel=2,
        )
    return PosteriorDraws(
        pi_global=pi_store.reshape(chains * sampling_iters, dim),
        eta0=eta_store.reshape(chains * sampling_iters),
        rhat=rhat,
        ess=ess,
        khat=khat,
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
    y = gen.multinomial(int(m), sample_dirichlet(eta, gen))
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
