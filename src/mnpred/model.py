"""Quasi-multinomial model for clustered categorical counts.

Historical control data arrive as K clusters (studies) of multinomial
counts over C shared categories.  Between-cluster heterogeneity inflates
the multinomial covariance by a common dispersion factor, which we
estimate from the Pearson statistic with the small-sample bias
correction of Afroz and Fletcher.  The fitted model supplies the point
prediction and its standard error for a future cluster of m units; the
interval constructions themselves live in sibling modules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDesign,
    ValidationError,
    ZeroCategory,
    ZeroProbability,
)

__all__ = [
    "HistoricalDataset",
    "ModelFit",
    "FutureSpec",
    "PREDICT_DEFAULTS",
    "PredictionPoint",
    "PredictionIntervalSet",
    "pearson_dispersion",
    "pearson_chi_square",
    "afroz_fletcher_dispersion",
    "clamp_dispersion",
    "prediction_se",
    "fit_model",
    "prediction_point",
    "interval_set",
    "scaled_interval_set",
]


def _frozen_array(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class HistoricalDataset:
    """K x C matrix of historical counts, one row per cluster."""

    counts: np.ndarray
    categories: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts)
        if counts.ndim != 2:
            raise ValidationError("counts must be a 2-D cluster-by-category matrix")
        if not np.issubdtype(counts.dtype, np.integer):
            rounded = np.round(counts)
            if not np.array_equal(rounded, counts):
                raise ValidationError("counts must be whole numbers")
            counts = rounded
        counts = counts.astype(np.int64)
        if np.any(counts < 0):
            k, c = map(int, np.argwhere(counts < 0)[0])
            raise ValidationError(f"negative count in cluster {k + 1}, category {c + 1}")
        K, C = counts.shape
        if K < 2 or C < 2:
            raise DegenerateDesign(
                f"need at least 2 clusters and 2 categories, got K={K}, C={C}"
            )
        if np.any(counts.sum(axis=1) == 0):
            k = int(np.argwhere(counts.sum(axis=1) == 0)[0, 0])
            raise ValidationError(f"cluster {k + 1} contains no units")
        object.__setattr__(self, "counts", _frozen_array(counts, dtype=np.int64))
        if self.categories:
            if len(self.categories) != C:
                raise ValidationError(
                    f"{len(self.categories)} category labels for {C} columns"
                )
            object.__setattr__(self, "categories", tuple(str(s) for s in self.categories))
        else:
            object.__setattr__(
                self, "categories", tuple(f"cat_{c + 1}" for c in range(C))
            )

    @property
    def n_clusters(self) -> int:
        return self.counts.shape[0]

    @property
    def n_categories(self) -> int:
        return self.counts.shape[1]

    @property
    def cluster_sizes(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @property
    def n_total(self) -> int:
        """Total units pooled over clusters."""
        return int(self.counts.sum())


@dataclass(frozen=True)
class ModelFit:
    """Pooled probability estimate plus dispersion diagnostics."""

    pi_hat: np.ndarray
    phi_hat: float        # clamped; used everywhere downstream
    phi_raw: float        # unclamped estimate, kept for reporting
    chi_square: float
    df: int
    s_bar: float
    n_params: int
    n_total: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "pi_hat", _frozen_array(self.pi_hat))


@dataclass(frozen=True)
class FutureSpec:
    """Size of the future cluster and simultaneous error rate."""

    m: int
    alpha: float = 0.05

    def __post_init__(self) -> None:
        if int(self.m) != self.m or self.m < 1:
            raise ValidationError(f"future cluster size must be a positive integer, got {self.m}")
        object.__setattr__(self, "m", int(self.m))
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError(f"alpha must lie strictly between 0 and 1, got {self.alpha}")


@dataclass(frozen=True)
class PredictSettings:
    """Run lengths of ``predict``.

    ``PREDICT_DEFAULTS`` is the one place their defaults are written: the
    CLI, ``compute_intervals``, ``mcmc_sample`` and the MVN quantile read
    them from it.  ``simulate`` keeps its own set on ``Scenario``.
    ``chains`` counts the posterior sampler's batches and ``sampling_iters``
    its draws per batch; ``warmup`` has no effect.
    """

    B: int = 10_000
    mvn_draws: int = 100_000
    chains: int = 4
    sampling_iters: int = 2500
    warmup: int = 1000


PREDICT_DEFAULTS = PredictSettings()


@dataclass(frozen=True)
class PredictionPoint:
    """Point prediction m*pi_hat with its per-category standard error."""

    y_hat: np.ndarray
    sep: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "y_hat", _frozen_array(self.y_hat))
        object.__setattr__(self, "sep", _frozen_array(self.sep))


@dataclass(frozen=True)
class PredictionIntervalSet:
    """Simultaneous per-category bounds produced by one method.

    Multiplier entries are NaN for constructions that take order
    statistics of predictive draws directly instead of scaling ``sep``.
    """

    method: str
    lower: np.ndarray
    upper: np.ndarray
    y_hat: np.ndarray
    sep: np.ndarray
    multiplier_lower: np.ndarray
    multiplier_upper: np.ndarray
    alpha: float

    def __post_init__(self) -> None:
        for name in ("lower", "upper", "y_hat", "sep", "multiplier_lower", "multiplier_upper"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))
        if not (self.lower.shape == self.upper.shape == self.y_hat.shape):
            raise ValidationError("bound arrays must share one shape")
        if np.any(self.lower > self.upper + 1e-12):
            c = int(np.argwhere(self.lower > self.upper + 1e-12)[0, 0])
            raise ValidationError(f"lower bound exceeds upper bound in category {c + 1}")
        if not (np.all(np.isfinite(self.lower)) and np.all(np.isfinite(self.upper))):
            raise ValidationError("interval bounds must be finite")

    @property
    def n_categories(self) -> int:
        return self.lower.shape[0]


def _checked_pi(data: HistoricalDataset, pi) -> np.ndarray:
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (data.n_categories,):
        raise ValidationError(
            f"probability vector has shape {pi.shape}, expected ({data.n_categories},)"
        )
    if np.any(pi <= 0.0):
        c = int(np.argwhere(pi <= 0.0)[0, 0])
        raise ZeroProbability(f"pi[{c}] = {pi[c]} is not strictly positive")
    return pi


def residual_df(n_clusters: int, n_categories: int) -> int:
    """Degrees of freedom left after the pooled probabilities: (K-1)(C-1)."""
    return n_clusters * n_categories - n_clusters - (n_categories - 1)


def pearson_dispersion(counts: np.ndarray, pi: np.ndarray):
    """Pearson chi^2, mean relative residual s_bar and raw Afroz-Fletcher dispersion.

    ``counts`` has shape (..., K, C) and ``pi`` the matching (..., C); each
    K x C table is compared with its cluster-wise expectations n_k * pi.
    The dispersion is chi^2/df / (1 + s_bar), infinite where 1 + s_bar is
    zero, and not clamped.  Inputs are not validated.
    """
    K, C = counts.shape[-2:]
    expected = counts.sum(axis=-1)[..., :, None] * pi[..., None, :]
    resid = counts - expected
    chi2 = (resid * resid / expected).sum(axis=(-2, -1))
    s_bar = (resid / expected).sum(axis=(-2, -1)) / (K * C - K)
    denom = 1.0 + s_bar
    with np.errstate(divide="ignore", invalid="ignore"):
        phi_raw = np.where(denom != 0.0, (chi2 / residual_df(K, C)) / denom, np.inf)
    return chi2, s_bar, phi_raw


def pearson_chi_square(data: HistoricalDataset, pi) -> float:
    """Pearson statistic of the counts against cluster-wise expectations n_k * pi."""
    return float(pearson_dispersion(data.counts, _checked_pi(data, pi))[0])


def afroz_fletcher_dispersion(data: HistoricalDataset, pi) -> float:
    """Bias-corrected Pearson dispersion estimate (may be <= 1; not clamped).

    The correction divides chi^2/df by one plus the mean relative
    residual, which removes the leading small-K bias of the plain
    Pearson ratio.
    """
    return float(pearson_dispersion(data.counts, _checked_pi(data, pi))[2])


def clamp_dispersion(phi_raw, size_bound):
    """Force a raw dispersion estimate into the usable range (1, 0.975*size_bound].

    Estimates at or below 1 (including NaN from fully degenerate fits)
    become 1.01; estimates at or above 97.5% of the smallest relevant
    sample size are truncated so that downstream generation stays valid.
    Broadcasts over arrays; scalar inputs give a float.
    """
    if np.any(np.asarray(size_bound) < 2):
        raise ValidationError(
            f"dispersion clamp needs a sample size of at least 2, got {np.min(size_bound)}"
        )
    cap = 0.975 * np.asarray(size_bound, dtype=float)
    phi = np.where(np.asarray(phi_raw) > 1.0, np.minimum(phi_raw, cap), 1.01)  # NaN -> 1.01
    return float(phi) if phi.ndim == 0 else phi


def prediction_se(pi_c, phi: float, m: int, n_total: int):
    """Standard error of the count prediction m*pi_c for a future cluster.

    Combines the overdispersed sampling variance of the future cluster
    with the estimation variance of the pooled probability, giving
    sqrt(phi * m * pi_c * (1 - pi_c) * (1 + m / n_total)).
    """
    pi_c = np.asarray(pi_c, dtype=float)
    var = phi * m * pi_c * (1.0 - pi_c) * (1.0 + m / n_total)
    return np.sqrt(np.maximum(var, 0.0))


def fit_model(data: HistoricalDataset) -> ModelFit:
    """Pool the clusters and estimate dispersion from the Pearson residuals."""
    totals = data.counts.sum(axis=0)
    if np.any(totals == 0):
        missing = [data.categories[c] for c in np.flatnonzero(totals == 0)]
        raise ZeroCategory(
            "no historical counts in: " + ", ".join(missing)
            + "; either drop the category or add one count to a randomly chosen "
            "cluster (the repair rule used when generating data)"
        )
    if int(data.cluster_sizes.min()) < 2:
        raise ValidationError("every cluster must contain at least 2 units to fit dispersion")
    K, C = data.counts.shape
    pi_hat = totals / data.n_total
    chi2, s_bar, phi_raw = map(float, pearson_dispersion(data.counts, pi_hat))
    phi_hat = clamp_dispersion(phi_raw, int(data.cluster_sizes.min()))
    return ModelFit(
        pi_hat=pi_hat,
        phi_hat=phi_hat,
        phi_raw=phi_raw,
        chi_square=chi2,
        df=residual_df(K, C),
        s_bar=s_bar,
        n_params=C - 1,
        n_total=data.n_total,
    )


def prediction_point(fit: ModelFit, spec: FutureSpec) -> PredictionPoint:
    """Point prediction and standard error for a future cluster of spec.m units."""
    y_hat = spec.m * fit.pi_hat
    sep = prediction_se(fit.pi_hat, fit.phi_hat, spec.m, fit.n_total)
    return PredictionPoint(y_hat=y_hat, sep=sep)


def interval_set(
    method: str,
    point: PredictionPoint,
    spec: FutureSpec,
    lower,
    upper,
    mult_lower=np.nan,
    mult_upper=np.nan,
) -> PredictionIntervalSet:
    """Assemble one method's bounds, clipped to the count range [0, m].

    This is the only place bounds are clipped.  Counts lie in [0, m], so
    the clip never changes containment or coverage; where the multipliers
    are finite, the unclipped band is y_hat -/+ multiplier*sep.
    """
    lower = np.clip(lower, 0.0, spec.m)
    upper = np.clip(upper, 0.0, spec.m)
    C = point.y_hat.shape[0]
    return PredictionIntervalSet(
        method=method,
        lower=lower,
        upper=upper,
        y_hat=point.y_hat,
        sep=point.sep,
        multiplier_lower=np.broadcast_to(np.asarray(mult_lower, dtype=float), (C,)),
        multiplier_upper=np.broadcast_to(np.asarray(mult_upper, dtype=float), (C,)),
        alpha=spec.alpha,
    )


def scaled_interval_set(
    method: str,
    point: PredictionPoint,
    mult_lower,
    mult_upper,
    spec: FutureSpec,
) -> PredictionIntervalSet:
    """Assemble y_hat -/+ multiplier*sep bounds, clipped to the count range [0, m]."""
    lower = point.y_hat - np.asarray(mult_lower, dtype=float) * point.sep
    upper = point.y_hat + np.asarray(mult_upper, dtype=float) * point.sep
    return interval_set(method, point, spec, lower, upper, mult_lower, mult_upper)
