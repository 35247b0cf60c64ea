"""Parametric bootstrap calibration of simultaneous prediction intervals.

The ensemble refits the quasi-multinomial model to B synthetic
historical datasets drawn at the fitted parameters, draws a future
cluster for each, and keeps the studentised residuals
z_b = (y*_b - y_hat*_b) / sep*_b.  Interval multipliers are then read
off the ensemble as order statistics.  Empirical coverage is a step
function of one ensemble statistic (max|z|, max(-z) or max(z) over
categories, or one column of z), so the smallest multiplier that
reaches a coverage target is that statistic's nearest-rank quantile.
The distribution-free rank construction takes its bounds from the
column order statistics at a critical rank.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dm import draw_dm_counts, repair_zero_columns, sample_dm_matrix
from .empirical import max_abs_quantile, nearest_rank_quantile, rank_summary
from .errors import DegenerateRankWarning, ValidationError
from .model import (
    FutureSpec,
    HistoricalDataset,
    ModelFit,
    PredictionIntervalSet,
    clamp_dispersion,
    pearson_dispersion,
    prediction_point,
    scaled_interval_set,
)
from .rng import RngStream, require_stream

__all__ = [
    "BootstrapEnsemble",
    "build_ensemble",
    "symmetric_multiplier",
    "asymmetric_multipliers",
    "marginal_multipliers",
    "masr_multiplier",
    "rank_multipliers",
    "symmetric_calibration",
    "asymmetric_calibration",
    "marginal_calibration",
    "masr_interval",
    "rank_scs_interval",
]

# Replicates per refit block: the Pearson residual temporaries then cover
# 500 tables at a time, not the whole (B, K, C) ensemble.  Each replicate's
# sums run over its own table only, so the block size never moves a byte.
_REFIT_BLOCK = 500


@dataclass(frozen=True)
class BootstrapEnsemble:
    """Refitted predictions, futures, and studentised residuals, one row per replicate."""

    y_hat_star: np.ndarray
    sep_star: np.ndarray
    y_star: np.ndarray
    z: np.ndarray

    @property
    def n_replicates(self) -> int:
        return self.z.shape[0]

    @property
    def n_categories(self) -> int:
        return self.z.shape[1]


def build_ensemble(
    fit: ModelFit,
    data: HistoricalDataset,
    spec: FutureSpec,
    B: int,
    rng: RngStream,
) -> BootstrapEnsemble:
    """Draw and refit B synthetic replicates of the whole prediction problem.

    Each replicate redraws the historical matrix at the fitted
    parameters (empty categories repaired so the refit is always
    defined), refits pooled probabilities and dispersion exactly as
    ``fit_model`` does, and draws one future cluster of m units with
    the dispersion re-truncated to 97.5% of m.

    Peak memory is about 2 x B*K*C*8 bytes: the float Dirichlet draw and
    the int64 multinomial counts drawn from it, and later the counts and
    the copy that ``repair_zero_columns`` makes.  Unequal cluster sizes
    make one draw per distinct size and copy each into the stacked
    counts; that buffer is live while each size is drawn, so the peak
    reaches about 3 x when one size holds almost every cluster.  The
    refit runs over blocks of replicates, so its temporaries stay small.
    """
    gen = require_stream(rng, "build_ensemble").generator()
    B = int(B)
    if B < 2:
        raise ValidationError("ensemble needs at least 2 replicates")
    m = spec.m
    sizes = data.cluster_sizes

    counts = sample_dm_matrix(sizes, fit.pi_hat, fit.phi_hat, gen, size=B)
    counts = repair_zero_columns(counts, gen)

    # Vectorised refit, replicating fit_model row for row.
    n_star = counts.sum(axis=2)                          # (B, K)
    totals = counts.sum(axis=1)                          # (B, C)
    N_star = n_star.sum(axis=1).astype(float)            # (B,)
    pi_star = totals / N_star[:, None]
    phi_raw = np.concatenate(
        [
            pearson_dispersion(counts[i : i + _REFIT_BLOCK], pi_star[i : i + _REFIT_BLOCK])[2]
            for i in range(0, B, _REFIT_BLOCK)
        ]
    )
    cap = 0.975 * n_star.min(axis=1)
    phi_star = np.where(phi_raw > 1.0, np.minimum(phi_raw, cap), 1.01)

    y_hat_star = m * pi_star
    var = phi_star[:, None] * m * pi_star * (1.0 - pi_star) * (1.0 + m / N_star[:, None])
    sep_star = np.sqrt(np.maximum(var, 0.0))

    phi_future = clamp_dispersion(fit.phi_hat, m) if m >= 2 else fit.phi_hat
    y_star = draw_dm_counts(m, fit.pi_hat, phi_future, gen, size=B)

    z = (y_star - y_hat_star) / sep_star
    return BootstrapEnsemble(y_hat_star=y_hat_star, sep_star=sep_star, y_star=y_star, z=z)


def asymmetric_multipliers(z: np.ndarray, alpha: float) -> tuple[float, float]:
    """Separate lower and upper multipliers, each calibrated to 1 - alpha/2."""
    target = 1.0 - alpha / 2.0
    q_lo = nearest_rank_quantile((-z).max(axis=1), target)
    q_hi = nearest_rank_quantile(z.max(axis=1), target)
    return q_lo, q_hi


def marginal_multipliers(z: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-category, per-side multipliers calibrated to 1 - alpha/(2C).

    A quantile can be negative for a rare category in a small future
    cluster; it is floored at zero so the interval still includes the
    point prediction.
    """
    target = 1.0 - alpha / (2.0 * z.shape[1])
    q_lo = nearest_rank_quantile(-z, target)
    q_hi = nearest_rank_quantile(z, target)
    return np.maximum(q_lo, 0.0), np.maximum(q_hi, 0.0)


# masr and symmetric are one statistic under two method ids.
masr_multiplier = symmetric_multiplier = max_abs_quantile


def rank_multipliers(z: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-category multipliers from the rank-based simultaneous construction.

    The critical rank tau* picks one order statistic per tail of each
    category's residuals: the lower multiplier is the absolute value of
    the (B+1-tau*)-th order statistic, the upper multiplier the tau*-th.
    An upper order statistic can be negative when a category's residual
    distribution is strongly skewed; it is then floored at zero (with a
    diagnostic) so the interval still includes the point prediction.
    """
    summary = rank_summary(z, alpha)
    q_lo = np.abs(summary.lower)
    q_hi = summary.upper
    if np.any(q_hi < 0.0):
        bad = np.flatnonzero(q_hi < 0.0)
        warnings.warn(
            f"upper rank order statistic negative in categories {bad + 1}; "
            "floored at the point prediction",
            DegenerateRankWarning,
            stacklevel=2,
        )
        q_hi = np.maximum(q_hi, 0.0)
    return q_lo, q_hi


def symmetric_calibration(
    ensemble: BootstrapEnsemble,
    fit: ModelFit,
    spec: FutureSpec,
    clip: bool = True,
) -> PredictionIntervalSet:
    q = symmetric_multiplier(ensemble.z, spec.alpha)
    return scaled_interval_set("symmetric", prediction_point(fit, spec), q, q, spec, clip=clip)


def asymmetric_calibration(
    ensemble: BootstrapEnsemble,
    fit: ModelFit,
    spec: FutureSpec,
    clip: bool = True,
) -> PredictionIntervalSet:
    q_lo, q_hi = asymmetric_multipliers(ensemble.z, spec.alpha)
    return scaled_interval_set(
        "asymmetric", prediction_point(fit, spec), q_lo, q_hi, spec, clip=clip
    )


def marginal_calibration(
    ensemble: BootstrapEnsemble,
    fit: ModelFit,
    spec: FutureSpec,
    clip: bool = True,
) -> PredictionIntervalSet:
    q_lo, q_hi = marginal_multipliers(ensemble.z, spec.alpha)
    return scaled_interval_set(
        "marginal", prediction_point(fit, spec), q_lo, q_hi, spec, clip=clip
    )


def masr_interval(
    ensemble: BootstrapEnsemble,
    fit: ModelFit,
    spec: FutureSpec,
    clip: bool = True,
) -> PredictionIntervalSet:
    q = masr_multiplier(ensemble.z, spec.alpha)
    return scaled_interval_set("masr", prediction_point(fit, spec), q, q, spec, clip=clip)


def rank_scs_interval(
    ensemble: BootstrapEnsemble,
    fit: ModelFit,
    spec: FutureSpec,
    clip: bool = True,
) -> PredictionIntervalSet:
    q_lo, q_hi = rank_multipliers(ensemble.z, spec.alpha)
    return scaled_interval_set(
        "rank-scs", prediction_point(fit, spec), q_lo, q_hi, spec, clip=clip
    )
