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

from .dm import draw_dm_counts, repair_zero_columns_in_place, sample_dm_matrix
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
    prediction_se,
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

# An ensemble block holds at most 500 replicates and _BLOCK_CELLS table cells,
# so each per-block table stays near half a MB whatever K*C is.  The block is
# part of the draw layout: an ensemble larger than one block draws each
# block's gammas, multinomial and repair integers in turn, so a new block
# rule moves its bytes.
_BLOCK_CELLS = 1 << 16


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

    The replicates are drawn, repaired and refitted one block at a time,
    so no B x K x C table is ever held.
    """
    gen = require_stream(rng, "build_ensemble").generator()
    B = int(B)
    if B < 2:
        raise ValidationError("ensemble needs at least 2 replicates")
    m = spec.m
    sizes = data.cluster_sizes
    C = fit.pi_hat.shape[0]

    # Vectorised refit, replicating fit_model row for row.
    N_star = np.empty(B)
    pi_star = np.empty((B, C))
    phi_raw = np.empty(B)
    n_min = np.empty(B, dtype=np.int64)
    block = max(1, min(500, _BLOCK_CELLS // (sizes.shape[0] * C)))
    for i in range(0, B, block):
        rows = slice(i, i + block)
        # Looked up in this module's globals at call time, so a wrapper set as
        # bootstrap.sample_dm_matrix (perfbench's dm.sample_dm_matrix span)
        # sees every block's draw.
        counts = sample_dm_matrix(sizes, fit.pi_hat, fit.phi_hat, gen, size=min(block, B - i))
        repair_zero_columns_in_place(counts, gen)
        n_star = counts.sum(axis=2)                      # (block, K)
        N_star[rows] = n_star.sum(axis=1)
        pi_star[rows] = counts.sum(axis=1) / N_star[rows, None]
        phi_raw[rows] = pearson_dispersion(counts, pi_star[rows])[2]
        n_min[rows] = n_star.min(axis=1)
    phi_star = clamp_dispersion(phi_raw, n_min)

    y_hat_star = m * pi_star
    sep_star = prediction_se(pi_star, phi_star[:, None], m, N_star[:, None])

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
    ensemble: BootstrapEnsemble, fit: ModelFit, spec: FutureSpec
) -> PredictionIntervalSet:
    q = symmetric_multiplier(ensemble.z, spec.alpha)
    return scaled_interval_set("symmetric", prediction_point(fit, spec), q, q, spec)


def asymmetric_calibration(
    ensemble: BootstrapEnsemble, fit: ModelFit, spec: FutureSpec
) -> PredictionIntervalSet:
    q_lo, q_hi = asymmetric_multipliers(ensemble.z, spec.alpha)
    return scaled_interval_set("asymmetric", prediction_point(fit, spec), q_lo, q_hi, spec)


def marginal_calibration(
    ensemble: BootstrapEnsemble, fit: ModelFit, spec: FutureSpec
) -> PredictionIntervalSet:
    q_lo, q_hi = marginal_multipliers(ensemble.z, spec.alpha)
    return scaled_interval_set("marginal", prediction_point(fit, spec), q_lo, q_hi, spec)


def masr_interval(
    ensemble: BootstrapEnsemble, fit: ModelFit, spec: FutureSpec
) -> PredictionIntervalSet:
    q = masr_multiplier(ensemble.z, spec.alpha)
    return scaled_interval_set("masr", prediction_point(fit, spec), q, q, spec)


def rank_scs_interval(
    ensemble: BootstrapEnsemble, fit: ModelFit, spec: FutureSpec
) -> PredictionIntervalSet:
    q_lo, q_hi = rank_multipliers(ensemble.z, spec.alpha)
    return scaled_interval_set("rank-scs", prediction_point(fit, spec), q_lo, q_hi, spec)
