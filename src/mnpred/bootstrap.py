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

from .dm import InversionTable, draw_dm_counts, repair_zero_columns, sample_dm_matrix
from .empirical import (
    max_abs_quantile,
    nearest_rank_in_place,
    nearest_rank_tails,
    rank_summary,
    row_extreme,
)
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
from .pool import run_in_order
from .rng import RngStream, require_stream

__all__ = [
    "MIN_REPLICATES",
    "BootstrapEnsemble",
    "build_ensemble",
    "asymmetric_multipliers",
    "marginal_multipliers",
    "rank_multipliers",
    "symmetric_calibration",
    "asymmetric_calibration",
    "marginal_calibration",
    "masr_interval",
    "rank_scs_interval",
]

# An ensemble block holds at most 500 replicates and _BLOCK_CELLS table cells,
# so each per-block table stays near half a MB whatever K*C is.  The block is
# part of the draw layout: block j draws its counts, repair integers and future
# clusters from substream j of the ensemble stream, so a new block rule moves
# the bytes of any ensemble larger than one block.
_BLOCK_CELLS = 1 << 16

# The ensemble's inversion tables hold at most _TABLE_CELLS conditional-CDF
# cells (1.5 MB of float64, and int16 guides of at most about half that).  The
# first band mass in _BAND_MASSES whose tables fit is used: 0 for full tables,
# else a band that leaves each category's rows and columns out to that mass
# (dm.InversionTable), whose draws are the full table's, bit for bit.  Past
# 1e-2 the band's exact fallbacks would cost more than they save, so an
# ensemble whose tables fit at no mass draws gammas and multinomials.
_TABLE_CELLS = 3 << 16
_BAND_MASSES = (0.0, 1e-3, 1e-2)

# The rank summary (empirical.rank_summary) needs at least two ensemble rows.
MIN_REPLICATES = 2


@dataclass(frozen=True)
class BootstrapEnsemble:
    """Studentised residuals z_b = (y*_b - y_hat*_b) / sep*_b, one row per replicate."""

    z: np.ndarray


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

    The replicates are drawn, repaired, refitted and studentised one
    block at a time, block j from ``rng.child(j)``, so no B x K x C
    table is ever held; a block's refit and futures are dropped once
    its rows of z are computed.  The blocks run on the package's worker
    processes (``pool.run_in_order``; inline when the caller is already a
    worker, as in a simulate worker or a predict call whose priors run
    beside it), and their rows are copied into z in block order, so the
    bytes are the same for any number of workers.

    Clusters are drawn exactly by inversion (``dm.InversionTable``) from
    one table per distinct historical size and one for m, built here
    once and only read by the blocks.  The tables are full while they
    hold at most _TABLE_CELLS conditional-CDF cells, (C - 1)(n + 1)^2 per
    size, and else bands at the first mass of _BAND_MASSES that fits;
    their draws are the same either way.  Ensembles whose bands do not
    fit either (many distinct large cluster sizes, say) draw Dirichlet
    gammas and multinomials instead.

    z is held category-major (Fortran order), so each category's B
    residuals are contiguous for the calibrations' partitions and sorts.
    Only exact operations read it (comparisons, max, min, negation), so
    the layout moves no value; ``z.tobytes()`` gives the rows in C order.
    """
    rng = require_stream(rng, "build_ensemble")
    B = int(B)
    if B < MIN_REPLICATES:
        raise ValidationError(f"ensemble needs at least {MIN_REPLICATES} replicates")
    m = spec.m
    sizes = data.cluster_sizes
    C = fit.pi_hat.shape[0]
    phi_future = clamp_dispersion(fit.phi_hat, m) if m >= 2 else fit.phi_hat
    # The future shares a historical size's table when m and its dispersion match.
    distinct = [int(n) for n in np.unique(sizes)]
    shared = m in distinct and phi_future == fit.phi_hat
    needed = [(n, fit.phi_hat) for n in distinct] + ([] if shared else [(m, phi_future)])
    tables = future = None
    # A band also holds its log-pmf terms, about 4 (C - 1)(n + 1) floats per size.
    band_terms = 4 * (C - 1) * (max(n for n, _ in needed) + 1)
    for mass in _BAND_MASSES:
        if mass and band_terms > _TABLE_CELLS:
            break
        cells = sum(InversionTable.band_cells(n, fit.pi_hat, phi, mass) for n, phi in needed)
        if cells <= _TABLE_CELLS:
            tables = {n: InversionTable(n, fit.pi_hat, fit.phi_hat, mass) for n in distinct}
            future = tables[m] if shared else InversionTable(m, fit.pi_hat, phi_future, mass)
            break
    z = np.empty((B, C), order="F")
    block = max(1, min(500, _BLOCK_CELLS // (sizes.shape[0] * C)))

    def fill(j: int) -> np.ndarray:
        gen = rng.child(j).generator()
        size = min(block, B - j * block)
        # Looked up in this module's globals at call time, so a wrapper set as
        # bootstrap.sample_dm_matrix (perfbench's dm.sample_dm_matrix span)
        # sees the draw of every block that runs in its process.
        counts = sample_dm_matrix(sizes, fit.pi_hat, fit.phi_hat, gen, size=size, tables=tables)
        # The refit of fit_model, one replicate per row.  Each drawn cluster
        # holds its historical size, so the sizes are those plus the repair's
        # units, and the repair's column totals are the refit's.  Inversion
        # draws come category-major; pearson_dispersion's float sums run over
        # C-order temporaries (numpy's choice when operand layouts differ), so
        # the layout moves no value, which tests/test_full_precision.py pins.
        totals = counts.sum(axis=1)
        added = repair_zero_columns(counts, totals, gen)
        n_star = np.tile(sizes, (size, 1))
        np.add.at(n_star, added, 1)
        N_star = n_star.sum(axis=1)
        pi_star = totals / N_star[:, None]
        phi_raw = pearson_dispersion(counts, pi_star, n_star)[2]
        phi_star = clamp_dispersion(phi_raw, n_star.min(axis=1))
        del counts  # freed before the future clusters are drawn
        sep = prediction_se(pi_star, phi_star[:, None], m, N_star[:, None])
        y = draw_dm_counts(m, fit.pi_hat, phi_future, gen, size=size, table=future)
        return (y - m * pi_star) / sep

    starts = iter(range(0, B, block))

    def merge(rows: np.ndarray) -> None:
        start = next(starts)
        z[start : start + block] = rows

    run_in_order(fill, -(-B // block), merge)
    return BootstrapEnsemble(z=z)


def asymmetric_multipliers(z: np.ndarray, alpha: float) -> tuple[float, float]:
    """Separate lower and upper multipliers, each calibrated to 1 - alpha/2."""
    target = 1.0 - alpha / 2.0
    lowest = row_extreme(z, np.minimum)
    # max_c(-z) is exactly -min_c(z), so no negated table is made.
    q_lo = nearest_rank_in_place(np.negative(lowest, out=lowest), target)
    q_hi = nearest_rank_in_place(row_extreme(z), target)
    return q_lo, q_hi


def marginal_multipliers(z: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-category, per-side multipliers calibrated to 1 - alpha/(2C).

    A quantile can be negative for a rare category in a small future
    cluster; it is floored at zero so the interval still includes the
    point prediction.
    """
    target = 1.0 - alpha / (2.0 * z.shape[1])
    q_lo, q_hi = nearest_rank_tails(z, target)
    return np.maximum(q_lo, 0.0), np.maximum(q_hi, 0.0)


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
    q = max_abs_quantile(ensemble.z, spec.alpha)
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
    q = max_abs_quantile(ensemble.z, spec.alpha)
    return scaled_interval_set("masr", prediction_point(fit, spec), q, q, spec)


def rank_scs_interval(
    ensemble: BootstrapEnsemble, fit: ModelFit, spec: FutureSpec
) -> PredictionIntervalSet:
    q_lo, q_hi = rank_multipliers(ensemble.z, spec.alpha)
    return scaled_interval_set("rank-scs", prediction_point(fit, spec), q_lo, q_hi, spec)
