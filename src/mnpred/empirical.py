"""Order-statistic kernels shared by every ensemble-calibrated interval method."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRankWarning, ValidationError

__all__ = ["nearest_rank_quantile", "max_abs_quantile", "RankSummary", "rank_summary"]


def nearest_rank_quantile(values, p: float) -> float | np.ndarray:
    """Empirical quantile under the nearest-rank convention k = ceil(p*N).

    A 2-D sample gives one quantile per column; any other is flattened.
    """
    values = np.asarray(values, dtype=float)
    columns = values.T if values.ndim == 2 else values.reshape(1, -1)
    n = columns.shape[1]
    if n == 0:
        raise ValidationError("quantile of an empty sample")
    if not 0.0 < p <= 1.0:
        raise ValidationError(f"quantile level must lie in (0, 1], got {p}")
    k = min(max(int(np.ceil(p * n)), 1), n)
    # Each column is partitioned as its own contiguous copy, which measured
    # fastest: along axis 0 of the B x C array it is about 3x slower, and
    # through one transposed B x C copy about 2x.
    out = np.array([np.partition(col, k - 1)[k - 1] for col in columns])
    return out if values.ndim == 2 else float(out[0])


def max_abs_quantile(z: np.ndarray, alpha: float) -> float:
    """Smallest q with |z| <= q in every column for a 1 - alpha share of the rows."""
    return nearest_rank_quantile(np.abs(z).max(axis=1), 1.0 - alpha)


@dataclass(frozen=True)
class RankSummary:
    """Column ranks, per-row extremity scores, the critical rank tau_star and its bounds.

    Row b's score is how far its most extreme coordinate sits from the
    centre of the ensemble: w_b = max(max_c r_bc, B + 1 - min_c r_bc).
    tau_star is the score order statistic at the nearest integer to
    (1 - alpha) * B (ties rounded half-up), so bounds taken at ranks
    tau_star and B + 1 - tau_star cover about 1 - alpha of the rows
    simultaneously in every column.  ``lower`` and ``upper`` hold each
    column's order statistic at ranks B + 1 - tau_star and tau_star.
    """

    ranks: np.ndarray
    scores: np.ndarray
    tau_star: int
    alpha: float
    lower: np.ndarray
    upper: np.ndarray


def rank_summary(values: np.ndarray, alpha: float) -> RankSummary:
    """Rank each column of a B x C ensemble and locate the critical rank.

    Ties within a column are broken by row order (stable sort), so every
    column is a permutation of 1..B and the result is deterministic.
    """
    values = np.asarray(values)
    if values.ndim != 2 or values.shape[0] < 2:
        raise ValidationError("need a 2-D ensemble with at least 2 rows")
    B, C = values.shape
    order = np.argsort(values, axis=0, kind="stable")
    cols = np.arange(C)
    ranks = np.empty((B, C), dtype=np.int64)
    ranks[order, cols[None, :]] = np.arange(1, B + 1)[:, None]
    scores = np.maximum(ranks.max(axis=1), B + 1 - ranks.min(axis=1))
    k = int(np.floor((1.0 - alpha) * B + 0.5))
    k = min(max(k, 1), B)
    tau_star = int(np.sort(scores)[k - 1])
    if tau_star == B:
        warnings.warn(
            f"critical rank reached the ensemble edge (tau* = B = {B}); "
            "bounds fall back to the most extreme replicates, which is "
            "conservative -- consider a larger ensemble",
            DegenerateRankWarning,
            stacklevel=2,
        )
    lower, upper = values[order[B - tau_star], cols], values[order[tau_star - 1], cols]
    return RankSummary(ranks, scores, tau_star, alpha, lower, upper)
