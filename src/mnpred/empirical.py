"""Order-statistic and rank utilities shared by the resampling methods."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRankWarning, ValidationError

__all__ = ["nearest_rank_quantile", "RankSummary", "rank_summary"]


def nearest_rank_quantile(values, p: float) -> float:
    """Empirical quantile under the nearest-rank convention k = ceil(p*N)."""
    values = np.asarray(values, dtype=float).ravel()
    if values.shape[0] == 0:
        raise ValidationError("quantile of an empty sample")
    if not 0.0 < p <= 1.0:
        raise ValidationError(f"quantile level must lie in (0, 1], got {p}")
    k = int(np.ceil(p * values.shape[0]))
    k = min(max(k, 1), values.shape[0])
    return float(np.partition(values, k - 1)[k - 1])


@dataclass(frozen=True)
class RankSummary:
    """Column ranks, per-row extremity scores, and the critical rank tau_star.

    Row b's score is how far its most extreme coordinate sits from the
    centre of the ensemble: w_b = max(max_c r_bc, B + 1 - min_c r_bc).
    tau_star is the score order statistic at the nearest integer to
    (1 - alpha) * B (ties rounded half-up), so bounds taken at ranks
    tau_star and B + 1 - tau_star cover about 1 - alpha of the rows
    simultaneously in every column.
    """

    ranks: np.ndarray
    scores: np.ndarray
    tau_star: int
    alpha: float

    @property
    def n_rows(self) -> int:
        return self.ranks.shape[0]


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
    ranks = np.empty((B, C), dtype=np.int64)
    ranks[order, np.arange(C)[None, :]] = np.arange(1, B + 1)[:, None]
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
    return RankSummary(ranks=ranks, scores=scores, tau_star=tau_star, alpha=alpha)
