"""Order-statistic kernels shared by every ensemble-calibrated interval method."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRankWarning, ValidationError

__all__ = [
    "nearest_rank_quantile",
    "nearest_rank_in_place",
    "nearest_rank_tails",
    "row_extreme",
    "max_abs_quantile",
    "RankSummary",
    "rank_summary",
]


def _nearest_rank_index(n: int, p: float) -> int:
    """Zero-based position k - 1 of the nearest-rank p quantile, k = ceil(p*n), in a sample of n."""
    if n == 0:
        raise ValidationError("quantile of an empty sample")
    if not 0.0 < p <= 1.0:
        raise ValidationError(f"quantile level must lie in (0, 1], got {p}")
    return min(max(int(np.ceil(p * n)), 1), n) - 1


def nearest_rank_quantile(values, p: float) -> float | np.ndarray:
    """Empirical quantile under the nearest-rank convention k = ceil(p*N).

    A 2-D sample gives one quantile per column; any other is flattened.
    An integer sample (the predictive counts) is partitioned in its own
    dtype and the picked values returned as floats, so no float copy of
    it is made; rounding to float keeps the order, so the values are
    those of a float copy.
    """
    values = np.asarray(values)
    if values.dtype.kind not in "iu":
        values = values.astype(float, copy=False)
    columns = values.T if values.ndim == 2 else values.reshape(1, -1)
    k = _nearest_rank_index(columns.shape[1], p)
    # Each column is partitioned as its own copy, which measured fastest:
    # along axis 0 of the B x C array it is about 3x slower, and through one
    # transposed B x C copy about 2x.  On the category-major ensemble z each
    # column is contiguous, so its copy is too.
    out = np.array([np.partition(col, k)[k] for col in columns], dtype=float)
    return out if values.ndim == 2 else float(out[0])


def nearest_rank_tails(values: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """``nearest_rank_quantile`` of -values and of values, per column of a 2-D sample.

    The p quantile of -x is minus the order statistic of x at the mirrored
    rank, and negation is exact, so no negated B x C table is made.  Each
    tail partitions its own copy of the column: one partition at both
    ranks measured about 3x slower at B = 10000.
    """
    values = np.asarray(values, dtype=float)
    B = values.shape[0]
    k = _nearest_rank_index(B, p)
    lo, hi = np.empty(values.shape[1]), np.empty(values.shape[1])
    for c, col in enumerate(values.T):
        lo[c] = -np.partition(col, B - 1 - k)[B - 1 - k]
        hi[c] = np.partition(col, k)[k]
    return lo, hi


def nearest_rank_in_place(values: np.ndarray, p: float) -> float:
    """``nearest_rank_quantile`` of a 1-D float array, read by partitioning the array itself.

    Saves the partition copy; the array is left reordered, so pass only a
    private scratch vector.
    """
    k = _nearest_rank_index(values.shape[0], p)
    values.partition(k)
    return float(values[k])


def row_extreme(values: np.ndarray, fold=np.maximum, absolute: bool = False) -> np.ndarray:
    """``fold.reduce(values, axis=1)`` of a 2-D array, or of |values| with ``absolute``.

    ``fold`` is ``np.maximum`` or ``np.minimum``.  The columns are folded
    one at a time into a fresh vector, which takes the same exact values as
    numpy's reduction along the short row axis but is fast for any memory
    layout; reducing along axis 1 of a C-order B x 5 array is about 20x
    slower.  With ``absolute`` one scratch column holds each |column|, so
    no |values| table is made.
    """
    columns = iter(values.T)
    out = np.abs(next(columns)) if absolute else next(columns).copy()
    scratch = np.empty_like(out) if absolute else None
    for col in columns:
        fold(out, np.abs(col, out=scratch) if absolute else col, out=out)
    return out


def max_abs_quantile(z: np.ndarray, alpha: float) -> float:
    """Smallest q with |z| <= q in every column for a 1 - alpha share of the rows."""
    max_abs = row_extreme(np.asarray(z, dtype=float), absolute=True)
    return nearest_rank_in_place(max_abs, 1.0 - alpha)


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


# Integer ensembles inside this range are ranked by numpy's radix sort on int16.
_INT16 = np.iinfo(np.int16)


def _tie_broken_order(col: np.ndarray) -> np.ndarray:
    """``np.argsort(col, kind="stable")`` of a 1-D column, from the unstable sort.

    After the unstable sort each run of equal values (a run that mixes
    -0.0 and 0.0 included) and the closing run of NaNs is put back in row
    order: the stable sort's order, since it ranks equal values, and NaNs,
    by row index.
    """
    order = np.argsort(col)
    srt = col[order]
    tied = srt[1:] == srt[:-1]
    if srt.dtype.kind == "f" and np.isnan(srt[-1]):
        tied |= np.isnan(srt[:-1])  # NaNs sort last and compare unequal
    del srt  # freed before the repair
    if tied.any():
        # Positions in a tied run, keyed by (run, row): sorting the keys puts
        # each run's rows in order and leaves the runs where they are.  A
        # run's members are consecutive and only its first has ``starts``
        # set, so counting the members' starts numbers the runs.
        B = col.shape[0]
        starts = np.ones(B, dtype=bool)
        starts[1:] = ~tied
        member = ~starts
        member[:-1] |= tied
        run = np.cumsum(starts[member])
        order[member] = np.sort(run * B + order[member]) - run * B
    return order


def rank_summary(values: np.ndarray, alpha: float) -> RankSummary:
    """Rank each column of a B x C ensemble and locate the critical rank.

    Ties within a column are broken by row order, so every column is a
    permutation of 1..B and the result is deterministic: the order is
    exactly ``np.argsort(values, axis=0, kind="stable")``, NaNs last in row
    order.  No float column is stable-sorted: integers within int16 (the
    predictive counts) take numpy's radix sort of an int16 copy, anything
    else the unstable sort with its ties put back in row order
    (``_tie_broken_order``).  The orders and ranks are held category-major
    and the scores' row extremes folded column by column (``row_extreme``).
    """
    values = np.asarray(values)
    if values.ndim != 2 or values.shape[0] < 2:
        raise ValidationError("need a 2-D ensemble with at least 2 rows")
    B, C = values.shape
    radix = values.dtype.kind in "biu" and (
        _INT16.min <= values.min() and values.max() <= _INT16.max
    )
    order = np.empty((B, C), dtype=np.intp, order="F")
    ranks = np.empty((B, C), dtype=np.int64, order="F")
    positions = np.arange(1, B + 1)
    for c in range(C):
        col = values[:, c]
        if radix:
            order[:, c] = np.argsort(col.astype(np.int16), kind="stable")
        else:
            order[:, c] = _tie_broken_order(np.ascontiguousarray(col))
        ranks[order[:, c], c] = positions
    lowest = row_extreme(ranks, np.minimum)
    scores = np.maximum(row_extreme(ranks), np.subtract(B + 1, lowest, out=lowest), out=lowest)
    k = int(np.floor((1.0 - alpha) * B + 0.5))
    k = min(max(k, 1), B)
    tau_star = int(np.partition(scores, k - 1)[k - 1])
    if tau_star == B:
        warnings.warn(
            f"critical rank reached the ensemble edge (tau* = B = {B}); "
            "bounds fall back to the most extreme replicates, which is "
            "conservative -- consider a larger ensemble",
            DegenerateRankWarning,
            stacklevel=2,
        )
    cols = np.arange(C)
    lower, upper = values[order[B - tau_star], cols], values[order[tau_star - 1], cols]
    return RankSummary(ranks, scores, tau_star, alpha, lower, upper)
