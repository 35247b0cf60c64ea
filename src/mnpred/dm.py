"""Dirichlet-multinomial data generation with a targeted dispersion factor.

A cluster of n units drawn as x ~ Multinomial(n, p) with
p ~ Dirichlet(eta0 * pi) has mean n*pi and covariance inflated by
phi = (n + eta0) / (1 + eta0) relative to the plain multinomial.
Inverting that relation gives the concentration eta0 = (n - phi)/(phi - 1)
that realises a requested phi exactly, which is how all synthetic data
in this package are produced.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidDispersion, ValidationError, ZeroProbability
from .model import HistoricalDataset
from .rng import RngStream, require_stream

# The draws that pass one live Generator along stay out; the public ones take an RngStream.
__all__ = [
    "derive_eta0",
    "dm_dispersion",
    "sample_dm_counts",
    "generate_dataset",
]

# Retry budget for redrawing Dirichlet rows whose gamma draws all
# underflow to zero (possible only for very small concentrations).
_MAX_REDRAWS = 1000


def derive_eta0(n: int | float, phi: float) -> float:
    """Concentration that gives dispersion phi at cluster size n."""
    if not 1.0 < phi < n:
        raise InvalidDispersion(f"need 1 < phi < cluster size, got phi={phi} at size {n}")
    return (float(n) - phi) / (phi - 1.0)


def dm_dispersion(n: int | float, eta0: float) -> float:
    """Dispersion factor (n + eta0)/(1 + eta0) of the DM at concentration eta0."""
    if eta0 <= 0.0:
        raise InvalidDispersion(f"concentration must be positive, got {eta0}")
    return (float(n) + eta0) / (1.0 + eta0)


def sample_dirichlet(eta, gen: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Dirichlet draws via normalised gammas, robust to tiny concentrations.

    ``eta`` may be a single concentration vector, optionally expanded to
    ``size`` independent draws, or an arbitrary batch with vectors along
    the last axis.  Rows whose gamma draws all underflow to zero are
    redrawn rather than returned as NaN.  The result is a fresh array:
    the gammas are drawn from a broadcast view of ``eta`` (the caller's
    ``eta`` is never written) and normalised in place, so a draw of
    ``rows`` vectors allocates one rows x C float buffer.
    """
    eta = np.asarray(eta, dtype=float)
    if eta.ndim == 0 or eta.shape[-1] < 1:
        raise ValidationError("concentration vectors must lie along the last axis")
    if np.any(eta <= 0.0):
        raise ZeroProbability("Dirichlet concentrations must be strictly positive")
    out_shape = eta.shape if size is None else (int(size),) + eta.shape
    if size is not None:
        if eta.ndim != 1:
            raise ValidationError("size expansion needs a 1-D concentration vector")
        eta = np.broadcast_to(eta, out_shape)
    C = eta.shape[-1]
    flat_eta = eta.reshape(-1, C)
    g = gen.gamma(shape=flat_eta)
    total = g.sum(axis=1)
    for _ in range(_MAX_REDRAWS):
        dead = np.flatnonzero(total == 0.0)
        if dead.shape[0] == 0:
            break
        g[dead] = gen.gamma(shape=flat_eta[dead])
        total[dead] = g[dead].sum(axis=1)
    else:
        # Concentrations this deep in the underflow regime carry no usable
        # shape information; fall back to the mean direction.
        dead = total == 0.0
        g[dead] = flat_eta[dead]
        total[dead] = g[dead].sum(axis=1)
    g /= total[:, None]
    return g.reshape(out_shape)


def sample_dm_counts(n: int, pi, phi: float, rng: RngStream, size: int | None = None) -> np.ndarray:
    """One future cluster (or ``size`` of them) of n units at dispersion phi.

    Categories with pi exactly zero stay structurally empty.  A single
    unit (n = 1) is drawn straight from Multinomial(1, pi): its marginal
    law under the DM does not depend on the concentration.
    """
    return draw_dm_counts(n, pi, phi, require_stream(rng, "sample_dm_counts").generator(), size)


def draw_dm_counts(
    n: int, pi, phi: float, gen: np.random.Generator, size: int | None = None
) -> np.ndarray:
    """``sample_dm_counts`` drawing from a live generator.

    Structural zeros are spread into a zero-filled probability array
    before the multinomial draw.
    """
    pi = _checked_probs(pi)
    n = int(n)
    if n < 1:
        raise ValidationError(f"cluster size must be positive, got {n}")
    if n == 1:
        return gen.multinomial(1, pi, size=size)
    eta0 = derive_eta0(n, phi)
    pos = pi > 0.0
    p = sample_dirichlet(eta0 * pi[pos], gen, size=size)
    if pos.all():
        return gen.multinomial(n, p)
    probs = np.zeros(p.shape[:-1] + pi.shape)
    probs[..., pos] = p
    return gen.multinomial(n, probs)


def sample_dm_matrix(
    cluster_sizes, pi, phi: float, gen: np.random.Generator, size: int | None = None
) -> np.ndarray:
    """Stack independent DM clusters into a K x C matrix (or ``size`` of them).

    Cluster sizes may differ; each cluster uses the concentration derived
    from its own n_k so that every row hits the same dispersion phi.
    Equal sizes make one batched draw, returned reshaped without a copy;
    unequal sizes make one draw per distinct size, each copied into the
    stacked result.
    """
    sizes = np.asarray(cluster_sizes, dtype=np.int64)
    if sizes.ndim != 1 or sizes.shape[0] < 1:
        raise ValidationError("cluster_sizes must be a non-empty 1-D vector")
    if np.any(sizes < 1):
        raise ValidationError("cluster sizes must be positive")
    pi = _checked_probs(pi)
    K, C = sizes.shape[0], pi.shape[0]
    B = 1 if size is None else int(size)
    # One batched draw per distinct cluster size keeps the stream usage
    # deterministic and the generation fully vectorised.
    distinct = np.unique(sizes)
    if distinct.shape[0] == 1:
        counts = draw_dm_counts(int(distinct[0]), pi, phi, gen, size=B * K).reshape(B, K, C)
    else:
        counts = np.empty((B, K, C), dtype=np.int64)
        for n in distinct:
            where = np.flatnonzero(sizes == n)
            # Not named, so each block is freed before the next one is drawn.
            counts[:, where, :] = draw_dm_counts(
                int(n), pi, phi, gen, size=B * where.shape[0]
            ).reshape(B, where.shape[0], C)
    return counts[0] if size is None else counts


def repair_zero_columns_in_place(counts: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """Give every empty category one unit in a uniformly chosen cluster.

    Accepts a single K x C matrix or a batch stacked along the first
    axis.  The chosen cluster's size grows by one, mirroring how an
    extra observation would enter the pooled data.  ``counts`` is
    repaired in place and returned.
    """
    table = counts[None] if counts.ndim == 2 else counts
    batch_idx, col_idx = np.nonzero(table.sum(axis=1) == 0)
    if batch_idx.shape[0]:
        rows = gen.integers(0, table.shape[1], size=batch_idx.shape[0])
        table[batch_idx, rows, col_idx] += 1
    return counts


def generate_dataset(
    K: int,
    n,
    pi,
    phi: float,
    rng: RngStream,
    repair: bool = False,
    categories: tuple[str, ...] = (),
) -> HistoricalDataset:
    """Draw K historical clusters at dispersion phi, optionally repairing empty categories.

    ``n`` is a common cluster size or a length-K vector.  Without repair
    the matrix is returned exactly as drawn, so sparse probability
    vectors can yield categories with zero total count.
    """
    gen = require_stream(rng, "generate_dataset").generator()
    if K < 2:
        raise ValidationError(f"need at least 2 clusters, got K={K}")
    sizes = np.broadcast_to(np.asarray(n, dtype=np.int64), (int(K),))
    counts = sample_dm_matrix(sizes, pi, phi, gen)
    if repair:
        repair_zero_columns_in_place(counts, gen)
    return HistoricalDataset(counts=counts, categories=categories)


def _checked_probs(pi) -> np.ndarray:
    pi = np.asarray(pi, dtype=float)
    if pi.ndim != 1 or pi.shape[0] < 2:
        raise ValidationError("pi must be a 1-D vector with at least 2 entries")
    if pi.min() < 0.0:
        raise ZeroProbability("probabilities must be non-negative")
    total = pi.sum()
    # published vectors are rounded to 2-3 decimals, so sums like 0.998 or
    # 1.05 are legitimate; renormalize those, reject anything further off
    if not 0.9 <= total <= 1.1:
        raise ValidationError(f"probabilities sum to {total:.10g}, expected 1")
    return pi / total
