"""Dirichlet-multinomial data generation with a targeted dispersion factor.

A cluster of n units drawn as x ~ Multinomial(n, p) with
p ~ Dirichlet(eta0 * pi) has mean n*pi and covariance inflated by
phi = (n + eta0) / (1 + eta0) relative to the plain multinomial.
Inverting that relation gives the concentration eta0 = (n - phi)/(phi - 1)
that realises a requested phi exactly, which is how all synthetic data
in this package are produced.  The bootstrap ensemble draws the same law
by inverting its conditional beta-binomial CDFs (``InversionTable``).
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


class InversionTable:
    """Exact DM draws of clusters of n units by sequential beta-binomial inversion.

    With eta = eta0(n, phi) * pi over the positive categories, the
    Dirichlet aggregation property gives each category's count, given the
    r units the categories before it left, as
    x_c ~ BetaBinomial(r, eta_c, sum_{j>c} eta_j); the last positive
    category takes what is left.  The table holds those conditional CDFs
    for every r = 0..n, and a guide table of G buckets (Chen & Asau's
    indexed search; G is the first power of two above n, so u * G and
    F(k) * G are exact): a uniform u in bucket floor(u G) starts at the
    smallest k whose F(k) exceeds the bucket's lower edge and steps up
    while F(k) <= u.  A cluster then costs one uniform per positive
    category but the last.  Like ``draw_dm_counts``, a single unit
    (n = 1) takes eta = pi, since its law does not depend on the
    concentration.

    ``cdf[c, r, k]`` is F(k | r) of the c-th positive category (1.0 from
    k = r on) and ``guide[c, r, i]`` bucket i's first k.  The table is
    only read after it is built, so threads may share it.
    """

    def __init__(self, n, pi, phi: float) -> None:
        pi = _checked_probs(pi)
        n = int(_whole_numbers(n, "cluster size"))
        if n < 1:
            raise ValidationError(f"cluster size must be positive, got {n}")
        self.n, self.n_categories = n, pi.shape[0]
        self.positive = np.flatnonzero(pi > 0.0)
        eta = pi[self.positive] * (1.0 if n == 1 else derive_eta0(n, phi))
        self.n_uniforms = eta.shape[0] - 1
        w, G = n + 1, 1 << n.bit_length()
        self.guide_size = G
        t = np.arange(w)
        left = np.subtract.outer(t, t)  # r - k on row r, column k
        above = left < 0
        left[above] = 0
        # Category c's beta-binomial has a = eta_c and b = sum of eta_j over j > c.
        a = eta[:-1]
        b = np.cumsum(eta[::-1])[-2::-1]
        log_factorial = _log_rising(np.ones(1), n)
        # log pmf(k | r) = log C(r, k) + log (a)_k + log (b)_{r-k} - log (a+b)_r
        log_pmf = (log_factorial - _log_rising(a + b, n))[:, :, None] + (
            _log_rising(a, n) - log_factorial
        )[:, None, :]
        log_pmf += (_log_rising(b, n) - log_factorial)[:, left]
        log_pmf[:, above] = -np.inf
        self.cdf = np.cumsum(np.exp(log_pmf, out=log_pmf), axis=2, out=log_pmf)
        self.cdf /= self.cdf[:, :, -1:].copy()  # each row ends at exactly 1.0
        # Bucket i starts at #{k : F(k) <= i/G} = #{k : ceil(F(k) G) <= i}.
        rows = self.n_uniforms * w
        first = np.ceil(self.cdf * G).astype(np.intp).reshape(rows, w)
        first += np.arange(rows)[:, None] * (G + 1)
        starts = np.bincount(first.ravel(), minlength=rows * (G + 1)).reshape(-1, w, G + 1)
        self.guide = np.cumsum(starts[:, :, :G], axis=2, dtype=np.int32)

    @staticmethod
    def cells(n: int, n_categories: int) -> int:
        """Conditional-CDF cells of a table at size n: (C - 1)(n + 1)^2."""
        return (n_categories - 1) * (n + 1) ** 2

    def draw(self, u: np.ndarray) -> np.ndarray:
        """int64 clusters (N, C) for uniforms u in [0, 1) of shape (n_uniforms, N).

        The clusters are held category-major (Fortran order), so each
        category's counts are written, and later summed, contiguously.
        """
        w, G = self.n + 1, self.guide_size
        out = np.zeros((self.n_categories, u.shape[1]), dtype=np.int64).T
        left = np.full(u.shape[1], self.n, dtype=np.intp)
        for c, uc in enumerate(u):
            cdf, guide = self.cdf[c].reshape(-1), self.guide[c].reshape(-1)
            k = guide[left * G + (uc * G).astype(np.intp)]
            cell = left * w + k
            low = np.flatnonzero(cdf[cell] <= uc)
            if low.shape[0]:
                k[low] += 1
                cell[low] += 1
                low = low[cdf[cell[low]] <= uc[low]]
            if low.shape[0]:
                # The few still short (a tail's run of k in one bucket) count their row.
                k[low] = np.count_nonzero(self.cdf[c, left[low]] <= uc[low, None], axis=1)
            out[:, self.positive[c]] = k
            left -= k
        out[:, self.positive[-1]] = left
        return out


def _log_rising(x: np.ndarray, n: int) -> np.ndarray:
    """log of the rising factorials x (x+1) ... (x+t-1) for t = 0..n, one row per x."""
    out = np.zeros((x.shape[0], n + 1))
    np.cumsum(np.log(x[:, None] + np.arange(n)), axis=1, out=out[:, 1:])
    return out


def sample_dm_counts(n: int, pi, phi: float, rng: RngStream, size: int | None = None) -> np.ndarray:
    """One future cluster (or ``size`` of them) of n units at dispersion phi.

    Categories with pi exactly zero stay structurally empty.  A single
    unit (n = 1) is drawn straight from Multinomial(1, pi): its marginal
    law under the DM does not depend on the concentration.
    """
    return draw_dm_counts(n, pi, phi, require_stream(rng, "sample_dm_counts").generator(), size)


def draw_dm_counts(
    n: int,
    pi,
    phi: float,
    gen: np.random.Generator,
    size: int | None = None,
    table: InversionTable | None = None,
) -> np.ndarray:
    """``sample_dm_counts`` drawing from a live generator.

    Structural zeros are spread into a zero-filled probability array
    before the multinomial draw.  With ``table`` (an ``InversionTable``
    built at this n, pi and phi) the clusters are drawn by inversion
    instead, from one uniform per cluster and positive category but the
    last.
    """
    pi = _checked_probs(pi)
    n = int(_whole_numbers(n, "cluster size"))
    if n < 1:
        raise ValidationError(f"cluster size must be positive, got {n}")
    if table is not None:
        counts = table.draw(gen.random((table.n_uniforms, 1 if size is None else int(size))))
        return counts[0] if size is None else counts
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
    cluster_sizes,
    pi,
    phi: float,
    gen: np.random.Generator,
    size: int | None = None,
    tables: dict[int, InversionTable] | None = None,
) -> np.ndarray:
    """Stack independent DM clusters into a K x C matrix (or ``size`` of them).

    Cluster sizes may differ; each cluster uses the concentration derived
    from its own n_k so that every row hits the same dispersion phi.
    Equal sizes make one batched draw, returned reshaped without a copy;
    unequal sizes make one draw per distinct size, each copied into the
    stacked result.  ``tables`` maps each distinct size to an
    ``InversionTable`` built at this pi and phi, and makes every draw
    one by inversion (see ``draw_dm_counts``); an equal-size draw is then
    category-major, like the table's.
    """
    sizes = _whole_numbers(cluster_sizes, "each cluster size")
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

    def draw(n, rows: int) -> np.ndarray:
        table = None if tables is None else tables[int(n)]
        return draw_dm_counts(int(n), pi, phi, gen, size=rows, table=table)

    if distinct.shape[0] == 1:
        counts = draw(distinct[0], B * K).reshape(B, K, C)
    else:
        counts = np.empty((B, K, C), dtype=np.int64)
        for n in distinct:
            where = np.flatnonzero(sizes == n)
            # Not named, so each block is freed before the next one is drawn.
            counts[:, where, :] = draw(n, B * where.shape[0]).reshape(B, where.shape[0], C)
    return counts[0] if size is None else counts


def repair_zero_columns_in_place(counts: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """``repair_zero_columns`` on a single K x C matrix or a batch stacked
    along the first axis; ``counts`` is repaired in place and returned."""
    table = counts[None] if counts.ndim == 2 else counts
    repair_zero_columns(table, table.sum(axis=1), gen)
    return counts


def repair_zero_columns(
    table: np.ndarray, totals: np.ndarray, gen: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Give every empty category one unit in a uniformly chosen cluster.

    ``table`` is a (B, K, C) batch and ``totals`` its column totals
    ``table.sum(axis=1)``; both are repaired in place.  The chosen
    cluster's size grows by one, mirroring how an extra observation would
    enter the pooled data.  Returns the (replicate, cluster) index pair
    of each unit added, so a caller can update the cluster sizes without
    summing the table again.
    """
    batch_idx, col_idx = np.nonzero(totals == 0)
    if not batch_idx.shape[0]:
        return batch_idx, batch_idx
    rows = gen.integers(0, table.shape[1], size=batch_idx.shape[0])
    table[batch_idx, rows, col_idx] += 1
    totals[batch_idx, col_idx] = 1
    return batch_idx, rows


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
    K = int(_whole_numbers(K, "number of clusters"))
    if K < 2:
        raise ValidationError(f"need at least 2 clusters, got K={K}")
    sizes = _whole_numbers(n, "each cluster size")
    if sizes.ndim > 1 or sizes.ndim == 1 and sizes.shape[0] != K:
        raise ValidationError(f"need one cluster size or K={K} of them, got shape {sizes.shape}")
    sizes = np.broadcast_to(sizes, (K,))
    counts = sample_dm_matrix(sizes, pi, phi, gen)
    if repair:
        repair_zero_columns_in_place(counts, gen)
    return HistoricalDataset(counts=counts, categories=categories)


def _whole_numbers(n, what: str) -> np.ndarray:
    """``n`` as int64, refusing a value that the cast would truncate."""
    raw = np.asarray(n)
    kind = raw.dtype.kind
    if not (kind in "iu" or kind == "f" and np.all(np.isfinite(raw) & (np.floor(raw) == raw))):
        raise ValidationError(f"{what} must be a whole number, got {n}")
    return raw.astype(np.int64)


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
