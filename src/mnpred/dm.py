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
from numpy.lib.stride_tricks import sliding_window_view

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
    and a guide table of G buckets per row (Chen & Asau's indexed search;
    each category's G is twice the first power of two at or above its
    rows' stored width, so u * G and F(k) * G are exact): a uniform u in
    bucket floor(u G) starts at the smallest k whose F(k) exceeds the
    bucket's lower edge and steps up while F(k) <= u.  A cluster then costs
    one uniform per positive category but the last.  Like
    ``draw_dm_counts``, a single unit (n = 1) takes eta = pi, since its law
    does not depend on the concentration.

    ``cdf[c]`` and ``guide[c]`` are the c-th positive category's block:
    row r - lo[c] holds F(k | r) over the stored columns k, and its G
    bucket starts.  At ``mass`` = 0 the blocks hold every reachable row
    and column, (n + 1) + (C' - 2)(n + 1)^2 cells for C' positive
    categories (the first category's one row is r = n, since no units are
    used before it; F is 1.0 from k = r on).  At ``mass`` > 0 each keeps
    only the rows that the units left before it fall in with probability
    at least 1 - mass, and the columns up to where each of those rows' F
    reaches 1 - mass (``_band``).  Each ``cdf[c]`` is a view of a block
    with one more column, a sentinel 2.0 that no uniform reaches, so the
    search stops at k = width when u is at least the row's last stored F.
    Such a uniform, and one whose row lies outside the band (it reads row
    0 meanwhile), is inverted from that row computed on demand in the same
    operations as the build, so every mass draws the same clusters, bit
    for bit.  The table is only read after it is built, so every block of
    an ensemble shares it.
    """

    def __init__(self, n, pi, phi: float, mass: float = 0.0) -> None:
        pi = _checked_probs(pi)
        n = int(_whole_numbers(n, "cluster size"))
        if n < 1:
            raise ValidationError(f"cluster size must be positive, got {n}")
        self.n, self.n_categories = n, pi.shape[0]
        self.positive = np.flatnonzero(pi > 0.0)
        eta = pi[self.positive] * (1.0 if n == 1 else derive_eta0(n, phi))
        self.n_uniforms = eta.shape[0] - 1
        self._terms = _log_pmf_terms(eta, n)
        self.lo, rows, width = _band(eta, n, mass, self._terms)
        self.n_cells = int(rows @ width)
        # Each category's G is twice the first power of two at or above its width.
        G = [2 << (int(k) - 1).bit_length() for k in width]
        # k <= n, so a guide entry fits in 16 bits below 32768 units.
        kind = np.int16 if n < 1 << 15 else np.int32
        self._padded = [np.full((r, k + 1), 2.0) for r, k in zip(rows, width)]
        self.cdf = [block[:, :-1] for block in self._padded]
        self.guide = [np.empty((r, g), dtype=kind) for r, g in zip(rows, G)]
        # Each left-over r's row in its block, row 0 for an r outside it, which is flagged.
        self._row = [np.zeros(n + 1, dtype=np.intp) for _ in range(self.n_uniforms)]
        self._outside = [np.ones(n + 1, dtype=bool) for _ in range(self.n_uniforms)]
        # Rows a chunk at a time, so the build's temporaries stay near the chunk's cells.
        step = max(1, _CHUNK_CELLS // (n + 1))
        for c in range(self.n_uniforms):
            self._row[c][self.lo[c] : self.lo[c] + rows[c]] = np.arange(rows[c])
            self._outside[c][self.lo[c] : self.lo[c] + rows[c]] = False
            for i in range(0, rows[c], step):
                r = self.lo[c] + np.arange(i, min(rows[c], i + step))
                cdf = _cdf_rows(self._terms, c, r, max(width[c], int(r[-1]) + 1))[:, : width[c]]
                self.cdf[c][i : i + step] = cdf
                self.guide[c][i : i + step] = _guide(cdf, G[c], kind)

    @staticmethod
    def band_cells(n: int, pi, phi: float, mass: float) -> int:
        """Conditional-CDF cells ``InversionTable(n, pi, phi, mass)`` would store."""
        pi = _checked_probs(pi)
        eta = pi[pi > 0.0] * (1.0 if n == 1 else derive_eta0(n, phi))
        _, rows, width = _band(eta, n, mass)
        return int(rows @ width)

    def draw(self, u, size: int | None = None) -> np.ndarray:
        """int64 clusters (size, C) for uniforms u in [0, 1), n_uniforms rows of size each.

        ``u`` is an (n_uniforms, size) array or, with ``size`` given, any
        iterable of its rows, which are read one category at a time.  The
        clusters are held category-major (Fortran order), so each
        category's counts are written, and later summed, contiguously.
        """
        w, N = self.n + 1, u.shape[1] if size is None else int(size)
        out = np.zeros((self.n_categories, N), dtype=np.int64).T
        left = np.full(N, self.n, dtype=np.intp)
        for c, uc in enumerate(u):
            (rows, width), G = self.cdf[c].shape, self.guide[c].shape[1]
            cdf, guide = self._padded[c].reshape(-1), self.guide[c].reshape(-1)
            row = self._row[c][left]
            k = guide[row * G + (uc * G).astype(np.intp)]
            cell = row * (width + 1) + k
            # The sentinel stops every step at k = width.
            low = np.flatnonzero(cdf[cell] <= uc)
            if low.shape[0]:
                k[low] += 1
                cell[low] += 1
                low = low[cdf[cell[low]] <= uc[low]]
            if low.shape[0]:
                # The few still short (a tail's run of k in one bucket) count their row.
                k[low] = np.count_nonzero(self.cdf[c][row[low]] <= uc[low, None], axis=1)
            # A block with every reachable row (r = n alone for the first
            # category) and column needs no fallback.
            if width < w or (c and rows < w):
                redo = np.flatnonzero((k == width) | self._outside[c][left])
                if redo.shape[0]:
                    k[redo] = self._invert(c, left[redo], uc[redo])
            out[:, self.positive[c]] = k
            left -= k
        out[:, self.positive[-1]] = left
        return out

    def _invert(self, c: int, r: np.ndarray, u: np.ndarray) -> np.ndarray:
        """#{k : F(k | r) <= u} of category c, each row computed on demand."""
        k = np.empty(r.shape[0], dtype=np.intp)
        step = max(1, _CHUNK_CELLS // (self.n + 1))
        for i in range(0, r.shape[0], step):
            rows = r[i : i + step]
            cdf = _cdf_rows(self._terms, c, rows, int(rows.max()) + 1)
            k[i : i + step] = np.count_nonzero(cdf <= u[i : i + step, None], axis=1)
        return k


# Cells of conditional-CDF rows computed at once, by a table's build and by
# its on-demand rows: 32 KB of float64.  With 128 KB chunks, predict-wide's
# peak RSS read 0.35 MB higher at an equal traced peak.
_CHUNK_CELLS = 1 << 12


def _log_pmf_terms(eta: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three terms of each conditional log pmf, one row per category but the last.

    log pmf(k | r) = log C(r, k) + log (a)_k + log (b)_{r-k} - log (a+b)_r
    with a = eta_c and b = sum_{j>c} eta_j is a term in r, a term in k and
    a term in r - k.  The last is held reversed, at n - (r - k), and padded
    with n entries of -inf; it is returned as its n + 1 windows of n + 1,
    so that window n - r holds row r's terms for k = 0..n, -inf past k = r.
    """
    a = eta[:-1]
    b = np.cumsum(eta[::-1])[-2::-1]
    log_factorial = _log_rising(np.ones(1), n)
    in_left = (_log_rising(b, n) - log_factorial)[:, ::-1]
    padded = np.concatenate([in_left, np.full((a.shape[0], n), -np.inf)], axis=1)
    return (
        log_factorial - _log_rising(a + b, n),
        _log_rising(a, n) - log_factorial,
        sliding_window_view(padded, n + 1, axis=1),
    )


def _cdf_rows(terms, c, r: np.ndarray, columns: int) -> np.ndarray:
    """F(k | r) for k < columns (at least max(r) + 1), one row per r, of category c or c[i].

    Each row is normalised by its own sum, so it ends at exactly 1.0, and
    every value is the one a computation over all k = 0..n gives: the
    terms past k = r are exp(-inf) = 0 and add nothing to the cumsum.
    """
    row_term, col_term, left_term = terms
    n = row_term.shape[1] - 1
    log_pmf = row_term[c, r][:, None] + col_term[c, :columns]
    log_pmf += left_term[c, n - r, :columns]
    cdf = np.cumsum(np.exp(log_pmf, out=log_pmf), axis=1, out=log_pmf)
    cdf /= cdf[:, -1:].copy()
    return cdf


def _guide(cdf: np.ndarray, G: int, kind) -> np.ndarray:
    """Each row's first k of each of G buckets, counted over the row's stored columns."""
    rows = cdf.shape[0]
    # Bucket i starts at #{k : F(k) <= i/G} = #{k : ceil(F(k) G) <= i}.
    first = np.ceil(cdf * G).astype(np.intp)
    first += np.arange(rows)[:, None] * (G + 1)
    starts = np.bincount(first.ravel(), minlength=rows * (G + 1)).reshape(rows, G + 1)
    return np.cumsum(starts[:, :G], axis=1, dtype=kind)


def _band(eta: np.ndarray, n: int, mass: float, terms=None) -> tuple[np.ndarray, ...]:
    """(first row, rows, columns) of each category's stored block.

    c = 0 has row r = n only.  At mass 0 each later c has every reachable
    row, r = 0..n, and each c every column, k = 0..n.  Otherwise category
    c's rows are r = n - s for the central 1 - mass of
    s ~ BetaBinomial(n, sum_{j<c} eta_j, sum_{j>=c} eta_j), mass / 2 left
    out on each side.  Its columns reach the
    (1 - mass) quantile of its highest row, whose law is stochastically
    the largest, so every stored row's F reaches 1 - mass there; its
    ``_log_pmf_terms`` are computed here unless given.
    """
    U, w = eta.shape[0] - 1, n + 1
    if mass == 0.0:
        rows = np.full(U, w)
        rows[:1] = 1
        return w - rows, rows, np.full(U, w)
    if terms is None:
        terms = _log_pmf_terms(eta, n)
    before = np.cumsum(eta)[:-2]
    log_factorial = _log_rising(np.ones(1), n)
    # log pmf(s) is log (a)_s - log s! + log (b)_{n-s} - log (n-s)! with a = sum_{j<c} eta_j
    # and b = eta0 - a, up to a constant that the normalisation drops; a row per c >= 1.
    log_pmf = _log_rising(before, n) - log_factorial
    log_pmf += (_log_rising(eta.sum() - before, n) - log_factorial)[:, ::-1]
    cdf = np.cumsum(np.exp(log_pmf - log_pmf.max(axis=1, keepdims=True)), axis=1)
    cdf /= cdf[:, -1:]
    s_lo = np.concatenate([[0], np.count_nonzero(cdf <= mass / 2.0, axis=1)])[:U]
    s_hi = np.concatenate([[0], np.count_nonzero(cdf < 1.0 - mass / 2.0, axis=1)])[:U]
    top = n - s_lo
    width = np.array(
        [np.count_nonzero(_cdf_rows(terms, c, top[c : c + 1], top[c] + 1) < 1.0 - mass) + 1
         for c in range(U)],
        dtype=np.intp,
    )
    return n - s_hi, s_hi - s_lo + 1, width


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
        # A row of uniforms per category, consumed as one (n_uniforms, N) draw would be.
        N = 1 if size is None else int(size)
        counts = table.draw((gen.random(N) for _ in range(table.n_uniforms)), N)
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
