"""Normal-approximation interval constructions.

All three methods here take the prediction y_hat +/- q * sep with a
multiplier q from the standard normal: the pointwise per-category
quantile, the Bonferroni-corrected quantile, and the equicoordinate
quantile of max_c |Z_c| for the normal vector Z with the prediction
correlation.  The two scalar quantiles come from the standard library's
``statistics.NormalDist``, within a few ulp of the exact value.

The prediction covariance is a multiple of diag(pi) - pi pi^T, so Z has
the law of X_c / sqrt(pi_c (1 - pi_c)) for independent X_c ~ N(0, pi_c)
conditioned on sum_c X_c = 0, whose density at 0 is 1 / sqrt(2 pi).
Hence P(max_c |Z_c| <= q) = sqrt(2 pi) g_q(0), where g_q is the density
of sum_c X_c restricted to every |X_c| <= q sqrt(pi_c (1 - pi_c)): one
convolution of C truncated normal densities.
``multinomial_equicoordinate_quantile`` evaluates it on a lattice by FFT
and solves for q, with no Monte Carlo.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from .dm import _checked_probs
from .errors import ValidationError
from .model import (
    PREDICT_DEFAULTS,
    FutureSpec,
    ModelFit,
    PredictionIntervalSet,
    prediction_point,
    scaled_interval_set,
)
from .rng import RngStream, require_stream

__all__ = [
    "MIN_MVN_DRAWS",
    "multinomial_equicoordinate_quantile",
    "pointwise_interval",
    "bonferroni_interval",
    "mvn_interval",
]

MIN_MVN_DRAWS = 1000
_STD_NORMAL = NormalDist()
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# The lattice of the mvn convolution has _CELLS cells, doubled up to
# _CELLS_MAX until the narrowest normal factor's standard deviation spans
# _RESOLVE cells.
_CELLS = 1024
_CELLS_MAX = 1 << 16
_RESOLVE = 10.0
# Weight changes of the four lattice nodes n, n-1, n-2, n-3 below a
# truncation point that lies theta cells past node n, as coefficients of
# theta^4 ... theta^0 (one column per node).  They cancel the first four
# Euler-Maclaurin terms of a node sum cut off theta cells past a node; at
# theta = 0 the weights are Gregory's end weights 251/720, 299/240,
# 211/240 and 739/720.
_END_CORRECTION = np.array(
    [
        [1 / 24, 1 / 3, 11 / 12, 1.0, -469 / 720],
        [-1 / 8, -5 / 6, -3 / 2, 0.0, 59 / 240],
        [1 / 8, 2 / 3, 3 / 4, 0.0, -29 / 240],
        [-1 / 24, -1 / 6, -1 / 6, 0.0, 19 / 720],
    ]
).T
# The regula falsi stops once log(1 - coverage) is this close to log(alpha).
_LOG_TOL = 1e-11


def multinomial_equicoordinate_quantile(pi, alpha: float) -> float:
    """(1-alpha) quantile of max_c |Z_c| for Z ~ N(0, corr) with corr from diag(pi) - pi pi^T.

    Deterministic: a function of pi and alpha alone.  The coverage
    P(max_c |Z_c| <= q) is the convolution described in the module
    docstring, computed on a lattice by ``_coverage``.  Its root lies
    between the pointwise quantile, where the coverage of one category
    alone is already 1 - alpha, and the Bonferroni quantile, where the
    union bound makes it at least 1 - alpha.  The Illinois regula falsi
    finds it on x = q^2 against y = log(1 - coverage), which the normal
    tail makes nearly linear, in five to seven coverage evaluations.
    """
    pi = _checked_probs(pi)
    if pi.min() <= 0.0:
        raise ValidationError("degenerate category with zero prediction variance")
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    C = pi.shape[0]
    q_lo = _STD_NORMAL.inv_cdf(1.0 - alpha / 2.0)
    if C == 2:
        # Z_2 = -Z_1 exactly, so max|Z| = |Z_1| and the pointwise quantile is exact.
        return q_lo
    q_hi = _STD_NORMAL.inv_cdf(1.0 - alpha / (2.0 * C))
    coverage = _coverage(pi, q_hi)
    log_alpha = math.log(alpha)

    def excess(x: float) -> float:
        # Decreasing in x; the floor keeps the log finite where 1 - coverage rounds to 0.
        return math.log(max(1.0 - coverage(math.sqrt(x)), 1e-300)) - log_alpha

    a, b = q_lo * q_lo, q_hi * q_hi
    fa, fb = excess(a), excess(b)
    if fa <= 0.0:
        return q_lo
    if fb >= 0.0:
        return q_hi
    x = b
    for _ in range(100):
        x = b - fb * (b - a) / (fb - fa)
        fx = excess(x)
        if abs(fx) <= _LOG_TOL or abs(b - a) <= 1e-14 * x:
            break
        if (fx > 0.0) == (fb > 0.0):
            fa /= 2.0  # the Illinois step: the end kept twice counts half
        else:
            a, fa = b, fb
        b, fb = x, fx
    return math.sqrt(x)


def _coverage(pi: np.ndarray, q_max: float):
    """P(max_c |Z_c| <= q) as a function of q in (0, q_max].

    X_c is truncated at +-q s_c, s_c = sqrt(pi_c (1 - pi_c)), so the
    lattice spacing h = q sum(s) / (cells - 1) puts each truncation at the
    same node offset for every q, and the truncated supports, summed,
    still fit inside the cells, so the FFT's circular convolution equals
    the plain one at lag 0.  Each node of factor c weighs h times the
    N(0, pi_c) density there: a sum of such nodes is exact up to terms
    exponentially small in (sd_c / h)^2 away from the truncation points,
    and ``_END_CORRECTION`` reweighs the four nodes below each truncation
    point for the cut.  Against exact cell masses on 65536 cells the
    quantile agrees within 2e-5, and within 1e-7 on most inputs.  A factor
    less than four cells wide, which only the cell cap leaves, keeps its
    exact mass on node 0.
    """
    C = pi.shape[0]
    sd = np.sqrt(pi)
    s = np.sqrt(pi * (1.0 - pi))
    cells = _CELLS
    while cells < _CELLS_MAX and _RESOLVE * q_max * s.sum() > sd.min() * (cells - 1):
        cells *= 2
    unit = s.sum() / (cells - 1)  # the lattice spacing h at q = 1
    edge = s / unit  # the truncation points, in cells
    n = np.maximum(edge.astype(np.intp), 4)  # each factor's last node
    narrow = np.flatnonzero(edge < 4.0)
    nodes = np.arange(n.max() + 1)
    # The node weights at q are q * base * exp(-q^2 * decay): h times the
    # N(0, pi_c) density, cut past node n and end-corrected below it.
    base = np.where(nodes <= n[:, None], (unit / (sd * _SQRT_2PI))[:, None], 0.0)
    ends = n[:, None] - np.arange(4)
    base[np.arange(C)[:, None], ends] *= 1.0 + np.vander(edge - n, 5) @ _END_CORRECTION
    decay = np.square(nodes * unit) / (2.0 * pi[:, None])
    lattice = np.zeros((C, cells))
    right, left = lattice[:, : nodes.size], lattice[:, cells + 1 - nodes.size :]

    def coverage(q: float) -> float:
        np.multiply(q * base, np.exp(-(q * q) * decay), out=right)
        for c in narrow:
            right[c] = 0.0
            right[c, 0] = math.erf(q * s[c] / (sd[c] * math.sqrt(2.0)))  # P(|X_c| <= q s_c)
        left[:] = right[:, :0:-1]
        spectrum = np.fft.rfft(lattice, axis=1).prod(axis=0)
        return _SQRT_2PI * float(np.fft.irfft(spectrum, cells)[0]) / (q * unit)

    return coverage


def pointwise_interval(fit: ModelFit, spec: FutureSpec) -> PredictionIntervalSet:
    """Per-category normal interval with no multiplicity adjustment."""
    q = _STD_NORMAL.inv_cdf(1.0 - spec.alpha / 2.0)
    return scaled_interval_set("pointwise", prediction_point(fit, spec), q, q, spec)


def bonferroni_interval(fit: ModelFit, spec: FutureSpec) -> PredictionIntervalSet:
    """Normal interval at the Bonferroni-corrected level alpha / C."""
    C = fit.pi_hat.shape[0]
    q = _STD_NORMAL.inv_cdf(1.0 - spec.alpha / (2.0 * C))
    return scaled_interval_set("bonferroni", prediction_point(fit, spec), q, q, spec)


def mvn_interval(
    fit: ModelFit,
    spec: FutureSpec,
    rng: RngStream,
    n_draws: int = PREDICT_DEFAULTS.mvn_draws,
) -> PredictionIntervalSet:
    """Equicoordinate normal interval honouring the prediction correlations.

    The multiplier is ``multinomial_equicoordinate_quantile(fit.pi_hat,
    spec.alpha)``, so the interval depends on the fit alone.  ``rng`` must
    still be an RngStream and ``n_draws`` at least MIN_MVN_DRAWS, but
    neither changes the result.
    """
    require_stream(rng, "mvn_interval")
    if n_draws < MIN_MVN_DRAWS:
        raise ValidationError(f"mvn interval needs at least {MIN_MVN_DRAWS} draws")
    q = multinomial_equicoordinate_quantile(fit.pi_hat, spec.alpha)
    return scaled_interval_set("mvn", prediction_point(fit, spec), q, q, spec)
