"""Normal-approximation interval constructions.

All three methods here take the prediction y_hat +/- q * sep with a
multiplier q from the standard normal: the pointwise per-category
quantile, the Bonferroni-corrected quantile, and the equicoordinate
quantile of the multivariate normal with the prediction correlation
structure (estimated by Monte Carlo, since the singular C-dimensional
law has no closed form).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .empirical import nearest_rank_quantile
from .errors import NotPSD, ValidationError
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
    "PredCovariance",
    "prediction_covariance",
    "equicoordinate_quantile",
    "pointwise_interval",
    "bonferroni_interval",
    "mvn_interval",
]

# Eigenvalues of the prediction correlation below this are treated as
# exact zeros (the matrix always has one by construction); anything
# more negative than -1e-8 means the input was not a covariance at all.
_EIG_DROP = 1e-10
_EIG_NEG = -1e-8

MIN_MVN_DRAWS = 1000
# Normal shocks per block of the equicoordinate quantile; each block leaves
# only max|Z| per draw behind.
_MVN_BLOCK = 8192


@dataclass(frozen=True)
class PredCovariance:
    """Covariance and correlation of the future count prediction errors."""

    sigma: np.ndarray
    corr: np.ndarray


def prediction_covariance(fit: ModelFit, spec: FutureSpec) -> PredCovariance:
    """Singular (rank C-1) covariance of y - y_hat under the fitted model."""
    pi = fit.pi_hat
    v = np.diag(pi) - np.outer(pi, pi)
    sigma = fit.phi_hat * spec.m * (1.0 + spec.m / fit.n_total) * v
    d = np.sqrt(np.diag(sigma))
    if np.any(d <= 0.0):
        raise ValidationError("degenerate category with zero prediction variance")
    corr = sigma / np.outer(d, d)
    return PredCovariance(sigma=sigma, corr=corr)


def equicoordinate_quantile(
    corr: np.ndarray,
    alpha: float,
    rng: RngStream,
    n_draws: int = PREDICT_DEFAULTS.mvn_draws,
) -> float:
    """(1-alpha) quantile of max_c |Z_c| for Z ~ N(0, corr), by Monte Carlo.

    The correlation may be singular, so draws are built from the
    eigendecomposition with near-zero eigenvalues dropped.  The shocks
    are drawn in blocks of ``_MVN_BLOCK`` rows, in the order of one
    (n_draws, rank) draw, and each block keeps only max|Z| per draw, so
    the traced peak is about 3.5 x n_draws * 8 bytes at C = 10 (the
    max|Z| vector, the quantile's partition copy and one block).
    """
    gen = require_stream(rng, "equicoordinate_quantile").generator()
    corr = np.asarray(corr, dtype=float)
    if corr.ndim != 2 or corr.shape[0] != corr.shape[1]:
        raise ValidationError("correlation must be a square matrix")
    if n_draws < MIN_MVN_DRAWS:
        raise ValidationError(f"equicoordinate quantile needs at least {MIN_MVN_DRAWS} draws")
    eigvals, eigvecs = np.linalg.eigh((corr + corr.T) / 2.0)
    if eigvals.min() < _EIG_NEG:
        raise NotPSD(f"most negative eigenvalue {eigvals.min():.3e} is below {_EIG_NEG}")
    keep = eigvals > _EIG_DROP
    root = eigvecs[:, keep] * np.sqrt(eigvals[keep])[None, :]
    n_draws = int(n_draws)
    max_abs = np.empty(n_draws)
    for i in range(0, n_draws, _MVN_BLOCK):
        shocks = gen.standard_normal((min(_MVN_BLOCK, n_draws - i), root.shape[1]))
        max_abs[i : i + shocks.shape[0]] = np.abs(root @ shocks.T).max(axis=0)
    return nearest_rank_quantile(max_abs, 1.0 - alpha)


def pointwise_interval(fit: ModelFit, spec: FutureSpec) -> PredictionIntervalSet:
    """Per-category normal interval with no multiplicity adjustment."""
    q = float(ndtri(1.0 - spec.alpha / 2.0))
    return scaled_interval_set("pointwise", prediction_point(fit, spec), q, q, spec)


def bonferroni_interval(fit: ModelFit, spec: FutureSpec) -> PredictionIntervalSet:
    """Normal interval at the Bonferroni-corrected level alpha / C."""
    C = fit.pi_hat.shape[0]
    q = float(ndtri(1.0 - spec.alpha / (2.0 * C)))
    return scaled_interval_set("bonferroni", prediction_point(fit, spec), q, q, spec)


def mvn_interval(
    fit: ModelFit,
    spec: FutureSpec,
    rng: RngStream,
    n_draws: int = PREDICT_DEFAULTS.mvn_draws,
) -> PredictionIntervalSet:
    """Equicoordinate normal interval honouring the prediction correlations."""
    cov = prediction_covariance(fit, spec)
    q = equicoordinate_quantile(cov.corr, spec.alpha, rng, n_draws=n_draws)
    return scaled_interval_set("mvn", prediction_point(fit, spec), q, q, spec)
