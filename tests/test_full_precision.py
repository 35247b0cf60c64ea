"""Full-precision pins of the ensemble and every order-statistic read off it.

The digests in ``test_digest.py`` hash CSV output written at ``.6g``, so a
change in the last bits of a multiplier passes them.  These hash the raw
float64 bytes instead: the bootstrap residuals z (in C order, whatever
their memory layout), each bootstrap calibration's multipliers and bounds,
the rank summaries of z and of the predictive draws, and the three Bayes
bands.  ``ASYMPTOTIC_PINS`` hash the pointwise, Bonferroni and mvn bands of
the same fits.  A change that alters any of them on purpose updates the pin it
moves and says so in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

import mnpred as mp
from mnpred import asymptotic, bayes, bootstrap
from mnpred.empirical import rank_summary

from conftest import forced_route

SEVERITY_PI = (0.224, 0.466, 0.273, 0.031, 0.004)

# name -> (K, cluster sizes, pi, phi, m, the ensemble's draw route (conftest.forced_route),
#          mnpred.bootstrap settings set for the shape)
SHAPES = {
    # the predict-severity table: every cluster table fits, so the clusters
    # are drawn by inversion
    "severity-table": (10, 46, SEVERITY_PI, 3.19, 46, "table", {}),
    # the same table on the gamma route with the block bound lowered, so
    # the ensemble draws gammas and multinomials in 100 blocks
    "severity-gamma": (10, 46, SEVERITY_PI, 3.19, 46, "gamma", {"_BLOCK_CELLS": 1 << 10}),
    # the same table drawn from a band that leaves out a fifth of each law's
    # mass and from its exact fallbacks: the mass-0 table's bytes
    "severity-band": (10, 46, SEVERITY_PI, 3.19, 46, "band", {}),
    "unequal-sizes": (
        12, np.where(np.arange(12) % 2, 40, 30), (0.4, 0.3, 0.2, 0.1), 4.0, 35, "table", {}
    ),
    "ten-categories": (20, 30, tuple(np.linspace(1.0, 2.0, 10) / 15.0), 3.0, 30, "table", {}),
}

PINS = {
    "severity-table": "sha256:a5dc105fdef02f534cf7cbcca1c777fe6eb45b3d0dad1f8c9375cd750e1571a2",
    "severity-band": "sha256:a5dc105fdef02f534cf7cbcca1c777fe6eb45b3d0dad1f8c9375cd750e1571a2",
    "severity-gamma": "sha256:eaa7875f4415ef735d7ded2dbca8e1a0994f7cada37cd9a29aca7f9866616975",
    "unequal-sizes": "sha256:f23f2767aaa2acddf7a17c5921416526cf51f50579eb57fd55b26dde05dfc1eb",
    "ten-categories": "sha256:2bc065667283021f2ce7759b48bd11f620672e13c49a9a14f0b5500f31afcb15",
}

# The three severity shapes differ only in the ensemble's settings, so
# their asymptotic bands are the same.
ASYMPTOTIC_PINS = {
    "severity-table": "sha256:7b7a56fdcd4a030392b82ad0fbb2fd758632cfb4a94b82263b9e0b3da1171411",
    "severity-gamma": "sha256:7b7a56fdcd4a030392b82ad0fbb2fd758632cfb4a94b82263b9e0b3da1171411",
    "severity-band": "sha256:7b7a56fdcd4a030392b82ad0fbb2fd758632cfb4a94b82263b9e0b3da1171411",
    "unequal-sizes": "sha256:39a100ba7a0a3d02621cfedf0623dd759b51a1653958141e2cbfa87f88fa7cf3",
    "ten-categories": "sha256:a68ed93ccaec1a25f6ffdadc34d35773a016b423eaf99a836861b9dcd490e2ac",
}

CALIBRATIONS = (
    bootstrap.symmetric_calibration,
    bootstrap.asymmetric_calibration,
    bootstrap.marginal_calibration,
    bootstrap.masr_interval,
    bootstrap.rank_scs_interval,
)
BANDS = (
    bayes.bayes_bonferroni_interval,
    bayes.bayes_mean_centered_interval,
    bayes.bayes_rank_scs_interval,
)


def _update(digest, *arrays):
    for a in arrays:
        a = np.asarray(a)
        digest.update(f"{a.dtype.str}{a.shape}".encode())
        digest.update(a.tobytes())


def _update_summary(digest, summary):
    _update(digest, summary.ranks, summary.scores, summary.tau_star, summary.lower, summary.upper)


def _update_interval(digest, ivs):
    digest.update(ivs.method.encode())
    _update(digest, ivs.lower, ivs.upper, ivs.y_hat, ivs.sep)
    _update(digest, ivs.multiplier_lower, ivs.multiplier_upper)


def _shape_fit(name):
    """The shape's root stream, dataset, fit and future spec."""
    K, sizes, pi, phi, m, *_ = SHAPES[name]
    root = mp.RngStream(2908)
    pi = np.asarray(pi) / np.sum(pi)
    data = mp.generate_dataset(K, sizes, pi, phi, root.child(0), repair=True)
    return root, data, mp.fit_model(data), mp.FutureSpec(m=m, alpha=0.05)


def full_precision_digest(name, monkeypatch):
    *_, route, settings = SHAPES[name]
    for setting, value in settings.items():
        monkeypatch.setattr(bootstrap, setting, value)
    root, data, fit, spec = _shape_fit(name)
    digest = hashlib.sha256()
    with forced_route(monkeypatch, route):
        ensemble = bootstrap.build_ensemble(fit, data, spec, 2000, root.child(1))
    _update(digest, ensemble.z)
    _update_summary(digest, rank_summary(ensemble.z, spec.alpha))
    for calibrate in CALIBRATIONS:
        _update_interval(digest, calibrate(ensemble, fit, spec))
    draws = bayes.mcmc_sample(
        data, bayes.PriorChoice.half_cauchy(), root.child(2), chains=2, sampling_iters=1000
    )
    pred = bayes.posterior_predictive(draws, spec.m, root.child(3))
    _update(digest, pred.y_pred)
    _update_summary(digest, rank_summary(pred.y_pred, spec.alpha))
    for band in BANDS:
        _update_interval(digest, band(pred, spec.alpha))
    return "sha256:" + digest.hexdigest()


@pytest.mark.filterwarnings("ignore::mnpred.errors.DegenerateRankWarning")
@pytest.mark.filterwarnings("ignore::mnpred.errors.ConvergenceWarning")
@pytest.mark.parametrize("name", sorted(SHAPES))
def test_full_precision_pin(name, monkeypatch):
    assert full_precision_digest(name, monkeypatch) == PINS[name]


def asymptotic_digest(name):
    root, _, fit, spec = _shape_fit(name)
    digest = hashlib.sha256()
    _update_interval(digest, asymptotic.pointwise_interval(fit, spec))
    _update_interval(digest, asymptotic.bonferroni_interval(fit, spec))
    _update_interval(digest, asymptotic.mvn_interval(fit, spec, root.child(4)))
    return "sha256:" + digest.hexdigest()


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_asymptotic_pin(name):
    assert asymptotic_digest(name) == ASYMPTOTIC_PINS[name]
