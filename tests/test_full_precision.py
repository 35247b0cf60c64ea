"""Full-precision pins of the ensemble and every order-statistic read off it.

The digests in ``test_digest.py`` hash CSV output written at ``.6g``, so a
change in the last bits of a multiplier passes them.  These hash the raw
float64 bytes instead: the bootstrap residuals z (in C order, whatever
their memory layout), each bootstrap calibration's multipliers and bounds,
the rank summaries of z and of the predictive draws, and the three Bayes
bands.  A change that alters any of them on purpose updates the pin it
moves and says so in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

import mnpred as mp
from mnpred import bayes, bootstrap
from mnpred.empirical import rank_summary

SEVERITY_PI = (0.224, 0.466, 0.273, 0.031, 0.004)

# name -> (K, cluster sizes, pi, phi, m, _BLOCK_CELLS or None for the default)
SHAPES = {
    # the predict-severity table: every cluster table fits, so the clusters
    # are drawn by inversion
    "severity-table": (10, 46, SEVERITY_PI, 3.19, 46, None),
    # the same table with the block bound lowered below one inversion
    # table, so the ensemble draws gammas and multinomials in 100 blocks
    "severity-gamma": (10, 46, SEVERITY_PI, 3.19, 46, 1 << 10),
    "unequal-sizes": (12, np.where(np.arange(12) % 2, 40, 30), (0.4, 0.3, 0.2, 0.1), 4.0, 35, None),
    "ten-categories": (20, 30, tuple(np.linspace(1.0, 2.0, 10) / 15.0), 3.0, 30, None),
}

PINS = {
    "severity-table": "sha256:a5dc105fdef02f534cf7cbcca1c777fe6eb45b3d0dad1f8c9375cd750e1571a2",
    "severity-gamma": "sha256:eaa7875f4415ef735d7ded2dbca8e1a0994f7cada37cd9a29aca7f9866616975",
    "unequal-sizes": "sha256:f23f2767aaa2acddf7a17c5921416526cf51f50579eb57fd55b26dde05dfc1eb",
    "ten-categories": "sha256:2bc065667283021f2ce7759b48bd11f620672e13c49a9a14f0b5500f31afcb15",
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


def full_precision_digest(name, monkeypatch):
    K, sizes, pi, phi, m, block_cells = SHAPES[name]
    if block_cells is not None:
        monkeypatch.setattr("mnpred.bootstrap._BLOCK_CELLS", block_cells)
    root = mp.RngStream(2908)
    pi = np.asarray(pi) / np.sum(pi)
    data = mp.generate_dataset(K, sizes, pi, phi, root.child(0), repair=True)
    fit = mp.fit_model(data)
    spec = mp.FutureSpec(m=m, alpha=0.05)
    digest = hashlib.sha256()
    ensemble = bootstrap.build_ensemble(fit, data, spec, 2000, root.child(1))
    _update(digest, ensemble.z)
    _update_summary(digest, rank_summary(ensemble.z, spec.alpha))
    for calibrate in CALIBRATIONS:
        _update_interval(digest, calibrate(ensemble, fit, spec))
    draws = bayes.mcmc_sample(
        data, bayes.PriorChoice.half_cauchy(), root.child(2), chains=2, sampling_iters=1000
    )
    pred = bayes.posterior_predictive(draws, m, root.child(3))
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
