"""The bootstrap ensemble's whole law at a tiny shape, against exact enumeration.

At K=3 clusters of n=5 units in C=3 categories a historical cluster has 21
outcomes, so a replicate's table has 21^3 = 9261.  The repair rule gives
each empty column one unit in a uniformly chosen cluster, K^(empty columns)
equally likely branches, and with the 21 future clusters of m=5 units that
makes 221,949 weighted residual rows: the exact law of one row of z.  The
refit on this side is written out from its formulas, scalar by scalar.

Every statistic the calibrations read (max|z|, max z, max(-z) and each
column of z) is compared with its exact law by a Kolmogorov-Smirnov
distance taken only at the distinct support values: both CDFs are step
functions that jump there, so the supremum is attained just after one of
them.  The bar is the 0.1% critical value 1.95/sqrt(B) at B=40000, fixed
before any run, and each draw route is run on one and on two workers.
"""

import itertools
import math

import numpy as np
import pytest

import mnpred as mp
from mnpred import bootstrap
from mnpred.bayes import dm_log_pmf
from mnpred.dm import derive_eta0

from conftest import dm_box_probability, forced_route

TABLE = np.array([[3, 1, 1], [2, 2, 1], [4, 0, 1]])
M = 5
B = 40_000
SEED = 4100
KS_BAR = 1.95 / math.sqrt(B)
# Support values closer than this are one value: the package's vectorised
# refit and the scalar one below may round differently in the last bits.
TIES = 1e-9


def compositions(n, C):
    """Every count vector of C non-negative entries summing to n, as an (N, C) array."""
    heads = [h for h in itertools.product(range(n + 1), repeat=C - 1) if sum(h) <= n]
    return np.array([(*h, n - sum(h)) for h in heads])


def scalar_refit(counts):
    """(pi*, sep*) of one repaired K x C table, as fit_model and prediction_se define them."""
    K, C = len(counts), len(counts[0])
    sizes = [sum(row) for row in counts]
    N = sum(sizes)
    pi = [sum(row[c] for row in counts) / N for c in range(C)]
    chi2 = rel = 0.0
    for k in range(K):
        for c in range(C):
            e = sizes[k] * pi[c]
            chi2 += (counts[k][c] - e) ** 2 / e
            rel += (counts[k][c] - e) / e
    denom = 1.0 + rel / (K * C - K)
    phi_raw = chi2 / ((K - 1) * (C - 1)) / denom if denom != 0.0 else math.inf
    phi = min(phi_raw, 0.975 * min(sizes)) if phi_raw > 1.0 else 1.01
    sep = [math.sqrt(phi * M * p * (1.0 - p) * (1.0 + M / N)) for p in pi]
    return np.array(pi), np.array(sep)


@pytest.fixture(scope="module")
def fitted():
    data = mp.HistoricalDataset(TABLE)
    return data, mp.fit_model(data)


@pytest.fixture(scope="module")
def exact_law(fitted):
    """(z rows, their probabilities) of the ensemble's exact law."""
    _, fit = fitted
    K, C = TABLE.shape
    n = int(TABLE.sum(axis=1)[0])
    outcomes = compositions(n, C)
    eta = derive_eta0(n, fit.phi_hat) * fit.pi_hat
    p = np.exp([dm_log_pmf(x, n, eta) for x in outcomes])
    # The pmf sums to the whole box's exact probability, one.
    assert abs(p.sum() - dm_box_probability(np.zeros(C), np.full(C, n), n, eta)) < 1e-12
    futures = compositions(M, C)
    eta_future = derive_eta0(M, mp.clamp_dispersion(fit.phi_hat, M)) * fit.pi_hat
    q = np.exp([dm_log_pmf(y, M, eta_future) for y in futures])
    rows, weights = [], []
    for idx in itertools.product(range(len(outcomes)), repeat=K):
        table = outcomes[list(idx)]
        empty = np.flatnonzero(table.sum(axis=0) == 0)
        branch_weight = np.prod(p[list(idx)]) / K ** empty.shape[0]
        for chosen in itertools.product(range(K), repeat=empty.shape[0]):
            repaired = table.tolist()
            for k, c in zip(chosen, empty):
                repaired[k][c] += 1
            pi, sep = scalar_refit(repaired)
            rows.append((futures - M * pi) / sep)
            weights.append(branch_weight * q)
    return np.concatenate(rows), np.concatenate(weights)


STATISTICS = {
    "max|z|": lambda z: np.abs(z).max(axis=1),
    "max z": lambda z: z.max(axis=1),
    "max(-z)": lambda z: (-z).max(axis=1),
    **{f"z[{c}]": (lambda z, c=c: z[:, c]) for c in range(TABLE.shape[1])},
}


def exact_cdf(values, weights):
    """The distinct support values (ties within TIES merged) and the exact CDF at each."""
    order = np.argsort(values, kind="stable")
    values, cdf = values[order], np.cumsum(weights[order])
    last = np.append(np.diff(values) > TIES * np.maximum(1.0, np.abs(values[1:])), True)
    return values[last], cdf[last]


def ks_at_support(sample, support, cdf):
    """sup |F_B - F| over the support; every draw must lie on a support value."""
    sample = np.sort(sample)
    tol = TIES * np.maximum(1.0, np.abs(support))
    below = np.searchsorted(sample, support + tol, side="right")
    on_support = np.searchsorted(sample, support - tol, side="left")
    assert (below - on_support).sum() == sample.shape[0], "a draw lies off the exact support"
    return float(np.abs(below / sample.shape[0] - cdf).max())


def test_exact_law_size_and_quantile(exact_law):
    z, w = exact_law
    assert z.shape == (221_949, 3)
    assert abs(w.sum() - 1.0) < 1e-9
    support, cdf = exact_cdf(STATISTICS["max|z|"](z), w)
    assert round(float(support[np.searchsorted(cdf, 0.95)]), 4) == 2.6452


# The route each case forces; the band leaves out a fifth of each law's mass.
ROUTES = ("band", "gamma", "table")


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("route", ROUTES)
def test_ensemble_follows_its_exact_law(monkeypatch, fitted, exact_law, route, workers):
    data, fit = fitted
    monkeypatch.setattr("mnpred.pool._WORKERS", workers)
    with forced_route(monkeypatch, route):
        z = bootstrap.build_ensemble(fit, data, mp.FutureSpec(m=M), B, mp.RngStream(SEED)).z
    exact_z, w = exact_law
    distances = {
        name: ks_at_support(stat(z), *exact_cdf(stat(exact_z), w))
        for name, stat in STATISTICS.items()
    }
    assert max(distances.values()) < KS_BAR, distances
