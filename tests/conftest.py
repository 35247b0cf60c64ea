import contextlib
import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from scipy.special import gammaln

import mnpred as mp
from mnpred import bootstrap
from mnpred.dm import InversionTable

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def toy_data():
    return mp.HistoricalDataset(np.array([[5, 3, 2], [1, 4, 5]]))


@pytest.fixture
def toy_fit(toy_data):
    return mp.fit_model(toy_data)


@pytest.fixture(scope="session")
def histo_data():
    """Five-category dataset shaped like severity tables: K=10, n=46."""
    return mp.generate_dataset(
        10,
        46,
        (0.224, 0.466, 0.273, 0.031, 0.004),
        3.19,
        mp.RngStream(7).child(0),
        repair=True,
        categories=("Minimal", "Slight", "Moderate", "Severe", "Massive"),
    )


@pytest.fixture
def forks(monkeypatch):
    """The pids that called os.fork while the test runs, in order."""
    started = []
    fork = os.fork

    def counted():
        started.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return started


def assert_no_child_left():
    """This process has no child process, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def appender(path):
    """A callable that appends one line to path, from whichever process calls it."""

    def append(line: str) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")

    return append


@contextlib.contextmanager
def forced_route(monkeypatch, route, mass=0.2):
    """Make ``bootstrap.build_ensemble`` draw by ``route`` while the block runs; assert it did.

    The band-mass ladder is cut to the route's one rung: mass 0 (every
    reachable row and column) for ``table``, ``mass`` for ``band`` and
    none for ``gamma``.  The cell budget is left as it is: at K=3, n=5,
    C=3 (test_ensemble_law.py) a band's 48 log-pmf terms outgrow the
    mass-0 table's 42 cells, so no budget admits a band there and refuses
    mass 0.  The masses of the tables built are recorded and checked when
    the block ends: all 0 for ``table``, all ``mass`` for ``band``, none
    for ``gamma``.
    """
    built = []

    class Recorded(InversionTable):
        def __init__(self, n, pi, phi, mass=0.0):
            built.append(mass)
            super().__init__(n, pi, phi, mass)

    rungs = {"table": (0.0,), "band": (mass,), "gamma": ()}[route]
    monkeypatch.setattr(bootstrap, "_BAND_MASSES", rungs)
    monkeypatch.setattr(bootstrap, "InversionTable", Recorded)
    yield
    assert set(built) == set(rungs), (route, built)


def mc_equicoordinate_quantile(corr, alpha, rng, n_draws):
    """(1-alpha) quantile of max_c |Z_c| for Z ~ N(0, corr), by Monte Carlo.

    The oracle for the package's exact mvn quantile.  The correlation may be
    singular, so the draws are built from its eigendecomposition with
    near-zero eigenvalues dropped.  The shocks come from the RngStream
    ``rng`` in blocks of rows, in the order of one (n_draws, rank) draw,
    and each block keeps only max|Z| per draw.
    """
    eigvals, eigvecs = np.linalg.eigh((corr + corr.T) / 2.0)
    keep = eigvals > 1e-10
    root = eigvecs[:, keep] * np.sqrt(eigvals[keep])[None, :]
    gen = rng.generator()
    block = 8192
    max_abs = np.empty(n_draws)
    for i in range(0, n_draws, block):
        shocks = gen.standard_normal((min(block, n_draws - i), root.shape[1]))
        max_abs[i : i + shocks.shape[0]] = np.abs(root @ shocks.T).max(axis=0)
    k = min(max(int(np.ceil((1.0 - alpha) * n_draws)), 1), n_draws) - 1
    return float(np.partition(max_abs, k)[k])


def dm_box_probability(lower, upper, m, eta):
    """Exact P(lower <= y <= upper) for y ~ DM(m, eta), coordinatewise.

    An integer y lies in [L, U] iff ceil(L) <= y <= floor(U).  Given the
    total m the pmf factorises over categories into the gamma terms of
    `dm_log_pmf`, so the box probability is the coefficient of t^m in
    the product of one truncated polynomial per category: a convolution
    over categories, O(C m^2).
    """
    eta = np.asarray(eta, dtype=float)
    lo = np.maximum(np.ceil(np.asarray(lower, dtype=float)), 0).astype(int)
    hi = np.minimum(np.floor(np.asarray(upper, dtype=float)), m).astype(int)
    if np.any(lo > hi) or lo.sum() > m or hi.sum() < m:
        return 0.0
    eta0 = float(eta.sum())
    log_scale = gammaln(m + 1.0) + gammaln(eta0) - gammaln(m + eta0)
    # poly[j] is the (scaled) coefficient of t^(lo.sum() + j)
    poly = np.ones(1)
    for c in range(eta.shape[0]):
        x = np.arange(lo[c], hi[c] + 1, dtype=float)
        terms = gammaln(x + eta[c]) - gammaln(x + 1.0) - gammaln(eta[c])
        shift = float(terms.max())
        poly = np.convolve(poly, np.exp(terms - shift))[: m - lo.sum() + 1]
        log_scale += shift
    return float(math.exp(log_scale) * poly[m - lo.sum()])
