import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import mnpred as mp

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
def thread_starts(monkeypatch):
    """The threads started while the test runs, in order."""
    started = []
    start = threading.Thread.start

    def counted(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return started
