import numpy as np
import pytest

from subsetci import Dataset


@pytest.fixture
def rng():
    return np.random.default_rng(20250809)


def random_dataset(rng, n=15, p=4, signal=None, names=None):
    X = rng.standard_normal((n, p))
    if signal is None:
        signal = np.zeros(p)
        signal[0] = 1.5
    y = X @ signal + rng.standard_normal(n)
    if names is None:
        names = tuple(f"x{j+1}" for j in range(p))
    return Dataset(X, y, names)


@pytest.fixture
def small_data(rng):
    return random_dataset(rng)


@pytest.fixture
def measurements(monkeypatch):
    """One entry per call of ``geometry._scaled_directions`` while the test
    runs, wherever the package binds it."""
    from subsetci import geometry, harness, inference

    calls = []
    scaled = geometry._scaled_directions

    def counted(*args, **kwargs):
        calls.append(None)
        return scaled(*args, **kwargs)

    for module in (geometry, inference, harness):
        if getattr(module, "_scaled_directions", None) is scaled:
            monkeypatch.setattr(module, "_scaled_directions", counted)
    return calls
