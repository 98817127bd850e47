"""Shared fixtures: one genus-one curve with well-separated spectral data.

Everything is session-scoped on purpose: the spectral-data objects
memoize pure evaluations (path integrals, function values), so sharing
them across test modules keeps the whole suite fast without any
cross-test state leaking — the caches are value caches only.
"""

import pytest
from hypothesis import settings

from crosshex.operators import sample_probes
from crosshex.surface import TorusCurve
from crosshex_testlib import spectral_data

# every property test draws the same examples on every run, whatever it has drawn before
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")

B_FIXTURE = -6.0


@pytest.fixture(scope="session")
def torus():
    return TorusCurve(B_FIXTURE)


@pytest.fixture(scope="session")
def cross_data(torus):
    return spectral_data("cross", torus)


@pytest.fixture(scope="session")
def hex_data(torus):
    return spectral_data("hex", torus)


@pytest.fixture(scope="session")
def cross_probes(cross_data):
    return sample_probes(cross_data, 12, seed=5)


@pytest.fixture(scope="session")
def hex_probes(hex_data):
    return sample_probes(hex_data, 12, seed=7)

