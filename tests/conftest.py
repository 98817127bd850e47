"""Shared fixtures: one genus-one curve with well-separated spectral data.

Everything is session-scoped on purpose: the spectral-data objects
memoize pure evaluations (path integrals, function values), so sharing
them across test modules keeps the whole suite fast without any
cross-test state leaking — the caches are value caches only.
"""

import json
import math

import pytest

from crosshex.bafunc import SpectralDataCross, SpectralDataHex
from crosshex.operators import sample_probes
from crosshex.surface import make_torus_curve

B_FIXTURE = -6.0

# fundamental-cell fractions (s, t): lift = 2*pi*i*s + B*t
CELL_FRACTIONS = (
    (0.13, 0.71),
    (0.52, 0.18),
    (0.83, 0.42),
    (0.29, 0.88),
    (0.64, 0.55),
    (0.91, 0.07),
)
DIVISOR_FRACTION = (0.37, 0.33)

CROSS_NAME_ORDER = ("P1+", "P1-", "P2+", "P2-", "P3+", "P3-")
HEX_NAME_ORDER = ("Q1", "Q2", "Q3", "R1", "R2", "R3")


def cell_point(curve, fs, ft):
    return curve.point(2j * math.pi * fs + curve.pm.B * ft)


def genus_two_document(curve_doc: dict) -> dict:
    """A curve document reshaped as genus 2: a 2x2 B, every lift and period a list of 2 pairs."""
    doc = json.loads(json.dumps(curve_doc))
    doc["genus"] = 2
    doc["B"] = [[[-5.0, 0.7], [1.2, -0.4]], [[1.2, -0.4], [-4.2, 1.1]]]
    for key in ("base_lift", "riemann_constants"):
        doc[key] = [doc[key], [0.0, 0.0]]
    for section in ("marked_points", "b_periods"):
        doc[section] = {name: [pair, [0.0, 0.0]] for name, pair in doc[section].items()}
    return doc


@pytest.fixture(scope="session")
def torus():
    return make_torus_curve(B_FIXTURE)


def _spectral(cls, names, curve):
    marked = {
        name: cell_point(curve, fs, ft)
        for name, (fs, ft) in zip(names, CELL_FRACTIONS)
    }
    divisor = [cell_point(curve, *DIVISOR_FRACTION)]
    return cls(curve, marked, divisor)


@pytest.fixture(scope="session")
def cross_data(torus):
    return _spectral(SpectralDataCross, CROSS_NAME_ORDER, torus)


@pytest.fixture(scope="session")
def hex_data(torus):
    return _spectral(SpectralDataHex, HEX_NAME_ORDER, torus)


@pytest.fixture(scope="session")
def cross_probes(cross_data):
    return sample_probes(cross_data, 12, seed=5)


@pytest.fixture(scope="session")
def hex_probes(hex_data):
    return sample_probes(hex_data, 12, seed=7)
