"""Shared fixtures: one genus-one curve with well-separated spectral data.

Everything is session-scoped on purpose: the spectral-data objects
memoize pure evaluations (path integrals, function values), so sharing
them across test modules keeps the whole suite fast without any
cross-test state leaking — the caches are value caches only.
"""

import functools
import json
import math

import pytest

from crosshex.bafunc import _THETA_EPS, SpectralDataCross, SpectralDataHex
from crosshex.operators import MODELS, sample_probes
from crosshex.surface import make_torus_curve
from crosshex.theta import ScaledComplex, theta_eval_scaled

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


def translated(sd, P, m, n):
    """The same curve point on a lift moved by the lattice vector 2*pi*i*m + B*n."""
    return sd.curve.point(P.lift + (2j * math.pi * m + sd.curve.pm.B * n))


def label_shift(relabel, site, key):
    """relabel(neighbour) - relabel(site) for the neighbour of coefficient ``key``."""
    return tuple(b - a for a, b in zip(relabel(site), relabel(site.neighbor(key))))


def _theta_argument(sd, P, label):
    """A(P) + c(label) . U - A(D) - K, with the dot taken by numpy as the package takes it."""
    return sd.curve.abel(P) + complex(sd.label_coeffs(label) @ sd._U) + sd._W


@functools.lru_cache(maxsize=None)
def _integral(curve, lift, plus, minus):
    return curve.third_kind_integral(curve.point(lift), curve.point(plus), curve.point(minus))


def one_value_phi(sd, label, P):
    """phi at one label and one point, by the one-value formula: the grid's reference.

    Scalar theta calls, one third-kind integral per nonzero label
    coefficient (memoized here, by lifts), summed in basis order, and
    ScaledComplex arithmetic; ``phi_scaled`` must give these bits at
    every grid element.
    """
    label = sd.validate_label(label)
    den = sd.require_generic(
        theta_eval_scaled(sd.curve.pm, sd.curve.abel(P) + sd._W, _THETA_EPS), "denominator"
    )
    num = theta_eval_scaled(sd.curve.pm, _theta_argument(sd, P, label), _THETA_EPS)
    w = 0j
    for c, (plus, minus) in zip(sd.label_coeffs(label), sd.basis_pairs):
        if c != 0:
            w += complex(c) * _integral(sd.curve, P.lift, sd.marked[plus].lift, sd.marked[minus].lift)
    return num.over(den).times_exp(w).times(sd.normalization.value)


def _one_label_product(sd, v, term, thetas):
    out = ScaledComplex.one()
    for factor in term.theta_num:
        out = out.times(_marked_theta(sd, factor, v, thetas))
    for factor in term.theta_den:
        den = sd.require_generic(
            _marked_theta(sd, factor, v, thetas),
            f"theta denominator at {factor.point} with shift {factor.shift}",
        )
        out = out.over(den)
    w = 0j
    for it in term.integrals:
        a, b = it.pair
        w += it.sign * _integral(sd.curve, sd.marked[it.endpoint].lift, sd.marked[a].lift, sd.marked[b].lift)
    out = out.times_exp(w)
    return out.negated() if term.sign < 0 else out


def _marked_theta(sd, factor, v, thetas):
    key = factor.point, tuple(x + d for x, d in zip(v, factor.shift))
    if key not in thetas:
        arg = _theta_argument(sd, sd.marked[factor.point], sd.validate_label(key[1]))
        thetas[key] = theta_eval_scaled(sd.curve.pm, arg, _THETA_EPS)
    return thetas[key]


def _one_label_ratio(sd, v, formula, thetas=None):
    """One coefficient ratio at label v, by the one-label formula in ScaledComplex arithmetic.

    Scalar theta calls (memoized in ``thetas`` by marked point and
    shifted label), one ``third_kind_integral`` per integral term, and the
    main term times the bracket sum, times the normalization ratio, signed.
    """
    thetas = {} if thetas is None else thetas
    v = tuple(v)
    out = _one_label_product(sd, v, formula.main, thetas)
    if formula.bracket:
        acc = _one_label_product(sd, v, formula.bracket[0], thetas)
        for term in formula.bracket[1:]:
            acc = acc.plus(_one_label_product(sd, v, term, thetas))
        out = out.times(acc)
    out = out.times(sd.normalization.ratio())
    return out.negated() if formula.sign < 0 else out


def one_site_stencil(sd, site, thetas=None):
    """The stencil values at one site, one formula at a time: the array build's reference.

    The class's unit is exactly 1 and its forced zeros exactly 0;
    ``build_field`` must give these bits at every site.
    """
    thetas = {} if thetas is None else thetas
    model = MODELS[sd.model]
    s = model.site(*site)
    cls = model.site_class(s)
    vals = {model.units[cls]: ScaledComplex.one(), **{k: ScaledComplex(0j, 0.0) for k in model.zeros[cls]}}
    for formula in model.formulas[cls]:
        vals[formula.coeff] = _one_label_ratio(sd, sd.site_label(s), formula, thetas)
    return tuple(vals[k] for k in model.coeffs)


def spectral_data(model, curve):
    """Spectral data of ``model`` on ``curve``, with the fixture's marked and divisor points."""
    if model == "cross":
        return _spectral(SpectralDataCross, CROSS_NAME_ORDER, curve)
    return _spectral(SpectralDataHex, HEX_NAME_ORDER, curve)


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
