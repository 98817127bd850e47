"""mpmath oracle for the third-kind integrals of the torus backend.

The integral int_{P0}^{P} Omega_{A,B} is computed by the package as a
continuously tracked logarithm, log E(u - a) - log E(u - b) between the
lifts.  Here the same quantity is the straight-path integral of the
logarithmic derivatives, theta'/theta, evaluated with mpmath's
``jtheta(3, z/(2i), exp(B/2))`` (the package's theta series in mpmath's
convention) and integrated by Gauss-Legendre quadrature at 16 digits.
The quadrature needs no branch tracking at all, so agreement tests the
tracking independently.

Each integral takes about a second, so this file sits outside the tier-1
``testpaths``; run it with

    PYTHONPATH=src python -m pytest -q oracles
"""

import math

import pytest

mp = pytest.importorskip("mpmath")

from crosshex.surface import SurfacePoint, TorusCurve  # noqa: E402

TOL = 1e-10

# (B, pole A cell fractions, pole B cell fractions, endpoint cell fractions);
# most endpoints leave the fundamental cell, so their paths pass between pole
# translates; every path keeps at least 0.4 from them, where the quadrature converges
CASES = [
    (complex(-4.25, 0.0), (0.23, 0.41), (0.71, 0.83), (0.55, 0.30)),
    (complex(-4.25, 0.0), (0.23, 0.41), (0.71, 0.83), (1.45, 1.25)),
    (complex(-4.25, 0.0), (0.62, 0.12), (0.18, 0.57), (-0.65, 2.35)),
    (complex(-6.75, 2.0), (0.31, 0.77), (0.84, 0.26), (0.45, 0.55)),
    (complex(-6.75, 2.0), (0.31, 0.77), (0.84, 0.26), (2.30, -0.85)),
    (complex(-6.75, 2.0), (0.05, 0.48), (0.52, 0.93), (-1.20, 1.60)),
]


def _quadrature_integral(B: complex, pole_a: complex, pole_b: complex, base: complex, end: complex):
    """int_base^end of theta'/theta(u - pole_a - z0) - theta'/theta(u - pole_b - z0) du, straight path."""
    z0 = 1j * math.pi + B / 2.0  # the theta zero: E(w) = theta(w - z0)
    span = end - base
    with mp.workdps(16):
        q = mp.exp(mp.mpc(B) / 2)

        def log_derivative(w):
            # d/dw theta(w) = d/dw jtheta(3, w/(2i), q) = jtheta'(3, w/(2i), q) / (2i)
            x = mp.mpc(w) / 2j
            return mp.jtheta(3, x, q, 1) / (2j * mp.jtheta(3, x, q))

        def integrand(tau):
            u = base + tau * span
            return span * (log_derivative(u - pole_a - z0) - log_derivative(u - pole_b - z0))

        return complex(mp.quad(integrand, mp.linspace(0, 1, 5), method="gauss-legendre"))


@pytest.mark.parametrize("B, frac_a, frac_b, frac_end", CASES)
def test_third_kind_integral_matches_quadrature(B, frac_a, frac_b, frac_end):
    curve = TorusCurve(B, base_lift=0.15 - 0.2j)

    def cell(fs, ft):
        return SurfacePoint(complex(curve.base_lift + 2j * math.pi * fs + B * ft))

    plus, minus, P = cell(*frac_a), cell(*frac_b), cell(*frac_end)
    tracked = curve.third_kind_integral(P, plus, minus)
    oracle = _quadrature_integral(B, plus.lift, minus.lift, curve.base_lift, P.lift)
    assert abs(tracked - oracle) <= TOL, (tracked, oracle)
