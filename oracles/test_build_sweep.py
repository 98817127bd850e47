"""Radius-40 build sweep: the stacked window build against the one-site formulas.

``build_field`` evaluates every stencil of a window in a fixed number of
array passes (the ratio arithmetic of all sites and formulas stacked by
term shape).  ``tests/conftest.one_site_stencil`` evaluates the same
closed-form ratios one site and one formula at a time, in ScaledComplex
arithmetic with scalar theta calls and one-path third-kind integrals.
Every coefficient of every site must agree by ``repr``.

The sweep runs at radius 40, where a window has 4,921 (hex) or 6,561
(cross) sites, the theta log scales reach 60-160 (hex) and 480-1,300
(cross), and the coefficients' log magnitudes 7-14 (hex) and 38-103
(cross); for Re B in {-8, -4.25, -3}, Im B in {0, +-3}, and both
models.  The two terms of a bracket stay within 3.6 of each other in
log scale, so the exp cutoff of ``ScaledArray.plus`` (a gap of 745 or
more) never fires in a build; ``tests/test_theta.py`` covers it.

The marked and divisor points are drawn as ``gen-spectral`` draws them,
from a fixed seed.  The test fixture's points sit at rational cell
fractions, and at radius 40 some theta denominator of their window lands
on the theta divisor to within rounding (|mantissa| about 1e-14, refused
by the genericity floor).

About 50 s on a 2-core Xeon; this file sits outside the tier-1
``testpaths``:

    PYTHONPATH=src python -m pytest -q oracles
"""

import pathlib
import sys

import pytest

from crosshex.operators import build_field
from crosshex.surface import TorusCurve

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))
from conftest import drawn_spectral_data, one_site_stencil, scalars  # noqa: E402

RADIUS = 40
PERIODS = [complex(re, im) for re in (-8.0, -4.25, -3.0) for im in (0.0, 3.0, -3.0)]


@pytest.mark.parametrize("B", PERIODS)
def test_radius_40_build_matches_the_one_site_formulas(B):
    curve = TorusCurve(B)
    for model in ("cross", "hex"):
        sd = drawn_spectral_data(model, curve)
        field = build_field(sd, RADIUS)
        thetas = {}
        mismatched = [
            site
            for site in field.sites
            if repr(scalars(field.stencil(site).values)) != repr(one_site_stencil(sd, site, thetas))
        ]
        assert not mismatched, (model, len(mismatched), mismatched[:5])
        # the theta values the window divides by are far outside double range
        assert max(abs(t.log_scale) for t in thetas.values()) > 50.0
