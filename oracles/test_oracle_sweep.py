"""Radius-20 and radius-40 oracle sweep: the array null-space oracle against the per-site reference.

``oracle_report`` balances every site's probes-by-coefficients matrix in
array passes and forms gaps, stencils, mismatches and forced-zero shares
as arrays; ``tests/conftest.reference_oracle_report`` is the
one-site-at-a-time computation it replaced.  Every measure, maximum,
failing site and oracle coefficient must agree by ``repr`` on windows of
1,681 and 6,561 (cross) or 1,261 and 4,921 (hex) sites, at 20 probes
and Re B = -4.25.  At radius 40 the neighbour values of one site's
matrix spread over 27 decades at the median site and up to 57 (cross),
17 and 38 (hex); every site passes there.

About 7 s on a 2-core Xeon; this file sits outside the tier-1
``testpaths``:

    PYTHONPATH=src python -m pytest -q oracles
"""

import pathlib
import sys

import pytest

from crosshex.operators import build_field, psi_grid, sample_probes
from crosshex.surface import TorusCurve

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))
from conftest import assert_oracle_matches_reference, drawn_spectral_data  # noqa: E402


@pytest.mark.parametrize("radius", [20, 40])
@pytest.mark.parametrize("model", ["cross", "hex"])
def test_wide_oracle_report_matches_the_per_site_reference(model, radius):
    sd = drawn_spectral_data(model, TorusCurve(-4.25))
    probes = sample_probes(sd, 20, seed=radius)
    assert_oracle_matches_reference(build_field(sd, radius), psi_grid(sd, radius, probes))
