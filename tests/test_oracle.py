"""The null-space oracle in array passes against the per-site reference.

``oracle_report`` balances every site's matrix in array passes, takes one
SVD per site and forms gaps, stencils, mismatches and forced-zero shares
as arrays.  ``conftest.reference_oracle_report`` is the one-site-at-a-time
computation it replaced, whose kernel values are numpy scalars.  Every
measure, maximum, failing site and oracle coefficient must agree by
``repr``, and a failure must raise what the reference raises at the first
failing site in site order.
"""

import re
from dataclasses import replace

import numpy as np
import pytest

from crosshex.errors import RankDeficient
from crosshex.labels import HEX_COEFFS, stencil_offsets
from crosshex.operators import build_field, nullspace_oracle, oracle_report, psi_grid, residual_report, sample_probes
from crosshex.surface import TorusCurve
from crosshex.theta import ScaledArray

from conftest import assert_oracle_matches_reference, halo_rows, reference_nullspace_oracle, spectral_data


@pytest.mark.parametrize("b_re", [-3.5, -4.25, -7.9])
@pytest.mark.parametrize("model", ["cross", "hex"])
def test_oracle_report_matches_the_per_site_reference(model, b_re):
    sd = spectral_data(model, TorusCurve(b_re))
    for radius, count in ((0, 8), (0, 60), (3, 20), (3, 60), (10, 8)):
        probes = sample_probes(sd, count, seed=count)
        assert_oracle_matches_reference(build_field(sd, radius), psi_grid(sd, radius, probes))


def test_a_mutated_grid_matches_the_reference(hex_data, hex_probes):
    # the forced-zero case of test_operators: a residue-0 site whose b-neighbour
    # carries the c-neighbour's values, so a forced zero takes half the equation
    field = build_field(hex_data, 1)
    grid = psi_grid(hex_data, 1, hex_probes)
    site = (0, 0, 0)
    nbs = stencil_offsets("hex", site)
    b_row, c_row = halo_rows(grid, [nbs[HEX_COEFFS.index("b")], nbs[HEX_COEFFS.index("c")]])
    mantissa, log_scale = grid.values.mantissa.copy(), grid.values.log_scale.copy()
    mantissa[b_row], log_scale[b_row] = mantissa[c_row], log_scale[c_row]
    mutated = replace(grid, values=ScaledArray(mantissa, log_scale))
    report = assert_oracle_matches_reference(field, mutated)
    assert report.max_forced_zero_excess >= 0.1 and site in report.failures


def _reference_failure(model, grid):
    """The first site of ``grid`` at which the per-site reference raises, and what it raises."""
    for site in grid.sites:
        try:
            reference_nullspace_oracle(model, site, grid)
        except Exception as exc:  # noqa: BLE001 - the failure's class is what is compared
            return site, exc
    raise AssertionError("the reference passes every site")


def _with_rows(grid, changes):
    """``grid`` with the psi rows of some neighbour sites replaced: {site: (mantissas, log scales)}."""
    mantissa, log_scale = grid.values.mantissa.copy(), grid.values.log_scale.copy()
    for row, (m, s) in zip(halo_rows(grid, changes), changes.values()):
        mantissa[row], log_scale[row] = m, s
    return replace(grid, values=ScaledArray(mantissa, log_scale))


def _row(grid, site):
    (row,) = halo_rows(grid, [site])
    return grid.values.mantissa[row], grid.values.log_scale[row]


def _failure_cases(grid, probes):
    """Mutated cross grids (radius 2) whose first failure is at a site after the window's first."""
    nan = (np.full(len(probes), complex(np.nan, 0.0)), np.zeros(len(probes)))
    # (1, 1)'s neighbours a = (0, 1) and b = (2, 1) carry the same values, and
    # no other site has both: its one kernel is e_a - e_b, with no unit part
    unitless = {(2, 1): _row(grid, (0, 1))}
    # and so do c = (1, 0) and d = (1, 2): a kernel of dimension 2
    twins = {**unitless, (1, 2): _row(grid, (1, 0))}
    # and so do a, b and c = (1, 0): every kernel vector has no unit part, and the rank check comes first
    triplets = {**unitless, (1, 0): _row(grid, (0, 1))}
    late_nan = {(2, 2): nan}  # reaches (1, 2), (2, 1) and (2, 2), all after (1, 1)
    early_nan = {(0, 0): nan}  # reaches (-1, 0), (0, -1), (0, 0), (0, 1) and (1, 0), all before (1, 1)
    return {
        "rank": twins,
        "unit": unitless,
        "rank-and-unit": triplets,
        "rank-before-svd": {**twins, **late_nan},
        "svd-before-rank": {**twins, **early_nan},
        "svd-before-unit": {**unitless, **early_nan},
    }


@pytest.mark.parametrize(
    "case", ["rank", "unit", "rank-and-unit", "rank-before-svd", "svd-before-rank", "svd-before-unit"]
)
def test_a_failure_raises_what_the_reference_raises_at_its_first_failing_site(case, cross_data, cross_probes):
    field = build_field(cross_data, 2)
    grid = psi_grid(cross_data, 2, cross_probes)
    mutated = _with_rows(grid, _failure_cases(grid, cross_probes)[case])
    site, expected = _reference_failure("cross", mutated)
    assert site != field.sites[0]
    with pytest.raises(type(expected)) as raised:
        oracle_report(field, mutated)
    if isinstance(expected, RankDeficient):
        # the message names the site; the rest is the reference's
        assert f" at site {site}" in str(raised.value)
        assert str(raised.value).replace(f" at site {site}", "") == str(expected)
    kind = {"rank": "dimension >= 2", "unit": "vanishing unit"}.get(case.split("-")[0])
    assert kind is None or kind in str(raised.value)


def test_too_few_or_other_probes_raise_valueerror_first(cross_data, cross_probes):
    field = build_field(cross_data, 1)
    with pytest.raises(ValueError, match="at least 8 probe points"):
        oracle_report(field, psi_grid(cross_data, 1, [cross_probes[0]] * 7))
    # the first probes repeated: every site's kernel has dimension >= 2
    with pytest.raises(RankDeficient, match=r"at site \(-1, -1\)"):
        oracle_report(field, psi_grid(cross_data, 1, [cross_probes[0]] * 8))
    # an empty window checks nothing
    assert oracle_report(field, psi_grid(cross_data, [], cross_probes[:5])).entries == ()


def _refuse_passes(monkeypatch, sd):
    """Make every evaluation a report could start fail: psi, a stencil, an SVD or a residual pass."""

    def evaluated(*args, **kwargs):
        raise AssertionError("an evaluation, an SVD or a residual pass ran before the refusal")

    for target in ("phi_scaled", "marked_thetas"):
        monkeypatch.setattr(sd, target, evaluated)
    for target in ("nullspace_oracle", "_site_residuals"):
        monkeypatch.setattr(f"crosshex.operators.{target}", evaluated)


def test_too_few_probes_are_refused_before_any_evaluation(cross_data, cross_probes, monkeypatch):
    field = build_field(cross_data, 3)
    grid = psi_grid(cross_data, 3, cross_probes[:7])
    _refuse_passes(monkeypatch, cross_data)
    with pytest.raises(ValueError, match="at least 8 probe points"):
        oracle_report(field, grid)


def test_a_matrix_wider_than_tall_is_refused():
    # its reduced SVD has fewer right singular vectors than columns, so vh[-1] is no kernel vector
    with pytest.raises(ValueError, match=re.escape("at least as many rows as columns, got (5, 7)")):
        nullspace_oracle(np.ones((5, 7), dtype=complex))


@pytest.mark.parametrize("report", [residual_report, oracle_report])
def test_a_site_outside_the_field_is_refused_before_any_evaluation(report, cross_data, cross_probes, monkeypatch):
    field = build_field(cross_data, 1)
    grid = psi_grid(cross_data, [(0, 0), (3, 3), (-4, 4)], cross_probes)
    _refuse_passes(monkeypatch, cross_data)
    with pytest.raises(ValueError, match=r"no stencil at site \(3, 3\)"):
        report(field, grid)


@pytest.mark.parametrize("report", [residual_report, oracle_report])
def test_a_field_of_the_other_model_is_refused(report, cross_data, hex_data, cross_probes, hex_probes):
    # a cross field holds pairs and a hex field triples: no grid site of the other model matches
    for sd, other, probes in ((cross_data, hex_data, cross_probes), (hex_data, cross_data, hex_probes)):
        grid = psi_grid(sd, 1, probes)
        with pytest.raises(ValueError, match=re.escape(f"no stencil at site {grid.sites[0]}")):
            report(build_field(other, 1), grid)
