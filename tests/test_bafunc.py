import numpy as np
import pytest

from crosshex.bafunc import ConstantNormalization, SpectralDataCross, SpectralDataHex
from crosshex.errors import (
    ConsistencyFailure,
    DimensionMismatch,
    SingularEvaluation,
)
from crosshex.labels import relabel_cross, relabel_hex, site_cross, site_hex, stencil_offsets
from crosshex.operators import psi_grid

from conftest import (
    CELL_FRACTIONS,
    CROSS_NAME_ORDER,
    DIVISOR_FRACTION,
    cell_point,
    one_value_phi,
    translated,
)

CROSS_LABEL = (2, -1, 1)
HEX_LABEL = (2, -1, -1, 1, -2, 1)


def test_zero_label_value_is_one_at_the_base(cross_data, hex_data, cross_probes, hex_probes):
    for sd, label, probes in ((cross_data, (0, 0, 0), cross_probes), (hex_data, (0,) * 6, hex_probes)):
        base = sd.curve.point(sd.curve.base_lift)
        (value,) = sd.phi_scaled([label], [base]).scalars()
        assert value.as_complex() == pytest.approx(1.0, abs=1e-14)
        # the zero label's numerator is the denominator at every point
        for at_probe in sd.phi_scaled([label], probes[:3]).scalars():
            assert at_probe.as_complex() == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("model", ["cross", "hex"])
def test_phi_grid_matches_one_value_phi_bit_for_bit(model, cross_data, hex_data, cross_probes, hex_probes):
    sd, probes = (cross_data, cross_probes) if model == "cross" else (hex_data, hex_probes)
    relabel = relabel_cross if model == "cross" else relabel_hex
    make = site_cross if model == "cross" else site_hex
    sites = [(n, m) for n in range(-5, 6) for m in range(-5, 6)]
    if model == "hex":
        sites = [(k, l, -k - l) for k, l in sites]
    labels = [relabel(make(*s)) for s in sites]
    grid = sd.phi_scaled(labels, probes)
    assert grid.shape == (len(labels), len(probes))
    got = iter(grid.scalars())
    for label in labels:
        for P in probes:
            assert repr(next(got)) == repr(one_value_phi(sd, label, P)), (label, P.lift)


def test_phi_depends_on_the_point(cross_data, cross_probes):
    a, b = (v.as_complex() for v in cross_data.phi_scaled([CROSS_LABEL], cross_probes[:2]).scalars())
    assert abs(a - b) > 1e-6 * max(abs(a), abs(b))


@pytest.mark.parametrize(
    "fixture, sites",
    [
        ("cross", [(0, 0), (1, 0), (2, -1), (0, 2), (-2, 0), (1, 1)]),
        ("hex", [(0, 0, 0), (1, 0, -1), (2, 0, -2), (1, 1, -2), (-1, 0, 1), (0, -2, 2)]),
    ],
)
def test_relift_invariance(fixture, sites, cross_data, hex_data, cross_probes, hex_probes):
    sd = cross_data if fixture == "cross" else hex_data
    make = site_cross if fixture == "cross" else site_hex
    probes = (cross_probes if fixture == "cross" else hex_probes)[:2]
    labels = [sd.site_label(make(*raw)) for raw in sites]
    values = sd.phi_scaled(labels, probes).scalars()
    moved = sd.phi_scaled(labels, [translated(sd, P, 1, 1) for P in probes]).scalars()
    for val, other in zip(values, moved):
        assert abs(other.over(val).as_complex() - 1.0) <= 1e-10


def _fitted_vanishing_order(sd, label, point):
    """Vanishing order at a marked point from a log-log ladder fit.

    phi ~ eps^order as the evaluation point approaches the marked point
    along an off-axis ray (so the straight integration path from the
    base stays clear of the pole itself); negative orders are poles.
    """
    direction = 0.6 + 0.8j
    ladder = [10.0 ** (-k) for k in (3.0, 3.5, 4.0, 4.5)]
    points = [sd.curve.point(point.lift + eps * direction) for eps in ladder]
    return np.polyfit(np.log(ladder), sd.phi_scaled([label], points).log_abs[0], 1)[0]


def test_cross_orders_match_label_components(cross_data):
    # the first-named point of each pair carries the zero for a positive
    # component; its partner carries the matching pole
    x1, x2, x3 = CROSS_LABEL
    expected = dict(
        zip(CROSS_NAME_ORDER, (x1, -x1, x2, -x2, x3, -x3))
    )
    for name, want in expected.items():
        got = _fitted_vanishing_order(cross_data, CROSS_LABEL, cross_data.marked[name])
        assert abs(got - want) <= 0.05 * max(1.0, abs(want))


def test_hex_orders_are_negated_label_components(hex_data):
    # hex pairs anchor at the third point of each triple, which makes the
    # per-point order the negative of the matching label component
    expected = dict(zip(hex_data.marked_names, [-x for x in HEX_LABEL]))
    for name, want in expected.items():
        got = _fitted_vanishing_order(hex_data, HEX_LABEL, hex_data.marked[name])
        assert abs(got - want) <= 0.05 * max(1.0, abs(want))


def test_normalization_scales_phi_linearly(torus, cross_data, cross_probes):
    lam = 0.37 - 2.2j
    scaled = SpectralDataCross(
        torus,
        dict(cross_data.marked),
        cross_data.divisor,
        normalization=ConstantNormalization(lam),
    )
    base = cross_data.phi_scaled([CROSS_LABEL], cross_probes[:3]).scalars()
    for b, s in zip(base, scaled.phi_scaled([CROSS_LABEL], cross_probes[:3]).scalars()):
        b, s = b.as_complex(), s.as_complex()
        assert abs(s - lam * b) <= 1e-12 * abs(lam * b)


def test_psi_is_phi_at_the_site_label(cross_data, hex_data, cross_probes, hex_probes):
    for sd, probes, site, relabel in (
        (cross_data, cross_probes[:2], (1, 2), relabel_cross),
        (hex_data, hex_probes[:2], (1, 1, -2), relabel_hex),
    ):
        neighbors = stencil_offsets(sd.model, site)
        grid = psi_grid(sd, [site], probes)
        psi = grid.values[grid.neighbor_rows[0]]  # the site's stored neighbour rows
        phi = sd.phi_scaled([relabel(nb) for nb in neighbors], probes)
        assert repr(psi.scalars()) == repr(phi.scalars())


def test_evaluation_on_the_divisor_is_refused(cross_data):
    near = cross_data.curve.point(cross_data.divisor[0].lift + 1e-12 * (0.3 + 0.4j))
    with pytest.raises(SingularEvaluation):
        cross_data.phi_scaled([CROSS_LABEL], [near])


def test_singular_denominator_is_refused_on_every_call(cross_data):
    near = cross_data.curve.point(cross_data.divisor[0].lift + 1e-12 * (0.3 + 0.4j))
    for _ in range(2):
        with pytest.raises(SingularEvaluation):
            cross_data.denominator_scaled(near)


def test_non_finite_phi_is_refused(torus, cross_data, cross_probes):
    # a huge normalization overflows some mantissas: refused, never returned
    huge = SpectralDataCross(
        torus, dict(cross_data.marked), cross_data.divisor, ConstantNormalization(1e308)
    )
    labels = [relabel_cross(site_cross(n, m)) for n in range(-1, 2) for m in range(-1, 2)]
    with pytest.raises(SingularEvaluation, match="left double range"):
        huge.phi_scaled(labels, cross_probes)


def test_marked_point_collision_is_detected(torus):
    marked = {
        name: cell_point(torus, fs, ft)
        for name, (fs, ft) in zip(CROSS_NAME_ORDER, CELL_FRACTIONS)
    }
    marked["P1-"] = torus.point(marked["P1+"].lift + 1e-8)
    with pytest.raises(ConsistencyFailure):
        SpectralDataCross(torus, marked, [cell_point(torus, *DIVISOR_FRACTION)])


def test_divisor_length_must_match_genus(torus, cross_data):
    with pytest.raises(DimensionMismatch):
        SpectralDataCross(
            torus,
            dict(cross_data.marked),
            [cell_point(torus, 0.37, 0.33), cell_point(torus, 0.81, 0.66)],
        )


def test_wrong_marked_names_rejected(torus, cross_data):
    with pytest.raises(ValueError):
        SpectralDataHex(torus, dict(cross_data.marked), cross_data.divisor)


@pytest.mark.parametrize("bad", [(1, 0), (1, 0, 0, 0), "xyz"])
def test_cross_label_validation(cross_data, bad):
    with pytest.raises((DimensionMismatch, ValueError)):
        cross_data.validate_label(bad)


def test_hex_label_blocks_enforced(hex_data):
    with pytest.raises(ValueError):
        hex_data.validate_label((1, 0, 0, 0, 0, 0))


def test_normalization_floor():
    with pytest.raises(SingularEvaluation):
        ConstantNormalization(1e-13)
