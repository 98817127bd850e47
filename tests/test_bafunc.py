import math

import numpy as np
import pytest

from crosshex.bafunc import (
    ConstantNormalization,
    SpectralDataCross,
    SpectralDataHex,
    phi,
    psi,
    relift,
    theta_component,
    uniqueness_check,
)
from crosshex.errors import (
    ConsistencyFailure,
    DimensionMismatch,
    SingularEvaluation,
)
from crosshex.labels import relabel_cross, relabel_hex, site_cross, site_hex

from conftest import CELL_FRACTIONS, CROSS_NAME_ORDER, DIVISOR_FRACTION, cell_point, one_value_phi

CROSS_LABEL = (2, -1, 1)
HEX_LABEL = (2, -1, -1, 1, -2, 1)


def test_zero_label_value_is_one_at_the_base(cross_data, hex_data):
    for sd, label in ((cross_data, (0, 0, 0)), (hex_data, (0,) * 6)):
        base = sd.curve.point(sd.curve.base_lift)
        assert phi(sd, label, base) == pytest.approx(1.0, abs=1e-14)


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
    a = phi(cross_data, CROSS_LABEL, cross_probes[0])
    b = phi(cross_data, CROSS_LABEL, cross_probes[1])
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
    moved = sd.phi_scaled(labels, [relift(sd, P, 1, 1) for P in probes]).scalars()
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
    for P in cross_probes[:3]:
        base = phi(cross_data, CROSS_LABEL, P)
        assert abs(phi(scaled, CROSS_LABEL, P) - lam * base) <= 1e-12 * abs(lam * base)


def test_psi_is_phi_at_the_site_label(cross_data, hex_data, cross_probes, hex_probes):
    site = site_cross(1, 2)
    assert psi(cross_data, site, cross_probes[0]) == phi(
        cross_data, relabel_cross(site), cross_probes[0]
    )
    hsite = site_hex(1, 1, -2)
    assert psi(hex_data, hsite, hex_probes[0]) == phi(
        hex_data, relabel_hex(hsite), hex_probes[0]
    )


def test_theta_component_is_the_numerator_factor(cross_data, cross_probes):
    P = cross_probes[0]
    val = theta_component(cross_data, P, (0, 0, 0))
    den = cross_data.denominator_scaled(P).as_complex()
    assert val == pytest.approx(den, rel=1e-14)


def test_uniqueness_check_passes_on_generic_data(cross_data, hex_data, cross_probes, hex_probes):
    rep = uniqueness_check(cross_data, CROSS_LABEL, cross_probes)
    assert rep.passed and rep.generic
    assert rep.lift_invariance_error <= 1e-10
    assert rep.oracle_gap is not None and rep.oracle_gap <= 1e-6
    hrep = uniqueness_check(hex_data, HEX_LABEL, hex_probes)
    assert hrep.passed and hrep.oracle_gap is not None


def test_uniqueness_check_needs_three_probes(cross_data, cross_probes):
    with pytest.raises(ValueError):
        uniqueness_check(cross_data, CROSS_LABEL, cross_probes[:2])


def test_evaluation_on_the_divisor_is_refused(cross_data):
    near = cross_data.curve.point(cross_data.divisor[0].lift + 1e-12 * (0.3 + 0.4j))
    with pytest.raises(SingularEvaluation):
        phi(cross_data, CROSS_LABEL, near)


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
