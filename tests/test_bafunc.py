import math

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
    scalars,
    translated,
)

CROSS_LABEL = (2, -1, 1)
HEX_LABEL = (2, -1, -1, 1, -2, 1)


def test_zero_label_value_is_one_at_the_base(cross_data, hex_data, cross_probes, hex_probes):
    for sd, label, probes in ((cross_data, (0, 0, 0), cross_probes), (hex_data, (0,) * 6, hex_probes)):
        base = sd.curve.point(sd.curve.base_lift)
        (value,) = scalars(sd.phi_scaled([label], [base]))
        assert value.as_complex() == pytest.approx(1.0, abs=1e-14)
        # the zero label's numerator is the denominator at every point
        for at_probe in scalars(sd.phi_scaled([label], probes[:3])):
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
    got = iter(scalars(grid))
    for label in labels:
        for P in probes:
            assert repr(next(got)) == repr(one_value_phi(sd, label, P)), (label, P.lift)


def test_phi_depends_on_the_point(cross_data, cross_probes):
    a, b = (v.as_complex() for v in scalars(cross_data.phi_scaled([CROSS_LABEL], cross_probes[:2])))
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
    relabel = relabel_cross if fixture == "cross" else relabel_hex
    labels = [relabel(make(*raw)) for raw in sites]
    values = scalars(sd.phi_scaled(labels, probes))
    moved = scalars(sd.phi_scaled(labels, [translated(sd, P, 1, 1) for P in probes]))
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
    base = scalars(cross_data.phi_scaled([CROSS_LABEL], cross_probes[:3]))
    for b, s in zip(base, scalars(scaled.phi_scaled([CROSS_LABEL], cross_probes[:3]))):
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
        assert repr(scalars(psi)) == repr(scalars(phi))


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
    divisor = [cell_point(torus, *DIVISOR_FRACTION)]
    near = dict(marked, **{"P1-": torus.point(marked["P1+"].lift + 1e-8)})
    with pytest.raises(ConsistencyFailure, match=r"marked points P1\+ and P1- are only 1\.000e-08 apart"):
        SpectralDataCross(torus, near, divisor)
    # the divisor point on a lattice translate of a marked point
    on_p3 = [torus.point(marked["P3+"].lift + 2j * math.pi - torus.pm.B)]
    with pytest.raises(ConsistencyFailure, match=r"divisor point collides with marked point P3\+"):
        SpectralDataCross(torus, marked, on_p3)


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


# -- labels as one integer array -------------------------------------------------


def _label_inputs(labels, label_type):
    """The same labels as a list of tuples, a list of lists, a tuple, a list of Label3/Label6 and an int array."""
    return {
        "tuples": [tuple(label) for label in labels],
        "lists": [list(label) for label in labels],
        "tuple": tuple(tuple(label) for label in labels),
        "named": [label_type(*label) for label in labels],
        "array": np.array(labels, dtype=np.int64).reshape(len(labels), len(label_type._fields)),
    }


def _refusal(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


GOOD_LABELS = {
    "cross": [(2, -1, 1), (0, 0, 0), (-3, 4, 1)],
    "hex": [(2, -1, -1, 1, -2, 1), (0,) * 6, (1, 1, -2, -3, 2, 1)],
}


@pytest.mark.parametrize("model", ["cross", "hex"])
def test_label_array_reads_every_label_form_as_validate_label_does(model, cross_data, hex_data):
    sd = cross_data if model == "cross" else hex_data
    want = np.array([sd.validate_label(label) for label in GOOD_LABELS[model]], dtype=np.int64)
    for form, labels in _label_inputs(GOOD_LABELS[model], sd.label_type).items():
        got = sd.label_array(labels)
        assert got.dtype == np.int64 and np.array_equal(got, want), form


BAD_LABELS = {
    # (labels with the first bad one at index 1, the error validate_label raises)
    "cross-width": ("cross", [(2, -1, 1), (1, 0), (1, 0, 0, 0)], DimensionMismatch),
    "hex-width": ("hex", [(0,) * 6, (1, -1, 0), (1,) * 7], DimensionMismatch),
    "hex-blocks": ("hex", [(0,) * 6, (1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0)], ValueError),
    # the first block sums to 2**64, which int64 arithmetic would read as 0
    "hex-wrapping-sum": ("hex", [(0,) * 6, (2**63 - 1, 2**63 - 1, 2, 0, 0, 0)], ValueError),
}


@pytest.mark.parametrize("case", list(BAD_LABELS))
def test_label_array_refuses_the_first_bad_label_as_validate_label_does(case, cross_data, hex_data, cross_probes):
    model, labels, error = BAD_LABELS[case]
    sd = cross_data if model == "cross" else hex_data
    forms = {"tuples": [tuple(label) for label in labels], "lists": [list(label) for label in labels]}
    forms["tuple"] = tuple(forms["tuples"])
    if len({len(label) for label in labels}) == 1:
        forms["array"] = np.array(labels, dtype=np.int64)
        forms["named"] = [sd.label_type(*label) for label in labels]
    for form, given in forms.items():
        want = _refusal(lambda: sd.validate_label(given[1]))
        assert want[0] is error
        for call in (sd.label_array, lambda x: sd.phi_scaled(x, cross_probes[:2])):
            assert _refusal(lambda: call(given)) == want, form
        points = np.zeros(len(given), dtype=int)
        assert _refusal(lambda: sd.marked_thetas(given, points, np.arange(len(given)))) == want, form


@pytest.mark.parametrize("model", ["cross", "hex"])
def test_an_int_array_of_the_wrong_width_is_refused_naming_its_first_row(model, cross_data, hex_data):
    sd = cross_data if model == "cross" else hex_data
    width = len(sd.label_type._fields)
    for bad_width in (width - 1, width + 1):
        labels = np.arange(2 * bad_width).reshape(2, bad_width)
        got = _refusal(lambda: sd.label_array(labels))
        assert got == _refusal(lambda: sd.validate_label(labels[0]))
        assert got[0] is DimensionMismatch and "array([0, 1" in got[1]


@pytest.mark.parametrize("model", ["cross", "hex"])
def test_phi_grid_keeps_its_shapes_and_bits_for_every_label_form(model, cross_data, hex_data, cross_probes, hex_probes):
    sd, probes = (cross_data, cross_probes[:3]) if model == "cross" else (hex_data, hex_probes[:3])
    width = len(sd.label_type._fields)
    forms = _label_inputs(GOOD_LABELS[model], sd.label_type)
    want = sd.phi_scaled(forms.pop("array"), probes)
    for form, labels in forms.items():
        got = sd.phi_scaled(labels, probes)
        assert got.mantissa.tobytes() == want.mantissa.tobytes(), form
        assert got.log_scale.tobytes() == want.log_scale.tobytes(), form
    labels = GOOD_LABELS[model]
    for no_labels in ([], (), np.zeros((0, width), dtype=np.int64)):
        assert sd.label_array(no_labels).shape == (0, width)
        assert sd.phi_scaled(no_labels, probes).shape == (0, len(probes))
        assert sd.phi_scaled(no_labels, []).shape == (0, 0)
    assert sd.phi_scaled(labels, []).shape == (len(labels), 0)
