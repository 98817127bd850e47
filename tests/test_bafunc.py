import collections
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crosshex import bafunc
from crosshex.bafunc import ConstantNormalization, SpectralDataCross, SpectralDataHex
from crosshex.errors import (
    ConsistencyFailure,
    DimensionMismatch,
    SchemaError,
    SingularEvaluation,
)
from crosshex.labels import CROSS_LATTICE, HEX_LATTICE, relabel_cross, relabel_hex, stencil_offsets
from crosshex.operators import MODELS, evaluate_ratio, psi_grid
from crosshex.surface import SurfacePoint
from crosshex.theta import theta_eval_scaled

from crosshex_testlib import (
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
        base = SurfacePoint(sd.curve.base_lift)
        (value,) = scalars(sd.phi_scaled([label], [base]))
        assert value.as_complex() == pytest.approx(1.0, abs=1e-14)
        # the zero label's numerator is the denominator at every point
        for at_probe in scalars(sd.phi_scaled([label], probes[:3])):
            assert at_probe.as_complex() == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("model", ["cross", "hex"])
def test_phi_grid_matches_one_value_phi_bit_for_bit(model, cross_data, hex_data, cross_probes, hex_probes):
    sd, probes = (cross_data, cross_probes) if model == "cross" else (hex_data, hex_probes)
    relabel = relabel_cross if model == "cross" else relabel_hex
    make = CROSS_LATTICE.site if model == "cross" else HEX_LATTICE.site
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
    make = CROSS_LATTICE.site if fixture == "cross" else HEX_LATTICE.site
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
    points = [SurfacePoint(complex(point.lift + eps * direction)) for eps in ladder]
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
    near = SurfacePoint(cross_data.divisor[0].lift + 1e-12 * (0.3 + 0.4j))
    with pytest.raises(SingularEvaluation):
        cross_data.phi_scaled([CROSS_LABEL], [near])


def test_singular_denominator_is_refused_on_every_call(cross_data):
    near = SurfacePoint(cross_data.divisor[0].lift + 1e-12 * (0.3 + 0.4j))
    for _ in range(2):
        with pytest.raises(SingularEvaluation):
            cross_data.denominator_scaled(near)


def _fresh(sd):
    """A spectral-data object like ``sd`` with empty tables."""
    return type(sd)(sd.curve, dict(sd.marked), sd.divisor)


def test_phi_takes_its_denominators_from_one_kernel_call(cross_data, cross_probes, monkeypatch):
    sd = _fresh(cross_data)
    calls = []
    batch = bafunc.theta_eval_batch

    def recording(pm, z):
        calls.append(np.shape(z))
        return batch(pm, z)

    def refused(*args):
        raise AssertionError("phi_scaled made a scalar theta call")

    monkeypatch.setattr(bafunc, "theta_eval_batch", recording)
    monkeypatch.setattr(bafunc, "theta_eval_scaled", refused)
    labels = [CROSS_LABEL, (0, 1, -1)]
    # the probes once more, in another order: one kernel call still covers them
    probes = list(cross_probes) + list(cross_probes[::-1])
    first = sd.phi_scaled(labels, probes)
    assert calls == [(len(cross_probes),), (2, len(probes))]
    # a second grid on the same probes reads the table: its numerators are the one call
    calls.clear()
    again = sd.phi_scaled(labels, probes)
    assert calls == [(2, len(probes))]
    assert repr(scalars(again)) == repr(scalars(first)) == repr(scalars(cross_data.phi_scaled(labels, probes)))


def test_a_direct_denominator_has_the_bits_of_the_scalar_kernel(cross_data, cross_probes):
    sd = _fresh(cross_data)

    def want(P):
        return repr(scalars(theta_eval_scaled(sd.curve.pm, sd.curve.abel(P) + sd._W)))

    # a miss evaluates the one point; then the batched kernel tables all twelve
    assert repr(scalars(sd.denominator_scaled(cross_probes[0]))) == want(cross_probes[0])
    sd.phi_scaled([CROSS_LABEL], cross_probes)
    for P in cross_probes:
        got = sd.denominator_scaled(P)
        assert got.shape == () and repr(scalars(got)) == want(P)


def test_the_first_denominator_below_the_floor_is_refused_in_probe_order(cross_data, cross_probes):
    sd = _fresh(cross_data)
    divisor = sd.divisor[0].lift
    near = [SurfacePoint(complex(divisor + d * (0.3 + 0.4j))) for d in (1e-12, 3e-13)]
    for first, second in (near, near[::-1]):
        size = abs(complex(theta_eval_scaled(sd.curve.pm, sd.curve.abel(first) + sd._W).mantissa))
        message = (
            f"theta denominator at lift {first.lift} is below the genericity floor "
            f"(|mantissa| = {size:.3e}; data non-generic or evaluation point too close to the divisor)"
        )
        for _ in range(2):  # nothing is tabled, so each call refuses again
            with pytest.raises(SingularEvaluation) as info:
                sd.phi_scaled([CROSS_LABEL], [cross_probes[0], first, cross_probes[1], second])
            assert str(info.value) == message
        # one point alone: the same message as before the table
        with pytest.raises(SingularEvaluation) as info:
            sd.denominator_scaled(first)
        assert str(info.value) == message


def test_non_finite_phi_is_refused(torus, cross_data, cross_probes):
    # a huge normalization overflows some mantissas: refused, never returned
    huge = SpectralDataCross(
        torus, dict(cross_data.marked), cross_data.divisor, ConstantNormalization(1e308)
    )
    labels = [relabel_cross(CROSS_LATTICE.site(n, m)) for n in range(-1, 2) for m in range(-1, 2)]
    with pytest.raises(SingularEvaluation, match="left double range"):
        huge.phi_scaled(labels, cross_probes)


def test_marked_point_collision_is_detected(torus):
    marked = {
        name: cell_point(torus, fs, ft)
        for name, (fs, ft) in zip(CROSS_NAME_ORDER, CELL_FRACTIONS)
    }
    divisor = [cell_point(torus, *DIVISOR_FRACTION)]
    near = dict(marked, **{"P1-": SurfacePoint(marked["P1+"].lift + 1e-8)})
    with pytest.raises(ConsistencyFailure, match=r"marked points P1\+ and P1- are only 1\.000e-08 apart"):
        SpectralDataCross(torus, near, divisor)
    # the divisor point on a lattice translate of a marked point
    on_p3 = [SurfacePoint(marked["P3+"].lift + 2j * math.pi - torus.pm.B)]
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
        cross_data.label_array([bad])


def test_hex_label_blocks_enforced(hex_data):
    with pytest.raises(ValueError):
        hex_data.label_array([(1, 0, 0, 0, 0, 0)])


def test_normalization_floor():
    with pytest.raises(SingularEvaluation):
        ConstantNormalization(1e-13)


@pytest.mark.parametrize("description", [None, {"kind": "linear"}, [1.0, 0.0]])
def test_an_unsupported_normalization_description_is_a_schema_error(description):
    with pytest.raises(SchemaError, match="unsupported normalization description"):
        ConstantNormalization.from_json(description)


@pytest.mark.parametrize("value", [complex(math.nan, 0), complex(0, math.inf), -math.inf, 1e308 + 1e308j])
def test_normalization_without_a_finite_ratio_is_refused(value):
    # NaN and infinities pass the floor's comparison; (1e308 + 1e308j) / itself overflows
    with pytest.raises(SingularEvaluation, match="has no finite ratio"):
        ConstantNormalization(value)
    assert ConstantNormalization(1e308).ratio() == 1


# -- labels as one integer array -------------------------------------------------


WIDTH = {"cross": 3, "hex": 6}
NOUN = {"cross": "square", "hex": "triangular"}


def _named_label(width):
    return collections.namedtuple("Label", [f"x{i}" for i in range(1, width + 1)])


def _label_inputs(labels, width):
    """The same labels as a list of tuples, a list of lists, a tuple, a list of named tuples and an int array."""
    named = _named_label(width)
    return {
        "tuples": [tuple(label) for label in labels],
        "lists": [list(label) for label in labels],
        "tuple": tuple(tuple(label) for label in labels),
        "named": [named(*label) for label in labels],
        "array": np.array(labels, dtype=np.int64).reshape(len(labels), width),
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
    want = np.array(GOOD_LABELS[model], dtype=np.int64)
    for form, labels in _label_inputs(GOOD_LABELS[model], WIDTH[model]).items():
        got = sd.label_array(labels)
        assert got.dtype == np.int64 and np.array_equal(got, want), form


NOT_INTEGER = "{}-lattice label components must be integers within int64, got {{!r}}"
BAD_LABELS = {
    # (model, labels, index of the first bad one, error type, its message with {!r} for that label)
    "cross-width": (
        "cross", [(2, -1, 1), (1, 0), (1, 0, 0, 0)], 1,
        DimensionMismatch, "square-lattice label must have 3 components, got {!r}",
    ),
    "hex-width": (
        "hex", [(0,) * 6, (1, -1, 0), (1,) * 7], 1,
        DimensionMismatch, "triangular-lattice label must have 6 components, got {!r}",
    ),
    "hex-blocks": (
        "hex", [(0,) * 6, (1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0)], 1,
        ValueError, "label blocks must each sum to zero: (1, 0, 0, 0, 0, 0)",
    ),
    # the first block sums to 2**64, which int64 arithmetic would read as 0
    "hex-wrapping-sum": (
        "hex", [(0,) * 6, (2**63 - 1, 2**63 - 1, 2, 0, 0, 0)], 1,
        ValueError, "label blocks must each sum to zero: (9223372036854775807, 9223372036854775807, 2, 0, 0, 0)",
    ),
    # components that are not integers within int64 are refused, not truncated or parsed
    "cross-float": ("cross", [(2, -1, 1), (1.5, 0, 0), (0, 0, 0)], 1, ValueError, NOT_INTEGER.format("square")),
    "hex-float": ("hex", [(0,) * 6, (0.5, -0.5, 0, 0, 0, 0)], 1, ValueError, NOT_INTEGER.format("triangular")),
    "cross-string": ("cross", [(2, -1, 1), ("1", "0", "0")], 1, ValueError, NOT_INTEGER.format("square")),
    "cross-bool-array": (
        "cross", np.array([[True, False, False]] * 2), 0, ValueError, NOT_INTEGER.format("square")
    ),
    "cross-uint64-beyond-int64": (
        "cross", np.array([[1, 0, 0], [2**63, 0, 0]], dtype=np.uint64), 1,
        ValueError, NOT_INTEGER.format("square"),
    ),
    "cross-int-beyond-int64": ("cross", [(2, -1, 1), (2**63, 0, 0)], 1, ValueError, NOT_INTEGER.format("square")),
    "hex-int-beyond-int64": (
        "hex", [(0,) * 6, (2**63, -(2**63), 0, 0, 0, 0)], 1, ValueError, NOT_INTEGER.format("triangular")
    ),
}


def _bad_label_forms(labels, width):
    """The input forms of one ``BAD_LABELS`` case: an array as given, or a list in every form it has."""
    if isinstance(labels, np.ndarray):
        return {"array": labels}
    forms = {"tuples": [tuple(label) for label in labels], "lists": [list(label) for label in labels]}
    forms["tuple"] = tuple(forms["tuples"])
    if all(len(label) == width for label in labels):
        named = _named_label(width)
        forms["named"] = [named(*label) for label in labels]
        if all(type(x) is int and -(2**63) <= x < 2**63 for label in labels for x in label):
            forms["array"] = np.array(labels, dtype=np.int64)
    return forms


@pytest.mark.parametrize("case", list(BAD_LABELS))
def test_label_array_refuses_the_first_bad_label_as_validate_label_does(case, cross_data, hex_data, cross_probes):
    model, labels, first, error, message = BAD_LABELS[case]
    sd = cross_data if model == "cross" else hex_data
    formula = MODELS[model].formulas[0][0]
    for form, given in _bad_label_forms(labels, WIDTH[model]).items():
        want = (error, message.format(given[first]))
        for call in (sd.label_array, lambda x: sd.phi_scaled(x, cross_probes[:2])):
            assert _refusal(lambda: call(given)) == want, form
        points = np.zeros(len(given), dtype=int)
        assert _refusal(lambda: sd.marked_thetas(given, points)) == want, form
        assert _refusal(lambda: evaluate_ratio(sd, given[first], formula)) == want, form


@pytest.mark.parametrize("model", ["cross", "hex"])
def test_an_int_array_of_the_wrong_width_is_refused_naming_its_first_row(model, cross_data, hex_data):
    sd = cross_data if model == "cross" else hex_data
    width = WIDTH[model]
    for bad_width in (width - 1, width + 1):
        labels = np.arange(2 * bad_width).reshape(2, bad_width)
        got = _refusal(lambda: sd.label_array(labels))
        message = f"{NOUN[model]}-lattice label must have {width} components, got {labels[0]!r}"
        assert got == (DimensionMismatch, message)
        assert "array([0, 1" in got[1]


INT64 = st.integers(-(2**63), 2**63 - 1)


@st.composite
def _block(draw):
    """Three int64 components summing to zero, to anything, or to +-2**64 (0 in int64 arithmetic)."""
    kind = draw(st.sampled_from(["zero", "any", "wrap"]))
    if kind == "any":
        return draw(st.lists(INT64, min_size=3, max_size=3))
    if kind == "zero":
        a = draw(INT64)
        b = draw(st.integers(max(-(2**63), -(2**63 - 1) - a), min(2**63 - 1, 2**63 - a)))
        return [a, b, -(a + b)]
    sign = draw(st.sampled_from([1, -1]))
    a, b = (sign * draw(st.integers(2**62 + 1, 2**63 - 1)) for _ in range(2))
    return [a, b, sign * 2**64 - a - b]


@st.composite
def _label_arrays(draw, model):
    """An (n, w) int64 array, w one of the model's width and its neighbours; hex rows of the width by blocks."""
    width = WIDTH[model]
    w = draw(st.sampled_from([width - 1, width, width + 1]))
    if model == "hex" and w == width:
        row = st.tuples(_block(), _block()).map(lambda blocks: blocks[0] + blocks[1])
    else:
        row = st.lists(INT64, min_size=w, max_size=w)
    rows = draw(st.lists(row, max_size=5))
    return np.array(rows, dtype=np.int64).reshape(len(rows), w)


@pytest.mark.parametrize("model", ["cross", "hex"])
@given(data=st.data())
def test_label_array_accepts_exactly_the_right_width_with_zero_block_sums(model, data, cross_data, hex_data):
    sd = cross_data if model == "cross" else hex_data
    labels = data.draw(_label_arrays(model))
    width = WIDTH[model]
    blocks = 2 if model == "hex" else 0

    def fault(row):
        if len(row) != width:
            return DimensionMismatch, f"{NOUN[model]}-lattice label must have {width} components, got {row!r}"
        if any(sum(row[3 * b : 3 * b + 3].tolist()) for b in range(blocks)):  # Python-int sums
            return ValueError, f"label blocks must each sum to zero: {tuple(row.tolist())}"
        return None

    faults = [f for f in map(fault, labels) if f is not None]
    if faults:
        assert _refusal(lambda: sd.label_array(labels)) == faults[0]
    else:
        got = sd.label_array(labels)
        assert got.dtype == np.int64 and got.shape == (len(labels), width)
        assert got.tolist() == labels.tolist()  # no labels: any width reads as (0, width)


@pytest.mark.parametrize("model", ["cross", "hex"])
def test_phi_grid_keeps_its_shapes_and_bits_for_every_label_form(model, cross_data, hex_data, cross_probes, hex_probes):
    sd, probes = (cross_data, cross_probes[:3]) if model == "cross" else (hex_data, hex_probes[:3])
    width = WIDTH[model]
    forms = _label_inputs(GOOD_LABELS[model], width)
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
