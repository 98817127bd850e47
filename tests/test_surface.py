import json
import math

import numpy as np
import pytest

from crosshex.errors import (
    ConsistencyFailure,
    DimensionMismatch,
    PoleOnPath,
    SchemaError,
    UnknownPoint,
)
from crosshex.surface import (
    TorusCurve,
    export_curve_document,
    load_tabulated_curve,
    make_torus_curve,
)
from crosshex.theta import PeriodMatrix, theta_eval_scaled

from conftest import CELL_FRACTIONS, CROSS_NAME_ORDER, cell_point


def test_abel_map_is_lift_minus_base(torus):
    lift = 0.4 + 1.1j
    assert torus.abel(torus.point(lift))[0] == lift
    shifted = make_torus_curve(-6.0, base_lift=0.25)
    assert shifted.abel(shifted.point(lift))[0] == lift - 0.25


def test_cover_distance_vanishes_on_lattice_translates(torus):
    b = torus.pm.matrix[0, 0]
    u = np.array([0.3 + 0.9j])
    for translate in (2j * math.pi, b, -2 * b + 4j * math.pi):
        assert torus.cover_distance(u, u + translate) <= 1e-12
    assert torus.cover_distance(u, u + 0.05) == pytest.approx(0.05, rel=1e-9)


def test_third_kind_pole_orders_by_log_fit(torus):
    """Re(integral) grows like +log eps at the plus pole, -log eps at minus.

    The approach direction is deliberately off-axis so that the straight
    integration path from the base never brushes the pole itself.
    """
    plus = cell_point(torus, 0.23, 0.41)
    minus = cell_point(torus, 0.71, 0.83)
    ladder = [10.0 ** (-k) for k in (3.0, 3.5, 4.0, 4.5)]
    direction = 0.6 + 0.8j
    for target, expected in ((plus, 1.0), (minus, -1.0)):
        vals = [
            torus.third_kind_integral(
                torus.point(target.scalar + eps * direction), plus, minus
            ).real
            for eps in ladder
        ]
        slope = np.polyfit(np.log(ladder), vals, 1)[0]
        assert abs(slope - expected) <= 0.05 * abs(expected)


def test_integral_exponential_matches_theta_quotient(torus):
    # branch-free oracle: exp(integral) must equal the cross-ratio of
    # translated theta values regardless of how the path tracked branches
    z0 = 1j * math.pi + torus.pm.matrix[0, 0] / 2.0

    def prime(w):
        return theta_eval_scaled(torus.pm, [w - z0])

    plus = cell_point(torus, 0.23, 0.41)
    minus = cell_point(torus, 0.71, 0.83)
    rng = np.random.default_rng(8)
    base = torus.base_lift[0]
    for _ in range(5):
        u = 2j * math.pi * rng.random() + torus.pm.matrix[0, 0] * rng.random()
        val = torus.third_kind_integral(torus.point(u), plus, minus)
        lhs = prime(u - plus.scalar).times(prime(base - minus.scalar))
        rhs = prime(base - plus.scalar).times(prime(u - minus.scalar))
        ratio = lhs.over(rhs).times_exp(complex(-val))
        assert abs(ratio.as_complex() - 1.0) <= 1e-10


def test_b_period_agrees_with_endpoint_translation(torus):
    # moving the endpoint by one B-period changes the integral by the
    # b-period vector, up to whole multiples of 2*pi*i from the path
    plus = cell_point(torus, 0.23, 0.41)
    minus = cell_point(torus, 0.71, 0.83)
    u = 0.9 + 0.4j
    b = torus.pm.matrix[0, 0]
    base_val = torus.third_kind_integral(torus.point(u), plus, minus)
    moved_val = torus.third_kind_integral(torus.point(u + b), plus, minus)
    period = torus.b_period_vector(plus, minus)[0]
    diff = moved_val - base_val - period
    k = round(diff.imag / (2.0 * math.pi))
    assert abs(diff - 2j * math.pi * k) <= 1e-8


def test_b_period_is_abel_difference(torus):
    plus = cell_point(torus, 0.23, 0.41)
    minus = cell_point(torus, 0.71, 0.83)
    U = torus.b_period_vector(plus, minus)
    expected = torus.abel(plus) - torus.abel(minus)
    assert abs(U[0] - expected[0]) <= 1e-12


def test_riemann_constants_value_and_divisor_check(torus):
    K = torus.riemann_constants()
    assert abs(K[0] - (-3.0 + 1j * math.pi)) <= 1e-12  # i*pi + B/2 for B = -6
    at_minus_k = theta_eval_scaled(torus.pm, -K)
    at_zero = theta_eval_scaled(torus.pm, [0.0])
    assert at_minus_k.log_abs - at_zero.log_abs <= math.log(1e-10)


def test_complex_period_backend():
    curve = make_torus_curve(complex(-5.0, 1.3))
    plus = cell_point(curve, 0.2, 0.4)
    minus = cell_point(curve, 0.7, 0.8)
    val = curve.third_kind_integral(cell_point(curve, 0.45, 0.1), plus, minus)
    assert np.isfinite(val.real) and np.isfinite(val.imag)
    K = curve.riemann_constants()[0]
    assert abs(K - (1j * math.pi + complex(-5.0, 1.3) / 2.0)) <= 1e-12


def test_straight_path_through_pole_is_refused(torus):
    b = torus.pm.matrix[0, 0]
    plus = torus.point(0.35 * b)  # directly on the base-to-endpoint chord
    minus = cell_point(torus, 0.5, 0.9)
    with pytest.raises(PoleOnPath):
        torus.third_kind_integral(torus.point(0.7 * b), plus, minus)


def test_genus_one_only():
    with pytest.raises(DimensionMismatch):
        TorusCurve(PeriodMatrix(np.diag([-4.0, -5.0])), (0.0, 0.0))


# ---------------------------------------------------------------------------
# curve documents / tabulated backend
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def curve_doc(torus):
    marked = {
        name: cell_point(torus, fs, ft)
        for name, (fs, ft) in zip(CROSS_NAME_ORDER, CELL_FRACTIONS)
    }
    pairs = [("P1+", "P1-"), ("P2+", "P2-"), ("P3+", "P3-")]
    integrals = [
        ("P2+", ("P1+", "P1-")),
        ("P2-", ("P1+", "P1-")),
        ("P1+", ("P2+", "P2-")),
        ("P1-", ("P3+", "P3-")),
    ]
    return export_curve_document(torus, marked, pairs, integrals)


def test_document_json_round_trip_is_exact(curve_doc):
    text = json.dumps(curve_doc, sort_keys=True, indent=2)
    assert json.loads(text) == curve_doc


def test_tabulated_backend_serves_stored_values(torus, curve_doc):
    tab = load_tabulated_curve(json.loads(json.dumps(curve_doc)))
    p2p = tab.marked["P2+"]
    plus, minus = tab.marked["P1+"], tab.marked["P1-"]
    stored = tab.third_kind_integral(p2p, plus, minus)
    direct = torus.third_kind_integral(
        torus.point(p2p.lift), torus.point(plus.lift), torus.point(minus.lift)
    )
    assert stored == direct  # the document stores full doubles
    U_tab = tab.b_period_vector(plus, minus)
    U_dir = torus.b_period_vector(torus.point(plus.lift), torus.point(minus.lift))
    assert U_tab[0] == U_dir[0]
    assert tab.riemann_constants()[0] == torus.riemann_constants()[0]


def test_tabulated_lookup_of_unstored_combination(curve_doc):
    tab = load_tabulated_curve(curve_doc)
    with pytest.raises(UnknownPoint):
        tab.third_kind_integral(tab.marked["P3+"], tab.marked["P1+"], tab.marked["P1-"])


def test_tabulated_rejects_missing_sections(curve_doc):
    for key in ("genus", "B", "marked_points", "third_kind_integrals"):
        broken = json.loads(json.dumps(curve_doc))
        del broken[key]
        with pytest.raises(SchemaError):
            load_tabulated_curve(broken)


def test_tabulated_rejects_unknown_point_in_integral_key(curve_doc):
    broken = json.loads(json.dumps(curve_doc))
    val = next(iter(broken["third_kind_integrals"].values()))
    broken["third_kind_integrals"]["Nope|P1+,P1-"] = val
    with pytest.raises(SchemaError):
        load_tabulated_curve(broken)


def test_tabulated_detects_tampered_integral(curve_doc):
    broken = json.loads(json.dumps(curve_doc))
    key = "P2+|P1+,P1-"
    flipped = "P2+|P1-,P1+"
    broken["third_kind_integrals"][flipped] = [
        -broken["third_kind_integrals"][key][0] + 1e-3,
        -broken["third_kind_integrals"][key][1],
    ]
    with pytest.raises(ConsistencyFailure):
        load_tabulated_curve(broken)


def test_tabulated_detects_inconsistent_b_period(curve_doc):
    broken = json.loads(json.dumps(curve_doc))
    broken["b_periods"]["P1+/P1-"] = [
        broken["b_periods"]["P1+/P1-"][0] + 1e-4,
        broken["b_periods"]["P1+/P1-"][1],
    ]
    with pytest.raises(ConsistencyFailure):
        load_tabulated_curve(broken)
