import itertools
import json
import math

import numpy as np
import pytest

from crosshex.errors import (
    ConsistencyFailure,
    DimensionMismatch,
    PoleOnPath,
    SchemaError,
    SeparationFailure,
    UnknownPoint,
)
from crosshex.surface import (
    SpectralCurve,
    TorusCurve,
    _point_segment_distance,
    export_curve_document,
    load_tabulated_curve,
    load_torus_curve,
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


def _genus2_curve():
    """The shared curve behaviour on a genus-2 period matrix, without tables."""
    curve = SpectralCurve()
    curve.pm = PeriodMatrix([[-5.0 + 0.7j, 1.2 - 0.4j], [1.2 - 0.4j, -4.2 + 1.1j]])
    curve.base_lift = (0.3 + 0.1j, -0.2 + 0.5j)
    return curve


def test_cover_distance_rejects_wrong_length_lifts(torus):
    """A genus-1 curve never reads a length-2 lift as two genus-1 lifts."""
    one, two = np.array([0.3 + 0.9j]), np.array([0.3 + 0.9j, 1.1 - 0.4j])
    for lift, others in ((two, one), (one, two), (one, np.stack([two, two, two]))):
        with pytest.raises(DimensionMismatch):
            torus.cover_distance(lift, others)
    # nor does a genus-2 curve broadcast a stack of genus-1 lifts against a lift
    with pytest.raises(DimensionMismatch):
        _genus2_curve().cover_distance(two, np.stack([one, one]))


def _per_offset_cover_distance(curve, lift_a, lift_b):
    """Reference cover distance: one numpy pass and one norm per lattice offset."""
    delta = np.asarray(lift_a, dtype=complex) - np.asarray(lift_b, dtype=complex)
    s, t = curve.lattice_coords(delta)
    B, g = curve.pm.matrix, curve.genus
    best = math.inf
    for offs in itertools.product((-1, 0, 1), repeat=2 * g):
        m = np.rint(s).astype(int) + np.array(offs[:g])
        n = np.rint(t).astype(int) + np.array(offs[g:])
        best = min(best, float(np.linalg.norm(delta - (2j * math.pi * m + B @ n))))
    return best


def test_stacked_cover_distance_matches_the_per_offset_loop():
    rng = np.random.default_rng(20)
    curves = [
        make_torus_curve(complex(rng.uniform(-8, -3), rng.uniform(-3, 3)), base_lift=rng.normal())
        for _ in range(40)
    ]
    for curve in curves + [_genus2_curve()]:
        B, g = curve.pm.matrix, curve.genus
        base = np.array(curve.base_lift)
        # 50 draws per curve, up to ~10 cells from the base
        lift, *others = (
            base + 2j * math.pi * rng.uniform(-10, 10, g) + B @ rng.uniform(-10, 10, g)
            for _ in range(51)
        )
        stacked = curve.cover_distance(lift, np.array(others))
        assert stacked.shape == (len(others),)
        for other, d in zip(others, stacked):
            single = curve.cover_distance(lift, other)
            assert type(single) is float
            assert d == single == _per_offset_cover_distance(curve, lift, other)
        shifts = rng.integers(-3, 4, size=(20, 2 * g))
        translates = np.array([lift + 2j * math.pi * k[:g] + B @ k[g:] for k in shifts])
        assert curve.cover_distance(lift, translates).max() <= 1e-12


def test_segment_pole_distance_is_the_nearest_translate():
    """Brute force over |m|, |n| <= 8: the coordinate bound never drops the nearest translate."""
    rng = np.random.default_rng(21)
    periods = [-8.0, -8.0 + 2.5j, -3.0 - 3.0j] + [
        complex(rng.uniform(-8, -3), rng.uniform(-3, 3)) for _ in range(17)
    ]
    grid = [(m, n) for m in range(-8, 9) for n in range(-8, 9)]
    for B in periods:
        curve = make_torus_curve(B)
        for _ in range(50):
            (s, t), (ds, dt) = rng.uniform(-3, 3, 2), rng.uniform(-4, 4, 2) * rng.random() ** 2
            pole = complex(*rng.uniform(-40, 40, 2))
            a = pole + 2j * math.pi * s + B * t
            b = a + 2j * math.pi * ds + B * dt  # up to 4 cells long, most far shorter
            brute = min(
                _point_segment_distance(pole + 2j * math.pi * m + B * n, a, b) for m, n in grid
            )
            assert curve._segment_pole_distance(pole, a, b) == brute


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


def test_sample_points_keeps_its_separations(torus):
    poles = [cell_point(torus, 0.2, 0.6), cell_point(torus, 0.7, 0.3)]
    avoid = [torus.point(torus.base_lift)] + poles

    def draw(seed, **changes):
        kwargs = dict(avoid=avoid, min_avoid=0.3, min_pairwise=0.2, max_tries=1000, poles=poles)
        return torus.sample_points(np.random.default_rng(seed), 12, **{**kwargs, **changes})

    points = draw(3)
    assert points == draw(3) and points != draw(4)
    for i, p in enumerate(points):
        assert min(torus.cover_distance(p.lift, a.lift) for a in avoid) >= 0.3
        assert all(torus.cover_distance(p.lift, q.lift) >= 0.2 for q in points[:i])
        for pole in poles:
            assert torus._segment_pole_distance(pole.scalar, torus.base_lift[0], p.scalar) >= 1e-3
    with pytest.raises(SeparationFailure):
        draw(0, min_pairwise=50.0, max_tries=60)


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


def test_analytic_reader_rebuilds_the_curve_from_the_document(torus, curve_doc):
    curve, marked = load_torus_curve(json.loads(json.dumps(curve_doc)))
    assert curve.pm.scalar == torus.pm.scalar and curve.base_lift == torus.base_lift
    assert {name: p.lift for name, p in marked.items()} == {
        name: (complex(*lift),) for name, lift in curve_doc["marked_points"].items()
    }
    # the stored tables are read for structure only, not replayed
    tampered = json.loads(json.dumps(curve_doc))
    tampered["riemann_constants"] = [0.0, 0.0]
    load_torus_curve(tampered)
    # both backends share one reader, so they refuse the same documents
    for change in ({"format": "crosshex-curve-v0"}, {"B": [[[0.5, 0.0]]]}):
        for load in (load_torus_curve, load_tabulated_curve):
            with pytest.raises(SchemaError):
                load({**curve_doc, **change})


def test_tabulated_lookup_of_unstored_combination(curve_doc):
    tab = load_tabulated_curve(curve_doc)
    with pytest.raises(UnknownPoint):
        tab.third_kind_integral(tab.marked["P3+"], tab.marked["P1+"], tab.marked["P1-"])


def test_tabulated_rejects_missing_sections(curve_doc):
    for key in ("format", "genus", "B", "marked_points", "third_kind_integrals"):
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
