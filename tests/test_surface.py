import cmath
import itertools
import json
import math

import numpy as np
import pytest

from crosshex import surface
from crosshex.errors import (
    ConsistencyFailure,
    DimensionMismatch,
    PoleOnPath,
    SchemaError,
    SeparationFailure,
    UnknownPoint,
)
from crosshex.surface import (
    export_curve_document,
    load_tabulated_curve,
    load_torus_curve,
    make_torus_curve,
)
from crosshex.theta import theta_eval_scaled

from conftest import CELL_FRACTIONS, CROSS_NAME_ORDER, cell_point, genus_two_document


def test_abel_map_is_lift_minus_base(torus):
    lift = 0.4 + 1.1j
    assert torus.abel(torus.point(lift)) == lift
    shifted = make_torus_curve(-6.0, base_lift=0.25)
    assert shifted.abel(shifted.point(lift)) == lift - 0.25


def test_cover_distance_vanishes_on_lattice_translates(torus):
    b = torus.pm.B
    u = 0.3 + 0.9j
    for translate in (2j * math.pi, b, -2 * b + 4j * math.pi):
        assert torus.cover_distance(u, u + translate) <= 1e-12
    assert torus.cover_distance(u, u + 0.05) == pytest.approx(0.05, rel=1e-9)


def test_cover_distance_rejects_wrong_length_lifts(torus):
    """The lifts to compare against are one lift or a 1-D array of them, never a 2-D stack."""
    u = 0.3 + 0.9j
    for others in (np.array([[u, u + 1.0]]), np.full((3, 2), u), np.full((2, 1), u)):
        with pytest.raises(DimensionMismatch):
            torus.cover_distance(u, others)


def _per_offset_cover_distance(curve, lift_a, lift_b):
    """Reference cover distance: solve for the lattice coordinates, one norm per offset."""
    B = np.array([[curve.pm.B]])
    delta = np.array([lift_a - lift_b])
    t = np.linalg.solve(B.real, delta.real)
    s = (delta.imag - B.imag @ t) / (2.0 * math.pi)
    best = math.inf
    for offs in itertools.product((-1, 0, 1), repeat=2):
        m = np.rint(s).astype(int) + offs[0]
        n = np.rint(t).astype(int) + offs[1]
        best = min(best, float(np.linalg.norm(delta - (2j * math.pi * m + B @ n))))
    return best


def test_stacked_cover_distance_matches_the_per_offset_loop():
    rng = np.random.default_rng(20)
    curves = [
        make_torus_curve(complex(rng.uniform(-8, -3), rng.uniform(-3, 3)), base_lift=rng.normal())
        for _ in range(40)
    ]
    for curve in curves:
        B = curve.pm.B
        # 50 draws per curve, up to ~10 cells from the base
        lift, *others = (
            curve.base_lift + 2j * math.pi * rng.uniform(-10, 10) + B * rng.uniform(-10, 10)
            for _ in range(51)
        )
        stacked = curve.cover_distance(lift, np.array(others))
        assert stacked.shape == (len(others),)
        for other, d in zip(others, stacked):
            single = curve.cover_distance(lift, other)
            assert type(single) is float
            assert d == single == _per_offset_cover_distance(curve, lift, other)
        with pytest.raises(DimensionMismatch):
            curve.cover_distance(lift, np.array(others).reshape(25, 2))
        shifts = rng.integers(-3, 4, size=(20, 2))
        translates = np.array([lift + 2j * math.pi * int(m) + B * int(n) for m, n in shifts])
        assert curve.cover_distance(lift, translates).max() <= 1e-12


def _point_segment_distance(q: complex, a: complex, b: complex) -> float:
    """Reference: Euclidean distance from q to the segment [a, b] in C."""
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0.0:
        return abs(q - a)
    t = ((q - a) * ab.conjugate()).real / denom
    t = min(1.0, max(0.0, t))
    return abs(q - (a + t * ab))


def _segment_pole_distance_loop(curve, pole: complex, a: complex, b: complex) -> float:
    """Reference: the scalar loop over the translates in the segment's coordinate box."""
    B = curve.pm.B
    sa, ta = curve.lattice_coords(a - pole)
    sb, tb = curve.lattice_coords(b - pole)
    best = math.inf
    for m in range(math.floor(min(sa, sb)) - 1, math.ceil(max(sa, sb)) + 2):
        for n in range(math.floor(min(ta, tb)) - 1, math.ceil(max(ta, tb)) + 2):
            best = min(best, _point_segment_distance(pole + 2j * math.pi * m + B * n, a, b))
    return best


def _log_prime_delta_dfs(curve, pole: complex, a: complex, b: complex) -> complex:
    """Reference: one segment's branch tracking as a scalar depth-first loop."""
    if a == b:
        return 0j
    if _segment_pole_distance_loop(curve, pole, a, b) < surface._POLE_TOL:
        raise PoleOnPath("integration segment passes within 1e-08 of a pole lift")

    def prime(w):
        return theta_eval_scaled(curve.pm, w - curve._z0, surface._THETA_EPS)

    total = 0j
    u0 = a
    f0 = prime(a - pole)
    pending = [b]
    while pending:
        u1 = pending[-1]
        f1 = prime(u1 - pole)
        d_arg = cmath.phase(f1.mantissa / f0.mantissa)
        d_logabs = f1.log_abs - f0.log_abs
        if abs(d_arg) > 1.0 or abs(d_logabs) > 1.5:
            if len(pending) >= surface._CONTINUATION_STACK_CAP:
                raise PoleOnPath("branch tracking could not resolve the path")
            pending.append(0.5 * (u0 + u1))
            continue
        total += complex(d_logabs, d_arg)
        pending.pop()
        u0, f0 = u1, f1
    return total


def _tracking_cases(rng, count):
    """Seeded curves, each with segments of every kind the package tracks.

    Base-to-point paths inside the cell, b-cycle-length paths, paths a
    few cells long, paths brushing a pole translate (deeply subdivided),
    and a == b, with poles anywhere.
    """
    for _ in range(count):
        curve = make_torus_curve(complex(rng.uniform(-8, -3), rng.uniform(-3, 3)), base_lift=rng.normal())
        B = curve.pm.B

        def cell(s, t):
            return curve.base_lift + 2j * math.pi * s + B * t

        segments = []
        for _ in range(8):
            pole = cell(*rng.uniform(-3, 3, 2))
            start = cell(*rng.uniform(0, 1, 2))
            segments += [
                (pole, curve.base_lift, cell(*rng.uniform(0, 1, 2))),
                (pole, start, start + B),
                (pole, start, cell(*rng.uniform(-2, 3, 2))),
                # passes 1e-6 .. 1e-3 from a translate of the pole
                (pole, start, 2 * (pole + 2j * math.pi + B) - start + 10 ** rng.uniform(-6, -3) * 1j),
                (pole, start, start),
            ]
        yield curve, segments


def _reference_or_error(curve, segment):
    """The reference increment, or PoleOnPath where the reference raises it."""
    try:
        return _log_prime_delta_dfs(curve, *segment)
    except PoleOnPath:
        return PoleOnPath


def _same_outcome(got, want) -> bool:
    return isinstance(got, PoleOnPath) if want is PoleOnPath else repr(got) == repr(want)


def test_lockstep_tracking_matches_the_scalar_dfs_bit_for_bit():
    rng = np.random.default_rng(31)
    checked = 0
    for curve, segments in _tracking_cases(rng, 12):
        want = [_reference_or_error(curve, seg) for seg in segments]
        got = curve._log_prime_deltas(segments)
        assert all(_same_outcome(g, w) for g, w in zip(got, want))
        checked += sum(w is not PoleOnPath for w in want)
        # one segment at a time gives the same bits as the whole batch
        assert [curve._log_prime_deltas([seg])[0] for seg in segments[:5]] == got[:5]
    assert checked >= 400


def test_pole_on_a_chord_is_refused_inside_a_batch(torus):
    b = torus.pm.B
    plus = torus.point(0.35 * b)  # directly on the base-to-endpoint chord
    minus = cell_point(torus, 0.5, 0.9)
    clear = [torus.point(cell_point(torus, f, 0.5).lift) for f in (0.1, 0.4)]
    requests = [(P, cell_point(torus, 0.2, 0.6), minus) for P in clear]
    assert len(torus.third_kind_integrals(requests)) == 2
    on_chord = (torus.point(0.7 * b), plus, minus)
    for batch in ([on_chord], requests + [on_chord], [on_chord] + requests):
        with pytest.raises(PoleOnPath):
            torus.third_kind_integrals(batch)
    deltas = torus._log_prime_deltas([(pole.lift, torus.base_lift, 0.7 * b) for pole in (plus, minus)])
    assert isinstance(deltas[0], PoleOnPath) and isinstance(deltas[1], complex)


def test_stack_cap_refuses_where_the_scalar_dfs_raises(monkeypatch):
    monkeypatch.setattr(surface, "_CONTINUATION_STACK_CAP", 4)
    rng = np.random.default_rng(37)
    refused = 0
    for curve, segments in _tracking_cases(rng, 4):
        want = [_reference_or_error(curve, seg) for seg in segments]
        refused += sum(w is PoleOnPath for w in want)
        got = curve._log_prime_deltas(segments)
        assert all(_same_outcome(g, w) for g, w in zip(got, want))
        assert all(_same_outcome(curve._log_prime_deltas([seg])[0], w) for seg, w in zip(segments, want))
    assert refused >= 10


def test_array_pole_distance_matches_the_scalar_loop():
    rng = np.random.default_rng(41)
    for _ in range(20):
        curve = make_torus_curve(complex(rng.uniform(-8, -3), rng.uniform(-3, 3)))
        B = curve.pm.B
        pole = rng.uniform(-30, 30, 1000) + 1j * rng.uniform(-30, 30, 1000)
        a = pole + 2j * math.pi * rng.uniform(-2, 2, 1000) + B * rng.uniform(-2, 2, 1000)
        b = a + 2j * math.pi * rng.uniform(-2, 2, 1000) + B * rng.uniform(-2, 2, 1000) * rng.random(1000)
        b[:100] = a[:100]
        got = curve._segment_pole_distance(pole, a, b)
        segments = zip(pole.tolist(), a.tolist(), b.tolist())
        want = [_segment_pole_distance_loop(curve, *seg) for seg in segments]
        assert got.tolist() == want


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
                torus.point(target.lift + eps * direction), plus, minus
            ).real
            for eps in ladder
        ]
        slope = np.polyfit(np.log(ladder), vals, 1)[0]
        assert abs(slope - expected) <= 0.05 * abs(expected)


def test_integral_exponential_matches_theta_quotient(torus):
    # branch-free oracle: exp(integral) must equal the cross-ratio of
    # translated theta values regardless of how the path tracked branches
    z0 = 1j * math.pi + torus.pm.B / 2.0

    def prime(w):
        return theta_eval_scaled(torus.pm, w - z0)

    plus = cell_point(torus, 0.23, 0.41)
    minus = cell_point(torus, 0.71, 0.83)
    rng = np.random.default_rng(8)
    base = torus.base_lift
    for _ in range(5):
        u = 2j * math.pi * rng.random() + torus.pm.B * rng.random()
        val = torus.third_kind_integral(torus.point(u), plus, minus)
        lhs = prime(u - plus.lift).times(prime(base - minus.lift))
        rhs = prime(base - plus.lift).times(prime(u - minus.lift))
        ratio = lhs.over(rhs).times_exp(complex(-val))
        assert abs(ratio.as_complex() - 1.0) <= 1e-10


def test_b_period_agrees_with_endpoint_translation(torus):
    # moving the endpoint by one B-period changes the integral by the
    # b-period vector, up to whole multiples of 2*pi*i from the path
    plus = cell_point(torus, 0.23, 0.41)
    minus = cell_point(torus, 0.71, 0.83)
    u = 0.9 + 0.4j
    b = torus.pm.B
    base_val = torus.third_kind_integral(torus.point(u), plus, minus)
    moved_val = torus.third_kind_integral(torus.point(u + b), plus, minus)
    period = torus.b_period_vector(plus, minus)
    diff = moved_val - base_val - period
    k = round(diff.imag / (2.0 * math.pi))
    assert abs(diff - 2j * math.pi * k) <= 1e-8


def test_b_period_is_abel_difference(torus):
    plus = cell_point(torus, 0.23, 0.41)
    minus = cell_point(torus, 0.71, 0.83)
    U = torus.b_period_vector(plus, minus)
    expected = torus.abel(plus) - torus.abel(minus)
    assert abs(U - expected) <= 1e-12


def test_b_period_pair_refused_at_one_start_tries_the_next(monkeypatch):
    """Pairs are checked together; one whose b-cycle runs into a pole moves on alone."""
    curve = make_torus_curve(-6.0)
    B = curve.pm.B
    fs, ft = surface._BCYCLE_STARTS[0]
    on_first_cycle = curve.point(curve.base_lift + 2j * math.pi * fs + B * (ft + 0.5))
    other = cell_point(curve, 0.71, 0.83)
    pairs = [(cell_point(curve, 0.23, 0.41), other), (on_first_cycle, other)]
    tracked = []
    track = curve._log_prime_deltas

    def recording(segments):
        tracked.append(segments)
        return track(segments)

    monkeypatch.setattr(curve, "_log_prime_deltas", recording)
    assert curve.b_period_vectors(pairs) == [curve.abel(p) - curve.abel(m) for p, m in pairs]
    assert curve._verified_pairs == {(p.lift, m.lift) for p, m in pairs}
    # both pairs from the first start, then the refused one alone from the second
    assert [[pole for pole, _, _ in segments] for segments in tracked] == [
        [p.lift for pair in pairs for p in pair],
        [on_first_cycle.lift, other.lift],
    ]
    assert tracked[1][0][1] != tracked[0][0][1]
    # with the first start point alone, the pair has nowhere to go
    monkeypatch.setattr(surface, "_BCYCLE_STARTS", surface._BCYCLE_STARTS[:1])
    with pytest.raises(ConsistencyFailure, match="could not route"):
        make_torus_curve(-6.0).b_period_vector(on_first_cycle, other)


def test_riemann_constants_value_and_divisor_check(torus):
    K = torus.riemann_constants()
    assert abs(K - (-3.0 + 1j * math.pi)) <= 1e-12  # i*pi + B/2 for B = -6
    at_minus_k = theta_eval_scaled(torus.pm, -K)
    at_zero = theta_eval_scaled(torus.pm, 0j)
    assert at_minus_k.log_abs - at_zero.log_abs <= math.log(1e-10)


@pytest.mark.parametrize("B", [-3.0, complex(-4.25, 3.0), -8.0, -100.0, -1000.0])
def test_riemann_scan_accepts_the_true_constant_at_deep_periods(B):
    # log|Theta| spreads across the cell in proportion to |Re B|; the scan
    # reads each node's peak-relative value, which does not
    curve = make_torus_curve(B)
    assert curve.riemann_constants() == 1j * math.pi + curve.pm.B / 2.0


def test_riemann_scan_refuses_a_far_node_near_zero(monkeypatch):
    curve = make_torus_curve(-6.0)
    K = 1j * math.pi + curve.pm.B / 2.0
    surface._validate_constants(curve, K)
    kernel = surface.theta_eval_batch

    def one_tiny_far_node(pm, z, eps):
        values = kernel(pm, z, eps)
        if values.shape == (100,):  # the grid scan; node 90 sits at cell fractions (0.95, 0.05)
            values.mantissa[90] *= 1e-4
        return values

    monkeypatch.setattr(surface, "theta_eval_batch", one_tiny_far_node)
    with pytest.raises(ConsistencyFailure, match="unexpected theta zero"):
        surface._validate_constants(curve, K)


def test_complex_period_backend():
    curve = make_torus_curve(complex(-5.0, 1.3))
    plus = cell_point(curve, 0.2, 0.4)
    minus = cell_point(curve, 0.7, 0.8)
    val = curve.third_kind_integral(cell_point(curve, 0.45, 0.1), plus, minus)
    assert np.isfinite(val.real) and np.isfinite(val.imag)
    K = curve.riemann_constants()
    assert abs(K - (1j * math.pi + complex(-5.0, 1.3) / 2.0)) <= 1e-12


def test_straight_path_through_pole_is_refused(torus):
    b = torus.pm.B
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
            assert torus._segment_pole_distance(pole.lift, torus.base_lift, p.lift) >= 1e-3
    with pytest.raises(SeparationFailure):
        draw(0, min_pairwise=50.0, max_tries=60)


def _sample_points_one_at_a_time(curve, rng, count, avoid, min_avoid, min_pairwise, max_tries, poles):
    """Reference: one draw, then its three checks, at a time; also counts the refusals by check."""
    kept, refused = [], [0, 0, 0]
    for _ in range(max_tries):
        if len(kept) == count:
            break
        lift = curve.base_lift + 2j * math.pi * rng.random() + curve.pm.B * rng.random()
        if min(curve.cover_distance(lift, p.lift) for p in avoid) < min_avoid:
            refused[0] += 1
        elif any(curve.cover_distance(lift, k) < min_pairwise for k in kept):
            refused[1] += 1
        elif min(
            _segment_pole_distance_loop(curve, p.lift, curve.base_lift, lift) for p in poles
        ) < surface._PATH_CLEARANCE:
            refused[2] += 1
        else:
            kept.append(lift)
    return kept, refused


def test_sample_points_draws_what_one_draw_at_a_time_draws(monkeypatch):
    """Drawing the missing lifts together keeps the draws, their order and the rng stream."""
    # a wide path clearance, so that every check refuses some draws
    monkeypatch.setattr(surface, "_PATH_CLEARANCE", 0.2)
    rng = np.random.default_rng(43)
    refused = np.zeros(3, dtype=int)
    for _ in range(6):
        curve = make_torus_curve(complex(rng.uniform(-8, -3), rng.uniform(-3, 3)))
        poles = [cell_point(curve, *rng.uniform(0, 1, 2)) for _ in range(6)]
        avoid = [curve.point(curve.base_lift)] + poles
        args = (30, avoid, 0.3, 0.4, 500)
        seed = int(rng.integers(1 << 30))
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = curve.sample_points(got_rng, *args, poles=poles)
        want, counts = _sample_points_one_at_a_time(curve, want_rng, *args, poles)
        assert [p.lift for p in got] == want
        assert got_rng.random() == want_rng.random()
        refused += counts
    assert refused.min() > 0, refused


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
    assert U_tab == U_dir
    assert tab.riemann_constants() == torus.riemann_constants()


def test_analytic_reader_rebuilds_the_curve_from_the_document(torus, curve_doc):
    curve, marked = load_torus_curve(json.loads(json.dumps(curve_doc)))
    assert curve.pm.B == torus.pm.B and curve.base_lift == torus.base_lift
    assert {name: p.lift for name, p in marked.items()} == {
        name: complex(*lift) for name, lift in curve_doc["marked_points"].items()
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


def test_genus_one_only(curve_doc):
    """Both backends refuse a genus other than 1 and a B other than 1x1 at the reader."""
    entry = curve_doc["B"][0][0]
    for broken in (
        genus_two_document(curve_doc),
        {**curve_doc, "genus": 2},
        {**curve_doc, "genus": True},
        {**curve_doc, "B": [[entry, [0.0, 0.0]]]},
        {**curve_doc, "B": [[entry], [entry]]},
    ):
        for load in (load_torus_curve, load_tabulated_curve):
            with pytest.raises(SchemaError):
                load(broken)


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
