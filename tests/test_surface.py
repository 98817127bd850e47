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
)
from crosshex.surface import (
    SurfacePoint,
    TorusCurve,
    complex_to_json,
    export_curve_document,
    load_torus_curve,
)
from crosshex.theta import ScaledArray, theta_eval_batch, theta_eval_scaled

from crosshex_testlib import (
    CELL_FRACTIONS,
    CROSS_NAME_ORDER,
    brute_cover_distance,
    cell_point,
    drawn_spectral_data,
    genus_two_document,
    scalar,
)


def test_abel_map_is_lift_minus_base(torus):
    lift = 0.4 + 1.1j
    assert torus.abel(SurfacePoint(lift)) == lift
    shifted = TorusCurve(-6.0, base_lift=0.25)
    assert shifted.abel(SurfacePoint(lift)) == lift - 0.25


def test_cover_distance_vanishes_on_lattice_translates(torus):
    b = torus.pm.B
    u = 0.3 + 0.9j
    for translate in (2j * math.pi, b, -2 * b + 4j * math.pi):
        assert torus.cover_distance(u, u + translate) <= 1e-12
    assert torus.cover_distance(u, u + 0.05) == pytest.approx(0.05, rel=1e-9)


def test_cover_distance_is_the_least_translate_distance_on_sheared_periods():
    """The 9 translates tried, 3 n by 3 m around the rounded ones, hold the nearest at any |Im B|, down to the domain's corners."""
    rng = np.random.default_rng(33)
    for B in (-3 + 5000j, -3 - 4999j, -100 + 2500j, -3 + 100j, -3 + 20j, -3 - 5000j, -1e4, -1e4 + 5000j, -1e4 - 5000j):
        curve = TorusCurve(B)
        # 12 + 12 lifts uniform in the disc of radius 20 about the origin
        lifts, others = 20.0 * np.sqrt(rng.random((2, 12))) * np.exp(2j * math.pi * rng.random((2, 12)))
        table = curve.cover_distance(lifts, others)
        want = [[brute_cover_distance(B, a, b) for b in others.tolist()] for a in lifts.tolist()]
        np.testing.assert_allclose(table, want, rtol=1e-12, atol=0, err_msg=str(B))
        assert curve.cover_distance(lifts[0], others[0]) == table[0, 0]


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
        TorusCurve(complex(rng.uniform(-8, -3), rng.uniform(-3, 3)), base_lift=rng.normal())
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
            assert d == single
            assert np.array_equal(curve.cover_distance(np.array(lift), np.array(other)), single)
            assert np.array_equal(single, _per_offset_cover_distance(curve, lift, other))
        with pytest.raises(DimensionMismatch):
            curve.cover_distance(lift, np.array(others).reshape(25, 2))
        # the lifts x others table: one row per lift, each row that lift's distances
        lifts = np.array(others[:7])
        table = curve.cover_distance(lifts, np.array(others))
        assert table.shape == (7, len(others))
        for row, a in zip(table, lifts.tolist()):
            assert row.tolist() == curve.cover_distance(a, np.array(others)).tolist()
            assert row[:3].tolist() == [_per_offset_cover_distance(curve, a, b) for b in others[:3]]
        assert curve.cover_distance(lifts, lift).tolist() == [curve.cover_distance(a, lift) for a in lifts.tolist()]
        with pytest.raises(DimensionMismatch):
            curve.cover_distance(lifts.reshape(7, 1), np.array(others))
        shifts = rng.integers(-3, 4, size=(20, 2))
        translates = np.array([lift + 2j * math.pi * int(m) + B * int(n) for m, n in shifts])
        assert curve.cover_distance(lift, translates).max() <= 1e-12
    # the tables sample_points and _check_separation take, verify's draw screen, and one
    # table on each side of the size up to which the 9 translates go in one group
    bound = surface._COVER_BLOCK // 9
    for curve in curves[:2]:
        B = curve.pm.B
        for rows, cols in ((7, 1), (7, 6), (7, 7), (8, 8), (60, 7), (60, 60), (5, bound // 5), (1, bound + 1)):
            lifts, others = (
                curve.base_lift + 2j * math.pi * rng.uniform(-10, 10, size) + B * rng.uniform(-10, 10, size)
                for size in (rows, cols)
            )
            table = curve.cover_distance(lifts, others)
            reference = [[_per_offset_cover_distance(curve, a, b) for b in others.tolist()] for a in lifts.tolist()]
            assert np.array_equal(table, reference), (rows, cols)


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


def _log_prime_delta_dfs(curve, pole: complex, a: complex, b: complex, visits=None) -> complex:
    """Reference: one segment's branch tracking as a scalar depth-first loop.

    ``visits``, if given, receives ``(u, stack depth)`` for every right
    end the loop evaluates, in order.
    """
    if a == b:
        return 0j
    if _segment_pole_distance_loop(curve, pole, a, b) < surface._POLE_TOL:
        raise PoleOnPath("integration segment passes within 1e-08 of a pole lift")

    def prime(w):
        return scalar(theta_eval_scaled(curve.pm, w - curve._z0))

    total = 0j
    u0 = a
    f0 = prime(a - pole)
    pending = [b]
    while pending:
        u1 = pending[-1]
        if visits is not None:
            visits.append((u1, len(pending)))
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
        curve = TorusCurve(complex(rng.uniform(-8, -3), rng.uniform(-3, 3)), base_lift=rng.normal())
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
    plus = SurfacePoint(0.35 * b)  # directly on the base-to-endpoint chord
    minus = cell_point(torus, 0.5, 0.9)
    clear = [SurfacePoint(cell_point(torus, f, 0.5).lift) for f in (0.1, 0.4)]
    requests = [(P, cell_point(torus, 0.2, 0.6), minus) for P in clear]
    assert len(torus.integrals(requests)) == 2
    on_chord = (SurfacePoint(0.7 * b), plus, minus)
    for batch in ([on_chord], requests + [on_chord], [on_chord] + requests):
        with pytest.raises(PoleOnPath):
            torus.integrals(batch)
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


def test_lockstep_tracking_evaluates_each_point_once(monkeypatch):
    kernel = surface.theta_eval_batch
    evaluated = []

    def recording(pm, z):
        evaluated.extend(np.asarray(z).tolist())
        return kernel(pm, z)

    monkeypatch.setattr(surface, "theta_eval_batch", recording)
    rng = np.random.default_rng(43)
    tracked, deepest = 0, 0
    for curve, segments in _tracking_cases(rng, 3):
        for seg in segments:
            visits = []
            try:
                _log_prime_delta_dfs(curve, *seg, visits=visits)
            except PoleOnPath:
                continue
            if not visits:  # a == b
                continue
            evaluated.clear()
            curve._log_prime_deltas([seg])
            # every point once: the start, then each right end the scalar loop visits
            assert len(set(evaluated)) == len(evaluated) == len({u for u, _ in visits}) + 1
            tracked += 1
            deepest = max(deepest, max(depth for _, depth in visits) - 1)
    assert tracked >= 80
    assert deepest >= 4  # some segment nests four midpoints and unwinds them in one round


def test_first_round_evaluates_each_distinct_difference_once(monkeypatch, torus):
    kernel = surface.theta_eval_batch
    rounds = []

    def recording(pm, z):
        rounds.append(np.asarray(z).tolist())
        return kernel(pm, z)

    monkeypatch.setattr(surface, "theta_eval_batch", recording)
    rng = np.random.default_rng(47)
    poles = [cell_point(torus, *rng.uniform(0, 1, 2)).lift for _ in range(6)]
    ends = [cell_point(torus, *rng.uniform(0, 1, 2)).lift for _ in range(20)]
    # a probe pass: every path starts at the base, so its left ends repeat per pole
    segments = [(pole, torus.base_lift, end) for end in ends for pole in poles]
    got = torus._log_prime_deltas(segments)
    assert len(rounds[0]) == len(poles) + len(segments)
    # a - pole that differ only in the sign of a zero are evaluated apart
    pole = complex(0.0, 1.3)
    ends = [cell_point(torus, 0.4, t).lift for t in (0.5, 0.6, 0.7)]
    signed = [(pole, start, end) for start, end in zip((0.2j, complex(-0.0, 0.2), 0.2j), ends)]
    rounds.clear()
    got += torus._log_prime_deltas(signed)
    assert len(rounds[0]) == 2 + len(ends)
    # each increment has the bits of its one-segment call
    assert [repr(torus._log_prime_deltas([seg])[0]) for seg in segments + signed] == list(map(repr, got))


def test_array_pole_distance_matches_the_scalar_loop():
    rng = np.random.default_rng(41)
    for _ in range(20):
        curve = TorusCurve(complex(rng.uniform(-8, -3), rng.uniform(-3, 3)))
        B = curve.pm.B
        pole = rng.uniform(-30, 30, 1000) + 1j * rng.uniform(-30, 30, 1000)
        a = pole + 2j * math.pi * rng.uniform(-2, 2, 1000) + B * rng.uniform(-2, 2, 1000)
        b = a + 2j * math.pi * rng.uniform(-2, 2, 1000) + B * rng.uniform(-2, 2, 1000) * rng.random(1000)
        b[:100] = a[:100]
        got = curve._segment_pole_distance(pole, a, b)
        segments = zip(pole.tolist(), a.tolist(), b.tolist())
        want = [_segment_pole_distance_loop(curve, *seg) for seg in segments]
        assert got.tolist() == want


@pytest.mark.parametrize("block", [1, 7, 2048, 16384, 10**6])
def test_pole_distance_does_not_depend_on_the_block_size(monkeypatch, block):
    """The distance is a running fmin over the same values, however the translates are blocked.

    Exact and with the probe screen's 1e-3 threshold, at -4.25+1.1i and at
    -3+3000i.  For the 1e-3 runs every other pole is moved to within
    1e-10 .. 1e-2 of a point of its segment and then by a lattice vector,
    so that the threshold search tries translates; the sheared exact run
    takes the two smaller sets only (the 480 segments try about 270,000
    translates).
    """
    rng = np.random.default_rng(43)
    runs = []
    for B in (-4.25 + 1.1j, -3 + 3000j):
        curve = TorusCurve(B)
        for count in (1, 6, 480):
            pole = rng.uniform(-30, 30, count) + 1j * rng.uniform(-30, 30, count)
            a = pole + 2j * math.pi * rng.uniform(-2, 2, count) + B * rng.uniform(-2, 2, count)
            # boxes from a point (a == b) to several cells wide
            reach = rng.choice([0.0, 0.05, 1.0, 3.0], count)
            reach[0] = 0.0
            b = a + (2j * math.pi * rng.uniform(-1, 1, count) + B * rng.uniform(-1, 1, count)) * reach
            if B.imag < 1000 or count < 480:
                runs.append((curve, (pole, a, b), math.inf))
            runs.append((curve, (pole.copy(), a, b), 1e-3))
    for curve, (pole, a, b), below in runs:
        if below < math.inf:
            count, B = len(pole), curve.pm.B
            near = a + rng.random(count) * (b - a) + 10.0 ** rng.uniform(-10, -2, count) * np.exp(2j * math.pi * rng.random(count))
            m, n = rng.integers(-3, 4, (2, count))
            pole[::2] = (near + 2j * math.pi * m + B * n)[::2]
    want = [curve._segment_pole_distance(*segments, below) for curve, segments, below in runs]
    assert all((distance < 1e-3).any() for (_, (pole, _, _), below), distance in zip(runs, want) if below < 1 and len(pole) == 480)
    monkeypatch.setattr(surface, "_DISTANCE_BLOCK", block)
    for (curve, segments, below), distance in zip(runs, want):
        assert np.array_equal(curve._segment_pole_distance(*segments, below), distance)


def test_lockstep_log_magnitudes_are_the_kernel_log_abs(monkeypatch, torus):
    """``_primes`` takes each log-magnitude from the mantissas with the bits of ``ScaledArray.log_abs``, -inf at a zero."""
    values = []

    def one_zero(pm, z):
        v = theta_eval_batch(pm, z)
        v.mantissa[0] = 0j
        values.append(v)
        return v

    monkeypatch.setattr(surface, "theta_eval_batch", one_zero)
    rng = np.random.default_rng(47)
    for size in (1, 5, 40):
        w = (rng.uniform(-9, 9, size) + 1j * rng.uniform(-9, 9, size)).tolist()
        m, la = torus._primes(w)
        assert m == values[-1].mantissa.tolist()
        assert list(map(repr, la)) == list(map(repr, values[-1].log_abs.tolist()))
        assert la[0] == -math.inf


def test_segment_pole_distance_is_the_nearest_translate():
    """Brute force over |m|, |n| <= 8: the coordinate bound never drops the nearest translate."""
    rng = np.random.default_rng(21)
    periods = [-8.0, -8.0 + 2.5j, -3.0 - 3.0j] + [
        complex(rng.uniform(-8, -3), rng.uniform(-3, 3)) for _ in range(17)
    ]
    grid = [(m, n) for m in range(-8, 9) for n in range(-8, 9)]
    for B in periods:
        curve = TorusCurve(B)
        for _ in range(50):
            (s, t), (ds, dt) = rng.uniform(-3, 3, 2), rng.uniform(-4, 4, 2) * rng.random() ** 2
            pole = complex(*rng.uniform(-40, 40, 2))
            a = pole + 2j * math.pi * s + B * t
            b = a + 2j * math.pi * ds + B * dt  # up to 4 cells long, most far shorter
            brute = min(
                _point_segment_distance(pole + 2j * math.pi * m + B * n, a, b) for m, n in grid
            )
            assert curve._segment_pole_distance(pole, a, b) == brute
        # the cell's centre, up to hypot(Re B / 2, pi) from its nearest translates
        centre = 1j * math.pi + B / 2
        brute = min(_point_segment_distance(2j * math.pi * m + B * n, centre, centre) for m, n in grid)
        assert curve._segment_pole_distance(0.0, centre, centre) == brute


def test_segment_pole_distance_sees_a_planted_pole_at_sheared_periods():
    """A pole planted within eps of a base-to-cell or b-cycle segment, then moved by a lattice vector, is seen.

    The translates tried are those whose real part lies within reach of
    the segment's, and, for each, those whose imaginary part lies within
    reach of the part of the segment near it in real part; at |Im B| up to
    5000 they must still include the planted one, so the distance reported
    is at most eps.
    """
    rng = np.random.default_rng(34)
    for B in (-3 + 5000j, -3 - 4999j, -100 + 2500j, -3 + 100j, -3 + 20j):
        curve = TorusCurve(B)
        size = 300
        start = curve.base_lift + 2j * math.pi * rng.random(size) + B * rng.random(size)
        # base-to-cell segments (the paths of the integrals), then b-cycle segments
        a = np.concatenate([np.full(size, curve.base_lift), start])
        b = np.concatenate([start, start + B])
        eps = 10.0 ** rng.uniform(-9, math.log10(6e-4), 2 * size)
        near = a + rng.random(2 * size) * (b - a) + eps * np.exp(2j * math.pi * rng.random(2 * size))
        m, n = rng.integers(-3, 4, (2, 2 * size))
        pole = near + 2j * math.pi * m + B * n
        distance = curve._segment_pole_distance(pole, a, b)
        missed = np.flatnonzero(~(distance <= eps * (1 + 1e-6) + 1e-12))
        assert not missed.size, (B, [(pole[i], a[i], b[i], eps[i], distance[i]) for i in missed[:3]])


def test_segment_pole_distance_is_exact_at_sheared_periods():
    """Base-to-cell segments against ``cover_distance``, which is exact at each point, on points of the segment.

    The least distance over points at most h apart bounds the segment's
    distance from above, and from below up to h / 2: a point's distance
    to the translates moves by at most the step.  Translates tried within
    one cell of the segment's unreduced (s, t) box miss the nearest one
    for many of these segments, by up to three decades at |Im B| = 3000.
    The domain's corners follow, with 5 segments at Re B = -1e4, whose
    segments are up to 1e4 long.  At each period a point segment at the
    cell's centre ``i*pi + B/2``, up to ``hypot(Re B / 2, pi)`` from its
    nearest translates (that far at a real B), must give its point's
    cover distance.
    """
    rng = np.random.default_rng(38)
    h = 0.05
    for B in (-3 + 50j, -7.5 - 1234.5j, -3 + 3000j, -3 + 5000j, -1e4, -1e4 + 5000j, -1e4 - 5000j):
        curve = TorusCurve(B)
        base = curve.base_lift
        count = 5 if B.real < -1000 else 20
        ends, poles = base + 2j * math.pi * rng.random((2, count)) + B * rng.random((2, count))
        got = curve._segment_pole_distance(poles, base, ends)
        for pole, end, distance in zip(poles.tolist(), ends.tolist(), got.tolist()):
            points = base + (end - base) * np.linspace(0.0, 1.0, math.ceil(abs(end - base) / h) + 1)
            sampled = float(curve.cover_distance(points, pole).min())
            assert sampled - h / 2 <= distance <= sampled * (1 + 1e-12), (B, pole, end, distance, sampled)
        centre = base + 1j * math.pi + B / 2
        distance = curve._segment_pole_distance(base, centre, centre)
        assert distance == pytest.approx(curve.cover_distance(centre, base), rel=1e-15, abs=0), B


@pytest.mark.parametrize(
    "B",
    [-4.25, -6.75, -3 + 50j, -7.5 - 1234.5j, -3 + 3000j, -3 - 5000j, -100 + 2500j]
    + [-3 + 5000j, -1e4, -1e4 + 5000j, -1e4 - 5000j],
)
def test_threshold_pole_distance_decides_as_the_exact_distance(B):
    """With a threshold the distance search decides each segment as the exact search does.

    Base-to-cell segments (the probe screen's) and b-cycle segments (the
    pole guard's), random and with a pole translate planted at 0.5, 0.999,
    1.001 and 2 times the threshold from a point inside the segment or
    beyond one of its ends.
    Where the exact distance is below the threshold, the threshold search
    returns it bit for bit; elsewhere it returns at least the threshold.
    """
    rng = np.random.default_rng(52)
    curve = TorusCurve(B)
    base = curve.base_lift
    size = 40
    start = base + 2j * math.pi * rng.random(size) + B * rng.random(size)
    a = np.where(np.arange(size) % 2, base, start)
    b = np.where(np.arange(size) % 2, start, start + B)
    poles = base + 2j * math.pi * rng.random(size) + B * rng.random(size)
    for tol in (1e-8, 1e-3):
        factors = np.repeat([0.5, 0.999, 1.001, 2.0], size // 4)
        # off a point inside the segment at right angles to it, or, for half the
        # base-to-cell segments, beyond an end along it (beyond a b-cycle's end
        # lies a translate of a point inside it)
        unit = (b - a) / np.abs(b - a)
        inside = a + rng.uniform(0.1, 0.9, size) * (b - a) + factors * tol * 1j * unit
        beyond = np.where(rng.random(size) < 0.5, a - factors * tol * unit, b + factors * tol * unit)
        near = np.where(np.arange(size) % 4 == 1, beyond, inside)
        m, n = rng.integers(-2, 3, (2, size))
        pole = np.concatenate([poles, near + 2j * math.pi * m + B * n])
        seg_a, seg_b = np.tile(a, 2), np.tile(b, 2)
        exact = curve._segment_pole_distance(pole, seg_a, seg_b)
        got = curve._segment_pole_distance(pole, seg_a, seg_b, tol)
        below = exact < tol
        assert below[size:][factors == 0.5].all() and not below[size:][factors == 2.0].any()
        assert np.array_equal(got < tol, below)
        assert list(map(repr, got[below])) == list(map(repr, exact[below]))
        assert (got[~below] >= tol).all()


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
                SurfacePoint(complex(target.lift + eps * direction)), plus, minus
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
        val = torus.third_kind_integral(SurfacePoint(u), plus, minus)
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
    base_val = torus.third_kind_integral(SurfacePoint(u), plus, minus)
    moved_val = torus.third_kind_integral(SurfacePoint(u + b), plus, minus)
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
    curve = TorusCurve(-6.0)
    B = curve.pm.B
    fs, ft = surface._BCYCLE_STARTS[0]
    on_first_cycle = SurfacePoint(curve.base_lift + 2j * math.pi * fs + B * (ft + 0.5))
    other = cell_point(curve, 0.71, 0.83)
    pairs = [(cell_point(curve, 0.23, 0.41), other), (on_first_cycle, other)]
    tracked = []
    track = curve._log_prime_deltas

    def recording(segments):
        tracked.append(segments)
        return track(segments)

    monkeypatch.setattr(curve, "_log_prime_deltas", recording)
    assert curve.b_periods(pairs) == [curve.abel(p) - curve.abel(m) for p, m in pairs]
    # both pairs from the first start, then the refused one alone from the second
    assert [[pole for pole, _, _ in segments] for segments in tracked] == [
        [p.lift for pair in pairs for p in pair],
        [on_first_cycle.lift, other.lift],
    ]
    assert tracked[1][0][1] != tracked[0][0][1]
    # a second call makes the same passes, and empty lists make none
    first = tracked.copy()
    tracked.clear()
    assert curve.b_periods(pairs) == [curve.abel(p) - curve.abel(m) for p, m in pairs]
    assert tracked == first
    tracked.clear()
    assert curve.b_periods([]) == [] and curve.integrals([]) == []
    assert tracked == []
    # with the first start point alone, the pair has nowhere to go
    monkeypatch.setattr(surface, "_BCYCLE_STARTS", surface._BCYCLE_STARTS[:1])
    with pytest.raises(ConsistencyFailure, match="could not route"):
        TorusCurve(-6.0).b_period_vector(on_first_cycle, other)


def test_riemann_constants_value_and_divisor_check(torus):
    K = torus.riemann_constants()
    assert abs(K - (-3.0 + 1j * math.pi)) <= 1e-12  # i*pi + B/2 for B = -6
    at_minus_k = theta_eval_scaled(torus.pm, -K)
    at_zero = theta_eval_scaled(torus.pm, 0j)
    assert at_minus_k.log_abs - at_zero.log_abs <= math.log(1e-10)


def test_riemann_constants_validates_on_every_call(monkeypatch):
    curve = TorusCurve(-6.0)
    validate, checked = surface._validate_constants, []
    monkeypatch.setattr(surface, "_validate_constants", lambda c, K: checked.append((c, K)) or validate(c, K))
    K = curve.riemann_constants()
    assert curve.riemann_constants() == K == 1j * math.pi + curve.pm.B / 2.0
    assert checked == [(curve, K), (curve, K)]


@pytest.mark.parametrize("B", [-3.0, complex(-4.25, 3.0), -8.0, -100.0, -1000.0])
def test_riemann_scan_accepts_the_true_constant_at_deep_periods(B):
    # log|Theta| spreads across the cell in proportion to |Re B|; the scan
    # reads each node's peak-relative value, which does not
    curve = TorusCurve(B)
    assert curve.riemann_constants() == 1j * math.pi + curve.pm.B / 2.0


def test_a_riemann_constant_far_from_the_theta_zero_fails_without_overflow(torus):
    # |Theta(-K)| / |Theta(0)| is beyond e**709 here, so the ratio itself would overflow
    with pytest.raises(ConsistencyFailure) as info:
        surface._validate_constants(torus, 1000 + 0j)
    head = "Riemann constants failed the vanishing check: log10(|Theta(-K)| / |Theta(0)|) = "
    message = str(info.value)
    assert message.startswith(head) and 308 < float(message[len(head) :]) < math.inf, message


@pytest.mark.parametrize("B", [-4.25, -6.75])
def test_riemann_check_reads_no_phase(monkeypatch, B):
    """The vanishing check reads log-magnitudes only: it never forms a mantissa's phase quotient."""
    wrong = 0.5 + 1j * math.pi + B / 2.0
    with pytest.raises(ConsistencyFailure) as info:
        surface._validate_constants(TorusCurve(B), wrong)
    refusal = str(info.value)

    def no_quotient(*args):
        raise AssertionError("a phase quotient was formed")

    monkeypatch.setattr(ScaledArray, "_quotient", staticmethod(no_quotient))
    curve = TorusCurve(B)
    assert curve.riemann_constants() == 1j * math.pi + curve.pm.B / 2.0
    with pytest.raises(ConsistencyFailure) as info:
        surface._validate_constants(TorusCurve(B), wrong)
    assert str(info.value) == refusal
    # the text the check printed when it read ScaledArray.log_abs
    want = {-4.25: "-0.519", -6.75: "-0.435"}[B]
    assert refusal == f"Riemann constants failed the vanishing check: log10(|Theta(-K)| / |Theta(0)|) = {want}"


def test_riemann_scan_refuses_a_far_node_near_zero(monkeypatch):
    curve = TorusCurve(-6.0)
    K = 1j * math.pi + curve.pm.B / 2.0
    surface._validate_constants(curve, K)
    kernel = surface.theta_eval_batch

    def one_tiny_far_node(pm, z):
        values = kernel(pm, z)
        if values.shape == (100,):  # the grid scan; node 90 sits at cell fractions (0.95, 0.05)
            values.mantissa[90] *= 1e-4
        return values

    monkeypatch.setattr(surface, "theta_eval_batch", one_tiny_far_node)
    with pytest.raises(ConsistencyFailure, match="unexpected theta zero"):
        surface._validate_constants(curve, K)


def test_riemann_scan_takes_the_list_built_arguments_in_order(monkeypatch):
    kernel = surface.theta_eval_batch
    seen = []

    def recording(pm, z):
        seen.append(np.array(z))
        return kernel(pm, z)

    monkeypatch.setattr(surface, "theta_eval_batch", recording)
    for B, base in ((-6.0, 0.0), (complex(-4.25, 3.0), 0.4 - 1.3j), (-1000.0, -2.5)):
        curve = TorusCurve(B, base_lift=base)
        B = curve.pm.B
        K = 1j * math.pi + B / 2.0
        seen.clear()
        surface._validate_constants(curve, K)
        # the reference: the scan's nodes built one by one, row j of the cell's a-cycle fractions first
        u1 = base + 2j * math.pi * 0.37 + B * 0.61
        nodes = [
            base + 2j * math.pi * ((j + 0.5) / 10.0) + B * ((k + 0.5) / 10.0)
            for j in range(10)
            for k in range(10)
        ]
        (scanned,) = seen
        assert np.array_equal(scanned, [(u - u1) - K for u in nodes])
        assert scanned[90] == ((base + 2j * math.pi * 0.95 + B * 0.05) - u1) - K


def test_complex_period_backend():
    curve = TorusCurve(complex(-5.0, 1.3))
    plus = cell_point(curve, 0.2, 0.4)
    minus = cell_point(curve, 0.7, 0.8)
    val = curve.third_kind_integral(cell_point(curve, 0.45, 0.1), plus, minus)
    assert np.isfinite(val.real) and np.isfinite(val.imag)
    K = curve.riemann_constants()
    assert abs(K - (1j * math.pi + complex(-5.0, 1.3) / 2.0)) <= 1e-12


def test_straight_path_through_pole_is_refused(torus):
    b = torus.pm.B
    plus = SurfacePoint(0.35 * b)  # directly on the base-to-endpoint chord
    minus = cell_point(torus, 0.5, 0.9)
    with pytest.raises(PoleOnPath):
        torus.third_kind_integral(SurfacePoint(0.7 * b), plus, minus)


def test_sample_points_keeps_its_separations(torus, monkeypatch):
    poles = [cell_point(torus, 0.2, 0.6), cell_point(torus, 0.7, 0.3)]
    avoid = [SurfacePoint(torus.base_lift)] + poles

    def draw(seed, **changes):
        kwargs = dict(avoid=avoid, min_avoid=0.3, min_pairwise=0.2, poles=poles)
        return torus.sample_points(np.random.default_rng(seed), 12, **{**kwargs, **changes})

    points = draw(3)
    assert points == draw(3) and points != draw(4)
    for i, p in enumerate(points):
        assert min(torus.cover_distance(p.lift, a.lift) for a in avoid) >= 0.3
        assert all(torus.cover_distance(p.lift, q.lift) >= 0.2 for q in points[:i])
        for pole in poles:
            assert torus._segment_pole_distance(pole.lift, torus.base_lift, p.lift) >= 1e-3
    monkeypatch.setattr(surface, "_MAX_DRAWS", 60)
    with pytest.raises(SeparationFailure):
        draw(0, min_pairwise=50.0)


def test_sample_points_refuses_an_empty_avoid(torus):
    with pytest.raises(ValueError, match="non-empty avoid"):
        torus.sample_points(np.random.default_rng(0), 4, [], 0.05, 0.02)


def _sample_points_one_at_a_time(curve, rng, count, avoid, min_avoid, min_pairwise, max_tries, poles):
    """Reference: one draw, then its three checks, at a time.

    Returns the lifts kept (or the ``SeparationFailure`` message) and the
    refusals by check: near ``avoid``, near a lift kept, path too close to
    a pole, and, of the second, those among the first ``count`` draws,
    which a lift of the same batch refused.
    """
    kept, refused = [], [0, 0, 0, 0]
    avoid_lifts = np.array([p.lift for p in avoid], dtype=complex)
    pole_lifts = np.array([p.lift for p in poles], dtype=complex)
    for draw in range(max_tries):
        if len(kept) == count:
            break
        lift = curve.base_lift + 2j * math.pi * rng.random() + curve.pm.B * rng.random()
        if curve.cover_distance(lift, avoid_lifts).min() < min_avoid:
            refused[0] += 1
        elif kept and curve.cover_distance(lift, np.array(kept)).min() < min_pairwise:
            refused[1] += 1
            refused[3] += draw < count
        elif poles and curve._segment_pole_distance(pole_lifts, curve.base_lift, lift).min() < surface._PATH_CLEARANCE:
            refused[2] += 1
        else:
            kept.append(lift)
    if len(kept) < count:
        return f"placed {len(kept)} of {count} points in {max_tries} draws", refused
    return [repr(lift) for lift in kept], refused


def _sample_points_batched(curve, rng, *args, poles):
    try:
        return [repr(p.lift) for p in curve.sample_points(rng, *args, poles=poles)]
    except SeparationFailure as exc:
        return str(exc)


def test_sample_points_draws_what_one_draw_at_a_time_draws(monkeypatch):
    """Screening each batch of draws in two tables keeps the draws, their order, the rng stream and the failures."""
    rng = np.random.default_rng(43)
    refused = np.zeros(4, dtype=int)
    failures = 0

    def compare(curve, args, draws, poles):
        nonlocal refused, failures
        seed = int(rng.integers(1 << 30))
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        monkeypatch.setattr(surface, "_MAX_DRAWS", draws)
        got = _sample_points_batched(curve, got_rng, *args, poles=poles)
        want, counts = _sample_points_one_at_a_time(curve, want_rng, *args, draws, poles)
        assert got == want, (curve.pm.B, args[0])
        assert got_rng.random() == want_rng.random()
        refused += counts
        failures += isinstance(got, str)

    # probes as verify places them, on both models' marked and divisor points
    for model in ("cross", "hex"):
        for re_b in (-3.0, -40.0):
            curve = TorusCurve(complex(re_b, rng.uniform(-3, 3)))
            sd = drawn_spectral_data(model, curve)
            marked = list(sd.marked.values())
            for count in (8, 20, 60, 300):
                compare(curve, (count, marked + list(sd.divisor), 0.05, 0.02), 1000, marked)
            # tight: draws of the first batch refuse each other, and some runs fail
            for count, pairwise in ((60, 0.6), (20, 1.5)):
                compare(curve, (count, marked + list(sd.divisor), 0.05, pairwise), 2 * count, marked)
    assert refused[3] > 0 and failures > 0, (refused, failures)
    # a wide path clearance, so that every check refuses some draws
    monkeypatch.setattr(surface, "_PATH_CLEARANCE", 0.2)
    refused[:] = 0
    for _ in range(6):
        curve = TorusCurve(complex(rng.uniform(-8, -3), rng.uniform(-3, 3)))
        poles = [cell_point(curve, *rng.uniform(0, 1, 2)) for _ in range(6)]
        compare(curve, (30, [SurfacePoint(curve.base_lift)] + poles, 0.3, 0.4), 500, poles)
    assert refused[:3].min() > 0, refused


# ---------------------------------------------------------------------------
# curve documents
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def curve_doc(torus):
    marked = {
        name: cell_point(torus, fs, ft)
        for name, (fs, ft) in zip(CROSS_NAME_ORDER, CELL_FRACTIONS)
    }
    return export_curve_document(torus, marked)


def test_export_writes_the_v2_keys_and_tracks_no_path(torus, monkeypatch):
    curve = TorusCurve(torus.pm.B, base_lift=0.25)
    marked = {name: cell_point(curve, fs, ft) for name, (fs, ft) in zip(CROSS_NAME_ORDER, CELL_FRACTIONS)}
    track, passes = curve._log_prime_deltas, []
    monkeypatch.setattr(curve, "_log_prime_deltas", lambda segments: passes.append(segments) or track(segments))
    monkeypatch.setattr(surface, "_validate_constants", lambda *args: pytest.fail("export validated the Riemann constant"))
    doc = export_curve_document(curve, marked)
    assert passes == []
    assert doc == {
        "format": "crosshex-curve-v2",
        "genus": 1,
        "B": [[complex_to_json(curve.pm.B)]],
        "base_lift": [0.25, 0.0],
        "marked_points": {name: complex_to_json(p.lift) for name, p in marked.items()},
    }


def test_document_json_round_trip_is_exact(curve_doc):
    text = json.dumps(curve_doc, sort_keys=True, indent=2)
    assert json.loads(text) == curve_doc


def test_one_item_queries_have_the_bits_of_the_batch_query(torus):
    lifts = {name: cell_point(torus, fs, ft).lift for name, (fs, ft) in zip(CROSS_NAME_ORDER, CELL_FRACTIONS)}
    pairs = [("P1+", "P1-"), ("P2+", "P2-"), ("P3+", "P3-")]
    # each request names the endpoint and the two poles
    requests = [("P2+", "P1+", "P1-"), ("P2-", "P1+", "P1-"), ("P1+", "P2+", "P2-"), ("P1-", "P3+", "P3-")]

    def fresh():
        # each query on a curve of its own: no query's bits may lean on another's
        return TorusCurve(torus.pm.B)

    def points(names):
        return [SurfacePoint(lifts[name]) for name in names]

    def single(method, names):
        return repr(getattr(fresh(), method)(*points(names)))

    periods = fresh().b_periods([points(pair) for pair in pairs])
    integrals = fresh().integrals([points(request) for request in requests])
    assert [single("b_period_vector", pair) for pair in pairs] == list(map(repr, periods))
    assert [single("third_kind_integral", request) for request in requests] == list(map(repr, integrals))


def test_analytic_reader_rebuilds_the_curve_from_the_document(torus, curve_doc):
    curve, marked = load_torus_curve(json.loads(json.dumps(curve_doc)))
    assert curve.pm.B == torus.pm.B and curve.base_lift == torus.base_lift
    assert {name: p.lift for name, p in marked.items()} == {
        name: complex(*lift) for name, lift in curve_doc["marked_points"].items()
    }
    # a key the reader does not know is ignored, however its value looks
    load_torus_curve({**curve_doc, "riemann_constants": [0.0, 0.0], "b_periods": None})
    # both backend values of a spectral document read the curve here, so they refuse the same documents
    for change in ({"format": "crosshex-curve-v0"}, {"format": "crosshex-curve-v1"}, {"B": [[[0.5, 0.0]]]}):
        with pytest.raises(SchemaError):
            load_torus_curve({**curve_doc, **change})


def test_reader_refuses_periods_outside_the_accepted_range(curve_doc):
    """The reader refuses a period that gen-spectral would not write."""
    for B in (
        [surface.MIN_RE_B - 1.0, 0.0],
        [-6.0, surface.MAX_ABS_IM_B * 1.5],
        [-6.0, -surface.MAX_ABS_IM_B * 1.5],
    ):
        with pytest.raises(SchemaError, match="B: "):
            load_torus_curve({**curve_doc, "B": [[B]]})


def test_torus_curve_is_the_one_place_that_decides_the_period_domain():
    for B in (-2.9, -10000.5, complex(-3.0, 5000.5), complex(-3.0, -5000.5), complex(math.nan, 0.0), math.inf, -math.inf):
        with pytest.raises(ValueError, match="period must have real part in"):
            TorusCurve(B)
    for B in (-3.0, -1e4, complex(-3.0, 5000.0), complex(-3.0, -5000.0)):
        curve = TorusCurve(B, base_lift=0.25)
        assert curve.pm.B == B and curve.base_lift == 0.25
    assert (surface.MIN_RE_B, surface.MAX_RE_B, surface.MAX_ABS_IM_B) == (-1e4, -3.0, 5e3)


def test_genus_one_only(curve_doc):
    """The reader refuses a genus other than 1 and a B other than 1x1."""
    entry = curve_doc["B"][0][0]
    for broken in (
        genus_two_document(curve_doc),
        {**curve_doc, "genus": 2},
        {**curve_doc, "genus": True},
        {**curve_doc, "B": [[entry, [0.0, 0.0]]]},
        {**curve_doc, "B": [[entry], [entry]]},
    ):
        with pytest.raises(SchemaError):
            load_torus_curve(broken)


def test_tabulated_rejects_missing_sections(curve_doc):
    """A ``tabulated`` spectral document's curve is read by load_torus_curve too, which refuses a missing key."""
    assert set(curve_doc) == {"format", "genus", "B", "base_lift", "marked_points"}
    for key in curve_doc:
        broken = json.loads(json.dumps(curve_doc))
        del broken[key]
        with pytest.raises(SchemaError):
            load_torus_curve(broken)
