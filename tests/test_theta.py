import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crosshex import theta
from crosshex.errors import NonConvergent
from crosshex.theta import (
    NumpyScaledArray,
    PeriodMatrix,
    ScaledArray,
    _HEAD_LIMIT,
    _batch_crossover,
    _lattice_sum_1d,
    theta_eval_batch,
    theta_eval_scaled,
)

from crosshex_testlib import ScaledComplex, reference_lattice_sum_1d, reference_theta, scalar, scalars


def _path_sizes(pm):
    """A size on each side of every path boundary of theta_eval_batch.

    The scalar kernel runs below the crossover, the batched kernel in one
    chunk up to the head limit, in two from there on and in three at 4096.
    """
    first = _batch_crossover(pm.B)
    return (1, first - 1, first, first + 1, _HEAD_LIMIT - 1, _HEAD_LIMIT, _HEAD_LIMIT + 1, 4096)


def _random_pm(rng):
    return PeriodMatrix(complex(-rng.uniform(3.0, 8.0), rng.uniform(-2.0, 2.0)))


def _rel_diff(a, b) -> float:
    """``|a / b - 1|`` of two ScaledArray values or two ScaledComplex values."""
    return abs(a.over(b).as_complex() - 1.0)


def test_value_at_zero_matches_independent_direct_sum():
    # oracle: the plain series summed term by term over a wide window;
    # for B = -2*pi the terms are exp(-pi n^2)
    direct = sum(math.exp(-math.pi * n * n) for n in range(-30, 31))
    val = theta_eval_scaled(PeriodMatrix(-2.0 * math.pi), 0.0).as_complex()
    assert abs(val - direct) <= 1e-12
    assert abs(val - 1.0864348112133082) <= 5e-15  # frozen from the sum above


def test_parity_periodicity_quasi_periodicity_100_draws():
    rng = np.random.default_rng(2)
    for _ in range(100):
        pm = _random_pm(rng)
        z = complex(rng.normal(0, 2), rng.normal(0, 2))
        m, n = (int(k) for k in rng.integers(-3, 4, 2))
        t0 = theta_eval_scaled(pm, z)
        assert _rel_diff(theta_eval_scaled(pm, -z), t0) <= 1e-9
        assert _rel_diff(theta_eval_scaled(pm, z + 2j * math.pi * m), t0) <= 1e-9
        shifted = theta_eval_scaled(pm, z + 2j * math.pi * m + pm.B * n)
        predicted = t0.times_exp(-0.5 * (n * pm.B * n) - n * z)
        assert _rel_diff(shifted, predicted) <= 1e-9


def test_truncation_stable_under_forced_extra_shells():
    pm = PeriodMatrix(-5.0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        z = complex(rng.normal(0, 4), rng.normal(0, 4))
        a = scalar(theta_eval_scaled(pm, z))
        b = reference_theta(pm, z, 1e-12, min_shells=8)
        assert _rel_diff(a, b) <= 1e-12


def test_truncation_survives_phase_resonant_shell():
    # at this argument one shell's two terms sit at opposite phases and
    # cancel to machine noise while the next shell still carries weight
    # ~1e-5 of the total; an adaptive rule that trusts a single quiet
    # shell returns a value wrong in the fifth digit
    pm = PeriodMatrix(-6.0)
    z = 12.0 + 2.5j * math.pi
    adaptive = scalar(theta_eval_scaled(pm, z))
    forced = reference_theta(pm, z, 1e-12, min_shells=10)
    assert _rel_diff(adaptive, forced) <= 1e-12


def test_zero_of_genus_one_theta():
    # the closed form the curve uses: the terms N and -N-1 cancel there
    for b in (-2.0 * math.pi, -6.0, complex(-5.0, 1.3)):
        pm = PeriodMatrix(b)
        at_zero = theta_eval_scaled(pm, 1j * math.pi + pm.B / 2.0)
        at_origin = theta_eval_scaled(pm, 0j)
        assert at_zero.log_abs - at_origin.log_abs <= math.log(1e-10)


@pytest.mark.parametrize(
    "bad",
    [
        (math.nan, 0.0),
        (-4.0, math.nan),
        (math.inf, 0.0),
        (-math.inf, 0.0),
        (-4.0, -math.inf),
        (0.0, 0.0),  # real part not negative
        (0.0, 1.5),
        (1.0, 0.0),
    ],
)
def test_period_matrix_validation(bad):
    with pytest.raises(ValueError):
        PeriodMatrix(complex(*bad))


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=-4, max_value=4),
    m=st.integers(min_value=-4, max_value=4),
    zr=st.floats(min_value=-3, max_value=3),
    zi=st.floats(min_value=-3, max_value=3),
)
@example(n=0, m=0, zr=1.0, zi=2.225073858507203e-309)  # a subnormal part in a mantissa quotient
def test_quasi_periodicity_is_exact_in_the_exponent(n, m, zr, zi):
    pm = PeriodMatrix(-4.7)
    z = complex(zr, zi)
    lhs = theta_eval_scaled(pm, z + 2j * math.pi * m + pm.B * n)
    rhs = theta_eval_scaled(pm, z).times_exp(-0.5 * (n * pm.B * n) - n * z)
    assert abs(lhs.over(rhs).as_complex() - 1.0) <= 1e-9


def _one(mantissa, log_scale=0.0) -> ScaledArray:
    """One scaled value: a 0-d ScaledArray."""
    return ScaledArray(np.array(complex(mantissa)), np.array(float(log_scale)))


class TestScaledComplex:
    """One scaled complex value is a 0-d ScaledArray; every operation keeps it 0-d."""

    def test_round_trip_is_exact_for_plain_values(self):
        for w in (1.375 - 2.5j, 3.0, -1e7 + 1e-7j, 0j):
            got = ScaledArray.from_complex(w).as_complex()
            assert got.shape == () and repr(complex(got)) == repr(complex(w))

    def test_times_over_plus_match_plain_arithmetic(self):
        a = ScaledArray.from_complex(1.2 - 0.7j)
        b = ScaledArray.from_complex(-0.4 + 2.1j)
        assert a.shape == b.shape == a.times(b).shape == a.over(b).shape == a.plus(b).shape == ()
        assert abs(a.times(b).as_complex() - (1.2 - 0.7j) * (-0.4 + 2.1j)) < 1e-14
        assert abs(a.over(b).as_complex() - (1.2 - 0.7j) / (-0.4 + 2.1j)) < 1e-14
        assert abs(a.plus(b).as_complex() - (0.8 + 1.4j)) < 1e-14

    def test_times_accepts_plain_complex(self):
        a = ScaledArray.from_complex(2.0 + 1.0j)
        assert abs(a.times(3.0).as_complex() - (6.0 + 3.0j)) < 1e-14

    def test_huge_and_tiny_magnitudes_survive(self):
        big = _one(1.0, 5000.0)
        tiny = _one(1.0, -5000.0)
        assert complex(big.times(tiny).as_complex()) == pytest.approx(1.0)
        assert big.as_complex() == math.inf  # saturates, never raises
        assert tiny.as_complex() == 0j

    def test_plus_aligns_scales(self):
        a = _one(1.0, 100.0)
        b = _one(1.0, 98.0)
        expected = 1.0 + math.exp(-2.0)
        got = a.plus(b)
        assert abs(got.log_abs - (100.0 + math.log(expected))) < 1e-12

    def test_times_exp_carries_real_part_into_scale(self):
        a = _one(1.0).times_exp(complex(800.0, 0.25))
        assert a.shape == ()
        assert a.log_abs == pytest.approx(800.0)
        assert cmath.phase(a.mantissa) == pytest.approx(0.25)


def test_shell_cap_raises_nonconvergent():
    # a barely-negative-definite real part makes the series decay so
    # slowly that the shell cap triggers before the tail test
    pm = PeriodMatrix(-1e-8)
    with pytest.raises(NonConvergent):
        theta_eval_scaled(pm, 30.0)


def test_genus_one_kernel_matches_the_array_shell_sum_bit_for_bit():
    # the scalar loop must repeat the array loop's arithmetic exactly:
    # same centre, scale, shell order and stopping decision, at periods
    # where it stops late (Re B -0.5) and early (Re B -10,000)
    rng = np.random.default_rng(11)
    mismatches = []
    for i in range(5000):
        re_b = (rng.uniform(-8.0, -3.0), -0.5, -1.0, -1000.0, -10000.0)[i % 5]
        pm = PeriodMatrix(complex(re_b, rng.uniform(-3.0, 3.0)))
        z = 500.0 ** rng.uniform(-1.0, 1.0) * cmath.exp(2j * math.pi * rng.uniform())
        fast = _lattice_sum_1d(pm.B, z)
        ref = reference_theta(pm, z)
        ref = ref.mantissa, ref.log_scale
        # repr also tells +0.0 from -0.0, which == does not
        if fast != ref or repr(fast) != repr(ref):
            mismatches.append((pm.B, z))
    assert not mismatches, mismatches[:5]


@pytest.mark.parametrize(
    "bad", [complex(math.nan, 0.0), complex(math.inf, 0.0), complex(0.0, math.inf), 1e300]
)
def test_non_finite_or_huge_argument_raises_nonconvergent(bad):
    with pytest.raises(NonConvergent):
        theta_eval_scaled(PeriodMatrix(complex(-5.0, 0.5)), bad)


@pytest.mark.parametrize("bad", [1e10, 1e15])
def test_genus_one_overflow_raises_nonconvergent(bad):
    # the peak scale is computed with cancellation error larger than
    # the double range of exp; the sum must fail loudly, not return inf
    with pytest.raises(NonConvergent):
        theta_eval_scaled(PeriodMatrix(complex(-5.0, 1.0)), bad)


@pytest.mark.parametrize("count", [1, 3, 25])
def test_infinite_exponent_raises_nonconvergent_in_both_kernels(count):
    # N * z overflows to an infinite imaginary part: cmath.exp raises
    # ValueError there, numpy returns NaN; both must become NonConvergent,
    # below the batch crossover (scalar kernel) and on every batched path
    pm = PeriodMatrix(-4.25)
    assert count != _batch_crossover(pm.B)
    for size in (count, _HEAD_LIMIT - 1, _HEAD_LIMIT + 1):
        with pytest.raises(NonConvergent):
            theta_eval_batch(pm, [1e308j] * size)
    with pytest.raises(NonConvergent):
        theta_eval_scaled(pm, 1e308j)


def _batch_draws(rng, count):
    """Seeded arguments over |z| <= 500, a fifth of them near the origin (peak index n0 == 0)."""
    z = 500.0 ** rng.uniform(-1.0, 1.0, count) * np.exp(2j * math.pi * rng.uniform(size=count))
    near = count // 5
    z[:near] = rng.uniform(-1.0, 1.0, near) + 1j * rng.uniform(-40.0, 40.0, near)
    return z


def test_batch_kernel_matches_the_scalar_kernel_bit_for_bit():
    # same centre, scale, shell order and per-element stop as _lattice_sum_1d;
    # repr tells +0.0 from -0.0, which == does not
    rng = np.random.default_rng(23)
    mismatches = []
    checked = 0
    for _ in range(10):
        pm = PeriodMatrix(complex(rng.uniform(-8.0, -3.0), rng.uniform(-3.0, 3.0)))
        z = _batch_draws(rng, 600)
        batch = theta_eval_batch(pm, z.reshape(20, 30))
        assert batch.shape == (20, 30)
        for zi, got in zip(z.tolist(), scalars(batch)):
            want = scalar(theta_eval_scaled(pm, zi))
            checked += 1
            if repr(got) != repr(want):
                mismatches.append((pm.B, zi))
    assert checked == 6000
    assert not any(abs(zi.real / pm.B.real) >= 0.5 for zi in z[:120].tolist())  # n0 == 0 draws
    assert not mismatches, mismatches[:5]


def test_batch_kernel_of_nothing_is_empty():
    got = theta_eval_batch(PeriodMatrix(-4.0), np.zeros(0, dtype=complex))
    assert got.shape == (0,) and scalars(got) == []


@pytest.mark.parametrize(
    "bad", [complex(math.nan, 0.0), complex(math.inf, 0.0), complex(0.0, math.inf), 1e300, 1e10, 1e15]
)
def test_batch_kernel_raises_nonconvergent_where_the_scalar_kernel_does(bad):
    pm = PeriodMatrix(complex(-5.0, 1.0))
    with pytest.raises(NonConvergent):
        theta_eval_scaled(pm, bad)
    # one bad element fails the whole batch, on every path
    for size in _path_sizes(pm):
        z = np.full(size, 0.5 + 0.25j)
        z[size // 2] = bad
        with pytest.raises(NonConvergent):
            theta_eval_batch(pm, z)


def test_batch_kernel_ignores_a_term_past_an_elements_stop():
    """N * z overflows only past shell 5, where these elements stop; the head still evaluates shell 6."""
    pm = PeriodMatrix(-4.25)
    assert theta._head_depth(pm.B) == 6
    for size in (20, _HEAD_LIMIT - 1, _HEAD_LIMIT + 1):
        z = np.full(size, 3.2e307j)
        z[1::2] += 0.3
        got = theta_eval_batch(pm, z)
        assert [repr(v) for v in scalars(got)] == [repr(scalar(theta_eval_scaled(pm, w))) for w in z.tolist()]


def test_batch_kernel_shell_cap_raises_nonconvergent(monkeypatch):
    # at Re B -1e-8 the first head runs to the cap itself; from a first head
    # one shell deep, the deeper heads reach it step by step
    pm = PeriodMatrix(-1e-8)
    for size in _path_sizes(pm):
        with pytest.raises(NonConvergent, match="within 60 shells"):
            theta_eval_batch(pm, np.full(size, 30.0 + 0j))
    monkeypatch.setattr(theta, "_head_depth", lambda b: 1)
    with pytest.raises(NonConvergent, match="relative tail 1e-13 within 60 shells"):
        theta._lattice_sum_batch(pm.B, np.full(_HEAD_LIMIT + 1, 30.0 + 0j))


def test_batch_kernel_matches_the_scalar_kernel_across_the_crossover():
    """Every path, at periods from Re B -0.5 (late stops) to -10,000 (early stops): same bits."""
    rng = np.random.default_rng(29)
    for re_b in (-0.5, -1.0, -3.0, -40.0, -1000.0, -10000.0):
        for i in range(8):
            # |Im B| up to the 5,000 the curve reader accepts on every other size
            pm = PeriodMatrix(complex(re_b, rng.uniform(-1.0, 1.0) * (3.0, 5000.0)[i % 2]))
            size = _path_sizes(pm)[i]
            z = _batch_draws(rng, size)
            # half of them within a few lattice cells of the origin
            cells = rng.uniform(-3.0, 3.0, (2, size // 2))
            z[: size // 2] = 2j * math.pi * cells[0] + pm.B * cells[1]
            got = theta_eval_batch(pm, z)
            assert got.shape == (size,)
            want = [scalar(theta_eval_scaled(pm, w)) for w in z.tolist()]
            assert [repr(v) for v in scalars(got)] == [repr(v) for v in want], (pm.B, size)
    assert theta_eval_batch(PeriodMatrix(-4.0), 0.5 + 0.5j).shape == ()


def test_scalar_kernel_matches_the_reference_kernel_across_periods():
    """``theta_eval_scaled`` gives a 0-d value with the mantissa and scale of the reference shell sum.

    The periods of the crossover test above; compared by repr, which
    tells +0.0 from -0.0.
    """
    rng = np.random.default_rng(37)
    for re_b in (-0.5, -1.0, -3.0, -40.0, -1000.0, -10000.0):
        for i in range(8):
            pm = PeriodMatrix(complex(re_b, rng.uniform(-1.0, 1.0) * (3.0, 5000.0)[i % 2]))
            z = _batch_draws(rng, 40)
            cells = rng.uniform(-3.0, 3.0, (2, 20))
            z[:20] = 2j * math.pi * cells[0] + pm.B * cells[1]
            for w in z.tolist():
                got = theta_eval_scaled(pm, w)
                assert got.shape == ()
                assert repr(scalar(got)) == repr(reference_theta(pm, w)), (pm.B, w)


def test_batch_kernel_finishes_in_the_first_and_in_a_deeper_head_in_one_batch(monkeypatch):
    """At Re B -1000 the first head sums shells 0..2; a peak half-way between two indices needs shell 3."""
    pm = PeriodMatrix(complex(-1000.0, 0.7))
    size = 40
    depth = theta._head_depth(pm.B)
    # peak offsets from 0 (one index dominates) to 1/2 (two indices tie)
    offset = np.linspace(0.0, 0.5, size)
    z = -(3.0 + offset) * pm.B.real + 1j * np.linspace(-20.0, 20.0, size)
    got = theta_eval_batch(pm, z)
    want = [scalar(theta_eval_scaled(pm, w)) for w in z.tolist()]
    assert [repr(v) for v in scalars(got)] == [repr(v) for v in want]
    # with the scalar kernel capped at the head's depth, some elements still
    # finish and the others run out of shells
    monkeypatch.setattr(theta, "_SHELL_CAP", depth)
    finished = 0
    for w in z.tolist():
        try:
            theta_eval_scaled(pm, w)
            finished += 1
        except NonConvergent:
            pass
    assert 0 < finished < size, (depth, finished)


def test_batch_kernel_deepens_from_any_first_head_depth(monkeypatch):
    """Whatever depth the first head has, the deeper heads give the elements it leaves their sums and stops.

    At Re B -1 the terms decay slowly, so a shell summed too many or too
    few changes the bits.
    """
    pm = PeriodMatrix(complex(-1.0, 0.3))
    z = _batch_draws(np.random.default_rng(31), 60)
    want = [repr(scalar(theta_eval_scaled(pm, w))) for w in z.tolist()]
    for depth in range(theta._head_depth(pm.B) + 1):
        monkeypatch.setattr(theta, "_head_depth", lambda b: depth)
        assert [repr(v) for v in scalars(theta._lattice_sum_batch(pm.B, z))] == want, depth


def test_batch_kernel_deepens_the_leftovers_of_every_chunk_in_place(monkeypatch):
    """A first head one shell deep stops no element, so every chunk hands all of its elements on.

    Three chunks, the last of 7 arguments; each result must land where
    its argument sits.
    """
    pm = PeriodMatrix(complex(-4.25, 0.6))
    z = _batch_draws(np.random.default_rng(41), 2 * _HEAD_LIMIT + 7)
    want = [repr(scalar(theta_eval_scaled(pm, w))) for w in z.tolist()]
    head, calls = theta._head, []

    def recording(b, z, n0, scale, depth):
        calls.append((depth, z.size))
        return head(b, z, n0, scale, depth)

    monkeypatch.setattr(theta, "_head", recording)
    monkeypatch.setattr(theta, "_head_depth", lambda b: 1)
    assert [repr(v) for v in scalars(theta._lattice_sum_batch(pm.B, z))] == want
    assert [size for depth, size in calls if depth == 3] == [_HEAD_LIMIT, _HEAD_LIMIT, 7]


def _both_stops(monkeypatch, b, z, depth, lift=0.0):
    """``_head`` on one table with its stops decided from bounds and with hypot everywhere, and the open pairs.

    Each result is the (sums, done) pair as reprs, which tell +0.0 from
    -0.0, or the NonConvergent message.  ``lift`` raises every scale
    above the peak's, which scales every term by ``exp(-lift)``.
    """
    z = np.asarray(z, dtype=complex)
    n0 = np.rint(-z.real / b.real)
    with np.errstate(all="ignore"):
        scale = np.where(n0 != 0, (0.5 * (n0 * b * n0) + n0 * z).real, 0.0) + lift
    bounded_stop, opened = theta._bounded_stop, []

    def recording(re_w, depth):
        calm, pairs = bounded_stop(re_w, depth)
        opened.append(pairs[0].size)
        return calm, pairs

    monkeypatch.setattr(theta, "_bounded_stop", recording)
    out = []
    for limit in (0, math.inf):  # every table bounded, then none
        monkeypatch.setattr(theta, "_BOUNDED_MIN", limit)
        try:
            with np.errstate(all="ignore"):
                sums, done = theta._head(b, z, n0, scale, depth)
            out.append((repr(sums.tolist()), repr(done.tolist())))
        except NonConvergent as exc:
            out.append(str(exc))
    assert len(opened) <= 1
    return out[0], out[1], sum(opened)


def _shell_is_quiet(b, z, radius):
    """Whether shell ``radius`` of theta at z passes the stop test, rounded as the scalar kernel rounds it."""
    n0 = round(-z.real / b.real)
    scale = (0.5 * (n0 * b * n0) + n0 * z).real if n0 else 0.0
    t = {N: cmath.exp(0.5 * (b * N * N) + N * z - scale) for N in range(n0 - radius, n0 + radius + 1)}
    acc = 0j + t[n0]
    for r in range(1, radius + 1):
        acc += t[n0 - r] + t[n0 + r]
    mag = abs(t[n0 - radius]) + abs(t[n0 + radius]) if radius else abs(t[n0])
    return mag < theta.THETA_EPS * max(1.0, abs(acc))


@pytest.mark.parametrize(
    "b, fixed, scan",
    [
        # |S_r| near 1 after cancellation, far below the running bound
        (complex(-0.05, 0.02), "re 0.01", np.linspace(0.0, 2.0 * math.pi, 61)),
        # |S_r| far below 1, so the threshold is THETA_EPS itself
        (complex(-0.0501, 0.0), "im pi", np.linspace(0.0, 0.024, 49)),
        # every term in phase, so the running bound is |S_r| to rounding
        (complex(-0.0491, 0.0), "im 0", np.linspace(0.0, 0.024, 49)),
    ],
)
def test_bounded_stop_matches_the_exact_stop_at_the_quiet_threshold(monkeypatch, b, fixed, scan):
    """Arguments within 40 ulps of where a shell turns quiet: the bounds leave them open, and each stop is exact.

    At Re B -0.05 the shells decay slowly, so the shell after a stop
    still moves the sum's bits and a stop one shell off would show.  A
    shell's magnitude depends on Re z only, its threshold on Im z too.
    """
    part, value = fixed.split()
    value = math.pi if value == "pi" else float(value)

    def point(s):
        return complex(value, s) if part == "re" else complex(s, value)

    scan = scan.tolist()
    for radius in range(30, 45):
        quiet = [_shell_is_quiet(b, point(s), radius) for s in scan]
        flip = next((k for k in range(len(scan) - 1) if quiet[k] != quiet[k + 1]), None)
        if flip is not None:
            break
    lo, hi = scan[flip], scan[flip + 1]  # the test differs at lo and hi
    while math.nextafter(lo, hi) != hi:
        mid = 0.5 * (lo + hi)
        if _shell_is_quiet(b, point(mid), radius) == quiet[flip]:
            lo = mid
        else:
            hi = mid
    window = [hi]
    for _ in range(40):
        window = [math.nextafter(window[0], -math.inf), *window, math.nextafter(window[-1], math.inf)]
    z = np.array([point(s) for s in window[:-1]])  # 40 floats below hi and 40 from hi on
    assert {_shell_is_quiet(b, w, radius) for w in z.tolist()} == {True, False}
    bounded, exact, opened = _both_stops(monkeypatch, b, z, theta._head_depth(b))
    assert bounded == exact and opened >= z.size
    monkeypatch.setattr(theta, "_BOUNDED_MIN", 0)
    got = theta._lattice_sum_batch(b, z)
    assert [repr(v) for v in scalars(got)] == [repr(scalar(theta_eval_scaled(PeriodMatrix(b), w))) for w in z.tolist()]


def test_bounded_stop_matches_the_exact_stop_on_underflowing_and_unused_non_finite_terms(monkeypatch):
    rng = np.random.default_rng(43)
    # shells 2 and 3 of these periods hold subnormal terms, or terms that underflow to 0
    for re_b in (-160.0, -360.0, -375.0, -1000.0):
        b = complex(re_b, rng.uniform(-3.0, 3.0))
        z = _batch_draws(rng, 300)
        bounded, exact, _ = _both_stops(monkeypatch, b, z, theta._head_depth(b))
        assert bounded == exact, re_b
    # N * z overflows past shell 5, where these elements stop, so the terms there go unused
    b = complex(-4.25, 0.0)
    z = np.full(150, 3.2e307j)
    z[1::2] += 0.3
    bounded, exact, _ = _both_stops(monkeypatch, b, z, theta._head_depth(b))
    assert bounded == exact and not bounded[0].count("nan")
    # a term used before the stop is not finite: both raise
    z[7] = 1e308j
    bounded, exact, _ = _both_stops(monkeypatch, b, z, theta._head_depth(b))
    assert bounded == exact == "theta lattice sum overflowed"


def test_bounded_stop_matches_the_exact_stop_below_the_peak_scale(monkeypatch):
    """Terms scaled far below 1: the running bound under 1, and centre terms at the quiet threshold itself.

    The kernels never scale a table so, but ``_head`` takes any scale,
    and its stop test must not lean on the centre term being near 1.
    """
    rng = np.random.default_rng(53)
    b = complex(-4.25, 0.4)
    for lift in (5.0, 20.0, -math.log(theta.THETA_EPS)):
        z = _batch_draws(rng, 400)
        bounded, exact, opened = _both_stops(monkeypatch, b, z, theta._head_depth(b), lift)
        assert bounded == exact, lift
    # at the last lift nearly every centre term is within a few ulps of THETA_EPS, and the bounds leave it open
    assert opened >= 350


def test_tables_either_side_of_the_bounded_size_take_each_stop_with_the_same_bits(monkeypatch):
    """A table one term short of ``_BOUNDED_MIN`` takes hypot everywhere, one of that size the bounds."""

    def shape(size):
        return next((depth, size // (2 * depth + 1)) for depth in range(1, 61) if size % (2 * depth + 1) == 0)

    rng = np.random.default_rng(47)
    limit = theta._BOUNDED_MIN
    for size, bounded_path in ((limit - 1, False), (limit, True)):
        depth, count = shape(size)
        b = complex(-4.25, 0.4)
        z = _batch_draws(rng, count)
        calls = []
        bounded_stop = theta._bounded_stop
        monkeypatch.setattr(theta, "_bounded_stop", lambda re_w, d: calls.append(re_w.size) or bounded_stop(re_w, d))
        with np.errstate(all="ignore"):
            n0 = np.rint(-z.real / b.real)
            scale = np.where(n0 != 0, (0.5 * (n0 * b * n0) + n0 * z).real, 0.0)
            sums, done = theta._head(b, z, n0, scale, depth)
        assert calls == ([size] if bounded_path else [])
        monkeypatch.undo()
        bounded, exact, _ = _both_stops(monkeypatch, b, z, depth)
        assert bounded == exact == (repr(sums.tolist()), repr(done.tolist())), size
        monkeypatch.undo()


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(
    re_b=st.floats(-2000.0, -0.05),
    im_b=st.sampled_from([0.0, -0.0]) | st.floats(-50.0, 50.0),
    zr=st.sampled_from([0.0, -0.0]) | st.floats(-1e4, 1e4) | st.floats(-1e16, 1e16),
    zi=st.sampled_from([0.0, -0.0]) | st.floats(-1e4, 1e4) | st.floats(-1e308, 1e308),
)
@example(re_b=-4.25, im_b=-0.0, zr=-0.0, zi=-0.0)
@example(re_b=-5.0, im_b=1.0, zr=1e10, zi=0.0)  # the sum overflows
@example(re_b=-1e-8, im_b=0.0, zr=30.0, zi=0.0)  # the shell cap
def test_scalar_kernel_matches_the_reference_with_a_closure_per_term(re_b, im_b, zr, zi):
    b, z = complex(re_b, im_b), complex(zr, zi)
    results = []
    for kernel in (theta._lattice_sum_1d, reference_lattice_sum_1d):
        try:
            results.append(repr(kernel(b, z)))
        except NonConvergent as exc:
            results.append(str(exc))
    assert results[0] == results[1]


def _scaled_draws(rng, count):
    """Mantissas across 24 decades, some purely real or imaginary, with wide log scales."""
    mantissa = 10.0 ** rng.uniform(-12.0, 12.0, count) * np.exp(2j * math.pi * rng.uniform(size=count))
    mantissa[:50] = rng.normal(size=50) + 0j
    mantissa[50:100] = 1j * rng.normal(size=50)
    mantissa[100:150] = np.exp(2j * math.pi * rng.uniform(size=50))  # |m| near 1
    return ScaledArray(mantissa, rng.normal(0.0, 300.0, count))


def _assert_ops_match_scaled_complex(a, b, w) -> None:
    """Every ScaledArray operation against ScaledComplex, element by element, by repr.

    ``a`` is the operand whose methods are called, ``b`` the other one
    (``b.mantissa`` the plain one) and ``w`` the exponent of
    ``times_exp``; they may broadcast against each other.
    """
    shape = np.broadcast_shapes(a.shape, b.shape, np.shape(w))

    def spread(x):
        return scalars(ScaledArray(np.broadcast_to(x.mantissa, shape), np.broadcast_to(x.log_scale, shape)))

    xs, ys, own = spread(a), spread(b), scalars(a)
    ws = np.broadcast_to(w, shape).ravel().tolist()
    flip = a.log_scale < 0

    def same(got, want, shape=shape):
        return got.shape == shape and [repr(g) for g in scalars(got)] == [repr(x) for x in want]

    def same_plain(got, want):
        return np.shape(got) == a.shape and [repr(g) for g in np.ravel(got).tolist()] == [repr(x) for x in want]

    assert same(a.times(b), [x.times(y) for x, y in zip(xs, ys)])
    assert same(a.times(b.mantissa), [x.times(y.mantissa) for x, y in zip(xs, ys)])
    assert same(a.over(b), [x.over(y) for x, y in zip(xs, ys)])
    assert same(a.times_exp(w), [x.times_exp(v) for x, v in zip(xs, ws)])
    assert same(a.plus(b), [x.plus(y) for x, y in zip(xs, ys)])
    assert same(b.plus(a), [y.plus(x) for x, y in zip(xs, ys)])
    assert same(a.normalized(), [x.normalized() for x in own], a.shape)
    assert same(a.negated(), [x.negated() for x in own], a.shape)
    assert same(a.negated(flip), [x.negated() if f else x for x, f in zip(own, np.ravel(flip))], a.shape)
    log_abs, phase = a.polar()
    assert same_plain(log_abs, [x.log_abs for x in own])
    assert same_plain(phase, [x.mantissa / abs(x.mantissa) if x.mantissa else 0j for x in own])
    assert same_plain(a.as_complex(), [x.as_complex() for x in own])


def test_scaled_array_ops_match_scaled_complex_bit_for_bit():
    rng = np.random.default_rng(29)
    a, b = _scaled_draws(rng, 5000), _scaled_draws(rng, 5000)
    w = rng.normal(0.0, 50.0, 5000) + 1j * rng.normal(0.0, 50.0, 5000)
    _assert_ops_match_scaled_complex(a, b, w)
    # a single value: 0-d arrays (what theta_eval_scaled gives) and the numpy
    # scalars that indexing one element out gives (what evaluate_ratio gives)
    for i in range(300):
        x, y = (_one(v.mantissa[i], v.log_scale[i]) for v in (a, b))
        _assert_ops_match_scaled_complex(x, y, w[i])
        _assert_ops_match_scaled_complex(a[i], b[i], w[i])
    for i in range(0, 300, 30):
        _assert_ops_match_scaled_complex(a[i : i + 1], b[i : i + 1], w[i : i + 1])
    # an outer grid, as phi_scaled's numerators over its per-probe denominators
    _assert_ops_match_scaled_complex(a[:40].reshape(40, 1), b[:50].reshape(1, 50), w[:50].reshape(1, 50))
    _assert_ops_match_scaled_complex(a[:40].reshape(40, 1), b[:50].reshape(1, 50), w[:2000].reshape(40, 50))
    # the same with a zero mantissa (log_abs -inf, phase 0), on 0-d, 1-d and 2-d arrays
    z = ScaledArray(a.mantissa.copy(), a.log_scale.copy())
    z.mantissa[7] = 0j
    _assert_ops_match_scaled_complex(z, b, w)
    _assert_ops_match_scaled_complex(_one(z.mantissa[7], z.log_scale[7]), _one(b.mantissa[7], b.log_scale[7]), w[7])
    _assert_ops_match_scaled_complex(z[7], b[7], w[7])
    _assert_ops_match_scaled_complex(z[7:8], b[7:8], w[7:8])
    _assert_ops_match_scaled_complex(z[:40].reshape(40, 1), b[:50].reshape(1, 50), w[:2000].reshape(40, 50))

    # plus: a zero mantissa on either side and on both, equal log scales (the
    # tie keeps self as the larger term), and gaps past the exp cutoff
    left = ScaledArray(a.mantissa.copy(), a.log_scale.copy())
    right = ScaledArray(b.mantissa.copy(), b.log_scale.copy())
    left.mantissa[200:260] = 0
    right.mantissa[240:300] = 0
    right.log_scale[300:400] = left.log_scale[300:400]
    # signed zeros make the tie and the cutoff visible: two zero mantissas of
    # opposite signs at one scale, and a far smaller term added to a mantissa
    # with a -0.0 part (lo * exp(diff) has a -0.0 there, the cutoff's 0.0 not)
    left.mantissa[300:304] = [0j, complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0)]
    right.mantissa[300:304] = [complex(-0.0, -0.0), complex(-0.0, 0.0), complex(0.0, -0.0), 0j]
    left.mantissa[400:404], left.log_scale[400:404] = complex(2.0, -0.0), 0.0
    right.mantissa[400:404], right.log_scale[400:404] = complex(-1.0, -1.0), [-744.9, -745.0, -745.1, -800.0]
    diff = right.log_scale - left.log_scale
    assert (diff <= -745).sum() > 100 and (diff >= 745).sum() > 100

    def same(got, want):
        return [repr(g) for g in scalars(got)] == [repr(x) for x in want]

    pairs = list(zip(scalars(left), scalars(right)))
    assert same(left.plus(right), [x.plus(y) for x, y in pairs])
    assert same(right.plus(left), [y.plus(x) for x, y in pairs])
    for i in range(200, 404):
        x, y = pairs[i]
        one_left, one_right = (_one(v.mantissa[i], v.log_scale[i]) for v in (left, right))
        assert same(one_left.plus(one_right), [x.plus(y)])
        assert same(right[i].plus(left[i]), [y.plus(x)])


def test_numpy_scaled_array_has_the_bits_of_scaled_complex_on_numpy_mantissas():
    # an SVD's kernel values are np.complex128 scalars: ScaledComplex arithmetic on
    # them takes numpy's scalar operations, and NumpyScaledArray repeats those
    rng = np.random.default_rng(31)
    a, b = _scaled_draws(rng, 5000), _scaled_draws(rng, 5000)
    w = rng.normal(0.0, 50.0, 5000) + 1j * rng.normal(0.0, 50.0, 5000)
    b.log_scale[:500] = a.log_scale[:500] - rng.uniform(700.0, 800.0, 500)  # around the plus cutoff
    na = NumpyScaledArray(a.mantissa, a.log_scale)
    numpy_scalars = [ScaledComplex(m, s) for m, s in zip(na.mantissa, na.log_scale)]  # numpy scalars
    others = scalars(b)

    def same(got, want):
        return repr(scalars(got)) == repr([ScaledComplex(complex(x.mantissa), float(x.log_scale)) for x in want])

    quotients = [x.over(y) for x, y in zip(numpy_scalars, others)]
    assert isinstance(quotients[0].mantissa, np.complex128)
    assert type(na.over(b)) is NumpyScaledArray and same(na.over(b), quotients)
    assert repr(na.over(b).as_complex().tolist()) == repr([complex(x.as_complex()) for x in quotients])
    assert same(na.normalized(), [x.normalized() for x in numpy_scalars])
    assert same(na.times(b), [x.times(y) for x, y in zip(numpy_scalars, others)])
    assert same(na.times_exp(w), [x.times_exp(v) for x, v in zip(numpy_scalars, w.tolist())])
    # a plain larger term stays plain past the exp cutoff: plus takes numpy terms on both sides
    nb = NumpyScaledArray(b.mantissa, b.log_scale)
    numpy_others = [ScaledComplex(m, s) for m, s in zip(nb.mantissa, nb.log_scale)]
    assert same(na.plus(nb), [x.plus(y) for x, y in zip(numpy_scalars, numpy_others)])
    assert same(nb.plus(na), [y.plus(x) for x, y in zip(numpy_scalars, numpy_others)])
    assert same(na[::7], numpy_scalars[::7]) and type(na[::7]) is NumpyScaledArray
    # the quotient is the operation that differs from CPython's
    assert repr(scalars(na.over(b))) != repr(scalars(a.over(b)))


def test_scaled_array_zero_mantissas():
    a = ScaledArray(np.array([0j, 1.0 + 1.0j]), np.array([3.0, 2.0]))
    assert a.log_abs[0] == -math.inf and a.polar()[1][0] == 0
    assert repr(scalars(a.normalized())[0]) == repr(ScaledComplex(0j, 3.0).normalized())
    with pytest.raises(ZeroDivisionError):
        ScaledArray.from_complex([1.0 + 0j]).over(a)


def _as_complex_matches(a: ScaledArray) -> None:
    """``a.as_complex()`` against ScaledComplex.as_complex, element by element, by repr."""
    got = a.as_complex()
    assert got.shape == a.shape
    want = [x.as_complex() for x in scalars(a)]
    assert [repr(g) for g in got.ravel().tolist()] == [repr(w) for w in want]


SIGNED_ZEROS = [complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)]
# phases with a zero part, of either sign, and general ones
PHASED = [complex(0.0, 2.0), complex(-0.0, -3.0), complex(5.0, 0.0), complex(-0.5, -0.0), 3 - 4j, 7e-7 - 1e-6j]


def test_array_as_complex_on_signed_zeros_and_exact_scales():
    mantissa = SIGNED_ZEROS + [complex(re, im) for re in (0.0, -0.0) for im in (1.5, -2.5)]
    mantissa += [complex(re, im) for re in (1.5, -2.5) for im in (0.0, -0.0)]
    for scale in (0.0, -0.0, 3.0, -3.0):
        _as_complex_matches(ScaledArray(np.array(mantissa), np.full(len(mantissa), scale)))


def test_array_as_complex_at_the_range_edges():
    # totals just below -745 (0j) and on either side of 709 (saturated componentwise)
    below, above = np.nextafter(-745.0, -np.inf), np.nextafter(709.0, np.inf)
    totals = [-800.0, -745.1, below, -745.0, -744.99, 708.99, 709.0, above, 709.1, 1e4]
    mantissa = np.array([m for m in PHASED for _ in totals])
    log_scale = np.array([t - math.log(abs(m)) for m in PHASED for t in totals])
    _as_complex_matches(ScaledArray(mantissa, log_scale))
    _as_complex_matches(ScaledArray(mantissa.reshape(len(PHASED), -1), log_scale.reshape(len(PHASED), -1)))


def test_array_as_complex_on_subnormals():
    tiny = [5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 0.0, -0.0]
    mantissa = np.array([complex(re, im) for re in tiny for im in tiny])
    for scale in (0.0, 1.0, -1.0, 700.0, 740.0):  # totals from about -1400 to beyond 709
        _as_complex_matches(ScaledArray(mantissa, np.full(mantissa.shape, scale)))
    # results in the subnormal range
    _as_complex_matches(ScaledArray(np.array(PHASED), np.array([-740.0 - math.log(abs(m)) for m in PHASED])))


_PARTS = st.one_of(st.floats(-1e300, 1e300), st.sampled_from([0.0, -0.0, 5e-324, -1e-310]))
_SCALES = st.one_of(st.just(0.0), st.floats(-2000.0, 2000.0))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.lists(st.tuples(_PARTS, _PARTS, _SCALES), min_size=1, max_size=12))
def test_array_as_complex_matches_the_scalar_on_any_pair(elements):
    mantissa = np.array([complex(re, im) for re, im, _ in elements])
    _as_complex_matches(ScaledArray(mantissa, np.array([s for _, _, s in elements])))

def _cancellation_reference(terms):
    """The normalized-residual loop over ScaledComplex terms, zero terms skipped."""
    mags = [t.log_abs for t in terms if t.mantissa != 0]
    if not mags:
        return 0.0
    top = max(mags)
    total = 0j
    denom = 0.0
    for t in terms:
        if t.mantissa == 0:
            continue
        mag = math.exp(t.log_abs - top)
        total += (t.mantissa / abs(t.mantissa)) * mag
        denom += mag
    return abs(total) / denom


def test_cancellation_matches_the_scalar_sum_bit_for_bit():
    rng = np.random.default_rng(31)
    terms = _scaled_draws(rng, 6 * 700).reshape(6, 700)
    used = rng.random((6, 700)) < 0.8
    used[:, :5] = False  # no term used
    got = terms.cancellation(used)
    for j in range(700):
        column = [scalar(terms[k, j]) for k in range(6) if used[k, j]]
        assert repr(float(got[j])) == repr(_cancellation_reference(column)), j
    # unused terms that overflow at the used ones' scale, or are NaN or infinite
    wild = ScaledArray(terms.mantissa.copy(), terms.log_scale.copy())
    wild.log_scale[1, ::2] += 3000.0
    wild.mantissa[3, 1::4] = complex(math.nan, math.nan)
    wild.mantissa[5, 3::4] = complex(math.inf, -0.0)
    unused = np.zeros((6, 700), dtype=bool)
    unused[1, ::2] = unused[3, 1::4] = unused[5, 3::4] = True
    got = wild.cancellation(used & ~unused)
    for j in range(700):
        column = [scalar(terms[k, j]) for k in range(6) if used[k, j] and not unused[k, j]]
        assert repr(float(got[j])) == repr(_cancellation_reference(column)), j
    # a one-term axis
    got = terms[:1].cancellation(used[:1])
    for j in range(700):
        assert repr(float(got[j])) == repr(_cancellation_reference([scalar(terms[0, j])] if used[0, j] else [])), j
