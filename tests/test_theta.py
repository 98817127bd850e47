import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosshex.errors import NonConvergent
from crosshex.theta import (
    NumpyScaledArray,
    PeriodMatrix,
    ScaledArray,
    ScaledComplex,
    _BATCH_CROSSOVER,
    _lattice_sum_1d,
    theta_eval_batch,
    theta_eval_scaled,
)


def _random_pm(rng):
    return PeriodMatrix(complex(-rng.uniform(3.0, 8.0), rng.uniform(-2.0, 2.0)))


def _rel_diff(a: ScaledComplex, b: ScaledComplex) -> float:
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
        a = theta_eval_scaled(pm, z)
        b = _array_shell_sum(pm, z, 1e-12, min_shells=8)
        assert _rel_diff(a, b) <= 1e-12


def test_truncation_survives_phase_resonant_shell():
    # at this argument one shell's two terms sit at opposite phases and
    # cancel to machine noise while the next shell still carries weight
    # ~1e-5 of the total; an adaptive rule that trusts a single quiet
    # shell returns a value wrong in the fifth digit
    pm = PeriodMatrix(-6.0)
    z = 12.0 + 2.5j * math.pi
    adaptive = theta_eval_scaled(pm, z)
    forced = _array_shell_sum(pm, z, 1e-12, min_shells=10)
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


def test_eps_bounds():
    pm = PeriodMatrix(-4.0)
    with pytest.raises(ValueError):
        theta_eval_scaled(pm, 0j, eps=0.0)
    with pytest.raises(ValueError):
        theta_eval_scaled(pm, 0j, eps=0.5)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=-4, max_value=4),
    m=st.integers(min_value=-4, max_value=4),
    zr=st.floats(min_value=-3, max_value=3),
    zi=st.floats(min_value=-3, max_value=3),
)
def test_quasi_periodicity_is_exact_in_the_exponent(n, m, zr, zi):
    pm = PeriodMatrix(-4.7)
    z = complex(zr, zi)
    lhs = theta_eval_scaled(pm, z + 2j * math.pi * m + pm.B * n)
    rhs = theta_eval_scaled(pm, z).times_exp(-0.5 * (n * pm.B * n) - n * z)
    assert abs(lhs.over(rhs).as_complex() - 1.0) <= 1e-9


class TestScaledComplex:
    def test_round_trip_is_exact_for_plain_values(self):
        for w in (1.375 - 2.5j, 3.0, -1e7 + 1e-7j, 0j):
            assert ScaledComplex.from_complex(w).as_complex() == complex(w)

    def test_times_over_plus_match_plain_arithmetic(self):
        a = ScaledComplex.from_complex(1.2 - 0.7j)
        b = ScaledComplex.from_complex(-0.4 + 2.1j)
        assert abs(a.times(b).as_complex() - (1.2 - 0.7j) * (-0.4 + 2.1j)) < 1e-14
        assert abs(a.over(b).as_complex() - (1.2 - 0.7j) / (-0.4 + 2.1j)) < 1e-14
        assert abs(a.plus(b).as_complex() - (0.8 + 1.4j)) < 1e-14

    def test_times_accepts_plain_complex(self):
        a = ScaledComplex.from_complex(2.0 + 1.0j)
        assert abs(a.times(3.0).as_complex() - (6.0 + 3.0j)) < 1e-14

    def test_huge_and_tiny_magnitudes_survive(self):
        big = ScaledComplex(1.0 + 0j, 5000.0)
        tiny = ScaledComplex(1.0 + 0j, -5000.0)
        assert big.times(tiny).as_complex() == pytest.approx(1.0)
        assert big.as_complex() == math.inf  # saturates, never raises
        assert tiny.as_complex() == 0j

    def test_plus_aligns_scales(self):
        a = ScaledComplex(1.0 + 0j, 100.0)
        b = ScaledComplex(1.0 + 0j, 98.0)
        expected = 1.0 + math.exp(-2.0)
        got = a.plus(b)
        assert abs(got.log_abs - (100.0 + math.log(expected))) < 1e-12

    def test_times_exp_carries_real_part_into_scale(self):
        a = ScaledComplex.one().times_exp(complex(800.0, 0.25))
        assert a.log_abs == pytest.approx(800.0)
        assert cmath.phase(a.mantissa) == pytest.approx(0.25)


def test_shell_cap_raises_nonconvergent():
    # a barely-negative-definite real part makes the series decay so
    # slowly that the shell cap triggers before the tail test
    pm = PeriodMatrix(-1e-8)
    with pytest.raises(NonConvergent):
        theta_eval_scaled(pm, 30.0)


def _array_shell_sum(pm, z, eps, min_shells=0):
    """Reference: the theta shell sum in numpy array arithmetic.

    This is the general-genus formulation (solve for the peak, einsum for
    the quadratic form, one numpy sum per shell) run on the 1x1 period
    and the genus-1 shells ``[[0]]`` and ``[[-r], [r]]``.
    """
    B = np.array([[pm.B]])
    zv = np.array([z])
    n0 = np.asarray(np.rint(np.linalg.solve(B.real, -zv.real)), dtype=np.int64)
    scale = float((0.5 * (n0 @ B @ n0) + n0 @ zv).real)
    acc = 0.0 + 0.0j
    quiet = 0
    for radius in range(61):
        offsets = np.array([[-radius], [radius]] if radius else [[0]], dtype=np.int64)
        Nf = (offsets + n0).astype(float)
        terms = np.exp(0.5 * np.einsum("ij,ni,nj->n", B, Nf, Nf) + Nf @ zv - scale)
        acc += complex(terms.sum())
        if float(np.abs(terms).sum()) < eps * max(1.0, abs(acc)):
            quiet += 1
            if radius >= max(1, min_shells) and quiet >= 2:
                return ScaledComplex(acc, scale)
        else:
            quiet = 0
    raise NonConvergent("reference shell sum hit the shell cap")


def test_genus_one_kernel_matches_the_array_shell_sum_bit_for_bit():
    # the scalar loop must repeat the array loop's arithmetic exactly:
    # same centre, scale, shell order and stopping decision
    rng = np.random.default_rng(11)
    mismatches = []
    for i in range(5000):
        pm = PeriodMatrix(complex(rng.uniform(-8.0, -3.0), rng.uniform(-3.0, 3.0)))
        z = 500.0 ** rng.uniform(-1.0, 1.0) * cmath.exp(2j * math.pi * rng.uniform())
        eps = (1e-12, 1e-14, 1e-6)[i % 3]
        fast = _lattice_sum_1d(pm.B, z, eps)
        ref = _array_shell_sum(pm, z, eps)
        # repr also tells +0.0 from -0.0, which == does not
        if (fast.mantissa, fast.log_scale) != (ref.mantissa, ref.log_scale) or repr(fast) != repr(ref):
            mismatches.append((pm.B, z, eps))
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
    # below the batch crossover (scalar kernel) and above it
    pm = PeriodMatrix(-4.25)
    assert count < _BATCH_CROSSOVER or count > _BATCH_CROSSOVER
    with pytest.raises(NonConvergent):
        theta_eval_batch(pm, [1e308j] * count)
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
        batch = theta_eval_batch(pm, z.reshape(20, 30), 1e-13)
        assert batch.shape == (20, 30)
        for zi, got in zip(z.tolist(), batch.scalars()):
            want = theta_eval_scaled(pm, zi, 1e-13)
            checked += 1
            if repr(got) != repr(want):
                mismatches.append((pm.B, zi))
    assert checked == 6000
    assert not any(abs(zi.real / pm.B.real) >= 0.5 for zi in z[:120].tolist())  # n0 == 0 draws
    assert not mismatches, mismatches[:5]


def test_batch_kernel_of_nothing_is_empty():
    got = theta_eval_batch(PeriodMatrix(-4.0), np.zeros(0, dtype=complex))
    assert got.shape == (0,) and got.scalars() == []


@pytest.mark.parametrize(
    "bad", [complex(math.nan, 0.0), complex(math.inf, 0.0), complex(0.0, math.inf), 1e300, 1e10, 1e15]
)
def test_batch_kernel_raises_nonconvergent_where_the_scalar_kernel_does(bad):
    pm = PeriodMatrix(complex(-5.0, 1.0))
    with pytest.raises(NonConvergent):
        theta_eval_scaled(pm, bad)
    # one bad element fails the whole batch, on both sides of the crossover
    for size in (3, 3 + _BATCH_CROSSOVER):
        z = np.full(size, 0.5 + 0.25j)
        z[1] = bad
        with pytest.raises(NonConvergent):
            theta_eval_batch(pm, z)


def test_batch_kernel_shell_cap_raises_nonconvergent():
    for size in (1, _BATCH_CROSSOVER):
        with pytest.raises(NonConvergent):
            theta_eval_batch(PeriodMatrix(-1e-8), np.full(size, 30.0 + 0j))


def test_batch_kernel_matches_the_scalar_kernel_across_the_crossover():
    """Short arrays take the scalar kernel element by element, longer ones the numpy pass: same bits."""
    rng = np.random.default_rng(29)
    for size in (1, 2, _BATCH_CROSSOVER - 1, _BATCH_CROSSOVER, _BATCH_CROSSOVER + 1, 60):
        pm = PeriodMatrix(complex(rng.uniform(-8.0, -3.0), rng.uniform(-3.0, 3.0)))
        z = _batch_draws(rng, size)
        got = theta_eval_batch(pm, z, 1e-13)
        assert got.shape == (size,)
        want = [theta_eval_scaled(pm, w, 1e-13) for w in z.tolist()]
        assert [repr(v) for v in got.scalars()] == [repr(v) for v in want]
    assert theta_eval_batch(PeriodMatrix(-4.0), 0.5 + 0.5j).shape == ()


def _scaled_draws(rng, count):
    """Mantissas across 24 decades, some purely real or imaginary, with wide log scales."""
    mantissa = 10.0 ** rng.uniform(-12.0, 12.0, count) * np.exp(2j * math.pi * rng.uniform(size=count))
    mantissa[:50] = rng.normal(size=50) + 0j
    mantissa[50:100] = 1j * rng.normal(size=50)
    mantissa[100:150] = np.exp(2j * math.pi * rng.uniform(size=50))  # |m| near 1
    return ScaledArray(mantissa, rng.normal(0.0, 300.0, count))


def test_scaled_array_ops_match_scaled_complex_bit_for_bit():
    rng = np.random.default_rng(29)
    a, b = _scaled_draws(rng, 5000), _scaled_draws(rng, 5000)
    w = rng.normal(0.0, 50.0, 5000) + 1j * rng.normal(0.0, 50.0, 5000)
    plain = b.mantissa
    pairs = list(zip(a.scalars(), b.scalars(), w.tolist(), plain.tolist()))

    def same(got, want):
        return [repr(g) for g in got] == [repr(x) for x in want]

    assert same(a.times(b).scalars(), [x.times(y) for x, y, _, _ in pairs])
    assert same(a.times(plain).scalars(), [x.times(p) for x, _, _, p in pairs])
    assert same(a.over(b).scalars(), [x.over(y) for x, y, _, _ in pairs])
    assert same(a.times_exp(w).scalars(), [x.times_exp(v) for x, _, v, _ in pairs])
    assert same(a.normalized().scalars(), [x.normalized() for x, _, _, _ in pairs])
    assert same(a.log_abs.tolist(), [x.log_abs for x, _, _, _ in pairs])
    assert same(
        a.phase.tolist(), [x.mantissa / abs(x.mantissa) for x, _, _, _ in pairs]
    )
    assert same(a.negated().scalars(), [x.negated() for x, _, _, _ in pairs])
    flip = w.real < 0
    assert same(
        a.negated(flip).scalars(), [x.negated() if f else x for (x, _, _, _), f in zip(pairs, flip)]
    )
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
    assert same(left.plus(right).scalars(), [x.plus(y) for x, y in zip(left.scalars(), right.scalars())])
    assert same(right.plus(left).scalars(), [y.plus(x) for x, y in zip(left.scalars(), right.scalars())])


def test_numpy_scaled_array_has_the_bits_of_scaled_complex_on_numpy_mantissas():
    # an SVD's kernel values are np.complex128 scalars: ScaledComplex arithmetic on
    # them takes numpy's scalar operations, and NumpyScaledArray repeats those
    rng = np.random.default_rng(31)
    a, b = _scaled_draws(rng, 5000), _scaled_draws(rng, 5000)
    w = rng.normal(0.0, 50.0, 5000) + 1j * rng.normal(0.0, 50.0, 5000)
    b.log_scale[:500] = a.log_scale[:500] - rng.uniform(700.0, 800.0, 500)  # around the plus cutoff
    na = NumpyScaledArray(a.mantissa, a.log_scale)
    scalars = [ScaledComplex(m, s) for m, s in zip(na.mantissa, na.log_scale)]  # numpy scalars
    others = b.scalars()

    def same(got, want):
        return repr(got.scalars()) == repr([ScaledComplex(complex(x.mantissa), float(x.log_scale)) for x in want])

    quotients = [x.over(y) for x, y in zip(scalars, others)]
    assert isinstance(quotients[0].mantissa, np.complex128)
    assert type(na.over(b)) is NumpyScaledArray and same(na.over(b), quotients)
    assert repr(na.over(b).as_complex().tolist()) == repr([complex(x.as_complex()) for x in quotients])
    assert same(na.normalized(), [x.normalized() for x in scalars])
    assert same(na.times(b), [x.times(y) for x, y in zip(scalars, others)])
    assert same(na.times_exp(w), [x.times_exp(v) for x, v in zip(scalars, w.tolist())])
    # a plain larger term stays plain past the exp cutoff: plus takes numpy terms on both sides
    nb = NumpyScaledArray(b.mantissa, b.log_scale)
    numpy_others = [ScaledComplex(m, s) for m, s in zip(nb.mantissa, nb.log_scale)]
    assert same(na.plus(nb), [x.plus(y) for x, y in zip(scalars, numpy_others)])
    assert same(nb.plus(na), [y.plus(x) for x, y in zip(scalars, numpy_others)])
    assert same(na[::7], scalars[::7]) and type(na[::7]) is NumpyScaledArray
    # the quotient is the operation that differs from CPython's
    assert repr(na.over(b).scalars()) != repr(a.over(b).scalars())


def test_scaled_array_zero_mantissas():
    a = ScaledArray(np.array([0j, 1.0 + 1.0j]), np.array([3.0, 2.0]))
    assert a.log_abs[0] == -math.inf and a.phase[0] == 0
    assert repr(a.normalized().scalars()[0]) == repr(ScaledComplex(0j, 3.0).normalized())
    with pytest.raises(ZeroDivisionError):
        ScaledArray.from_complex([1.0 + 0j]).over(a)


def _as_complex_matches(a: ScaledArray) -> None:
    """``a.as_complex()`` against ScaledComplex.as_complex, element by element, by repr."""
    got = a.as_complex()
    assert got.shape == a.shape
    want = [x.as_complex() for x in a.scalars()]
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
        column = [terms[k, j].scalars()[0] for k in range(6) if used[k, j]]
        assert repr(float(got[j])) == repr(_cancellation_reference(column)), j
