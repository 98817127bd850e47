"""mpmath oracle for the genus-one theta kernel.

The package's series Theta(z) = sum_N exp(B N^2 / 2 + N z) is mpmath's
``jtheta(3, z/(2i), exp(B/2))``: q^(N^2) = exp(B N^2 / 2) and
exp(2 i N z/(2i)) = exp(N z).  mpmath sums it at 50 digits with an
unbounded exponent, so the comparison reaches arguments whose values
are far outside double range: Re z up to +-300 gives log|Theta| up to
about 1.5e4, past the arguments a radius-40 window produces.  The
scalar kernel's mantissa and log scale are compared as a log magnitude
and a phase.

Both must agree within 1e-11 plus 64 roundings of the exponent's size,
64 * 2**-52 * |log|Theta||.  The second term is the conditioning of exp:
the kernel forms exponents as large as |log|Theta|| in double precision,
and one rounding of such an exponent moves log|Theta| by about
2**-52 * |log|Theta||.  At log|Theta| = 9.2e3 (Re B = -3) the measured
error is 1.5e-11 (8 roundings) and the bound 1.4e-10.

About 2 ms per value; this file sits outside the tier-1 ``testpaths``:

    PYTHONPATH=src python -m pytest -q oracles
"""

import cmath
import math
import sys

import numpy as np
import pytest

mp = pytest.importorskip("mpmath")

from crosshex.theta import PeriodMatrix, theta_eval_scaled  # noqa: E402

TOL = 1e-11
ROUNDINGS = 64
PERIODS = [complex(re, im) for re in (-8.0, -4.25, -3.0) for im in (0.0, 3.0, -3.0)]


def _arguments(count: int, seed: int) -> list[complex]:
    """Seeded arguments with Re z spread over [-300, 300], the two ends included."""
    rng = np.random.default_rng(seed)
    re = np.concatenate([[-300.0, 300.0, 0.0], rng.uniform(-300.0, 300.0, count - 3)])
    im = rng.uniform(-40.0, 40.0, count)
    return [complex(a, b) for a, b in zip(re, im)]


def _mp_theta(B: complex, z: complex):
    with mp.workdps(50):
        value = mp.jtheta(3, mp.mpc(z) / 2j, mp.exp(mp.mpc(B) / 2))
        return float(mp.log(abs(value))), float(mp.arg(value))


@pytest.mark.parametrize("B", PERIODS)
def test_theta_matches_mpmath_far_outside_double_range(B):
    pm = PeriodMatrix(B)
    for z in _arguments(12, seed=int(abs(B.real) * 100 + B.imag)):
        got = theta_eval_scaled(pm, z)
        log_abs, phase = _mp_theta(B, z)
        got_phase = cmath.phase(got.mantissa)
        # the phase difference, wrapped into (-pi, pi]
        d_phase = abs(math.remainder(got_phase - phase, 2.0 * math.pi))
        tol = TOL + ROUNDINGS * sys.float_info.epsilon * abs(log_abs)
        assert abs(got.log_abs - log_abs) <= tol, (B, z, got.log_abs, log_abs)
        assert d_phase <= tol, (B, z, got_phase, phase)
