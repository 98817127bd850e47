"""Riemann theta functions with exponential-form conventions.

The series used throughout this package is

    Theta(z) = sum over N in Z^g of exp( (1/2) <B N, N> + <N, z> ),

where ``B`` is a symmetric g x g matrix whose real part is negative
definite (that condition is exactly what makes the series converge) and
``z`` lives in C^g.  In this normalization the holomorphic differentials
have a-periods ``2*pi*i * delta_jk``, the Jacobian lattice is
``{2*pi*i*M + B*N : M, N in Z^g}``, and the quasi-periodicity law reads

    Theta(z + 2*pi*i*m + B*n) = exp( -(1/2) <B n, n> - <n, z> ) * Theta(z).

Values of the series span an enormous dynamic range once ``|z|`` grows
(the function is entire of order two), so the workhorse evaluator
:func:`theta_eval_scaled` returns a mantissa/log-scale pair that never
overflows; :func:`theta_eval` is the plain-complex convenience wrapper.

All evaluations are deterministic: the lattice is enumerated shell by
shell in a fixed order, so repeated calls with identical inputs return
bit-identical results.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import DimensionMismatch, NonConvergent

_SHELL_CAP = 60
_MAX_EPS = 1.0e-3

# cache of integer shell offsets keyed by (genus, radius)
_shell_cache: dict[tuple[int, int], np.ndarray] = {}


def _shell(genus: int, radius: int) -> np.ndarray:
    """Integer vectors N with ||N||_inf == radius, fixed enumeration order."""
    key = (genus, radius)
    cached = _shell_cache.get(key)
    if cached is not None:
        return cached
    if radius == 0:
        pts = np.zeros((1, genus), dtype=np.int64)
    elif genus == 1:
        pts = np.array([[-radius], [radius]], dtype=np.int64)
    else:
        rng = range(-radius, radius + 1)
        pts = np.array(
            [p for p in product(rng, repeat=genus) if max(abs(c) for c in p) == radius],
            dtype=np.int64,
        )
    pts.setflags(write=False)
    _shell_cache[key] = pts
    return pts


@dataclass(frozen=True)
class PeriodMatrix:
    """A symmetric period matrix with negative-definite real part.

    Parameters
    ----------
    matrix : array_like
        The g x g complex matrix ``B``.  A bare scalar is accepted for
        genus one.  Symmetry is enforced to ``1e-12 * max|B|`` and the
        real part must be negative definite; both are checked eagerly
        because every downstream convergence argument relies on them.
    """

    matrix: np.ndarray

    def __init__(self, matrix) -> None:
        arr = np.atleast_2d(np.asarray(matrix, dtype=complex))
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatch(f"period matrix must be square, got shape {arr.shape}")
        scale = max(np.abs(arr).max(), 1.0)
        if np.abs(arr - arr.T).max() > 1e-12 * scale:
            raise ValueError("period matrix must be symmetric")
        eig = np.linalg.eigvalsh(0.5 * (arr.real + arr.real.T))
        if eig.max() >= 0.0:
            raise ValueError(
                "period matrix real part must be negative definite "
                f"(largest eigenvalue {eig.max():.3e})"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)

    @property
    def genus(self) -> int:
        return self.matrix.shape[0]

    @property
    def scalar(self) -> complex:
        """The single entry, for genus one."""
        if self.genus != 1:
            raise DimensionMismatch("scalar B is only defined for genus 1")
        return complex(self.matrix[0, 0])

    def lattice_vector(self, m, n) -> np.ndarray:
        """The Jacobian lattice point ``2*pi*i*m + B*n``."""
        m = _as_int_vector(m, self.genus, "m")
        n = _as_int_vector(n, self.genus, "n")
        return 2j * math.pi * m + self.matrix @ n


def _as_vector(z, genus: int) -> np.ndarray:
    if np.isscalar(z) or isinstance(z, complex):
        arr = np.array([z], dtype=complex)
    else:
        arr = np.asarray(z, dtype=complex).reshape(-1)
    if arr.shape[0] != genus:
        raise DimensionMismatch(f"argument has length {arr.shape[0]}, expected genus {genus}")
    return arr


def _as_int_vector(v, genus: int, name: str) -> np.ndarray:
    if np.isscalar(v):
        arr = np.array([v])
    else:
        arr = np.asarray(v).reshape(-1)
    if arr.shape[0] != genus:
        raise DimensionMismatch(f"{name} has length {arr.shape[0]}, expected genus {genus}")
    out = np.asarray(np.rint(arr), dtype=np.int64)
    if np.abs(arr - out).max() > 0:
        raise ValueError(f"{name} must be a vector of integers")
    return out


@dataclass(frozen=True)
class ScaledComplex:
    """A complex number stored as ``mantissa * exp(log_scale)``.

    The representation survives magnitudes far outside double range,
    which theta values reach for the large arguments generated by
    lattice-label combinations.  Only the handful of operations the
    package needs are provided.
    """

    mantissa: complex
    log_scale: float

    def normalized(self) -> "ScaledComplex":
        a = abs(self.mantissa)
        if a == 0.0 or 1e-8 < a < 1e8:
            return self
        shift = math.log(a)
        return ScaledComplex(self.mantissa / a, self.log_scale + shift)

    def times(self, other) -> "ScaledComplex":
        if not isinstance(other, ScaledComplex):
            other = ScaledComplex.from_complex(other)
        return ScaledComplex(
            self.mantissa * other.mantissa, self.log_scale + other.log_scale
        ).normalized()

    def over(self, other: "ScaledComplex") -> "ScaledComplex":
        if other.mantissa == 0:
            raise ZeroDivisionError("division by zero ScaledComplex")
        return ScaledComplex(
            self.mantissa / other.mantissa, self.log_scale - other.log_scale
        ).normalized()

    def times_exp(self, w: complex) -> "ScaledComplex":
        """Multiply by exp(w) without forming exp(w)."""
        w = complex(w)
        phase = cmath.exp(1j * w.imag)
        return ScaledComplex(self.mantissa * phase, self.log_scale + w.real).normalized()

    def plus(self, other: "ScaledComplex") -> "ScaledComplex":
        hi, lo = (self, other) if self.log_scale >= other.log_scale else (other, self)
        if lo.mantissa == 0:
            return hi
        if hi.mantissa == 0:
            return lo
        diff = lo.log_scale - hi.log_scale
        small = lo.mantissa * math.exp(diff) if diff > -745.0 else 0.0
        return ScaledComplex(hi.mantissa + small, hi.log_scale).normalized()

    def negated(self) -> "ScaledComplex":
        return ScaledComplex(-self.mantissa, self.log_scale)

    @property
    def log_abs(self) -> float:
        if self.mantissa == 0:
            return -math.inf
        return math.log(abs(self.mantissa)) + self.log_scale

    def as_complex(self) -> complex:
        """Collapse to a plain complex; saturates to inf for huge values."""
        if self.mantissa == 0:
            return 0j
        if self.log_scale == 0.0:
            # exact: values stored straight from documents round-trip
            return complex(self.mantissa)
        log_total = math.log(abs(self.mantissa)) + self.log_scale
        if log_total < -745.0:
            return 0j
        phase = self.mantissa / abs(self.mantissa)
        if log_total > 709.0:
            # componentwise: a plain phase*inf would turn exact zeros
            # in the phase into NaNs
            return complex(
                phase.real * math.inf if phase.real != 0.0 else 0.0,
                phase.imag * math.inf if phase.imag != 0.0 else 0.0,
            )
        return phase * math.exp(log_total)

    @staticmethod
    def one() -> "ScaledComplex":
        return ScaledComplex(1.0 + 0j, 0.0)

    @staticmethod
    def from_complex(w: complex) -> "ScaledComplex":
        # no normalization: keeps as_complex() an exact inverse, which the
        # document and CSV round-trips rely on
        return ScaledComplex(complex(w), 0.0)

    @staticmethod
    def from_exp(w: complex) -> "ScaledComplex":
        """exp(w) as a ScaledComplex, for arbitrary complex w."""
        w = complex(w)
        return ScaledComplex(cmath.exp(1j * w.imag), w.real)


def _check_eps(eps: float) -> float:
    eps = float(eps)
    if not (0.0 < eps <= _MAX_EPS):
        raise ValueError(f"eps must lie in (0, {_MAX_EPS}], got {eps!r}")
    return eps


def _lattice_sum(
    pm: PeriodMatrix,
    z: np.ndarray,
    eps: float,
    weight_index: int | None,
    min_shells: int,
) -> ScaledComplex:
    """Shared shell-summation core.

    ``weight_index=None`` sums the theta series itself; an integer k sums
    the k-th directional derivative series (terms weighted by ``N_k``),
    used internally by the genus-one Newton zero search.

    Shells are centered on the integer point nearest the maximum of the
    real part of the exponent (the Gaussian peak), so the shell count
    stays small no matter how large ``|z|`` is; the true value is
    independent of the centering, which is a plain reindexing of the sum.

    A non-finite argument raises :class:`NonConvergent` up front.  Genus
    one runs the scalar loop :func:`_lattice_sum_1d`, every other genus
    the array loop :func:`_lattice_sum_nd`; on genus-one input the two
    return the same bits.
    """
    zs = z.tolist()
    if not all(map(cmath.isfinite, zs)):
        raise NonConvergent(f"theta argument is not finite: {z}")
    if pm.genus == 1:
        return _lattice_sum_1d(pm.scalar, zs[0], eps, weight_index is not None, min_shells)
    return _lattice_sum_nd(pm, z, eps, weight_index, min_shells)


def _lattice_sum_nd(
    pm: PeriodMatrix,
    z: np.ndarray,
    eps: float,
    weight_index: int | None,
    min_shells: int,
) -> ScaledComplex:
    """The shell sum over numpy arrays, for any genus."""
    B = pm.matrix
    g = pm.genus
    center_real = np.linalg.solve(B.real, -z.real)
    n0 = np.asarray(np.rint(center_real), dtype=np.int64)
    f0 = 0.5 * (n0 @ B @ n0) + n0 @ z
    scale = float(f0.real)

    acc = 0.0 + 0.0j
    quiet = 0
    for radius in range(_SHELL_CAP + 1):
        offsets = _shell(g, radius)
        N = offsets + n0
        Nf = N.astype(float)
        expo = 0.5 * np.einsum("ij,ni,nj->n", B, Nf, Nf) + Nf @ z - scale
        terms = np.exp(expo)
        if weight_index is not None:
            terms = terms * Nf[:, weight_index]
        acc += complex(terms.sum())
        # Stopping is gated on the magnitude sum, never the signed shell
        # sum: the terms of a single shell can hit a phase resonance and
        # cancel to machine noise while the next shell still carries real
        # weight.  Two consecutive quiet shells are required because the
        # asymmetric shell layout around the peak makes the per-shell
        # decay non-monotone.
        shell_mag = float(np.abs(terms).sum())
        if shell_mag < eps * max(1.0, abs(acc)):
            quiet += 1
            if radius >= max(1, min_shells) and quiet >= 2:
                # deliberately NOT normalized: the mantissa is the value
                # relative to the Gaussian-peak scale, which is exactly the
                # quantity genericity floors must inspect (a near-divisor
                # hit shows up as a tiny mantissa regardless of how large
                # the overall magnitude is)
                return ScaledComplex(acc, scale)
        else:
            quiet = 0
    raise NonConvergent(
        f"lattice sum did not reach relative tail {eps:g} within {_SHELL_CAP} shells"
    )


def _lattice_sum_1d(
    b: complex, z: complex, eps: float, weighted: bool, min_shells: int
) -> ScaledComplex:
    """Genus-one :func:`_lattice_sum` in plain ``complex`` arithmetic.

    Every shell of genus one holds two lattice points, so the array
    version spends nearly all its time on numpy dispatch.  This loop
    performs the same operations in the same order (centre, peak scale,
    shell order ``n0 - r`` then ``n0 + r``, per-shell sums, stopping
    rule) and therefore returns the same bits.  An overflow anywhere in
    the sum means the argument is far outside the range the shell
    centring can handle; it is reported as :class:`NonConvergent`.
    """
    try:
        n0 = round(-z.real / b.real)
        # n0 == 0 gives exactly 0.0: the array path's dot products start
        # from +0.0, where the scalar products of zeros may give -0.0
        scale = (0.5 * (n0 * b * n0) + n0 * z).real if n0 else 0.0

        def term(N: int) -> complex:
            t = cmath.exp(0.5 * (b * N * N) + N * z - scale)
            return t * N if weighted else t

        acc = 0j
        quiet = 0
        for radius in range(_SHELL_CAP + 1):
            if radius == 0:
                shell_sum = term(n0)
                shell_mag = abs(shell_sum)
            else:
                t0 = term(n0 - radius)
                t1 = term(n0 + radius)
                shell_sum = t0 + t1
                shell_mag = abs(t0) + abs(t1)
            acc += shell_sum
            if shell_mag < eps * max(1.0, abs(acc)):
                quiet += 1
                if radius >= max(1, min_shells) and quiet >= 2:
                    return ScaledComplex(acc, scale)
            else:
                quiet = 0
    except OverflowError as exc:
        raise NonConvergent(f"genus-1 lattice sum overflowed at argument {z}") from exc
    raise NonConvergent(
        f"lattice sum did not reach relative tail {eps:g} within {_SHELL_CAP} shells"
    )


def theta_eval_scaled(
    pm: PeriodMatrix, z, eps: float = 1e-12, *, min_shells: int = 0
) -> ScaledComplex:
    """Theta(z) as a :class:`ScaledComplex`; never overflows.

    ``min_shells`` forces extra shells before the adaptive tail test may
    fire (used by the truncation-stability tests)."""
    eps = _check_eps(eps)
    zv = _as_vector(z, pm.genus)
    return _lattice_sum(pm, zv, eps, None, min_shells)


def theta_eval(pm: PeriodMatrix, z, eps: float = 1e-12, *, min_shells: int = 0) -> complex:
    """Theta(z) as a plain complex number.

    Deterministic for fixed inputs.  Raises :class:`NonConvergent` if the
    adaptive shell radius hits its cap (60), :class:`DimensionMismatch`
    if ``len(z) != g``, and ``ValueError`` for ``eps`` outside (0, 1e-3].
    """
    return theta_eval_scaled(pm, z, eps, min_shells=min_shells).as_complex()


def quasi_period_factor(pm: PeriodMatrix, z, m, n) -> complex:
    """The factor relating Theta(z + 2*pi*i*m + B*n) to Theta(z).

    Returns ``exp( -(1/2) <B n, n> - <n, z> )``, i.e. the exact ratio
    ``Theta(z + 2*pi*i*m + B*n) / Theta(z)`` (the ``m`` shift is a true
    period and contributes nothing).
    """
    zv = _as_vector(z, pm.genus)
    nv = _as_int_vector(n, pm.genus, "n")
    _as_int_vector(m, pm.genus, "m")  # validated for shape/integrality only
    expo = -0.5 * (nv @ pm.matrix @ nv) - nv @ zv
    return cmath.exp(complex(expo))


def quasi_period_factor_scaled(pm: PeriodMatrix, z, m, n) -> ScaledComplex:
    """Overflow-safe variant of :func:`quasi_period_factor`."""
    zv = _as_vector(z, pm.genus)
    nv = _as_int_vector(n, pm.genus, "n")
    _as_int_vector(m, pm.genus, "m")
    expo = -0.5 * (nv @ pm.matrix @ nv) - nv @ zv
    return ScaledComplex.from_exp(complex(expo))


def theta_zero_1d(pm: PeriodMatrix, eps: float = 1e-12) -> complex:
    """The zero of the genus-one theta function in the fundamental cell.

    For g = 1 the theta divisor is the single point
    ``z0 = i*pi + B/2`` (mod the lattice): pairing the terms ``N`` and
    ``-N-1`` cancels the series exactly there.  A Newton iteration seeded
    at that value guards against accumulated rounding; it must drive
    ``|Theta(z)|`` below ``eps * |Theta(0)|`` within 20 steps or raise
    :class:`NonConvergent`.
    """
    eps = _check_eps(eps)
    if pm.genus != 1:
        raise DimensionMismatch("theta_zero_1d requires genus 1")
    theta0_log = theta_eval_scaled(pm, 0.0, 1e-14).log_abs
    z = 1j * math.pi + pm.scalar / 2.0
    for _ in range(20):
        val = theta_eval_scaled(pm, z, 1e-14)
        if val.log_abs - theta0_log <= math.log(eps):
            return z
        deriv = _lattice_sum(pm, np.array([z]), 1e-14, 0, 0)
        step = val.over(deriv)
        z = z - step.as_complex()
    raise NonConvergent("Newton search for the genus-1 theta zero did not converge")
