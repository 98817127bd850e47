"""The genus-one Riemann theta function with exponential-form conventions.

The series used throughout this package is

    Theta(z) = sum over N in Z of exp( (1/2) B N^2 + N z ),

where the period ``B`` is a complex number with negative real part (that
condition is exactly what makes the series converge) and ``z`` is
complex.  In this normalization the holomorphic differential has
a-period ``2*pi*i``, the period lattice is ``{2*pi*i*m + B*n : m, n in
Z}``, and the quasi-periodicity law reads

    Theta(z + 2*pi*i*m + B*n) = exp( -(1/2) B n^2 - n z ) * Theta(z).

Values of the series span an enormous dynamic range once ``|z|`` grows
(the function is entire of order two), so the workhorse evaluator
:func:`theta_eval_scaled` returns a mantissa/log-scale pair that never
overflows (``.as_complex()`` collapses it to a plain complex).
:func:`theta_eval_batch` evaluates a whole array of arguments in one
numpy pass and returns a :class:`ScaledArray`, whose elements carry the
same bits as :func:`theta_eval_scaled` on each argument.

All evaluations are deterministic: the lattice is enumerated shell by
shell in a fixed order, so repeated calls with identical inputs return
bit-identical results.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergent

_SHELL_CAP = 60
_MAX_EPS = 1.0e-3
# below this many arguments theta_eval_batch runs the scalar kernel element by
# element: a numpy pass costs about 250 us whatever its size, one scalar call
# about 13 us (2-core Xeon, Python 3.11, numpy 2.4)
_BATCH_CROSSOVER = 20


@dataclass(frozen=True)
class PeriodMatrix:
    """The period ``B`` of a genus-one curve, checked once.

    ``B`` must be finite with a negative real part; anything else raises
    ``ValueError`` eagerly, because every downstream convergence
    argument relies on it.
    """

    B: complex

    def __post_init__(self) -> None:
        B = complex(self.B)
        if not cmath.isfinite(B):
            raise ValueError(f"period must be finite, got {B!r}")
        if B.real >= 0.0:
            raise ValueError(f"period real part must be negative, got {B.real!r}")
        object.__setattr__(self, "B", B)


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


# Elementwise helpers that round exactly as CPython's complex and math
# operations do.  numpy's own complex multiply, divide and abs, its real
# exp and log, and complex log near |x| = 1 each differ from CPython in
# the last bit for a share of inputs; these helpers avoid all of them.

_math_log = np.frompyfunc(math.log, 1, 1)


def _complex(re, im) -> np.ndarray:
    """A complex array from its parts, with no arithmetic (signed zeros kept)."""
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def _abs(z) -> np.ndarray:
    """``abs(complex)``: CPython computes it with ``hypot``."""
    return np.hypot(z.real, z.imag)


def _log(x) -> np.ndarray:
    """``math.log`` on each element (positive input)."""
    return _math_log(x).astype(float)


def _exp(x) -> np.ndarray:
    """``math.exp`` on each element: the libm exp behind numpy's complex exp."""
    return np.exp(x + 0j).real


def complex_mul(a, b) -> np.ndarray:
    """CPython's complex product ``a * b``, elementwise."""
    return _complex(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


def _div(a, b) -> np.ndarray:
    """CPython's complex quotient ``a / b`` (Smith's method); ``b`` must be nonzero."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    by_real = np.abs(br) >= np.abs(bi)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(by_real, bi / br, br / bi)
        denom = np.where(by_real, br + bi * ratio, br * ratio + bi)
        re = np.where(by_real, ar + ai * ratio, ar * ratio + ai) / denom
        im = np.where(by_real, ai - ar * ratio, ai * ratio - ar) / denom
    return _complex(re, im)


@dataclass(frozen=True, eq=False)
class ScaledArray:
    """An array of :class:`ScaledComplex` values: a mantissa array and a log-scale array.

    Each operation repeats, element by element, the IEEE operations of the
    :class:`ScaledComplex` method of the same name in the same order, so
    every element has the bits the scalar computation would give.
    """

    mantissa: np.ndarray  # complex
    log_scale: np.ndarray  # float, same shape

    # the complex quotient of two mantissas
    _quotient = staticmethod(_div)

    def __getitem__(self, index) -> "ScaledArray":
        return type(self)(self.mantissa[index], self.log_scale[index])

    @property
    def shape(self) -> tuple[int, ...]:
        return self.mantissa.shape

    def reshape(self, *shape) -> "ScaledArray":
        return type(self)(self.mantissa.reshape(shape), self.log_scale.reshape(shape))

    def normalized(self) -> "ScaledArray":
        a = _abs(self.mantissa)
        move = (a != 0.0) & ~((1e-8 < a) & (a < 1e8))
        if not move.any():
            return self
        mantissa = self.mantissa.copy()
        log_scale = self.log_scale.copy()
        moved = a[move]
        mantissa[move] = self._quotient(mantissa[move], _complex(moved, 0.0))
        log_scale[move] = log_scale[move] + _log(moved)
        return type(self)(mantissa, log_scale)

    def times(self, other) -> "ScaledArray":
        """Elementwise product with a ScaledArray or a plain complex array."""
        if not isinstance(other, ScaledArray):
            other = ScaledArray.from_complex(other)
        return type(self)(
            complex_mul(self.mantissa, other.mantissa), self.log_scale + other.log_scale
        ).normalized()

    def over(self, other: "ScaledArray") -> "ScaledArray":
        if (other.mantissa == 0).any():
            raise ZeroDivisionError("division by zero ScaledArray")
        return type(self)(
            self._quotient(self.mantissa, other.mantissa), self.log_scale - other.log_scale
        ).normalized()

    def times_exp(self, w) -> "ScaledArray":
        """Multiply by exp(w) without forming exp(w)."""
        w = np.asarray(w, dtype=complex)
        # the parts of CPython's 1j * w.imag, then cmath.exp of it
        phase = np.exp(_complex(0.0 * w.imag - 0.0, 0.0 + w.imag))
        return type(self)(
            complex_mul(self.mantissa, phase), self.log_scale + w.real
        ).normalized()

    def plus(self, other: "ScaledArray") -> "ScaledArray":
        self_hi = self.log_scale >= other.log_scale
        hi_m = np.where(self_hi, self.mantissa, other.mantissa)
        lo_m = np.where(self_hi, other.mantissa, self.mantissa)
        hi_s = np.where(self_hi, self.log_scale, other.log_scale)
        lo_s = np.where(self_hi, other.log_scale, self.log_scale)
        diff = lo_s - hi_s
        # CPython's complex * float goes through complex(exp(diff), 0.0)
        small = np.where(diff > -745.0, complex_mul(lo_m, _complex(_exp(diff), 0.0)), 0j)
        out = type(self)(hi_m + small, hi_s).normalized()
        # a zero term gives back the other term as it is, not normalized
        lo_zero, hi_zero = lo_m == 0, hi_m == 0
        return type(self)(
            np.where(lo_zero, hi_m, np.where(hi_zero, lo_m, out.mantissa)),
            np.where(lo_zero, hi_s, np.where(hi_zero, lo_s, out.log_scale)),
        )

    def negated(self, where=True) -> "ScaledArray":
        """The negated elements where ``where`` holds, the others as they are."""
        return type(self)(np.where(where, -self.mantissa, self.mantissa), self.log_scale)

    @property
    def phase(self) -> np.ndarray:
        """``mantissa / abs(mantissa)``, and 0 where the mantissa is 0."""
        a = _abs(self.mantissa)
        nonzero = self.mantissa != 0
        out = np.zeros(a.shape, dtype=complex)
        out[nonzero] = self._quotient(self.mantissa[nonzero], _complex(a[nonzero], 0.0))
        return out

    @property
    def log_abs(self) -> np.ndarray:
        a = _abs(self.mantissa)
        out = np.full(a.shape, -math.inf)
        nonzero = self.mantissa != 0
        out[nonzero] = _log(a[nonzero]) + self.log_scale[nonzero]
        return out

    def as_complex(self) -> np.ndarray:
        """:meth:`ScaledComplex.as_complex` of every element, branch for branch."""
        m, s = self.mantissa, self.log_scale
        out = np.zeros(m.shape, dtype=complex)  # zero mantissas and totals below -745
        nonzero = m != 0
        exact = nonzero & (s == 0.0)
        out[exact] = m[exact]
        scaled = nonzero & (s != 0.0)
        if scaled.any():
            a = _abs(m[scaled])
            log_total = _log(a) + s[scaled]
            phase = self._quotient(m[scaled], _complex(a, 0.0))
            big = log_total > 709.0
            mid = ~big & ~(log_total < -745.0)
            value = np.zeros(a.shape, dtype=complex)
            # componentwise: a plain phase*inf would turn exact zeros in the phase into NaNs
            with np.errstate(invalid="ignore"):
                sat = _complex(
                    np.where(phase.real != 0.0, phase.real * math.inf, 0.0),
                    np.where(phase.imag != 0.0, phase.imag * math.inf, 0.0),
                )
            value[big] = sat[big]
            # CPython's complex * float goes through complex(exp(total), 0.0)
            value[mid] = complex_mul(phase[mid], _complex(_exp(log_total[mid]), 0.0))
            out[scaled] = value
        return out

    def scalars(self) -> list[ScaledComplex]:
        """The elements, in C order, as plain ScaledComplex values."""
        return [
            ScaledComplex(m, s)
            for m, s in zip(self.mantissa.ravel().tolist(), self.log_scale.ravel().tolist())
        ]

    def cancellation(self, used) -> np.ndarray:
        """``|sum| / sum(|.|)`` along axis 0, over the elements where ``used`` holds.

        Computed at a common scale, so nothing overflows; 0 where no
        element is used or all used ones are 0.  Elements are summed in
        index order, so the result has the bits of the same sum over
        ScaledComplex terms.
        """
        used = used & (self.mantissa != 0)
        logs = self.log_abs
        top = np.where(used, logs, -math.inf).max(axis=0)
        phase = self.phase
        total = np.zeros(top.shape, dtype=complex)
        denom = np.zeros(top.shape)
        # unused elements may overflow or be NaN; np.where drops them
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(self.shape[0]):
                mag = _exp(logs[k] - top)
                # CPython's complex * float goes through complex(mag, 0.0)
                val = complex_mul(phase[k], _complex(mag, 0.0))
                total = np.where(used[k], total + val, total)
                denom = np.where(used[k], denom + mag, denom)
            return np.where(used.any(axis=0), _abs(total) / denom, 0.0)

    @staticmethod
    def of(values) -> "ScaledArray":
        """A 1-D ScaledArray holding the given ScaledComplex values."""
        values = list(values)
        return ScaledArray(
            np.array([v.mantissa for v in values], dtype=complex),
            np.array([v.log_scale for v in values], dtype=float),
        )

    @staticmethod
    def from_complex(w) -> "ScaledArray":
        w = np.asarray(w, dtype=complex)
        return ScaledArray(w, np.zeros(w.shape))


class NumpyScaledArray(ScaledArray):
    """A :class:`ScaledArray` of ScaledComplex values whose mantissas are ``np.complex128`` scalars.

    That is the type an SVD's singular vectors come in.  numpy's scalar
    complex quotient multiplies by a reciprocal where CPython's divides
    (Smith's method in both), and numpy's array ``/`` has the scalar's
    bits; numpy's scalar product and ``abs`` are CPython's, and ``math``
    takes numpy floats as they are.  So the quotient is the one
    operation that changes, and each element has the bits of the scalar
    computation on numpy mantissas.  The other operand may hold plain
    complex values, except in ``plus``: there a plain larger term past
    the exp cutoff stays plain.
    """

    _quotient = staticmethod(np.divide)


def _check_eps(eps: float) -> float:
    eps = float(eps)
    if not (0.0 < eps <= _MAX_EPS):
        raise ValueError(f"eps must lie in (0, {_MAX_EPS}], got {eps!r}")
    return eps


def _lattice_sum_1d(b: complex, z: complex, eps: float) -> ScaledComplex:
    """The shell sum of the theta series.

    Shells are centered on the integer nearest the maximum of the real
    part of the exponent (the Gaussian peak), so the shell count stays
    small no matter how large ``|z|`` is; the true value is independent
    of the centering, which is a plain reindexing of the sum.  Shell
    ``r`` holds the two indices ``n0 - r`` and ``n0 + r``, summed in that
    order.  A non-finite argument, or an overflow anywhere in the sum
    (the argument is then far outside the range the shell centring can
    handle), raises :class:`NonConvergent`.
    """
    if not cmath.isfinite(z):
        raise NonConvergent(f"theta argument is not finite: {z}")
    try:
        n0 = round(-z.real / b.real)
        # n0 == 0 gives exactly 0.0: the products of zeros may give -0.0,
        # where the scale has always started from +0.0
        scale = (0.5 * (n0 * b * n0) + n0 * z).real if n0 else 0.0

        def term(N: int) -> complex:
            return cmath.exp(0.5 * (b * N * N) + N * z - scale)

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
            # Stopping is gated on the magnitude sum, never the signed shell
            # sum: the terms of a single shell can hit a phase resonance and
            # cancel to machine noise while the next shell still carries real
            # weight.  Two consecutive quiet shells are required because the
            # asymmetric shell layout around the peak makes the per-shell
            # decay non-monotone.
            if shell_mag < eps * max(1.0, abs(acc)):
                quiet += 1
                if quiet >= 2:  # two quiet shells need radius >= 1
                    # deliberately NOT normalized: the mantissa is the value
                    # relative to the Gaussian-peak scale, which is exactly the
                    # quantity genericity floors must inspect (a near-divisor
                    # hit shows up as a tiny mantissa regardless of how large
                    # the overall magnitude is)
                    return ScaledComplex(acc, scale)
            else:
                quiet = 0
    except (OverflowError, ValueError) as exc:
        # cmath.exp raises ValueError where the result has an infinite part
        raise NonConvergent(f"theta lattice sum overflowed at argument {z}") from exc
    raise NonConvergent(
        f"lattice sum did not reach relative tail {eps:g} within {_SHELL_CAP} shells"
    )


def theta_eval_scaled(pm: PeriodMatrix, z: complex, eps: float = 1e-12) -> ScaledComplex:
    """Theta(z) as a :class:`ScaledComplex`; never overflows.

    Deterministic for fixed inputs.  Raises :class:`NonConvergent` if the
    adaptive shell radius hits its cap (60) or ``z`` is not finite, and
    ``ValueError`` for ``eps`` outside (0, 1e-3].
    """
    return _lattice_sum_1d(pm.B, complex(z), _check_eps(eps))


def _lattice_sum_batch(b: complex, z: np.ndarray, eps: float) -> ScaledArray:
    """:func:`_lattice_sum_1d` over an array of arguments.

    Every element follows the scalar kernel step for step: the same
    Gaussian-peak centre and scale, the same shell order, the same
    two-quiet-shells stop, each element stopping at its own shell, so
    each result has the scalar kernel's bits.  Finished elements leave
    the working set; a non-finite argument or term anywhere raises
    :class:`NonConvergent`, as does a shell cap reached by any element.
    """
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    if not np.isfinite(flat).all():
        raise NonConvergent("theta argument is not finite")
    mantissa = np.empty(flat.shape, dtype=complex)
    log_scale = np.empty(flat.shape)
    with np.errstate(all="ignore"):
        n0 = np.rint(-flat.real / b.real)
        # n0 == 0 gives exactly 0.0, as in the scalar kernel
        scale = np.where(n0 != 0, (0.5 * (n0 * b * n0) + n0 * flat).real, 0.0)

        def term(N, zs, sc):
            t = np.exp(0.5 * (b * N * N) + N * zs - sc)
            if not np.isfinite(t).all():
                raise NonConvergent("theta lattice sum overflowed")
            return t

        live = np.arange(flat.size)
        n0_l, z_l, sc_l = n0, flat, scale
        acc = np.zeros(flat.shape, dtype=complex)
        quiet = np.zeros(flat.shape, dtype=int)
        for radius in range(_SHELL_CAP + 1):
            if not live.size:
                break
            if radius == 0:
                shell_sum = term(n0_l, z_l, sc_l)
                shell_mag = _abs(shell_sum)
            else:
                t0 = term(n0_l - radius, z_l, sc_l)
                t1 = term(n0_l + radius, z_l, sc_l)
                shell_sum = t0 + t1
                shell_mag = _abs(t0) + _abs(t1)
            acc = acc + shell_sum
            size = _abs(acc)
            calm = shell_mag < eps * np.where(size > 1.0, size, 1.0)
            quiet = np.where(calm, quiet + 1, 0)
            done = quiet >= 2  # two quiet shells need radius >= 1
            if done.any():
                mantissa[live[done]] = acc[done]
                log_scale[live[done]] = sc_l[done]
                keep = ~done
                live, n0_l, z_l, sc_l = live[keep], n0_l[keep], z_l[keep], sc_l[keep]
                acc, quiet = acc[keep], quiet[keep]
    if live.size:
        raise NonConvergent(
            f"lattice sum did not reach relative tail {eps:g} within {_SHELL_CAP} shells"
        )
    return ScaledArray(mantissa.reshape(z.shape), log_scale.reshape(z.shape))


def theta_eval_batch(pm: PeriodMatrix, z, eps: float = 1e-12) -> ScaledArray:
    """Theta at every element of the complex array ``z``, as a :class:`ScaledArray`.

    Element ``i`` has the bits of ``theta_eval_scaled(pm, z[i], eps)``.
    Arrays of fewer than ``_BATCH_CROSSOVER`` elements are evaluated
    element by element with the scalar kernel, which is faster there.
    """
    eps = _check_eps(eps)
    z = np.asarray(z, dtype=complex)
    if z.size < _BATCH_CROSSOVER:
        values = [_lattice_sum_1d(pm.B, w, eps) for w in z.ravel().tolist()]
        return ScaledArray(
            np.array([v.mantissa for v in values], dtype=complex).reshape(z.shape),
            np.array([v.log_scale for v in values], dtype=float).reshape(z.shape),
        )
    return _lattice_sum_batch(pm.B, z, eps)
