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
(the function is entire of order two), so every value is kept as a
:class:`ScaledArray`, a mantissa and a log scale that never overflow
(``.as_complex()`` collapses it to plain complex values).
:func:`theta_eval_scaled` evaluates one argument and returns a 0-d
:class:`ScaledArray`; :func:`theta_eval_batch` evaluates a whole array of
arguments in numpy tables, and its elements carry the same bits as
:func:`theta_eval_scaled` on each argument.  Both stop summing after two
shells in a row fall below ``THETA_EPS`` (1e-13) relative to the sum.

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
# the one relative tolerance theta is summed to, with headroom under the
# package-level 1e-8..1e-10 checks
THETA_EPS = 1e-13
# theta_eval_batch runs the scalar kernel element by element while the
# arguments times (head depth + 2) number fewer than this: a batched call costs
# about 50-130 us up to a few dozen arguments, a scalar call about 1.1 us plus
# 1.9 us per shell (2.4 us plus 1.9 us per shell with a closure per term, timed
# side by side; 2-core Xeon, Python 3.11, numpy 2.4).  The batched kernel then
# takes 8 arguments and more at Re B -4.25, 10 at -6.75 and 13 at -40, where
# interleaved timings put the break-even at 9-10, 10 and about 15.
_BATCH_CROSSOVER = 64
# _lattice_sum_batch sums its arguments in chunks of this many, one head table
# each: (2 depth + 1) rows of complex terms, about 320 kB at Re B -4.25 and
# 3 MB at the shell cap, where one table over a whole array could be tens of MB
_HEAD_LIMIT = 1536
# _head decides stops from bounds on tables of this many terms and more, and
# takes every magnitude with hypot on smaller ones: the bounds' dozen extra numpy
# passes cost more than the hypot they save below about 1,650 terms at Re B -4.25,
# where they leave a few pairs open, and below 1,000 at -6.75 (2-core Xeon,
# Python 3.11, numpy 2.4; 1,000 interleaved pairs per size).  The 100-node
# Riemann grid scan (1,300 terms at -4.25) keeps the hypot pass
_BOUNDED_MIN = 1650
# the relative slack of those bounds (see _bounded_stop)
_BOUND_SLACK = 1e-12


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
    # only the quotient Smith's method picks is formed (|ratio| <= 1): the
    # other one overflows when the smaller part of b is tiny
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(by_real, bi, br) / np.where(by_real, br, bi)
        denom = np.where(by_real, br + bi * ratio, br * ratio + bi)
        re = np.where(by_real, ar + ai * ratio, ar * ratio + ai) / denom
        im = np.where(by_real, ai - ar * ratio, ai * ratio - ar) / denom
    return _complex(re, im)


@dataclass(frozen=True, eq=False)
class ScaledArray:
    """Complex numbers stored as ``mantissa * exp(log_scale)``: a mantissa array and a log-scale array.

    The representation survives magnitudes far outside double range,
    which theta values reach for the large arguments generated by
    lattice-label combinations.  A single value is a 0-d ScaledArray
    (indexing one element out gives numpy scalars as its fields, which
    every operation takes as well).  Each operation rounds each element
    as CPython's complex and ``math`` operations would (the helpers
    above), so an element has the same bits whatever array it sits in
    and whatever shape it is broadcast to.
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
        # copies that take item assignment: arithmetic on 0-d arrays gives numpy scalars
        mantissa = np.array(self.mantissa)
        log_scale = np.array(self.log_scale)
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

    def polar(self) -> tuple[np.ndarray, np.ndarray]:
        """``(log|value|, mantissa / abs(mantissa))`` in one pass; -inf and 0 where the mantissa is 0."""
        a = _abs(self.mantissa)
        nonzero = self.mantissa != 0
        log_abs = np.full(a.shape, -math.inf)
        phase = np.zeros(a.shape, dtype=complex)
        a = a[nonzero]
        log_abs[nonzero] = _log(a) + self.log_scale[nonzero]
        phase[nonzero] = self._quotient(self.mantissa[nonzero], _complex(a, 0.0))
        return log_abs, phase

    @property
    def log_abs(self) -> np.ndarray:
        return self.polar()[0]

    def as_complex(self) -> np.ndarray:
        """Collapse to plain complex values; saturates to inf for huge values, never raises.

        A zero log scale gives the mantissa back exactly, so values stored
        straight from documents round-trip.
        """
        m, s = self.mantissa, self.log_scale
        out = np.zeros(m.shape, dtype=complex)  # zero mantissas and totals below -745
        nonzero = m != 0
        exact = nonzero & (s == 0.0)
        out[exact] = m[exact]
        scaled = nonzero & (s != 0.0)
        if scaled.any():
            log_total, phase = type(self)(m[scaled], s[scaled]).polar()
            big = log_total > 709.0
            mid = ~big & ~(log_total < -745.0)
            value = np.zeros(phase.shape, dtype=complex)
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

    def cancellation(self, used) -> np.ndarray:
        """``|sum| / sum(|.|)`` along axis 0, over the elements where ``used`` holds.

        Computed at a common scale, so nothing overflows; 0 where no
        element is used or all used ones are 0.  Elements are summed in
        index order, so the result has the bits of the same sum taken
        term by term in CPython complex arithmetic.
        """
        used = used & (self.mantissa != 0)
        logs, phase = self.polar()
        top = np.where(used, logs, -math.inf).max(axis=0)
        # unused elements may overflow or be NaN; np.where makes them zero terms,
        # which change a running sum only in the sign of a zero part
        with np.errstate(over="ignore", invalid="ignore"):
            mag = np.where(used, _exp(logs - top), 0.0)
            # CPython's complex * float goes through complex(mag, 0.0)
            val = np.where(used, complex_mul(phase, _complex(mag, 0.0)), 0j)
            # cumulative sums add in index order, one term at a time
            total = np.cumsum(val, axis=0)[-1]
            denom = np.cumsum(mag, axis=0)[-1]
            return np.where(used.any(axis=0), _abs(total) / denom, 0.0)

    @staticmethod
    def from_complex(w) -> "ScaledArray":
        # no normalization: keeps as_complex() an exact inverse, which the
        # document and CSV round-trips rely on
        w = np.asarray(w, dtype=complex)
        return ScaledArray(w, np.zeros(w.shape))


class NumpyScaledArray(ScaledArray):
    """A :class:`ScaledArray` with the bits of scalar code on ``np.complex128`` mantissas.

    That is the type an SVD's singular vectors come in.  numpy's scalar
    complex quotient multiplies by a reciprocal where CPython's divides
    (Smith's method in both), and numpy's array ``/`` has the scalar's
    bits; numpy's scalar product and ``abs`` are CPython's, and ``math``
    takes numpy floats as they are.  So the quotient is the one
    operation that changes, and each element has the bits of the
    one-value computation on numpy mantissas.  The other operand may hold
    plain complex values, except in ``plus``: there a plain larger term
    past the exp cutoff stays plain.
    """

    _quotient = staticmethod(np.divide)


def _lattice_sum_1d(b: complex, z: complex) -> tuple[complex, float]:
    """The shell sum of the theta series, as a (mantissa, log scale) pair.

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

        acc = 0j
        quiet = 0
        for radius in range(_SHELL_CAP + 1):
            if radius == 0:
                # 0j + the centre term: a -0.0 part of it becomes +0.0
                acc += cmath.exp(0.5 * (b * n0 * n0) + n0 * z - scale)
                shell_mag = abs(acc)
            else:
                N = n0 - radius
                t0 = cmath.exp(0.5 * (b * N * N) + N * z - scale)
                N = n0 + radius
                t1 = cmath.exp(0.5 * (b * N * N) + N * z - scale)
                acc += t0 + t1
                shell_mag = abs(t0) + abs(t1)
            # Stopping is gated on the magnitude sum, never the signed shell
            # sum: the terms of a single shell can hit a phase resonance and
            # cancel to machine noise while the next shell still carries real
            # weight.  Two consecutive quiet shells are required because the
            # asymmetric shell layout around the peak makes the per-shell
            # decay non-monotone.
            if shell_mag < THETA_EPS * max(1.0, abs(acc)):
                quiet += 1
                if quiet >= 2:  # two quiet shells need radius >= 1
                    # deliberately NOT normalized: the mantissa is the value
                    # relative to the Gaussian-peak scale, which is exactly the
                    # quantity genericity floors must inspect (a near-divisor
                    # hit shows up as a tiny mantissa regardless of how large
                    # the overall magnitude is)
                    return acc, scale
            else:
                quiet = 0
    except (OverflowError, ValueError) as exc:
        # cmath.exp raises ValueError where the result has an infinite part
        raise NonConvergent(f"theta lattice sum overflowed at argument {z}") from exc
    raise NonConvergent(
        f"lattice sum did not reach relative tail {THETA_EPS:g} within {_SHELL_CAP} shells"
    )


def theta_eval_scaled(pm: PeriodMatrix, z: complex) -> ScaledArray:
    """Theta(z) as a 0-d :class:`ScaledArray`; never overflows.

    Deterministic for fixed inputs.  Raises :class:`NonConvergent` if the
    adaptive shell radius hits its cap (60) or ``z`` is not finite.
    """
    mantissa, scale = _lattice_sum_1d(pm.B, complex(z))
    return ScaledArray(np.array(mantissa), np.array(scale))


def _head_depth(b: complex) -> int:
    """How many shells past the centre the first head of :func:`_lattice_sum_batch` evaluates.

    The terms r shells from the Gaussian peak fall off as exp(Re B r^2 / 2),
    so past this depth they are below ``THETA_EPS * exp(-8)`` with a shell
    to spare for the peak's offset from its integer centre, and nearly
    every element stops inside the head.
    """
    return min(_SHELL_CAP, math.ceil(math.sqrt(2.0 * (8.0 - math.log(THETA_EPS)) / -b.real)) + 1)


def _batch_crossover(b: complex) -> int:
    """The fewest arguments :func:`theta_eval_batch` hands to the batched kernel at this period."""
    return -(-_BATCH_CROSSOVER // (_head_depth(b) + 2))


def _shells(x: np.ndarray, depth: int) -> np.ndarray:
    """Row r: the entry of index n0 + r plus that of n0 - r (row 0: n0 alone), from a :func:`_head` table; in place."""
    x[depth + 1 :] += x[:depth][::-1]
    return x[depth:]


def _bounded_stop(re_w: np.ndarray, depth: int) -> tuple[np.ndarray, tuple]:
    """The shells of a :func:`_head` table quiet for certain, and the (row, element) pairs its bounds leave open.

    ``re_w`` is the real part of each term's exponent ``w``, so
    ``exp(re_w)`` bounds the term's magnitude ``|t|``, and a shell's
    bound is the sum of its two terms' bounds.  On an open pair
    :func:`_head` takes the exact test, ``|t(n0 - r)| + |t(n0 + r)| <
    THETA_EPS * max(|S_r|, 1)`` with ``hypot`` magnitudes; elsewhere the
    bounds give that test's answer:

    - ``hypot`` of the two parts of the complex exp is within 4 ulps of
      ``exp(re_w)`` (measured over 2e7 draws), apart from a few subnormal
      ulps where a part underflows; a shell's two magnitudes and two
      bounds are summed with one rounding each.  The running sum ``S_r``
      of at most 121 terms is at most their magnitudes' sum times
      ``(1 + 2**-53)**243``, within 3e-14 of the running sum of the
      bounds.  ``_BOUND_SLACK`` (1e-12) covers each of the two, the
      magnitudes and the sum, 30 times over.
    - A shell is quiet for certain when its bound is below
      ``THETA_EPS * (1 - slack)``: its magnitude is then below
      ``THETA_EPS``, the least threshold there is.  It is loud for
      certain when its bound is above ``THETA_EPS * (1 + slack)**2``
      times the larger of 1 and the running bound, which bounds ``|S_r|``.
    - A term whose exp underflows has a bound far below the quiet
      threshold.  An overflowing exp or a NaN exponent gives an inf or
      NaN bound, and so an inf or NaN running bound from there on, which
      neither test takes.  Past an element's first non-finite term its
      decisions do not matter: it sums that term whatever they are, and
      :func:`_head` raises.
    """
    bound = _shells(np.exp(re_w), depth)
    calm = bound < THETA_EPS * (1.0 - _BOUND_SLACK)
    # the loud threshold, in place in the running bound
    level = np.cumsum(bound, axis=0)
    np.fmax(level, 1.0, out=level)
    level *= THETA_EPS * (1.0 + _BOUND_SLACK) ** 2
    decided = bound > level
    decided |= calm
    return calm, np.nonzero(~decided)


def _head(b: complex, z, n0, scale, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Shells 0..depth of every element in one table: each element's sum at its stop, and whether it stopped.

    An element that does not stop in the table comes back with its sum
    after shell ``depth``.  A non-finite term in a shell an element uses
    raises :class:`NonConvergent`.  A table of ``_BOUNDED_MIN`` terms or
    more takes ``hypot`` only where bounds cannot decide a stop (see
    :func:`_bounded_stop`); a smaller one takes it everywhere, which
    costs less there.
    """
    # row depth + k holds the term of index n0 + k, |k| <= depth
    offsets = np.arange(-depth, depth + 1)[:, None]
    N = n0 + offsets
    w = 0.5 * (b * N * N) + N * z - scale
    # the quiet shells the bounds decide, and the (row, element) pairs they leave open
    calm, (r, i) = _bounded_stop(w.real, depth) if w.size >= _BOUNDED_MIN else (None, (None, None))
    t = np.exp(w, out=w)
    finite = np.isfinite(t)
    # row r: |t(n0 - r)| + |t(n0 + r)|, the scalar kernel's shell magnitude, where the bounds left it open
    if calm is None:
        mags = _shells(_abs(t), depth)
    elif r.size:
        mags = _abs(t[depth + r, i]) + np.where(r > 0, _abs(t[depth - r, i]), 0.0)
    # row r: shell r's sum, then the running sum after shell r (cumsum adds
    # row after row, as the scalar kernel does); adding 0j to the centre turns
    # a -0.0 part into +0.0, as the scalar kernel's sum from zeros does
    sums = _shells(t, depth)
    sums[0] += 0j
    sums = np.cumsum(sums, axis=0)
    if calm is None:
        calm = mags < THETA_EPS * np.fmax(_abs(sums), 1.0)
    elif r.size:
        calm[r, i] = mags < THETA_EPS * np.fmax(_abs(sums[r, i]), 1.0)
    # an element stops at the first radius r >= 1 quiet after a quiet r - 1
    pairs = calm[1:] & calm[:-1]
    done = pairs.any(axis=0)
    last = np.full(z.size, depth)  # the last shell an element sums here
    if done.any():
        last[done] = pairs[:, done].argmax(axis=0) + 1
    if not finite.all() and not finite[np.abs(offsets) <= last].all():
        raise NonConvergent("theta lattice sum overflowed")
    return sums[last, np.arange(z.size)], done


def _lattice_sum_batch(b: complex, z: np.ndarray) -> ScaledArray:
    """:func:`_lattice_sum_1d` over an array of arguments, with its bits element for element.

    The same centre, scale, shell order and two-quiet-shells stop, each
    element stopping at its own shell.  Each chunk of ``_HEAD_LIMIT``
    arguments goes through one :func:`_head` to :func:`_head_depth`; its
    elements that do not stop there go through a deeper head, 2 depth + 1,
    and so on to the shell cap, which raises :class:`NonConvergent`.
    """
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    if not np.isfinite(flat).all():
        raise NonConvergent("theta argument is not finite")
    mantissa = np.empty(flat.shape, dtype=complex)
    with np.errstate(all="ignore"):
        n0 = np.rint(-flat.real / b.real)
        # n0 == 0 gives exactly 0.0, as in the scalar kernel
        scale = np.where(n0 != 0, (0.5 * (n0 * b * n0) + n0 * flat).real, 0.0)
        for start in range(0, flat.size, _HEAD_LIMIT):
            # the first head takes views of the chunk; only its leftovers are gathered
            chunk = slice(start, start + _HEAD_LIMIT)
            z_c, n0_c, scale_c, out = flat[chunk], n0[chunk], scale[chunk], mantissa[chunk]
            left, depth = slice(None), _head_depth(b)
            while True:
                out[left], done = _head(b, z_c[left], n0_c[left], scale_c[left], depth)
                if done.all():
                    break
                if depth == _SHELL_CAP:
                    raise NonConvergent(
                        f"lattice sum did not reach relative tail {THETA_EPS:g} within {_SHELL_CAP} shells"
                    )
                # step by step: at Re B -1000 a leftover summed straight to the
                # cap takes 121 rows, the next step 11
                left, depth = np.arange(out.size)[left][~done], min(_SHELL_CAP, 2 * depth + 1)
    return ScaledArray(mantissa.reshape(z.shape), scale.reshape(z.shape))


def theta_eval_batch(pm: PeriodMatrix, z) -> ScaledArray:
    """Theta at every element of the complex array ``z``, as a :class:`ScaledArray`.

    Element ``i`` has the bits of ``theta_eval_scaled(pm, z[i])``.
    Arrays shorter than the crossover (8 elements at Re B -4.25, more at
    deeper periods, where a scalar call sums fewer shells) are evaluated
    element by element with the scalar kernel, which is faster there;
    longer ones take the batched kernel, which sums the first shells of
    up to ``_HEAD_LIMIT`` elements in one numpy table.
    """
    z = np.asarray(z, dtype=complex)
    if z.size < _batch_crossover(pm.B):
        pairs = [_lattice_sum_1d(pm.B, w) for w in z.ravel().tolist()]
        return ScaledArray(
            np.array([m for m, _ in pairs], dtype=complex).reshape(z.shape),
            np.array([s for _, s in pairs], dtype=float).reshape(z.shape),
        )
    return _lattice_sum_batch(pm.B, z)
