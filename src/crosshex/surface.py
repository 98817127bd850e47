"""Spectral curves: the analytic torus backend and the tabulated backend.

A *curve* here is the bundle of data the Baker-Akhiezer construction
consumes: a period ``B``, a base point, an Abel map, normalized
third-kind integrals ``int_{P0}^{P} Omega_{A,B}`` (residue +1 at ``A``,
-1 at ``B``, vanishing a-periods), the b-periods of those differentials,
and the Riemann constant ``K``.  Every curve is a torus (genus one).

Points are represented by *lifts*: a point ``P`` is a complex number, a
chosen preimage in the universal cover (the curve and its Jacobian
coincide).  The lift fixes the integration path - every integral runs
along straight segments between lifts - so the same lift must be shared
between the Abel map and the exponential factors built on it.  Two lifts
describe the same curve point iff they differ by a lattice vector
``2*pi*i*m + B*n``.

:class:`TorusCurve` computes everything analytically: the prime-form
surrogate ``E(u) = Theta(u - z0)``, with ``z0`` the theta zero, vanishes
exactly on the lattice, so

    int_{P0}^{P} Omega_{A,B} = [log E(u - a) - log E(u - b)]

evaluated between the lifts with a continuously tracked logarithm.
:class:`TabulatedCurve` replays the values a curve document stores and
re-checks every cross-checkable invariant at load time.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConsistencyFailure,
    DimensionMismatch,
    PoleOnPath,
    SchemaError,
    SeparationFailure,
    UnknownPoint,
)
from .theta import PeriodMatrix, theta_eval_batch, theta_eval_scaled

_POLE_TOL = 1e-8
_PATH_CLEARANCE = 1e-3
_MAX_DRAWS = 1000
_BILINEAR_TOL = 1e-8
_KCHECK_REL = 1e-10
_CONTINUATION_STACK_CAP = 64
# deterministic fractional (a, b)-cycle coordinates tried for the b-cycle start
_BCYCLE_STARTS = ((0.317, 0.473), (0.137, 0.613), (0.791, 0.215), (0.057, 0.349), (0.503, 0.867))
# (m, n) offsets of the 9 lattice translates cover_distance tries around the nearest one
_OFFSET_M, _OFFSET_N = np.indices((3, 3)).reshape(2, -1) - 1
# CPython's float ** 2 is libm pow, which rounds differently from x * x for some x
_square = np.frompyfunc(lambda x: x**2, 1, 1)
# (segment, translate) pairs TorusCurve._segment_pole_distance handles at once
_DISTANCE_BLOCK = 16384


@dataclass(frozen=True)
class SurfacePoint:
    """A point of the curve, carried by its lift.

    The lift is a hashable ``complex``, so points are usable as cache
    keys.  Equality of SurfacePoints is equality of lifts; use
    :meth:`SpectralCurve.cover_distance` for equality as curve points.
    """

    lift: complex


class SpectralCurve:
    """Shared behaviour of the two curve backends."""

    pm: PeriodMatrix
    base_lift: complex

    def point(self, value) -> SurfacePoint:
        return SurfacePoint(complex(value))

    def abel(self, P: SurfacePoint) -> complex:
        """Abel map based at P0: the lift minus the base lift."""
        return P.lift - self.base_lift

    def lattice_coords(self, delta):
        """Real coordinates (s, t) with delta = 2*pi*i*s + B*t.

        ``delta`` is a complex or an array of them; s and t have its
        shape.  The real part gives Re(B) t = Re(delta), which is
        solvable because Re(B) < 0; the imaginary part then yields s.
        """
        B = self.pm.B
        t = delta.real / B.real
        s = (delta.imag - B.imag * t) / (2.0 * math.pi)
        return s, t

    def cover_distance(self, lift, others) -> float | np.ndarray:
        """Distance between lifts as curve points: min over lattice translates.

        For a complex ``lift`` and a complex ``others`` the result is a
        ``float``; for a 1-D array of N lifts in ``others`` it is an array
        of the N distances; for a 1-D array of L lifts in ``lift`` it
        gains a leading axis, one row per lift (an (L, N) table).  Each
        of the 9 translates around the nearest lattice vector of every
        difference takes one vectorised pass, and a running minimum keeps
        every temporary the size of the result.
        """
        lift = np.asarray(lift, dtype=complex)
        others = np.asarray(others, dtype=complex)
        if others.ndim > 1 or lift.ndim > 1:
            raise DimensionMismatch(
                f"lift and others must each be one lift or a 1-D array, got shapes {lift.shape}, {others.shape}"
            )
        delta = np.subtract.outer(lift, others)
        s, t = self.lattice_coords(delta)
        m, n = np.rint(s), np.rint(t)
        least = None
        for dm, dn in zip(_OFFSET_M, _OFFSET_N):
            diff = delta - (2j * math.pi * (m + dm) + self.pm.B * (n + dn))
            square = diff.real * diff.real + diff.imag * diff.imag
            least = square if least is None else np.minimum(least, square)
        # sqrt(re*re + im*im), not abs(): hypot rounds differently in the last
        # bit; sqrt rounds monotonically, so the root of the least square is
        # the least root
        dist = np.sqrt(least)
        return dist if delta.ndim else float(dist)

    def b_periods_and_integrals(self, pairs, requests) -> tuple[list[complex], list[complex]]:
        """``b_period_vector`` of each ``(Pplus, Pminus)`` pair and ``third_kind_integral`` of each
        ``(P, Pplus, Pminus)`` request, in order."""
        return (
            [self.b_period_vector(plus, minus) for plus, minus in pairs],
            [self.third_kind_integral(*request) for request in requests],
        )

    def third_kind_integrals(self, requests) -> list[complex]:
        """``third_kind_integral`` of each ``(P, Pplus, Pminus)`` request, in order."""
        return self.b_periods_and_integrals([], requests)[1]

    def b_period_vectors(self, pairs) -> list[complex]:
        """``b_period_vector`` of each ``(Pplus, Pminus)`` pair, in order."""
        return self.b_periods_and_integrals(pairs, [])[0]


class TorusCurve(SpectralCurve):
    """The curve with everything computed analytically.

    Parameters
    ----------
    pm : PeriodMatrix
        The period ``B``.
    base_lift : complex
        Lift of the base point P0 of the Abel map and of all integrals.
    """

    def __init__(self, pm: PeriodMatrix, base_lift: complex = 0.0):
        self.pm = pm
        self.base_lift = complex(base_lift)
        # the theta zero in closed form, also the Riemann constant K:
        # pairing the series terms N and -N-1 cancels Theta exactly at i*pi + B/2
        self._z0 = 1j * math.pi + pm.B / 2.0
        self._verified_pairs: set[tuple[complex, complex]] = set()
        # (pole, a, b) segments _path_clearances measured at least _PATH_CLEARANCE from the pole
        self._clear_segments: set[tuple[complex, complex, complex]] = set()
        self._constants_validated = False

    def sample_points(
        self, rng, count: int, avoid, min_avoid: float, min_pairwise: float, poles=()
    ) -> list[SurfacePoint]:
        """Rejection-sample ``count`` lifts uniformly from the fundamental cell.

        Each draw is ``base + 2*pi*i*rng.random() + B*rng.random()``.
        It is rejected within ``min_avoid`` cover distance of a point of
        the non-empty ``avoid``, within ``min_pairwise`` of a lift kept
        (an earlier draw of the same batch included), and, when ``poles``
        are given, if its base-to-lift path passes within 1e-3 of a pole
        translate.  Each batch of draws is screened in two
        :meth:`cover_distance` tables, draws against ``avoid`` and draws
        against the lifts kept and the batch itself; the draws are then
        accepted in order.  Raises :class:`SeparationFailure` after
        ``_MAX_DRAWS`` draws, and ``ValueError`` for an empty ``avoid``.
        """
        B = self.pm.B
        avoid = np.array([p.lift for p in avoid], dtype=complex)
        if not avoid.size:
            raise ValueError("sample_points needs a non-empty avoid")
        kept: list[complex] = []
        tries = 0
        while len(kept) < count and tries < _MAX_DRAWS:
            # each lift still missing takes a draw of its own, so drawing them
            # together never takes more draws than drawing one at a time
            draws = min(count - len(kept), _MAX_DRAWS - tries)
            tries += draws
            lifts = [
                self.base_lift + 2j * math.pi * rng.random() + B * rng.random() for _ in range(draws)
            ]
            accept = ~(self.cover_distance(lifts, avoid).min(axis=1) < min_avoid)
            if poles:
                accept &= ~(self._path_clearances(lifts, poles) < _PATH_CLEARANCE)
            near = self.cover_distance(lifts, kept + lifts) < min_pairwise
            accept &= ~near[:, : len(kept)].any(axis=1)
            # draw i against the earlier draws of the batch, which are settled
            # by the time it is reached
            near = np.tril(near[:, len(kept) :], -1)
            for i in np.flatnonzero(near.any(axis=1)):
                accept[i] &= not (near[i] & accept).any()
            kept += itertools.compress(lifts, accept.tolist())
        if len(kept) < count:
            raise SeparationFailure(f"placed {len(kept)} of {count} points in {_MAX_DRAWS} draws")
        return [SurfacePoint(lift) for lift in kept]

    # -- prime-form surrogate -------------------------------------------------

    def _path_clearances(self, lifts: list[complex], poles) -> np.ndarray:
        ends = np.repeat(np.array(lifts, dtype=complex), len(poles))
        pole = np.tile(np.array([p.lift for p in poles], dtype=complex), len(lifts))
        distance = self._segment_pole_distance(pole, self.base_lift, ends)
        clear = distance >= _PATH_CLEARANCE
        self._clear_segments.update(zip(pole[clear].tolist(), itertools.repeat(self.base_lift), ends[clear].tolist()))
        return distance.reshape(len(lifts), -1).min(axis=1)

    def _segment_pole_distance(self, pole, a, b) -> float | np.ndarray:
        """Min distance from segment [a, b] to the lattice translates of ``pole``.

        Complex arguments give a ``float``; arrays (broadcast together)
        give the distance of each segment to the translates of its own
        pole.  The translates tried are those whose lattice coordinates
        lie within one cell of the segment's coordinate box.  The
        translate offsets are taken in blocks of at most
        ``_DISTANCE_BLOCK`` (segment, translate) pairs, so memory stays
        O(segments) however many segments and translates there are.
        """
        B = self.pm.B
        pole, a, b = np.broadcast_arrays(*(np.asarray(x, dtype=complex) for x in (pole, a, b)))
        shape = pole.shape
        pole, a, b = (x.reshape(-1, 1) for x in (pole, a, b))
        sa, ta = self.lattice_coords(a - pole)
        sb, tb = self.lattice_coords(b - pole)
        m_lo = np.floor(np.minimum(sa, sb)) - 1
        m_hi = np.ceil(np.maximum(sa, sb)) + 1
        n_lo = np.floor(np.minimum(ta, tb)) - 1
        n_hi = np.ceil(np.maximum(ta, tb)) + 1
        ab = b - a
        denom = np.array(_square(np.hypot(ab.real, ab.imag)), dtype=float).reshape(ab.shape)
        denom[denom == 0.0] = math.inf  # a point segment: t = 0, the distance to a
        n_width = int((n_hi - n_lo).max(initial=0)) + 1
        offsets = (int((m_hi - m_lo).max(initial=0)) + 1) * n_width
        best = np.full(pole.shape, math.inf)
        block = max(1, _DISTANCE_BLOCK // max(1, pole.size))
        for k in range(0, offsets, block):
            dm, dn = np.divmod(np.arange(k, min(k + block, offsets)), n_width)
            # an offset past a segment's own box repeats its last translate
            m = np.minimum(m_lo + dm, m_hi)
            n = np.minimum(n_lo + dn, n_hi)
            # the parts of pole + 2*pi*i*m + B*n; CPython's zero cross terms
            # only change the sign of a zero, which the distance ignores
            q_re = pole.real + B.real * n
            q_im = (pole.imag + 2.0 * math.pi * m) + B.imag * n
            # ((q - a) * conj(ab)).real / abs(ab)**2, then min(1.0, max(0.0, t))
            t = ((q_re - a.real) * ab.real - (q_im - a.imag) * -ab.imag) / denom
            t = np.where(t > 0.0, t, 0.0)
            t = np.where(t < 1.0, t, 1.0)
            dist = np.hypot(q_re - (a.real + t * ab.real), q_im - (a.imag + t * ab.imag))
            best = np.fmin(best, np.fmin.reduce(dist, axis=1, keepdims=True))
        best = best.reshape(shape)
        return best if best.ndim else float(best)

    def _log_prime_deltas(self, segments) -> list:
        """Continuously tracked increment of log E(u - pole) along each ``(pole, a, b)`` segment.

        Each segment is subdivided depth-first until every step changes
        the argument by at most ~1 radian and the log-magnitude by at
        most 1.5, which pins the branch of the logarithm, and its steps
        are summed from a to b.  All segments advance in lockstep, and
        each point reaches the kernel once: the first
        :func:`theta_eval_batch` call evaluates both ends of every
        segment, each distinct ``u - pole`` once, and each later round
        evaluates only the midpoints the last round pushed.  A right end waits on its segment's stack
        with its value, so after an accepted step the segment tests the
        next end at once, and keeps stepping until a test fails (which
        pushes a midpoint) or its stack is empty.  A segment takes the
        same steps as it would alone, so its increment has the bits of a
        one-segment call; equal segments are tracked once, and
        ``a == b`` gives 0j.  A segment that passes within 1e-8 of a
        lattice translate of its pole, or whose subdivision stack
        overruns, gets a :class:`PoleOnPath` in place of its increment
        (returned, not raised).  The 1e-8 guard skips the segments
        :meth:`_path_clearances` already measured at least 1e-3 clear.
        """
        out: dict[tuple, complex | PoleOnPath] = dict.fromkeys(segments, 0j)
        work = [seg for seg in out if seg[1] != seg[2]]
        guard = [seg for seg in work if seg not in self._clear_segments]
        if guard:
            pole, a, b = (np.array(col, dtype=complex) for col in zip(*guard))
            for seg in itertools.compress(guard, self._segment_pole_distance(pole, a, b) < _POLE_TOL):
                out[seg] = PoleOnPath(f"integration segment passes within {_POLE_TOL:g} of a pole lift")
            work = [seg for seg in work if not isinstance(out[seg], PoleOnPath)]
        if not work:
            return [out[seg] for seg in segments]
        pole = [p for p, _, _ in work]
        ends = [a for _, a, _ in work] + [b for _, _, b in work]
        # the left ends of a pass share a few poles; keyed by bits, signed zeros stay apart
        w = np.array(ends, dtype=complex) - np.array(pole * 2, dtype=complex)
        distinct, inverse = np.unique(w.view(np.dtype((np.void, w.itemsize))), return_inverse=True)
        m, la = self._primes(distinct.view(complex).tolist())
        points = [(u, m[j], la[j]) for u, j in zip(ends, inverse.tolist())]
        # (u, mantissa, log-magnitude): the point each segment has reached, and
        # the right ends it has still to reach, the last next
        left = points[: len(work)]
        pending = [[end] for end in points[len(work) :]]
        # each total as its real and imaginary sums: complex addition is componentwise
        total = [(0.0, 0.0)] * len(work)
        live = range(len(work))
        phase, cap = cmath.phase, _CONTINUATION_STACK_CAP
        while live:
            still, mids = [], []
            for i in live:
                stack = pending[i]
                u0, m0, la0 = left[i]
                re, im = total[i]
                while stack:
                    top = stack[-1]
                    d_arg = phase(top[1] / m0)
                    d_logabs = top[2] - la0
                    if abs(d_arg) > 1.0 or abs(d_logabs) > 1.5:
                        break
                    re += d_logabs
                    im += d_arg
                    u0, m0, la0 = stack.pop()
                if not stack:
                    out[work[i]] = complex(re, im)
                elif len(stack) >= cap:
                    out[work[i]] = PoleOnPath("branch tracking could not resolve the path")
                else:
                    left[i], total[i] = (u0, m0, la0), (re, im)
                    still.append(i)
                    mids.append(0.5 * (u0 + top[0]))
            if still:
                m, la = self._primes([u - pole[i] for i, u in zip(still, mids)])
                for i, point in zip(still, zip(mids, m, la)):
                    pending[i].append(point)
            live = still
        return [out[seg] for seg in segments]

    def _primes(self, w: list[complex]) -> tuple[list[complex], list[float]]:
        """Mantissas and log-magnitudes of E(w) = Theta(w - z0) at each point, in one kernel call.

        E vanishes exactly on the period lattice.
        """
        values = theta_eval_batch(self.pm, [x - self._z0 for x in w])
        m = values.mantissa.tolist()
        # ScaledArray.log_abs from the Python mantissas: abs(complex) is hypot, as _abs is
        return m, [math.log(abs(x)) + s if x else -math.inf for x, s in zip(m, values.log_scale.tolist())]

    # -- public surface operations --------------------------------------------

    def third_kind_integral(self, P: SurfacePoint, Pplus: SurfacePoint, Pminus: SurfacePoint) -> complex:
        """int_{P0}^{P} Omega_{Pplus,Pminus} along the straight lift path.

        The differential is normalized: residue +1 at Pplus, -1 at
        Pminus, vanishing a-periods.  The path runs from the base lift
        to ``P.lift``; the value depends on the lift (as it must - it is
        what multiplies exponentials that see the same lift).
        """
        (value,) = self.third_kind_integrals([(P, Pplus, Pminus)])
        return value

    def b_period_vector(self, Pplus: SurfacePoint, Pminus: SurfacePoint) -> complex:
        """b-period of Omega_{Pplus,Pminus}: equals abel(Pplus) - abel(Pminus).

        The identity is the Riemann bilinear relation in the
        2*pi*i-normalized convention.  The first call per (lift, lift)
        pair verifies it against direct numerical continuation along a
        b-cycle representative; the comparison is modulo 2*pi*i times an
        integer because a straight representative may wrap pole
        translates.  A mismatch beyond 1e-8 raises
        :class:`ConsistencyFailure`.
        """
        (U,) = self.b_period_vectors([(Pplus, Pminus)])
        return U

    def b_periods_and_integrals(self, pairs, requests) -> tuple[list[complex], list[complex]]:
        """:meth:`b_period_vector` of each ``(Pplus, Pminus)`` and :meth:`third_kind_integral` of each
        ``(P, Pplus, Pminus)``, in one lockstep pass.

        The pass tracks every integral path and, from the first
        deterministic start point, a b-cycle representative of each pair
        not yet verified; a pair whose representative runs into a pole
        retries from the next start points, in passes of its own.  Each
        value has the bits of its one-item call.  A failed b-period
        check raises first, then a request whose path runs into a pole
        makes the call raise :class:`PoleOnPath`.
        """
        B = self.pm.B
        pairs = list(pairs)
        periods = [self.abel(plus) - self.abel(minus) for plus, minus in pairs]
        expected = {
            (plus.lift, minus.lift): U
            for (plus, minus), U in zip(pairs, periods)
            if (plus.lift, minus.lift) not in self._verified_pairs
        }
        pending, last_error = list(expected), None
        # the integral paths ride in the first pass only
        paths = [(pole.lift, self.base_lift, P.lift) for P, *poles in requests for pole in poles]
        integrals = []
        for fs, ft in _BCYCLE_STARTS:
            if not (pending or paths):
                break
            start = self.base_lift + 2j * math.pi * fs + B * ft
            cycles = [(pole, start, start + B) for pair in pending for pole in pair]
            deltas = self._log_prime_deltas(cycles + paths)
            integrals += deltas[len(cycles) :]
            paths = []
            retry = []
            for pair, plus, minus in zip(pending, deltas[::2], deltas[1::2]):
                refused = [d for d in (plus, minus) if isinstance(d, PoleOnPath)]
                if refused:
                    last_error = refused[0]
                    retry.append(pair)
                    continue
                direct = plus - minus
                k = (direct - expected[pair]) / (2j * math.pi)
                k_int = round(k.real)
                resid = abs(direct - expected[pair] - 2j * math.pi * k_int)
                if resid > _BILINEAR_TOL:
                    raise ConsistencyFailure(
                        "b-period bilinear identity failed: direct continuation gives "
                        f"{direct:.12g}, abel difference {expected[pair]:.12g} "
                        f"(residual {resid:.3e} after removing {k_int} full 2*pi*i windings)"
                    )
            pending = retry
        if pending:
            raise ConsistencyFailure(
                f"could not route a b-cycle representative clear of poles: {last_error}"
            )
        self._verified_pairs.update(expected)
        for delta in integrals:
            if isinstance(delta, PoleOnPath):
                raise delta
        return periods, [plus - minus for plus, minus in zip(integrals[::2], integrals[1::2])]

    def riemann_constants(self) -> complex:
        """The Riemann constant K = i*pi + B/2.

        First call validates the defining property: with a probe point
        P1, the function P -> Theta(abel(P) - abel(P1) - K) vanishes at
        P = P1 (residual <= 1e-10 * |Theta(0)|) and at no other point of
        a 100-point fundamental-domain grid (threshold 1e-3 of the
        median peak-relative |Theta| on the grid).
        """
        if not self._constants_validated:
            _validate_constants(self, self._z0)
            self._constants_validated = True
        return self._z0


def _validate_constants(curve: SpectralCurve, K: complex) -> None:
    """Shared Riemann-constant validation (both backends).

    The point residual checks Theta(-K) ~ 0, which holds exactly for the
    constant of a based Abel map (the classical vanishing property asks
    for a divisor of degree g - 1, which on a torus is empty).  The grid
    scan then guards against a degenerate (B, K) pairing by requiring
    that no off-point grid node drops below 1e-3 of the median magnitude.
    Each node is measured by its kernel mantissa, its value relative to
    the Gaussian peak of its own series (what ``require_generic`` reads):
    log|Theta| itself follows an envelope that spreads across the cell
    in proportion to |Re B|, so its median says nothing about a zero once
    Re B is deep.
    """
    pm = curve.pm
    theta0_log = theta_eval_scaled(pm, 0j).log_abs
    resid_log = theta_eval_scaled(pm, -K).log_abs
    if not (resid_log - theta0_log <= math.log(_KCHECK_REL)):
        raise ConsistencyFailure(
            "Riemann constants failed the vanishing check: "
            f"|Theta(-K)| / |Theta(0)| = {math.exp(resid_log - theta0_log):.3e}"
        )
    B = pm.B
    base = curve.base_lift
    # probe 'divisor' point at fixed fractional coordinates
    u1 = base + 2j * math.pi * 0.37 + B * 0.61
    nodes = [
        base + 2j * math.pi * ((j + 0.5) / 10.0) + B * ((k + 0.5) / 10.0)
        for j in range(10)
        for k in range(10)
    ]
    mantissa = theta_eval_batch(pm, np.array([(u - u1) - K for u in nodes])).mantissa
    sizes = np.hypot(mantissa.real, mantissa.imag).tolist()
    median = float(np.median(sizes))
    cell = min(2.0 * math.pi, abs(B))
    for u, size in zip(nodes, sizes):
        if size < 1e-3 * median:
            if curve.cover_distance(u, u1) > 0.25 * cell:
                raise ConsistencyFailure(
                    "Riemann-constant grid scan found an unexpected theta zero away from the "
                    f"probe point (peak-relative |Theta| = {size:.3e}, median {median:.3e})"
                )


# ---------------------------------------------------------------------------
# tabulated backend and the curve-data document
# ---------------------------------------------------------------------------

CURVE_DOC_FORMAT = "crosshex-curve-v1"

_PAIR_TYPES = (list, tuple)
_REAL_TYPES = (float, int)  # compared as exact types: a bool is an int subclass, not a number


def complex_to_json(z: complex) -> list[float]:
    """The ``[re, im]`` pair of a complex number, the one complex encoding of every document."""
    z = complex(z)
    return [z.real, z.imag]


def complex_from_json(obj, where: str) -> complex:
    """Read a ``[re, im]`` pair of finite numbers (see :func:`complex_to_json`)."""
    # field documents call this once per coefficient: the message is built only on failure
    try:
        re, im = obj
        if type(re) in _REAL_TYPES and type(im) in _REAL_TYPES and type(obj) in _PAIR_TYPES:
            z = complex(re, im)
            if cmath.isfinite(z):
                return z
    except (TypeError, ValueError, OverflowError):
        pass
    raise SchemaError(f"{where}: expected a [re, im] pair of finite numbers, got {obj!r}")


def complex_array_from_json(pairs: list, where) -> np.ndarray:
    """:func:`complex_from_json` of every pair, as one complex array.

    The exact types of the pairs and their parts, the conversion and the
    finiteness are each checked in one pass over all pairs.  Only when a
    pass fails are the pairs read one by one, so that the first refused
    pair raises, with ``where(i)`` naming the i-th.
    """
    parts = itertools.chain.from_iterable
    if (
        set(map(type, pairs)) <= set(_PAIR_TYPES)
        and set(map(len, pairs)) <= {2}
        and set(map(type, parts(pairs))) <= set(_REAL_TYPES)
    ):
        try:
            values = np.fromiter(parts(pairs), dtype=float, count=2 * len(pairs))
        except OverflowError:  # an integer beyond double range
            pass
        else:
            if np.isfinite(values).all():
                return values.view(complex)
    return np.array([complex_from_json(pair, where(i)) for i, pair in enumerate(pairs)], dtype=complex)


class TabulatedCurve(SpectralCurve):
    """A curve served from a precomputed-data document.

    The Abel map is still ``lift - base_lift`` (lifts ARE Abel-frame
    coordinates), but third-kind integrals and the Riemann constant come
    from stored tables, keyed by marked-point names: ``(plus, minus)``
    for a b-period and ``(endpoint, plus, minus)`` for an integral.
    Integrals exist only for the stored combinations; anything else
    raises :class:`UnknownPoint`.
    """

    def __init__(
        self,
        pm: PeriodMatrix,
        base_lift: complex,
        marked: dict[str, SurfacePoint],
        constants: complex,
        b_periods: dict[tuple[str, str], complex],
        integrals: dict[tuple[str, str, str], complex],
    ):
        self.pm = pm
        self.base_lift = base_lift
        self.marked = dict(marked)
        self._constants = constants
        self._b_periods = dict(b_periods)
        self._integrals = dict(integrals)
        self._lift_to_name = {pt.lift: name for name, pt in marked.items()}

    def _name_of(self, P: SurfacePoint, role: str) -> str:
        name = self._lift_to_name.get(P.lift)
        if name is None:
            raise UnknownPoint(
                f"{role} lift {P.lift} is not a stored marked point of the tabulated curve"
            )
        return name

    def third_kind_integral(self, P: SurfacePoint, Pplus: SurfacePoint, Pminus: SurfacePoint) -> complex:
        key = (self._name_of(P, "endpoint"), self._name_of(Pplus, "pole"), self._name_of(Pminus, "pole"))
        if key not in self._integrals:
            raise UnknownPoint(f"tabulated curve has no stored integral for {_INTEGRAL_KEY.format(*key)!r}")
        return self._integrals[key]

    def b_period_vector(self, Pplus: SurfacePoint, Pminus: SurfacePoint) -> complex:
        names = (self._lift_to_name.get(Pplus.lift), self._lift_to_name.get(Pminus.lift))
        stored = self._b_periods.get(names)
        if stored is not None:
            return stored
        # the bilinear identity holds for any pair; loader verified stored rows
        return self.abel(Pplus) - self.abel(Pminus)

    def riemann_constants(self) -> complex:
        return self._constants


# Paths start at the base lift and b-period checks track a path of length |B|;
# the steps grow with path length, so a curve document keeps its marked points
# this many lattice cells from the base (gen-spectral draws them in the base
# cell) and Re B above this floor, which gen-spectral also enforces so that
# every document it writes can be read back.
_MAX_LIFT_CELLS = 16
MIN_RE_B = -1e4
# In a strongly sheared cell the probe screen rejects nearly every draw, and
# verify cannot place its probes; gen-spectral and the reader both refuse a
# period with |Im B| above this bound (the seeded sweep behind the value is
# recorded in CHANGES.md).
MAX_ABS_IM_B = 5e3


# the curve document's keys of a stored b-period ('A/B') and third-kind integral ('S|A,B')
_B_PERIOD_KEY = "{}/{}"
_INTEGRAL_KEY = "{}|{},{}"

_CURVE_DOC_KEYS = {
    "genus", "B", "base_lift", "marked_points", "riemann_constants", "b_periods", "third_kind_integrals"
}


def _read_curve_document(document: dict) -> TabulatedCurve:
    """Read a curve-data document into its tables, checking its structure only.

    Both backends start here.  Any structural problem raises
    :class:`SchemaError`: a wrong ``format``, a missing section, a genus
    other than 1, a ``B`` that is not a 1x1 nested list holding a valid
    period (with ``Re B >= MIN_RE_B`` and ``|Im B| <= MAX_ABS_IM_B``), a
    malformed or non-finite number or pair, a key naming an unknown marked
    point, or a marked point more than ``_MAX_LIFT_CELLS`` lattice cells
    from the base.
    """
    if not isinstance(document, dict):
        raise SchemaError("curve document must be a JSON object")
    if document.get("format") != CURVE_DOC_FORMAT:
        raise SchemaError(f"not a {CURVE_DOC_FORMAT} document (format {document.get('format')!r})")
    missing = _CURVE_DOC_KEYS - document.keys()
    if missing:
        raise SchemaError(f"curve document is missing keys: {sorted(missing)}")
    genus = document["genus"]
    if type(genus) is not int or genus != 1:
        raise SchemaError(f"only genus-1 curves are supported, got genus {genus!r}")
    braw = document["B"]
    if not (isinstance(braw, list) and len(braw) == 1 and isinstance(braw[0], list) and len(braw[0]) == 1):
        raise SchemaError("B must be a 1x1 nested list holding one [re, im] pair")
    try:
        pm = PeriodMatrix(complex_from_json(braw[0][0], "B[0][0]"))
    except ValueError as exc:
        raise SchemaError(f"B: {exc}") from None
    if pm.B.real < MIN_RE_B:
        raise SchemaError(f"B: real part must be at least {MIN_RE_B:g}, got {pm.B.real!r}")
    if abs(pm.B.imag) > MAX_ABS_IM_B:
        raise SchemaError(f"B: imaginary part must be at most {MAX_ABS_IM_B:g} in size, got {pm.B.imag!r}")

    for section in ("marked_points", "b_periods", "third_kind_integrals"):
        if not isinstance(document[section], dict):
            raise SchemaError(f"{section} must be a mapping")
    if not document["marked_points"]:
        raise SchemaError("marked_points must not be empty")

    base = complex_from_json(document["base_lift"], "base_lift")
    marked = {
        str(name): SurfacePoint(complex_from_json(val, f"marked_points[{name}]"))
        for name, val in document["marked_points"].items()
    }
    constants = complex_from_json(document["riemann_constants"], "riemann_constants")
    b_periods = {}
    for key, val in document["b_periods"].items():
        names = tuple(str(key).split("/"))
        if len(names) != 2:
            raise SchemaError(f"b_periods key {key!r} must look like 'A/B'")
        if not set(names) <= marked.keys():
            raise SchemaError(f"b_periods key {key!r} names unknown marked points")
        b_periods[names] = complex_from_json(val, f"b_periods[{key}]")

    integrals = {}
    for key, val in document["third_kind_integrals"].items():
        head, sep, tail = str(key).partition("|")
        names = (head, *tail.split(","))
        if not sep or len(names) != 3:
            raise SchemaError(f"third_kind_integrals key {key!r} must look like 'S|A,B'")
        for nm in names:
            if nm not in marked:
                raise SchemaError(f"third_kind_integrals key {key!r} names unknown point {nm!r}")
        integrals[names] = complex_from_json(val, f"third_kind_integrals[{key}]")

    curve = TabulatedCurve(pm, base, marked, constants, b_periods, integrals)
    for name, point in marked.items():
        cells = curve.lattice_coords(point.lift - base)
        if not all(abs(c) <= _MAX_LIFT_CELLS for c in cells):
            raise SchemaError(
                f"marked point {name} is {cells} lattice cells from the base (max {_MAX_LIFT_CELLS})"
            )
    return curve


def load_torus_curve(document: dict) -> tuple[TorusCurve, dict[str, SurfacePoint]]:
    """The analytic curve and its marked points, from a curve document.

    Only the structure is checked: a :class:`TorusCurve` validates its
    own Riemann constant and b-periods when first asked for them.
    """
    tables = _read_curve_document(document)
    return TorusCurve(tables.pm, tables.base_lift), tables.marked


def load_tabulated_curve(document: dict) -> TabulatedCurve:
    """Build a :class:`TabulatedCurve` from a curve-data document.

    Structural problems raise :class:`SchemaError`; well-formed data
    that fails a recomputable invariant (stored b-periods vs Abel
    differences to 1e-8, opposite-orientation integral pairs, the
    Riemann-constant vanishing check) raises :class:`ConsistencyFailure`.
    """
    curve = _read_curve_document(document)
    marked = curve.marked
    for (a_name, b_name), U in curve._b_periods.items():
        err = abs(U - (curve.abel(marked[a_name]) - curve.abel(marked[b_name])))
        if err > _BILINEAR_TOL:
            raise ConsistencyFailure(
                f"stored b-period {_B_PERIOD_KEY.format(a_name, b_name)!r} disagrees with the Abel difference "
                f"by {err:.3e}"
            )
    integrals = curve._integrals
    for (endpoint, a_name, b_name), value in integrals.items():
        flipped = (endpoint, b_name, a_name)
        if flipped in integrals:
            mismatch = abs(value + integrals[flipped])
            if mismatch > _BILINEAR_TOL * max(1.0, abs(value)):
                raise ConsistencyFailure(
                    f"stored integrals {_INTEGRAL_KEY.format(endpoint, a_name, b_name)!r} and "
                    f"{_INTEGRAL_KEY.format(*flipped)!r} are not negatives (|sum| = {mismatch:.3e})"
                )
    _validate_constants(curve, curve.riemann_constants())
    return curve


def export_curve_document(
    curve: SpectralCurve,
    marked: dict[str, SurfacePoint],
    b_period_pairs: list[tuple[str, str]],
    integral_specs: list[tuple[str, tuple[str, str]]],
) -> dict:
    """Serialize a curve to the curve-data document.

    ``b_period_pairs`` lists named (plus, minus) pairs to store;
    ``integral_specs`` lists (endpoint, (plus, minus)) combinations.
    Composite pole pairs (for example the difference differential with
    poles at two same-family points) are computed directly on the
    analytic backend; every stored endpoint group shares the single
    straight base-to-endpoint path, which keeps linear combinations of
    rows path-consistent.  The b-periods and integrals come from one
    :meth:`SpectralCurve.b_periods_and_integrals` call.
    """
    periods, values = curve.b_periods_and_integrals(
        [(marked[plus], marked[minus]) for plus, minus in b_period_pairs],
        [(marked[endpoint], marked[plus], marked[minus]) for endpoint, (plus, minus) in integral_specs],
    )
    b_periods = {_B_PERIOD_KEY.format(*pair): complex_to_json(U) for pair, U in zip(b_period_pairs, periods)}
    integrals = {
        _INTEGRAL_KEY.format(endpoint, plus, minus): complex_to_json(val)
        for (endpoint, (plus, minus)), val in zip(integral_specs, values)
    }
    return {
        "format": CURVE_DOC_FORMAT,
        "genus": 1,
        "B": [[complex_to_json(curve.pm.B)]],
        "base_lift": complex_to_json(curve.base_lift),
        "marked_points": {name: complex_to_json(pt.lift) for name, pt in marked.items()},
        "riemann_constants": complex_to_json(curve.riemann_constants()),
        "b_periods": b_periods,
        "third_kind_integrals": integrals,
    }


def make_torus_curve(B, base_lift: complex = 0.0) -> TorusCurve:
    """Convenience constructor: accepts a complex period or a PeriodMatrix."""
    pm = B if isinstance(B, PeriodMatrix) else PeriodMatrix(B)
    return TorusCurve(pm, base_lift)
