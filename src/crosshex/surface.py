"""Spectral curves: the analytic torus and its curve-data document.

A *curve* here is the bundle of data the Baker-Akhiezer construction
consumes: a period ``B``, a base point, an Abel map, normalized
third-kind integrals ``int_{P0}^{P} Omega_{A,B}`` (residue +1 at ``A``,
-1 at ``B``, vanishing a-periods), the b-periods of those differentials,
and the Riemann constant ``K``.  Every curve is a torus (genus one), built
by the one constructor ``TorusCurve(B, base_lift)``, which is also the
one place that decides which periods are valid (``MIN_RE_B <= Re B <=
MAX_RE_B``, ``|Im B| <= MAX_ABS_IM_B``).

Points are represented by *lifts*: a point ``P``, ``SurfacePoint(lift)``,
carries a complex number, a chosen preimage in the universal cover (the
curve and its Jacobian coincide).  The lift fixes the integration path -
every integral runs along straight segments between lifts - so the same
lift must be shared between the Abel map and the exponential factors
built on it.  Two lifts describe the same curve point iff they differ by
a lattice vector ``2*pi*i*m + B*n``.

:class:`TorusCurve` computes everything analytically: the prime-form
surrogate ``E(u) = Theta(u - z0)``, with ``z0`` the theta zero, vanishes
exactly on the lattice, so

    int_{P0}^{P} Omega_{A,B} = [log E(u - a) - log E(u - b)]

evaluated between the lifts with a continuously tracked logarithm.
A curve document records only the period, the base lift and the marked
lifts, from which :func:`load_torus_curve` rebuilds the curve, refusing
what ``TorusCurve`` refuses and any lift far from the base.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConsistencyFailure,
    DimensionMismatch,
    PoleOnPath,
    SchemaError,
    SeparationFailure,
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
# offsets, in a curve's reduced period basis, of the 9 lattice translates cover_distance tries around the nearest one
_OFFSET_P, _OFFSET_Q = np.indices((3, 3)).reshape(2, -1) - 1
# elements of (translate, distance) temporaries cover_distance takes in one group
_COVER_BLOCK = 4096
# CPython's float ** 2 is libm pow, which rounds differently from x * x for some x
_square = np.frompyfunc(lambda x: x**2, 1, 1)
# (segment, translate) pairs TorusCurve._segment_pole_distance handles at once
_DISTANCE_BLOCK = 16384


# The period domain, decided by TorusCurve alone.  Above MAX_RE_B the lattice
# sums decay too slowly; b-period checks track a path of length |B|, whose steps
# grow with it, below MIN_RE_B; and in a cell sheared past MAX_ABS_IM_B the probe
# screen rejects nearly every draw, so verify cannot place its probes (the seeded
# sweep behind that value is recorded in CHANGES.md).
MIN_RE_B = -1e4
MAX_RE_B = -3.0
MAX_ABS_IM_B = 5e3
# Paths start at the base lift, and a far lift's theta arguments lose digits, so
# the documents keep their base lift this many lattice cells from 0, and their
# marked points and divisor this many from the base (gen-spectral writes base 0
# and draws the points in the base cell).
MAX_LIFT_CELLS = 16


@dataclass(frozen=True)
class SurfacePoint:
    """A point of the curve, carried by its lift.

    The lift is a hashable ``complex``, so points are usable as cache
    keys.  Equality of SurfacePoints is equality of lifts; use
    :meth:`SpectralCurve.cover_distance` for equality as curve points.
    """

    lift: complex


class SpectralCurve:
    """The lattice geometry of a curve: its points, Abel map, lattice coordinates and cover distance."""

    pm: PeriodMatrix
    base_lift: complex

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

    @cached_property
    def _reduced_basis(self):
        """A Lagrange-reduced basis of the period lattice, its integer inverse, and the 9 translate offsets in it.

        Each basis vector is an integer row ``(m, n)``, the lattice vector
        ``2*pi*i*m + B*n``, and the offsets are (m, n) arrays; the inverse
        takes (s, t) to basis coordinates (p, q) = s * inverse[0] + t * inverse[1].
        Rounding a difference's coordinates in this basis leaves its
        nearest lattice vector among the 9 around the rounded one, however
        sheared ``B`` is.  A real ``B`` gives (2*pi*i, B) in one order or
        the other.
        """

        def vector(row):
            return 2j * math.pi * row[0] + self.pm.B * row[1]

        u, v = sorted(((1, 0), (0, 1)), key=lambda row: abs(vector(row)))
        while True:
            mu = round((vector(v) * vector(u).conjugate()).real / abs(vector(u)) ** 2)
            v = (v[0] - mu * u[0], v[1] - mu * u[1])
            if abs(vector(v)) >= abs(vector(u)):
                break
            u, v = v, u
        (a, b), (c, d) = u, v
        det = a * d - b * c  # +-1
        inverse = (np.array([det * d, -det * b]), np.array([-det * c, det * a]))
        return (u, v), inverse, (a * _OFFSET_P + c * _OFFSET_Q, b * _OFFSET_P + d * _OFFSET_Q)

    def _reduced_round(self, delta) -> np.ndarray:
        """The rounded coordinates (p, q) of ``delta`` in the reduced basis (u, v), stacked: p*u + q*v is near it."""
        s, t = self.lattice_coords(delta)
        by_s, by_t = self._reduced_basis[1]
        return np.rint(np.multiply.outer(by_s, s) + np.multiply.outer(by_t, t))

    def cover_distance(self, lift, others) -> float | np.ndarray:
        """Distance between lifts as curve points: min over lattice translates.

        For a complex ``lift`` and a complex ``others`` the result is a
        ``float``; for a 1-D array of N lifts in ``others`` it is an array
        of the N distances; for a 1-D array of L lifts in ``lift`` it
        gains a leading axis, one row per lift (an (L, N) table).  Every
        difference is rounded in the curve's reduced period basis, and the
        9 translates around that lattice vector are a leading axis, taken
        in groups whose temporaries hold at most ``_COVER_BLOCK`` elements:
        all 9 in one pass for a table of up to 455 distances, one at a
        time with a running minimum from 2,049.
        """
        lift = np.asarray(lift, dtype=complex)
        others = np.asarray(others, dtype=complex)
        if others.ndim > 1 or lift.ndim > 1:
            raise DimensionMismatch(
                f"lift and others must each be one lift or a 1-D array, got shapes {lift.shape}, {others.shape}"
            )
        delta = np.subtract.outer(lift, others)
        ((a, b), (c, d)), _, (offset_m, offset_n) = self._reduced_basis
        # the rounded coordinates in the reduced basis, back in (m, n)
        p, q = self._reduced_round(delta)
        m, n = a * p + c * q, b * p + d * q
        group = max(1, _COVER_BLOCK // max(1, delta.size))
        if group == 1:
            # scalar offsets keep every temporary the table's shape
            offsets = zip(offset_m, offset_n)
        else:
            axes = (-1,) + (1,) * delta.ndim
            offsets = [
                (offset_m[i : i + group].reshape(axes), offset_n[i : i + group].reshape(axes))
                for i in range(0, len(offset_m), group)
            ]
        least = None
        for dm, dn in offsets:
            diff = delta - (2j * math.pi * (m + dm) + self.pm.B * (n + dn))
            square = diff.real * diff.real + diff.imag * diff.imag
            if group > 1:
                square = square.min(axis=0)
            least = square if least is None else np.minimum(least, square)
        # sqrt(re*re + im*im), not abs(): hypot rounds differently in the last
        # bit; sqrt rounds monotonically, so the root of the least square is
        # the least root
        dist = np.sqrt(least)
        return dist if delta.ndim else float(dist)


class TorusCurve(SpectralCurve):
    """The curve with everything computed analytically, the one curve constructor.

    Parameters
    ----------
    B : complex
        The period, with ``MIN_RE_B <= Re B <= MAX_RE_B`` and
        ``|Im B| <= MAX_ABS_IM_B``; any other value (NaN and infinities
        included) raises ``ValueError``.  ``pm`` is its
        :class:`~crosshex.theta.PeriodMatrix`.
    base_lift : complex
        Lift of the base point P0 of the Abel map and of all integrals.
    """

    def __init__(self, B: complex, base_lift: complex = 0.0):
        B = complex(B)
        if not (MIN_RE_B <= B.real <= MAX_RE_B and abs(B.imag) <= MAX_ABS_IM_B):
            raise ValueError(
                f"period must have real part in [{MIN_RE_B:g}, {MAX_RE_B:g}] and imaginary part "
                f"in [-{MAX_ABS_IM_B:g}, {MAX_ABS_IM_B:g}], got {B!r}"
            )
        self.pm = PeriodMatrix(B)
        self.base_lift = complex(base_lift)
        # the theta zero in closed form, also the Riemann constant K:
        # pairing the series terms N and -N-1 cancels Theta exactly at i*pi + B/2
        self._z0 = 1j * math.pi + B / 2.0
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
        pole.  The translates tried lie at most one beyond the box that the
        ends' offsets from the pole span, rounded in the reduced period
        basis, so each point's nearest translate is tried and the distance
        is exact at any shear.  When some box spans more than one both
        ways, most of its translates are far, so each segment is cut into
        that many pieces, a box each, all padded to the widest.  Translates
        go in blocks of about ``_DISTANCE_BLOCK`` (piece, translate) pairs.
        """
        B = self.pm.B
        pole, a, b = np.broadcast_arrays(*(np.asarray(x, dtype=complex) for x in (pole, a, b)))
        shape = pole.shape
        # axes: segment, piece, translate
        pole, a, b = (x.reshape(-1, 1, 1) for x in (pole, a, b))
        ab = b - a
        # the rounded coordinates of the piece ends, (p or q, segment, end, 1), and each piece's spans
        ends = self._reduced_round(np.concatenate((a, b), axis=1) - pole)
        spans = np.abs(ends[:, :, 1:] - ends[:, :, :-1])
        cuts = int(spans.min(axis=0).max(initial=0))
        if cuts > 1:
            ends = self._reduced_round(a + ab * (np.arange(cuts + 1) / cuts)[:, None] - pole)
            spans = np.abs(ends[:, :, 1:] - ends[:, :, :-1])
        p_lo, q_lo = np.minimum(ends[:, :, :-1], ends[:, :, 1:]) - 1
        p_width, q_width = (int(w) + 3 for w in spans.max(axis=(1, 2, 3), initial=0))
        offsets = p_width * q_width
        (u_m, u_n), (v_m, v_n) = self._reduced_basis[0]
        denom = np.array(_square(np.hypot(ab.real, ab.imag)), dtype=float).reshape(ab.shape)
        denom[denom == 0.0] = math.inf  # a point segment: t = 0, the distance to a
        best = math.inf  # a (segment, 1, 1) array after the first block
        block = max(1, _DISTANCE_BLOCK // max(1, p_lo.size))
        for k in range(0, offsets, block):
            dp, dq = np.divmod(np.arange(k, min(k + block, offsets)), q_width)
            p, q = p_lo + dp, q_lo + dq
            m, n = u_m * p + v_m * q, u_n * p + v_n * q
            # the parts of the translate x = pole + 2*pi*i*m + B*n; CPython's zero
            # cross terms only change the sign of a zero, which the distance ignores
            x_re = pole.real + B.real * n
            x_im = (pole.imag + 2.0 * math.pi * m) + B.imag * n
            # ((x - a) * conj(ab)).real / abs(ab)**2, then min(1.0, max(0.0, t)):
            # u - v * -w is u + v * w exactly, and the clamp's zero signs are lost in hypot
            t = np.fmin(np.fmax(((x_re - a.real) * ab.real + (x_im - a.imag) * ab.imag) / denom, 0.0), 1.0)
            dist = np.hypot(x_re - (a.real + t * ab.real), x_im - (a.imag + t * ab.imag))
            best = np.fmin(best, np.fmin.reduce(dist, axis=(1, 2), keepdims=True))
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
        (value,) = self.integrals([(P, Pplus, Pminus)])
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
        (U,) = self.b_periods([(Pplus, Pminus)])
        return U

    def b_periods(self, pairs) -> list[complex]:
        """:meth:`b_period_vector` of each ``(Pplus, Pminus)``, the pairs not yet verified checked together.

        One lockstep pass tracks, from the first deterministic start
        point, a b-cycle representative of each pair not yet verified; a
        pair whose representative runs into a pole retries from the next
        start points, in passes of its own.  Each value has the bits it
        has when asked for alone.  Pairs all verified make no pass.
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
        for fs, ft in _BCYCLE_STARTS:
            if not pending:
                break
            start = self.base_lift + 2j * math.pi * fs + B * ft
            deltas = self._log_prime_deltas([(pole, start, start + B) for pair in pending for pole in pair])
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
        return periods

    def integrals(self, requests) -> list[complex]:
        """:meth:`third_kind_integral` of each ``(P, Pplus, Pminus)``, in one lockstep pass.

        Each value has the bits it has when asked for alone.  A request
        whose path runs into a pole makes the call raise the first
        :class:`PoleOnPath`; no requests make no pass.
        """
        paths = [(pole.lift, self.base_lift, P.lift) for P, *poles in requests for pole in poles]
        if not paths:
            return []
        deltas = self._log_prime_deltas(paths)
        for delta in deltas:
            if isinstance(delta, PoleOnPath):
                raise delta
        return [plus - minus for plus, minus in zip(deltas[::2], deltas[1::2])]

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
    """Validate ``K`` as the Riemann constant of ``curve``.

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
    # compared and reported as logs: the ratio itself overflows a float past e**709
    if not (resid_log - theta0_log <= math.log(_KCHECK_REL)):
        raise ConsistencyFailure(
            "Riemann constants failed the vanishing check: "
            f"log10(|Theta(-K)| / |Theta(0)|) = {(resid_log - theta0_log) / math.log(10.0):.3f}"
        )
    B = pm.B
    base = curve.base_lift
    # probe 'divisor' point at fixed fractional coordinates
    u1 = base + 2j * math.pi * 0.37 + B * 0.61
    # node 10 j + k sits at cell fractions ((j + 0.5) / 10, (k + 0.5) / 10)
    fractions = (np.arange(10) + 0.5) / 10.0
    nodes = (base + 2j * math.pi * fractions[:, None] + B * fractions).ravel()
    mantissa = theta_eval_batch(pm, (nodes - u1) - K).mantissa
    sizes = np.hypot(mantissa.real, mantissa.imag)
    ordered = np.sort(sizes)
    median = float((ordered[49] + ordered[50]) / 2.0)  # the two middle ones of 100
    cell = min(2.0 * math.pi, abs(B))
    for i in np.flatnonzero(sizes < 1e-3 * median):
        if curve.cover_distance(nodes[i], u1) > 0.25 * cell:
            raise ConsistencyFailure(
                "Riemann-constant grid scan found an unexpected theta zero away from the "
                f"probe point (peak-relative |Theta| = {sizes[i]:.3e}, median {median:.3e})"
            )


# ---------------------------------------------------------------------------
# the curve-data document
# ---------------------------------------------------------------------------

CURVE_DOC_FORMAT = "crosshex-curve-v2"

_PAIR_TYPES = (list, tuple)
_REAL_TYPES = (float, int)  # compared as exact types: a bool is an int subclass, not a number


def complex_to_json(z: complex) -> list[float]:
    """The ``[re, im]`` pair of a complex number, the one complex encoding of every document."""
    z = complex(z)
    return [z.real, z.imag]


def complex_from_json(obj, where: str) -> complex:
    """Read a ``[re, im]`` pair of finite numbers (see :func:`complex_to_json`)."""
    try:
        re, im = obj
        if type(re) in _REAL_TYPES and type(im) in _REAL_TYPES and type(obj) in _PAIR_TYPES:
            z = complex(re, im)
            if cmath.isfinite(z):
                return z
    except (TypeError, ValueError, OverflowError):
        pass
    raise SchemaError(f"{where}: expected a [re, im] pair of finite numbers, got {obj!r}")


def complex_array_from_json(pairs: list) -> np.ndarray | None:
    """:func:`complex_from_json` of every pair, as one complex array, or ``None`` if it refuses any.

    The exact types of the pairs and their parts, the conversion and the
    finiteness are each checked in one pass over all pairs.
    """
    parts = itertools.chain.from_iterable
    if not (
        set(map(type, pairs)) <= set(_PAIR_TYPES)
        and set(map(len, pairs)) <= {2}
        and set(map(type, parts(pairs))) <= set(_REAL_TYPES)
    ):
        return None
    try:
        values = np.fromiter(parts(pairs), dtype=float, count=2 * len(pairs))
    except OverflowError:  # an integer beyond double range
        return None
    return values.view(complex) if np.isfinite(values).all() else None


_CURVE_DOC_KEYS = {"genus", "B", "base_lift", "marked_points"}


def load_torus_curve(document: dict) -> tuple[TorusCurve, dict[str, SurfacePoint]]:
    """The analytic curve and its marked points, from a curve-data document.

    Any structural problem raises :class:`SchemaError`: a ``format`` other
    than ``CURVE_DOC_FORMAT``, a missing key, a genus other than 1, a ``B``
    that is not a 1x1 nested list holding a period :class:`TorusCurve`
    accepts (``"B: ..."``), a malformed or non-finite pair, an empty
    ``marked_points`` mapping, a base lift more than ``MAX_LIFT_CELLS``
    lattice cells from 0, or a marked point more than ``MAX_LIFT_CELLS``
    lattice cells from the base.  Other keys are ignored: the
    :class:`TorusCurve` computes every integral, b-period and Riemann
    constant from the period and the lifts (and validates its own
    b-periods and Riemann constant when first asked for them).
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
    B = complex_from_json(braw[0][0], "B[0][0]")
    try:
        curve = TorusCurve(B, complex_from_json(document["base_lift"], "base_lift"))
    except ValueError as exc:
        raise SchemaError(f"B: {exc}") from None

    if not isinstance(document["marked_points"], dict):
        raise SchemaError("marked_points must be a mapping")
    if not document["marked_points"]:
        raise SchemaError("marked_points must not be empty")
    marked = {
        str(name): SurfacePoint(complex_from_json(val, f"marked_points[{name}]"))
        for name, val in document["marked_points"].items()
    }

    cells = curve.lattice_coords(curve.base_lift)
    if not all(abs(c) <= MAX_LIFT_CELLS for c in cells):
        raise SchemaError(f"base_lift is {cells} lattice cells from 0 (max {MAX_LIFT_CELLS})")
    for name, point in marked.items():
        require_near_base(curve, point.lift, f"marked point {name}")
    return curve, marked


def require_near_base(curve: SpectralCurve, lift: complex, what: str) -> None:
    """Refuse a document's lift more than ``MAX_LIFT_CELLS`` lattice cells from the base (:class:`SchemaError`)."""
    cells = curve.lattice_coords(lift - curve.base_lift)
    if not all(abs(c) <= MAX_LIFT_CELLS for c in cells):
        raise SchemaError(f"{what} is {cells} lattice cells from the base (max {MAX_LIFT_CELLS})")


def export_curve_document(curve: TorusCurve, marked: dict[str, SurfacePoint]) -> dict:
    """The curve-data document of a curve and its marked points: the period, the base lift and the marked lifts."""
    return {
        "format": CURVE_DOC_FORMAT,
        "genus": 1,
        "B": [[complex_to_json(curve.pm.B)]],
        "base_lift": complex_to_json(curve.base_lift),
        "marked_points": {name: complex_to_json(pt.lift) for name, pt in marked.items()},
    }
