"""Spectral curves: the analytic torus backend and the tabulated backend.

A *curve* here is the bundle of data the Baker-Akhiezer construction
consumes: a period matrix ``B``, a base point, an Abel map, normalized
third-kind integrals ``int_{P0}^{P} Omega_{A,B}`` (residue +1 at ``A``,
-1 at ``B``, vanishing a-periods), the b-period vectors of those
differentials, and the vector of Riemann constants ``K``.

Points are represented by *lifts*: a point ``P`` is a vector in C^g (a
chosen preimage in the universal cover of the Jacobian; for genus one a
single complex number, since the curve and its Jacobian coincide).  The
lift fixes the integration path - every integral runs along straight
segments between lifts - so the same lift must be shared between the
Abel map and the exponential factors built on it.  Two lifts describe
the same curve point iff they differ by a lattice vector
``2*pi*i*m + B*n``.

Genus one is handled analytically (:class:`TorusCurve`): the prime-form
surrogate ``E(u) = Theta(u - z0)``, with ``z0`` the theta zero, vanishes
exactly on the lattice, so

    int_{P0}^{P} Omega_{A,B} = [log E(u - a) - log E(u - b)]

evaluated between the lifts with a continuously tracked logarithm.
Higher genus is served by :class:`TabulatedCurve`, which replays stored
values and re-checks every cross-checkable invariant at load time.
"""

from __future__ import annotations

import cmath
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
from .theta import PeriodMatrix, ScaledComplex, theta_eval_scaled

_POLE_TOL = 1e-8
_PATH_CLEARANCE = 1e-3
_BILINEAR_TOL = 1e-8
_KCHECK_REL = 1e-10
_CONTINUATION_STACK_CAP = 64
# deterministic fractional (a, b)-cycle coordinates tried for the b-cycle start
_BCYCLE_STARTS = ((0.317, 0.473), (0.137, 0.613), (0.791, 0.215), (0.057, 0.349), (0.503, 0.867))


@dataclass(frozen=True)
class SurfacePoint:
    """A point of the curve, carried as a lift in C^g.

    The lift is stored as a tuple so points are hashable and usable as
    cache keys.  Equality of SurfacePoints is equality of lifts; use
    :meth:`SpectralCurve.cover_distance` for equality as curve points.
    """

    lift: tuple[complex, ...]

    @staticmethod
    def from_lift(value) -> "SurfacePoint":
        if np.isscalar(value) or isinstance(value, complex):
            return SurfacePoint((complex(value),))
        return SurfacePoint(tuple(complex(v) for v in np.asarray(value).reshape(-1)))

    @property
    def genus(self) -> int:
        return len(self.lift)

    @property
    def scalar(self) -> complex:
        if len(self.lift) != 1:
            raise DimensionMismatch("scalar lift is only defined for genus 1")
        return self.lift[0]

    def as_array(self) -> np.ndarray:
        return np.array(self.lift, dtype=complex)


def _point_segment_distance(q: complex, a: complex, b: complex) -> float:
    """Euclidean distance from q to the segment [a, b] in C."""
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0.0:
        return abs(q - a)
    t = ((q - a) * ab.conjugate()).real / denom
    t = min(1.0, max(0.0, t))
    return abs(q - (a + t * ab))


class SpectralCurve:
    """Shared behaviour of the two curve backends."""

    pm: PeriodMatrix
    base_lift: tuple[complex, ...]

    @property
    def genus(self) -> int:
        return self.pm.genus

    def point(self, value) -> SurfacePoint:
        p = SurfacePoint.from_lift(value)
        if p.genus != self.genus:
            raise DimensionMismatch(f"lift has length {p.genus}, curve genus is {self.genus}")
        return p

    def abel(self, P: SurfacePoint) -> np.ndarray:
        """Abel map based at P0: the lift minus the base lift."""
        if P.genus != self.genus:
            raise DimensionMismatch(f"lift has length {P.genus}, curve genus is {self.genus}")
        return P.as_array() - np.array(self.base_lift, dtype=complex)

    def lattice_coords(self, delta) -> tuple[np.ndarray, np.ndarray]:
        """Real coordinates (s, t) with delta = 2*pi*i*s + B*t.

        ``delta`` has shape (g,) or (g, N); s and t have the same shape.
        Solvable for any valid B because Re(B) is negative definite:
        the real part gives Re(B) t = Re(delta), the imaginary part then
        yields s.
        """
        d = np.asarray(delta, dtype=complex)
        if d.shape[:1] != (self.genus,):
            raise DimensionMismatch("lattice_coords argument has wrong length")
        B = self.pm.matrix
        t = np.linalg.solve(B.real, d.real)
        s = (d.imag - B.imag @ t) / (2.0 * math.pi)
        return s, t

    def cover_distance(self, lift, others) -> float | np.ndarray:
        """Distance between lifts as curve points: min over lattice translates.

        ``lift`` has shape (g,).  For ``others`` of shape (g,) the result
        is a ``float``; for a stack of shape (N, g) it is an array of the
        N distances.  Either way one vectorised pass tries the 3^(2g)
        translates around the nearest lattice vector of each difference.
        """
        g = self.genus
        a = np.asarray(lift, dtype=complex)
        b = np.asarray(others, dtype=complex)
        if a.shape != (g,) or b.shape not in ((g,), b.shape[:1] + (g,)):
            raise DimensionMismatch(f"lifts must have length {g}, the curve genus")
        delta = a - np.atleast_2d(b)
        s, t = self.lattice_coords(delta.T)
        offsets = np.indices((3,) * (2 * g)).reshape(2 * g, -1).T - 1
        m = np.rint(s.T)[:, None] + offsets[:, :g]
        n = np.rint(t.T)[:, None] + offsets[:, g:]
        # B @ n as elementwise sums (a stacked matmul rounds differently at genus >= 2)
        # and |diff|^2 as one dot per translate: the bits of np.linalg.norm(diff)
        diff = delta[:, None] - (2j * math.pi * m + (n[..., None, :] * self.pm.matrix).sum(-1))
        dist = np.sqrt(sum((x[..., None, :] @ x[..., None])[..., 0, 0] for x in (diff.real, diff.imag)))
        return dist.min(-1) if b.ndim == 2 else float(dist.min())

    def _path_clearance(self, lift: complex, poles) -> float:
        """Distance from the base-to-lift integration path to the poles (none for stored tables)."""
        return math.inf

    def sample_points(
        self, rng, count: int, avoid, min_avoid: float, min_pairwise: float, max_tries: int, poles=()
    ) -> list[SurfacePoint]:
        """Rejection-sample ``count`` lifts uniformly from the fundamental cell.

        Each draw is ``base + 2*pi*i*rng.random(g) + B @ rng.random(g)``.
        It is rejected within ``min_avoid`` cover distance of a point of
        the non-empty ``avoid``, within ``min_pairwise`` of a lift kept, and,
        when ``poles`` are given, if its base-to-lift path passes within
        1e-3 of a pole translate.  Raises :class:`SeparationFailure`
        after ``max_tries`` draws.
        """
        g = self.genus
        B = self.pm.matrix
        base = np.array(self.base_lift, dtype=complex)
        avoid = np.array([p.lift for p in avoid], dtype=complex)
        kept: list[np.ndarray] = []
        for _ in range(max_tries):
            if len(kept) == count:
                break
            lift = base + 2j * math.pi * rng.random(g) + B @ rng.random(g)
            if self.cover_distance(lift, avoid).min() < min_avoid:
                continue
            if kept and self.cover_distance(lift, np.array(kept)).min() < min_pairwise:
                continue
            if poles and self._path_clearance(complex(lift[0]), poles) < _PATH_CLEARANCE:
                continue
            kept.append(lift)
        if len(kept) < count:
            raise SeparationFailure(f"placed {len(kept)} of {count} points in {max_tries} draws")
        return [self.point(lift) for lift in kept]


class TorusCurve(SpectralCurve):
    """Genus-one curve with everything computed analytically.

    Parameters
    ----------
    pm : PeriodMatrix
        1 x 1 period matrix.
    base_lift : complex
        Lift of the base point P0 of the Abel map and of all integrals.
    eps : float
        Relative tolerance passed to theta evaluations (default 1e-13,
        leaving headroom under the package-level 1e-8..1e-10 checks).
    """

    def __init__(self, pm: PeriodMatrix, base_lift: complex = 0.0, eps: float = 1e-13):
        if pm.genus != 1:
            raise DimensionMismatch("TorusCurve requires a genus-1 period matrix")
        self.pm = pm
        self.base_lift = (complex(base_lift),)
        self.eps = float(eps)
        # exact theta zero: i*pi + B/2 (see theta.theta_zero_1d)
        self._z0 = 1j * math.pi + pm.scalar / 2.0
        self._verified_pairs: set[tuple[complex, complex]] = set()
        self._constants_validated = False

    # -- prime-form surrogate -------------------------------------------------

    def _prime(self, w: complex) -> ScaledComplex:
        """E(w) = Theta(w - z0); vanishes exactly on the period lattice."""
        return theta_eval_scaled(self.pm, w - self._z0, self.eps)

    def _path_clearance(self, lift: complex, poles) -> float:
        base = self.base_lift[0]
        return min(self._segment_pole_distance(p.scalar, base, lift) for p in poles)

    def _segment_pole_distance(self, pole: complex, a: complex, b: complex) -> float:
        """Min distance from segment [a, b] to the lattice translates of ``pole``."""
        B = self.pm.scalar
        # lattice coordinates (s, t) of a - pole and b - pole, as in lattice_coords
        ta, tb = (a - pole).real / B.real, (b - pole).real / B.real
        sa = ((a - pole).imag - B.imag * ta) / (2.0 * math.pi)
        sb = ((b - pole).imag - B.imag * tb) / (2.0 * math.pi)
        m_lo = math.floor(min(sa, sb)) - 1
        m_hi = math.ceil(max(sa, sb)) + 1
        n_lo = math.floor(min(ta, tb)) - 1
        n_hi = math.ceil(max(ta, tb)) + 1
        best = math.inf
        for m in range(m_lo, m_hi + 1):
            for n in range(n_lo, n_hi + 1):
                q = pole + 2j * math.pi * m + B * n
                best = min(best, _point_segment_distance(q, a, b))
        return best

    def _log_prime_delta(self, pole: complex, a: complex, b: complex) -> complex:
        """Continuously tracked increment of log E(u - pole) along [a, b].

        The segment is subdivided adaptively until each step changes the
        argument by at most ~1 radian and the log-magnitude by at most
        1.5, which pins the branch of the logarithm.  Raises
        :class:`PoleOnPath` if the segment passes within 1e-8 of a
        lattice translate of ``pole`` or the subdivision stack overruns.
        """
        if a == b:
            return 0j
        if self._segment_pole_distance(pole, a, b) < _POLE_TOL:
            raise PoleOnPath(
                f"integration segment passes within {_POLE_TOL:g} of a pole lift"
            )
        total = 0j
        u0 = a
        f0 = self._prime(a - pole)
        pending = [b]
        while pending:
            u1 = pending[-1]
            f1 = self._prime(u1 - pole)
            d_arg = cmath.phase(f1.mantissa / f0.mantissa)
            d_logabs = f1.log_abs - f0.log_abs
            if abs(d_arg) > 1.0 or abs(d_logabs) > 1.5:
                if len(pending) >= _CONTINUATION_STACK_CAP:
                    raise PoleOnPath("branch tracking could not resolve the path")
                pending.append(0.5 * (u0 + u1))
                continue
            total += complex(d_logabs, d_arg)
            pending.pop()
            u0, f0 = u1, f1
        return total

    # -- public surface operations --------------------------------------------

    def third_kind_integral(self, P: SurfacePoint, Pplus: SurfacePoint, Pminus: SurfacePoint) -> complex:
        """int_{P0}^{P} Omega_{Pplus,Pminus} along the straight lift path.

        The differential is normalized: residue +1 at Pplus, -1 at
        Pminus, vanishing a-periods.  The path runs from the base lift
        to ``P.lift``; the value depends on the lift (as it must - it is
        what multiplies exponentials that see the same lift).
        """
        u0 = self.base_lift[0]
        u1 = P.scalar
        plus = self._log_prime_delta(Pplus.scalar, u0, u1)
        minus = self._log_prime_delta(Pminus.scalar, u0, u1)
        return plus - minus

    def b_period_vector(self, Pplus: SurfacePoint, Pminus: SurfacePoint) -> np.ndarray:
        """b-periods of Omega_{Pplus,Pminus}: equals abel(Pplus) - abel(Pminus).

        The identity is the Riemann bilinear relation in the
        2*pi*i-normalized convention.  The first call per (lift, lift)
        pair verifies it against direct numerical continuation along a
        b-cycle representative; the comparison is modulo 2*pi*i times an
        integer because a straight representative may wrap pole
        translates.  A mismatch beyond 1e-8 raises
        :class:`ConsistencyFailure`.
        """
        U = self.abel(Pplus) - self.abel(Pminus)
        key = (Pplus.scalar, Pminus.scalar)
        if key not in self._verified_pairs:
            self._verify_b_period(Pplus.scalar, Pminus.scalar, complex(U[0]))
            self._verified_pairs.add(key)
        return U

    def _verify_b_period(self, p: complex, q: complex, expected: complex) -> None:
        B = self.pm.scalar
        base = self.base_lift[0]
        last_error: Exception | None = None
        for fs, ft in _BCYCLE_STARTS:
            start = base + 2j * math.pi * fs + B * ft
            try:
                direct = self._log_prime_delta(p, start, start + B) - self._log_prime_delta(
                    q, start, start + B
                )
            except PoleOnPath as exc:  # try the next deterministic start point
                last_error = exc
                continue
            k = (direct - expected) / (2j * math.pi)
            k_int = round(k.real)
            resid = abs(direct - expected - 2j * math.pi * k_int)
            if resid > _BILINEAR_TOL:
                raise ConsistencyFailure(
                    "b-period bilinear identity failed: direct continuation gives "
                    f"{direct:.12g}, abel difference {expected:.12g} "
                    f"(residual {resid:.3e} after removing {k_int} full 2*pi*i windings)"
                )
            return
        raise ConsistencyFailure(
            f"could not route a b-cycle representative clear of poles: {last_error}"
        )

    def riemann_constants(self) -> np.ndarray:
        """The vector of Riemann constants K = i*pi + B/2 (genus one).

        First call validates the defining property: with a probe point
        P1, the function P -> Theta(abel(P) - abel(P1) - K) vanishes at
        P = P1 (residual <= 1e-10 * |Theta(0)|) and at no other point of
        a 100-point fundamental-domain grid (threshold 1e-3 of the
        median |Theta| on the grid).
        """
        K = np.array([1j * math.pi + self.pm.scalar / 2.0])
        if not self._constants_validated:
            _validate_constants(self, K)
            self._constants_validated = True
        return K


def _validate_constants(curve: SpectralCurve, K: np.ndarray, rng_seed: int = 0x5EED) -> None:
    """Shared Riemann-constant validation (both backends).

    The point residual checks Theta(-K) ~ 0, which holds exactly for the
    constants of a based Abel map (the base point itself supplies the
    required degree g-1 divisor through the classical vanishing property; for genus
    one it is the empty divisor).  The grid scan then guards against a
    degenerate (B, K) pairing by requiring that no off-point grid node
    drops below 1e-3 of the median magnitude.
    """
    pm = curve.pm
    g = pm.genus
    theta0_log = theta_eval_scaled(pm, np.zeros(g), 1e-13).log_abs
    resid_log = theta_eval_scaled(pm, -K, 1e-13).log_abs
    if not (resid_log - theta0_log <= math.log(_KCHECK_REL)):
        raise ConsistencyFailure(
            "Riemann constants failed the vanishing check: "
            f"|Theta(-K)| / |Theta(0)| = {math.exp(resid_log - theta0_log):.3e}"
        )
    B = pm.matrix
    base = np.array(curve.base_lift, dtype=complex)
    # probe 'divisor' point at fixed fractional coordinates
    frac = np.full(g, 0.37), np.full(g, 0.61)
    u1 = base + 2j * math.pi * frac[0] + B @ frac[1]
    if g == 1:
        nodes = [
            base + 2j * math.pi * np.array([(j + 0.5) / 10.0]) + B @ np.array([(k + 0.5) / 10.0])
            for j in range(10)
            for k in range(10)
        ]
    else:
        rng = np.random.default_rng(rng_seed)
        nodes = [
            base + 2j * math.pi * rng.random(g) + B @ rng.random(g) for _ in range(100)
        ]
    logs = []
    for u in nodes:
        logs.append(theta_eval_scaled(pm, (u - u1) - K, 1e-13).log_abs)
    median_log = float(np.median(logs))
    cell = min(2.0 * math.pi, float(np.linalg.norm(B, ord=2)))
    for u, lv in zip(nodes, logs):
        if lv < median_log + math.log(1e-3):
            if curve.cover_distance(u, u1) > 0.25 * cell:
                raise ConsistencyFailure(
                    "Riemann-constant grid scan found an unexpected theta zero "
                    f"away from the probe point (log|Theta| = {lv:.3f}, median {median_log:.3f})"
                )


# ---------------------------------------------------------------------------
# tabulated backend and the curve-data document
# ---------------------------------------------------------------------------

CURVE_DOC_FORMAT = "crosshex-curve-v1"


def _c2pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


_PAIR_TYPES = (list, tuple)
_REAL_TYPES = (float, int)  # compared as exact types: a bool is an int subclass, not a number


def complex_from_json(obj, where: str) -> complex:
    """Read a ``[re, im]`` pair of numbers, the one complex encoding of every document."""
    # field documents call this once per coefficient: the message is built only on failure
    try:
        re, im = obj
    except (TypeError, ValueError):
        pass
    else:
        if type(re) in _REAL_TYPES and type(im) in _REAL_TYPES and type(obj) in _PAIR_TYPES:
            return complex(re, im)
    raise SchemaError(f"{where}: expected a [re, im] pair, got {obj!r}")


def lift_to_json(lift: tuple[complex, ...]) -> list:
    return _c2pair(lift[0]) if len(lift) == 1 else [_c2pair(z) for z in lift]


def lift_from_json(obj, genus: int, where: str) -> tuple[complex, ...]:
    """A genus-one lift is one ``[re, im]`` pair, a genus-g lift a list of g pairs."""
    if genus == 1:
        return (complex_from_json(obj, where),)
    if type(obj) not in _PAIR_TYPES or len(obj) != genus:
        raise SchemaError(f"{where}: expected a lift of {genus} [re, im] pairs")
    return tuple(complex_from_json(x, where) for x in obj)


class TabulatedCurve(SpectralCurve):
    """A curve served from a precomputed-data document.

    The Abel map is still ``lift - base_lift`` (lifts ARE Abel-frame
    coordinates), but third-kind integrals and Riemann constants come
    from stored tables, which makes the coefficient-formula pipeline work at
    any genus.  Integrals exist only for the stored (endpoint | pair)
    combinations; anything else raises :class:`UnknownPoint`.
    """

    def __init__(
        self,
        pm: PeriodMatrix,
        base_lift: tuple[complex, ...],
        marked: dict[str, SurfacePoint],
        constants: np.ndarray,
        b_periods: dict[str, np.ndarray],
        integrals: dict[str, complex],
    ):
        self.pm = pm
        self.base_lift = tuple(base_lift)
        self.marked = dict(marked)
        self._constants = np.array(constants, dtype=complex)
        self._b_periods = {k: np.array(v, dtype=complex) for k, v in b_periods.items()}
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
        key = (
            f"{self._name_of(P, 'endpoint')}|{self._name_of(Pplus, 'pole')},"
            f"{self._name_of(Pminus, 'pole')}"
        )
        try:
            return self._integrals[key]
        except KeyError:
            raise UnknownPoint(f"tabulated curve has no stored integral for {key!r}") from None

    def b_period_vector(self, Pplus: SurfacePoint, Pminus: SurfacePoint) -> np.ndarray:
        plus_name = self._lift_to_name.get(Pplus.lift)
        minus_name = self._lift_to_name.get(Pminus.lift)
        if plus_name is not None and minus_name is not None:
            stored = self._b_periods.get(f"{plus_name}/{minus_name}")
            if stored is not None:
                return stored.copy()
        # the bilinear identity holds for any pair; loader verified stored rows
        return self.abel(Pplus) - self.abel(Pminus)

    def riemann_constants(self) -> np.ndarray:
        return self._constants.copy()


_CURVE_DOC_KEYS = {
    "genus", "B", "base_lift", "marked_points", "riemann_constants", "b_periods", "third_kind_integrals"
}


def _read_curve_document(document: dict) -> TabulatedCurve:
    """Read a curve-data document into its tables, checking its structure only.

    Both backends start here.  Any structural problem raises
    :class:`SchemaError`: a wrong ``format``, a missing section, a
    malformed number, pair or lift, a key naming an unknown marked
    point, or a ``B`` that is not a valid period matrix.
    """
    if not isinstance(document, dict):
        raise SchemaError("curve document must be a JSON object")
    if document.get("format") != CURVE_DOC_FORMAT:
        raise SchemaError(f"not a {CURVE_DOC_FORMAT} document (format {document.get('format')!r})")
    missing = _CURVE_DOC_KEYS - document.keys()
    if missing:
        raise SchemaError(f"curve document is missing keys: {sorted(missing)}")
    genus = document["genus"]
    if not isinstance(genus, int) or isinstance(genus, bool) or genus < 1:
        raise SchemaError(f"genus must be a positive integer, got {genus!r}")
    braw = document["B"]
    if not isinstance(braw, list) or len(braw) != genus:
        raise SchemaError(f"B must be a {genus}x{genus} nested list of [re, im] pairs")
    rows = []
    for i, row in enumerate(braw):
        if not isinstance(row, list) or len(row) != genus:
            raise SchemaError(f"B row {i} must have {genus} entries")
        rows.append([complex_from_json(x, f"B[{i}][{j}]") for j, x in enumerate(row)])
    try:
        pm = PeriodMatrix(np.array(rows, dtype=complex))
    except ValueError as exc:
        raise SchemaError(f"B: {exc}") from None

    for section in ("marked_points", "b_periods", "third_kind_integrals"):
        if not isinstance(document[section], dict):
            raise SchemaError(f"{section} must be a mapping")
    if not document["marked_points"]:
        raise SchemaError("marked_points must not be empty")

    base = lift_from_json(document["base_lift"], genus, "base_lift")
    marked = {
        str(name): SurfacePoint(lift_from_json(val, genus, f"marked_points[{name}]"))
        for name, val in document["marked_points"].items()
    }
    constants = np.array(lift_from_json(document["riemann_constants"], genus, "riemann_constants"))
    b_periods: dict[str, np.ndarray] = {}
    for key, val in document["b_periods"].items():
        names = str(key).split("/")
        if len(names) != 2:
            raise SchemaError(f"b_periods key {key!r} must look like 'A/B'")
        if not set(names) <= marked.keys():
            raise SchemaError(f"b_periods key {key!r} names unknown marked points")
        b_periods[str(key)] = np.array(lift_from_json(val, genus, f"b_periods[{key}]"))

    integrals: dict[str, complex] = {}
    for key, val in document["third_kind_integrals"].items():
        skey = str(key)
        head, sep, tail = skey.partition("|")
        pair = tail.split(",")
        if not sep or len(pair) != 2:
            raise SchemaError(f"third_kind_integrals key {key!r} must look like 'S|A,B'")
        for nm in (head, *pair):
            if nm not in marked:
                raise SchemaError(f"third_kind_integrals key {key!r} names unknown point {nm!r}")
        integrals[skey] = complex_from_json(val, f"third_kind_integrals[{key}]")

    return TabulatedCurve(pm, base, marked, constants, b_periods, integrals)


def load_torus_curve(document: dict) -> tuple[TorusCurve, dict[str, SurfacePoint]]:
    """The analytic genus-one curve and its marked points, from a curve document.

    Only the structure is checked: a :class:`TorusCurve` validates its
    own Riemann constants and b-periods when first asked for them.
    """
    tables = _read_curve_document(document)
    if tables.genus != 1:
        raise SchemaError(f"the analytic backend is genus-1 only, got genus {tables.genus}")
    return TorusCurve(tables.pm, tables.base_lift[0]), tables.marked


def load_tabulated_curve(document: dict) -> TabulatedCurve:
    """Build a :class:`TabulatedCurve` from a curve-data document.

    Structural problems raise :class:`SchemaError`; well-formed data
    that fails a recomputable invariant (stored b-periods vs Abel
    differences to 1e-8, opposite-orientation integral pairs, the
    Riemann-constant vanishing check) raises :class:`ConsistencyFailure`.
    """
    curve = _read_curve_document(document)
    marked = curve.marked
    for key, U in curve._b_periods.items():
        a_name, b_name = key.split("/")
        diff = curve.abel(marked[a_name]) - curve.abel(marked[b_name])
        err = float(np.abs(U - diff).max())
        if err > _BILINEAR_TOL:
            raise ConsistencyFailure(
                f"stored b-period {key!r} disagrees with the Abel difference by {err:.3e}"
            )
    integrals = curve._integrals
    for key, value in integrals.items():
        endpoint, _, tail = key.partition("|")
        a_name, b_name = tail.split(",")
        flipped = f"{endpoint}|{b_name},{a_name}"
        if flipped in integrals:
            mismatch = abs(value + integrals[flipped])
            if mismatch > _BILINEAR_TOL * max(1.0, abs(value)):
                raise ConsistencyFailure(
                    f"stored integrals {key!r} and {flipped!r} are not negatives "
                    f"(|sum| = {mismatch:.3e})"
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
    rows path-consistent.
    """
    b_periods = {}
    for plus_name, minus_name in b_period_pairs:
        U = curve.b_period_vector(marked[plus_name], marked[minus_name])
        b_periods[f"{plus_name}/{minus_name}"] = lift_to_json(tuple(U))
    integrals = {}
    for endpoint, (plus_name, minus_name) in integral_specs:
        val = curve.third_kind_integral(marked[endpoint], marked[plus_name], marked[minus_name])
        integrals[f"{endpoint}|{plus_name},{minus_name}"] = _c2pair(val)
    return {
        "format": CURVE_DOC_FORMAT,
        "genus": curve.genus,
        "B": [[_c2pair(z) for z in row] for row in curve.pm.matrix],
        "base_lift": lift_to_json(curve.base_lift),
        "marked_points": {name: lift_to_json(pt.lift) for name, pt in marked.items()},
        "riemann_constants": lift_to_json(tuple(curve.riemann_constants())),
        "b_periods": b_periods,
        "third_kind_integrals": integrals,
    }


def make_torus_curve(B, base_lift: complex = 0.0, eps: float = 1e-13) -> TorusCurve:
    """Convenience constructor: accepts a scalar, array, or PeriodMatrix."""
    pm = B if isinstance(B, PeriodMatrix) else PeriodMatrix(B)
    return TorusCurve(pm, base_lift, eps)

