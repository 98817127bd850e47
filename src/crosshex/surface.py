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
    UnknownPoint,
)
from .theta import PeriodMatrix, ScaledComplex, theta_eval_scaled

_POLE_TOL = 1e-8
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

        Solvable for any valid B because Re(B) is negative definite:
        the real part gives Re(B) t = Re(delta), the imaginary part then
        yields s.
        """
        d = np.asarray(delta, dtype=complex).reshape(-1)
        if d.shape[0] != self.genus:
            raise DimensionMismatch("lattice_coords argument has wrong length")
        B = self.pm.matrix
        t = np.linalg.solve(B.real, d.real)
        s = (d.imag - B.imag @ t) / (2.0 * math.pi)
        return s, t

    def cover_distance(self, lift_a, lift_b) -> float:
        """Distance between two lifts as curve points: min over lattice translates."""
        a = np.asarray(lift_a, dtype=complex).reshape(-1)
        b = np.asarray(lift_b, dtype=complex).reshape(-1)
        delta = a - b
        s, t = self.lattice_coords(delta)
        best = math.inf
        B = self.pm.matrix
        g = self.genus
        from itertools import product as _product

        for offs in _product((-1, 0, 1), repeat=2 * g):
            m = np.rint(s).astype(int) + np.array(offs[:g])
            n = np.rint(t).astype(int) + np.array(offs[g:])
            lat = 2j * math.pi * m + B @ n
            best = min(best, float(np.linalg.norm(delta - lat)))
        return best


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

    def _segment_pole_distance(self, pole: complex, a: complex, b: complex) -> float:
        """Min distance from segment [a, b] to the lattice translates of ``pole``."""
        B = self.pm.scalar
        sa, ta = self.lattice_coords([a - pole])
        sb, tb = self.lattice_coords([b - pole])
        m_lo = math.floor(min(sa[0], sb[0])) - 1
        m_hi = math.ceil(max(sa[0], sb[0])) + 1
        n_lo = math.floor(min(ta[0], tb[0])) - 1
        n_hi = math.ceil(max(ta[0], tb[0])) + 1
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


def _pair2c(obj, where: str) -> complex:
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in obj)
    ):
        raise SchemaError(f"{where}: expected a [re, im] pair, got {obj!r}")
    return complex(obj[0], obj[1])


def _lift2json(lift: tuple[complex, ...]) -> list:
    if len(lift) == 1:
        return _c2pair(lift[0])
    return [_c2pair(z) for z in lift]


def _json2lift(obj, genus: int, where: str) -> tuple[complex, ...]:
    if (
        isinstance(obj, (list, tuple))
        and len(obj) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in obj)
    ):
        if genus != 1:
            raise SchemaError(f"{where}: scalar lift given for genus {genus}")
        return (complex(obj[0], obj[1]),)
    if not isinstance(obj, (list, tuple)) or len(obj) != genus:
        raise SchemaError(f"{where}: expected a lift of length {genus}")
    return tuple(_pair2c(x, where) for x in obj)


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


def load_tabulated_curve(document: dict) -> TabulatedCurve:
    """Build a :class:`TabulatedCurve` from a curve-data document.

    Structural problems raise :class:`SchemaError`; well-formed data
    that fails a recomputable invariant (B symmetry/definiteness, stored
    b-periods vs Abel differences to 1e-8, opposite-orientation integral
    pairs, the Riemann-constant vanishing check) raises
    :class:`ConsistencyFailure`.
    """
    if not isinstance(document, dict):
        raise SchemaError("curve document must be a JSON object")
    required = {
        "genus",
        "B",
        "base_lift",
        "marked_points",
        "riemann_constants",
        "b_periods",
        "third_kind_integrals",
    }
    missing = required - document.keys()
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
        rows.append([_pair2c(x, f"B[{i}][{j}]") for j, x in enumerate(row)])
    try:
        pm = PeriodMatrix(np.array(rows, dtype=complex))
    except DimensionMismatch as exc:
        raise SchemaError(str(exc)) from None
    except ValueError as exc:
        raise ConsistencyFailure(f"stored B is invalid: {exc}") from None

    base = _json2lift(document["base_lift"], genus, "base_lift")
    marked_raw = document["marked_points"]
    if not isinstance(marked_raw, dict) or not marked_raw:
        raise SchemaError("marked_points must be a non-empty mapping")
    marked = {
        str(name): SurfacePoint(_json2lift(val, genus, f"marked_points[{name}]"))
        for name, val in marked_raw.items()
    }
    constants = np.array(_json2lift(document["riemann_constants"], genus, "riemann_constants"))

    b_periods_raw = document["b_periods"]
    if not isinstance(b_periods_raw, dict):
        raise SchemaError("b_periods must be a mapping")
    b_periods: dict[str, np.ndarray] = {}
    for key, val in b_periods_raw.items():
        parts = str(key).split("/")
        if len(parts) != 2:
            raise SchemaError(f"b_periods key {key!r} must look like 'A/B'")
        b_periods[str(key)] = np.array(_json2lift(val, genus, f"b_periods[{key}]"))

    integrals_raw = document["third_kind_integrals"]
    if not isinstance(integrals_raw, dict):
        raise SchemaError("third_kind_integrals must be a mapping")
    integrals: dict[str, complex] = {}
    for key, val in integrals_raw.items():
        skey = str(key)
        head, sep, tail = skey.partition("|")
        pair = tail.split(",")
        if not sep or len(pair) != 2:
            raise SchemaError(f"third_kind_integrals key {key!r} must look like 'S|A,B'")
        integrals[skey] = _pair2c(val, f"third_kind_integrals[{key}]")

    curve = TabulatedCurve(pm, base, marked, constants, b_periods, integrals)

    # recomputable invariants
    for key, U in b_periods.items():
        a_name, b_name = key.split("/")
        if a_name not in marked or b_name not in marked:
            raise SchemaError(f"b_periods key {key!r} names unknown marked points")
        diff = curve.abel(marked[a_name]) - curve.abel(marked[b_name])
        err = float(np.abs(U - diff).max())
        if err > _BILINEAR_TOL:
            raise ConsistencyFailure(
                f"stored b-period {key!r} disagrees with the Abel difference by {err:.3e}"
            )
    for key in integrals:
        endpoint, _, tail = key.partition("|")
        a_name, b_name = tail.split(",")
        for nm in (endpoint, a_name, b_name):
            if nm not in marked:
                raise SchemaError(f"third_kind_integrals key {key!r} names unknown point {nm!r}")
        flipped = f"{endpoint}|{b_name},{a_name}"
        if flipped in integrals:
            mismatch = abs(integrals[key] + integrals[flipped])
            if mismatch > _BILINEAR_TOL * max(1.0, abs(integrals[key])):
                raise ConsistencyFailure(
                    f"stored integrals {key!r} and {flipped!r} are not negatives "
                    f"(|sum| = {mismatch:.3e})"
                )
    _validate_constants(curve, constants)
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
        b_periods[f"{plus_name}/{minus_name}"] = _lift2json(tuple(U))
    integrals = {}
    for endpoint, (plus_name, minus_name) in integral_specs:
        val = curve.third_kind_integral(marked[endpoint], marked[plus_name], marked[minus_name])
        integrals[f"{endpoint}|{plus_name},{minus_name}"] = _c2pair(val)
    return {
        "format": CURVE_DOC_FORMAT,
        "genus": curve.genus,
        "B": [[_c2pair(z) for z in row] for row in curve.pm.matrix],
        "base_lift": _lift2json(curve.base_lift),
        "marked_points": {name: _lift2json(pt.lift) for name, pt in marked.items()},
        "riemann_constants": _lift2json(tuple(curve.riemann_constants())),
        "b_periods": b_periods,
        "third_kind_integrals": integrals,
    }


def make_torus_curve(B, base_lift: complex = 0.0, eps: float = 1e-13) -> TorusCurve:
    """Convenience constructor: accepts a scalar, array, or PeriodMatrix."""
    pm = B if isinstance(B, PeriodMatrix) else PeriodMatrix(B)
    return TorusCurve(pm, base_lift, eps)

