"""Families of Baker-Akhiezer-type functions built from spectral data.

A *spectral data* bundle is a curve, six marked points, a divisor of
one point, and a normalization family ``r``.  From it we build the
meromorphic family ``phi`` indexed by integer labels: a ratio of theta
values times an exponential of third-kind integrals,

    phi_label(P) = r_label * exp( sum_i c_i(label) * I_i(P) )
                   * Theta(A(P) + sum_i c_i(label) U_i - A(D) - K)
                   / Theta(A(P) - A(D) - K),

where the pairs behind the integrals ``I_i`` and b-periods ``U_i``
are fixed per model: three plus/minus pairs for the square
lattice, four pairs anchored at the third point of each triple for the
triangular lattice.  Every ingredient is evaluated along the SAME
straight path from the base lift to the point's lift; that shared path
is what makes the exponential monodromy cancel the theta
quasi-periodicity, so the value only depends on the curve point.

Evaluations run in scaled arithmetic (mantissa + log scale): for labels
a few steps from the origin, the theta arguments acquire large real
parts and the factors individually overflow double precision while
their products stay moderate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConsistencyFailure,
    DimensionMismatch,
    PoleOnPath,
    SingularEvaluation,
)
from .labels import Label3, Label6, SiteCross, SiteHex, relabel_cross, relabel_hex
from .surface import SpectralCurve, SurfacePoint, complex_from_json
from .theta import ScaledArray, ScaledComplex, complex_mul, theta_eval_batch, theta_eval_scaled

_MIN_POINT_SEPARATION = 1e-6
_GENERICITY_FLOOR = 1e-10
_MIN_NORMALIZATION = 1e-12
_THETA_EPS = 1e-13
# lattice translates tried when re-lifting a point (lift-invariance checks)
_RELIFT_OFFSETS = ((1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (2, 1))

CROSS_MARKED_NAMES = ("P1+", "P1-", "P2+", "P2-", "P3+", "P3-")
CROSS_PAIRS = (("P1+", "P1-"), ("P2+", "P2-"), ("P3+", "P3-"))

HEX_MARKED_NAMES = ("Q1", "Q2", "Q3", "R1", "R2", "R3")
HEX_PAIRS = (("Q3", "Q1"), ("Q3", "Q2"), ("R3", "R1"), ("R3", "R2"))


@dataclass(frozen=True)
class ConstantNormalization:
    """Label-independent normalization constant: r_label = value for all labels.

    The coefficient formulas consume only ratios r_x/r_y, so a constant
    family makes every ratio 1; the value still scales phi itself and is
    kept settable to exercise that covariance.
    """

    value: complex = 1.0 + 0j

    kind = "constant"

    def __post_init__(self):
        if abs(self.value) < _MIN_NORMALIZATION:
            raise SingularEvaluation(
                f"normalization constant {self.value!r} is below the {_MIN_NORMALIZATION:g} floor"
            )

    def scale_for(self, label) -> complex:
        return complex(self.value)

    def ratio(self, label_num, label_den) -> complex:
        return complex(self.scale_for(label_num) / self.scale_for(label_den))

    def to_json(self) -> dict:
        return {"kind": "constant", "value": [self.value.real, self.value.imag]}

    @staticmethod
    def from_json(obj: dict) -> "ConstantNormalization":
        if not isinstance(obj, dict) or obj.get("kind") != "constant":
            raise ValueError(f"unsupported normalization description: {obj!r}")
        return ConstantNormalization(complex_from_json(obj.get("value", [1.0, 0.0]), "value"))


class _SpectralDataBase:
    """Shared machinery of the two spectral-data flavors.

    Immutable after construction; the caches only memoize pure
    evaluations (path integrals keyed by (lift, pair), theta denominators
    keyed by lift), so concurrent readers are safe.
    """

    model: str
    marked_names: tuple[str, ...]
    basis_pairs: tuple[tuple[str, str], ...]

    def __init__(self, curve: SpectralCurve, marked: dict[str, SurfacePoint], divisor, normalization=None):
        if set(marked) != set(self.marked_names):
            raise ValueError(
                f"{type(self).__name__} needs marked points {self.marked_names}, got {sorted(marked)}"
            )
        divisor = tuple(curve.point(p.lift if isinstance(p, SurfacePoint) else p) for p in divisor)
        if len(divisor) != 1:
            raise DimensionMismatch(f"the divisor must be exactly one point, got {len(divisor)}")
        self.curve = curve
        self.marked = {name: curve.point(marked[name].lift) for name in self.marked_names}
        self.divisor = divisor
        self.normalization = normalization or ConstantNormalization()
        self._check_separation()

        # one numpy dot pairs a label with U (see theta_argument)
        self._U = np.array(
            [curve.b_period_vector(self.marked[a], self.marked[b]) for a, b in self.basis_pairs]
        )
        self._K = curve.riemann_constants()
        self._AD = curve.abel(self.divisor[0])
        self._W = -self._AD - self._K
        self._theta0 = theta_eval_scaled(curve.pm, 0j, _THETA_EPS)
        # Theta(0) has zero peak scale, so its mantissa IS its value; the
        # genericity floor compares mantissas, i.e. values relative to
        # their local Gaussian-peak scale, which stays meaningful for the
        # astronomically large arguments reached at big labels.
        self._mantissa_floor = _GENERICITY_FLOOR * abs(self._theta0.mantissa)
        self._integral_cache: dict[tuple, complex] = {}
        # generic theta denominators by lift; a singular one is never
        # stored, so every call on it raises again
        self._denominator_cache: dict[complex, ScaledComplex] = {}

    def _check_separation(self) -> None:
        named = list(self.marked.items())
        for i, (name_a, pa) in enumerate(named):
            for name_b, pb in named[i + 1 :]:
                d = self.curve.cover_distance(pa.lift, pb.lift)
                if d < _MIN_POINT_SEPARATION:
                    raise ConsistencyFailure(
                        f"marked points {name_a} and {name_b} are only {d:.3e} apart on the curve"
                    )
        for name_a, pa in named:
            d = self.curve.cover_distance(self.divisor[0].lift, pa.lift)
            if d < _MIN_POINT_SEPARATION:
                raise ConsistencyFailure(
                    f"the divisor point collides with marked point {name_a} ({d:.3e})"
                )

    # -- label plumbing (model-specific) --------------------------------------

    def label_coeffs(self, label) -> np.ndarray:
        """Integer coefficients pairing the label with the basis pairs."""
        raise NotImplementedError

    def validate_label(self, label):
        raise NotImplementedError

    # -- evaluation primitives -------------------------------------------------

    def theta_argument(self, P: SurfacePoint, label) -> complex:
        # a numpy dot, not a Python sum: the dot accumulates with fused
        # multiply-adds, and the documents hold its bits
        return self.curve.abel(P) + complex(self.label_coeffs(label) @ self._U) + self._W

    def theta_component_scaled(self, P: SurfacePoint, label) -> ScaledComplex:
        return theta_eval_scaled(self.curve.pm, self.theta_argument(P, label), _THETA_EPS)

    def marked_thetas(self, keys) -> dict[tuple, ScaledComplex]:
        """Theta at each distinct (marked point name, label) key, in one kernel call.

        Each argument is formed by :meth:`theta_argument`, so every value
        has the bits of :meth:`theta_component_scaled` at that key.
        """
        keys = list(dict.fromkeys(keys))
        args = [
            self.theta_argument(self.marked[name], self.validate_label(label)) for name, label in keys
        ]
        return dict(zip(keys, theta_eval_batch(self.curve.pm, args, _THETA_EPS).scalars()))

    def denominator_scaled(self, P: SurfacePoint) -> ScaledComplex:
        """The label-independent theta denominator, guarded by the genericity floor."""
        val = self._denominator_cache.get(P.lift)
        if val is None:
            val = theta_eval_scaled(
                self.curve.pm, self.curve.abel(P) + self._W, _THETA_EPS
            )
            self.require_generic(val, f"theta denominator at lift {P.lift}")
            self._denominator_cache[P.lift] = val
        return val

    def require_generic(self, theta_value: ScaledComplex, what: str) -> ScaledComplex:
        """Raise :class:`SingularEvaluation` if a theta value sits on the divisor.

        ``theta_value`` must come straight from :func:`theta_eval_scaled`
        (mantissa relative to the peak scale, not renormalized).
        """
        if abs(theta_value.mantissa) < self._mantissa_floor:
            raise SingularEvaluation(
                f"{what} is below the genericity floor "
                f"(|mantissa| = {abs(theta_value.mantissa):.3e}; data non-generic "
                "or evaluation point too close to the divisor)"
            )
        return theta_value

    def integral(self, P: SurfacePoint, pair: tuple[str, str]) -> complex:
        """Third-kind integral from the base to P for a named pole pair, cached."""
        key = (P.lift, pair)
        hit = self._integral_cache.get(key)
        if hit is None:
            hit = self.curve.third_kind_integral(P, self.marked[pair[0]], self.marked[pair[1]])
            self._integral_cache[key] = hit
        return hit

    def marked_integral(self, endpoint: str, pair: tuple[str, str]) -> complex:
        return self.integral(self.marked[endpoint], pair)

    def phi_scaled(self, labels, probes):
        """phi at every label and probe, with one theta kernel call for the grid.

        ``labels`` is a sequence of labels and ``probes`` a sequence of
        points; the result is a :class:`ScaledArray` of shape (labels,
        probes).  One label at one point (a ``SurfacePoint``) gives a
        :class:`ScaledComplex`, computed by the one-value formula below;
        every grid element has that formula's bits.
        """
        if isinstance(probes, SurfacePoint):
            label, P = self.validate_label(labels), probes
            den = self.denominator_scaled(P)
            num = self.theta_component_scaled(P, label)
            w = 0j
            for c, pair in zip(self.label_coeffs(label), self.basis_pairs):
                if c != 0:
                    w += complex(c) * self.integral(P, pair)
            return num.over(den).times_exp(w).times(self.normalization.scale_for(label))
        labels = [self.validate_label(label) for label in labels]
        den = ScaledArray.of(self.denominator_scaled(P) for P in probes)
        coeffs = [self.label_coeffs(label) for label in labels]
        # theta_argument's per-label dot, then its two additions, in order
        shift = np.array([complex(c @ self._U) for c in coeffs], dtype=complex)
        abel = np.array([self.curve.abel(P) for P in probes], dtype=complex)
        num = theta_eval_batch(
            self.curve.pm, (abel[None, :] + shift[:, None]) + self._W, _THETA_EPS
        )
        coeffs = np.array(coeffs, dtype=int).reshape(len(labels), len(self.basis_pairs))
        w = np.zeros(num.shape, dtype=complex)
        for c, pair in zip(coeffs.T, self.basis_pairs):
            if not c.any():
                continue
            integrals = np.array([self.integral(P, pair) for P in probes], dtype=complex)
            term = complex_mul(c[:, None] + 0j, integrals[None, :])
            w = np.where(c[:, None] != 0, w + term, w)
        r = np.array([complex(self.normalization.scale_for(label)) for label in labels], dtype=complex)
        return num.over(den).times_exp(w).times(r[:, None])

    def psi_scaled(self, site, P: SurfacePoint) -> ScaledComplex:
        return self.phi_scaled(self.site_label(site), P)

    def site_label(self, site):
        raise NotImplementedError


class SpectralDataCross(_SpectralDataBase):
    """Spectral data for the 5-point square-lattice operator family."""

    model = "cross"
    marked_names = CROSS_MARKED_NAMES
    basis_pairs = CROSS_PAIRS

    def label_coeffs(self, label) -> np.ndarray:
        return np.asarray(label, dtype=int)

    def validate_label(self, label) -> Label3:
        if isinstance(label, Label3):
            return label
        t = tuple(int(x) for x in label)
        if len(t) != 3:
            raise DimensionMismatch(f"square-lattice label must have 3 components, got {label!r}")
        return Label3(*t)

    def site_label(self, site: SiteCross) -> Label3:
        return relabel_cross(site)


class SpectralDataHex(_SpectralDataBase):
    """Spectral data for the 6-point triangular-lattice operator family."""

    model = "hex"
    marked_names = HEX_MARKED_NAMES
    basis_pairs = HEX_PAIRS

    def label_coeffs(self, label) -> np.ndarray:
        # independent exponents: the first two of each zero-sum block,
        # paired with the four basis differentials anchored at Q3 / R3
        return np.array([label[0], label[1], label[3], label[4]], dtype=int)

    def validate_label(self, label) -> Label6:
        if not isinstance(label, Label6):
            t = tuple(int(x) for x in label)
            if len(t) != 6:
                raise DimensionMismatch(
                    f"triangular-lattice label must have 6 components, got {label!r}"
                )
            label = Label6(*t)
        return label.check_blocks()

    def site_label(self, site: SiteHex) -> Label6:
        return relabel_hex(site)


# ---------------------------------------------------------------------------
# spec-level entry points
# ---------------------------------------------------------------------------


def theta_component(sd, P: SurfacePoint, v) -> complex:
    """Theta factor at point P and label v (collapsed to a plain complex)."""
    return sd.theta_component_scaled(P, sd.validate_label(v)).as_complex()


def phi(sd, v, P: SurfacePoint) -> complex:
    """The function of label v at point P (collapsed to a plain complex)."""
    return sd.phi_scaled(v, P).as_complex()


def psi(sd, site, P: SurfacePoint) -> complex:
    """The lattice field: phi at the site's exponent label."""
    return sd.psi_scaled(site, P).as_complex()


def relift(sd, P: SurfacePoint, m: int, n: int) -> SurfacePoint:
    """The same curve point carried by a lattice-translated lift."""
    return sd.curve.point(P.lift + (2j * math.pi * m + sd.curve.pm.B * n))


@dataclass(frozen=True)
class UniquenessReport:
    """Diagnostic for 'unique up to a constant' on a numerical budget."""

    model: str
    label: tuple
    probe_count: int
    lift_invariance_error: float
    ratio_consistency_error: float
    generic: bool
    oracle_gap: float | None
    passed: bool


def uniqueness_check(sd, v, probes, tol: float = 1e-8, gap_tol: float = 1e-6) -> UniquenessReport:
    """Certify the function family numerically at label ``v``.

    Three independent angles: (1) each probe value is unchanged when the
    probe's lift is translated by a lattice vector, i.e. phi really is a
    function of the curve point; (2) value ratios between probes are
    reproduced through those independent computational paths; (3) with
    at least 8 probes, the null-space oracle at the origin site reports
    a one-dimensional kernel (gap <= gap_tol), which is the numerical
    surrogate for uniqueness of the whole construction.
    """
    if len(probes) < 3:
        raise ValueError("uniqueness_check needs at least 3 probe points")
    label = sd.validate_label(v)
    generic = True
    base_vals: list[ScaledComplex | None] = []
    alt_vals: list[ScaledComplex | None] = []
    invariance = 0.0
    for P in probes:
        try:
            val = sd.phi_scaled(label, P)
        except SingularEvaluation:
            generic = False
            base_vals.append(None)
            alt_vals.append(None)
            continue
        base_vals.append(val)
        moved = None
        for m, n in _RELIFT_OFFSETS:
            try:
                moved = sd.phi_scaled(label, relift(sd, P, m, n))
                break
            except PoleOnPath:
                continue
            except SingularEvaluation:
                generic = False
                break
        alt_vals.append(moved)
        if moved is not None and val.mantissa != 0:
            invariance = max(invariance, abs(moved.over(val).as_complex() - 1.0))

    ratio_err = 0.0
    usable = [i for i, (b, a) in enumerate(zip(base_vals, alt_vals)) if b is not None and a is not None]
    for idx, i in enumerate(usable):
        for j in usable[idx + 1 :]:
            r_base = base_vals[i].over(base_vals[j]).as_complex()
            r_alt = alt_vals[i].over(alt_vals[j]).as_complex()
            if r_base != 0:
                ratio_err = max(ratio_err, abs(r_alt / r_base - 1.0))

    gap: float | None = None
    if len(probes) >= 8 and generic:
        from . import operators  # deferred: operators depends on this module

        origin = (0,) * len(operators.MODELS[sd.model].index_names)
        try:
            _, gap, _ = operators.nullspace_oracle(sd, origin, probes)
        except (SingularEvaluation, PoleOnPath):
            gap = None

    passed = (
        generic
        and invariance <= tol
        and ratio_err <= tol
        and (gap is None or gap <= gap_tol)
    )
    return UniquenessReport(
        model=sd.model,
        label=tuple(label),
        probe_count=len(probes),
        lift_invariance_error=invariance,
        ratio_consistency_error=ratio_err,
        generic=generic,
        oracle_gap=gap,
        passed=passed,
    )
