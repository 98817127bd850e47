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

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyFailure, DimensionMismatch, SchemaError, SingularEvaluation
from .labels import Label3, Label6, SiteCross, SiteHex, relabel_cross, relabel_hex
from .surface import SpectralCurve, SurfacePoint, complex_from_json
from .theta import ScaledArray, ScaledComplex, complex_mul, theta_eval_batch, theta_eval_scaled

_MIN_POINT_SEPARATION = 1e-6
_GENERICITY_FLOOR = 1e-10
_MIN_NORMALIZATION = 1e-12
_THETA_EPS = 1e-13

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

    def ratio(self) -> complex:
        """r_x / r_y, one value for every pair of labels."""
        value = complex(self.value)
        return complex(value / value)

    def to_json(self) -> dict:
        return {"kind": "constant", "value": [self.value.real, self.value.imag]}

    @staticmethod
    def from_json(obj: dict) -> "ConstantNormalization":
        """The normalization a document describes; a value below the floor is a malformed document."""
        if not isinstance(obj, dict) or obj.get("kind") != "constant":
            raise ValueError(f"unsupported normalization description: {obj!r}")
        try:
            return ConstantNormalization(complex_from_json(obj.get("value", [1.0, 0.0]), "value"))
        except SingularEvaluation as exc:
            raise SchemaError(str(exc)) from None


class _SpectralDataBase:
    """Shared machinery of the two spectral-data flavors.

    ``phi_scaled`` is the one evaluator of phi: a labels x probes grid,
    one theta kernel call for its numerators and one curve call for the
    third-kind integrals it has not seen before.  Immutable after
    construction; the one memo holds pure values (integrals keyed by
    (lift, pair)), so concurrent readers are safe.
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

        # one numpy dot pairs a label with U (see marked_thetas)
        self._U = np.array(
            curve.b_period_vectors([(self.marked[a], self.marked[b]) for a, b in self.basis_pairs])
        )
        self._W = -curve.abel(self.divisor[0]) - curve.riemann_constants()
        # Theta(0) has zero peak scale, so its mantissa IS its value; the
        # genericity floor compares mantissas, i.e. values relative to
        # their local Gaussian-peak scale, which stays meaningful for the
        # astronomically large arguments reached at big labels.
        theta0 = theta_eval_scaled(curve.pm, 0j, _THETA_EPS)
        self._mantissa_floor = _GENERICITY_FLOOR * abs(theta0.mantissa)
        self._integral_cache: dict[tuple, complex] = {}

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

    def marked_thetas(self, labels, points, rows) -> ScaledArray:
        """Theta at marked point ``points[i]`` and label ``labels[rows[i]]`` for each i, in one kernel call.

        ``labels`` holds one label per row and ``points`` indexes
        ``marked_names``.  Each label is paired with the b-periods ``U``
        by one numpy dot, not a Python sum: the dot accumulates with fused
        multiply-adds, and the documents hold its bits.  Each argument is
        ``(abel + dot) + W``, and each element has the bits of
        ``theta_eval_scaled`` at that argument.
        """
        dots = np.array([complex(self.label_coeffs(label) @ self._U) for label in labels], dtype=complex)
        abel = np.array([self.curve.abel(self.marked[name]) for name in self.marked_names], dtype=complex)
        return theta_eval_batch(
            self.curve.pm, (abel[points] + dots[rows]) + self._W, _THETA_EPS
        )

    def denominator_scaled(self, P: SurfacePoint) -> ScaledComplex:
        """The label-independent theta denominator, guarded by the genericity floor."""
        return self.require_generic(
            theta_eval_scaled(self.curve.pm, self.curve.abel(P) + self._W, _THETA_EPS),
            f"theta denominator at lift {P.lift}",
        )

    def require_generic(self, theta_value, what: str):
        """Raise :class:`SingularEvaluation` if a theta value sits on the divisor.

        ``theta_value`` is a ScaledComplex, or a ScaledArray whose every
        element is checked, and must come straight from the theta kernel
        (mantissa relative to the peak scale, not renormalized).
        """
        size = np.hypot(np.real(theta_value.mantissa), np.imag(theta_value.mantissa))
        if (size < self._mantissa_floor).any():
            raise SingularEvaluation(
                f"{what} is below the genericity floor "
                f"(|mantissa| = {np.min(size):.3e}; data non-generic "
                "or evaluation point too close to the divisor)"
            )
        return theta_value

    def integrals(self, requests) -> list[complex]:
        """Third-kind integral from the base to P for each ``(P, pair)`` request, in order.

        Values are memoized by (lift, pair); the ones not seen before are
        tracked in one curve call, each with the bits of a one-request call.
        """
        keys = [((P.lift, pair), P) for P, pair in requests]
        missing = {key: P for key, P in keys if key not in self._integral_cache}
        values = self.curve.third_kind_integrals(
            [(P, self.marked[a], self.marked[b]) for (_, (a, b)), P in missing.items()]
        )
        self._integral_cache.update(zip(missing, values))
        return [self._integral_cache[key] for key, _ in keys]

    def integral(self, P: SurfacePoint, pair: tuple[str, str]) -> complex:
        """Third-kind integral from the base to P for a named pole pair (see :meth:`integrals`)."""
        (value,) = self.integrals([(P, pair)])
        return value

    def phi_scaled(self, labels, probes) -> ScaledArray:
        """phi at every label and probe, with one theta kernel call for the grid.

        ``labels`` is a sequence of labels and ``probes`` a sequence of
        points; the result is a :class:`ScaledArray` of shape (labels,
        probes).  A value outside double range (a mantissa that overflowed)
        raises :class:`SingularEvaluation`.
        """
        labels = [self.validate_label(label) for label in labels]
        den = ScaledArray.of(self.denominator_scaled(P) for P in probes)
        coeffs = [self.label_coeffs(label) for label in labels]
        # marked_thetas' per-label dot, then its two additions, in order
        shift = np.array([complex(c @ self._U) for c in coeffs], dtype=complex)
        abel = np.array([self.curve.abel(P) for P in probes], dtype=complex)
        num = theta_eval_batch(
            self.curve.pm, (abel[None, :] + shift[:, None]) + self._W, _THETA_EPS
        )
        coeffs = np.array(coeffs, dtype=int).reshape(len(labels), len(self.basis_pairs))
        used = [(c, pair) for c, pair in zip(coeffs.T, self.basis_pairs) if c.any()]
        integrals = np.array(
            self.integrals((P, pair) for _, pair in used for P in probes), dtype=complex
        ).reshape(len(used), len(probes))
        w = np.zeros(num.shape, dtype=complex)
        for (c, _), row in zip(used, integrals):
            term = complex_mul(c[:, None] + 0j, row[None, :])
            w = np.where(c[:, None] != 0, w + term, w)
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            out = num.over(den).times_exp(w).times(complex(self.normalization.value))
        if not (np.isfinite(out.mantissa).all() and np.isfinite(out.log_scale).all()):
            raise SingularEvaluation("phi left double range: the normalization or a label is too large")
        return out

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
