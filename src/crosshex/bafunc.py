"""Families of Baker-Akhiezer-type functions built from spectral data.

A *spectral data* bundle is a curve, six marked points and a divisor of
one point.  From it we build the meromorphic family ``phi`` indexed by
integer labels: a ratio of theta values times an exponential of
third-kind integrals,

    phi_label(P) = exp( sum_i c_i(label) * I_i(P) )
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

import numpy as np

from .errors import ConsistencyFailure, DimensionMismatch, SingularEvaluation
from .labels import CROSS_LATTICE, HEX_LATTICE, Lattice
from .surface import SpectralCurve, SurfacePoint
from .theta import ScaledArray, complex_mul, theta_eval_batch, theta_eval_scaled

_MIN_POINT_SEPARATION = 1e-6
_GENERICITY_FLOOR = 1e-10


class _SpectralDataBase:
    """Shared machinery of the two spectral-data flavors.

    ``phi_scaled`` is the one evaluator of phi: a labels x probes grid,
    one theta kernel call for its numerators, one for the denominators
    not yet tabled and one :meth:`integrals` call for the third-kind
    integrals.  The object holds two tables: the integrals it has
    tracked, keyed by (lift, pole names) and filled only by
    :meth:`integrals`, and the theta denominators, keyed by lift and
    filled only by :meth:`_table_denominators`; everything else is fixed
    at construction.  Two concurrent calls may compute one entry twice,
    and store the same bits.
    """

    model: str
    marked_names: tuple[str, ...]
    basis_pairs: tuple[tuple[str, str], ...]
    lattice: Lattice  # the label width, blocks and name in refusals
    label_columns: list[int]  # the label components paired with the basis pairs, in order

    def __init__(self, curve: SpectralCurve, marked: dict[str, SurfacePoint], divisor):
        if set(marked) != set(self.marked_names):
            raise ValueError(
                f"{type(self).__name__} needs marked points {self.marked_names}, got {sorted(marked)}"
            )
        divisor = tuple(divisor)
        if len(divisor) != 1:
            raise DimensionMismatch(f"the divisor must be exactly one point, got {len(divisor)}")
        self.curve = curve
        self.marked = {name: marked[name] for name in self.marked_names}
        self.divisor = divisor
        self._integrals: dict[tuple[complex, str, str], complex] = {}
        self._denominators: dict[complex, ScaledArray] = {}
        self._check_separation()

        # the labels are paired with U in one stacked product (see _label_thetas)
        self._U = np.array(curve.b_periods([(self.marked[a], self.marked[b]) for a, b in self.basis_pairs]))
        self._W = -curve.abel(self.divisor[0]) - curve.riemann_constants()
        # Theta(0) has zero peak scale, so its mantissa IS its value; the
        # genericity floor compares mantissas, i.e. values relative to
        # their local Gaussian-peak scale, which stays meaningful for the
        # astronomically large arguments reached at big labels.
        theta0 = theta_eval_scaled(curve.pm, 0j)
        self._mantissa_floor = _GENERICITY_FLOOR * abs(complex(theta0.mantissa))

    def _check_separation(self) -> None:
        names = list(self.marked)
        lifts = [p.lift for p in self.marked.values()]
        # row i, column j: from marked point i (the divisor point last) to marked point j
        table = self.curve.cover_distance(lifts + [self.divisor[0].lift], lifts).tolist()
        for i, name_a in enumerate(names):
            for name_b, d in zip(names[i + 1 :], table[i][i + 1 :]):
                if d < _MIN_POINT_SEPARATION:
                    raise ConsistencyFailure(
                        f"marked points {name_a} and {name_b} are only {d:.3e} apart on the curve"
                    )
        for name_a, d in zip(names, table[-1]):
            if d < _MIN_POINT_SEPARATION:
                raise ConsistencyFailure(
                    f"the divisor point collides with marked point {name_a} ({d:.3e})"
                )

    # -- label plumbing ----------------------------------------------------

    def label_array(self, labels) -> np.ndarray:
        """The labels as one (labels, width) int64 array, the width being ``lattice.M.shape[1]``.

        Accepted is what numpy reads as such an integer array within int64
        whose blocks each sum to zero; no labels, in any form, give shape
        (0, width).  Anything else is walked label by label, and
        its first bad label refused (see :meth:`_label_row`).
        """
        try:
            a = np.asarray(labels)
        except ValueError:  # labels of different widths
            a = None
        width, blocks = self.lattice.M.shape[1], self.lattice.label_blocks
        ok = a is not None and a.dtype.kind == "i" and a.shape[1:] == (width,)
        if ok and blocks and a.size:
            # entries under 2**61 in size sum exactly in int64; larger ones are summed as Python ints below
            ok = a.min() > -(2**61) and a.max() < 2**61 and not a.reshape(-1, blocks, 3).sum(axis=2).any()
        if not ok:
            a = np.array([self._label_row(label) for label in labels], dtype=np.int64).reshape(-1, width)
        return a.astype(np.int64, copy=False)

    def _label_row(self, label) -> list[int]:
        """One label's components as Python ints, or its refusal.

        A wrong width raises :class:`DimensionMismatch`; a component that
        is not an integer within int64, or a block that does not sum to
        zero, raises ``ValueError``.
        """
        lattice, row = self.lattice, np.asarray(label)
        if row.shape != (lattice.M.shape[1],):
            raise DimensionMismatch(
                f"{lattice.name}-lattice label must have {lattice.M.shape[1]} components, got {label!r}"
            )
        if row.dtype.kind != "i" and not (row.dtype.kind == "u" and row.max() < 2**63):
            raise ValueError(
                f"{lattice.name}-lattice label components must be integers within int64, got {label!r}"
            )
        row = row.tolist()
        if any(sum(row[i : i + 3]) for i in range(0, 3 * lattice.label_blocks, 3)):
            raise ValueError(f"label blocks must each sum to zero: {tuple(row)}")
        return row

    # -- evaluation primitives -------------------------------------------------

    def _label_thetas(self, abel, coeffs) -> ScaledArray:
        """Theta at ``(abel + c . U) + W`` for each label coefficient row ``c`` of ``coeffs``, in one kernel call.

        ``abel`` and ``coeffs[..., 0]`` broadcast to the shape of the
        result.  The labels' coefficients are paired with the b-periods
        ``U`` in one stacked product of (1, k) @ (k, 1) items, which numpy
        takes with the dot kernel of a one-label ``c @ U``: the dot
        accumulates with fused multiply-adds, and the documents hold its
        bits, as they hold the order of the two additions (a
        matrix-vector ``coeffs @ U`` does not give those bits).  Each
        element has the bits of ``theta_eval_scaled`` at its argument.
        """
        dots = (coeffs[..., None, :] @ self._U[:, None])[..., 0, 0]
        return theta_eval_batch(self.curve.pm, (abel + dots) + self._W)

    def marked_thetas(self, labels, points) -> ScaledArray:
        """Theta at marked point ``points[i]`` and label ``labels[i]`` for each i, in one kernel call.

        ``labels`` holds one label per row (see :meth:`label_array`) and
        ``points`` indexes ``marked_names``.
        """
        coeffs = self.label_array(labels)[:, self.label_columns]
        abel = np.array([self.curve.abel(self.marked[name]) for name in self.marked_names], dtype=complex)
        return self._label_thetas(abel[points], coeffs)

    def denominator_scaled(self, P: SurfacePoint) -> ScaledArray:
        """The label-independent theta denominator at P, a 0-d ScaledArray guarded by the genericity floor."""
        if P.lift not in self._denominators:
            self._table_denominators([P])
        return self._denominators[P.lift]

    def _table_denominators(self, points) -> None:
        """Table the theta denominator at each point not yet tabled, from one kernel call.

        Each value has the bits of ``theta_eval_scaled`` at the point's
        ``abel + W``.  The first point whose value is below the genericity
        floor, in the order given, is refused, and then nothing is tabled.
        """
        missing = {P.lift: P for P in points if P.lift not in self._denominators}
        if not missing:
            return
        lifts = list(missing)
        abel = np.array([self.curve.abel(P) for P in missing.values()], dtype=complex)
        values = theta_eval_batch(self.curve.pm, abel + self._W)
        low = np.flatnonzero(np.hypot(values.mantissa.real, values.mantissa.imag) < self._mantissa_floor)
        if low.size:
            self.require_generic(values[low[0]], f"theta denominator at lift {lifts[low[0]]}")
        self._denominators.update((lift, values[k]) for k, lift in enumerate(lifts))

    def require_generic(self, theta_value: ScaledArray, what: str) -> ScaledArray:
        """Raise :class:`SingularEvaluation` if a theta value sits on the divisor.

        Every element of ``theta_value`` is checked; it must come straight
        from the theta kernel (mantissa relative to the peak scale, not
        renormalized).
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

        The requests not yet in the table are tracked in one curve call,
        each with the bits of a one-request call, and kept in the table.
        """
        keys = [(P.lift, a, b) for P, (a, b) in requests]
        missing = [key for key in dict.fromkeys(keys) if key not in self._integrals]
        values = self.curve.integrals([(SurfacePoint(lift), self.marked[a], self.marked[b]) for lift, a, b in missing])
        self._integrals.update(zip(missing, values))
        return [self._integrals[key] for key in keys]

    def integral(self, P: SurfacePoint, pair: tuple[str, str]) -> complex:
        """Third-kind integral from the base to P for a named pole pair (see :meth:`integrals`)."""
        (value,) = self.integrals([(P, pair)])
        return value

    def phi_scaled(self, labels, probes) -> ScaledArray:
        """phi at every label and probe, with one theta kernel call for the grid and one for its new denominators.

        ``labels`` holds one label per row (see :meth:`label_array`) and
        ``probes`` is a sequence of points; the result is a
        :class:`ScaledArray` of shape (labels, probes).  A value outside
        double range (a mantissa that overflowed) raises
        :class:`SingularEvaluation`.
        """
        coeffs = self.label_array(labels)[:, self.label_columns]
        self._table_denominators(probes)
        dens = [self.denominator_scaled(P) for P in probes]
        den = ScaledArray(
            np.array([d.mantissa for d in dens], dtype=complex),
            np.array([d.log_scale for d in dens], dtype=float),
        )
        abel = np.array([self.curve.abel(P) for P in probes], dtype=complex)
        num = self._label_thetas(abel, coeffs[:, None, :])
        used = [(c, pair) for c, pair in zip(coeffs.T, self.basis_pairs) if c.any()]
        integrals = np.array(
            self.integrals((P, pair) for _, pair in used for P in probes), dtype=complex
        ).reshape(len(used), len(probes))
        w = np.zeros(num.shape, dtype=complex)
        for (c, _), row in zip(used, integrals):
            term = complex_mul(c[:, None] + 0j, row[None, :])
            w = np.where(c[:, None] != 0, w + term, w)
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            out = num.over(den).times_exp(w)
        if not (np.isfinite(out.mantissa).all() and np.isfinite(out.log_scale).all()):
            raise SingularEvaluation("phi left double range: a label is too large")
        return out


class SpectralDataCross(_SpectralDataBase):
    """Spectral data for the 5-point square-lattice operator family."""

    model = "cross"
    marked_names = ("P1+", "P1-", "P2+", "P2-", "P3+", "P3-")
    basis_pairs = (("P1+", "P1-"), ("P2+", "P2-"), ("P3+", "P3-"))
    lattice = CROSS_LATTICE
    label_columns = [0, 1, 2]


class SpectralDataHex(_SpectralDataBase):
    """Spectral data for the 6-point triangular-lattice operator family."""

    model = "hex"
    marked_names = ("Q1", "Q2", "Q3", "R1", "R2", "R3")
    basis_pairs = (("Q3", "Q1"), ("Q3", "Q2"), ("R3", "R1"), ("R3", "R2"))
    lattice = HEX_LATTICE
    # independent exponents: the first two of each zero-sum block, paired
    # with the four basis differentials anchored at Q3 / R3
    label_columns = [0, 1, 3, 4]
