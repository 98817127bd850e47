"""Reference implementations and shared helpers of the test and oracle suites.

The one-value references (``ScaledComplex``, the scalar theta sums, the
one-site stencil and oracle) restate the package's array code in plain
CPython arithmetic, so the tests compare the two bit for bit.  The
fixtures live in ``conftest.py``; this module has a name of its own so
that ``tests``, ``oracles`` and ``perfbench/tests`` can be collected in
one pytest run, where a bare ``conftest`` import would find whichever
directory's conftest was imported first.
"""

import cmath
import functools
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from crosshex.bafunc import SpectralDataCross, SpectralDataHex
from crosshex.errors import NonConvergent, RankDeficient, SingularEvaluation
from crosshex.labels import relabel_cross, relabel_hex, stencil_offsets
from crosshex.operators import (
    FIELD_DOC_FORMAT,
    MIN_ORACLE_PROBES,
    MODELS,
    oracle_report,
)
from crosshex.surface import SurfacePoint
from crosshex.theta import THETA_EPS, theta_eval_scaled


# One scaled value in plain CPython arithmetic: the bit-for-bit reference of
# crosshex.theta.ScaledArray and of the one-value references below.
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


def scalars(values) -> list[ScaledComplex]:
    """The elements of a ScaledArray, in C order, as ScaledComplex values with plain complex and float parts."""
    return [
        ScaledComplex(m, s)
        for m, s in zip(values.mantissa.ravel().tolist(), values.log_scale.ravel().tolist())
    ]


def scalar(value) -> ScaledComplex:
    """The one element of a 0-d ScaledArray, as a ScaledComplex."""
    (out,) = scalars(value)
    return out


def reference_theta(pm, z, eps=THETA_EPS, min_shells=0) -> ScaledComplex:
    """Reference: the theta shell sum in numpy array arithmetic.

    This is the general-genus formulation (solve for the peak, einsum for
    the quadratic form, one numpy sum per shell) run on the 1x1 period
    and the genus-1 shells ``[[0]]`` and ``[[-r], [r]]``, to the kernel's
    tolerance unless told otherwise.
    """
    B = np.array([[pm.B]])
    zv = np.array([z])
    n0 = np.asarray(np.rint(np.linalg.solve(B.real, -zv.real)), dtype=np.int64)
    scale = float((0.5 * (n0 @ B @ n0) + n0 @ zv).real)
    acc = 0.0 + 0.0j
    quiet = 0
    for radius in range(61):
        offsets = np.array([[-radius], [radius]] if radius else [[0]], dtype=np.int64)
        Nf = (offsets + n0).astype(float)
        terms = np.exp(0.5 * np.einsum("ij,ni,nj->n", B, Nf, Nf) + Nf @ zv - scale)
        acc += complex(terms.sum())
        if float(np.abs(terms).sum()) < eps * max(1.0, abs(acc)):
            quiet += 1
            if radius >= max(1, min_shells) and quiet >= 2:
                return ScaledComplex(acc, scale)
        else:
            quiet = 0
    raise NonConvergent("reference shell sum hit the shell cap")


def reference_lattice_sum_1d(b: complex, z: complex) -> tuple[complex, float]:
    """Reference: the scalar theta kernel with one closure call per term, as ``_lattice_sum_1d`` was written.

    ``crosshex.theta._lattice_sum_1d`` must return its (mantissa, log
    scale) pair, signed zeros included, and raise where it raises.
    """
    if not cmath.isfinite(z):
        raise NonConvergent(f"theta argument is not finite: {z}")
    try:
        n0 = round(-z.real / b.real)
        scale = (0.5 * (n0 * b * n0) + n0 * z).real if n0 else 0.0

        def term(N: int) -> complex:
            return cmath.exp(0.5 * (b * N * N) + N * z - scale)

        acc = 0j
        quiet = 0
        for radius in range(61):
            if radius == 0:
                shell_sum = term(n0)
                shell_mag = abs(shell_sum)
            else:
                t0 = term(n0 - radius)
                t1 = term(n0 + radius)
                shell_sum = t0 + t1
                shell_mag = abs(t0) + abs(t1)
            acc += shell_sum
            if shell_mag < THETA_EPS * max(1.0, abs(acc)):
                quiet += 1
                if quiet >= 2:
                    return acc, scale
            else:
                quiet = 0
    except (OverflowError, ValueError) as exc:
        raise NonConvergent(f"theta lattice sum overflowed at argument {z}") from exc
    raise NonConvergent(f"lattice sum did not reach relative tail {THETA_EPS:g} within 60 shells")

# fundamental-cell fractions (s, t): lift = 2*pi*i*s + B*t
CELL_FRACTIONS = (
    (0.13, 0.71),
    (0.52, 0.18),
    (0.83, 0.42),
    (0.29, 0.88),
    (0.64, 0.55),
    (0.91, 0.07),
)
DIVISOR_FRACTION = (0.37, 0.33)

CROSS_NAME_ORDER = ("P1+", "P1-", "P2+", "P2-", "P3+", "P3-")
HEX_NAME_ORDER = ("Q1", "Q2", "Q3", "R1", "R2", "R3")


def cell_point(curve, fs, ft):
    return SurfacePoint(complex(2j * math.pi * fs + curve.pm.B * ft))


def translated(sd, P, m, n):
    """The same curve point on a lift moved by the lattice vector 2*pi*i*m + B*n."""
    return SurfacePoint(complex(P.lift + (2j * math.pi * m + sd.curve.pm.B * n)))


def brute_cover_distance(B: complex, lift_a: complex, lift_b: complex) -> float:
    """Reference cover distance: the least |delta - w| over every lattice vector w = 2*pi*i*m + B*n near delta.

    The nearest translate is no farther from delta than 0 is, so |w| <= 2|delta|:
    every such w is enumerated, row n by row n, whatever the shear of B.
    """
    delta = complex(lift_a - lift_b)
    reach = 2.0 * abs(delta) + 1.0
    rows = math.floor(reach / -B.real)
    best = abs(delta)
    for n in range(-rows, rows + 1):
        centre = -B.imag * n / (2.0 * math.pi)
        m = np.arange(math.floor(centre - reach / (2.0 * math.pi)), math.ceil(centre + reach / (2.0 * math.pi)) + 1)
        best = min(best, float(np.abs(delta - (2j * math.pi * m + B * n)).min()))
    return best


# The per-class relabelling as the package wrote it before the lattice
# tables: the reference of ``crosshex.labels.CROSS_LATTICE`` and ``HEX_LATTICE``.
def reference_relabel_cross(site: tuple[int, int]) -> tuple[int, ...]:
    """Exponent label of a square-lattice site.

    Even sites (n + m even) get ((2-n-m)/2, (n-m)/2, (n-m)/2); odd
    sites get ((3-n-m)/2, (n-m-1)/2, (n-m+1)/2).  Both are integral in
    their parity class, and stepping to any stencil neighbor changes
    the label by one of a fixed set of integer shifts.
    """
    n, m = site
    if (n + m) % 2 == 0:
        return ((2 - n - m) // 2, (n - m) // 2, (n - m) // 2)
    return ((3 - n - m) // 2, (n - m - 1) // 2, (n - m + 1) // 2)


def reference_relabel_hex(site: tuple[int, int, int]) -> tuple[int, ...]:
    """Exponent label of a triangular-lattice site, by (k - l) mod 3."""
    k, l, m = site
    r = (k - l) % 3
    if r == 0:
        t = ((k - l) // 3, (l - m) // 3, (m - k) // 3)
        label = t + t
    elif r == 1:
        label = (
            (k - l - 1) // 3,
            (l - m + 2) // 3,
            (m - k - 1) // 3,
            (k - l + 2) // 3,
            (l - m - 1) // 3,
            (m - k - 1) // 3,
        )
    else:
        label = (
            (k - l + 1) // 3,
            (l - m + 1) // 3,
            (m - k - 2) // 3,
            (k - l + 1) // 3,
            (l - m - 2) // 3,
            (m - k + 1) // 3,
        )
    assert sum(label[:3]) == 0 and sum(label[3:]) == 0, label
    return label


REFERENCE_RELABEL = {"cross": reference_relabel_cross, "hex": reference_relabel_hex}

# the neighbour each coefficient multiplies, as the package kept it before the lattice tables
REFERENCE_NEIGHBOR_OFFSETS = {
    "cross": {"a": (-1, 0), "b": (1, 0), "c": (0, -1), "d": (0, 1), "v": (0, 0)},
    "hex": {
        "a": (0, 1, -1),
        "b": (0, -1, 1),
        "c": (1, -1, 0),
        "d": (-1, 1, 0),
        "f": (1, 0, -1),
        "g": (-1, 0, 1),
    },
}


def label_shift(model, site, key):
    """relabel(neighbour) - relabel(site) for the neighbour of coefficient ``key``."""
    relabel = {"cross": relabel_cross, "hex": relabel_hex}[model]
    neighbour = stencil_offsets(model, site)[MODELS[model].coeffs.index(key)]
    return tuple(b - a for a, b in zip(relabel(site), relabel(neighbour)))


def gauged_grid(grid, gauge):
    """``grid`` with each value scaled by the gauge at its own site: what a gauge-transformed field annihilates."""
    g = np.array([gauge.at(site) for site in grid.halo.tolist()], dtype=complex)
    return replace(grid, values=grid.values.times(g[:, None]))


def halo_rows(grid, sites) -> list[int]:
    """The row of each of ``sites`` in ``grid.halo`` (and ``grid.values``)."""
    return [int(np.flatnonzero((grid.halo == site).all(axis=1))[0]) for site in sites]


def _label_coeffs(sd, label) -> np.ndarray:
    """The label's components paired with the basis pairs (its ``label_columns``), as int64."""
    return np.asarray(label, dtype=np.int64)[sd.label_columns]


def _theta_argument(sd, P, label):
    """A(P) + c(label) . U - A(D) - K, with the dot taken by numpy as the package takes it."""
    return sd.curve.abel(P) + complex(_label_coeffs(sd, label) @ sd._U) + sd._W


@functools.lru_cache(maxsize=None)
def _integral(curve, lift, plus, minus):
    return curve.third_kind_integral(SurfacePoint(lift), SurfacePoint(plus), SurfacePoint(minus))


def one_value_phi(sd, label, P):
    """phi at one label and one point, by the one-value formula: the grid's reference.

    Scalar theta calls, one third-kind integral per nonzero label
    coefficient (memoized here, by lifts), summed in basis order, and
    ScaledComplex arithmetic; ``phi_scaled`` must give these bits at
    every grid element.
    """
    den = scalar(sd.require_generic(
        theta_eval_scaled(sd.curve.pm, sd.curve.abel(P) + sd._W), "denominator"
    ))
    num = scalar(theta_eval_scaled(sd.curve.pm, _theta_argument(sd, P, label)))
    w = 0j
    for c, (plus, minus) in zip(_label_coeffs(sd, label), sd.basis_pairs):
        if c != 0:
            w += complex(c) * _integral(sd.curve, P.lift, sd.marked[plus].lift, sd.marked[minus].lift)
    return num.over(den).times_exp(w)


def _one_label_product(sd, v, term, thetas):
    out = ScaledComplex.one()
    for factor in term.theta_num:
        out = out.times(scalar(_marked_theta(sd, factor, v, thetas)))
    for factor in term.theta_den:
        den = sd.require_generic(
            _marked_theta(sd, factor, v, thetas),
            f"theta denominator at {factor.point} with shift {factor.shift}",
        )
        out = out.over(scalar(den))
    w = 0j
    for it in term.integrals:
        a, b = it.pair
        w += it.sign * _integral(sd.curve, sd.marked[it.endpoint].lift, sd.marked[a].lift, sd.marked[b].lift)
    out = out.times_exp(w)
    return out.negated() if term.sign < 0 else out


def _marked_theta(sd, factor, v, thetas):
    key = factor.point, tuple(x + d for x, d in zip(v, factor.shift))
    if key not in thetas:
        arg = _theta_argument(sd, sd.marked[factor.point], key[1])
        thetas[key] = theta_eval_scaled(sd.curve.pm, arg)
    return thetas[key]


def _one_label_ratio(sd, v, formula, thetas=None):
    """One coefficient ratio at label v, by the one-label formula in ScaledComplex arithmetic.

    Scalar theta calls (memoized in ``thetas`` by marked point and
    shifted label), one ``third_kind_integral`` per integral term, and the
    main term times the bracket sum, signed.
    """
    thetas = {} if thetas is None else thetas
    v = tuple(v)
    out = _one_label_product(sd, v, formula.main, thetas)
    if formula.bracket:
        acc = _one_label_product(sd, v, formula.bracket[0], thetas)
        for term in formula.bracket[1:]:
            acc = acc.plus(_one_label_product(sd, v, term, thetas))
        out = out.times(acc)
    return out.negated() if formula.sign < 0 else out


def one_site_stencil(sd, site, thetas=None):
    """The stencil values at one site, one formula at a time: the array build's reference.

    The class's unit is exactly 1 and its forced zeros exactly 0;
    ``build_field`` must give these bits at every site.
    """
    thetas = {} if thetas is None else thetas
    model = MODELS[sd.model]
    s = model.lattice.site(*site)
    cls = model.lattice.classes(s)
    vals = {model.units[cls]: ScaledComplex.one(), **{k: ScaledComplex(0j, 0.0) for k in model.zeros[cls]}}
    for formula in model.formulas[cls]:
        vals[formula.coeff] = _one_label_ratio(sd, REFERENCE_RELABEL[sd.model](s), formula, thetas)
    return [vals[k] for k in model.coeffs]


def reference_as_dict(stencil) -> dict[str, complex]:
    """A stencil's plain coefficients, one ScaledComplex at a time: the array writers' reference."""
    out = {}
    for key, val in zip(stencil.model.coeffs, scalars(stencil.values)):
        c = val.as_complex()
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise SingularEvaluation(
                f"coefficient {key} exceeds double range (log magnitude "
                f"{val.log_abs:.1f}); the window is too large for a plain-number export"
            )
        out[key] = c
    return out


def reference_document(field, *, spectral_data_ref="", seed=None) -> dict:
    """The field document by the per-site walk: ``field_to_document``'s and the text writer's reference."""
    sites_json = []
    for site in sorted(field.sites):
        coeffs = reference_as_dict(field.stencil(site))
        sites_json.append({"site": list(site), "coeffs": {k: [c.real, c.imag] for k, c in coeffs.items()}})
    return {
        "format": FIELD_DOC_FORMAT,
        "model": field.model,
        "window": {"radius": field.radius},
        "sites": sites_json,
        "spectral_data_ref": spectral_data_ref,
        "seed": seed,
    }


def reference_csv(field) -> str:
    """The CSV by the per-site walk: ``field_to_csv``'s reference."""
    model = MODELS[field.model]
    header = list(model.lattice.index_names)
    for k in model.coeffs:
        header += [f"re_{k}", f"im_{k}"]
    lines = [",".join(header)]
    for site in sorted(field.sites):
        coeffs = reference_as_dict(field.stencil(site))
        row = [str(x) for x in site]
        for k in model.coeffs:
            row += ["%.17g" % coeffs[k].real, "%.17g" % coeffs[k].imag]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def spectral_data(model, curve):
    """Spectral data of ``model`` on ``curve``, with the fixture's marked and divisor points."""
    if model == "cross":
        return _spectral(SpectralDataCross, CROSS_NAME_ORDER, curve)
    return _spectral(SpectralDataHex, HEX_NAME_ORDER, curve)


def drawn_spectral_data(model, curve):
    """Spectral data with the marked and divisor points drawn as gen-spectral draws them (fixed seed).

    The fixture's points sit at rational cell fractions, where at radius
    40 some theta denominator of the window lands on the theta divisor
    to within rounding.
    """
    cls = MODELS[model].spectral_class
    names = cls.marked_names
    points = curve.sample_points(
        np.random.default_rng(4), len(names) + 1, avoid=[SurfacePoint(curve.base_lift)],
        min_avoid=0.1, min_pairwise=0.1,
    )
    return cls(curve, dict(zip(names, points)), points[len(names):])


def genus_two_document(curve_doc: dict) -> dict:
    """A curve document reshaped as genus 2: a 2x2 B, every lift a list of 2 pairs."""
    doc = json.loads(json.dumps(curve_doc))
    doc["genus"] = 2
    doc["B"] = [[[-5.0, 0.7], [1.2, -0.4]], [[1.2, -0.4], [-4.2, 1.1]]]
    doc["base_lift"] = [doc["base_lift"], [0.0, 0.0]]
    doc["marked_points"] = {name: [pair, [0.0, 0.0]] for name, pair in doc["marked_points"].items()}
    return doc


def _spectral(cls, names, curve):
    marked = {
        name: cell_point(curve, fs, ft)
        for name, (fs, ft) in zip(names, CELL_FRACTIONS)
    }
    divisor = [cell_point(curve, *DIVISOR_FRACTION)]
    return cls(curve, marked, divisor)


def reference_nullspace_oracle(model_name, site, grid):
    """One site's null-space oracle from ``grid``, one site at a time: ``oracle_report``'s reference.

    Returns the oracle's stencil, its gap and its term shares, or raises
    what the one-site computation raises (``ValueError``,
    ``RankDeficient``, ``LinAlgError``).  The kernel values are numpy
    scalars, so the unit division takes numpy's complex arithmetic.
    """
    if len(grid.probes) < MIN_ORACLE_PROBES:
        raise ValueError(f"nullspace_oracle needs at least {MIN_ORACLE_PROBES} probe points")
    model = MODELS[model_name]
    s_obj = model.lattice.site(*site)
    ncols = len(model.coeffs)
    rows = halo_rows(grid, stencil_offsets(model.name, s_obj))
    # probes by coefficients, C-ordered: numpy's elementwise kernels below
    # round the same way only on the same memory layout
    logs, phases = (np.ascontiguousarray(x[rows].T) for x in grid.polar)
    col_scale = logs.max(axis=0)
    balanced = logs - col_scale[None, :]
    row_scale = balanced.max(axis=1)
    balanced = balanced - row_scale[:, None]
    with np.errstate(under="ignore"):
        matrix = phases * np.exp(balanced)
    _u, sing, vh = np.linalg.svd(matrix)
    if sing[-2] < 1e-6 * sing[0]:
        raise RankDeficient(
            "null-space oracle found a kernel of dimension >= 2 "
            f"(second singular value {sing[-2]:.3e} vs largest {sing[0]:.3e}); "
            "probes are degenerate or the spectral data is non-generic"
        )
    gap = float(sing[-1] / sing[-2])
    kernel = vh[-1].conj()
    scaled_kernel = [ScaledComplex(kernel[j], -float(col_scale[j])) for j in range(ncols)]
    unit = model.units[model.lattice.classes(s_obj)]
    u_idx = model.coeffs.index(unit)
    kernel_mags = np.abs(kernel)
    if kernel_mags[u_idx] < 1e-12 * kernel_mags.max():
        raise RankDeficient(
            f"oracle kernel vector has a vanishing unit coefficient {unit!r}; "
            "cannot normalize to the canonical stencil"
        )
    unit_val = scaled_kernel[u_idx]
    values = [ScaledComplex.one() if j == u_idx else scaled_kernel[j].over(unit_val) for j in range(ncols)]
    terms = np.abs(matrix * kernel[None, :])
    sums = terms.sum(axis=1, keepdims=True)
    shares = np.divide(terms, sums, out=np.zeros_like(terms), where=sums > 0).max(axis=0)
    return values, gap, shares


def _worse(a, b):
    """``max(a, b)``, except that a NaN wins."""
    return a if math.isnan(a) or b <= a else b


def reference_oracle_report(field, grid):
    """``oracle_report``'s measures at the sites of ``grid``, one site and one coefficient at a time.

    Returns ``(entries, maxima, failures, stencils)``: per site its
    ``(site, gap, mismatch, forced-zero excess)``, then the three maxima,
    the failing sites at the fixed tolerances, and each site's oracle
    values.  Each ratio's mantissa is a numpy scalar, so it is taken in
    numpy's complex arithmetic.
    """
    entries, failures, stencils = [], [], []
    max_gap = max_mismatch = max_zero = 0.0
    for site in grid.sites:
        t_row = field.stencil(site).values
        values, gap, shares = reference_nullspace_oracle(field.model, site, grid)
        o_mantissa = np.array([v.mantissa for v in values], dtype=complex)
        o_scale = np.array([v.log_scale for v in values], dtype=float)
        mismatch = 0.0
        zero_excess = 0.0
        for t_m, t_s, o_m, o_s, share in zip(
            t_row.mantissa.tolist(), t_row.log_scale.tolist(), o_mantissa, o_scale, shares
        ):
            if t_m == 0:
                zero_excess = _worse(zero_excess, float(share))
                continue
            ratio = ScaledComplex(o_m, o_s).over(ScaledComplex(t_m, t_s))
            mismatch = _worse(mismatch, abs(ratio.as_complex() - 1.0))
        entries.append((site, gap, float(mismatch), float(zero_excess)))
        stencils.append(values)
        max_gap = _worse(max_gap, gap)
        max_mismatch = _worse(max_mismatch, mismatch)
        max_zero = _worse(max_zero, zero_excess)
        if not (gap <= 1e-6 and mismatch <= 1e-6 and zero_excess <= 1e-8):
            failures.append(site)
    return entries, (max_gap, float(max_mismatch), float(max_zero)), failures, stencils


def assert_oracle_matches_reference(field, grid):
    """``oracle_report`` and :func:`reference_oracle_report` agree by ``repr``; returns the report."""
    report = oracle_report(field, grid)
    entries, maxima, failures, stencils = reference_oracle_report(field, grid)
    got = [(e.site, e.gap, e.max_mismatch, e.forced_zero_excess) for e in report.entries]
    got_maxima = (report.max_gap, report.max_mismatch, report.max_forced_zero_excess)
    assert repr((got, got_maxima, list(report.failures))) == repr((entries, maxima, failures))
    want = [[(complex(v.mantissa), float(v.log_scale)) for v in row] for row in stencils]
    rows = [[(v.mantissa, v.log_scale) for v in scalars(report.coeffs[i])] for i in range(len(grid.sites))]
    assert repr(rows) == repr(want)
    return report
