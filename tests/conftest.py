"""Shared fixtures: one genus-one curve with well-separated spectral data.

Everything is session-scoped on purpose: the spectral-data objects
memoize pure evaluations (path integrals, function values), so sharing
them across test modules keeps the whole suite fast without any
cross-test state leaking — the caches are value caches only.
"""

import functools
import json
import math

import numpy as np
import pytest

from crosshex.bafunc import _THETA_EPS, SpectralDataCross, SpectralDataHex
from crosshex.errors import RankDeficient, SingularEvaluation
from crosshex.labels import stencil_offsets
from crosshex.operators import (
    FIELD_DOC_FORMAT,
    MIN_ORACLE_PROBES,
    MODELS,
    oracle_report,
    psi_grid,
    sample_probes,
)
from crosshex.surface import make_torus_curve
from crosshex.theta import ScaledComplex, theta_eval_scaled

B_FIXTURE = -6.0

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
    return curve.point(2j * math.pi * fs + curve.pm.B * ft)


def translated(sd, P, m, n):
    """The same curve point on a lift moved by the lattice vector 2*pi*i*m + B*n."""
    return sd.curve.point(P.lift + (2j * math.pi * m + sd.curve.pm.B * n))


def label_shift(relabel, site, key):
    """relabel(neighbour) - relabel(site) for the neighbour of coefficient ``key``."""
    return tuple(b - a for a, b in zip(relabel(site), relabel(site.neighbor(key))))


def _theta_argument(sd, P, label):
    """A(P) + c(label) . U - A(D) - K, with the dot taken by numpy as the package takes it."""
    return sd.curve.abel(P) + complex(sd.label_coeffs(label) @ sd._U) + sd._W


@functools.lru_cache(maxsize=None)
def _integral(curve, lift, plus, minus):
    return curve.third_kind_integral(curve.point(lift), curve.point(plus), curve.point(minus))


def one_value_phi(sd, label, P):
    """phi at one label and one point, by the one-value formula: the grid's reference.

    Scalar theta calls, one third-kind integral per nonzero label
    coefficient (memoized here, by lifts), summed in basis order, and
    ScaledComplex arithmetic; ``phi_scaled`` must give these bits at
    every grid element.
    """
    label = sd.validate_label(label)
    den = sd.require_generic(
        theta_eval_scaled(sd.curve.pm, sd.curve.abel(P) + sd._W, _THETA_EPS), "denominator"
    )
    num = theta_eval_scaled(sd.curve.pm, _theta_argument(sd, P, label), _THETA_EPS)
    w = 0j
    for c, (plus, minus) in zip(sd.label_coeffs(label), sd.basis_pairs):
        if c != 0:
            w += complex(c) * _integral(sd.curve, P.lift, sd.marked[plus].lift, sd.marked[minus].lift)
    return num.over(den).times_exp(w).times(sd.normalization.value)


def _one_label_product(sd, v, term, thetas):
    out = ScaledComplex.one()
    for factor in term.theta_num:
        out = out.times(_marked_theta(sd, factor, v, thetas))
    for factor in term.theta_den:
        den = sd.require_generic(
            _marked_theta(sd, factor, v, thetas),
            f"theta denominator at {factor.point} with shift {factor.shift}",
        )
        out = out.over(den)
    w = 0j
    for it in term.integrals:
        a, b = it.pair
        w += it.sign * _integral(sd.curve, sd.marked[it.endpoint].lift, sd.marked[a].lift, sd.marked[b].lift)
    out = out.times_exp(w)
    return out.negated() if term.sign < 0 else out


def _marked_theta(sd, factor, v, thetas):
    key = factor.point, tuple(x + d for x, d in zip(v, factor.shift))
    if key not in thetas:
        arg = _theta_argument(sd, sd.marked[factor.point], sd.validate_label(key[1]))
        thetas[key] = theta_eval_scaled(sd.curve.pm, arg, _THETA_EPS)
    return thetas[key]


def _one_label_ratio(sd, v, formula, thetas=None):
    """One coefficient ratio at label v, by the one-label formula in ScaledComplex arithmetic.

    Scalar theta calls (memoized in ``thetas`` by marked point and
    shifted label), one ``third_kind_integral`` per integral term, and the
    main term times the bracket sum, times the normalization ratio, signed.
    """
    thetas = {} if thetas is None else thetas
    v = tuple(v)
    out = _one_label_product(sd, v, formula.main, thetas)
    if formula.bracket:
        acc = _one_label_product(sd, v, formula.bracket[0], thetas)
        for term in formula.bracket[1:]:
            acc = acc.plus(_one_label_product(sd, v, term, thetas))
        out = out.times(acc)
    out = out.times(sd.normalization.ratio())
    return out.negated() if formula.sign < 0 else out


def one_site_stencil(sd, site, thetas=None):
    """The stencil values at one site, one formula at a time: the array build's reference.

    The class's unit is exactly 1 and its forced zeros exactly 0;
    ``build_field`` must give these bits at every site.
    """
    thetas = {} if thetas is None else thetas
    model = MODELS[sd.model]
    s = model.site(*site)
    cls = model.site_class(s)
    vals = {model.units[cls]: ScaledComplex.one(), **{k: ScaledComplex(0j, 0.0) for k in model.zeros[cls]}}
    for formula in model.formulas[cls]:
        vals[formula.coeff] = _one_label_ratio(sd, sd.site_label(s), formula, thetas)
    return [vals[k] for k in model.coeffs]


def reference_as_dict(stencil) -> dict[str, complex]:
    """A stencil's plain coefficients, one ScaledComplex at a time: the array writers' reference."""
    out = {}
    for key, val in zip(stencil.model.coeffs, stencil.values.scalars()):
        c = val.as_complex()
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise SingularEvaluation(
                f"coefficient {key} exceeds double range (log magnitude "
                f"{val.log_abs:.1f}); the window is too large for a plain-number export"
            )
        out[key] = c
    return out


def reference_document(field, *, spectral_data_ref="", seed=None, normalization=None) -> dict:
    """The field document by the per-site walk: ``field_to_document``'s and the text writer's reference."""
    sites_json = []
    for site in sorted(field.stencils):
        coeffs = reference_as_dict(field.stencils[site])
        sites_json.append({"site": list(site), "coeffs": {k: [c.real, c.imag] for k, c in coeffs.items()}})
    return {
        "format": FIELD_DOC_FORMAT,
        "model": field.model,
        "window": {"radius": field.radius},
        "sites": sites_json,
        "normalization": normalization or {"kind": "constant", "value": [1.0, 0.0]},
        "spectral_data_ref": spectral_data_ref,
        "seed": seed,
    }


def reference_csv(field) -> str:
    """The CSV by the per-site walk: ``field_to_csv``'s reference."""
    model = MODELS[field.model]
    header = list(model.index_names)
    for k in model.coeffs:
        header += [f"re_{k}", f"im_{k}"]
    lines = [",".join(header)]
    for site in sorted(field.stencils):
        coeffs = reference_as_dict(field.stencils[site])
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
        np.random.default_rng(4), len(names) + 1, avoid=[curve.point(curve.base_lift)],
        min_avoid=0.1, min_pairwise=0.1, max_tries=1000,
    )
    return cls(curve, dict(zip(names, points)), points[len(names):])


def genus_two_document(curve_doc: dict) -> dict:
    """A curve document reshaped as genus 2: a 2x2 B, every lift and period a list of 2 pairs."""
    doc = json.loads(json.dumps(curve_doc))
    doc["genus"] = 2
    doc["B"] = [[[-5.0, 0.7], [1.2, -0.4]], [[1.2, -0.4], [-4.2, 1.1]]]
    for key in ("base_lift", "riemann_constants"):
        doc[key] = [doc[key], [0.0, 0.0]]
    for section in ("marked_points", "b_periods"):
        doc[section] = {name: [pair, [0.0, 0.0]] for name, pair in doc[section].items()}
    return doc


@pytest.fixture(scope="session")
def torus():
    return make_torus_curve(B_FIXTURE)


def _spectral(cls, names, curve):
    marked = {
        name: cell_point(curve, fs, ft)
        for name, (fs, ft) in zip(names, CELL_FRACTIONS)
    }
    divisor = [cell_point(curve, *DIVISOR_FRACTION)]
    return cls(curve, marked, divisor)


@pytest.fixture(scope="session")
def cross_data(torus):
    return spectral_data("cross", torus)


@pytest.fixture(scope="session")
def hex_data(torus):
    return spectral_data("hex", torus)


@pytest.fixture(scope="session")
def cross_probes(cross_data):
    return sample_probes(cross_data, 12, seed=5)


@pytest.fixture(scope="session")
def hex_probes(hex_data):
    return sample_probes(hex_data, 12, seed=7)


def reference_nullspace_oracle(sd, site, probes, grid=None):
    """One site's null-space oracle, one site at a time: ``oracle_report``'s reference.

    Returns the oracle's stencil, its gap and its term shares, or raises
    what the one-site computation raises (``ValueError``,
    ``RankDeficient``, ``LinAlgError``).  The kernel values are numpy
    scalars, so the unit division takes numpy's complex arithmetic.
    """
    if len(probes) < MIN_ORACLE_PROBES:
        raise ValueError(f"nullspace_oracle needs at least {MIN_ORACLE_PROBES} probe points")
    model = MODELS[sd.model]
    s_obj = model.site(*site)
    ncols = len(model.coeffs)
    if grid is None:
        grid = psi_grid(sd, [tuple(s_obj)], probes)
    if grid.probes != tuple(probes):
        raise ValueError("the psi grid was evaluated at other probe points")
    rows = grid.index(stencil_offsets(model.name, s_obj))
    # probes by coefficients, C-ordered: numpy's elementwise kernels below
    # round the same way only on the same memory layout
    logs = np.ascontiguousarray(grid.log_abs[rows].T)
    phases = np.ascontiguousarray(grid.phase[rows].T)
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
    unit = model.units[model.site_class(s_obj)]
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


def reference_oracle_report(sd, sites, probes, field, grid):
    """``oracle_report``'s measures, one site and one coefficient at a time.

    Returns ``(entries, maxima, failures, stencils)``: per site its
    ``(site, gap, mismatch, forced-zero excess)``, then the three maxima,
    the failing sites at the default tolerances, and each site's oracle
    values.  Each ratio's mantissa is a numpy scalar, so it is taken in
    numpy's complex arithmetic.
    """
    entries, failures, stencils = [], [], []
    max_gap = max_mismatch = max_zero = 0.0
    for site in sites:
        t_row = field.stencils[site].values
        values, gap, shares = reference_nullspace_oracle(sd, site, probes, grid)
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


def assert_oracle_matches_reference(sd, sites, probes, field, grid):
    """``oracle_report`` and :func:`reference_oracle_report` agree by ``repr``; returns the report."""
    report = oracle_report(sd, sites, probes, field=field, grid=grid)
    entries, maxima, failures, stencils = reference_oracle_report(sd, sites, probes, field, grid)
    got = [(e.site, e.gap, e.max_mismatch, e.forced_zero_excess) for e in report.entries]
    got_maxima = (report.max_gap, report.max_mismatch, report.max_forced_zero_excess)
    assert repr((got, got_maxima, list(report.failures))) == repr((entries, maxima, failures))
    want = [[(complex(v.mantissa), float(v.log_scale)) for v in row] for row in stencils]
    rows = [[(v.mantissa, v.log_scale) for v in report.coeffs[i].scalars()] for i in range(len(sites))]
    assert repr(rows) == repr(want)
    return report
