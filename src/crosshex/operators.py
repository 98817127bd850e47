"""Difference-operator coefficient fields and their verification.

The coefficient of each stencil entry, relative to a per-site unit
coefficient, is given by a closed ratio formula: a normalization ratio,
a quotient of theta factors evaluated at marked points, an exponential
of third-kind integrals between marked points, and for the center-like
entries a two-term bracketed sum.  The formula tables below transcribe
those identities term by term; each table entry records its
transcription status, and the single corrected index is documented in
ERRATA.md with the numerical evidence.

Verification is independent of the construction: ``nullspace_oracle``
recovers the stencil at a site purely from function values (the kernel
of a probes-by-coefficients matrix), so agreement between the two is a
genuine cross-check, and the singular-value gap certifies that the
kernel is one-dimensional (the uniqueness statement at desk scale).

Every per-lattice fact (coefficient keys, site classes, unit, zero and
formula tables, spectral-data class) lives in one :class:`Model` record
per lattice, looked up by name in ``MODELS``.

All internal values are carried as (mantissa, log-scale) pairs: at
sites a few steps from the origin the individual theta and exponential
factors overflow double precision while every reported quantity -
normalized residuals, ratios, gaps - is moderate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from operator import attrgetter
from typing import Callable

import numpy as np

from .bafunc import SpectralDataCross, SpectralDataHex
from .errors import (
    InvalidSite,
    MissingGauge,
    RankDeficient,
    SchemaError,
    SingularEvaluation,
)
from .labels import CROSS_COEFFS, HEX_COEFFS, site_cross, site_hex, stencil_offsets
from .surface import SurfacePoint, complex_from_json
from .theta import ScaledComplex

FIELD_DOC_FORMAT = "crosshex-field-v1"

# pole pairs of the third-kind differentials entering the formulas
_P1 = ("P1+", "P1-")
_P2 = ("P2+", "P2-")
_P3 = ("P3+", "P3-")
_Q31 = ("Q3", "Q1")
_Q32 = ("Q3", "Q2")
_R31 = ("R3", "R1")
_R32 = ("R3", "R2")
_Q12 = ("Q1", "Q2")
_R12 = ("R1", "R2")
_R21 = ("R2", "R1")


@dataclass(frozen=True)
class ThetaFactor:
    """One theta value: evaluated at a marked point, label shifted from v."""

    point: str
    shift: tuple[int, ...]


@dataclass(frozen=True)
class IntegralTerm:
    """One signed third-kind integral between marked points."""

    sign: int
    endpoint: str
    pair: tuple[str, str]


@dataclass(frozen=True)
class ProductTerm:
    """A signed product: theta quotient times an exponential of integrals."""

    sign: int = 1
    theta_num: tuple[ThetaFactor, ...] = ()
    theta_den: tuple[ThetaFactor, ...] = ()
    integrals: tuple[IntegralTerm, ...] = ()


@dataclass(frozen=True)
class RatioFormula:
    """One coefficient ratio: sign * r-ratio * main-product * [sum of terms].

    ``transcription`` records whether the entry follows the source
    identity letter for letter or carries the documented index
    correction (see ERRATA.md).
    """

    coeff: str
    sign: int
    r_num_shift: tuple[int, ...]
    r_den_shift: tuple[int, ...]
    main: ProductTerm = ProductTerm()
    bracket: tuple[ProductTerm, ...] = ()
    transcription: str = "as-printed"


def _tf(point: str, shift) -> ThetaFactor:
    return ThetaFactor(point, tuple(shift))


def _it(sign: int, endpoint: str, pair) -> IntegralTerm:
    return IntegralTerm(sign, endpoint, tuple(pair))


# -- square lattice, even parity (unit coefficient d) ------------------------

_SJ = (0, -1, 0)
_SIJ = (1, -1, 0)
_SK = (0, 0, 1)
_SIK = (1, 0, 1)
_Z3 = (0, 0, 0)

CROSS_EVEN_FORMULAS: tuple[RatioFormula, ...] = (
    RatioFormula(
        "a",
        -1,
        _SJ,
        _SIJ,
        ProductTerm(
            theta_num=(_tf("P2+", _SJ),),
            theta_den=(_tf("P2+", _SIJ),),
            integrals=(_it(-1, "P2+", _P1),),
        ),
    ),
    RatioFormula(
        "b",
        -1,
        _SJ,
        _SK,
        ProductTerm(
            theta_num=(_tf("P2+", _SJ), _tf("P1-", _SIJ), _tf("P3-", _SIK)),
            theta_den=(_tf("P2+", _SIJ), _tf("P1-", _SIK), _tf("P3-", _SK)),
            integrals=(
                _it(1, "P3-", _P1),
                _it(-1, "P2+", _P1),
                _it(-1, "P1-", _P2),
                _it(-1, "P1-", _P3),
            ),
        ),
    ),
    RatioFormula(
        "c",
        1,
        _SJ,
        _SIK,
        ProductTerm(
            theta_num=(_tf("P2+", _SJ), _tf("P1-", _SIJ)),
            theta_den=(_tf("P2+", _SIJ), _tf("P1-", _SIK)),
            integrals=(_it(-1, "P2+", _P1), _it(-1, "P1-", _P2), _it(-1, "P1-", _P3)),
        ),
    ),
    RatioFormula(
        "v",
        1,
        _SJ,
        _Z3,
        ProductTerm(
            theta_num=(_tf("P2+", _SJ), _tf("P1-", _SIJ)),
            theta_den=(_tf("P2+", _SIJ), _tf("P1-", _SIK)),
            integrals=(
                _it(-1, "P2+", _P1),
                _it(-1, "P1-", _P2),
                _it(-1, "P1-", _P3),
                _it(1, "P2-", _P3),
            ),
        ),
        bracket=(
            ProductTerm(
                sign=1,
                theta_num=(_tf("P3-", _SIK), _tf("P2-", _SK)),
                theta_den=(_tf("P3-", _SK), _tf("P2-", _Z3)),
                integrals=(_it(1, "P3-", _P1),),
            ),
            ProductTerm(
                sign=-1,
                theta_num=(_tf("P2-", _SIK),),
                theta_den=(_tf("P2-", _Z3),),
                integrals=(_it(1, "P2-", _P1),),
            ),
        ),
    ),
)

# -- square lattice, odd parity (unit coefficient c) -------------------------

_OJ = (0, 1, 0)
_OIJ = (-1, 1, 0)
_OK = (0, 0, -1)
_OIK = (-1, 0, -1)

CROSS_ODD_FORMULAS: tuple[RatioFormula, ...] = (
    RatioFormula(
        "a",
        -1,
        _OJ,
        _OK,
        ProductTerm(
            theta_num=(_tf("P2-", _OJ), _tf("P1+", _OIJ), _tf("P3+", _OIK)),
            theta_den=(_tf("P2-", _OIJ), _tf("P1+", _OIK), _tf("P3+", _OK)),
            integrals=(
                _it(1, "P2-", _P1),
                _it(1, "P1+", _P2),
                _it(1, "P1+", _P3),
                _it(-1, "P3+", _P1),
            ),
        ),
    ),
    RatioFormula(
        "b",
        -1,
        _OJ,
        _OIJ,
        ProductTerm(
            theta_num=(_tf("P2-", _OJ),),
            theta_den=(_tf("P2-", _OIJ),),
            integrals=(_it(1, "P2-", _P1),),
        ),
    ),
    RatioFormula(
        "d",
        1,
        _OJ,
        _OIK,
        ProductTerm(
            theta_num=(_tf("P2-", _OJ), _tf("P1+", _OIJ)),
            theta_den=(_tf("P2-", _OIJ), _tf("P1+", _OIK)),
            integrals=(_it(1, "P2-", _P1), _it(1, "P1+", _P2), _it(1, "P1+", _P3)),
        ),
    ),
    RatioFormula(
        "v",
        1,
        _OJ,
        _Z3,
        ProductTerm(
            theta_num=(_tf("P2-", _OJ), _tf("P1+", _OIJ)),
            theta_den=(_tf("P2-", _OIJ), _tf("P1+", _OIK)),
            integrals=(
                _it(1, "P2-", _P1),
                _it(1, "P1+", _P2),
                _it(1, "P1+", _P3),
                _it(-1, "P2+", _P3),
            ),
        ),
        bracket=(
            ProductTerm(
                sign=1,
                theta_num=(_tf("P3+", _OIK), _tf("P2+", _OK)),
                theta_den=(_tf("P3+", _OK), _tf("P2+", _Z3)),
                integrals=(_it(-1, "P3+", _P1),),
            ),
            ProductTerm(
                sign=-1,
                theta_num=(_tf("P2+", _OIK),),
                theta_den=(_tf("P2+", _Z3),),
                integrals=(_it(-1, "P2+", _P1),),
            ),
        ),
        # the source prints the last integral bound with a bare plus sign;
        # both readings are compared numerically in ERRATA.md, and the
        # plus-point reading (mirroring the even-parity formula) is the
        # one that passes the oracle
        transcription="as-printed (ambiguous integral bound read as the plus point)",
    ),
)

# -- triangular lattice, residue 0 (unit coefficient b, zeros c and g) -------

_A0 = (0, 1, -1, 0, 0, 0)
_B0 = (0, 0, 0, 1, -1, 0)
_D0 = (-1, 1, 0, 0, 0, 0)
_F0 = (0, 1, -1, 1, 0, -1)

_HEX_CASE0: tuple[RatioFormula, ...] = (
    RatioFormula(
        "a",
        1,
        _B0,
        _A0,
        bracket=(
            ProductTerm(
                sign=1,
                theta_num=(_tf("Q2", _D0), _tf("Q3", _B0)),
                theta_den=(_tf("Q2", _A0), _tf("Q3", _D0)),
                integrals=(_it(1, "Q3", _R21), _it(-1, "Q3", _Q12), _it(-1, "Q2", _Q31)),
            ),
            ProductTerm(
                sign=1,
                theta_num=(_tf("Q2", _F0), _tf("R1", _B0)),
                theta_den=(_tf("Q2", _A0), _tf("R1", _F0)),
                integrals=(_it(1, "Q2", _R31), _it(-1, "R1", _Q32), _it(-1, "R1", _R32)),
            ),
        ),
    ),
    RatioFormula(
        "d",
        -1,
        _B0,
        _D0,
        ProductTerm(
            theta_num=(_tf("Q3", _B0),),
            theta_den=(_tf("Q3", _D0),),
            integrals=(_it(1, "Q3", _R21), _it(-1, "Q3", _Q12)),
        ),
    ),
    RatioFormula(
        "f",
        -1,
        _B0,
        _F0,
        ProductTerm(
            theta_num=(_tf("R1", _B0),),
            theta_den=(_tf("R1", _F0),),
            integrals=(_it(-1, "R1", _Q32), _it(-1, "R1", _R32)),
        ),
        transcription="corrected-index (denominator theta point; see ERRATA.md)",
    ),
)

# the uncorrected reading of the residue-0 f-coefficient, kept importable so
# the errata evidence is reproducible from the shipped package
HEX_CASE0_F_AS_PRINTED = RatioFormula(
    "f",
    -1,
    _B0,
    _F0,
    ProductTerm(
        theta_num=(_tf("R1", _B0),),
        theta_den=(_tf("Q3", _F0),),
        integrals=(_it(-1, "R1", _Q32), _it(-1, "R1", _R32)),
    ),
    transcription="as-printed (fails the null-space oracle; see ERRATA.md)",
)

# -- triangular lattice, residue 1 (unit coefficient d, zeros a and g) -------

_B1 = (1, -1, 0, 0, -1, 1)
_C1 = (1, -1, 0, 0, 0, 0)
_D1 = (0, 0, 0, -1, 0, 1)
_F1 = (1, 0, -1, 0, 0, 0)

_HEX_CASE1: tuple[RatioFormula, ...] = (
    RatioFormula(
        "b",
        -1,
        _D1,
        _B1,
        ProductTerm(
            theta_num=(_tf("R3", _D1),),
            theta_den=(_tf("R3", _B1),),
            integrals=(_it(1, "R3", _Q12), _it(1, "R3", _R12)),
        ),
    ),
    RatioFormula(
        "c",
        1,
        _D1,
        _C1,
        bracket=(
            ProductTerm(
                sign=1,
                theta_num=(_tf("R1", _B1), _tf("R3", _D1)),
                theta_den=(_tf("R1", _C1), _tf("R3", _B1)),
                integrals=(_it(1, "R3", _Q12), _it(1, "R3", _R12), _it(-1, "R1", _R32)),
            ),
            ProductTerm(
                sign=1,
                theta_num=(_tf("R1", _F1), _tf("Q2", _D1)),
                theta_den=(_tf("R1", _C1), _tf("Q2", _F1)),
                integrals=(_it(1, "R1", _Q32), _it(-1, "Q2", _Q31), _it(-1, "Q2", _R31)),
            ),
        ),
    ),
    RatioFormula(
        "f",
        -1,
        _D1,
        _F1,
        ProductTerm(
            theta_num=(_tf("Q2", _D1),),
            theta_den=(_tf("Q2", _F1),),
            integrals=(_it(-1, "Q2", _Q31), _it(-1, "Q2", _R31)),
        ),
    ),
)

# -- triangular lattice, residue 2 (unit coefficient f, zeros a and c) -------

_B2 = (0, -1, 1, 0, 0, 0)
_D2 = (-1, 0, 1, -1, 1, 0)
_F2 = (0, 0, 0, 0, 1, -1)
_G2 = (-1, 0, 1, 0, 0, 0)

_HEX_CASE2: tuple[RatioFormula, ...] = (
    RatioFormula(
        "b",
        -1,
        _F2,
        _B2,
        ProductTerm(
            theta_num=(_tf("Q1", _F2),),
            theta_den=(_tf("Q1", _B2),),
            integrals=(_it(1, "Q1", _Q32), _it(1, "Q1", _R32)),
        ),
    ),
    RatioFormula(
        "d",
        -1,
        _F2,
        _D2,
        ProductTerm(
            theta_num=(_tf("R2", _F2),),
            theta_den=(_tf("R2", _D2),),
            integrals=(_it(1, "R2", _Q31), _it(1, "R2", _R31)),
        ),
    ),
    RatioFormula(
        "g",
        1,
        _F2,
        _G2,
        bracket=(
            ProductTerm(
                sign=1,
                theta_num=(_tf("Q3", _B2), _tf("Q1", _F2)),
                theta_den=(_tf("Q3", _G2), _tf("Q1", _B2)),
                integrals=(_it(1, "Q1", _Q32), _it(1, "Q1", _R32), _it(-1, "Q3", _Q12)),
            ),
            ProductTerm(
                sign=1,
                theta_num=(_tf("Q3", _D2), _tf("R2", _F2)),
                theta_den=(_tf("Q3", _G2), _tf("R2", _D2)),
                integrals=(_it(1, "R2", _Q31), _it(1, "R2", _R31), _it(1, "Q3", _R12)),
            ),
        ),
    ),
)

HEX_FORMULAS_BY_RESIDUE: tuple[tuple[RatioFormula, ...], ...] = (_HEX_CASE0, _HEX_CASE1, _HEX_CASE2)


# ---------------------------------------------------------------------------
# the model registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True, repr=False)
class Model:
    """Every per-lattice fact of one operator family.

    A site's class (``site_class``: parity on the square lattice, residue
    on the triangular one) indexes ``units``, ``zeros`` and ``formulas``.
    Marked-point names and basis pairs live on ``spectral_class``.
    """

    name: str
    coeffs: tuple[str, ...]  # coefficient keys, also the export column order
    index_names: tuple[str, ...]  # CSV site-index columns
    site: Callable[..., tuple]  # validating site constructor (raises InvalidSite)
    site_class: Callable[[tuple], int]
    window: Callable[[int], list[tuple]]  # sites of max-norm <= radius, lexicographic
    units: tuple[str, ...]  # unit coefficient per class
    zeros: tuple[tuple[str, ...], ...]  # coefficients forced to zero per class
    formulas: tuple[tuple[RatioFormula, ...], ...]  # ratio formulas per class
    spectral_class: type
    # every (endpoint | pole pair) combination a tabulated curve must store
    curve_integrals: tuple[tuple[str, tuple[str, str]], ...]

    def __repr__(self) -> str:
        return f"Model({self.name!r})"


CROSS = Model(
    name="cross",
    coeffs=CROSS_COEFFS,
    index_names=("n", "m"),
    site=site_cross,
    site_class=attrgetter("parity"),
    window=lambda r: [(n, m) for n in range(-r, r + 1) for m in range(-r, r + 1)],
    units=("d", "c"),
    zeros=((), ()),
    formulas=(CROSS_EVEN_FORMULAS, CROSS_ODD_FORMULAS),
    spectral_class=SpectralDataCross,
    curve_integrals=(
        ("P2+", _P1),
        ("P2-", _P1),
        ("P3+", _P1),
        ("P3-", _P1),
        ("P1-", _P2),
        ("P1+", _P2),
        ("P1-", _P3),
        ("P1+", _P3),
        ("P2-", _P3),
        ("P2+", _P3),
    ),
)

HEX = Model(
    name="hex",
    coeffs=HEX_COEFFS,
    index_names=("k", "l", "m"),
    site=site_hex,
    site_class=attrgetter("residue"),
    window=lambda r: [
        (k, l, -k - l) for k in range(-r, r + 1) for l in range(-r, r + 1) if abs(k + l) <= r
    ],
    units=("b", "d", "f"),
    zeros=(("c", "g"), ("a", "g"), ("a", "c")),
    formulas=HEX_FORMULAS_BY_RESIDUE,
    spectral_class=SpectralDataHex,
    curve_integrals=(
        ("Q3", _R21),
        ("Q3", _Q12),
        ("Q3", _R12),
        ("Q2", _Q31),
        ("Q2", _R31),
        ("R1", _Q32),
        ("R1", _R32),
        ("R3", _Q12),
        ("R3", _R12),
        ("Q1", _Q32),
        ("Q1", _R32),
        ("R2", _Q31),
        ("R2", _R31),
    ),
)

MODELS: dict[str, Model] = {m.name: m for m in (CROSS, HEX)}


def model_named(name) -> Model:
    """The registry entry called ``name``; ``ValueError`` for anything else."""
    model = MODELS.get(name) if isinstance(name, str) else None
    if model is None:
        raise ValueError(f"unknown model {name!r}: expected {' or '.join(map(repr, MODELS))}")
    return model


# ---------------------------------------------------------------------------
# formula evaluation
# ---------------------------------------------------------------------------


def _marked_theta(sd, v: tuple, factor: ThetaFactor) -> ScaledComplex:
    label = tuple(a + b for a, b in zip(v, factor.shift))
    return sd.theta_component_scaled(sd.marked[factor.point], sd.validate_label(label))


def _eval_product(sd, v: tuple, term: ProductTerm) -> ScaledComplex:
    out = ScaledComplex.one()
    for factor in term.theta_num:
        out = out.times(_marked_theta(sd, v, factor))
    for factor in term.theta_den:
        den = sd.require_generic(
            _marked_theta(sd, v, factor),
            f"theta denominator at {factor.point} with shift {factor.shift}",
        )
        out = out.over(den)
    w = 0j
    for it in term.integrals:
        w += it.sign * sd.marked_integral(it.endpoint, it.pair)
    out = out.times_exp(w)
    return out.negated() if term.sign < 0 else out


def evaluate_ratio(sd, v, formula: RatioFormula) -> ScaledComplex:
    """One coefficient ratio at label v, in scaled arithmetic."""
    v = tuple(v)
    out = _eval_product(sd, v, formula.main)
    if formula.bracket:
        acc = _eval_product(sd, v, formula.bracket[0])
        for term in formula.bracket[1:]:
            acc = acc.plus(_eval_product(sd, v, term))
        out = out.times(acc)
    r_num = tuple(a + b for a, b in zip(v, formula.r_num_shift))
    r_den = tuple(a + b for a, b in zip(v, formula.r_den_shift))
    out = out.times(sd.normalization.ratio(r_num, r_den))
    return out.negated() if formula.sign < 0 else out


# ---------------------------------------------------------------------------
# stencils
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Stencil:
    """Coefficients of one lattice site, in its model's coefficient order."""

    model: Model
    unit: str
    values: tuple[ScaledComplex, ...] = dc_field(repr=False)

    def scaled(self, key: str) -> ScaledComplex:
        return self.values[self.model.coeffs.index(key)]

    def coefficient(self, key: str) -> complex:
        return self.scaled(key).as_complex()

    def as_dict(self) -> dict[str, complex]:
        out = {}
        for key, val in zip(self.model.coeffs, self.values):
            c = val.as_complex()
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise SingularEvaluation(
                    f"coefficient {key} exceeds double range (log magnitude "
                    f"{val.log_abs:.1f}); the window is too large for a plain-number export"
                )
            out[key] = c
        return out

    def rescaled(self, factor) -> "Stencil":
        return replace(self, values=tuple(val.times(factor) for val in self.values))


def _closed_form_stencil(model: Model, sd, site) -> Stencil:
    """The stencil at one site: the class's unit is exactly 1, its forced zeros exactly 0."""
    s = model.site(*site)
    v = tuple(sd.site_label(s))
    cls = model.site_class(s)
    vals = {model.units[cls]: ScaledComplex.one()}
    for zero_key in model.zeros[cls]:
        vals[zero_key] = ScaledComplex(0j, 0.0)
    for formula in model.formulas[cls]:
        vals[formula.coeff] = evaluate_ratio(sd, v, formula)
    return Stencil(model, model.units[cls], tuple(vals[k] for k in model.coeffs))


def cross_coefficients(sd: SpectralDataCross, site) -> Stencil:
    """The stencil at one square-lattice site, unit coefficient set to 1."""
    return _closed_form_stencil(CROSS, sd, site)


def hex_coefficients(sd: SpectralDataHex, site) -> Stencil:
    """The stencil at one triangular-lattice site, with its two forced zeros."""
    return _closed_form_stencil(HEX, sd, site)


# ---------------------------------------------------------------------------
# fields and documents
# ---------------------------------------------------------------------------


def window_sites(model: str, radius: int) -> list[tuple]:
    """All sites with max-norm at most ``radius``, in lexicographic order."""
    return model_named(model).window(int(radius))


@dataclass(frozen=True)
class StencilField:
    """A window's worth of stencils, keyed by site tuple: no site more, none less."""

    model: str
    radius: int
    stencils: dict[tuple, Stencil]

    def __post_init__(self):
        window = window_sites(self.model, self.radius)
        for site in window:
            if site not in self.stencils:
                raise ValueError(f"field is missing site {site} inside its window")
        if len(self.stencils) != len(window):
            outside = sorted(set(self.stencils) - set(window))
            raise ValueError(f"field has sites outside its radius-{self.radius} window: {outside}")


def build_field(sd, radius: int) -> StencilField:
    """Evaluate the closed-form stencils on the whole window."""
    # The one model-name dispatch outside the registry.  The builder is read
    # from the module globals at call time because a profiler that rebinds
    # them (perfbench's tracer) would miss a function stored in the registry.
    builder = cross_coefficients if sd.model == "cross" else hex_coefficients
    return StencilField(
        sd.model,
        int(radius),
        {site: builder(sd, site) for site in window_sites(sd.model, radius)},
    )


def field_to_document(
    field: StencilField,
    *,
    spectral_data_ref: str = "",
    seed: int | None = None,
    normalization: dict | None = None,
) -> dict:
    sites_json = []
    for site in sorted(field.stencils):
        coeffs = field.stencils[site].as_dict()
        sites_json.append(
            {
                "site": list(site),
                "coeffs": {k: [c.real, c.imag] for k, c in coeffs.items()},
            }
        )
    return {
        "format": FIELD_DOC_FORMAT,
        "model": field.model,
        "window": {"radius": field.radius},
        "sites": sites_json,
        "normalization": normalization or {"kind": "constant", "value": [1.0, 0.0]},
        "spectral_data_ref": spectral_data_ref,
        "seed": seed,
    }


def field_from_document(doc: dict) -> StencilField:
    if not isinstance(doc, dict):
        raise SchemaError("field document must be a JSON object")
    if doc.get("format") != FIELD_DOC_FORMAT:
        raise SchemaError(f"unexpected field-document format {doc.get('format')!r}")
    try:
        model = model_named(doc.get("model"))
    except ValueError as exc:
        raise SchemaError(str(exc)) from None
    window = doc.get("window")
    radius = window.get("radius") if isinstance(window, dict) else None
    if type(radius) is not int or radius < 0:
        raise SchemaError("window must be an object with an integer 'radius' >= 0")
    sites_raw = doc.get("sites")
    if not isinstance(sites_raw, list):
        raise SchemaError("sites must be a list")
    stencils: dict[tuple, Stencil] = {}
    for entry in sites_raw:
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("site"), list)
            and isinstance(entry.get("coeffs"), dict)
        ):
            raise SchemaError("each site entry needs a 'site' list and a 'coeffs' object")
        try:
            s = model.site(*entry["site"])
        except InvalidSite as exc:
            raise SchemaError(str(exc)) from None
        site = tuple(s)
        if site in stencils:
            raise SchemaError(f"site {site} is listed twice")
        coeffs = entry["coeffs"]
        if set(coeffs) != set(model.coeffs):
            raise SchemaError(
                f"site {site}: coefficients must be exactly {model.coeffs}, got {sorted(coeffs)}"
            )
        try:
            vals = [ScaledComplex.from_complex(complex_from_json(coeffs[k], k)) for k in model.coeffs]
        except SchemaError as exc:
            raise SchemaError(f"site {site}: coefficient {exc}") from None
        stencils[site] = Stencil(model, model.units[model.site_class(s)], tuple(vals))
    try:
        return StencilField(model.name, radius, stencils)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def field_to_csv(field: StencilField) -> str:
    """CSV with one row per site: indices, then Re/Im of each coefficient.

    Values are printed with 17 significant digits, which round-trips
    IEEE doubles exactly; rows are in lexicographic site order.
    """
    model = MODELS[field.model]
    header = list(model.index_names)
    for k in model.coeffs:
        header += [f"re_{k}", f"im_{k}"]
    lines = [",".join(header)]
    for site in sorted(field.stencils):
        coeffs = field.stencils[site].as_dict()
        row = [str(x) for x in site]
        for k in model.coeffs:
            row += ["%.17g" % coeffs[k].real, "%.17g" % coeffs[k].imag]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# verification: residuals
# ---------------------------------------------------------------------------


def _normalized_residual(terms: list[ScaledComplex]) -> float:
    """|sum| / sum(|.|), computed at a common scale so nothing overflows."""
    mags = [t.log_abs for t in terms if t.mantissa != 0]
    if not mags:
        return 0.0
    top = max(mags)
    total = 0j
    denom = 0.0
    for t in terms:
        if t.mantissa == 0:
            continue
        mag = math.exp(t.log_abs - top)
        val = (t.mantissa / abs(t.mantissa)) * mag
        total += val
        denom += mag
    return abs(total) / denom


@dataclass(frozen=True)
class SiteResidual:
    site: tuple
    residual: float
    worst_probe: int


@dataclass(frozen=True)
class ResidualReport:
    model: str
    tolerance: float
    probe_count: int
    max_residual: float
    entries: tuple[SiteResidual, ...]
    failures: tuple[tuple, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def residual_report(
    sd,
    window,
    probes,
    field: StencilField | None = None,
    tol: float = 1e-8,
    gauge: "GaugeField | None" = None,
) -> ResidualReport:
    """Max normalized residual of the stencil equation over a window.

    ``window`` is a radius or an explicit iterable of site tuples.  With
    a ``gauge``, function values are multiplied by the gauge at their
    own site, which is how a gauge-transformed ``field`` is verified.
    """
    sites = window_sites(sd.model, window) if isinstance(window, int) else [tuple(s) for s in window]
    if field is None:
        field = build_field(sd, max((max(map(abs, s)) for s in sites), default=0)) if sites else None
    entries = []
    failures = []
    worst_overall = 0.0
    for site in sites:
        stencil = field.stencils[site]
        neighbor_sites = stencil_offsets(sd.model, site)
        worst = -1.0
        worst_probe = -1
        for ip, P in enumerate(probes):
            terms = []
            for cval, nb in zip(stencil.values, neighbor_sites):
                if cval.mantissa == 0:
                    continue
                t = cval.times(sd.psi_scaled(nb, P))
                if gauge is not None:
                    t = t.times(gauge.at(nb))
                terms.append(t)
            res = _normalized_residual(terms)
            if res > worst:
                worst, worst_probe = res, ip
        entries.append(SiteResidual(site, worst, worst_probe))
        worst_overall = max(worst_overall, worst)
        if worst > tol:
            failures.append(site)
    return ResidualReport(
        model=sd.model,
        tolerance=tol,
        probe_count=len(probes),
        max_residual=worst_overall,
        entries=tuple(entries),
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# verification: independent null-space oracle
# ---------------------------------------------------------------------------

MIN_ORACLE_PROBES = 8


def nullspace_oracle(sd, site, probes) -> tuple[Stencil, float]:
    """Recover the stencil at ``site`` from function values alone.

    Builds the probes-by-coefficients matrix of neighbor function
    values, balances it (per-column peak scale, then per-row peak, both
    exact in log space; row scaling leaves the kernel unchanged and the
    column scaling is inverted on the kernel vector), and takes the
    right singular vector of the smallest singular value.  The returned
    gap sigma_min / sigma_second certifies kernel dimension one when it
    is small.  Raises :class:`RankDeficient` when the second-smallest
    singular value also collapses (degenerate probes or data).
    """
    if len(probes) < MIN_ORACLE_PROBES:
        raise ValueError(f"nullspace_oracle needs at least {MIN_ORACLE_PROBES} probe points")
    model = MODELS[sd.model]
    s_obj = model.site(*site)
    neighbor_sites = stencil_offsets(model.name, s_obj)
    ncols = len(model.coeffs)
    vals = [[sd.psi_scaled(nb, P) for nb in neighbor_sites] for P in probes]
    logs = np.array([[v.log_abs for v in row] for row in vals])
    phases = np.array(
        [[v.mantissa / abs(v.mantissa) if v.mantissa != 0 else 0j for v in row] for row in vals]
    )
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
    values = tuple(
        ScaledComplex.one() if j == u_idx else scaled_kernel[j].over(unit_val)
        for j in range(ncols)
    )
    return Stencil(model, unit, values), gap


@dataclass(frozen=True)
class OracleSiteResult:
    site: tuple
    gap: float
    max_mismatch: float
    forced_zero_excess: float


@dataclass(frozen=True)
class OracleReport:
    model: str
    gap_tolerance: float
    match_tolerance: float
    zero_tolerance: float
    max_gap: float
    max_mismatch: float
    max_forced_zero_excess: float
    entries: tuple[OracleSiteResult, ...]
    failures: tuple[tuple, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def oracle_report(
    sd,
    window,
    probes,
    field: StencilField | None = None,
    gap_tol: float = 1e-6,
    match_tol: float = 1e-6,
    zero_tol: float = 1e-8,
) -> OracleReport:
    """Compare the closed-form stencils against the null-space oracle sitewise.

    For each site: the singular-value gap must certify a 1-dimensional
    kernel (``gap_tol``); non-vanishing coefficients must match the
    oracle relatively (``match_tol``); coefficients the formulas force
    to zero must come back from the oracle at or below ``zero_tol``
    relative to the largest of the site's raw kernel components.
    """
    sites = window_sites(sd.model, window) if isinstance(window, int) else [tuple(s) for s in window]
    if field is None and sites:
        field = build_field(sd, max(max(map(abs, s)) for s in sites))
    entries = []
    failures = []
    max_gap = 0.0
    max_mismatch = 0.0
    max_zero = 0.0
    for site in sites:
        formula = field.stencils[site]
        oracle, gap = nullspace_oracle(sd, site, probes)
        mismatch = 0.0
        zero_excess = 0.0
        peak_log = max(v.log_abs for v in oracle.values if v.mantissa != 0)
        for t_val, o_val in zip(formula.values, oracle.values):
            if t_val.mantissa == 0:
                if o_val.mantissa != 0:
                    zero_excess = max(zero_excess, math.exp(o_val.log_abs - peak_log))
                continue
            mismatch = max(mismatch, abs(o_val.over(t_val).as_complex() - 1.0))
        entries.append(OracleSiteResult(site, gap, mismatch, zero_excess))
        max_gap = max(max_gap, gap)
        max_mismatch = max(max_mismatch, mismatch)
        max_zero = max(max_zero, zero_excess)
        if gap > gap_tol or mismatch > match_tol or zero_excess > zero_tol:
            failures.append(site)
    return OracleReport(
        model=sd.model,
        gap_tolerance=gap_tol,
        match_tolerance=match_tol,
        zero_tolerance=zero_tol,
        max_gap=max_gap,
        max_mismatch=max_mismatch,
        max_forced_zero_excess=max_zero,
        entries=tuple(entries),
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# gauge transformation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaugeField:
    """Nonzero scalars per site; transforms fields and function values."""

    values: dict[tuple, complex]

    def __post_init__(self):
        for site, g in self.values.items():
            if abs(g) < 1e-12:
                raise ValueError(f"gauge value at site {site} is below the 1e-12 floor")

    def at(self, site) -> complex:
        try:
            return self.values[tuple(site)]
        except KeyError:
            raise MissingGauge(f"gauge field has no value at site {tuple(site)}") from None


def gauge_transform(field: StencilField, gauge: GaugeField) -> StencilField:
    """Divide each coefficient by the gauge at the neighbor it multiplies.

    Requires the gauge on every neighbor of every window site (the
    window plus a one-site halo); a gap raises :class:`MissingGauge`.
    The transformed operator annihilates the gauge-scaled function
    values exactly when the original annihilates the originals.
    """
    out: dict[tuple, Stencil] = {}
    for site, stencil in field.stencils.items():
        new_values = tuple(
            val.over(ScaledComplex.from_complex(gauge.at(nb)))
            for val, nb in zip(stencil.values, stencil_offsets(field.model, site))
        )
        out[site] = replace(stencil, values=new_values)
    return StencilField(field.model, field.radius, out)


# ---------------------------------------------------------------------------
# probe sampling
# ---------------------------------------------------------------------------


def sample_probes(
    sd,
    count: int,
    seed: int,
    min_avoid: float = 0.05,
    min_pairwise: float = 0.02,
    max_tries: int = 1000,
) -> list[SurfacePoint]:
    """Deterministic quasi-uniform probe points on the curve.

    Draws with :meth:`SpectralCurve.sample_points`, clear of the marked
    and divisor points.  The marked points are the poles whose
    translates the base-to-probe path must clear, so downstream
    integrals never fight the pole guard.
    """
    marked = list(sd.marked.values())
    return sd.curve.sample_points(
        np.random.default_rng(seed), count, marked + list(sd.divisor),
        min_avoid, min_pairwise, max_tries, poles=marked,
    )
