"""Difference-operator coefficient fields and their verification.

The coefficient of each stencil entry, relative to a per-site unit
coefficient, is given by a closed ratio formula: a quotient of theta
factors evaluated at marked points, an exponential of third-kind
integrals between marked points, and for the center-like entries a
two-term bracketed sum.
The formula tables below transcribe those identities term by term; each
table entry records its transcription status, and the single corrected
index is documented in ERRATA.md with the numerical evidence.

Verification is independent of the construction: the null-space oracle
of ``oracle_report`` recovers the stencil at each site purely from
function values (the kernel of a probes-by-coefficients matrix), so
agreement between the two is a genuine cross-check, and the
singular-value gap certifies that the kernel is one-dimensional (the
uniqueness statement at desk scale).

Every per-lattice fact (coefficient keys, lattice table, unit, zero and
formula tables, spectral-data class) lives in one :class:`Model` record
per lattice, looked up by name in ``MODELS``.  A window's stencils are
one :class:`StencilField`: an array with a row per site, its sites
read from the lattice (``Lattice.window``); ``field.stencil(site)``
views one row.

All internal values are carried as (mantissa, log-scale) pairs: at
sites a few steps from the origin the individual theta and exponential
factors overflow double precision while every reported quantity -
normalized residuals, ratios, gaps - is moderate.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field as dc_field, replace
from functools import cache, cached_property, reduce
from itertools import chain, compress, islice
from typing import NoReturn

import numpy as np

from .bafunc import SpectralDataCross, SpectralDataHex
from .errors import (
    InvalidSite,
    MissingGauge,
    RankDeficient,
    SchemaError,
    SingularEvaluation,
)
from .labels import CROSS_COEFFS, HEX_COEFFS, Lattice, stencil_offsets
from .surface import SurfacePoint, complex_array_from_json, complex_from_json, complex_to_json
from .theta import NumpyScaledArray, ScaledArray

FIELD_DOC_FORMAT = "crosshex-field-v2"

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
    """One coefficient ratio: sign · main product · [sum of the bracket terms].

    ``transcription`` records whether the entry follows the source
    identity letter for letter or carries the documented index
    correction (see ERRATA.md).
    """

    coeff: str
    sign: int
    main: ProductTerm = ProductTerm()
    bracket: tuple[ProductTerm, ...] = ()
    transcription: str = "as-printed"


_tf = ThetaFactor
_it = IntegralTerm


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
        ProductTerm(
            theta_num=(_tf("P2+", _SJ),),
            theta_den=(_tf("P2+", _SIJ),),
            integrals=(_it(-1, "P2+", _P1),),
        ),
    ),
    RatioFormula(
        "b",
        -1,
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
        ProductTerm(
            theta_num=(_tf("P2+", _SJ), _tf("P1-", _SIJ)),
            theta_den=(_tf("P2+", _SIJ), _tf("P1-", _SIK)),
            integrals=(_it(-1, "P2+", _P1), _it(-1, "P1-", _P2), _it(-1, "P1-", _P3)),
        ),
    ),
    RatioFormula(
        "v",
        1,
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
        ProductTerm(
            theta_num=(_tf("P2-", _OJ),),
            theta_den=(_tf("P2-", _OIJ),),
            integrals=(_it(1, "P2-", _P1),),
        ),
    ),
    RatioFormula(
        "d",
        1,
        ProductTerm(
            theta_num=(_tf("P2-", _OJ), _tf("P1+", _OIJ)),
            theta_den=(_tf("P2-", _OIJ), _tf("P1+", _OIK)),
            integrals=(_it(1, "P2-", _P1), _it(1, "P1+", _P2), _it(1, "P1+", _P3)),
        ),
    ),
    RatioFormula(
        "v",
        1,
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
        ProductTerm(
            theta_num=(_tf("Q3", _B0),),
            theta_den=(_tf("Q3", _D0),),
            integrals=(_it(1, "Q3", _R21), _it(-1, "Q3", _Q12)),
        ),
    ),
    RatioFormula(
        "f",
        -1,
        ProductTerm(
            theta_num=(_tf("R1", _B0),),
            theta_den=(_tf("R1", _F0),),
            integrals=(_it(-1, "R1", _Q32), _it(-1, "R1", _R32)),
        ),
        transcription="corrected-index (denominator theta point; see ERRATA.md)",
    ),
)

# the uncorrected reading of the residue-0 f-coefficient, kept importable so
# the errata evidence is reproducible from the shipped package: the printed
# denominator theta is taken at Q3 instead of R1
HEX_CASE0_F_AS_PRINTED = replace(
    _HEX_CASE0[2],
    main=replace(_HEX_CASE0[2].main, theta_den=(_tf("Q3", _F0),)),
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
        ProductTerm(
            theta_num=(_tf("R3", _D1),),
            theta_den=(_tf("R3", _B1),),
            integrals=(_it(1, "R3", _Q12), _it(1, "R3", _R12)),
        ),
    ),
    RatioFormula(
        "c",
        1,
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
        ProductTerm(
            theta_num=(_tf("Q1", _F2),),
            theta_den=(_tf("Q1", _B2),),
            integrals=(_it(1, "Q1", _Q32), _it(1, "Q1", _R32)),
        ),
    ),
    RatioFormula(
        "d",
        -1,
        ProductTerm(
            theta_num=(_tf("R2", _F2),),
            theta_den=(_tf("R2", _D2),),
            integrals=(_it(1, "R2", _Q31), _it(1, "R2", _R31)),
        ),
    ),
    RatioFormula(
        "g",
        1,
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

    A site's class (parity on the square lattice, residue on the
    triangular one; ``lattice`` holds the site and label rules) indexes
    ``units``, ``zeros`` and ``formulas``.  Marked-point names, basis
    pairs and the lattice live on ``spectral_class``.
    """

    name: str
    coeffs: tuple[str, ...]  # coefficient keys, also the export column order
    units: tuple[str, ...]  # unit coefficient per class
    zeros: tuple[tuple[str, ...], ...]  # coefficients forced to zero per class
    formulas: tuple[tuple[RatioFormula, ...], ...]  # ratio formulas per class
    spectral_class: type

    @property
    def lattice(self) -> Lattice:
        return self.spectral_class.lattice

    @property
    def curve_integrals(self) -> tuple[tuple[str, tuple[str, str]], ...]:
        """Every (endpoint, pole pair) integral of the formulas, each between marked points."""
        return tuple(dict.fromkeys(_integral_keys(f for table in self.formulas for f in table)))

    @property
    def unit_columns(self) -> np.ndarray:
        """The column of each class's unit coefficient."""
        return np.array([self.coeffs.index(unit) for unit in self.units])

    def coords(self, sites) -> np.ndarray:
        """Validated ``sites`` as one (sites, d) integer array."""
        return np.array(sites, dtype=np.int64).reshape(len(sites), len(self.lattice.index_names))

    def __repr__(self) -> str:
        return f"Model({self.name!r})"


CROSS = Model(
    name="cross",
    coeffs=CROSS_COEFFS,
    units=("d", "c"),
    zeros=((), ()),
    formulas=(CROSS_EVEN_FORMULAS, CROSS_ODD_FORMULAS),
    spectral_class=SpectralDataCross,
)

HEX = Model(
    name="hex",
    coeffs=HEX_COEFFS,
    units=("b", "d", "f"),
    zeros=(("c", "g"), ("a", "g"), ("a", "c")),
    formulas=HEX_FORMULAS_BY_RESIDUE,
    spectral_class=SpectralDataHex,
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


def _integral_keys(formulas):
    """The (endpoint, pole pair) of every third-kind integral term in ``formulas``."""
    for formula in formulas:
        for term in (formula.main, *formula.bracket):
            for it in term.integrals:
                yield it.endpoint, it.pair


def _marked_integrals(sd, formulas) -> dict[tuple, complex]:
    """The formulas' distinct marked-point integrals, from one :meth:`integrals` call."""
    keys = list(dict.fromkeys(_integral_keys(formulas)))
    return dict(zip(keys, sd.integrals((sd.marked[endpoint], pair) for endpoint, pair in keys)))


def _exponent(term: ProductTerm, integrals: dict[tuple, complex]) -> complex:
    """The term's signed sum of third-kind integrals, in its order."""
    w = 0j
    for it in term.integrals:
        w += it.sign * integrals[it.endpoint, it.pair]
    return w


def _unique_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-D integer array, in lexicographic order, and the index of each row among them.

    What ``np.unique(a, axis=0, return_inverse=True)`` gives, from one
    sort of int64 codes (several times faster): a row's code is its
    offsets from the column minima read as a mixed-radix number, one
    digit per column.  An empty array, and rows whose column spans
    multiply past int64, go to ``np.unique`` itself.
    """
    if len(a):
        # column by column (several times faster than along axis 0), as exact Python ints
        lo = [int(column.min()) for column in a.T]
        spans = [int(column.max()) - low + 1 for column, low in zip(a.T, lo)]
        if math.prod(spans) < 2**63:
            strides = [math.prod(spans[j + 1 :]) for j in range(len(spans))]
            codes, inverse = np.unique((a - lo) @ np.array(strides, dtype=np.int64), return_inverse=True)
            return (codes[:, None] // strides % spans + lo).astype(a.dtype), inverse
    return np.unique(a, axis=0, return_inverse=True)


def _theta_table(sd, blocks, terms) -> tuple[ScaledArray, list[list[np.ndarray]]]:
    """The thetas of ``terms`` at their blocks' labels, one per distinct key, in one kernel call.

    A key is a (marked point, shifted label) pair.  Returned with the
    table: for each term, the table index of each of its factors
    (numerators, then denominators) at each row of its block.  Every denominator is held to the
    genericity floor here.
    """
    sizes = [len(labels) for labels, _ in blocks]
    factors = [(b, factor) for b, term in terms for factor in term.theta_num + term.theta_den]
    shifted = np.concatenate([blocks[b][0] + np.array(factor.shift, dtype=int) for b, factor in factors])
    points = np.repeat([sd.marked_names.index(f.point) for _, f in factors], [sizes[b] for b, _ in factors])
    keys, key_of = _unique_rows(np.column_stack([points, shifted]))
    table = sd.marked_thetas(keys[:, 1:], keys[:, 0])
    starts = np.cumsum([0] + [sizes[b] for b, _ in factors]).tolist()
    pieces = iter(key_of[start:end] for start, end in zip(starts, starts[1:]))
    index = [[next(pieces) for _ in term.theta_num + term.theta_den] for _, term in terms]
    for (_, term), at in zip(terms, index):
        for factor, rows in zip(term.theta_den, at[len(term.theta_num) :]):
            sd.require_generic(table[rows], f"theta denominator at {factor.point} with shift {factor.shift}")
    return table, index


def _ratios(sd, blocks) -> ScaledArray:
    """Every formula of ``blocks`` at every label of its block, in a fixed number of array passes.

    ``blocks`` is a list of ``(labels, formula)`` pairs, ``labels`` an
    integer array with one label per row; the result holds the ratios
    block after block.  The product terms of all blocks are stacked by
    shape (numerator and denominator counts): each shape takes one
    ``times`` or ``over`` per factor position, one ``times_exp`` and one
    sign flip.  Each bracket then takes one ``plus`` per further term and
    one product with its main term; then all ratios take one sign flip.
    Each element goes through the scaled operations of the one-label
    formula in their order, so it has the bits of that formula evaluated
    one value at a time.
    """
    integrals = _marked_integrals(sd, [formula for _, formula in blocks])
    terms = [(b, term) for b, (_, f) in enumerate(blocks) for term in (f.main, *f.bracket)]
    table, index = _theta_table(sd, blocks, terms)
    sizes = [len(labels) for labels, _ in blocks]

    shapes: dict[tuple, list[int]] = {}
    for i, (_, term) in enumerate(terms):
        shapes.setdefault((len(term.theta_num), len(term.theta_den)), []).append(i)
    products: list = [None] * len(terms)  # each term's slice of its shape's result
    for (num, den), group in shapes.items():
        counts = [sizes[terms[i][0]] for i in group]
        out = ScaledArray.from_complex(np.ones(sum(counts), dtype=complex))
        for k in range(num + den):
            theta = table[np.concatenate([index[i][k] for i in group])]
            out = out.times(theta) if k < num else out.over(theta)
        w = np.repeat(np.array([_exponent(terms[i][1], integrals) for i in group], dtype=complex), counts)
        out = out.times_exp(w).negated(np.repeat([terms[i][1].sign < 0 for i in group], counts))
        ends = np.cumsum(counts).tolist()
        for i, start, end in zip(group, [0] + ends, ends):
            products[i] = out[start:end]

    # each block's terms follow one another: its main product, then its bracket's
    pending = iter(products)
    ratios = []
    for _, f in blocks:
        ratio = next(pending)
        if f.bracket:
            ratio = ratio.times(reduce(ScaledArray.plus, islice(pending, len(f.bracket))))
        ratios.append(ratio)
    out = ScaledArray(np.concatenate([r.mantissa for r in ratios]), np.concatenate([r.log_scale for r in ratios]))
    return out.negated(np.repeat([f.sign < 0 for _, f in blocks], sizes))


def evaluate_ratio(sd, v, formula: RatioFormula) -> ScaledArray:
    """One coefficient ratio at label v, a 0-d ScaledArray: the one-label case of :func:`_ratios`."""
    return _ratios(sd, [(sd.label_array([v]), formula)])[0]


# ---------------------------------------------------------------------------
# stencils
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Stencil:
    """The coefficients of one lattice site, in its model's coefficient order.

    ``values`` is a one-site view: a row of a field's (sites,
    coefficients) array, or a lone site's evaluation.
    """

    model: Model
    site: tuple
    values: ScaledArray = dc_field(repr=False)  # (coefficients,)

    @property
    def unit(self) -> str:
        """The coefficient that is 1 at this site's class."""
        return self.model.units[self.model.lattice.classes(self.site)]

    def as_dict(self) -> dict[str, complex]:
        return dict(zip(self.model.coeffs, _plain(self.model, self.values).tolist()))


def _plain(model: Model, coeffs: ScaledArray) -> np.ndarray:
    """``coeffs.as_complex()``, coefficients last; the first one beyond double range (C order) raises."""
    values = coeffs.as_complex()
    beyond = np.flatnonzero(~np.isfinite(values))
    if beyond.size:
        i = beyond[0]
        raise SingularEvaluation(
            f"coefficient {model.coeffs[i % len(model.coeffs)]} exceeds double range (log magnitude "
            f"{coeffs.log_abs.flat[i]:.1f}); the window is too large for a plain-number export"
        )
    return values


def _stencil_table(model: Model, sd, sites) -> ScaledArray:
    """The stencils at valid ``sites``, one row each: each class's unit exactly 1, its forced zeros exactly 0.

    The sites' classes and labels come from the lattice table in one
    pass, and every formula of every class present is evaluated at its
    sites in one :func:`_ratios` call.
    """
    coords = model.coords(sites)
    classes = model.lattice.classes(coords)
    labels = model.lattice.labels(coords)
    present = np.unique(classes).tolist()
    blocks = [(labels[classes == c], f) for c in present for f in model.formulas[c]]
    ratios = _ratios(sd, blocks) if blocks else None
    mantissa = np.zeros((len(sites), len(model.coeffs)), dtype=complex)
    log_scale = np.zeros(mantissa.shape)
    mantissa[np.arange(len(sites)), model.unit_columns[classes]] = 1.0
    start = 0
    for c in present:
        rows = np.flatnonzero(classes == c)
        for f in model.formulas[c]:
            column = model.coeffs.index(f.coeff)
            mantissa[rows, column] = ratios.mantissa[start : start + len(rows)]
            log_scale[rows, column] = ratios.log_scale[start : start + len(rows)]
            start += len(rows)
    return ScaledArray(mantissa, log_scale)


def _site_stencil(model: Model, sd, site, field: "StencilField | None") -> Stencil:
    if field is not None:
        # a site outside the field, or of the other model (pairs against triples): KeyError
        return field.stencil(site)
    site = model.lattice.site(*site)
    return Stencil(model, site, _stencil_table(model, sd, [site])[0])


def cross_coefficients(sd: SpectralDataCross, site, field: "StencilField | None" = None) -> Stencil:
    """The stencil at one square-lattice site, unit coefficient set to 1.

    ``field`` is a built window (see :func:`build_field`) and must cover
    the site; without it the site is evaluated alone.
    """
    return _site_stencil(CROSS, sd, site, field)


def hex_coefficients(sd: SpectralDataHex, site, field: "StencilField | None" = None) -> Stencil:
    """The stencil at one triangular-lattice site, with its two forced zeros."""
    return _site_stencil(HEX, sd, site, field)


# ---------------------------------------------------------------------------
# fields and documents
# ---------------------------------------------------------------------------


def window_sites(model: str, radius: int) -> list[tuple]:
    """All sites with max-norm at most ``radius``, in lexicographic order (see ``Lattice.window``)."""
    return list(model_named(model).lattice.window(radius))


@dataclass(frozen=True)
class StencilField:
    """A window's stencils: one (sites, coefficients) array, a row per site of the window.

    ``sites`` is the radius's window in lexicographic order, derived
    from the lattice; row i of ``coeffs`` holds the coefficients of
    ``sites[i]`` in the model's coefficient order, and
    :meth:`stencil` gives a read-only one-site view of a row.
    """

    model: str
    radius: int
    coeffs: ScaledArray = dc_field(repr=False)
    sites: tuple[tuple, ...] = dc_field(init=False)

    def __post_init__(self):
        model = MODELS[self.model]
        # walked lazily, so a huge radius stops one site past the rows given
        sites = tuple(islice(model.lattice.window(self.radius), len(self.coeffs.mantissa) + 1))
        if self.coeffs.shape != (len(sites), len(model.coeffs)):
            raise ValueError(f"field coefficients have shape {self.coeffs.shape}, not one row per site")
        object.__setattr__(self, "sites", sites)
        # the stencil views share these arrays
        self.coeffs.mantissa.flags.writeable = self.coeffs.log_scale.flags.writeable = False

    @cached_property
    def rows(self) -> dict[tuple, int]:
        return {site: i for i, site in enumerate(self.sites)}

    def stencil(self, site) -> Stencil:
        """``site``'s :class:`Stencil`, a read-only view of its row; a site outside the field is a ``KeyError``."""
        row = self.rows[tuple(site)]
        return Stencil(MODELS[self.model], self.sites[row], self.coeffs[row])


def build_field(sd, radius: int) -> StencilField:
    """Evaluate the closed-form stencils on the whole window, stacked over all its sites."""
    model = MODELS[sd.model]
    sites = window_sites(model.name, radius)
    field = StencilField(model.name, radius, _stencil_table(model, sd, sites))
    # This loop exists only because perfbench's tracer counts one call of the
    # model's per-site builder per site (coeff_calls == 14); the tracer rebinds
    # the module globals, so the builder is read from them at call time.  Each
    # call returns a view of its site's row, which is dropped.  The loop goes
    # once the benchmark no longer counts these calls.
    builder = cross_coefficients if sd.model == "cross" else hex_coefficients
    for site in sites:
        builder(sd, site, field)
    return field


def _document(field: StencilField, sites: list, *, spectral_data_ref="", seed=None):
    return {
        "format": FIELD_DOC_FORMAT,
        "model": field.model,
        "window": {"radius": field.radius},
        "sites": sites,
        "spectral_data_ref": spectral_data_ref,
        "seed": seed,
    }


def field_to_document(field: StencilField, **metadata) -> dict:
    """The field document as a dict; :func:`field_document_text` writes its file text.

    ``metadata`` holds the keyword arguments ``spectral_data_ref``
    (default ``""``) and ``seed`` (default ``None``), as
    :func:`field_metadata` returns them.
    """
    model = MODELS[field.model]
    sites = [
        {"site": list(site), "coeffs": {k: complex_to_json(c) for k, c in zip(model.coeffs, row)}}
        for site, row in zip(field.sites, _plain(model, field.coeffs).tolist())
    ]
    return _document(field, sites, **metadata)


@cache
def _site_template(keys: tuple, width: int) -> str:
    """One ``sites`` entry as ``json.dumps(sort_keys=True, indent=2)`` lays it out.

    Each coefficient part and site index is a ``%r`` slot: ``repr`` of a
    float or an int is the text ``json`` prints for it.
    """
    pairs = ",\n".join(f"        {json.dumps(k)}: [\n          %r,\n          %r\n        ]" for k in keys)
    indices = ",\n".join(["        %r"] * width)
    return f'    {{\n      "coeffs": {{\n{pairs}\n      }},\n      "site": [\n{indices}\n      ]\n    }}'


def field_document_text(field: StencilField, **metadata) -> str:
    """The file text of ``field_to_document(field, **metadata)``, byte for byte.

    That is ``json.dumps(sort_keys=True, indent=2)`` of the dict and a
    newline.  The ``sites`` list, nearly all of the document, is one
    ``%`` pass of the per-site template over the field's arrays, several
    times faster than the pure-Python encoder that ``indent`` makes
    ``json`` use; ``json`` lays out the other members around it.
    """
    model = MODELS[field.model]
    head = json.dumps(_document(field, [], **metadata), sort_keys=True, indent=2)
    keys = tuple(sorted(model.coeffs))
    # re and im of each coefficient, in the template's (sorted) key order
    columns = [2 * model.coeffs.index(k) + part for k in keys for part in (0, 1)]
    parts = _plain(model, field.coeffs).view(float)[:, columns].tolist()
    values = [x for row, site in zip(parts, field.sites) for x in (*row, *site)]
    template = ",\n".join([_site_template(keys, len(model.lattice.index_names))] * len(field.sites))
    # a newline and a two-space indent start a top-level member: no JSON string holds a raw newline
    sites = '\n  "sites": [\n' + template % tuple(values) + "\n  ]"
    return head.replace('\n  "sites": []', sites, 1) + "\n"


def field_metadata(doc: dict) -> dict:
    """A field document's ``spectral_data_ref`` and ``seed``, checked.

    The result holds the keyword arguments of :func:`field_to_document`,
    so no other key of the document is copied.  The rules: a string ref
    (absent reads as ``""``), and a non-negative integer seed or null
    (``build`` writes its spectral document's seed, which the spectral
    reader requires, but the field reader also reads null).
    """
    ref = doc.get("spectral_data_ref", "")
    if not isinstance(ref, str):
        raise SchemaError(f"spectral_data_ref must be a string, got {ref!r}")
    seed = doc.get("seed")
    if seed is not None and not (type(seed) is int and seed >= 0):
        raise SchemaError(f"seed must be a non-negative integer or null, got {seed!r}")
    return {"spectral_data_ref": ref, "seed": seed}


def _is_entry(entry) -> bool:
    """Whether a ``sites`` entry is an object with a ``site`` list and a ``coeffs`` object."""
    return (
        isinstance(entry, dict) and isinstance(entry.get("site"), list) and isinstance(entry.get("coeffs"), dict)
    )


def _refuse(model: Model, radius: int, entries: list) -> NoReturn:
    """Raise the first refusal of a field document's ``sites`` entries, in document order.

    Within an entry: its shape, its site, the site's repeat, its keys,
    then each value in coefficient order.  After the last entry: the
    first window site missing, then the sites outside the window.
    """
    keys, seen = model.coeffs, set()
    for entry in entries:
        if not _is_entry(entry):
            raise SchemaError("each site entry needs a 'site' list and a 'coeffs' object")
        try:
            site = model.lattice.site(*entry["site"])
        except InvalidSite as exc:
            raise SchemaError(str(exc)) from None
        if site in seen:
            raise SchemaError(f"site {site} is listed twice")
        seen.add(site)
        coeffs = entry["coeffs"]
        if coeffs.keys() != set(keys):
            raise SchemaError(f"site {site}: coefficients must be exactly {keys}, got {sorted(coeffs)}")
        for k in keys:
            complex_from_json(coeffs[k], f"site {site}: coefficient {k}")
    for site in model.lattice.window(radius):  # walked lazily: a huge radius stops at its first missing site
        if site not in seen:
            raise SchemaError(f"field is missing site {site} inside its window")
    outside = sorted(seen - set(model.lattice.window(radius)))
    raise SchemaError(f"field has sites outside its radius-{radius} window: {outside}")


def field_from_document(doc: dict) -> StencilField:
    """The field a document holds; every refusal is a :class:`SchemaError`.

    A valid document takes one lean pass over the entries that checks
    their shape and keys and builds nothing per entry; the sites are
    then checked at once by comparing them, sorted, with the window, and
    the coefficient parts are checked and converted in bulk.  Any
    failure hands the entries to one walk (:func:`_refuse`) that names
    the first offending site (and coefficient) in document order.
    """
    if not isinstance(doc, dict):
        raise SchemaError("field document must be a JSON object")
    if doc.get("format") != FIELD_DOC_FORMAT:
        raise SchemaError(f"unexpected field-document format {doc.get('format')!r}")
    field_metadata(doc)  # a field read back is written back: its metadata must be writable
    try:
        model = model_named(doc.get("model"))
    except ValueError as exc:
        raise SchemaError(str(exc)) from None
    window = doc.get("window")
    radius = window.get("radius") if isinstance(window, dict) else None
    if type(radius) is not int or radius < 0:
        raise SchemaError("window must be an object with an integer 'radius' >= 0")
    entries = doc.get("sites")
    if not isinstance(entries, list):
        raise SchemaError("sites must be a list")
    keys, keyset = model.coeffs, set(model.coeffs)
    sites, pairs = [], []
    for entry in entries:
        if not (_is_entry(entry) and entry["coeffs"].keys() == keyset):
            _refuse(model, radius, entries)
        sites.append(tuple(entry["site"]))
        pairs += map(entry["coeffs"].__getitem__, keys)
    # integer sites (bools excluded, as labels has it) that sort into the
    # window are valid, distinct and complete
    types = set(map(type, chain.from_iterable(sites)))
    integers = all(issubclass(t, int) and not issubclass(t, bool) for t in types)
    order = sorted(range(len(sites)), key=sites.__getitem__) if integers else []
    window = list(islice(model.lattice.window(radius), len(sites) + 1))  # walked lazily: a huge radius stops early
    values = complex_array_from_json(pairs) if integers and [sites[i] for i in order] == window else None
    if values is None:
        _refuse(model, radius, entries)
    mantissa = values.reshape(len(sites), len(keys))[order]
    return StencilField(model.name, radius, ScaledArray(mantissa, np.zeros(mantissa.shape)))


def field_to_csv(field: StencilField) -> str:
    """CSV with one row per site: indices, then Re/Im of each coefficient.

    Values are printed with 17 significant digits, which round-trips
    IEEE doubles exactly; rows are in lexicographic site order.  The
    rows are one ``%`` pass of a fixed row template over the field's
    arrays.
    """
    model = MODELS[field.model]
    header = [*model.lattice.index_names, *(f"{part}_{k}" for k in model.coeffs for part in ("re", "im"))]
    parts = _plain(model, field.coeffs).view(float).tolist()
    values = [x for site, row in zip(field.sites, parts) for x in (*site, *row)]
    row = ",".join(["%d"] * len(model.lattice.index_names) + ["%.17g"] * (2 * len(model.coeffs)))
    return ",".join(header) + "\n" + "\n".join([row] * len(field.sites)) % tuple(values) + "\n"


# ---------------------------------------------------------------------------
# verification: residuals
# ---------------------------------------------------------------------------


def _rows(field: StencilField, sites) -> ScaledArray:
    """The stencils of ``field`` at ``sites``, a row each; a site it does not hold is refused."""
    rows = [field.rows.get(site) for site in sites]
    if None in rows:
        raise ValueError(f"the field has no stencil at site {sites[rows.index(None)]}")
    return field.coeffs[rows]


@dataclass(frozen=True)
class PsiGrid:
    """psi at the stencil neighbours of a list of sites (rows) and at probe points (columns).

    ``halo`` holds the distinct neighbour sites, one (d,) row per row of
    ``values``, and ``neighbor_rows`` the row of each site's neighbours
    in coefficient order.
    """

    probes: tuple[SurfacePoint, ...]
    sites: tuple[tuple, ...]
    halo: np.ndarray  # (halo sites, d)
    neighbor_rows: np.ndarray  # (len(sites), coefficients)
    values: ScaledArray  # (halo sites, probes)

    @cached_property
    def polar(self) -> tuple[np.ndarray, np.ndarray]:
        return self.values.polar()


def psi_grid(sd, window, probes) -> PsiGrid:
    """psi at every site of ``window`` and its one-site halo, at every probe.

    ``window`` is a radius or an iterable of sites, each validated; a
    number or a string is read as a radius, so a bad one is refused as
    :func:`window_sites` refuses it.  The neighbours are the sites plus
    the lattice offsets; the distinct ones, the halo, are labelled by
    the lattice table in one pass, and the whole grid is one
    :meth:`phi_scaled` call.
    """
    model = MODELS[sd.model]
    if isinstance(window, (numbers.Number, str)):
        sites = window_sites(model.name, window)
    else:
        sites = [model.lattice.site(*site) for site in window]
    coords = model.coords(sites)
    neighbors = coords[:, None, :] + model.lattice.offsets
    halo, rows = _unique_rows(neighbors.reshape(-1, coords.shape[1]))
    probes = tuple(probes)
    values = sd.phi_scaled(model.lattice.labels(halo), probes)
    return PsiGrid(probes, tuple(sites), halo, rows.reshape(neighbors.shape[:2]), values)


@dataclass(frozen=True)
class SiteResidual:
    site: tuple
    residual: float
    worst_probe: int


@dataclass(frozen=True)
class ResidualReport:
    model: str
    max_residual: float
    entries: tuple[SiteResidual, ...]
    failures: tuple[tuple, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


# sites whose residuals or oracle matrices are computed together: bounds the
# temporaries to a few hundred kB while keeping numpy calls few
_SITE_CHUNK = 64


def _site_residuals(rows: ScaledArray, grid: PsiGrid, neighbors) -> np.ndarray:
    """Normalized residual of each site's stencil equation at each probe: (sites, probes).

    ``rows`` holds the sites' stencils and ``neighbors`` the grid rows
    of their stencil neighbours (see :class:`PsiGrid`).
    """
    ncoef, n = neighbors.shape[1], len(neighbors)
    shape = (ncoef, n, len(grid.probes))
    coeffs = ScaledArray(np.ascontiguousarray(rows.mantissa.T), np.ascontiguousarray(rows.log_scale.T))
    coeffs = coeffs.reshape(ncoef, n, 1)
    # axis 0 runs over the coefficients, so the terms are summed in stencil order
    terms = coeffs.times(grid.values[neighbors.T])
    return terms.cancellation(np.broadcast_to(coeffs.mantissa != 0, shape))


def residual_report(field: StencilField, grid: PsiGrid) -> ResidualReport:
    """Max normalized residual of ``field``'s stencil equation at the sites and probes of ``grid``.

    ``grid`` holds psi at its sites' neighbours (see :func:`psi_grid`),
    and ``field`` must hold a stencil at each of its sites.  A
    gauge-transformed ``field`` is verified on a grid whose values are
    scaled by the gauge at their own site.  Each site's residual at a
    probe is |sum of terms| / sum of |terms| over its nonzero
    coefficients, and a site fails when its largest over the probes
    exceeds ``RESIDUAL_TOL``.
    """
    sites = grid.sites
    rows = _rows(field, sites)
    residuals = np.empty((len(sites), len(grid.probes)))
    for start in range(0, len(sites), _SITE_CHUNK):
        chunk = slice(start, start + _SITE_CHUNK)
        residuals[chunk] = _site_residuals(rows[chunk], grid, grid.neighbor_rows[chunk])
    if grid.probes:
        # the first probe attaining the maximum; a NaN counts as the maximum
        worst_probe = residuals.argmax(axis=1)
        worst = residuals[np.arange(len(sites)), worst_probe]
    else:
        worst_probe, worst = np.full(len(sites), -1), np.full(len(sites), -1.0)
    return ResidualReport(
        model=field.model,
        max_residual=float(worst.max(initial=0.0)),  # a NaN wins
        entries=tuple(map(SiteResidual, sites, worst.tolist(), worst_probe.tolist())),
        failures=tuple(compress(sites, ~(worst <= RESIDUAL_TOL))),  # a NaN residual is a breach
    )


# ---------------------------------------------------------------------------
# verification: independent null-space oracle
# ---------------------------------------------------------------------------

MIN_ORACLE_PROBES = 8
# The verify tolerances, fixed so that a check means the same on every run:
# the largest normalized residual, oracle gap sigma_min / sigma_second and
# relative oracle mismatch a site may show, and the largest share of the
# oracle's stencil equation a forced zero's term may carry.
RESIDUAL_TOL = 1e-8
GAP_TOL = 1e-6
MATCH_TOL = 1e-6
FORCED_ZERO_TOL = 1e-8


def nullspace_oracle(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The singular values of one site's balanced matrix and its last right singular vector.

    The conjugate of that vector is the oracle's kernel vector (see
    :func:`_oracle_chunk`).  The matrix must have at least as many rows
    (probes) as columns, so that the reduced SVD, which forms no full U,
    has every singular value and the whole of ``vh``; a wider one is
    refused, since its last right singular vector is not a kernel vector.
    """
    if matrix.shape[0] < matrix.shape[1]:
        raise ValueError(f"the null-space oracle needs at least as many rows as columns, got {matrix.shape}")
    _u, sing, vh = np.linalg.svd(matrix, full_matrices=False)
    return sing, vh[-1]


def _require_kernels(model: Model, sites, sing, kernels, units) -> None:
    """Raise :class:`RankDeficient` at the first site without a usable one-dimensional kernel.

    A site fails when its second-smallest singular value also collapses
    (degenerate probes or data), or, checked after that, when its kernel
    vector has a vanishing unit coefficient.
    """
    mags = np.abs(kernels)
    rank = sing[:, -2] < 1e-6 * sing[:, 0]
    vanishing = mags[np.arange(len(units)), units] < 1e-12 * mags.max(axis=1)
    failing = np.flatnonzero(rank | vanishing)
    if not failing.size:
        return
    i = failing[0]
    if rank[i]:
        raise RankDeficient(
            f"null-space oracle found a kernel of dimension >= 2 at site {sites[i]} "
            f"(second singular value {sing[i, -2]:.3e} vs largest {sing[i, 0]:.3e}); "
            "probes are degenerate or the spectral data is non-generic"
        )
    raise RankDeficient(
        f"oracle kernel vector at site {sites[i]} has a vanishing unit coefficient "
        f"{model.coeffs[units[i]]!r}; cannot normalize to the canonical stencil"
    )


def _oracle_chunk(model: Model, grid: PsiGrid, sites, neighbors, units):
    """The null-space oracle at ``sites``: their gaps, stencils and term shares, in array passes.

    Each site's probes-by-coefficients matrix of neighbour function
    values is balanced (per-column peak scale, then per-row peak, both
    exact in log space; row scaling leaves the kernel unchanged and the
    column scaling is inverted on the kernel vector); the kernel vector
    is the right singular vector of the smallest singular value, and the
    stencil is that vector over its unit coefficient (``units`` holds
    each site's unit column).  The gap sigma_min / sigma_second
    certifies kernel dimension one when it is small.  The shares hold,
    per site and coefficient j, the largest share its term takes of the
    stencil equation over the probes i, in the balanced frame:
    max_i |M_ij k_j| / sum_j |M_ij k_j| for the balanced matrix M and
    kernel vector k.  The first failing site raises what the one-site
    computation raised there (see :func:`_require_kernels`).
    """
    n, ncoef = neighbors.shape
    # a site's non-finite values reach only its own measures, and are reported there
    with np.errstate(all="ignore"):
        # (sites, probes, coefficients), C-ordered: each site's matrix is one block
        logs, phases = (np.ascontiguousarray(x[neighbors].transpose(0, 2, 1)) for x in grid.polar)
        col_scale = logs.max(axis=1)
        balanced = logs - col_scale[:, None, :]
        balanced = balanced - balanced.max(axis=2)[:, :, None]
        matrices = phases * np.exp(balanced)
    sing = np.empty((n, ncoef))
    kernels = np.empty((n, ncoef), dtype=complex)
    # One SVD per site, through the module global, because perfbench's tracer
    # counts one nullspace_oracle call and one np.linalg.svd call per site
    # (oracle_calls == svd_calls == 7).  One stacked SVD, which gave the same
    # bits at every site of radius-20 windows, waits until the counters live
    # in the package and the benchmark no longer counts these calls.
    for i, matrix in enumerate(matrices):
        try:
            sing[i], kernels[i] = nullspace_oracle(matrix)
        except np.linalg.LinAlgError:
            _require_kernels(model, sites[:i], sing[:i], kernels[:i], units[:i])  # an earlier failure first
            raise
    _require_kernels(model, sites, sing, kernels, units)
    kernels = kernels.conj()
    rows = np.arange(n)
    with np.errstate(all="ignore"):
        terms = np.abs(matrices * kernels[:, None, :])
        sums = terms.sum(axis=2, keepdims=True)
        shares = np.divide(terms, sums, out=np.zeros_like(terms), where=sums > 0).max(axis=1)
        # the kernel values are numpy scalars: the unit division takes numpy's arithmetic
        scaled = NumpyScaledArray(kernels, -col_scale)
        stencils = scaled.over(scaled[rows, units].reshape(n, 1))
        gaps = sing[:, -1] / sing[:, -2]
    stencils.mantissa[rows, units], stencils.log_scale[rows, units] = 1.0, 0.0
    return gaps, stencils, shares


@dataclass(frozen=True)
class OracleSiteResult:
    site: tuple
    gap: float
    max_mismatch: float
    forced_zero_excess: float


@dataclass(frozen=True)
class OracleReport:
    model: str
    max_gap: float
    max_mismatch: float
    max_forced_zero_excess: float
    entries: tuple[OracleSiteResult, ...]
    failures: tuple[tuple, ...]
    # the oracle's stencil at each entry's site, one row each, in the model's coefficient order
    coeffs: NumpyScaledArray = dc_field(repr=False)

    @property
    def passed(self) -> bool:
        return not self.failures


def oracle_report(field: StencilField, grid: PsiGrid) -> OracleReport:
    """Compare ``field``'s closed-form stencils against the null-space oracle at the sites of ``grid``.

    The oracle recovers each site's stencil from function values alone:
    the kernel of a probes-by-coefficients matrix (at least
    ``MIN_ORACLE_PROBES`` probes in ``grid``, see :func:`psi_grid`), so
    agreement with the closed form is an independent check.  For each
    site: the singular-value gap must certify a 1-dimensional kernel
    (``GAP_TOL``); non-vanishing coefficients must match the oracle
    relatively (``MATCH_TOL``); the term of a coefficient the formulas
    force to zero must carry at most ``FORCED_ZERO_TOL`` of the oracle's
    stencil equation at every probe (its share in the balanced frame,
    see :func:`_oracle_chunk`).  Measured there, a forced zero does not
    drift with the spread of neighbour magnitudes, which grows with the
    window.  A site whose kernel is not one-dimensional, or has a
    vanishing unit coefficient, raises :class:`RankDeficient` naming the
    first such site.
    """
    model = MODELS[field.model]
    sites = grid.sites
    if sites and len(grid.probes) < MIN_ORACLE_PROBES:
        raise ValueError(f"the null-space oracle needs at least {MIN_ORACLE_PROBES} probe points")
    formula = _rows(field, sites)
    units = model.unit_columns[model.lattice.classes(model.coords(sites))]
    gaps = np.empty(len(sites))
    shares = np.empty(formula.shape)
    oracle = NumpyScaledArray(np.empty(formula.shape, dtype=complex), np.empty(formula.shape))
    for start in range(0, len(sites), _SITE_CHUNK):
        chunk = slice(start, start + _SITE_CHUNK)
        gaps[chunk], stencils, shares[chunk] = _oracle_chunk(
            model, grid, sites[chunk], grid.neighbor_rows[chunk], units[chunk]
        )
        oracle.mantissa[chunk], oracle.log_scale[chunk] = stencils.mantissa, stencils.log_scale
    nonzero = formula.mantissa != 0
    with np.errstate(all="ignore"):
        # the oracle's mantissas are numpy scalars, so each ratio takes numpy's arithmetic
        ratios = oracle[nonzero].over(formula[nonzero]).as_complex() - 1.0
    errors = np.zeros(nonzero.shape)
    errors[nonzero] = np.hypot(ratios.real, ratios.imag)
    # maxima over coefficients and sites: a NaN wins
    mismatch = errors.max(axis=1)
    zero_excess = np.where(nonzero, 0.0, shares).max(axis=1)
    passed = (gaps <= GAP_TOL) & (mismatch <= MATCH_TOL) & (zero_excess <= FORCED_ZERO_TOL)
    return OracleReport(
        model=field.model,
        max_gap=float(gaps.max(initial=0.0)),
        max_mismatch=float(mismatch.max(initial=0.0)),
        max_forced_zero_excess=float(zero_excess.max(initial=0.0)),
        entries=tuple(map(OracleSiteResult, sites, gaps.tolist(), mismatch.tolist(), zero_excess.tolist())),
        failures=tuple(compress(sites, ~passed)),
        coeffs=oracle,
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
            if not (np.isfinite(g) and abs(g) >= 1e-12):
                raise ValueError(
                    f"gauge value at site {site} must be finite and at least 1e-12 in size, got {g!r}"
                )

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
    gauges = [gauge.at(nb) for site in field.sites for nb in stencil_offsets(field.model, site)]
    divisor = ScaledArray.from_complex(np.array(gauges, dtype=complex).reshape(field.coeffs.shape))
    return replace(field, coeffs=field.coeffs.over(divisor))


# ---------------------------------------------------------------------------
# probe sampling
# ---------------------------------------------------------------------------


# a probe's least distance from the marked and divisor points and from the
# other probes
_PROBE_MIN_AVOID = 0.05
_PROBE_MIN_PAIRWISE = 0.02


def sample_probes(sd, count: int, seed: int) -> list[SurfacePoint]:
    """Deterministic quasi-uniform probe points on the curve.

    Draws with :meth:`TorusCurve.sample_points`, clear of the marked
    and divisor points.  The marked points are the poles whose
    translates the base-to-probe path must clear, so downstream
    integrals never fight the pole guard.
    """
    marked = list(sd.marked.values())
    return sd.curve.sample_points(
        np.random.default_rng(seed), count, marked + list(sd.divisor),
        _PROBE_MIN_AVOID, _PROBE_MIN_PAIRWISE, poles=marked,
    )
