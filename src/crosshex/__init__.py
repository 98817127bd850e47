"""Algebro-geometric difference operators on square and triangular lattices.

The package builds five-point cross and six-point hexagonal stencil
fields whose kernels contain an explicitly constructed family of
special functions, and verifies the construction numerically: stencil
residuals, an independent SVD null-space oracle with its kernel-gap
certificate, and gauge covariance.

Everything is built on genus-one (torus) spectral data, so lifts,
periods and theta arguments are plain complex numbers.

Layers, bottom up: ``theta`` (the genus-one Riemann theta with scaled
arithmetic), ``surface`` (the analytic torus curve and its curve
documents), ``labels`` (one integer table per lattice: site rule,
stencil neighbours, site classes, labels), ``bafunc`` (the function
families on a labels x probes grid), ``operators`` (stencil
formulas, the ``MODELS`` registry of per-lattice facts, fields,
residuals, oracle, gauge, documents), ``cli`` (the four-command
pipeline).
"""

from .bafunc import ConstantNormalization, SpectralDataCross, SpectralDataHex
from .errors import (
    ConsistencyFailure,
    CrosshexError,
    DimensionMismatch,
    InvalidSite,
    MissingGauge,
    NonConvergent,
    PoleOnPath,
    RankDeficient,
    SchemaError,
    SeparationFailure,
    SingularEvaluation,
)
from .labels import (
    CROSS_COEFFS,
    HEX_COEFFS,
    relabel_cross,
    relabel_hex,
    stencil_offsets,
)
from .operators import (
    CROSS,
    HEX,
    MODELS,
    GaugeField,
    Model,
    OracleReport,
    ResidualReport,
    Stencil,
    StencilField,
    build_field,
    cross_coefficients,
    field_document_text,
    field_from_document,
    field_metadata,
    field_to_csv,
    field_to_document,
    gauge_transform,
    hex_coefficients,
    model_named,
    nullspace_oracle,
    oracle_report,
    psi_grid,
    residual_report,
    sample_probes,
    window_sites,
)
from .surface import (
    SurfacePoint,
    TorusCurve,
    export_curve_document,
    load_torus_curve,
)
from .theta import PeriodMatrix, theta_eval_scaled

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
