"""Algebro-geometric difference operators on square and triangular lattices.

The package builds five-point cross and six-point hexagonal stencil
fields whose kernels contain an explicitly constructed family of
special functions, and verifies the construction numerically: stencil
residuals, an independent SVD null-space oracle with its kernel-gap
certificate, and gauge covariance.

Everything is built on genus-one (torus) spectral data, so lifts,
periods and theta arguments are plain complex numbers.

Layers, bottom up: ``theta`` (the genus-one Riemann theta with scaled
arithmetic), ``surface`` (the analytic torus backend plus a tabulated
backend and curve documents), ``labels`` (lattice-site relabelling and
stencil geometry), ``bafunc`` (the function families and uniqueness
checks), ``operators`` (stencil formulas, the ``MODELS`` registry of
per-lattice facts, fields, residuals, oracle, gauge, documents),
``cli`` (the four-command pipeline).
"""

from .bafunc import (
    CROSS_MARKED_NAMES,
    CROSS_PAIRS,
    HEX_MARKED_NAMES,
    HEX_PAIRS,
    ConstantNormalization,
    SpectralDataCross,
    SpectralDataHex,
    UniquenessReport,
    phi,
    psi,
    relift,
    theta_component,
    uniqueness_check,
)
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
    UnknownPoint,
)
from .labels import (
    CROSS_COEFFS,
    HEX_COEFFS,
    Label3,
    Label6,
    SiteCross,
    SiteHex,
    relabel_cross,
    relabel_hex,
    site_cross,
    site_hex,
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
    field_from_document,
    field_to_csv,
    field_to_document,
    gauge_transform,
    hex_coefficients,
    model_named,
    nullspace_oracle,
    oracle_report,
    residual_report,
    sample_probes,
    window_sites,
)
from .surface import (
    SurfacePoint,
    TabulatedCurve,
    TorusCurve,
    export_curve_document,
    load_tabulated_curve,
    load_torus_curve,
    make_torus_curve,
)
from .theta import (
    PeriodMatrix,
    ScaledComplex,
    theta_eval,
    theta_eval_scaled,
    theta_zero_1d,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
