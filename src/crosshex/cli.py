"""Command-line pipeline: spectral data -> coefficient field -> verification.

Four subcommands cover the whole workflow:

``gen-spectral``
    Draw a seeded genus-one curve and well-separated marked/divisor
    points, and write the spectral-data document plus its curve-data
    companion.  Reruns with the same seed produce byte-identical files.
``build``
    Evaluate the stencil field on a window and write the field document.
``verify``
    Rebuild the field, then make four checks at fresh probe points, each
    against a fixed tolerance: the residual (normalized residuals of the
    stencil equation), the kernel gap (the singular-value gap of the
    independent null-space oracle), the oracle match (the componentwise
    match between oracle and construction) and, for a model with forced
    zeros, the forced zeros (the share a forced zero's term carries of
    the oracle's stencil equation).  Exit status 1 on any breach.
``export``
    Convert a field document to CSV (default) or canonical JSON.

Exit codes: 0 success, 1 verification breach or data-quality failure,
2 usage errors (bad flags, missing or malformed documents).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .errors import CrosshexError, SchemaError
from .operators import (
    FORCED_ZERO_TOL,
    GAP_TOL,
    MATCH_TOL,
    MIN_ORACLE_PROBES,
    MODELS,
    RESIDUAL_TOL,
    build_field,
    field_document_text,
    field_from_document,
    field_metadata,
    field_to_csv,
    model_named,
    oracle_report,
    psi_grid,
    residual_report,
    sample_probes,
)
from .surface import (
    MAX_ABS_IM_B,
    MAX_RE_B,
    MIN_RE_B,
    SurfacePoint,
    TorusCurve,
    complex_from_json,
    complex_to_json,
    export_curve_document,
    load_torus_curve,
    require_near_base,
)

SPECTRAL_DOC_FORMAT = "crosshex-spectral-v2"
VERIFY_DOC_FORMAT = "crosshex-verify-v2"

# marked and divisor points keep this cover distance from the base and each other
_MIN_COVER_SEPARATION = 0.1

# verify's checks: the printed name, the report key of the maximum (an attribute of
# the residual or the oracle report), the key in the report's tolerances and the
# tolerance.  A site fails a check when its measure exceeds the tolerance, so a check
# passes exactly when its maximum, in which a NaN wins, is within it.
_CHECKS = (
    ("residual", "max_residual", "residual", RESIDUAL_TOL),
    ("kernel gap", "max_gap", "gap", GAP_TOL),
    ("oracle match", "max_mismatch", "match", MATCH_TOL),
    ("forced zeros", "max_forced_zero_excess", "forced_zero", FORCED_ZERO_TOL),
)


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write(*documents) -> None:
    """Write each ``(text, path)`` pair in turn; on any exception, remove every regular file opened, then re-raise.

    Paths are resolved through symlinks at cleanup: a failed write through a link removes the document it
    truncated and keeps the link, and a device such as /dev/full stays.
    """
    opened = []
    try:
        for text, path in documents:
            with open(path, "w") as fh:
                opened.append(path)
                fh.write(text)
    except BaseException:
        for path in opened:
            target = os.path.realpath(path)
            if os.path.isfile(target):
                os.remove(target)
        raise


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON, undecodable bytes and an integer
        # literal past the interpreter's digit limit; RecursionError, nesting
        # deeper than the decoder's recursion limit
        raise SchemaError(f"{path} is not valid JSON: {exc}") from None


# ---------------------------------------------------------------------------
# gen-spectral
# ---------------------------------------------------------------------------


def cmd_gen_spectral(config) -> int:
    model = MODELS[config.model]
    spectral_class = model.spectral_class
    rng = np.random.default_rng(config.seed)
    # the default --b-im 0.0 gives complex(x, 0.0), which has the bits of complex(x)
    b = complex(rng.uniform(-8.0, MAX_RE_B) if config.b_re is None else config.b_re, config.b_im)
    curve = TorusCurve(b)
    names = spectral_class.marked_names
    points = curve.sample_points(
        rng, len(names) + 1, avoid=[SurfacePoint(curve.base_lift)],
        min_avoid=_MIN_COVER_SEPARATION, min_pairwise=_MIN_COVER_SEPARATION,
    )
    marked = dict(zip(names, points))
    divisor = points[len(names):]
    # construct once now, which checks the b-periods: separation and
    # precomputation problems should surface at generation time, not at first use
    spectral_class(curve, marked, divisor)

    out = config.output
    stem = out[: -len(".json")] if out.endswith(".json") else out
    curve_path = stem + ".curve.json"
    spectral_doc = {
        "format": SPECTRAL_DOC_FORMAT,
        "model": model.name,
        "seed": config.seed,
        "backend": "torus-analytic",
        "curve_ref": os.path.basename(curve_path),
        "divisor": [complex_to_json(p.lift) for p in divisor],
    }
    _write((_json(export_curve_document(curve, marked)), curve_path), (_json(spectral_doc), out))
    print(f"wrote {out} and {curve_path} (model {model.name}, seed {config.seed})")
    return 0


# ---------------------------------------------------------------------------
# document loading shared by build / verify
# ---------------------------------------------------------------------------


def load_spectral_document(path: str):
    """Reconstruct spectral data from a document written by gen-spectral.

    Returns ``(spectral_data, document)``.  The ``backend`` field is
    ``torus-analytic`` or ``tabulated``; both rebuild the genus-one curve
    from the period and lifts that the curve document holds.  A divisor
    lift far from the base is refused as a marked point is
    (:func:`~crosshex.surface.require_near_base`), and so is a ``seed``
    that is absent, null or not a non-negative int.  A document of any
    other format (``crosshex-spectral-v1`` included) is refused, and keys
    the reader does not read are ignored.
    """
    doc = _load_json(path)
    if not isinstance(doc, dict) or doc.get("format") != SPECTRAL_DOC_FORMAT:
        raise SchemaError(f"{path}: not a {SPECTRAL_DOC_FORMAT} document")
    try:
        spectral_class = model_named(doc.get("model")).spectral_class
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    seed = doc.get("seed")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise SchemaError(f"{path}: seed must be a non-negative integer, got {seed!r}")
    curve_ref = doc.get("curve_ref")
    if not isinstance(curve_ref, str) or not curve_ref or "\0" in curve_ref:
        raise SchemaError(f"{path}: curve_ref must be a nonempty path string")
    backend = doc.get("backend")
    if backend not in ("torus-analytic", "tabulated"):
        raise SchemaError(f"{path}: unknown backend {backend!r}")
    curve_path = os.path.join(os.path.dirname(path) or ".", curve_ref)
    curve_doc = _load_json(curve_path)
    try:
        curve, marked = load_torus_curve(curve_doc)
    except SchemaError as exc:
        raise SchemaError(f"{curve_path}: {exc}") from None
    if set(marked) != set(spectral_class.marked_names):
        raise SchemaError(
            f"{curve_path}: marked points {sorted(marked)} do not match model {spectral_class.model}"
        )
    divisor_raw = doc.get("divisor")
    if not isinstance(divisor_raw, list) or len(divisor_raw) != 1:
        raise SchemaError(f"{path}: divisor must list exactly one point")
    divisor = [SurfacePoint(complex_from_json(divisor_raw[0], f"{path}: divisor[0]"))]
    require_near_base(curve, divisor[0].lift, f"{path}: divisor[0]")
    sd = spectral_class(curve, marked, divisor)
    return sd, doc


# ---------------------------------------------------------------------------
# build / verify / export
# ---------------------------------------------------------------------------


def cmd_build(config) -> int:
    sd, doc = load_spectral_document(config.input)
    field = build_field(sd, config.window)
    text = field_document_text(field, spectral_data_ref=os.path.basename(config.input), seed=doc["seed"])
    _write((text, config.output))
    print(
        f"wrote {config.output}: {len(field.sites)} {sd.model} stencils, "
        f"window radius {config.window}"
    )
    return 0


def cmd_verify(config) -> int:
    sd, doc = load_spectral_document(config.input)
    probe_seed = config.seed if config.seed is not None else doc["seed"] + 1000
    probes = sample_probes(sd, config.probes, seed=probe_seed)
    # the field's marked-point integrals and psi's probe integrals, tracked in one pass
    sd.integrals(
        [(sd.marked[endpoint], pair) for endpoint, pair in MODELS[sd.model].curve_integrals]
        + [(P, pair) for pair in sd.basis_pairs for P in probes]
    )
    field = build_field(sd, config.window)
    grid = psi_grid(sd, config.window, probes)
    rrep = residual_report(field, grid)
    orep = oracle_report(field, grid)
    maxima = {key: getattr(rrep if hasattr(rrep, key) else orep, key) for _, key, _, _ in _CHECKS}
    # the forced-zero line only for a model whose formulas force zeros
    for name, key, _, tol in _CHECKS if any(MODELS[sd.model].zeros) else _CHECKS[:-1]:
        print(f"{name:<14} max {maxima[key]:.3e}  tol {tol:.1e}  {'PASS' if maxima[key] <= tol else 'FAIL'}")
    passed = rrep.passed and orep.passed
    for site in rrep.failures:
        print(f"  residual breach at site {site}")
    for site in orep.failures:
        print(f"  oracle breach at site {site}")
    if config.output:
        report = {
            "format": VERIFY_DOC_FORMAT,
            "model": sd.model,
            "window": {"radius": config.window},
            "probes": config.probes,
            "probe_seed": probe_seed,
            "tolerances": {tol_key: tol for _, _, tol_key, tol in _CHECKS},
            **maxima,
            "residual_failures": [list(s) for s in rrep.failures],
            "oracle_failures": [list(s) for s in orep.failures],
            "passed": passed,
        }
        _write((_json(report), config.output))
    print("verification PASSED" if passed else "verification FAILED")
    return 0 if passed else 1


def cmd_export(config) -> int:
    doc = _load_json(config.input)
    field = field_from_document(doc)
    text = field_to_csv(field) if config.format == "csv" else field_document_text(field, **field_metadata(doc))
    _write((text, config.output))
    print(f"wrote {config.output} ({config.format}, {len(field.sites)} sites)")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _checked(convert, accept, rule: str):
    """An argparse ``type`` that refuses values outside ``rule`` with a usage error."""

    def parse(text: str):
        value = convert(text)  # argparse reports a ValueError as "invalid int value"
        if not accept(value):
            raise argparse.ArgumentTypeError(f"expected {rule}, got {text!r}")
        return value

    parse.__name__ = convert.__name__
    return parse


_NATURAL = _checked(int, lambda v: v >= 0, "an integer >= 0")
_PROBE_COUNT = _checked(int, lambda v: v >= MIN_ORACLE_PROBES, f"an integer >= {MIN_ORACLE_PROBES}")
_RE_B = _checked(float, lambda v: MIN_RE_B <= v <= MAX_RE_B, f"a number in [{MIN_RE_B:g}, {MAX_RE_B:g}]")
_IM_B = _checked(float, lambda v: abs(v) <= MAX_ABS_IM_B, f"a number in [-{MAX_ABS_IM_B:g}, {MAX_ABS_IM_B:g}]")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="crosshex",
        description="Build and verify lattice difference operators from curve data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-spectral", help="generate seeded spectral data documents")
    g.add_argument("--model", choices=tuple(MODELS), required=True)
    g.add_argument("--seed", type=_NATURAL, default=0, help="RNG seed (default 0)")
    g.add_argument(
        "--b-re", type=_RE_B, default=None,
        help=f"period real part (in [{MIN_RE_B:g}, {MAX_RE_B:g}]); default: seeded draw from [-8, {MAX_RE_B:g}]",
    )
    g.add_argument(
        "--b-im", type=_IM_B, default=0.0,
        help=f"period imaginary part (in [-{MAX_ABS_IM_B:g}, {MAX_ABS_IM_B:g}]; default 0)",
    )
    g.add_argument("-o", "--output", required=True, help="spectral document path (.json)")

    b = sub.add_parser("build", help="evaluate the stencil field on a window")
    b.add_argument("-i", "--input", required=True, help="spectral document path")
    b.add_argument("--window", type=_NATURAL, default=3, help="window radius (default 3)")
    b.add_argument("-o", "--output", required=True, help="field document path (.json)")

    v = sub.add_parser("verify", help="check residuals, kernel gap, and oracle match")
    v.add_argument("-i", "--input", required=True, help="spectral document path")
    v.add_argument("--window", type=_NATURAL, default=3, help="window radius (default 3)")
    v.add_argument("--probes", type=_PROBE_COUNT, default=20, help="probe count (default 20)")
    v.add_argument(
        "--seed", type=_NATURAL, default=None,
        help="probe seed (default: spectral seed + 1000)",
    )
    v.add_argument("-o", "--output", default=None, help="optional JSON report path")

    e = sub.add_parser("export", help="convert a field document to CSV or JSON")
    e.add_argument("-i", "--input", required=True, help="field document path")
    e.add_argument("--format", choices=("json", "csv"), default="csv")
    e.add_argument("-o", "--output", required=True, help="output path")
    return parser


def main(argv=None) -> int:
    config = _build_parser().parse_args(argv)
    # looked up at call time, so a rebound ``cmd_*`` module global is the one called
    command = globals()["cmd_" + config.command.replace("-", "_")]
    try:
        return command(config)
    except (SchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CrosshexError as exc:
        print(f"verification-grade failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
