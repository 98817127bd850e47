"""Command-line pipeline: spectral data -> coefficient field -> verification.

Four subcommands cover the whole workflow:

``gen-spectral``
    Draw a seeded genus-one curve and well-separated marked/divisor
    points, and write the spectral-data document plus its curve-data
    companion.  Reruns with the same seed produce byte-identical files.
``build``
    Evaluate the stencil field on a window and write the field document.
``verify``
    Rebuild the field, then check it three ways at fresh probe points:
    normalized residuals of the stencil equation, the singular-value gap
    of the independent null-space oracle, and the componentwise match
    between oracle and construction.  Exit status 1 on any breach.
``export``
    Convert a field document to CSV (default) or canonical JSON.

Exit codes: 0 success, 1 verification breach or data-quality failure,
2 usage errors (bad flags, missing or malformed documents).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .bafunc import ConstantNormalization
from .errors import CrosshexError, SchemaError
from .operators import (
    MIN_ORACLE_PROBES,
    MODELS,
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
    MIN_RE_B,
    TorusCurve,
    complex_from_json,
    complex_to_json,
    export_curve_document,
    load_tabulated_curve,
    load_torus_curve,
    make_torus_curve,
)

SPECTRAL_DOC_FORMAT = "crosshex-spectral-v1"
VERIFY_DOC_FORMAT = "crosshex-verify-v2"

# marked and divisor points keep this cover distance from the base and each other
_MIN_COVER_SEPARATION = 0.1


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
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        # RecursionError: nesting deeper than the decoder's recursion limit
        raise SchemaError(f"{path} is not valid JSON: {exc}") from None


# ---------------------------------------------------------------------------
# gen-spectral
# ---------------------------------------------------------------------------


def cmd_gen_spectral(config) -> int:
    model = MODELS[config.model]
    spectral_class = model.spectral_class
    rng = np.random.default_rng(config.seed)
    # the default --b-im 0.0 gives complex(x, 0.0), which has the bits of complex(x)
    b = complex(rng.uniform(-8.0, -3.0) if config.b_re is None else config.b_re, config.b_im)
    curve = make_torus_curve(b)
    names = spectral_class.marked_names
    points = curve.sample_points(
        rng, len(names) + 1, avoid=[curve.point(curve.base_lift)],
        min_avoid=_MIN_COVER_SEPARATION, min_pairwise=_MIN_COVER_SEPARATION,
    )
    marked = dict(zip(names, points))
    divisor = points[len(names):]
    normalization = ConstantNormalization()
    # one lockstep pass checks the b-periods and computes the stored integrals
    curve_doc = export_curve_document(
        curve, marked, list(spectral_class.basis_pairs), list(model.curve_integrals)
    )
    # construct once now, reading the checked b-periods: separation and
    # precomputation problems should surface at generation time, not at first use
    spectral_class(curve, marked, divisor, normalization)

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
        "normalization": normalization.to_json(),
    }
    _write((_json(curve_doc), curve_path), (_json(spectral_doc), out))
    print(f"wrote {out} and {curve_path} (model {model.name}, seed {config.seed})")
    return 0


# ---------------------------------------------------------------------------
# document loading shared by build / verify
# ---------------------------------------------------------------------------


def load_spectral_document(path: str):
    """Reconstruct spectral data from a document written by gen-spectral.

    Returns ``(spectral_data, document)``.  The ``backend`` field picks
    the curve engine: ``torus-analytic`` rebuilds the genus-one curve
    from its period, ``tabulated`` serves every curve quantity from the
    stored tables (enough to build and export, not to verify).
    """
    doc = _load_json(path)
    if not isinstance(doc, dict) or doc.get("format") != SPECTRAL_DOC_FORMAT:
        raise SchemaError(f"{path}: not a {SPECTRAL_DOC_FORMAT} document")
    try:
        spectral_class = model_named(doc.get("model")).spectral_class
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise SchemaError(f"{path}: seed must be a non-negative integer, got {seed!r}")
    curve_ref = doc.get("curve_ref")
    if not isinstance(curve_ref, str) or not curve_ref:
        raise SchemaError(f"{path}: curve_ref must be a nonempty path string")
    backend = doc.get("backend")
    if backend not in ("torus-analytic", "tabulated"):
        raise SchemaError(f"{path}: unknown backend {backend!r}")
    curve_path = os.path.join(os.path.dirname(path) or ".", curve_ref)
    curve_doc = _load_json(curve_path)
    try:
        if backend == "tabulated":
            curve = load_tabulated_curve(curve_doc)
            marked = curve.marked
        else:
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
    divisor = [curve.point(complex_from_json(divisor_raw[0], f"{path}: divisor[0]"))]
    norm_raw = doc.get("normalization")
    try:
        normalization = ConstantNormalization.from_json(norm_raw)
    except (ValueError, SchemaError) as exc:
        raise SchemaError(f"{path}: bad normalization: {exc}") from None
    sd = spectral_class(curve, marked, divisor, normalization)
    return sd, doc


# ---------------------------------------------------------------------------
# build / verify / export
# ---------------------------------------------------------------------------


def cmd_build(config) -> int:
    sd, doc = load_spectral_document(config.input)
    field = build_field(sd, config.window)
    text = field_document_text(
        field,
        spectral_data_ref=os.path.basename(config.input),
        seed=doc.get("seed"),
        normalization=sd.normalization.to_json(),
    )
    _write((text, config.output))
    print(
        f"wrote {config.output}: {len(field.sites)} {sd.model} stencils, "
        f"window radius {config.window}"
    )
    return 0


def _print_check(name: str, value: float, tol: float, ok: bool) -> None:
    print(f"{name:<14} max {value:.3e}  tol {tol:.1e}  {'PASS' if ok else 'FAIL'}")


def cmd_verify(config) -> int:
    sd, doc = load_spectral_document(config.input)
    if not isinstance(sd.curve, TorusCurve):
        print(
            "error: verification needs the analytic backend (fresh probe points); "
            "tabulated curve documents only support build and export",
            file=sys.stderr,
        )
        return 2
    probe_seed = config.seed if config.seed is not None else doc.get("seed", 0) + 1000
    probes = sample_probes(sd, config.probes, seed=probe_seed)
    # the field's marked-point integrals and psi's probe integrals, tracked in one pass
    sd.integrals(
        [(sd.marked[endpoint], pair) for endpoint, pair in MODELS[sd.model].curve_integrals]
        + [(P, pair) for pair in sd.basis_pairs for P in probes]
    )
    field = build_field(sd, config.window)
    grid = psi_grid(sd, config.window, probes)
    rrep = residual_report(field, grid, tol=config.tol)
    orep = oracle_report(field, grid, gap_tol=config.gap_tol, match_tol=config.match_tol)
    _print_check("residual", rrep.max_residual, rrep.tolerance, not rrep.failures)
    _print_check("kernel gap", orep.max_gap, orep.gap_tolerance, orep.max_gap <= orep.gap_tolerance)
    _print_check(
        "oracle match", orep.max_mismatch, orep.match_tolerance, orep.max_mismatch <= orep.match_tolerance
    )
    if any(MODELS[sd.model].zeros):
        _print_check(
            "forced zeros",
            orep.max_forced_zero_excess,
            orep.zero_tolerance,
            orep.max_forced_zero_excess <= orep.zero_tolerance,
        )
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
            "tolerances": {
                "residual": config.tol,
                "gap": config.gap_tol,
                "match": config.match_tol,
                "forced_zero": orep.zero_tolerance,
            },
            "max_residual": rrep.max_residual,
            "max_gap": orep.max_gap,
            "max_mismatch": orep.max_mismatch,
            "max_forced_zero_excess": orep.max_forced_zero_excess,
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
_RE_B = _checked(float, lambda v: MIN_RE_B <= v <= -3.0, f"a number in [{MIN_RE_B:g}, -3]")
_IM_B = _checked(float, lambda v: abs(v) <= MAX_ABS_IM_B, f"a number in [-{MAX_ABS_IM_B:g}, {MAX_ABS_IM_B:g}]")
_TOLERANCE = _checked(float, lambda v: math.isfinite(v) and v > 0, "a finite number > 0")


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
        help=f"period real part (in [{MIN_RE_B:g}, -3]); default: seeded draw from [-8, -3]",
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
    v.add_argument("--tol", type=_TOLERANCE, default=1e-8, help="residual tolerance")
    v.add_argument("--gap-tol", type=_TOLERANCE, default=1e-6, help="kernel-gap tolerance")
    v.add_argument("--match-tol", type=_TOLERANCE, default=1e-6, help="oracle-match tolerance")
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
