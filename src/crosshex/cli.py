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
import json
import math
import os
import sys

import numpy as np

from .bafunc import ConstantNormalization
from .errors import CrosshexError, SchemaError, SeparationFailure
from .operators import (
    MODELS,
    build_field,
    field_from_document,
    field_to_csv,
    field_to_document,
    model_named,
    oracle_report,
    residual_report,
    sample_probes,
)
from .surface import (
    TorusCurve,
    _json2lift,
    _lift2json,
    _pair2c,
    export_curve_document,
    load_tabulated_curve,
    make_torus_curve,
)

SPECTRAL_DOC_FORMAT = "crosshex-spectral-v1"
VERIFY_DOC_FORMAT = "crosshex-verify-v1"

_MIN_COVER_SEPARATION = 0.1
_MAX_DRAWS = 1000


def _dump_json(obj, path: str) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from None


# ---------------------------------------------------------------------------
# gen-spectral
# ---------------------------------------------------------------------------


def _sample_separated_lifts(curve: TorusCurve, rng, count: int) -> list[np.ndarray]:
    """Uniform cell draws, pairwise and base-separated by 0.1 cover distance."""
    B = curve.pm.matrix
    g = curve.genus
    kept: list[np.ndarray] = []
    anchors = [np.array(curve.base_lift, dtype=complex)]
    tries = 0
    while len(kept) < count:
        if tries >= _MAX_DRAWS:
            raise SeparationFailure(
                f"placed {len(kept)} of {count} points in {_MAX_DRAWS} draws at "
                f"minimum cover separation {_MIN_COVER_SEPARATION}"
            )
        tries += 1
        lift = (
            np.array(curve.base_lift, dtype=complex)
            + 2j * math.pi * rng.random(g)
            + B @ rng.random(g)
        )
        if min(curve.cover_distance(lift, a) for a in anchors) < _MIN_COVER_SEPARATION:
            continue
        anchors.append(lift)
        kept.append(lift)
    return kept


def cmd_gen_spectral(config) -> int:
    model = MODELS[config.model]
    spectral_class = model.spectral_class
    rng = np.random.default_rng(config.seed)
    if config.b_re is not None:
        b = complex(config.b_re, config.b_im)
        if b.real > -3.0:
            print(f"error: the period must have real part <= -3, got {b.real}", file=sys.stderr)
            return 2
    else:
        b = complex(rng.uniform(-8.0, -3.0))
    curve = make_torus_curve(b)
    names = spectral_class.marked_names
    genus = curve.genus
    lifts = _sample_separated_lifts(curve, rng, len(names) + genus)
    marked = {name: curve.point(lifts[i]) for i, name in enumerate(names)}
    divisor = [curve.point(lift) for lift in lifts[len(names):]]
    normalization = ConstantNormalization()
    # construct once now: separation and precomputation problems should
    # surface at generation time, not at first use
    spectral_class(curve, marked, divisor, normalization)

    out = config.output
    stem = out[: -len(".json")] if out.endswith(".json") else out
    curve_path = stem + ".curve.json"
    curve_doc = export_curve_document(
        curve, marked, list(spectral_class.basis_pairs), list(model.curve_integrals)
    )
    spectral_doc = {
        "format": SPECTRAL_DOC_FORMAT,
        "model": model.name,
        "seed": config.seed,
        "backend": "torus-analytic",
        "curve_ref": os.path.basename(curve_path),
        "divisor": [_lift2json(p.lift) for p in divisor],
        "normalization": normalization.to_json(),
    }
    _dump_json(curve_doc, curve_path)
    _dump_json(spectral_doc, out)
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
    curve_path = os.path.join(os.path.dirname(path) or ".", curve_ref)
    curve_doc = _load_json(curve_path)
    backend = doc.get("backend")
    if backend == "torus-analytic":
        if not isinstance(curve_doc, dict):
            raise SchemaError(f"{curve_path}: curve document must be a JSON object")
        genus = curve_doc.get("genus")
        if genus != 1:
            raise SchemaError(
                f"{curve_path}: the analytic backend is genus-1 only, got genus {genus!r}"
            )
        B_raw = curve_doc.get("B")
        try:
            b_val = _pair2c(B_raw[0][0], "B")
        except (TypeError, IndexError, KeyError):
            raise SchemaError(f"{curve_path}: B must be a 1x1 matrix of [re, im] pairs") from None
        base = _json2lift(curve_doc.get("base_lift"), 1, "base_lift")
        try:
            curve = make_torus_curve(b_val, base[0])
        except ValueError as exc:
            raise SchemaError(f"{curve_path}: {exc}") from None
        marked_raw = curve_doc.get("marked_points")
        if not isinstance(marked_raw, dict):
            raise SchemaError(f"{curve_path}: marked_points must be an object")
        marked = {
            name: curve.point(_json2lift(lift, 1, f"marked_points[{name}]"))
            for name, lift in marked_raw.items()
        }
    elif backend == "tabulated":
        curve = load_tabulated_curve(curve_doc)
        marked = curve.marked
    else:
        raise SchemaError(f"{path}: unknown backend {backend!r}")
    if set(marked) != set(spectral_class.marked_names):
        raise SchemaError(
            f"{curve_path}: marked points {sorted(marked)} do not match model {spectral_class.model}"
        )
    divisor_raw = doc.get("divisor")
    if not isinstance(divisor_raw, list) or len(divisor_raw) != curve.genus:
        raise SchemaError(f"{path}: divisor must list exactly genus={curve.genus} points")
    divisor = [
        curve.point(_json2lift(x, curve.genus, f"divisor[{i}]"))
        for i, x in enumerate(divisor_raw)
    ]
    norm_raw = doc.get("normalization")
    try:
        normalization = ConstantNormalization.from_json(norm_raw)
    except (ValueError, TypeError, IndexError, KeyError) as exc:
        raise SchemaError(f"{path}: bad normalization: {exc}") from None
    sd = spectral_class(curve, marked, divisor, normalization)
    return sd, doc


# ---------------------------------------------------------------------------
# build / verify / export
# ---------------------------------------------------------------------------


def cmd_build(config) -> int:
    sd, doc = load_spectral_document(config.input)
    field = build_field(sd, config.window)
    field_doc = field_to_document(
        field,
        spectral_data_ref=os.path.basename(config.input),
        seed=doc.get("seed"),
        normalization=doc.get("normalization"),
    )
    _dump_json(field_doc, config.output)
    print(
        f"wrote {config.output}: {len(field.stencils)} {sd.model} stencils, "
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
    field = build_field(sd, config.window)
    rrep = residual_report(sd, config.window, probes, field=field, tol=config.tol)
    orep = oracle_report(
        sd,
        config.window,
        probes,
        field=field,
        gap_tol=config.gap_tol,
        match_tol=config.match_tol,
    )
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
        _dump_json(report, config.output)
    print("verification PASSED" if passed else "verification FAILED")
    return 0 if passed else 1


def cmd_export(config) -> int:
    doc = _load_json(config.input)
    field = field_from_document(doc)
    if config.format == "csv":
        text = field_to_csv(field)
    else:
        text = json.dumps(
            field_to_document(
                field,
                spectral_data_ref=doc.get("spectral_data_ref", ""),
                seed=doc.get("seed"),
                normalization=doc.get("normalization"),
            ),
            sort_keys=True,
            indent=2,
        ) + "\n"
    with open(config.output, "w") as fh:
        fh.write(text)
    print(f"wrote {config.output} ({config.format}, {len(field.stencils)} sites)")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crosshex",
        description="Build and verify lattice difference operators from curve data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-spectral", help="generate seeded spectral data documents")
    g.add_argument("--model", choices=tuple(MODELS), required=True)
    g.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    g.add_argument(
        "--b-re", type=float, default=None,
        help="period real part (<= -3); default: seeded draw from [-8, -3]",
    )
    g.add_argument("--b-im", type=float, default=0.0, help="period imaginary part")
    g.add_argument("-o", "--output", required=True, help="spectral document path (.json)")
    g.set_defaults(func=cmd_gen_spectral)

    b = sub.add_parser("build", help="evaluate the stencil field on a window")
    b.add_argument("-i", "--input", required=True, help="spectral document path")
    b.add_argument("--window", type=int, default=3, help="window radius (default 3)")
    b.add_argument("-o", "--output", required=True, help="field document path (.json)")
    b.set_defaults(func=cmd_build)

    v = sub.add_parser("verify", help="check residuals, kernel gap, and oracle match")
    v.add_argument("-i", "--input", required=True, help="spectral document path")
    v.add_argument("--window", type=int, default=3, help="window radius (default 3)")
    v.add_argument("--probes", type=int, default=20, help="probe count (default 20)")
    v.add_argument(
        "--seed", type=int, default=None,
        help="probe seed (default: spectral seed + 1000)",
    )
    v.add_argument("--tol", type=float, default=1e-8, help="residual tolerance")
    v.add_argument("--gap-tol", type=float, default=1e-6, help="kernel-gap tolerance")
    v.add_argument("--match-tol", type=float, default=1e-6, help="oracle-match tolerance")
    v.add_argument("-o", "--output", default=None, help="optional JSON report path")
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("export", help="convert a field document to CSV or JSON")
    e.add_argument("-i", "--input", required=True, help="field document path")
    e.add_argument("--format", choices=("json", "csv"), default="csv")
    e.add_argument("-o", "--output", required=True, help="output path")
    e.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    config = parser.parse_args(argv)
    try:
        return config.func(config)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CrosshexError as exc:
        print(f"verification-grade failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
