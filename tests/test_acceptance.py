"""End-to-end acceptance checks.

Each test prints exactly one summary line

    ACCEPTANCE <n> <name>: PASS|FAIL — <measured detail>

with capture suspended, so the list of criteria and their outcomes is
visible in any pytest run.  Every numeric bound asserted here is
checked against values computed by an independent route (direct
lattice sums, continuation around the b-cycle, log-log ladder fits,
SVD null spaces) — never against the formula evaluation code being
verified.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from crosshex.cli import load_spectral_document, main as cli_main
from crosshex.labels import (
    CROSS_LATTICE,
    HEX_COEFFS,
    HEX_LATTICE,
    relabel_cross,
    relabel_hex,
    stencil_offsets,
)
from crosshex.operators import (
    CROSS_EVEN_FORMULAS,
    CROSS_ODD_FORMULAS,
    HEX_CASE0_F_AS_PRINTED,
    HEX_FORMULAS_BY_RESIDUE,
    GaugeField,
    build_field,
    evaluate_ratio,
    gauge_transform,
    oracle_report,
    psi_grid,
    residual_report,
    sample_probes,
    window_sites,
)
from crosshex.surface import SurfacePoint, TorusCurve
from crosshex.theta import PeriodMatrix, theta_eval_scaled

from crosshex_testlib import gauged_grid, scalars, translated

ERRATA_PATH = Path(__file__).resolve().parents[1] / "ERRATA.md"


@pytest.fixture
def announce(capsys):
    """Run a criterion worker and print its one-line verdict uncaptured."""

    def run(num, name, worker):
        try:
            ok, detail = worker()
        except Exception as exc:  # a crash still yields the criterion line
            ok, detail = False, f"unexpected {type(exc).__name__}: {exc}"
        line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} — {detail}"
        with capsys.disabled():
            print(f"\n{line}", flush=True)
        assert ok, line

    return run


@pytest.fixture(scope="session")
def generated(tmp_path_factory):
    """Spectral data for seeds 0..4 of both models, via the real CLI."""
    root = tmp_path_factory.mktemp("acceptance")
    out = {"cross": [], "hex": []}
    for model in out:
        for seed in range(5):
            path = root / f"{model}{seed}.json"
            rc = cli_main(
                ["gen-spectral", "--model", model, "--seed", str(seed), "-o", str(path)]
            )
            assert rc == 0, f"gen-spectral failed for {model} seed {seed}"
            sd, doc = load_spectral_document(str(path))
            out[model].append((sd, doc))
    return out


# -- criterion 1 --------------------------------------------------------------


def _random_period_matrix(rng):
    return PeriodMatrix(complex(-rng.uniform(3.0, 8.0), rng.uniform(-2.0, 2.0)))


def _rel_diff(a, b) -> float:
    return abs(a.over(b).as_complex() - 1.0)


def test_criterion_1_theta_identities(announce):
    def worker():
        start = time.perf_counter()
        rng = np.random.default_rng(20260816)
        worst = 0.0
        for _ in range(100):
            pm = _random_period_matrix(rng)
            z = complex(rng.normal(scale=2.0), rng.normal(scale=2.0))
            n = int(rng.integers(-2, 3))
            m = int(rng.integers(-2, 3))
            val = theta_eval_scaled(pm, z)
            worst = max(worst, _rel_diff(theta_eval_scaled(pm, -z), val))
            worst = max(
                worst, _rel_diff(theta_eval_scaled(pm, z + 2j * math.pi * m), val)
            )
            shift = pm.B * n
            factor = -0.5 * (n * pm.B * n) - n * z
            worst = max(
                worst,
                _rel_diff(theta_eval_scaled(pm, z + shift), val.times_exp(factor)),
            )
        direct = math.fsum(math.exp(-math.pi * k * k) for k in range(-40, 41))
        ours = theta_eval_scaled(PeriodMatrix(-2.0 * math.pi), 0j).as_complex()
        sum_err = abs(ours - direct) / abs(direct)
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-9 and sum_err <= 1e-12 and elapsed < 5.0
        return ok, (
            f"100 draws (g=1): worst identity error {worst:.2e} (tol 1e-9); "
            f"value at 0 vs direct sum {sum_err:.2e} (tol 1e-12); {elapsed:.2f}s (budget 5s)"
        )

    announce(1, "theta-identities", worker)


# -- criterion 2 --------------------------------------------------------------


def _draw_curve_points(rng, count):
    B = complex(-rng.uniform(3.0, 8.0), rng.uniform(-1.5, 1.5) if rng.random() < 0.5 else 0.0)
    curve = TorusCurve(B)
    pts = []
    tries = 0
    while len(pts) < count and tries < 200:
        tries += 1
        lift = 2j * math.pi * rng.uniform(0.05, 0.95) + B * rng.uniform(0.05, 0.95)
        p = SurfacePoint(complex(lift))
        if all(curve.cover_distance(p.lift, q.lift) > 0.4 for q in pts):
            pts.append(p)
    if len(pts) < count:
        raise RuntimeError("could not separate sample points on the torus")
    return curve, pts


def test_criterion_2_curve_integrals(announce):
    def worker():
        start = time.perf_counter()
        rng = np.random.default_rng(42)
        worst_cont = 0.0
        worst_fit = 0.0
        worst_k = 0.0
        pairs_done = 0
        while pairs_done < 20:
            try:
                curve, (plus, minus, probe) = _draw_curve_points(rng, 3)
                b = curve.pm.B
                base_val = curve.third_kind_integral(probe, plus, minus)
                moved = curve.third_kind_integral(SurfacePoint(complex(probe.lift + b)), plus, minus)
                U = curve.b_period_vector(plus, minus)
                diff = moved - base_val - U
                k = round(diff.imag / (2.0 * math.pi))
                worst_cont = max(worst_cont, abs(diff - 2j * math.pi * k))
            except Exception:
                continue  # a path grazed a pole; draw a fresh configuration
            if pairs_done < 5:
                ladder = [10.0 ** (-e) for e in (3.0, 3.5, 4.0, 4.5)]
                direction = 0.55 + 0.835j
                for target, order in ((plus, 1.0), (minus, -1.0)):
                    vals = [
                        curve.third_kind_integral(
                            SurfacePoint(complex(target.lift + eps * direction)),
                            plus,
                            minus,
                        ).real
                        for eps in ladder
                    ]
                    slope = np.polyfit(np.log(ladder), vals, 1)[0]
                    worst_fit = max(worst_fit, abs(slope - order))
                K = curve.riemann_constants()
                expected = 1j * math.pi + b / 2.0
                worst_k = max(worst_k, abs(K - expected))
                t0 = theta_eval_scaled(curve.pm, 0j)
                for sign in (1.0, -1.0):
                    drop = theta_eval_scaled(curve.pm, sign * K).log_abs - t0.log_abs
                    if not drop <= math.log(1e-8):
                        raise AssertionError(
                            f"theta fails to vanish at the odd characteristic ({drop=})"
                        )
            pairs_done += 1
        elapsed = time.perf_counter() - start
        ok = worst_cont <= 1e-8 and worst_fit <= 0.05 and worst_k <= 1e-12 and elapsed < 30.0
        return ok, (
            f"20 random pairs: b-cycle continuation error {worst_cont:.2e} (tol 1e-8); "
            f"pole-order fit error {worst_fit:.3f} (tol 0.05); "
            f"odd-characteristic offset {worst_k:.2e}; {elapsed:.1f}s (budget 30s)"
        )

    announce(2, "curve-integrals", worker)


# -- criterion 3 --------------------------------------------------------------


def test_criterion_3_relift_invariance(announce, generated):
    def worker():
        worst = 0.0
        checked = 0
        for model in ("cross", "hex"):
            sites = window_sites(model, 4)
            make = CROSS_LATTICE.site if model == "cross" else HEX_LATTICE.site
            relabel = relabel_cross if model == "cross" else relabel_hex
            origin = make(*(0,) * len(sites[0]))
            for sd, doc in generated[model]:
                probes = sample_probes(sd, 10, seed=doc["seed"] + 500)
                moved = []
                for P in probes:
                    for offset in ((1, 1), (2, 1), (1, 2)):
                        try:
                            Q = translated(sd, P, *offset)
                            sd.phi_scaled([relabel(origin)], [Q])
                            moved.append(Q)
                            break
                        except Exception:
                            continue
                    else:
                        return False, f"no usable lattice translate for a probe ({model})"
                # one grid: every site at the probes, then at their translates
                labels = [relabel(make(*raw)) for raw in sites]
                grid = sd.phi_scaled(labels, probes + moved)
                n = len(probes)
                for a, bb in zip(scalars(grid[:, :n]), scalars(grid[:, n:])):
                    worst = max(worst, abs(bb.over(a).as_complex() - 1.0))
                    checked += 1
        ok = worst <= 1e-8
        return ok, (
            f"{checked} site/probe/seed combinations over radius-4 windows, both models: "
            f"worst relative change under re-lifting {worst:.2e} (tol 1e-8)"
        )

    announce(3, "relift-invariance", worker)


# -- criterion 4 --------------------------------------------------------------


def _fitted_vanishing_order(sd, label, point):
    direction = 0.6 + 0.8j
    ladder = [10.0 ** (-k) for k in (3.0, 3.5, 4.0, 4.5)]
    points = [SurfacePoint(complex(point.lift + eps * direction)) for eps in ladder]
    return np.polyfit(np.log(ladder), sd.phi_scaled([label], points).log_abs[0], 1)[0]


def test_criterion_4_divisor_orders(announce, generated):
    def worker():
        rng = np.random.default_rng(7)
        worst = 0.0
        fits = 0
        # orientation map: the first-named point of each pair carries the
        # zero for a positive component.  On the square lattice the pairs
        # are (plus, minus), giving orders (+x, -x) per pair; on the
        # triangular lattice every pair anchors at the third point of a
        # triple, which makes the order at each point the NEGATIVE of its
        # own label component.
        sd_cross, _ = generated["cross"][0]
        for _ in range(10):
            label = tuple(int(x) for x in rng.integers(-2, 3, size=3))
            x1, x2, x3 = label
            expected = dict(
                zip(sd_cross.marked_names, (x1, -x1, x2, -x2, x3, -x3))
            )
            for name, want in expected.items():
                got = _fitted_vanishing_order(sd_cross, label, sd_cross.marked[name])
                worst = max(worst, abs(got - want) / max(1.0, abs(want)))
                fits += 1
        sd_hex, _ = generated["hex"][0]
        for _ in range(10):
            x1, x2 = (int(v) for v in rng.integers(-2, 3, size=2))
            x4, x5 = (int(v) for v in rng.integers(-2, 3, size=2))
            label = (x1, x2, -x1 - x2, x4, x5, -x4 - x5)
            for name, comp in zip(sd_hex.marked_names, label):
                want = -comp
                got = _fitted_vanishing_order(sd_hex, label, sd_hex.marked[name])
                worst = max(worst, abs(got - want) / max(1.0, abs(want)))
                fits += 1
        ok = worst <= 0.05
        return ok, (
            f"{fits} ladder fits (10 random labels per model, all six marked points): "
            f"worst order-fit error {worst:.4f} (tol 0.05)"
        )

    announce(4, "divisor-orders", worker)


# -- criteria 5 and 6 ----------------------------------------------------------


def _verify_model(generated, model, check_zeros):
    worst_res = 0.0
    worst_gap = 0.0
    worst_match = 0.0
    worst_zero = 0.0
    slowest = 0.0
    for sd, doc in generated[model]:
        t0 = time.perf_counter()
        probes = sample_probes(sd, 20, seed=doc["seed"] + 1000)
        field = build_field(sd, 3)
        grid = psi_grid(sd, 3, probes)
        res = residual_report(field, grid)
        orc = oracle_report(field, grid)
        slowest = max(slowest, time.perf_counter() - t0)
        worst_res = max(worst_res, res.max_residual)
        worst_gap = max(worst_gap, orc.max_gap)
        worst_match = max(worst_match, orc.max_mismatch)
        worst_zero = max(worst_zero, orc.max_forced_zero_excess)
        if not (res.passed and orc.passed):
            break
    ok = (
        worst_res <= 1e-8
        and worst_gap <= 1e-6
        and worst_match <= 1e-6
        and (worst_zero <= 1e-8 if check_zeros else True)
        and slowest < 120.0
    )
    zeros_part = f"; forced zeros {worst_zero:.2e} (tol 1e-8)" if check_zeros else ""
    detail = (
        f"5 seeds, radius-3 window, 20 probes: residual {worst_res:.2e} (tol 1e-8); "
        f"kernel gap {worst_gap:.2e} (tol 1e-6); coefficient mismatch {worst_match:.2e} "
        f"(tol 1e-6){zeros_part}; slowest seed {slowest:.1f}s (budget 120s)"
    )
    return ok, detail


def test_criterion_5_cross_verification(announce, generated):
    announce(5, "cross-verification", lambda: _verify_model(generated, "cross", False))


def test_criterion_6_hex_verification(announce, generated):
    announce(6, "hex-verification", lambda: _verify_model(generated, "hex", True))


# -- criterion 7 --------------------------------------------------------------


def test_criterion_7_gauge_covariance(announce, generated):
    def worker():
        rng = np.random.default_rng(99)
        worst_res = 0.0
        worst_drift = 0.0
        for model in ("cross", "hex"):
            sd, doc = generated[model][0]
            probes = sample_probes(sd, 12, seed=doc["seed"] + 2000)
            field = build_field(sd, 2)
            halo = set(window_sites(model, 2))
            for site in list(halo):
                halo.update(stencil_offsets(model, site))
            gauge = GaugeField(
                {
                    site: complex(
                        rng.uniform(0.3, 3.0) * np.exp(2j * np.pi * rng.random())
                    )
                    for site in sorted(halo)
                }
            )
            transformed = gauge_transform(field, gauge)
            grid = psi_grid(sd, 2, probes)
            rep = residual_report(transformed, gauged_grid(grid, gauge))
            worst_res = max(worst_res, rep.max_residual)
            factors = [complex(rng.uniform(0.2, 5.0), rng.uniform(-2.0, 2.0)) for _ in field.sites]
            rescaled = replace(field, coeffs=field.coeffs.times(np.array(factors)[:, None]))
            base = residual_report(field, grid)
            moved = residual_report(rescaled, grid)
            for e1, e2 in zip(base.entries, moved.entries):
                worst_drift = max(worst_drift, abs(e1.residual - e2.residual))
        ok = worst_res <= 1e-8 and worst_drift <= 1e-10
        return ok, (
            f"random gauge on radius-2 window + halo, both models: transformed residual "
            f"{worst_res:.2e} (tol 1e-8); residual drift under per-site rescaling "
            f"{worst_drift:.2e} (tol 1e-10)"
        )

    announce(7, "gauge-covariance", worker)


# -- criterion 8 --------------------------------------------------------------


def test_criterion_8_errata_accounting(announce, generated):
    def worker():
        all_formulas = [
            (context, f)
            for context, formulas in (
                ("cross even", CROSS_EVEN_FORMULAS),
                ("cross odd", CROSS_ODD_FORMULAS),
                ("hex residue 0", HEX_FORMULAS_BY_RESIDUE[0]),
                ("hex residue 1", HEX_FORMULAS_BY_RESIDUE[1]),
                ("hex residue 2", HEX_FORMULAS_BY_RESIDUE[2]),
            )
            for f in formulas
        ]
        untagged = [
            (c, f.coeff)
            for c, f in all_formulas
            if not f.transcription.startswith(("as-printed", "corrected-index"))
        ]
        if untagged:
            return False, f"formulas without a transcription tag: {untagged}"
        corrected = [(c, f) for c, f in all_formulas if f.transcription.startswith("corrected-index")]
        flagged = [
            (c, f)
            for c, f in all_formulas
            if f.transcription != "as-printed" and not f.transcription.startswith("corrected-index")
        ]
        if not ERRATA_PATH.exists():
            return False, f"{ERRATA_PATH} is missing"
        errata = ERRATA_PATH.read_text()
        if [(c, f.coeff) for c, f in corrected] != [("hex residue 0", "f")]:
            return False, f"unexpected corrected set: {[(c, f.coeff) for c, f in corrected]}"
        needles = (
            "residue-0 family, coefficient `f`",
            "`Q3`",
            "`R1`",
            "Printed reading",
            "Corrected reading",
            "ambiguous",
            "no silent deviations",
        )
        for needle in needles:
            if needle.lower() not in errata.lower():
                return False, f"ERRATA.md does not document {needle!r}"
        # reproduce the recorded evidence against the null-space oracle
        sd, doc = generated["hex"][0]
        probes = sample_probes(sd, 12, seed=doc["seed"] + 3000)
        rep = oracle_report(build_field(sd, 0), psi_grid(sd, [(0, 0, 0)], probes))
        want = rep.coeffs.as_complex()[0, HEX_COEFFS.index("f")]
        v = relabel_hex(HEX_LATTICE.site(0, 0, 0))
        corrected_err = abs(
            evaluate_ratio(sd, v, corrected[0][1]).as_complex() - want
        ) / abs(want)
        printed_err = abs(
            evaluate_ratio(sd, v, HEX_CASE0_F_AS_PRINTED).as_complex() - want
        ) / abs(want)
        ok = corrected_err <= 1e-6 and printed_err >= 0.5
        return ok, (
            f"{len(all_formulas)} formulas tagged ({len(all_formulas) - len(corrected) - len(flagged)} "
            f"as-printed, {len(corrected)} corrected, {len(flagged)} annotated); corrected reading "
            f"vs oracle {corrected_err:.2e} (tol 1e-6), printed reading off by {printed_err:.2f} "
            f"(documented with evidence in ERRATA.md); no silent deviations"
        )

    announce(8, "errata-accounting", worker)
