import contextlib
import errno
import filecmp
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import crosshex.bafunc
import crosshex.cli
from crosshex.cli import SPECTRAL_DOC_FORMAT, VERIFY_DOC_FORMAT, load_spectral_document, main
from crosshex.errors import ConsistencyFailure, PoleOnPath
from crosshex.operators import (
    FIELD_DOC_FORMAT,
    FORCED_ZERO_TOL,
    GAP_TOL,
    MATCH_TOL,
    MODELS,
    RESIDUAL_TOL,
    build_field,
)
from crosshex.surface import MAX_LIFT_CELLS, TorusCurve, complex_to_json, load_torus_curve

from crosshex_testlib import brute_cover_distance, genus_two_document


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated+built pipeline per model, shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    paths = {}
    for model in ("cross", "hex"):
        spectral = root / f"{model}.json"
        field = root / f"{model}-field.json"
        assert main(["gen-spectral", "--model", model, "--seed", "0", "-o", str(spectral)]) == 0
        assert main(["build", "-i", str(spectral), "--window", "2", "-o", str(field)]) == 0
        paths[model] = (spectral, field)
    return paths


def test_gen_spectral_writes_curve_and_spectral_docs(workspace):
    spectral, _ = workspace["cross"]
    doc = json.loads(spectral.read_text())
    assert doc["format"] == SPECTRAL_DOC_FORMAT
    assert doc["model"] == "cross"
    assert doc["backend"] == "torus-analytic"
    curve = json.loads((spectral.parent / doc["curve_ref"]).read_text())
    assert curve["genus"] == 1
    assert set(curve["marked_points"]) == {"P1+", "P1-", "P2+", "P2-", "P3+", "P3-"}


def test_build_document_shape(workspace):
    _, field = workspace["hex"]
    doc = json.loads(field.read_text())
    assert doc["format"] == FIELD_DOC_FORMAT
    assert doc["model"] == "hex"
    assert doc["window"]["radius"] == 2
    assert len(doc["sites"]) == 19


def test_verify_passes_and_writes_report(workspace, tmp_path, capsys):
    for model in ("cross", "hex"):
        spectral, field = workspace[model]
        report = tmp_path / f"{model}-verify.json"
        code = main(
            [
                "verify",
                "-i", str(spectral),
                "--window", "1",
                "--probes", "12",
                "-o", str(report),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out and "FAIL" not in out
        # one line per check, the forced-zero line only for hex, whose formulas force zeros
        checks = [line for line in out.splitlines() if "  tol " in line]
        assert len(checks) == (4 if model == "hex" else 3)
        assert all(line.endswith("  PASS") for line in checks)
        rep = json.loads(report.read_text())
        assert rep["format"] == VERIFY_DOC_FORMAT
        assert rep["passed"] is True
        assert rep["tolerances"] == {
            "residual": RESIDUAL_TOL, "gap": GAP_TOL, "match": MATCH_TOL, "forced_zero": FORCED_ZERO_TOL
        }


def test_verify_reports_breach_of_a_perturbed_coefficient(workspace, tmp_path, monkeypatch, capsys):
    # the tolerances are fixed, so a breach comes from a field whose stencil at
    # (0, 0) no longer annihilates psi: its v coefficient is off by 1e-3
    spectral, _ = workspace["cross"]

    def perturbed_field(sd, radius):
        field = build_field(sd, radius)
        factors = np.ones(field.coeffs.shape, dtype=complex)
        factors[field.rows[(0, 0)], MODELS["cross"].coeffs.index("v")] = 1 + 1e-3
        return replace(field, coeffs=field.coeffs.times(factors))

    monkeypatch.setattr(crosshex.cli, "build_field", perturbed_field)
    report = tmp_path / "breach.json"
    code = main(["verify", "-i", str(spectral), "--window", "1", "--probes", "12", "-o", str(report)])
    out = capsys.readouterr().out
    assert code == 1
    assert re.search(r"^residual .*  FAIL$", out, re.M) and "residual breach at site (0, 0)" in out
    assert out.endswith("verification FAILED\n")
    rep = json.loads(report.read_text())
    assert rep["passed"] is False and rep["residual_failures"] == [[0, 0]]


def test_hex_verify_passes_on_a_wide_window(workspace, tmp_path, capsys):
    # the forced-zero measure is a term's share of the stencil equation in
    # the balanced frame; measured against the raw kernel components it
    # grew with the neighbour magnitude spread and failed 6 sites here
    spectral, _ = workspace["hex"]
    report = tmp_path / "hex-verify-10.json"
    assert main(["verify", "-i", str(spectral), "--window", "10", "-o", str(report)]) == 0
    rep = json.loads(report.read_text())
    assert rep["passed"] is True and rep["oracle_failures"] == []
    assert rep["max_forced_zero_excess"] <= 1e-10


def test_export_csv_and_json(workspace, tmp_path):
    _, field = workspace["hex"]
    csv_path = tmp_path / "hex.csv"
    assert main(["export", "-i", str(field), "--format", "csv", "-o", str(csv_path)]) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("k,l,m,re_a,im_a")
    assert len(lines) == 1 + 19
    for row in lines[1:]:
        cells = row.split(",")
        if (int(cells[0]) - int(cells[1])) % 3 == 0:
            # forced-zero columns of the residue-0 class print as literal zeros
            c_lo = 3 + 2 * 2
            g_lo = 3 + 2 * 5
            assert cells[c_lo : c_lo + 2] == ["0", "0"]
            assert cells[g_lo : g_lo + 2] == ["0", "0"]

    # the JSON export reproduces the build byte for byte
    for model in ("cross", "hex"):
        spectral, _ = workspace[model]
        for radius in (0, 3):
            built = tmp_path / f"{model}-{radius}.json"
            exported = tmp_path / f"{model}-{radius}-export.json"
            assert main(["build", "-i", str(spectral), "--window", str(radius), "-o", str(built)]) == 0
            assert main(["export", "-i", str(built), "--format", "json", "-o", str(exported)]) == 0
            assert exported.read_bytes() == built.read_bytes()


def test_pipeline_is_deterministic(workspace, tmp_path):
    spectral, field = workspace["cross"]
    redo = tmp_path / "redo"
    redo.mkdir()
    # the curve_ref embeds the output basename, so byte-level comparisons
    # must regenerate under the same name in a fresh directory
    spectral2 = redo / spectral.name
    field2 = redo / field.name
    assert main(["gen-spectral", "--model", "cross", "--seed", "0", "-o", str(spectral2)]) == 0
    assert main(["build", "-i", str(spectral2), "--window", "2", "-o", str(field2)]) == 0
    assert filecmp.cmp(spectral, spectral2, shallow=False)
    assert filecmp.cmp(
        spectral.parent / "cross.curve.json", redo / "cross.curve.json", shallow=False
    )
    assert filecmp.cmp(field, field2, shallow=False)


def _tabulated_copy(workspace, model, folder, change_curve=None):
    """The model's spectral document with ``backend`` set to ``tabulated``, under its own name in ``folder``.

    Its curve document is copied next to it, changed by ``change_curve`` if given.
    """
    spectral, _ = workspace[model]
    sdoc = json.loads(spectral.read_text())
    curve = spectral.parent / sdoc["curve_ref"]
    folder.mkdir()
    if change_curve is None:
        (folder / curve.name).write_bytes(curve.read_bytes())
    else:
        cdoc = json.loads(curve.read_text())
        change_curve(cdoc)
        (folder / curve.name).write_text(json.dumps(cdoc))
    (folder / spectral.name).write_text(json.dumps({**sdoc, "backend": "tabulated"}))
    return folder / spectral.name


def test_tabulated_backend_reproduces_the_build(workspace, tmp_path):
    for model in ("cross", "hex"):
        spectral, field = workspace[model]
        copy = _tabulated_copy(workspace, model, tmp_path / model)
        out = copy.parent / field.name
        assert main(["build", "-i", str(copy), "--window", "2", "-o", str(out)]) == 0
        assert filecmp.cmp(field, out, shallow=False)


def _assert_tabulated_build_is_analytic(workspace, folder, change_curve):
    """A tabulated copy of the cross document, its curve document changed, builds the analytic field byte for byte."""
    _, field = workspace["cross"]
    copy = _tabulated_copy(workspace, "cross", folder, change_curve)
    out = copy.parent / field.name
    assert main(["build", "-i", str(copy), "--window", "2", "-o", str(out)]) == 0
    assert filecmp.cmp(field, out, shallow=False)


def _stored_tables(workspace):
    """The riemann_constants, b_periods and third_kind_integrals sections a v1 curve document held."""
    spectral, _ = workspace["cross"]
    cdoc = json.loads((spectral.parent / json.loads(spectral.read_text())["curve_ref"]).read_text())
    curve, marked = load_torus_curve(cdoc)
    return {
        "riemann_constants": complex_to_json(curve.riemann_constants()),
        "b_periods": {
            f"{a}/{b}": complex_to_json(curve.b_period_vector(marked[a], marked[b]))
            for a, b in MODELS["cross"].spectral_class.basis_pairs
        },
        "third_kind_integrals": {
            f"{endpoint}|{a},{b}": complex_to_json(curve.third_kind_integral(marked[endpoint], marked[a], marked[b]))
            for endpoint, (a, b) in MODELS["cross"].curve_integrals
        },
    }


def _assert_stored_tables_are_not_read(workspace, folder, tamper):
    """A v2 curve document carrying v1's stored tables, one value changed by `tamper`, builds the analytic field.

    Each changed value was once read (and refused, or replayed); the reader now ignores
    the three sections as unknown keys and rebuilds the curve from its period and lifts.
    """
    tables = _stored_tables(workspace)
    tamper(tables)
    _assert_tabulated_build_is_analytic(workspace, folder, lambda cdoc: cdoc.update(tables))


def test_a_shifted_stored_integral_does_not_change_the_tabulated_build(workspace, tmp_path):
    def shift(tables):
        tables["third_kind_integrals"]["P1+|P2+,P2-"][0] += 0.5

    _assert_stored_tables_are_not_read(workspace, tmp_path / "shifted", shift)


def test_a_stored_integral_with_a_huge_imaginary_part_does_not_change_the_tabulated_build(workspace, tmp_path):
    def inflate(tables):
        tables["third_kind_integrals"]["P2+|P1+,P1-"][1] = 1e20

    _assert_stored_tables_are_not_read(workspace, tmp_path / "inflated", inflate)


def test_a_tabulated_build_does_not_read_the_stored_tables(workspace, tmp_path):
    def change(tables):
        tables["riemann_constants"] = [1000.0, 0.0]
        tables["b_periods"]["P1+/P1-"][0] += 1e-4

    _assert_stored_tables_are_not_read(workspace, tmp_path / "changed", change)


def test_verify_on_a_tabulated_copy_matches_the_analytic_run(workspace, tmp_path, capsys):
    for model in ("cross", "hex"):
        spectral, _ = workspace[model]
        copy = _tabulated_copy(workspace, model, tmp_path / model)
        runs = []
        for source, folder in ((spectral, tmp_path / f"{model}-analytic"), (copy, copy.parent)):
            folder.mkdir(exist_ok=True)
            report = folder / "report.json"
            capsys.readouterr()
            code = main(["verify", "-i", str(source), "--window", "1", "--probes", "12", "-o", str(report)])
            runs.append((code, capsys.readouterr(), report.read_bytes()))
        assert runs[0][0] == 0 and runs[0][1].err == ""
        assert runs[1] == runs[0]


def test_shallow_curve_refusal(tmp_path, capsys):
    # Re(B) >= -3 has too little decay for reliable lattice sums
    with pytest.raises(SystemExit) as exc:
        main(["gen-spectral", "--model", "cross", "--b-re", "-2", "-o", str(tmp_path / "bad.json")])
    assert exc.value.code == 2
    assert "argument --b-re: expected a number in [-10000, -3], got '-2'" in capsys.readouterr().err
    assert not (tmp_path / "bad.json").exists()


def test_a_period_below_the_reader_floor_is_refused(tmp_path, capsys):
    # a document gen-spectral writes must be one build and verify read back
    out = tmp_path / "deep.json"
    with pytest.raises(SystemExit) as exc:
        main(["gen-spectral", "--model", "hex", "--b-re", "-20000", "-o", str(out)])
    assert exc.value.code == 2
    assert "argument --b-re: expected a number in [-10000, -3]" in capsys.readouterr().err
    assert not out.exists()


def test_b_im_applies_to_the_drawn_real_part(tmp_path):
    runs = {"none": [], "zero": ["--b-im", "0"], "two": ["--b-im", "2"]}
    for name, extra in runs.items():
        (tmp_path / name).mkdir()
        out = tmp_path / name / "spec.json"
        assert main(["gen-spectral", "--model", "cross", "--seed", "1", *extra, "-o", str(out)]) == 0
    period = {name: json.loads((tmp_path / name / "spec.curve.json").read_text())["B"][0][0] for name in runs}
    assert period["none"][1] == 0.0 and period["two"] == [period["none"][0], 2.0]
    # an explicit zero writes the default documents byte for byte
    for doc in ("spec.json", "spec.curve.json"):
        assert filecmp.cmp(tmp_path / "none" / doc, tmp_path / "zero" / doc, shallow=False)


def test_a_sheared_period_keeps_its_points_apart(tmp_path):
    # at Im B = 3000 the nearest translate of a difference is far from its rounded
    # (2*pi*i, B) coordinates; every pair of points must still be 0.1 apart on the curve
    out = tmp_path / "sheared.json"
    assert main(["gen-spectral", "--model", "cross", "--seed", "62", "--b-re", "-3", "--b-im", "3000", "-o", str(out)]) == 0
    sd, _ = load_spectral_document(str(out))
    lifts = [sd.curve.base_lift] + [p.lift for p in (*sd.marked.values(), *sd.divisor)]
    assert len(lifts) == 8
    for i, a in enumerate(lifts):
        for b in lifts[:i]:
            assert brute_cover_distance(sd.curve.pm.B, a, b) >= 0.1, (a, b)


def test_a_period_beyond_the_im_bound_is_refused(tmp_path, capsys):
    out = tmp_path / "sheared.json"
    for b_im in ("1e5", "-1e5"):
        with pytest.raises(SystemExit) as exc:
            main(["gen-spectral", "--model", "cross", f"--b-im={b_im}", "-o", str(out)])
        assert exc.value.code == 2
        assert "argument --b-im: expected a number in [-5000, 5000]" in capsys.readouterr().err
    assert not out.exists()


def test_a_failed_write_leaves_neither_document(tmp_path, capsys):
    # the spectral path is a directory: the curve document is written first, then removed
    spectral = tmp_path / "d"
    spectral.mkdir()
    assert main(["gen-spectral", "--model", "cross", "-o", str(spectral)]) == 2
    assert "Is a directory" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d"] and not any(spectral.iterdir())
    # the curve path is a directory: nothing is written
    (tmp_path / "e.curve.json").mkdir()
    assert main(["gen-spectral", "--model", "hex", "-o", str(tmp_path / "e.json")]) == 2
    assert "Is a directory" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d", "e.curve.json"]
    assert not any((tmp_path / "e.curve.json").iterdir())


def _refusing(refused):
    """The lockstep pass, with a pole refusal for each segment whose start ``refused(curve, a)`` picks."""
    track = TorusCurve._log_prime_deltas

    def deltas(curve, segments):
        refusal = PoleOnPath("integration segment passes within 1e-08 of a pole lift")
        return [refusal if refused(curve, a) else d for (_, a, _), d in zip(segments, track(curve, segments))]

    return deltas


def test_gen_spectral_writes_nothing_when_its_spectral_data_fails(tmp_path, monkeypatch, capsys):
    def separation(sd):
        raise ConsistencyFailure("marked points P1+ and P1- are only 0.000e+00 apart on the curve")

    for owner, name, failure, message in (
        # every path runs into a pole: no b-cycle can be routed
        (TorusCurve, "_log_prime_deltas", _refusing(lambda curve, a: True),
         "could not route a b-cycle representative clear of poles"),
        (crosshex.bafunc._SpectralDataBase, "_check_separation", separation, "marked points P1+ and P1- are only"),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(owner, name, failure)
            for model in ("cross", "hex"):
                assert main(["gen-spectral", "--model", model, "-o", str(tmp_path / "s.json")]) == 1
                err = capsys.readouterr().err
                assert err.startswith(f"verification-grade failure: {message}"), err
                assert not any(tmp_path.iterdir())


def test_build_and_verify_refuse_an_integral_path_into_a_pole(workspace, tmp_path, monkeypatch, capsys):
    """The formulas' integrals run into a pole, the b-cycles do not: build and verify exit 1 and write nothing.

    gen-spectral tracks no integral path, so this is where such a path is refused.
    """
    monkeypatch.setattr(TorusCurve, "_log_prime_deltas", _refusing(lambda curve, a: a == curve.base_lift))
    for model in ("cross", "hex"):
        spectral, _ = workspace[model]
        for argv in (
            ["build", "-i", str(spectral), "--window", "1", "-o", str(tmp_path / "field.json")],
            ["verify", "-i", str(spectral), "--window", "1", "--probes", "8", "-o", str(tmp_path / "report.json")],
        ):
            assert main(argv) == 1, (model, argv[0])
            err = capsys.readouterr().err
            assert err.startswith("verification-grade failure: integration segment passes within 1e-08 of a pole lift"), err
            assert not any(tmp_path.iterdir())


def test_each_command_tracks_its_paths_in_the_fewest_lockstep_passes(tmp_path, monkeypatch):
    """gen-spectral and loading each check the basis pairs' b-periods in one pass, and track no
    integral path; build tracks the formulas' integrals in one more pass, and verify tracks its
    marked-point and probe integrals together in one."""
    track, passes = TorusCurve._log_prime_deltas, []

    def counting(curve, segments):
        passes.append(segments)
        return track(curve, segments)

    monkeypatch.setattr(TorusCurve, "_log_prime_deltas", counting)
    for model in ("cross", "hex"):
        spectral = str(tmp_path / f"{model}.json")
        commands = {
            "gen-spectral": lambda: main(["gen-spectral", "--model", model, "--seed", "2", "-o", spectral]),
            "load": lambda: load_spectral_document(spectral) and 0,
            "build": lambda: main(["build", "-i", spectral, "--window", "1", "-o", str(tmp_path / "field.json")]),
            "verify": lambda: main(["verify", "-i", spectral, "--window", "1", "--probes", "8"]),
        }
        counts = {}
        for name, command in commands.items():
            passes.clear()
            assert command() == 0, name
            counts[name] = len(passes)
        assert counts == {"gen-spectral": 1, "load": 1, "build": 2, "verify": 2}, model


def _fill_disk_on_write(monkeypatch, full):
    """Make ``crosshex.cli``'s writes to ``full`` store 10 characters, then fail as a full disk does."""

    def fake_open(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        if os.fspath(path) == os.fspath(full):

            def write(text):
                type(fh).write(fh, text[:10])
                fh.flush()
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            fh.write = write
        return fh

    monkeypatch.setattr(crosshex.cli, "open", fake_open, raising=False)


def test_a_write_that_fails_midway_leaves_no_document(workspace, tmp_path, monkeypatch, capsys):
    # gen-spectral: the curve document is written, then the spectral one fails part-way
    _fill_disk_on_write(monkeypatch, tmp_path / "s.json")
    assert main(["gen-spectral", "--model", "cross", "-o", str(tmp_path / "s.json")]) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
    spectral, field = workspace["cross"]
    for argv in (
        ["build", "-i", str(spectral), "--window", "1", "-o", str(tmp_path / "out")],
        ["verify", "-i", str(spectral), "--window", "0", "--probes", "8", "-o", str(tmp_path / "out")],
        ["export", "-i", str(field), "-o", str(tmp_path / "out")],
    ):
        _fill_disk_on_write(monkeypatch, tmp_path / "out")
        assert main(argv) == 2, argv[0]
        assert "No space left on device" in capsys.readouterr().err
        assert not any(tmp_path.iterdir()), argv[0]


def test_a_write_through_a_link_that_fails_midway_removes_the_target_and_keeps_the_link(
    workspace, tmp_path, monkeypatch, capsys
):
    spectral, _ = workspace["cross"]
    link = tmp_path / "link.json"
    link.symlink_to(tmp_path / "target.json")
    _fill_disk_on_write(monkeypatch, link)
    assert main(["build", "-i", str(spectral), "--window", "1", "-o", str(link)]) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert link.is_symlink() and not (tmp_path / "target.json").exists()


def test_an_interrupt_during_gen_spectral_leaves_neither_document(tmp_path, monkeypatch):
    spectral = tmp_path / "s.json"

    def interrupted_open(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        if os.fspath(path) == os.fspath(spectral):

            def write(text):
                raise KeyboardInterrupt

            fh.write = write
        return fh

    monkeypatch.setattr(crosshex.cli, "open", interrupted_open, raising=False)
    with pytest.raises(KeyboardInterrupt):
        main(["gen-spectral", "--model", "hex", "-o", str(spectral)])
    assert not any(tmp_path.iterdir())


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_a_write_to_a_full_device_exits_2_and_leaves_the_device(workspace, capsys):
    spectral, _ = workspace["cross"]
    assert main(["build", "-i", str(spectral), "--window", "1", "-o", "/dev/full"]) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert stat.S_ISCHR(os.stat("/dev/full").st_mode)


def test_corrupt_documents_exit_2(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["build", "-i", str(bad), "-o", str(tmp_path / "x.json")]) == 2

    spectral, field = workspace["cross"]
    doc = json.loads(spectral.read_text())
    doc["format"] = "something-else"
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps(doc))
    assert main(["build", "-i", str(wrong), "-o", str(tmp_path / "y.json")]) == 2

    missing = tmp_path / "does-not-exist.json"
    assert main(["export", "-i", str(missing), "-o", str(tmp_path / "z.csv")]) == 2

    fdoc = json.loads(field.read_text())
    del fdoc["sites"][0]
    broken_field = tmp_path / "broken-field.json"
    broken_field.write_text(json.dumps(fdoc))
    assert main(["export", "-i", str(broken_field), "-o", str(tmp_path / "w.csv")]) == 2

    def exits_2_with_error_line(argv) -> bool:
        capsys.readouterr()
        return main(argv) == 2 and capsys.readouterr().err.startswith("error: ")

    # undecodable bytes, and nesting deeper than the JSON decoder recurses
    for i, content in enumerate([bytes(range(256)), b"[" * 100_000 + b"]" * 100_000]):
        unreadable = tmp_path / f"unreadable-{i}.json"
        unreadable.write_bytes(content)
        for argv in (
            ["build", "-i", str(unreadable), "-o", str(tmp_path / "u.json")],
            ["verify", "-i", str(unreadable)],
            ["export", "-i", str(unreadable), "-o", str(tmp_path / "u.csv")],
        ):
            assert exits_2_with_error_line(argv), (i, argv[0])

    good = json.loads(field.read_text())
    sites, first = good["sites"], good["sites"][0]
    for i, change in enumerate(
        [
            {"sites": [{**first, "coeffs": {**first["coeffs"], "a": [math.nan, 0.0]}}] + sites[1:]},
            {"sites": [{**first, "coeffs": {**first["coeffs"], "a": [1.0, -math.inf]}}] + sites[1:]},
            {"sites": [{**first, "coeffs": {**first["coeffs"], "a": [10**400, 0]}}] + sites[1:]},
            {"model": "hex"},
            {"sites": [{**first, "site": [0, 0, 0]}] + sites[1:]},
            {"sites": [{**first, "site": 0}] + sites[1:]},
            {"sites": [{**first, "coeffs": list(first["coeffs"])}] + sites[1:]},
            {"sites": [{**first, "coeffs": {**first["coeffs"], "a": ["1", "0"]}}] + sites[1:]},
            {"sites": [{**first, "coeffs": {**first["coeffs"], "a": None}}] + sites[1:]},
            {"sites": [{**first, "coeffs": {**first["coeffs"], "a": [True, False]}}] + sites[1:]},
            {"sites": sites + [first]},
            {"sites": sites + [{**first, "site": [9, 9]}]},
            {"window": {"radius": -1}, "sites": []},
            {"window": {"radius": 2**70}},
        ]
    ):
        path = tmp_path / f"field-{i}.json"
        path.write_text(json.dumps({**good, **change}))
        assert exits_2_with_error_line(["export", "-i", str(path), "-o", str(tmp_path / "v.csv")])
    # the window is walked only as far as the listed sites reach
    huge = tmp_path / "huge-hex.json"
    huge.write_text(json.dumps({**json.loads(workspace["hex"][1].read_text()), "window": {"radius": 2**70}}))
    assert exits_2_with_error_line(["export", "-i", str(huge), "-o", str(tmp_path / "v.csv")])

    sdoc = json.loads(spectral.read_text())
    cdoc = json.loads((spectral.parent / sdoc["curve_ref"]).read_text())
    drop = object()  # marks a key to delete
    tabulated = {"backend": "tabulated"}
    for i, (spectral_change, curve_change) in enumerate(
        [
            ({"seed": "x"}, {}),
            ({"seed": None}, {}),
            ({"seed": 1.5}, {}),
            ({"model": ["cross"]}, {}),
            ({"normalization": {"kind": "constant", "value": [1.0, 0.0, 99]}}, {}),
            ({"normalization": {"kind": "constant", "value": [True, 0]}}, {}),
            ({}, {"B": [[[0.5, 0.0]]]}),
            (tabulated, {"B": [[[0.5, 0.0]]]}),
            ({}, {"B": [[[True, False]]]}),
            ({}, {"format": "nonsense"}),
            (tabulated, {"format": "nonsense"}),
            ({}, {"format": drop}),
            # the stored-table format the reader no longer takes
            ({}, {"format": "crosshex-curve-v1"}),
            (tabulated, {"format": "crosshex-curve-v1"}),
            # paths and b-cycle checks would take steps in proportion to these lengths
            ({}, {"B": [[[-1e308, 0.0]]]}),
            (tabulated, {"B": [[[-2.0**70, 0.0]]]}),
            ({}, {"marked_points": {**cdoc["marked_points"], "P2-": [1e4, 0.0]}}),
            (tabulated, {"marked_points": {**cdoc["marked_points"], "P2-": [0.0, 2.0**70]}}),
            ({}, {"base_lift": [0.0, 1e6]}),
        ]
        + [
            ({**backend, **spectral_change}, curve_change)
            for backend in ({}, tabulated)
            for bad in (math.nan, -math.inf)
            for spectral_change, curve_change in _non_finite_changes(cdoc, bad)
        ]
    ):
        folder = tmp_path / f"spectral-{i}"
        folder.mkdir()
        curve = {k: v for k, v in {**cdoc, **curve_change}.items() if v is not drop}
        (folder / spectral.name).write_text(json.dumps({**sdoc, **spectral_change}))
        (folder / sdoc["curve_ref"]).write_text(json.dumps(curve))
        path = str(folder / spectral.name)
        assert exits_2_with_error_line(["build", "-i", path, "--window", "0", "-o", str(folder / "f.json")])
        assert exits_2_with_error_line(["verify", "-i", path, "--window", "0", "--probes", "8"])


def _non_finite_changes(cdoc: dict, bad: float) -> list[tuple[dict, dict]]:
    """(spectral, curve) document changes that each put ``bad`` into one number."""
    point = next(iter(cdoc["marked_points"]))
    return [
        ({}, {"B": [[[bad, 0.0]]]}),
        ({}, {"base_lift": [0.0, bad]}),
        ({}, {"marked_points": {**cdoc["marked_points"], point: [bad, 0.0]}}),
        ({"divisor": [[bad, 0.0]]}, {}),
        ({"normalization": {"kind": "constant", "value": [1.0, bad]}}, {}),
    ]


def test_other_genus_exits_2(workspace, tmp_path, capsys):
    """Only genus-1 curve documents with a 1x1 B are read, on either backend."""
    spectral, _ = workspace["cross"]
    sdoc = json.loads(spectral.read_text())
    cdoc = json.loads((spectral.parent / sdoc["curve_ref"]).read_text())
    one_by_two = {**cdoc, "B": [[cdoc["B"][0][0], [0.0, 0.0]]]}
    for i, curve in enumerate((genus_two_document(cdoc), one_by_two)):
        for backend in ("torus-analytic", "tabulated"):
            folder = tmp_path / f"{i}-{backend}"
            folder.mkdir()
            (folder / spectral.name).write_text(json.dumps({**sdoc, "backend": backend}))
            (folder / sdoc["curve_ref"]).write_text(json.dumps(curve))
            path = str(folder / spectral.name)
            for argv in (
                ["build", "-i", path, "--window", "0", "-o", str(folder / "f.json")],
                ["verify", "-i", path, "--window", "0", "--probes", "8"],
            ):
                capsys.readouterr()
                assert main(argv) == 2, (i, backend, argv[0])
                err = capsys.readouterr().err
                assert err.startswith("error: ") and "Traceback" not in err


def test_usage_errors_raise_systemexit_2(tmp_path, capsys):
    out = str(tmp_path / "x.json")
    gen = ["gen-spectral", "--model", "cross", "-o", out]
    verify = ["verify", "-i", out]
    for argv in (
        ["gen-spectral", "--model", "pentagon", "-o", out],
        ["no-such-command"],
        gen + ["--seed", "-1"],
        gen + ["--b-re", "nan"],
        gen + ["--b-re", "-4", "--b-im", "inf"],
        ["build", "-i", out, "--window", "-1", "-o", out],
        verify + ["--seed", "-1"],
        verify + ["--probes", "7"],
        verify + ["--window", "-1"],
        # the tolerances are fixed: a tolerance flag is refused, even at its fixed value
        verify + ["--tol", "1e-8"],
        verify + ["--gap-tol", "1e-6"],
        verify + ["--match-tol", "1e-6"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "usage:" in capsys.readouterr().err, argv


def test_out_of_range_values_exit_1(tmp_path, capsys):
    """A finite value whose evaluation leaves double range: a failure line, exit 1, never an exception."""
    spectral = tmp_path / "hex.json"
    assert main(["gen-spectral", "--model", "hex", "--seed", "1", "-o", str(spectral)]) == 0
    sdoc = json.loads(spectral.read_text())
    # phi at the probes leaves double range ([1e300, 0] does not)
    path = tmp_path / "0.json"
    path.write_text(json.dumps({**sdoc, "normalization": {"kind": "constant", "value": [1e308, 0.0]}}))
    capsys.readouterr()
    assert main(["verify", "-i", str(path), "--window", "0", "--probes", "8"]) == 1
    assert capsys.readouterr().err.startswith("verification-grade failure: ")
    assert main(["build", "-i", str(path), "--window", "1", "-o", str(tmp_path / "f.json")]) == 0


def test_a_divisor_lift_far_from_the_base_is_refused(workspace, tmp_path, capsys):
    # the same curve point, but a far lift's theta arguments lose digits: at
    # 2*pi*i*1e7 build once exited 0 and verify failed; at 1e308 theta overflowed
    spectral, _ = workspace["cross"]
    sdoc = json.loads(spectral.read_text())
    B = complex(*json.loads((spectral.parent / sdoc["curve_ref"]).read_text())["B"][0][0])
    divisor = complex(*sdoc["divisor"][0])
    far = [divisor + 2j * math.pi * 1e7, divisor + (MAX_LIFT_CELLS + 1) * B, complex(0.0, -1e308)]
    for i, lift in enumerate(far + [divisor + (MAX_LIFT_CELLS - 1) * B]):
        folder = tmp_path / str(i)
        folder.mkdir()
        (folder / sdoc["curve_ref"]).write_bytes((spectral.parent / sdoc["curve_ref"]).read_bytes())
        path = folder / spectral.name
        path.write_text(json.dumps({**sdoc, "divisor": [[lift.real, lift.imag]]}))
        for argv in (
            ["build", "-i", str(path), "--window", "1", "-o", str(folder / "f.json")],
            ["verify", "-i", str(path), "--window", "1", "--probes", "8", "-o", str(folder / "v.json")],
        ):
            capsys.readouterr()
            code = main(argv)
            err = capsys.readouterr().err
            if i < len(far):
                assert code == 2 and err.count("\n") == 1, (i, argv[0], err)
                assert err.startswith(f"error: {path}: divisor[0] is ")
                assert err.endswith(f"lattice cells from the base (max {MAX_LIFT_CELLS})\n")
                assert not os.path.exists(argv[-1])
            else:
                assert code == 0 and err == "", (argv[0], err)


def _refused_copies(spectral, tmp_path, capsys, copies, document: str, message: str) -> None:
    """Each ``(spectral change, curve change)`` copy makes build and verify exit 2 with one error line, writing nothing.

    A change maps a key to its new value, or to ``None`` to drop the key.
    The line names the copy's ``document`` (``"spectral"`` or ``"curve"``)
    and then matches the regex ``message``.
    """
    sdoc = json.loads(spectral.read_text())
    cdoc = json.loads((spectral.parent / sdoc["curve_ref"]).read_text())
    for i, (spectral_change, curve_change) in enumerate(copies):
        folder = tmp_path / str(i)
        folder.mkdir()
        path, curve_path = folder / spectral.name, folder / sdoc["curve_ref"]
        for target, doc, change in ((path, sdoc, spectral_change), (curve_path, cdoc, curve_change)):
            target.write_text(json.dumps({k: v for k, v in {**doc, **change}.items() if v is not None}))
        for argv in (
            ["build", "-i", str(path), "--window", "1", "-o", str(folder / "f.json")],
            ["verify", "-i", str(path), "--window", "1", "--probes", "8", "-o", str(folder / "v.json")],
        ):
            capsys.readouterr()
            code = main(argv)
            err = capsys.readouterr().err
            assert code == 2 and err.count("\n") == 1, (i, argv[0], err)
            named = path if document == "spectral" else curve_path
            assert re.fullmatch(re.escape(f"error: {named}: ") + message + "\n", err), (i, argv[0], err)
            assert not os.path.exists(argv[-1])


def test_a_period_above_the_domain_is_refused(workspace, tmp_path, capsys):
    # gen-spectral writes Re B <= -3; above it the curve once built (-1.0),
    # failed the Riemann-constant grid scan (-0.3) or was refused for a marked point (-0.05)
    spectral, _ = workspace["cross"]
    copies = [({}, {"B": [[[re_b, 0.0]]]}) for re_b in (-1.0, -0.3, -0.05)]
    _refused_copies(spectral, tmp_path, capsys, copies, "curve", "B: .*")


def test_a_document_translated_far_from_0_is_refused(workspace, tmp_path, capsys):
    # base, marked points and divisor moved together: the same curve, but the
    # theta arguments lose digits (at 1e9j build and verify once passed)
    spectral, _ = workspace["hex"]
    sdoc = json.loads(spectral.read_text())
    cdoc = json.loads((spectral.parent / sdoc["curve_ref"]).read_text())
    B = complex(*cdoc["B"][0][0])

    def moved(shift: complex) -> tuple[dict, dict]:
        def move(pair):
            z = complex(*pair) + shift
            return [z.real, z.imag]

        marked = {name: move(lift) for name, lift in cdoc["marked_points"].items()}
        return {"divisor": [move(sdoc["divisor"][0])]}, {"base_lift": move(cdoc["base_lift"]), "marked_points": marked}

    copies = [moved(shift) for shift in (1e9j, 1e9, 2j * math.pi * (MAX_LIFT_CELLS + 1), (MAX_LIFT_CELLS + 1) * B)]
    message = "base_lift is .*" + re.escape(f" lattice cells from 0 (max {MAX_LIFT_CELLS})")
    _refused_copies(spectral, tmp_path, capsys, copies, "curve", message)
    # within the bound the document still builds
    near = tmp_path / "near"
    near.mkdir()
    sdoc_near, cdoc_near = moved(2j * math.pi * (MAX_LIFT_CELLS - 1) + (MAX_LIFT_CELLS - 1) * B)
    (near / spectral.name).write_text(json.dumps({**sdoc, **sdoc_near}))
    (near / sdoc["curve_ref"]).write_text(json.dumps({**cdoc, **cdoc_near}))
    assert main(["build", "-i", str(near / spectral.name), "--window", "1", "-o", str(near / "f.json")]) == 0


def test_a_spectral_document_without_a_seed_is_refused(workspace, tmp_path, capsys):
    # it was once read as seed 0, and build wrote "seed": null into the field
    spectral, _ = workspace["cross"]
    message = "seed must be a non-negative integer, got None"
    _refused_copies(spectral, tmp_path, capsys, [({"seed": None}, {})], "spectral", message)


def test_a_denominator_below_the_floor_fails_build(workspace, tmp_path, capsys, monkeypatch):
    spectral, _ = workspace["hex"]
    monkeypatch.setattr(crosshex.bafunc, "_GENERICITY_FLOOR", math.inf)
    capsys.readouterr()
    assert main(["build", "-i", str(spectral), "--window", "1", "-o", str(tmp_path / "f.json")]) == 1
    assert "theta denominator at" in capsys.readouterr().err
    assert not (tmp_path / "f.json").exists()


@pytest.mark.parametrize(
    "value, reason",
    [
        ([0, 0], "below the 1e-12 floor"),
        ([1e-13, 0.0], "below the 1e-12 floor"),
        # finite, but (1e308 + 1e308j) / itself overflows
        ([1e308, 1e308], "has no finite ratio"),
    ],
    ids=["zero", "below-floor", "no-finite-ratio"],
)
def test_a_normalization_below_the_floor_is_a_malformed_document(workspace, tmp_path, capsys, value, reason):
    # both readers refuse it with exit 2, as every other malformed value
    spectral, field = workspace["cross"]
    normalization = {"kind": "constant", "value": value}
    sdoc, fdoc = json.loads(spectral.read_text()), json.loads(field.read_text())
    bad_spectral = spectral.parent / f"below-floor-{value[0]}.json"  # next to its curve document
    bad_spectral.write_text(json.dumps({**sdoc, "normalization": normalization}))
    bad_field = tmp_path / "field.json"
    bad_field.write_text(json.dumps({**fdoc, "normalization": normalization}))
    for argv in (
        ["build", "-i", str(bad_spectral), "--window", "1", "-o", str(tmp_path / "f.json")],
        ["verify", "-i", str(bad_spectral), "--window", "1", "--probes", "8"],
        ["export", "-i", str(bad_field), "--format", "json", "-o", str(tmp_path / "e.json")],
        ["export", "-i", str(bad_field), "--format", "csv", "-o", str(tmp_path / "e.csv")],
    ):
        capsys.readouterr()
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bad normalization: normalization constant" in err, err
        assert reason in err


def test_an_unsupported_normalization_description_is_a_malformed_document(workspace, tmp_path, capsys):
    spectral, field = workspace["hex"]
    normalization = {"kind": "linear"}
    bad_spectral = spectral.parent / "linear-normalization.json"  # next to its curve document
    bad_spectral.write_text(json.dumps({**json.loads(spectral.read_text()), "normalization": normalization}))
    bad_field = tmp_path / "field.json"
    bad_field.write_text(json.dumps({**json.loads(field.read_text()), "normalization": normalization}))
    for argv in (
        ["build", "-i", str(bad_spectral), "--window", "1", "-o", str(tmp_path / "f.json")],
        ["export", "-i", str(bad_field), "--format", "json", "-o", str(tmp_path / "e.json")],
    ):
        capsys.readouterr()
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bad normalization: unsupported normalization description" in err, err
        assert not (tmp_path / argv[-1]).exists()


def _in_process(argv):
    """Exit code, stdout and stderr of one ``main`` call in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors and --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _alone(argv):
    """Exit code, stdout and stderr of the same command in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(crosshex.cli.__file__))
    run = subprocess.run(
        [sys.executable, "-c", "import sys; from crosshex.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src, COLUMNS="80"),
    )
    return run.returncode, run.stdout, run.stderr


def test_one_process_runs_commands_in_turn_as_each_runs_alone(workspace, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # the help text wraps at the terminal width
    spectral, field = (str(p) for p in workspace["cross"])
    out = str(tmp_path / "built.json")
    commands = [
        ["build", "-i", spectral, "--window", "-1", "-o", out],  # usage error: argparse exits 2
        ["build", "-i", field, "-o", out],  # a field document is not spectral data: exit 2
        ["build", "-i", spectral, "--window", "1", "-o", out],
        ["--help"],
        ["verify", "-i", spectral, "--window", "1", "--probes", "8"],
    ]
    together = [_in_process(argv) for argv in commands]
    built = (tmp_path / "built.json").read_bytes()  # only the third command writes it
    assert [code for code, _, _ in together] == [2, 2, 0, 0, 0]
    for argv, seen in zip(commands, together):
        assert _alone(argv) == seen, argv
    assert (tmp_path / "built.json").read_bytes() == built


@pytest.mark.parametrize("command", ["gen-spectral", "build", "verify", "export"])
def test_main_calls_the_command_bound_in_the_module_at_call_time(command, monkeypatch):
    calls = []

    def replacement(config):
        calls.append(config.command)
        return 7

    argv = {
        "gen-spectral": ["gen-spectral", "--model", "hex", "-o", "never.json"],
        "build": ["build", "-i", "never.json", "-o", "never-field.json"],
        "verify": ["verify", "-i", "never.json"],
        "export": ["export", "-i", "never.json", "-o", "never.csv"],
    }[command]
    monkeypatch.setattr(crosshex.cli, "cmd_" + command.replace("-", "_"), replacement)
    assert main(argv) == 7 and calls == [command]
