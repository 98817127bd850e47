"""The tracer: self time from span nesting, import-site patching, repeatable counts."""

import io
import contextlib

import numpy as np

import crosshex.bafunc
import crosshex.cli
import crosshex.operators
import crosshex.surface
import crosshex.theta
from tracer import Tracer, layer_metrics


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_nested_toy_calls():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 3.0

    def middle():
        clock.now += 1.0
        leaf()
        leaf()
        clock.now += 0.5

    def top():
        clock.now += 2.0
        middle()
        leaf()

    leaf_w = tracer.wrap("leaf", leaf)
    middle_w = tracer.wrap("middle", middle)
    top_w = tracer.wrap("top", top)
    # rebind the names the toy functions call, as install() does at import sites
    leaf, middle = leaf_w, middle_w  # noqa: F841 - closures read these cells
    top_w()

    summary = tracer.summary()["spans"]
    assert summary["leaf"] == {"calls": 3, "total_s": 9.0, "self_s": 9.0}
    assert summary["middle"] == {"calls": 1, "total_s": 7.5, "self_s": 1.5}
    assert summary["top"] == {"calls": 1, "total_s": 12.5, "self_s": 2.0}
    edges = tracer.summary()["edges"]
    assert edges == {"middle>leaf": 2, "top>leaf": 1, "top>middle": 1, "None>top": 1}


def test_install_patches_every_import_site_and_uninstall_restores():
    originals = (crosshex.theta.theta_eval_scaled, np.linalg.svd, crosshex.operators.stencil_offsets)
    with Tracer():
        # theta_eval_scaled is bound by name in bafunc and surface as well
        assert crosshex.bafunc.theta_eval_scaled is crosshex.theta.theta_eval_scaled
        assert crosshex.surface.theta_eval_scaled is crosshex.theta.theta_eval_scaled
        assert crosshex.theta.theta_eval_scaled is not originals[0]
        assert np.linalg.svd is not originals[1]
        assert crosshex.operators.stencil_offsets is crosshex.labels.stencil_offsets
        assert crosshex.cli.residual_report is crosshex.operators.residual_report
        assert crosshex.operators.stencil_offsets is not originals[2]
    assert crosshex.bafunc.theta_eval_scaled is originals[0]
    assert crosshex.surface.theta_eval_scaled is originals[0]
    assert np.linalg.svd is originals[1]
    assert crosshex.operators.stencil_offsets is originals[2]


def _traced_chain(tmp_path):
    spec = str(tmp_path / "spec.json")
    commands = [
        ["gen-spectral", "--model", "hex", "--seed", "3", "-o", spec],
        ["build", "-i", spec, "--window", "1", "-o", str(tmp_path / "field.json")],
        ["verify", "-i", spec, "--window", "1", "--probes", "8", "--seed", "5"],
        ["export", "-i", str(tmp_path / "field.json"), "--format", "csv", "-o", str(tmp_path / "f.csv")],
    ]
    tracer = Tracer()
    with tracer, contextlib.redirect_stdout(io.StringIO()):
        for argv in commands:
            assert crosshex.cli.main(argv) == 0
    return tracer.summary()


def test_counts_repeat_exactly_across_two_traced_runs(tmp_path):
    first = _traced_chain(tmp_path)
    second = _traced_chain(tmp_path)
    counts = lambda s: {name: span["calls"] for name, span in s["spans"].items()}  # noqa: E731
    assert counts(first) == counts(second)
    assert first["edges"] == second["edges"]
    assert first["distinct"] == second["distinct"]
    layers = layer_metrics(first)
    for name in ("theta.calls", "bafunc.phi_calls", "operators.svd_calls", "operators.coeff_calls"):
        assert layers[name] > 0, name
    # 7 hex sites, each built twice (build, then inside verify) and checked by the oracle
    assert layers["operators.coeff_calls"] == 14
    assert layers["operators.oracle_calls"] == layers["operators.svd_calls"] == 7
    assert layers["bafunc.denominator_useful_ratio"] == 8 / layers["bafunc.denominator_calls"]
