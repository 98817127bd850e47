"""Result arithmetic of a run: margins, verify classification, failed share, CSV check."""

import json
import os

import pytest

import worker
from worker import Op, Outcome


def sample_report(**overrides):
    report = {
        "format": "crosshex-verify-v1",
        "model": "hex",
        "tolerances": {"residual": 1e-8, "gap": 1e-6, "match": 1e-6, "forced_zero": 1e-8},
        "max_residual": 1e-14,
        "max_gap": 1e-12,
        "max_mismatch": 1e-11,
        "max_forced_zero_excess": 1e-6,
        "residual_failures": [],
        "oracle_failures": [[-10, 8, 2], [-9, 9, 0]],
        "passed": False,
    }
    report.update(overrides)
    return report


BREACH_STDOUT = (
    "forced zeros   max 1.000e-06  tol 1.0e-08  FAIL\n"
    "  oracle breach at site (-10, 8, 2)\n"
    "  oracle breach at site (-9, 9, 0)\n"
    "verification FAILED\n"
)


def test_margins_from_a_sample_verify_report():
    margins = worker.report_margins([sample_report(), sample_report(model="cross", max_residual=1e-12)])
    assert margins["residual_margin_dec"] == pytest.approx(4.0)  # worst over both reports
    assert margins["gap_margin_dec"] == pytest.approx(6.0)
    assert margins["oracle_margin_dec"] == pytest.approx(5.0)
    assert margins["zero_margin_dec"] == pytest.approx(-2.0)  # breached: negative headroom
    # the forced-zero check is hex only
    assert "zero_margin_dec" not in worker.report_margins([sample_report(model="cross")])
    assert worker.margin_dec(1e-8, 0.0) > 299  # a zero reading: headroom down to the smallest double


def test_verify_exit_codes_are_classified():
    report = sample_report()
    assert worker.classify_verify(1, BREACH_STDOUT, report) == (False, {(-10, 8, 2), (-9, 9, 0)})
    passing = sample_report(oracle_failures=[], passed=True, max_forced_zero_excess=1e-12)
    assert worker.classify_verify(0, "verification PASSED\n", passing) == (False, frozenset())
    # exit 1 without listed breach sites, exit 2, a crash, or a contradicting report
    assert worker.classify_verify(1, "verification-grade failure: x\n", report)[0]
    assert worker.classify_verify(2, "", None)[0]
    assert worker.classify_verify(None, "", None)[0]
    assert worker.classify_verify(0, "verification PASSED\n", report)[0]


def test_failed_share_counts_breaches_and_failed_commands():
    def verify_outcome(sites, failed=False, breached=()):
        op = Op("verify", ("verify",), ("r.json",), sites=sites, probes=8)
        return Outcome(op, 1, 1.0, "", "", failed=failed, breached=frozenset(breached))

    build = Outcome(Op("build", ("build",), ("f.json",), sites=100), 0, 1.0, "", "")
    export = Outcome(Op("export", ("export",), ("f.csv",)), 0, 1.0, "", "")
    outcomes = [build, export, verify_outcome(100, breached=[(0, 0, 0), (1, -1, 0)]), verify_outcome(50, failed=True)]
    assert worker.failed_share(outcomes) == pytest.approx((2 + 50) / 250)
    assert worker.failed_share([build, export]) == 0.0


def test_csv_check_detects_a_changed_value():
    doc = {
        "model": "cross",
        "sites": [
            {"site": [0, 0], "coeffs": {k: [0.1 * i, -1.0 / 3.0] for i, k in enumerate("abcdv")}},
            {"site": [0, 1], "coeffs": {k: [1e-300, 2.5] for k in "abcdv"}},
        ],
    }
    header = "n,m," + ",".join(f"re_{k},im_{k}" for k in "abcdv")
    rows = [
        ",".join(["%d" % x for x in e["site"]] + ["%.17g" % v for k in "abcdv" for v in e["coeffs"][k]])
        for e in doc["sites"]
    ]
    text = "\n".join([header, *rows]) + "\n"
    assert worker.csv_mismatch(text, doc) is None
    assert "im_v" in worker.csv_mismatch(text.replace("2.5\n", "2.5000000000000004\n"), doc)
    assert "rows" in worker.csv_mismatch("\n".join([header, rows[0]]) + "\n", doc)


def test_benchmark_json_metrics_are_computed_by_the_worker():
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        config = json.load(fh)
    for metric in config["end_to_end"]:
        assert worker.FIGURE_UNITS[metric["name"]] == metric["unit"]
    assert {w["name"] for w in config["workloads"]} == set(worker.WORKLOADS)
