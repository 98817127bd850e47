"""Span tracer that wraps crosshex's public layer functions from outside.

Nothing in ``src/`` knows about it.  :meth:`Tracer.install` replaces each
target function with a timing wrapper at every place it is bound: the
defining module or class, every ``crosshex.*`` module that imported it by
name, and the package namespace.  Self time is computed from span nesting:
a span's duration minus the time covered by the wrapped spans it called.
Spans are aggregated per name as they close, so a traced run keeps a few
hundred numbers in memory, not one record per call.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (defining module, attribute path, span name).  A dotted attribute path
# names a method on a class; the wrapper is installed on that class.
TARGETS = (
    ("crosshex.theta", "theta_eval_scaled", "theta.theta_eval_scaled"),
    ("crosshex.surface", "TorusCurve.third_kind_integral", "surface.third_kind_integral"),
    ("crosshex.surface", "SpectralCurve.cover_distance", "surface.cover_distance"),
    ("crosshex.surface", "TorusCurve.b_period_vector", "surface.b_period_vector"),
    ("crosshex.surface", "TorusCurve.riemann_constants", "surface.riemann_constants"),
    ("crosshex.labels", "relabel_cross", "labels.relabel_cross"),
    ("crosshex.labels", "relabel_hex", "labels.relabel_hex"),
    ("crosshex.labels", "stencil_offsets", "labels.stencil_offsets"),
    ("crosshex.bafunc", "_SpectralDataBase.phi_scaled", "bafunc.phi_scaled"),
    ("crosshex.bafunc", "_SpectralDataBase.denominator_scaled", "bafunc.denominator_scaled"),
    ("crosshex.bafunc", "_SpectralDataBase.integral", "bafunc.integral"),
    ("crosshex.operators", "cross_coefficients", "operators.cross_coefficients"),
    ("crosshex.operators", "hex_coefficients", "operators.hex_coefficients"),
    ("crosshex.operators", "evaluate_ratio", "operators.evaluate_ratio"),
    ("crosshex.operators", "build_field", "operators.build_field"),
    ("crosshex.operators", "residual_report", "operators.residual_report"),
    ("crosshex.operators", "oracle_report", "operators.oracle_report"),
    ("crosshex.operators", "nullspace_oracle", "operators.nullspace_oracle"),
    # operators reaches the SVD as np.linalg.svd; no other crosshex module uses it
    ("numpy.linalg", "svd", "operators.svd"),
    ("crosshex.operators", "sample_probes", "operators.sample_probes"),
    ("crosshex.operators", "field_to_document", "operators.field_to_document"),
    ("crosshex.operators", "field_to_csv", "operators.field_to_csv"),
    ("crosshex.operators", "field_from_document", "operators.field_from_document"),
    ("crosshex.cli", "main", "cli.main"),
    ("crosshex.cli", "cmd_gen_spectral", "cli.cmd_gen_spectral"),
    ("crosshex.cli", "cmd_build", "cli.cmd_build"),
    ("crosshex.cli", "cmd_verify", "cli.cmd_verify"),
    ("crosshex.cli", "cmd_export", "cli.cmd_export"),
    ("crosshex.cli", "load_spectral_document", "cli.load_spectral_document"),
)


def _distinct_point(args, kwargs):
    """Key of the curve point a denominator is evaluated at (its lift)."""
    point = args[1] if len(args) > 1 else kwargs["P"]
    return point.lift


# spans that also record the distinct keys they were called with
DISTINCT_KEYS = {"bafunc.denominator_scaled": _distinct_point}


class Tracer:
    """Per-name call counts, inclusive and self times, and caller edges."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.edges: dict[tuple, int] = defaultdict(int)
        self.distinct: dict[str, set] = defaultdict(set)
        self._stack: list[list] = []
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn, distinct_key=None):
        """Return ``fn`` wrapped in a span called ``name``."""
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if distinct_key is not None:
                self.distinct[name].add(distinct_key(args, kwargs))
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1] if stack else None
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - frame[1]
                self.edges[(parent[0] if parent else None, name)] += 1
                if parent is not None:
                    parent[1] += elapsed

        return span

    def install(self, targets=TARGETS) -> None:
        """Wrap every target at its definition and at every import site."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        sites = [m for n, m in list(sys.modules.items()) if n == "crosshex" or n.startswith("crosshex.")]
        for module_name, path, name in targets:
            owner = importlib.import_module(module_name)
            *chain, attr = path.split(".")
            for part in chain:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self.wrap(name, original, DISTINCT_KEYS.get(name))
            self._set(owner, attr, wrapped)
            if not chain:
                for module in sites:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, key, wrapped)

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def summary(self) -> dict:
        """Plain-data snapshot: {name: {calls, total_s, self_s}}, edges, distinct counts."""
        return {
            "spans": {
                name: {
                    "calls": self.calls[name],
                    "total_s": self.total[name],
                    "self_s": self.self_time[name],
                }
                for name in sorted(self.calls)
            },
            "edges": {f"{p}>{c}": n for (p, c), n in sorted(self.edges.items(), key=str)},
            "distinct": {name: len(keys) for name, keys in sorted(self.distinct.items())},
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict) -> dict[str, float]:
    """Per-layer metrics from a :meth:`Tracer.summary`.

    A ratio or per-call figure whose base is zero (the workload never
    made that call) is reported as 0.
    """
    spans = summary["spans"]

    def calls(*names):
        return sum(spans.get(n, {}).get("calls", 0) for n in names)

    def total(*names):
        return sum(spans.get(n, {}).get("total_s", 0.0) for n in names)

    def self_s(*names):
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    def layer_self(prefix):
        return sum(s["self_s"] for n, s in spans.items() if n.startswith(prefix + "."))

    integral_misses = summary["edges"].get("bafunc.integral>surface.third_kind_integral", 0)
    coeff = ("operators.cross_coefficients", "operators.hex_coefficients")
    labels = ("labels.relabel_cross", "labels.relabel_hex", "labels.stencil_offsets")
    documents = ("operators.field_to_document", "operators.field_to_csv", "operators.field_from_document")
    cli_self = ("cli.main", "cli.cmd_gen_spectral", "cli.cmd_build", "cli.cmd_verify", "cli.cmd_export")
    phi_calls = calls("bafunc.phi_scaled")
    den_calls = calls("bafunc.denominator_scaled")
    return {
        "theta.calls": calls("theta.theta_eval_scaled"),
        "theta.self_s": self_s("theta.theta_eval_scaled"),
        "theta.us_per_call": 1e6 * _ratio(total("theta.theta_eval_scaled"), calls("theta.theta_eval_scaled")),
        "surface.integral_calls": calls("surface.third_kind_integral"),
        "surface.integral_self_s": self_s("surface.third_kind_integral"),
        "surface.integral_us_per_call": 1e6
        * _ratio(total("surface.third_kind_integral"), calls("surface.third_kind_integral")),
        "surface.cover_distance_calls": calls("surface.cover_distance"),
        "surface.cover_distance_s": total("surface.cover_distance"),
        "surface.selfcheck_s": total("surface.b_period_vector", "surface.riemann_constants"),
        "labels.calls": calls(*labels),
        "labels.self_s": self_s(*labels),
        "bafunc.phi_calls": phi_calls,
        "bafunc.phi_hit_ratio": 1.0 - _ratio(den_calls, phi_calls) if phi_calls else 0.0,
        "bafunc.denominator_calls": den_calls,
        "bafunc.denominator_useful_ratio": _ratio(
            summary["distinct"].get("bafunc.denominator_scaled", 0), den_calls
        ),
        "bafunc.integral_hit_ratio": 1.0 - _ratio(integral_misses, calls("bafunc.integral"))
        if calls("bafunc.integral")
        else 0.0,
        "bafunc.self_s": layer_self("bafunc"),
        "operators.coeff_calls": calls(*coeff),
        "operators.coeff_us_per_site": 1e6 * _ratio(total(*coeff), calls(*coeff)),
        "operators.ratio_self_s": self_s("operators.evaluate_ratio"),
        "operators.residual_self_s": self_s("operators.residual_report"),
        "operators.oracle_calls": calls("operators.nullspace_oracle"),
        "operators.oracle_self_s": self_s("operators.nullspace_oracle", "operators.oracle_report"),
        "operators.svd_calls": calls("operators.svd"),
        "operators.svd_us_per_call": 1e6 * _ratio(total("operators.svd"), calls("operators.svd")),
        "operators.probe_sampling_s": total("operators.sample_probes"),
        "operators.documents_s": total(*documents),
        "cli.load_s": total("cli.load_spectral_document"),
        "cli.self_s": self_s(*cli_self),
    }

