"""One benchmark run of the crosshex pipeline, in the child process run.py starts.

The run drives the public command line (``crosshex.cli.main``) in-process,
one command at a time: a closed loop with a single caller.  It times each
command, checks every output, and prints one JSON result as its last line.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from crosshex import cli
from crosshex.operators import window_sites
from tracer import Tracer, layer_metrics


@dataclass(frozen=True)
class Workload:
    stages: tuple[str, ...]  # pipeline stages, in order, from gen/build/verify/export
    radius: int  # window radius for build and verify
    probes: int  # verify probe count (0: the workload does not verify)
    periods: tuple[float, ...]  # Re(B) of the instances; each runs both models


# Re(B) sits at the midpoints of the two halves of gen-spectral's range
# [-8, -3].  The period sets the shell count of every theta call, so
# drawing it per run would make the run-to-run spread reflect the draw
# rather than the code; the seed draws everything else.
SHALLOW, DEEP = -4.25, -6.75
# Sizes are scaled down from the radius-20 / 20-probe / 300-probe chain so
# that every command runs MIN_ROUNDS times within one run; each workload
# keeps the layer it was chosen for dominant in the traced run (README.md).
# wide-verify runs one period only, to fit its rounds of a wide window.
WORKLOADS = {
    "wide-verify": Workload(("gen", "build", "verify", "export"), radius=10, probes=8, periods=(SHALLOW,)),
    "probe-heavy": Workload(("gen", "verify"), radius=1, probes=60, periods=(SHALLOW, DEEP)),
    "build-export": Workload(("gen", "build", "export"), radius=12, probes=0, periods=(SHALLOW, DEEP)),
}
MODELS = ("cross", "hex")
SETUP_REPEATS = 11
MIN_ROUNDS = 3  # the median of three repeats shrugs off one disturbed repeat
KERNEL_STEPS = 480
# calibration_kernel() time on an otherwise idle machine (2-core Intel Xeon,
# Python 3.11, numpy 2.4); scaled times read as seconds on that machine
REFERENCE_KERNEL_S = 0.040
# every figure a run computes, with its unit; BENCHMARK.json picks the gated ones
FIGURE_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "pass_share": "ratio",
    "failed_share": "ratio",
    "build_sites_per_s": "1/s",
    "verify_checks_per_s": "1/s",
    "residual_margin_dec": "dec",
    "gap_margin_dec": "dec",
    "oracle_margin_dec": "dec",
    "zero_margin_dec": "dec",
}
BREACH_LINE = re.compile(r"breach at site \(([-\d, ]+)\)")


@dataclass(frozen=True)
class Instance:
    """One model at one period, with spectral and probe seeds drawn from the run seed."""

    model: str
    period: int  # index into the workload's periods
    b_re: float
    spectral_seed: int
    probe_seed: int
    directory: str

    def path(self, name: str) -> str:
        return os.path.join(self.directory, name)

    @property
    def key(self) -> str:
        return f"{self.model}-{self.period}"


def make_instances(name: str, wl: Workload, seed: int, workdir: str) -> list[Instance]:
    rng = random.Random(f"{name}/{seed}")
    out = []
    for period, b_re in enumerate(wl.periods):
        for model in MODELS:
            inst = Instance(
                model=model,
                period=period,
                b_re=b_re,
                spectral_seed=rng.randrange(2**31),
                probe_seed=rng.randrange(2**31),
                directory=os.path.join(workdir, f"{model}-{period}"),
            )
            os.makedirs(inst.directory)
            out.append(inst)
    return out


@dataclass(frozen=True)
class Op:
    stage: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    sites: int = 0  # lattice sites the command builds or verifies
    probes: int = 0


def gen_op(inst: Instance) -> Op:
    spec = inst.path("spec.json")
    argv = ("gen-spectral", "--model", inst.model, "--seed", str(inst.spectral_seed),
            "--b-re", repr(inst.b_re), "-o", spec)
    return Op("gen", argv, (spec, inst.path("spec.curve.json")))


def build_op(inst: Instance, radius: int, spec: str | None = None, out: str | None = None) -> Op:
    out = out or inst.path("field.json")
    argv = ("build", "-i", spec or inst.path("spec.json"), "--window", str(radius), "-o", out)
    return Op("build", argv, (out,), sites=len(window_sites(inst.model, radius)))


def chain_ops(inst: Instance, wl: Workload) -> list[Op]:
    ops = []
    field_doc = inst.path("field.json")
    for stage in wl.stages:
        if stage == "gen":
            ops.append(gen_op(inst))
        elif stage == "build":
            ops.append(build_op(inst, wl.radius))
        elif stage == "verify":
            report = inst.path("verify.json")
            argv = ("verify", "-i", inst.path("spec.json"), "--window", str(wl.radius),
                    "--probes", str(wl.probes), "--seed", str(inst.probe_seed), "-o", report)
            ops.append(Op("verify", argv, (report,), len(window_sites(inst.model, wl.radius)), wl.probes))
        elif stage == "export":
            for fmt, name in (("csv", "field.csv"), ("json", "field.export.json")):
                out = inst.path(name)
                ops.append(Op("export", ("export", "-i", field_doc, "--format", fmt, "-o", out), (out,)))
    return ops


@dataclass
class Outcome:
    """What one command did: exit code, time, and its classification."""

    op: Op
    rc: int | None
    seconds: float
    stdout: str
    stderr: str
    scaled_seconds: float = 0.0  # seconds scaled to the reference machine speed
    failed: bool = False  # crashed, usage/I-O error, or an unexplained nonzero exit
    breached: frozenset = frozenset()  # verify: sites listed as breaching a tolerance
    report: dict | None = None


def run_command(argv) -> tuple[int | None, float, str, str]:
    """Call ``crosshex.cli.main`` in-process, capturing its output."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed operation; record it and go on
        rc = None
        err.write(traceback.format_exc())
    return rc, time.perf_counter() - start, out.getvalue(), err.getvalue()


def classify_verify(rc, stdout: str, report: dict | None) -> tuple[bool, frozenset]:
    """Return (failed operation, breached sites) for one ``verify`` command.

    Exit 0 with a passing report passes.  Exit 1 whose printed breach
    sites are exactly the report's failures is a completed verification
    that found breaches.  Anything else (exit 2, an exception, exit 1
    without listed breaches, a report that contradicts the exit code) is
    a failed operation.
    """
    if report is None:
        return True, frozenset()
    listed = {tuple(int(x) for x in m.split(",")) for m in BREACH_LINE.findall(stdout)}
    sites = {tuple(s) for s in report.get("residual_failures", [])}
    sites |= {tuple(s) for s in report.get("oracle_failures", [])}
    if rc == 0 and report.get("passed") is True and not sites and not listed:
        return False, frozenset()
    if rc == 1 and report.get("passed") is False and sites and listed == sites:
        return False, frozenset(sites)
    return True, frozenset()


def execute(op: Op) -> Outcome:
    for path in op.outputs:  # a stale output must not pass for a fresh one
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    rc, seconds, stdout, stderr = run_command(op.argv)
    outcome = Outcome(op, rc, seconds, stdout, stderr)
    if op.stage == "verify":
        report = None
        if rc in (0, 1):
            try:
                with open(op.outputs[0]) as fh:
                    report = json.load(fh)
            except (OSError, json.JSONDecodeError):
                report = None
        outcome.report = report
        outcome.failed, outcome.breached = classify_verify(rc, stdout, report)
    else:
        outcome.failed = rc != 0
    if outcome.failed:
        print(f"perfbench: {' '.join(op.argv)} failed (exit {rc}):\n{stderr}", file=sys.stderr)
    return outcome


# margin name -> (verify report tolerance key, measured maximum key, models checked)
MARGINS = {
    "residual_margin_dec": ("residual", "max_residual", ("cross", "hex")),
    "gap_margin_dec": ("gap", "max_gap", ("cross", "hex")),
    "oracle_margin_dec": ("match", "max_mismatch", ("cross", "hex")),
    "zero_margin_dec": ("forced_zero", "max_forced_zero_excess", ("hex",)),
}


def margin_dec(tolerance: float, measured: float) -> float:
    """Decimal digits of headroom, log10(tolerance / measured).

    Positive while the check passes, negative once it is breached.  A
    measured value of exactly 0 is read as the smallest normal double.
    """
    return math.log10(tolerance / max(measured, sys.float_info.min))


def report_margins(reports: list[dict]) -> dict[str, float]:
    """Worst (smallest) margin of each verify check over the given reports."""
    out = {}
    for name, (tol_key, value_key, models) in MARGINS.items():
        values = [margin_dec(r["tolerances"][tol_key], r[value_key]) for r in reports if r["model"] in models]
        if values:
            out[name] = min(values)
    return out


def failed_share(outcomes: list[Outcome]) -> float:
    """Failed site operations over attempted ones.

    Every site a ``build`` or ``verify`` command handles is one site
    operation.  It fails when the command failed, or when ``verify``
    listed the site as a breach.
    """
    attempted = sum(o.op.sites for o in outcomes)
    failed = sum(o.op.sites if o.failed else len(o.breached) for o in outcomes)
    return failed / attempted if attempted else 0.0


@dataclass
class Checks:
    """Output checks; each failure is one message."""

    failures: list[str] = field(default_factory=list)
    digests: dict = field(default_factory=dict)

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def same_bytes(self, path: str) -> None:
        """The file must read the same as the first time it was written."""
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        first = self.digests.setdefault(path, digest)
        self.expect(first == digest, f"{path} differs between repeats of the same command")


def csv_mismatch(csv_text: str, field_doc: dict) -> str | None:
    """Why the CSV export does not parse back to the field's values, or None."""
    lines = csv_text.splitlines()
    header = lines[0].split(",")
    nidx = 2 if field_doc["model"] == "cross" else 3
    expected = {tuple(e["site"]): e["coeffs"] for e in field_doc["sites"]}
    if len(lines) - 1 != len(expected):
        return f"{len(lines) - 1} CSV rows for {len(expected)} sites"
    for line in lines[1:]:
        row = line.split(",")
        site = tuple(int(x) for x in row[:nidx])
        coeffs = expected.get(site)
        if coeffs is None:
            return f"CSV row for unknown site {site}"
        for col, text in zip(header[nidx:], row[nidx:]):
            part, key = col.split("_", 1)
            if float(text) != coeffs[key][0 if part == "re" else 1]:
                return f"site {site} {col}: CSV {text} != field {coeffs[key]}"
    return None


def check_documents(inst: Instance, wl: Workload, checks: Checks) -> None:
    """Untimed content checks on one instance's outputs."""
    if "export" in wl.stages:
        with open(inst.path("field.json")) as fh:
            field_text = fh.read()
        with open(inst.path("field.csv")) as fh:
            problem = csv_mismatch(fh.read(), json.loads(field_text))
        checks.expect(problem is None, f"{inst.key}: CSV does not parse back to the field: {problem}")
        with open(inst.path("field.export.json")) as fh:
            checks.expect(fh.read() == field_text, f"{inst.key}: JSON export differs from the field document")


def check_tabulated(inst: Instance, wl: Workload, checks: Checks, extra: list[Outcome]) -> None:
    """A build from the stored curve tables must reproduce the analytic field document."""
    if "build" not in wl.stages:
        extra.append(execute(build_op(inst, wl.radius)))
    tab_dir = inst.path("tabulated")
    os.makedirs(tab_dir, exist_ok=True)
    with open(inst.path("spec.json")) as fh:
        spec = json.load(fh)
    spec["backend"] = "tabulated"
    with open(os.path.join(tab_dir, "spec.json"), "w") as fh:
        fh.write(json.dumps(spec, sort_keys=True, indent=2) + "\n")
    shutil.copy(inst.path(spec["curve_ref"]), tab_dir)
    tab_field = os.path.join(tab_dir, "field.json")
    outcome = execute(build_op(inst, wl.radius, os.path.join(tab_dir, "spec.json"), tab_field))
    extra.append(outcome)
    same = False
    if not outcome.failed:
        with open(tab_field, "rb") as a, open(inst.path("field.json"), "rb") as b:
            same = a.read() == b.read()
    checks.expect(same, f"{inst.key}: tabulated-backend build differs from the analytic field document")


@dataclass(frozen=True)
class _KernelValue:
    mantissa: complex
    scale: float

    def times(self, other: "_KernelValue") -> "_KernelValue":
        return _KernelValue(self.mantissa * other.mantissa, self.scale + other.scale)

    def normalized(self) -> "_KernelValue":
        size = abs(self.mantissa)
        return _KernelValue(self.mantissa / size, self.scale + math.log(size)) if size else self


def calibration_kernel() -> float:
    """Seconds taken by a fixed piece of work owned by the benchmark.

    It is shaped like the pipeline's hot loops (a one-dimensional lattice
    sum made of short numpy calls, then small immutable mantissa/scale
    values and tuple-keyed dict lookups) but shares no code with crosshex,
    so a change to crosshex cannot change it.  Other load on the machine
    slows it about as much as it slows the pipeline.
    """
    start = time.perf_counter()
    period = np.array([[-5.0 + 0.3j]])
    acc = 0j
    cache: dict[tuple, _KernelValue] = {}
    value = _KernelValue(1 + 0j, 0.0)
    for i in range(KERNEL_STEPS):
        z = np.array([0.3 + 0.1j * (i % 7) + 1.7 * (i % 3)])
        n0 = np.asarray(np.rint(np.linalg.solve(period.real, -z.real)), dtype=np.int64)
        for radius in range(5):
            n = (np.array([[-radius], [radius]]) + n0).astype(float)
            terms = np.exp(0.5 * np.einsum("ij,ni,nj->n", period, n, n) + n @ z)
            acc += complex(terms.sum()) + float(np.abs(terms).sum()) * 1e-9
        for j in range(6):
            key = (i % 13, j, (i * j) % 5)
            factor = cache.get(key)
            if factor is None:
                factor = cache[key] = _KernelValue(cmath.exp(complex(0.01 * j, 0.1 * i)), 0.5 * j)
            value = value.times(factor).normalized()
    return time.perf_counter() - start


class SpeedGauge:
    """Runs the calibration kernel between commands to track the machine's speed.

    A command's scale factor is REFERENCE_KERNEL_S over the mean of the
    kernel times just before and just after it, so a command that ran
    while the machine was slowed by other load is scaled back to the
    reference speed.
    """

    def __init__(self):
        self.last = calibration_kernel()
        self.samples = [self.last]

    def factor(self) -> float:
        now = calibration_kernel()
        self.samples.append(now)
        factor = REFERENCE_KERNEL_S / (0.5 * (self.last + now))
        self.last = now
        return factor


def measure_setup(instances, gauge: SpeedGauge, checks: Checks, outcomes: list[Outcome]) -> tuple[float, float]:
    """Median over repeats of gen-spectral plus loading, summed over the instances.

    Returns (scaled seconds, wall seconds).
    """
    scaled, wall = [], []
    for _ in range(SETUP_REPEATS):
        elapsed = 0.0
        for inst in instances:
            op = gen_op(inst)
            outcome = execute(op)
            outcomes.append(outcome)
            start = time.perf_counter()
            try:
                cli.load_spectral_document(op.outputs[0])
            except Exception:  # noqa: BLE001 - reported as a failed check
                checks.failures.append(f"{inst.key}: loading the spectral document failed:\n{traceback.format_exc()}")
            elapsed += outcome.seconds + time.perf_counter() - start
            for path in op.outputs:
                checks.same_bytes(path)
        wall.append(elapsed)
        scaled.append(elapsed * gauge.factor())
    return statistics.median(scaled), statistics.median(wall)


def run_round(instances, wl, gauge: SpeedGauge, checks) -> dict[str, list[Outcome]]:
    """Run every instance's chain once; a failed command skips the rest of its chain."""
    results = {}
    for inst in instances:
        chain = []
        for op in chain_ops(inst, wl):
            if chain and chain[-1].failed:
                chain.append(Outcome(op, None, 0.0, "", "skipped", failed=True))
                continue
            outcome = execute(op)
            outcome.scaled_seconds = outcome.seconds * gauge.factor()
            chain.append(outcome)
            if not outcome.failed:
                for path in op.outputs:
                    checks.same_bytes(path)
        results[inst.key] = chain
    return results


def median_seconds(rounds: list[dict], stage: str | None = None, scaled: bool = True) -> float:
    """Sum over commands of each command's median time across the rounds.

    Every round repeats the same commands on the same inputs, so the
    median of a command's repeats is one steady reading of its cost.
    """
    total = 0.0
    for key, chain in rounds[0].items():
        for i, outcome in enumerate(chain):
            if stage is None or outcome.op.stage == stage:
                times = [r[key][i].scaled_seconds if scaled else r[key][i].seconds for r in rounds]
                total += statistics.median(times)
    return total


def stage_rate(rounds: list[dict], stage: str, work_per_op) -> float | None:
    """Units of work per scaled second in one stage."""
    work = sum(work_per_op(o.op) for chain in rounds[0].values() for o in chain if o.op.stage == stage)
    seconds = median_seconds(rounds, stage)
    return work / seconds if work and seconds else None


def environment(root: str) -> dict:
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "crosshex")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


WORK_DIR = ".perfbench_work"


def load_metric_table(root: str) -> dict:
    """The metric names and units BENCHMARK.json declares."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        config = json.load(fh)
    return {
        0: {m["name"]: m["unit"] for m in config["end_to_end"]},
        1: {m["name"]: m["unit"] for m in config["per_layer"]},
    }


def measure(args, wl: Workload, workdir: str) -> dict:
    """Set up, run rounds for ``args.seconds``, check outputs; return every figure."""
    checks = Checks()
    instances = make_instances(args.workload, wl, args.seed, workdir)
    setup_outcomes: list[Outcome] = []
    gauge = SpeedGauge()
    setup_s, setup_wall_s = measure_setup(instances, gauge, checks, setup_outcomes)

    plain: list[dict] = []
    traced: list[dict] = []
    summaries: list[dict] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        rounds = len(plain) + len(traced)
        # stop once another round of the average length would overrun --seconds
        fits = rounds == 0 or elapsed * (rounds + 1) / rounds <= args.seconds
        if args.trace:
            # alternate untraced and traced rounds; the first untraced round
            # also lets module-level caches fill before anything is traced
            if plain and traced and not fits:
                break
            if len(plain) <= len(traced):
                plain.append(run_round(instances, wl, gauge, checks))
            else:
                tracer = Tracer()
                with tracer:
                    traced.append(run_round(instances, wl, gauge, checks))
                summaries.append(tracer.summary())
        else:
            if len(plain) >= MIN_ROUNDS and not fits:
                break
            plain.append(run_round(instances, wl, gauge, checks))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    extra: list[Outcome] = []
    for inst in instances:
        check_documents(inst, wl, checks)
    # once per run, on the first period's cross or hex instance by seed parity
    check_tabulated(instances[args.seed % len(MODELS)], wl, checks, extra)
    counts = [
        ({n: span["calls"] for n, span in s["spans"].items()}, s["edges"], s["distinct"]) for s in summaries
    ]
    checks.expect(all(c == counts[0] for c in counts), "call counts differ between traced rounds of the same work")

    timed = [o for r in plain + traced for chain in r.values() for o in chain]
    everything = setup_outcomes + timed + extra
    reports = [o.report for chain in plain[0].values() for o in chain if o.report is not None]
    share = failed_share([o for r in plain for chain in r.values() for o in chain])
    figures = {
        "setup_s": setup_s,
        "pipeline_s": median_seconds(plain),
        "peak_rss_mb": peak_rss_mb,
        "pass_share": 1.0 - share,
        "failed_share": share,
        "build_sites_per_s": stage_rate(plain, "build", lambda op: op.sites),
        "verify_checks_per_s": stage_rate(plain, "verify", lambda op: op.sites * op.probes),
        **dict.fromkeys(MARGINS),
        **report_margins(reports),
    }
    hex_verify = [
        o for key, chain in plain[0].items() if key.startswith("hex") for o in chain if o.op.stage == "verify"
    ]
    breaches = {
        "hex_breached_sites": sum(len(o.breached) for o in hex_verify),
        "hex_verified_sites": sum(o.op.sites for o in hex_verify),
    }
    layers = {}
    if traced:
        fastest = min(range(len(traced)), key=lambda i: median_seconds([traced[i]]))
        layers = layer_metrics(summaries[fastest])
        layers["trace.overhead_share"] = median_seconds(traced) / median_seconds(plain) - 1.0
        for name in ("build_sites_per_s", "verify_checks_per_s", "failed_share"):
            layers[f"cli.{name}"] = figures[name]
        for name in MARGINS:
            layers[f"operators.{name}"] = figures[name]
    return {
        "figures": figures,
        "layers": layers,
        "breaches": breaches,
        "wall_s": {"setup": setup_wall_s, "pipeline": median_seconds(plain, scaled=False)},
        "chain_wall_s": [{k: sum(o.seconds for o in c) for k, c in r.items()} for r in plain + traced],
        "calibration_s": {
            "median": statistics.median(gauge.samples),
            "min": min(gauge.samples),
            "max": max(gauge.samples),
            "samples": len(gauge.samples),
        },
        "instances": [
            {"model": i.model, "period": i.period, "spectral_seed": i.spectral_seed,
             "b_re": i.b_re, "probe_seed": i.probe_seed}
            for i in instances
        ],
        "check_failures": checks.failures,
        "attempted": len(everything),
        "failed": sum(o.failed for o in everything),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"perfbench: crosshex was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    table = load_metric_table(root)[args.trace]
    env = environment(root)
    env["loadavg_before"] = os.getloadavg()
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=os.path.join(root, WORK_DIR))
    try:
        result = measure(args, WORKLOADS[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.join(root, WORK_DIR))
    env["loadavg_after"] = os.getloadavg()

    values = result["layers"] if args.trace else result["figures"]
    missing = sorted(set(table) - set(values))
    if missing:
        print(f"perfbench: BENCHMARK.json names metrics no run computes: {missing}", file=sys.stderr)
        return 2
    # a stage or check the workload does not run reads 0
    metrics = {
        name: {"value": 0.0 if values[name] is None else values[name], "unit": unit}
        for name, unit in table.items()
    }
    for name, unit in FIGURE_UNITS.items():
        value = result["figures"].get(name)
        shown = "n/a (not run by this workload)" if value is None else f"{value:.6g} {unit}"
        print(f"perfbench {args.workload} seed {args.seed}: {name} = {shown}")
    print("perfbench detail " + json.dumps({"environment": env, **result}))
    for failure in result["check_failures"]:
        print(f"perfbench: OUTPUT CHECK FAILED: {failure}", file=sys.stderr)
    correct = not result["check_failures"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
