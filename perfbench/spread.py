"""Run workloads over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...] [--trace 0|1] [--out FILE]

Spread is the distance between the first and third quartile of the
per-seed values (``statistics.quantiles(values, n=4)``) as a share of
their median; the benchmark is steady when every end-to-end spread is
below a third of its bound in BENCHMARK.json.  With ``--out`` the
per-seed results and the summary are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(med) if med else 0.0}


def main() -> int:
    with open("BENCHMARK.json") as fh:
        config = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in config["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    report = {}
    for workload in args.workload or [w["name"] for w in config["workloads"]]:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(config["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            result = json.loads(proc.stdout.splitlines()[-1]) if proc.stdout.strip() else None
            if proc.returncode != 0 or result is None or not result["correct"]:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            detail = next((json.loads(ln.split(" ", 2)[2]) for ln in proc.stdout.splitlines()
                           if ln.startswith("perfbench detail ")), None)
            runs.append({"seed": seed, **result, "detail": detail})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            summary[name] = summarize([r["metrics"][name]["value"] for r in runs])
            note = ""
            if name in bounds:
                note = f"  bound/3 {bounds[name] / 3:.4f}  {'ok' if summary[name]['spread'] < bounds[name] / 3 else 'WIDE'}"
            print(f"  {workload:13s} {name:32s} median {summary[name]['median']:.6g}  "
                  f"spread {summary[name]['spread']:.4f}{note}")
        report[workload] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
