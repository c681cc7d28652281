#!/usr/bin/env python3
"""Steadiness check: run one workload many times in fresh processes.

    python3 bench/steady.py --workload jet_verify --runs 10

Runs two sets of `bench/run.py` runs, one process after another, alternating
between the sets; each run has its own seed (set 0 uses seeds 1..runs, set 1
runs+1..2*runs).  It stops at the first run that fails or whose checks do
not pass.  For every end-to-end metric the command prints the median, the
quartiles (statistics.quantiles, n=4) and their distance as a share of the
median, next to the metric's bound from BENCHMARK.json, and how far the
second set's median moved from the first.  Each run's raw wall figures and
calibration-kernel median are printed beside the normalized ones, so that
machine drift stays visible.  The report is also written to
bench/out/BENCH_steady_<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600,
                          check=False)
    if proc.returncode != 0:  # also when a check did not pass: no figures are kept
        raise SystemExit(f"run failed ({proc.returncode}): {' '.join(cmd)}\n"
                         f"{proc.stdout}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    raw = next(line for line in lines if line.startswith("raw wall:"))
    cal = next(line for line in lines if line.startswith("calibration:"))
    result["raw"] = {k: float(v) for k, v in re.findall(r"(\w+) ([\d.]+)", raw.split(":", 1)[1])}
    result["kernel_ms"] = float(re.search(r"median ([\d.]+) ms", cal).group(1))
    result["seed"] = seed
    return result


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    sets = [[], []]
    for i in range(args.runs):
        for k, results in enumerate(sets):
            r = run_once(args.workload, 1 + k * args.runs + i, args.seconds)
            results.append(r)
            metrics = "  ".join(f"{name} {m['value']:.4f}" for name, m in r["metrics"].items())
            raw = "  ".join(f"{name} {v:.4f}" for name, v in r["raw"].items())
            print(f"set {k} seed {r['seed']}: attempted {r['attempted']} failed {r['failed']} "
                  f"| kernel {r['kernel_ms']:.3f} ms | raw {raw} | normalized {metrics}",
                  flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"workload": args.workload, "seconds": args.seconds, "sets": []}
    for k, results in enumerate(sets):
        entry = {"seeds": [r["seed"] for r in results],
                 "failed_share": [r["failed"] / r["attempted"] for r in results],
                 "kernel_ms": summary([r["kernel_ms"] for r in results]),
                 "raw": {name: summary([r["raw"][name] for r in results])
                         for name in results[0]["raw"]},
                 "metrics": {name: summary([r["metrics"][name]["value"] for r in results])
                             for name in results[0]["metrics"]}}
        report["sets"].append(entry)
        print(f"\nset {k}: failed shares {sorted(set(entry['failed_share']))}")
        print(f"  kernel ms: median {entry['kernel_ms']['median']:.4f} "
              f"spread {entry['kernel_ms']['spread']:.4f}")
        for name, s in entry["raw"].items():
            print(f"  raw {name:12s} median {s['median']:10.4f}  q1 {s['q1']:10.4f}  "
                  f"q3 {s['q3']:10.4f}  spread {s['spread']:.4f}")
        for name, s in entry["metrics"].items():
            bound = bounds[name]
            print(f"  {name:14s} median {s['median']:10.4f}  q1 {s['q1']:10.4f}  "
                  f"q3 {s['q3']:10.4f}  spread {s['spread']:.4f}  bound {bound}  "
                  f"spread/bound {s['spread'] / bound:.2f}")
    print("\nsecond set against first (share the median got worse; bound):")
    lower_better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    for name, bound in bounds.items():
        a = report["sets"][0]["metrics"][name]["median"]
        b = report["sets"][1]["metrics"][name]["median"]
        worse = (b - a) / a if lower_better[name] else (a - b) / a
        print(f"  {name:14s} {worse:+.4f}  bound {bound}  "
              f"{'ok' if worse <= bound else 'OUT OF BOUND'}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"BENCH_steady_{args.workload}.json").write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
