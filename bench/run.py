#!/usr/bin/env python3
"""Benchmark of the crmoser exact kernel: one workload, one process, one thread.

    python3 bench/run.py --workload stabilize --seed 1 --seconds 25 --trace 0

Generates the workload's input documents from the seed (bench/gen.py), sets
the program up SETUPS times (import, forms, document parsing), then runs
whole rounds over the inputs until --seconds of wall time have passed.
Every time is normalized to machine speed (bench/calib.py).  All outputs
are checked after timing.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}, where the metrics are
the end-to-end figures with --trace 0 and the per-layer figures
(bench/tracer.py) with --trace 1.  The exit code is 1 when any check
failed, after that line is printed.  Run from the repository root.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SRC = ROOT / "src"

import calib  # noqa: E402  (sibling modules of this script)
import gen  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS = 9
CADENCE_S = 0.1  # wall time of work between two calibration samples
ORACLE_ITEMS = 6  # stabilize items re-derived by the sympy oracle per run
ORACLE_TIMEOUT_S = 120
END_TO_END = ("items_per_s", "item_ms_p50", "item_ms_p90", "setup_s", "peak_rss_mb")
MODULES = ("gaussrat", "linalg", "poly", "forms", "normal_form", "jets",
           "autgroup", "models", "surface_io")


def set_up(workload, docs, cal: calib.Calibrator, trace):
    """Import crmoser afresh and parse every document.

    Returns (normalized seconds, raw seconds, modules namespace, cases).
    Calibration samples bracket the import and every CADENCE_S of parsing.
    """
    for name in [m for m in sys.modules if m == "crmoser" or m.startswith("crmoser.")]:
        del sys.modules[name]
    cal.take()
    t0 = time.perf_counter()
    importlib.import_module("crmoser")
    raw = time.perf_counter() - t0
    elapsed = raw * cal.close_stretch()
    cr = SimpleNamespace(**{m: sys.modules[f"crmoser.{m}"] for m in MODULES})
    if trace is not None:
        trace.install()
        cal.take()  # installing the wrappers is not set-up work
    cases = []
    t0 = time.perf_counter()
    for doc in docs:
        cases.append(workload.parse(cr, doc))
        if time.perf_counter() - t0 >= CADENCE_S:
            stretch, norm = _close(t0, cal, trace)
            raw += stretch
            elapsed += norm
            t0 = time.perf_counter()
    stretch, norm = _close(t0, cal, trace)
    return elapsed + norm, raw + stretch, cr, cases


def _close(t0, cal, trace):
    """(raw, normalized) seconds of the stretch since t0, closed by a calibration sample."""
    raw = time.perf_counter() - t0
    f = cal.close_stretch()
    if trace is not None:
        trace.flush(f)
    return raw, raw * f


class Rounds:
    """Whole rounds over the cases until the wall-clock budget is spent."""

    def __init__(self, workload, cr, cases, cal, trace):
        self.workload, self.cr, self.cases = workload, cr, cases
        self.cal, self.trace = cal, trace
        self.raw, self.norm = [], []  # per-item seconds
        self.chunk, self.chunk_start = [], 0.0
        self.outputs = []  # per round, per case: output or the exception raised
        self.trace_phases = []

    def timed(self, fn, *args):
        """Run one item; calibrate after it once CADENCE_S has passed since the last sample."""
        t0 = time.perf_counter()
        out = fn(*args)
        t1 = time.perf_counter()
        self.chunk.append(t1 - t0)
        if t1 - self.chunk_start >= CADENCE_S:
            self.flush()
        return out

    def flush(self):
        f = self.cal.close_stretch()
        if self.trace is not None:
            self.trace.flush(f)
        self.raw += self.chunk
        self.norm += [dt * f for dt in self.chunk]
        self.chunk = []
        self.chunk_start = time.perf_counter()

    def run(self, seconds: float):
        self.flush()
        start = self.chunk_start
        while True:
            outs = []
            for case in self.cases:
                try:
                    outs.append(self.workload.run(self.cr, case, self.timed))
                except Exception as exc:  # a failed item; counted by check()
                    outs.append(exc)
            self.flush()
            self.outputs.append(outs)
            if self.trace is not None:
                self.trace_phases.append(self.trace.end_phase())
            if time.perf_counter() - start >= seconds:
                return

    def check(self):
        """(attempted, failed) items over every round."""
        attempted = failed = 0
        for outs in self.outputs:
            for case, out in zip(self.cases, outs):
                n = self.workload.items(case)
                attempted += n
                if isinstance(out, Exception):
                    failed += n
                else:
                    failed += self.workload.check(case, out)
        return attempted, failed


def oracle_check(docs, outputs, inputs_path: Path, seed: int) -> bool:
    """Compare stabilizer dimensions with the sympy oracle, in its own process."""
    picks = [i for i, d in enumerate(docs) if "terms" in d["surface"]]
    picks = sorted(random.Random(f"oracle:{seed}").sample(picks, ORACLE_ITEMS))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "oracle.py"), str(inputs_path), *map(str, picks)],
            capture_output=True, text=True, timeout=ORACLE_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the oracle
        print(f"oracle: no answer within {ORACLE_TIMEOUT_S} s", file=sys.stderr)
        return False
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        return False
    dims = json.loads(proc.stdout)
    mine = [outputs[i][0] if not isinstance(outputs[i], Exception) else None for i in picks]
    print(f"oracle: items {picks} sympy dims {dims} program dims {mine}")
    return dims == mine


def percentile(values, q):
    """The q-quantile (0 < q < 1) by statistics.quantiles' exclusive method."""
    return statistics.quantiles(values, n=100)[round(q * 100) - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "crmoser" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'crmoser'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    docs = gen.generate(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    inputs_path = OUT / f"inputs_{args.workload}_{args.seed}.json"
    inputs_path.write_bytes(gen.dump(docs))
    docs = json.loads(inputs_path.read_text())  # the program starts from the written documents

    cal = calib.Calibrator()
    trace = tracer.Tracer() if args.trace else None
    setup_s, setup_raw_s, setup_phases = [], [], []
    for _ in range(SETUPS):
        secs, raw_secs, cr, cases = set_up(workload, docs, cal, trace)
        setup_s.append(secs)
        setup_raw_s.append(raw_secs)
        if trace is not None:
            setup_phases.append(trace.end_phase())

    rounds = Rounds(workload, cr, cases, cal, trace)
    rounds.run(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted, failed = rounds.check()
    consistent = all(outs == rounds.outputs[0] for outs in rounds.outputs)
    correct = failed == 0 and consistent
    if args.workload == "stabilize":
        correct = oracle_check(docs, rounds.outputs[0], inputs_path, args.seed) and correct

    norm_ms = [t * 1000 for t in rounds.norm]
    raw_ms = [t * 1000 for t in rounds.raw]
    e2e = dict(zip(END_TO_END, (
        (len(norm_ms) / (sum(norm_ms) / 1000), "1/s"),
        (statistics.median(norm_ms), "ms"),
        (percentile(norm_ms, 0.9), "ms"),
        (statistics.median(setup_s), "s"),
        (peak_rss_mb, "MB"),
    )))
    print(f"{args.workload} seed {args.seed}: {len(rounds.outputs)} rounds, "
          f"{attempted} items attempted, {failed} failed, outputs "
          f"{'identical' if consistent else 'DIFFER'} across rounds")
    print(f"raw wall: items_per_s {len(raw_ms) / (sum(raw_ms) / 1000):.3f}  "
          f"item_ms_p50 {statistics.median(raw_ms):.3f}  "
          f"item_ms_p90 {percentile(raw_ms, 0.9):.3f}  "
          f"setup_s {statistics.median(setup_raw_s):.5f}")
    print("normalized: " + "  ".join(f"{k} {v:.4f} {u}" for k, (v, u) in e2e.items()))
    kern = cal.samples
    print(f"calibration: {len(kern)} samples, median {statistics.median(kern) * 1000:.4f} ms, "
          f"min {min(kern) * 1000:.4f} ms, max {max(kern) * 1000:.4f} ms, "
          f"reference {calib.REFERENCE_S * 1000:.4f} ms")

    if trace is not None:
        layers = tracer.metrics(setup_phases, rounds.trace_phases)
        trace_path = OUT / f"trace_{args.workload}_{args.seed}.json"
        trace_path.write_text(json.dumps(layers, indent=1, sort_keys=True))
        metrics = {k: {"value": v, "unit": "ms" if k.endswith("_ms") else
                       "ratio" if k.endswith("_share") else "count"}
                   for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
