"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    first = gen.dump(gen.generate(workload, 7))
    assert first == gen.dump(gen.generate(workload, 7))
    assert first != gen.dump(gen.generate(workload, 8))


def test_balanced_draws_use_every_value_equally():
    rng = gen.random.Random(1)
    draws = gen.balanced(rng, (1, 2, 3), 9)
    assert sorted(draws) == [1, 1, 1, 2, 2, 2, 3, 3, 3]


def test_factor_rescales_to_the_reference_kernel_time():
    ref = calib.REFERENCE_S
    assert calib.factor(ref, ref) == pytest.approx(1.0)
    assert calib.factor(2 * ref, 2 * ref) == pytest.approx(0.5)
    # the stretch is judged by the mean of the samples on either side
    assert calib.factor(ref, 3 * ref) == pytest.approx(0.5)


class FixedCalibrator:
    """Stands in for calib.Calibrator: every stretch gets the same factor."""

    def __init__(self, factor):
        self.f = factor
        self.samples = []

    def take(self):
        return 0.0

    def close_stretch(self):
        return self.f


def test_rounds_normalize_every_item_and_run_whole_rounds():
    def fn(case, timed):
        return timed(lambda: sum(range(2000 * case)))

    workload = SimpleNamespace(run=lambda cr, case, timed: fn(case, timed),
                               items=lambda case: 1,
                               check=lambda case, out: 0 if out == sum(range(2000 * case)) else 1)
    rounds = run.Rounds(workload, None, [1, 2, 3], FixedCalibrator(3.0), None)
    rounds.run(0)
    assert len(rounds.outputs) == 1 and len(rounds.raw) == 3
    assert rounds.norm == pytest.approx([3.0 * t for t in rounds.raw])
    assert rounds.check() == (3, 0)


def test_tracer_self_time_and_phase_arithmetic():
    tr = tracer.Tracer()
    tr.pending["poly.mul"] = 0.002
    tr.flush(0.5)
    tr.counts["poly.mul"]["calls"] += 4
    setup = tr.end_phase()
    tr.pending["poly.mul"] = 0.010
    tr.flush(2.0)
    tr.counts["poly.mul"]["calls"] += 10
    round1 = tr.end_phase()
    tr.pending["poly.mul"] = 0.030
    tr.flush(1.0)
    tr.counts["poly.mul"]["calls"] += 99
    round2 = tr.end_phase()
    out = tracer.metrics([setup], [round1, round2])
    # counts: one set-up plus the first round; times: means over each phase kind
    assert out["poly.mul.calls"] == 14
    assert out["poly.mul.self_ms"] == pytest.approx(1.0 + (20.0 + 30.0) / 2)
    assert out["jets.mul.calls"] == 0


def test_benchmark_json_names_the_reported_metrics():
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracer.REPORTED)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_in_benchmark_json_is_emitted(trace, section):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "jet_verify", "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
