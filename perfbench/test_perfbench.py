"""Tests of the benchmark itself, on its tiny inputs.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=root, capture_output=True, text=True, timeout=170
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", NAMES)
def test_traced_counts_repeat_and_match_recorded(name):
    argv = ("--workload", name, "--seed", "1", "--seconds", "1", "--trace", "1", "--tiny")
    first, second = result(bench(*argv)), result(bench(*argv))
    assert first["correct"] and second["correct"], (first, second)
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] == "count"}
    again = {k: v["value"] for k, v in second["metrics"].items() if v["unit"] == "count"}
    assert counts == again
    recorded = workloads.EXPECTED[name]["tiny"]["counts"]
    assert {k: counts[k] for k in recorded} == recorded


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_reports_every_end_to_end_metric(name):
    proc = bench("--workload", name, "--seed", "2", "--seconds", "1", "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stderr
    out = result(proc)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in out["metrics"].values())


def _copy_checkout(dest: Path, with_program: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    if with_program:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_gate_rejects_corrupted_census_bytes(tmp_path):
    root = _copy_checkout(tmp_path, with_program=True)
    census = root / "src" / "lenspp" / "census.py"
    source = census.read_text()
    corrupted = source.replace('"count": self.count,', '"count": self.count + 1,')
    assert corrupted != source
    census.write_text(corrupted)
    proc = bench("--workload", "census_p5", "--seed", "1", "--seconds", "1", "--trace", "0", "--tiny", root=root)
    assert proc.returncode == 1
    out = result(proc)
    assert not out["correct"] and out["failed"] >= 1


def test_gate_rejects_a_wrong_verdict(tmp_path):
    root = _copy_checkout(tmp_path, with_program=True)
    classify = root / "src" / "lenspp" / "classify.py"
    source = classify.read_text()
    corrupted = source.replace("return Verdict(False, None, checked, level)",
                               "return Verdict(True, None, checked, level)")
    assert corrupted != source
    classify.write_text(corrupted)
    proc = bench("--workload", "compare_p13", "--seed", "1", "--seconds", "1", "--trace", "0", "--tiny", root=root)
    assert proc.returncode == 1
    assert not result(proc)["correct"]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    root = _copy_checkout(tmp_path, with_program=False)
    proc = bench("--workload", "census_p5", "--seed", "1", "--seconds", "1", "--trace", "0", root=root)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_wall_clock_guard_kills_a_hung_worker(tmp_path, monkeypatch):
    hang = tmp_path / "hang.py"
    hang.write_text("import time\ntime.sleep(60)\n")
    monkeypatch.setattr(run, "WORKER", hang)
    t0 = time.monotonic()
    got = run.spawn("census_p5", 1, "run", True, deadline=time.monotonic())
    assert "wall-clock guard" in got["error"]
    assert time.monotonic() - t0 < 10


def test_call_tail_is_the_highest_percentile_with_ten_calls_beyond():
    calls = [[float(ms), ms % 2 == 0] for ms in range(1, 41)]
    stats = run.call_stats(calls)
    assert stats["call_tail_ms"] == 30.0 and stats["call_tail_pct"] == 75.0
    assert stats["pos_p50_ms"] == 21.0 and stats["neg_p50_ms"] == 20.0
    assert "call_tail_ms" not in run.call_stats(calls[:10])


def test_pencil_profile_is_invariant_under_the_positive_construction():
    rng = random.Random(7)
    for p in (7, 13):
        for _ in range(50):
            R, Q = workloads._random_free(rng, p, 2)
            R2, Q2 = workloads._relabel(rng, R, Q, p, 2)
            assert workloads.pencil_profile(R, Q, p, 2) == workloads.pencil_profile(R2, Q2, p, 2)


def test_sampler_interleaves_the_kernel_and_restores_the_handler():
    before = signal.getsignal(signal.SIGPROF)
    sampler = speed.Sampler()
    sampler.start()
    try:
        end = time.process_time() + 1.2
        while time.process_time() < end:
            pass
    finally:
        sampler.stop()
    assert signal.getsignal(signal.SIGPROF) is before
    assert len(sampler.samples) >= 3
    assert sampler.kernel_s == pytest.approx(sum(sampler.samples))
    assert sampler.scale() == pytest.approx(
        speed.NOMINAL_S * statistics.fmean(1 / t for t in sampler.samples)
    )
