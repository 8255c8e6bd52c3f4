"""The lenspp benchmark: one command per workload, run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Every timed run is a fresh interpreter (worker.py), because a command-line user
starts each invocation with lenspp's module caches empty; in one shared process
every run after the first would measure cache hits.

--trace 0  spawns a few set-up-only workers and then as many cold runs as fit in
           --seconds (at least two), and reports the end-to-end metrics of
           BENCHMARK.json as medians over them.  Times are scaled to the
           nominal host speed of speed.py: run_s from CPU seconds, setup_s
           from wall seconds.
--trace 1  makes one untraced and one traced cold run and reports the per-layer
           metrics of BENCHMARK.json from the traced one, plus the tracing overhead.

Outputs are checked in every run; a wrong answer, a raised error, a worker that
outlives the wall-clock guard or module caches found non-empty at the start of
the timed section count as failed items and make the command exit 1.  The last
stdout line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
EXPECTED = HERE / "expected.json"
SPEC = ROOT / "BENCHMARK.json"

SETUP_PROBES = 5  # set-up-only workers per --trace 0 run; setup_s is the median
# Cold runs per --trace 0 run, at least: the host's speed drifts, and the median of
# two runs is steadier than one (at most ~2 x 17 s for the longest workloads).
MIN_RUNS = 2
GUARD_S = 170.0  # wall-clock guard for one invocation, all workers included


def spawn(workload: str, seed: int, mode: str, tiny: bool, deadline: float) -> dict:
    """Run one worker; returns its result, or {"error": ...} when it fails."""
    cmd = [sys.executable, str(WORKER), workload, str(seed), mode] + (["--tiny"] if tiny else [])
    env = dict(os.environ, PYTHONHASHSEED="0")
    scale = speed.scale_now()
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"{mode} worker exceeded the {GUARD_S:.0f} s wall-clock guard"}
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"{mode} worker exited {proc.returncode}: {err.strip()[-2000:]}"}
    result = json.loads(lines[-1])
    result["setup_s"] = (result["t_setup_end"] - t_spawn) * scale
    result["spawn_to_exit_s"] = time.monotonic() - t_spawn
    return result


def call_stats(calls: list[list]) -> dict[str, float]:
    """Median latency by verdict and the highest percentile with at least ten
    calls beyond it, over (ms, positive) pairs."""
    stats: dict[str, float] = {"calls": len(calls)}
    for label, want in (("pos", True), ("neg", False)):
        ms = [c[0] for c in calls if c[1] is want]
        stats[f"{label}_calls"] = len(ms)
        if ms:
            stats[f"{label}_p50_ms"] = statistics.median(ms)
    ordered = sorted(c[0] for c in calls)
    if len(ordered) > 10:
        stats["call_tail_ms"] = ordered[len(ordered) - 11]
        stats["call_tail_pct"] = 100.0 * (len(ordered) - 10) / len(ordered)
    return stats


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's tests")
    args = parser.parse_args()

    missing = [p for p in (SPEC, EXPECTED, ROOT / "src" / "lenspp" / "__init__.py") if not p.is_file()]
    if missing:
        print(f"run.py: cannot run, missing {[str(p) for p in missing]}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text())[args.workload]["tiny" if args.tiny else "full"]
    deadline = time.monotonic() + GUARD_S

    def run(mode: str) -> dict:
        return spawn(args.workload, args.seed, mode, args.tiny, deadline)

    if args.trace:
        reps = [run("run"), run("trace")]
    else:
        probes = [run("setup") for _ in range(SETUP_PROBES)]
        reps = []
        t_measure = time.monotonic()
        while True:
            reps.append(run("run"))
            if "error" in reps[-1] or reps[-1]["failed"]:
                break
            typical = statistics.median(r["spawn_to_exit_s"] for r in reps)
            if len(reps) >= MIN_RUNS and time.monotonic() - t_measure + typical > args.seconds:
                break
        reps += [p for p in probes if "error" in p]

    attempted = failed = 0
    errors = []
    for rep in reps:
        if "error" in rep:
            attempted += 1
            failed += 1
            errors.append(rep["error"])
        else:
            attempted += rep["items"]
            failed += rep["failed"]
            errors += rep["errors"]
    good = [r for r in reps if "error" not in r]

    values: dict[str, float] = {}
    calls = [c for r in good if "layers" not in r for c in r["calls"]]
    stats = call_stats(calls)
    if args.trace:
        if len(good) == 2:
            base, traced = good
            values.update(traced["layers"])
            values["trace.overhead_ratio"] = traced["run_s"] / base["run_s"]
            for name, want in expected.get("counts", {}).items():
                if values.get(name) != want:
                    failed += 1
                    errors.append(f"{name} = {values.get(name)}, sized at {want}")
        for key in ("pos_p50_ms", "neg_p50_ms", "call_tail_ms", "call_tail_pct"):
            # 0 where the workload makes no such calls
            values[f"classify.decide.{key}"] = stats.get(key, 0.0)
        wanted = spec["per_layer"]
    else:
        if good:
            runs = [r for r in good if "layers" not in r]
            values["run_s"] = statistics.median(r["run_s"] for r in runs)
            values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in runs)
            values["setup_s"] = statistics.median(
                r["setup_s"] for r in good + [p for p in probes if "error" not in p]
            )
            print(f"cold runs: {len(runs)}; as measured, CPU s: {[round(r['cpu_s'], 3) for r in runs]}, "
                  f"wall s: {[round(r['wall_s'], 3) for r in runs]}; "
                  f"speed scale: {[round(r['scale'], 3) for r in runs]}")
        if calls:
            for key, value in stats.items():
                print(f"{key}: {value:.4f}" if isinstance(value, float) else f"{key}: {value}")
        wanted = spec["end_to_end"]

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            errors.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']}: {values[m['name']]} {m['unit']}")
    for rep in good:
        print(f"caches at start {rep['caches_start']} end {rep['caches_end']}")
    for error in errors:
        print(f"FAILED: {error}", file=sys.stderr)
    correct = failed == 0 and not errors
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
