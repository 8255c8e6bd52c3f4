"""One cold run of one workload in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED {setup,run,trace} [--tiny]

``setup`` stops after building the inputs; ``run`` times the workload with no
hooks except the per-call clock of call-based workloads and the reference
kernel of speed.py, which runs from a signal handler every 0.25 s of CPU time
and whose time is taken out of every reported time; ``trace`` installs the
span tracer instead.  Reported times are scaled to the nominal host speed.
The last stdout line is one JSON object for run.py.  Every
run starts with lenspp's module caches empty, as a command-line user's does,
and fails if they are not.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402


def cpu_seconds() -> float:
    """User plus system CPU time of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("mode", choices=["setup", "run", "trace"])
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](ROOT, args.tiny)
    inputs = workload.prepare(args.seed)
    if args.mode == "setup":
        print(json.dumps({"t_setup_end": time.monotonic()}), flush=True)
        return

    tracer = sampler = None
    if args.mode == "trace":
        tracer = tracing.Tracer()
        tracing.install(tracer)
    else:
        sampler = speed.Sampler()
        workload.clock = sampler.clock
        if hasattr(workload, "time_calls"):
            workload.time_calls()
        sampler.start()
    caches_start = tracing.cache_sizes()
    t_setup_end = time.monotonic()
    t0, c0 = time.perf_counter(), cpu_seconds()
    try:
        output, error = workload.run(inputs), None
    except Exception:
        output, error = None, traceback.format_exc()
    if sampler is not None:
        sampler.stop()
    kernel_s = sampler.kernel_s if sampler is not None else 0.0
    wall_s = time.perf_counter() - t0 - kernel_s
    cpu_s = cpu_seconds() - c0 - kernel_s
    scale = sampler.scale() if sampler is not None else speed.scale_now()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    caches_end = tracing.cache_sizes()

    result = {"t_setup_end": t_setup_end, "run_s": cpu_s * scale, "cpu_s": cpu_s,
              "wall_s": wall_s, "scale": scale, "peak_rss_mb": peak_rss_mb,
              "caches_start": caches_start, "caches_end": caches_end}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracing.layer_metrics(tracer, caches_end)
        suffix = "-tiny" if args.tiny else ""
        tracer.write(ROOT / ".perfbench" / "trace" / f"{args.workload}{suffix}-seed{args.seed}.spans")

    if error is None:
        outcome = workload.check(inputs, output)
    else:
        outcome = Outcome(items=1)
        outcome.fail(error)
    if any(caches_start.values()):
        outcome.fail(f"module caches not empty at the start of the timed section: {caches_start}")
    calls = [(ms * scale, positive) for ms, positive in outcome.calls]
    result.update(items=outcome.items, failed=outcome.failed, errors=outcome.errors,
                  calls=calls, digest=outcome.digest)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
    # The result is out; skip freeing the heap object by object, which takes over
    # a second after compare_p13's ~200 MB and is part of no metric.
    os._exit(0)
