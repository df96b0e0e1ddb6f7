"""Engine throughput baseline: measure, compare to serial, persist.

``write_engine_baseline`` runs one engine-backed experiment three times
— the scalar serial oracle, the batched serial path, and the batched
worker pool — verifies all rows are identical (the engine's determinism
contract, across both worker counts and execution paths), and writes a
JSON baseline with trials/sec, batched-vs-scalar speedup, and a
per-stage timing breakdown so future PRs have a performance trajectory
to regress against::

    repro-experiments bench-engine --trials 200 --workers 4

The baseline intentionally records the host's CPU count: a speedup close
to 1.0 on a single-core container is expected, not a regression — and
the parallel leg defaults to ``min(4, host CPUs)`` workers so a 1-CPU
host measures an honest 1-worker-vs-serial comparison instead of
oversubscribing four processes onto one core and calling it a speedup.
"""

from __future__ import annotations

import json
import os
import warnings
from datetime import datetime, timezone
from typing import Any, Dict, Optional

from repro.experiments.registry import get_experiment
from repro.telemetry import get_telemetry, git_revision, host_info, stopwatch

#: Default output file, committed at the repository root.
DEFAULT_BASELINE_PATH = "BENCH_engine.json"


def default_bench_workers() -> int:
    """Parallel-leg worker count honest for this host: min(4, CPUs)."""
    return min(4, os.cpu_count() or 1)


#: Receive-chain stage spans surfaced as ``stage_seconds`` in the
#: baseline (aggregated over the whole batched serial leg's span tree).
STAGE_SPANS = (
    "channel.awgn",
    "zigbee.channelize",
    "zigbee.sync",
    "zigbee.demodulate",
    "zigbee.despread",
    "defense.constellation",
    "defense.cumulants",
    "defense.voronoi_test",
)


def _timed_run(entry, **kwargs) -> Dict[str, Any]:
    with stopwatch() as timer:
        result = entry.run(**kwargs)
    return {"result": result, "seconds": timer.seconds}


def _aggregate_stage_seconds(node) -> Dict[str, float]:
    """Total seconds per stage span name across a span subtree."""
    totals: Dict[str, float] = {}

    def _walk(span) -> None:
        if span.name in STAGE_SPANS:
            totals[span.name] = (
                totals.get(span.name, 0.0) + span.total_seconds
            )
        for child in span.children.values():
            _walk(child)

    _walk(node)
    return {name: round(seconds, 3) for name, seconds in totals.items()}


def measure_engine_throughput(
    experiment_id: str = "table2",
    trials: int = 200,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    seed: int = 0,
    batch: bool = True,
    adaptive: bool = True,
) -> Dict[str, Any]:
    """Scalar-vs-batched and serial-vs-parallel wall clock for one run.

    Three legs: the scalar serial oracle (``batch=False``), the batched
    serial path, and the batched parallel path.  ``serial_*`` fields
    describe the engine's default serial execution (batched when the
    experiment supports it), keeping the baseline schema readable by
    pre-batching tooling; ``scalar_*`` and ``batched_speedup`` record
    the vectorization win and ``stage_seconds`` the per-stage breakdown
    of the batched serial leg.

    When the experiment supports adaptive precision-targeted sampling a
    fourth leg runs it serially at the default 10% relative precision:
    ``adaptive_*`` fields record its wall clock, the trials it actually
    executed versus the fixed budget, and the resulting speedup over
    the batched serial leg.

    ``workers=None`` resolves to :func:`default_bench_workers` so the
    recorded speedup reflects real parallelism on this host.
    """
    entry = get_experiment(experiment_id)
    if workers is None:
        workers = default_bench_workers()
    host_cpus = os.cpu_count() or 1
    oversubscribed = workers > host_cpus
    if oversubscribed:
        warnings.warn(
            f"bench-engine workers={workers} exceeds the host's "
            f"{host_cpus} CPU(s); the recorded speedup is meaningless "
            f"(processes time-share one core) — drop --workers to use "
            f"min(4, host CPUs)",
            RuntimeWarning,
        )
    batched = batch and "batch" in entry.capabilities
    supports_adaptive = adaptive and "adaptive" in entry.capabilities
    common = {"rng": seed, "trials": trials}
    # Record engine counters across every leg so the baseline carries
    # the same failure-class telemetry the run registry gates on.
    telemetry = get_telemetry()
    was_enabled = telemetry.enabled
    telemetry.reset()
    telemetry.enable()
    try:
        scalar = None
        if batched:
            with telemetry.span("bench.scalar_serial"):
                scalar = _timed_run(entry, batch=False, **common)
            with telemetry.span("bench.batched_serial"):
                serial = _timed_run(entry, **common)
            with telemetry.span("bench.batched_parallel"):
                parallel = _timed_run(
                    entry, workers=workers, chunk_size=chunk_size, **common
                )
        else:
            with telemetry.span("bench.serial"):
                serial = _timed_run(entry, **common)
            with telemetry.span("bench.parallel"):
                parallel = _timed_run(
                    entry, workers=workers, chunk_size=chunk_size, **common
                )
        adaptive_leg = None
        adaptive_trials_executed = adaptive_trials_saved = 0
        if supports_adaptive:
            before = dict(telemetry.registry.snapshot()["counters"])
            with telemetry.span("bench.adaptive"):
                adaptive_leg = _timed_run(entry, adaptive=True, **common)
            after = telemetry.registry.snapshot()["counters"]
            adaptive_trials_executed = int(
                after.get("engine.trials", 0) - before.get("engine.trials", 0)
            )
            adaptive_trials_saved = int(
                after.get("engine.trials_saved", 0)
                - before.get("engine.trials_saved", 0)
            )
        serial_leg = "bench.batched_serial" if batched else "bench.serial"
        leg_node = telemetry.root.children.get(serial_leg)
        stage_seconds = (
            _aggregate_stage_seconds(leg_node) if leg_node is not None else {}
        )
        counters = telemetry.registry.snapshot()["counters"]
    finally:
        telemetry.disable()
        telemetry.reset()
        if was_enabled:
            telemetry.enable()
    # Row-level equality is the engine's core guarantee — across worker
    # counts AND across the scalar/batched execution paths; surface any
    # violation in the baseline rather than silently recording timings.
    rows_identical = serial["result"].rows == parallel["result"].rows
    if scalar is not None:
        rows_identical = (
            rows_identical and scalar["result"].rows == serial["result"].rows
        )
    speedup = serial["seconds"] / parallel["seconds"]
    baseline = {
        "schema": 3,
        "experiment_id": experiment_id,
        "trials": trials,
        "workers": workers,
        "chunk_size": chunk_size,
        "seed": seed,
        "batch": batched,
        "serial_seconds": round(serial["seconds"], 3),
        "parallel_seconds": round(parallel["seconds"], 3),
        "speedup": round(speedup, 3),
        "serial_trials_per_second": round(trials / serial["seconds"], 2),
        "parallel_trials_per_second": round(trials / parallel["seconds"], 2),
        "rows_identical": rows_identical,
        "host_cpus": os.cpu_count(),
        "oversubscribed": oversubscribed,
        "stage_seconds": stage_seconds,
        "git_rev": git_revision(),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "host": host_info(),
        "telemetry_counters": counters,
    }
    if scalar is not None:
        baseline["scalar_seconds"] = round(scalar["seconds"], 3)
        baseline["scalar_trials_per_second"] = round(
            trials / scalar["seconds"], 2
        )
        baseline["batched_speedup"] = round(
            scalar["seconds"] / serial["seconds"], 3
        )
    if adaptive_leg is not None:
        baseline["adaptive_seconds"] = round(adaptive_leg["seconds"], 3)
        baseline["adaptive_trials_executed"] = adaptive_trials_executed
        baseline["adaptive_trials_saved"] = adaptive_trials_saved
        baseline["adaptive_speedup"] = round(
            serial["seconds"] / adaptive_leg["seconds"], 3
        )
    return baseline


def write_engine_baseline(
    path: str = DEFAULT_BASELINE_PATH,
    experiment_id: str = "table2",
    trials: int = 200,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    seed: int = 0,
    batch: bool = True,
    adaptive: bool = True,
) -> Dict[str, Any]:
    """Measure engine throughput and persist the JSON baseline."""
    baseline = measure_engine_throughput(
        experiment_id=experiment_id,
        trials=trials,
        workers=workers,
        chunk_size=chunk_size,
        seed=seed,
        batch=batch,
        adaptive=adaptive,
    )
    with open(path, "w") as handle:
        json.dump(baseline, handle, indent=2)
        handle.write("\n")
    return baseline
