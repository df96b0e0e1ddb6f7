"""Benchmark of the Monte Carlo sweeps: time to table, set-up, memory, layers.

Run from the repository root; one process per workload::

    python3 sweepbench/run.py --workload awgn-attack-adaptive --seed 1 \\
        --seconds 45 --trace 0

``--trace 0`` prints the end-to-end metrics (``sweep_s``,
``trials_per_s``, ``setup_s``, ``peak_rss_mb``); ``--trace 1`` runs the
untraced, telemetry-on and traced legs and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero when any sweep raised, a row digest changed, the traced pass
failed its self-check, or the correctness gate failed.

Every run first replays the workload's committed oracle config and
requires bit-identical rows, then runs one untimed reference sweep at
the workload config (telemetry on, to count engine trials and take the
row digest every timed repeat must match), then repeats the sweep in a
closed loop — one client, next sweep after the previous one returns —
until ``--seconds`` are used, timing a pinned calibration kernel
between sweeps as a witness of host speed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from sweepbench.tracer import (  # noqa: E402
    TraceCheckError,
    Tracer,
    counter_total,
    entry_summaries,
    layer_metrics,
    percentile_summary,
    span_seconds,
)
from sweepbench.workloads import (  # noqa: E402
    WORKLOADS,
    Workload,
    load_oracle,
    matches_oracle,
    measure_setup,
    oracle_kwargs,
    row_digest,
)

#: Native thread pools pinned to one thread, before numpy loads.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)

END_TO_END_UNITS = {
    "sweep_s": "s",
    "trials_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "engine.trials": "count",
    "adaptive.trials_saved": "count",
    "engine.dispatches": "count",
    "engine.rows_per_dispatch": "rows",
    "engine.self_s": "s",
    "attack.emulate_s": "s",
    "channel.busy_s": "s",
    "zigbee.receive_s": "s",
    "zigbee.calls": "count",
    "zigbee.channelize_s": "s",
    "zigbee.sync_s": "s",
    "zigbee.demodulate_s": "s",
    "zigbee.despread_s": "s",
    "zigbee.parse_s": "s",
    "zigbee.demodulate_ms_per_call": "ms",
    "zigbee.delivered_ratio": "ratio",
    "zigbee.sync_lost": "count",
    "defense.statistic_s": "s",
    "defense.screened": "count",
    "defense.screened_ratio": "ratio",
    "telemetry.overhead_ratio": "ratio",
    "trace.attributed_fraction": "ratio",
    "trace.overhead_ratio": "ratio",
    "host.calib_s": "s",
}

#: Timed repeats made even when one sweep fills most of the window.
MIN_REPEATS = 2

#: Subprocesses measuring set-up, besides the workload process itself.
SETUP_PROBES = 2

#: Calibration kernel sizes; pinned so host.calib_s compares across runs.
CALIB_FFT_SIZE = 1 << 14
CALIB_FFTS = 100
CALIB_LOOP = 300_000


def calibrate() -> float:
    """Seconds for one numpy FFT leg plus one pure-Python leg."""
    import numpy as np

    signal = np.exp(1j * 0.001 * np.arange(CALIB_FFT_SIZE))
    started = time.perf_counter()
    for _ in range(CALIB_FFTS):
        np.fft.fft(signal)
    total = 0
    for i in range(CALIB_LOOP):
        total += i * i
    return time.perf_counter() - started


def probe_setup(workload: Workload, seed: int) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    completed = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload",
         workload.name, "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=150, cwd=ROOT, check=True,
    )
    return float(json.loads(completed.stdout.splitlines()[-1])["setup_s"])


@dataclass
class Tally:
    """Sweeps attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.errors.append(reason)
        print(f"FAILED: {reason}", file=sys.stderr)

    def attempt(
        self,
        call: Callable[[], Any],
        accept: Callable[[Any], Optional[str]],
    ) -> Optional[Tuple[float, Any]]:
        """Run one sweep; ``(seconds, result)``, or None when it failed.

        ``accept`` returns a failure reason for a result whose rows are
        wrong, so a mismatch is counted and never timed.
        """
        self.attempted += 1
        started = time.perf_counter()
        try:
            result = call()
        except Exception:  # a raising sweep is one failed operation
            self.fail(traceback.format_exc())
            return None
        elapsed = time.perf_counter() - started
        reason = accept(result)
        if reason is not None:
            self.fail(reason)
            return None
        return elapsed, result


def _same_digest(reference: str) -> Callable[[Any], Optional[str]]:
    def accept(result: Any) -> Optional[str]:
        if row_digest(result) != reference:
            return "rows differ from the run's reference sweep"
        return None

    return accept


def _window_done(started: float, seconds: float, samples: List[float]) -> bool:
    """Closed-loop stop rule: at least ``MIN_REPEATS``, then no overrun."""
    if len(samples) < MIN_REPEATS:
        return False
    elapsed = time.perf_counter() - started
    return elapsed + statistics.median(samples) > seconds


def _metric_block(
    values: Dict[str, float], units: Dict[str, str]
) -> Dict[str, Dict[str, Any]]:
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()
    }


def run_benchmark(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    own_setup_s: Optional[float] = None,
    setup_probes: int = SETUP_PROBES,
    run: Optional[Callable[..., Any]] = None,
) -> Dict[str, Any]:
    """One benchmark run; returns ``{"result": ..., "detail": ...}``.

    ``run`` replaces the registry's runner (tests inject faults with it).
    """
    from repro.experiments.registry import get_experiment
    from repro.telemetry import get_telemetry

    run = run or get_experiment(workload.experiment).run
    telemetry = get_telemetry()
    tally = Tally()
    detail: Dict[str, Any] = {"workload": workload.name, "seed": seed}

    def finish(metrics: Dict[str, Any]) -> Dict[str, Any]:
        detail["errors"] = tally.errors
        return {
            "result": {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            },
            "detail": detail,
        }

    oracle = load_oracle(ROOT, workload)
    gate = tally.attempt(
        lambda: run(**oracle_kwargs(oracle)),
        lambda result: None if matches_oracle(result, oracle)
        else f"rows differ from the committed oracle {workload.oracle}",
    )
    if gate is None:
        return finish({})

    setup = [] if own_setup_s is None else [own_setup_s]

    kwargs = workload.run_kwargs(seed)
    telemetry.reset()
    telemetry.enable()
    try:
        reference = tally.attempt(lambda: run(**kwargs), lambda _: None)
        counters = telemetry.registry.snapshot()["counters"]
    finally:
        telemetry.disable()
        telemetry.reset()
    if reference is None:
        return finish({})
    trials = counter_total(counters, "engine.trials")
    accept = _same_digest(row_digest(reference[1]))
    detail["engine_trials_per_sweep"] = trials

    calib: List[float] = []
    started = time.perf_counter()
    if not trace:
        sweeps: List[float] = []
        probes = 0
        while not _window_done(started, seconds, sweeps):
            # Set-up probes are spread over the window, so that set-up and
            # sweeps sample the same stretch of host time.
            if probes < setup_probes and (
                time.perf_counter() - started >= probes * seconds / setup_probes
            ):
                setup.append(probe_setup(workload, seed))
                probes += 1
            calib.append(calibrate())
            outcome = tally.attempt(lambda: run(**kwargs), accept)
            if outcome is None:
                break
            sweeps.append(outcome[0])
        if not sweeps:
            return finish({})
        setup.extend(
            probe_setup(workload, seed) for _ in range(setup_probes - probes)
        )
        detail["timings"] = {
            "sweep_s": percentile_summary(sweeps),
            "setup_s": percentile_summary(setup),
            "host.calib_s": percentile_summary(calib),
        }
        values = {
            "sweep_s": statistics.median(sweeps),
            "trials_per_s": statistics.median(trials / s for s in sweeps),
            "setup_s": statistics.median(setup),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return finish(_metric_block(values, END_TO_END_UNITS))

    legs: Dict[str, List[float]] = {"off": [], "telemetry": [], "traced": []}
    layers: List[Dict[str, float]] = []

    def leg_off() -> None:
        outcome = tally.attempt(lambda: run(**kwargs), accept)
        if outcome is not None:
            legs["off"].append(outcome[0])

    def leg_telemetry() -> None:
        telemetry.enable()
        try:
            outcome = tally.attempt(lambda: run(**kwargs), accept)
        finally:
            telemetry.disable()
            telemetry.reset()
        if outcome is not None:
            legs["telemetry"].append(outcome[0])

    def leg_traced() -> None:
        tracer = Tracer()
        telemetry.enable()
        try:
            with tracer.installed():
                outcome = tally.attempt(lambda: run(**kwargs), accept)
            snapshot = telemetry.snapshot()
        except TraceCheckError as error:  # an entry point is missing
            tally.attempted += 1
            tally.fail(str(error))
            return
        finally:
            telemetry.disable()
            telemetry.reset()
        if outcome is None:
            return
        try:
            layers.append(layer_metrics(
                tracer, snapshot["metrics"]["counters"], snapshot["spans"],
                outcome[0], workload.expected,
            ))
        except TraceCheckError as error:
            tally.fail(f"traced pass self-check: {error}")
            return
        legs["traced"].append(outcome[0])
        detail["entries"] = entry_summaries(tracer)
        # The program's own AWGN span, beside the channel layer's self time.
        detail["channel.awgn_span_s"] = sum(
            span_seconds(snapshot["spans"], parent, "channel.awgn")
            for parent in ("experiment.transmit_batch", "experiment.transmit_once")
        )

    # Rotating the leg order each round keeps host drift out of the ratios.
    order = [leg_off, leg_telemetry, leg_traced]
    while not _window_done(started, seconds, legs["traced"]):
        calib.append(calibrate())
        for leg in order:
            leg()
        order.append(order.pop(0))
        if tally.failed:
            break
    if not (legs["off"] and legs["telemetry"] and layers):
        return finish({})
    off = statistics.median(legs["off"])
    values = {
        name: statistics.median(sample[name] for sample in layers)
        for name in layers[0]
    }
    values["telemetry.overhead_ratio"] = (
        statistics.median(legs["telemetry"]) / off
    )
    values["trace.overhead_ratio"] = statistics.median(legs["traced"]) / off
    values["host.calib_s"] = statistics.median(calib)
    detail["timings"] = {
        f"sweep_s.{leg}": percentile_summary(samples)
        for leg, samples in legs.items()
    }
    detail["timings"]["host.calib_s"] = percentile_summary(calib)
    return finish(_metric_block(values, PER_LAYER_UNITS))


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only print this process's set-up seconds")
    return parser.parse_args(argv)


def _print_summary(report: Dict[str, Any]) -> None:
    detail = report["detail"]
    print(f"workload {detail['workload']} seed {detail['seed']}: "
          f"{detail.get('engine_trials_per_sweep', 0):g} engine trials "
          f"per sweep")
    for name, timing in detail.get("timings", {}).items():
        print(f"  {name:<20} median {timing['median']:.4f} s over "
              f"{timing['n']} samples")
    for name, metric in report["result"]["metrics"].items():
        print(f"  {name:<32} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"detail": detail}, sort_keys=True))


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    workload = WORKLOADS[args.workload]
    setup_s = measure_setup(workload, args.seed)
    import repro

    if os.path.commonpath([os.path.abspath(repro.__file__), src]) != src:
        print(f"repro imported from {repro.__file__}, not {src}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    report = run_benchmark(
        workload, args.seed, args.seconds, bool(args.trace),
        own_setup_s=setup_s,
    )
    _print_summary(report)
    print(json.dumps(report["result"]))
    return 0 if report["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
