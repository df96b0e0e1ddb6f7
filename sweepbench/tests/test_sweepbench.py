"""Tests of the sweep benchmark itself, at tiny sweep sizes.

Run from the repository root::

    python3 -m pytest sweepbench/tests -q
"""

import dataclasses
import json
import os

import pytest

from repro.experiments.common import transmit_batch
from repro.experiments.registry import get_experiment
from repro.zigbee.receiver import ZigBeeReceiver
from sweepbench.run import END_TO_END_UNITS, PER_LAYER_UNITS, ROOT, run_benchmark
from sweepbench.tracer import ENTRY_POINTS, TraceCheckError, Tracer
from sweepbench.workloads import WORKLOADS

#: Workloads shrunk to a handful of trials; everything else unchanged.
TINY = {
    "awgn-attack-fixed": {"snrs_db": (15,), "trials": 4},
    "awgn-attack-adaptive": {"snrs_db": (15,), "trials": 16},
    "distance-defense-scalar": {"distances_m": (1,), "waveforms_per_point": 2},
}


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], config=TINY[name])


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def test_declared_metrics_match_the_harness():
    assert declared("end_to_end") == END_TO_END_UNITS
    assert declared("per_layer") == PER_LAYER_UNITS
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        names = [w["name"] for w in json.load(handle)["workloads"]]
    # awgn-attack-fixed stays runnable by hand but is not declared.
    assert names == [name for name in WORKLOADS if name != "awgn-attack-fixed"]


def test_timed_run_reports_every_end_to_end_metric():
    report = run_benchmark(
        tiny("awgn-attack-fixed"), seed=3, seconds=0, trace=False,
        setup_probes=1,
    )
    result = report["result"]
    assert result["correct"] and result["failed"] == 0
    # oracle gate + reference sweep + two timed repeats
    assert result["attempted"] == 4
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert report["detail"]["timings"]["host.calib_s"]["n"] == 2


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(name):
    report = run_benchmark(tiny(name), seed=5, seconds=0, trace=True)
    result = report["result"]
    assert result["correct"], report["detail"]["errors"]
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == PER_LAYER_UNITS
    assert metrics["trace.attributed_fraction"]["value"] >= 0.95
    assert metrics["zigbee.calls"]["value"] > 0


@pytest.mark.parametrize("bad_call, timed", [(1, False), (3, True)])
def test_row_mismatch_counts_as_a_failed_operation(bad_call, timed):
    workload = tiny("awgn-attack-fixed")
    real = get_experiment(workload.experiment).run
    calls = []

    def run(**kwargs):
        result = real(**kwargs)
        calls.append(kwargs)
        if len(calls) == bad_call:  # 1: oracle gate, 3: first timed repeat
            result.rows[0]["success_rate"] += 1e-12
        return result

    report = run_benchmark(
        workload, seed=3, seconds=0, trace=False, setup_probes=0, run=run,
    )
    result = report["result"]
    assert not result["correct"]
    assert result["failed"] == 1
    assert bool(result["metrics"]) is False
    assert result["attempted"] == bad_call


def test_removing_the_wrappers_restores_the_originals():
    import repro.experiments.defense_common as defense_common
    import repro.experiments.table2_attack_awgn as table2

    receive = ZigBeeReceiver.__dict__["receive"]
    tracer = Tracer()
    with tracer.installed():
        patched = tracer.patched
        assert ZigBeeReceiver.__dict__["receive"] is not receive
        # A function imported by name is patched in every binding module.
        assert table2.transmit_batch is not transmit_batch
        assert defense_common.transmit_batch is not transmit_batch
    assert len(patched) > len(ENTRY_POINTS)
    assert not tracer.patched
    for owner, name, original in patched:
        assert vars(owner)[name] is original
    assert table2.transmit_batch is transmit_batch


def test_self_check_rejects_silent_layers_and_counter_disagreement():
    from repro.telemetry import get_telemetry
    from sweepbench.tracer import layer_metrics

    workload = tiny("awgn-attack-fixed")
    telemetry = get_telemetry()
    tracer = Tracer()
    telemetry.reset()
    telemetry.enable()
    try:
        with tracer.installed():
            get_experiment("table2").run(**workload.run_kwargs(2))
        snapshot = telemetry.snapshot()
    finally:
        telemetry.disable()
        telemetry.reset()
    counters = snapshot["metrics"]["counters"]
    spans = snapshot["spans"]
    assert layer_metrics(tracer, counters, spans, 1.0, workload.expected)
    with pytest.raises(TraceCheckError, match="saw no calls"):
        layer_metrics(tracer, counters, spans, 1.0, ("ZigBeeReceiver.receive",))
    skewed = dict(counters, **{"engine.trials": counters["engine.trials"] + 1})
    with pytest.raises(TraceCheckError, match="program counted"):
        layer_metrics(tracer, skewed, spans, 1.0, workload.expected)


def test_tail_percentile_leaves_ten_samples_beyond_it():
    from sweepbench.tracer import percentile_summary

    summary = percentile_summary([float(i) for i in range(100)])
    assert summary == {"n": 100, "median": 49.5, "percentile": 90.0, "value": 89.0}
    assert "percentile" not in percentile_summary([1.0] * 10)
