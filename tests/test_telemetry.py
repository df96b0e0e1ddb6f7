"""Tests for the telemetry subsystem: spans, metrics, manifests, report."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.telemetry import (
    Histogram,
    MetricRegistry,
    SpanNode,
    Telemetry,
    get_telemetry,
    metric_key,
    stopwatch,
    traced,
)
from repro.telemetry.manifest import build_manifest, read_manifest, write_manifest
from repro.telemetry.report import load_telemetry, render_telemetry


@pytest.fixture(autouse=True)
def _clean_singleton():
    """Keep the process-wide singleton inert around every test."""
    singleton = get_telemetry()
    singleton.reset()
    singleton.disable()
    yield
    singleton.reset()
    singleton.disable()


class TestSpans:
    def test_nested_spans_build_a_tree(self):
        telemetry = Telemetry()
        telemetry.enable()
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
            with telemetry.span("inner"):
                pass
        tree = telemetry.span_tree()
        outer = tree["children"][0]
        assert outer["name"] == "outer"
        assert outer["count"] == 1
        assert outer["seconds"] >= 0
        inner = outer["children"][0]
        assert inner["name"] == "inner"
        assert inner["count"] == 2

    def test_sibling_spans_do_not_nest(self):
        telemetry = Telemetry()
        telemetry.enable()
        with telemetry.span("a"):
            pass
        with telemetry.span("b"):
            pass
        names = [c["name"] for c in telemetry.span_tree()["children"]]
        assert names == ["a", "b"]

    def test_span_pops_on_exception(self):
        telemetry = Telemetry()
        telemetry.enable()
        with pytest.raises(ValueError):
            with telemetry.span("fails"):
                raise ValueError("boom")
        # The stack unwound: a new span lands at the root again.
        with telemetry.span("after"):
            pass
        names = [c["name"] for c in telemetry.span_tree()["children"]]
        assert names == ["fails", "after"]
        assert telemetry.span_tree()["children"][0]["count"] == 1

    def test_disabled_span_is_shared_noop(self):
        telemetry = Telemetry()
        # Deliberate naked span() calls: this test pins the no-op fast
        # path, which is exactly the pattern R004 exists to flag.
        first = telemetry.span("x")  # reprolint: disable=R004
        second = telemetry.span("y")  # reprolint: disable=R004
        assert first is second  # no allocation on the fast path
        with first:
            pass
        assert telemetry.span_tree()["children"] == []

    def test_reset_clears_tree(self):
        telemetry = Telemetry()
        telemetry.enable()
        with telemetry.span("x"):
            pass
        telemetry.reset()
        assert telemetry.span_tree()["children"] == []

    def test_span_node_round_trip(self):
        telemetry = Telemetry()
        telemetry.enable()
        with telemetry.span("a"):
            with telemetry.span("b"):
                pass
        rebuilt = SpanNode.from_dict(telemetry.span_tree())
        assert rebuilt.to_dict() == telemetry.span_tree()

    def test_traced_decorator_times_calls(self):
        telemetry = get_telemetry()
        telemetry.enable()

        @traced("my.stage")
        def work(x):
            return x + 1

        assert work(1) == 2
        assert work(2) == 3
        node = telemetry.span_tree()["children"][0]
        assert node["name"] == "my.stage"
        assert node["count"] == 2

    def test_traced_passthrough_when_disabled(self):
        @traced()
        def work(x):
            return x * 2

        assert work(3) == 6
        assert get_telemetry().span_tree()["children"] == []


class TestMetrics:
    def test_metric_key_sorts_labels(self):
        assert metric_key("m", {"b": 1, "a": 2}) == "m{a=2,b=1}"
        assert metric_key("m", {}) == "m"

    def test_counter_accumulates_per_label(self):
        registry = MetricRegistry()
        registry.counter("decisions", verdict="emulated").increment()
        registry.counter("decisions", verdict="emulated").increment(2)
        registry.counter("decisions", verdict="authentic").increment()
        snapshot = registry.snapshot()
        assert snapshot["counters"]["decisions{verdict=emulated}"] == 3
        assert snapshot["counters"]["decisions{verdict=authentic}"] == 1

    def test_counter_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            MetricRegistry().counter("c").increment(-1)

    def test_gauge_last_value_wins(self):
        registry = MetricRegistry()
        registry.gauge("g").set(1.5)
        registry.gauge("g").set(2.5)
        assert registry.snapshot()["gauges"]["g"] == 2.5

    def test_histogram_percentiles(self):
        histogram = Histogram("h")
        for value in range(1, 101):
            histogram.observe(float(value))
        assert histogram.count == 100
        assert histogram.minimum == 1.0
        assert histogram.maximum == 100.0
        assert histogram.mean == pytest.approx(50.5)
        assert histogram.percentile(50) == pytest.approx(50.5)
        assert histogram.percentile(95) == pytest.approx(95.05)
        assert histogram.percentile(99) == pytest.approx(99.01)
        assert histogram.percentile(0) == 1.0
        assert histogram.percentile(100) == 100.0

    def test_histogram_reservoir_stays_bounded(self):
        histogram = Histogram("h", reservoir_size=64)
        for value in range(10_000):
            histogram.observe(float(value))
        assert histogram.count == 10_000
        assert len(histogram._reservoir) == 64
        # The sampled median should still be in the right neighbourhood.
        assert 2_000 < histogram.percentile(50) < 8_000

    def test_empty_histogram_raises(self):
        with pytest.raises(ConfigurationError):
            Histogram("h").percentile(50)

    def test_csv_export(self):
        registry = MetricRegistry()
        registry.counter("packets", kind="sent").increment(5)
        registry.gauge("snr").set(7.0)
        registry.histogram("latency").observe(1.0)
        csv_text = registry.to_csv()
        lines = csv_text.strip().splitlines()
        assert lines[0] == "kind,key,field,value"
        assert any("packets" in line and ",5" in line for line in lines)
        assert any(line.startswith("histogram,latency,p99") for line in lines)

    def test_disabled_telemetry_records_nothing(self):
        telemetry = Telemetry()
        telemetry.count("c")
        telemetry.set_gauge("g", 1.0)
        telemetry.observe("h", 1.0)
        snapshot = telemetry.snapshot()
        assert snapshot["metrics"]["counters"] == {}
        assert snapshot["metrics"]["gauges"] == {}
        assert snapshot["metrics"]["histograms"] == {}


class TestDeterministicReservoir:
    def test_identical_streams_build_identical_reservoirs(self):
        first = Histogram("latency", reservoir_size=64)
        second = Histogram("latency", reservoir_size=64)
        values = [float((i * 37) % 997) for i in range(1500)]
        for value in values:
            first.observe(value)
            second.observe(value)
        assert first.dump_state() == second.dump_state()
        assert first.summary() == second.summary()

    def test_overflow_replacement_is_hash_driven(self):
        histogram = Histogram("latency", reservoir_size=32)
        for i in range(400):
            histogram.observe(float(i))
        state = histogram.dump_state()
        assert state["count"] == 400
        assert len(state["reservoir"]) == 32
        # Replacement happened: the reservoir is no longer just 0..31.
        assert any(value >= 32 for value in state["reservoir"])
        # And it is reproducible from scratch.
        replay = Histogram("latency", reservoir_size=32)
        for i in range(400):
            replay.observe(float(i))
        assert replay.dump_state() == state

    def test_percentiles_stable_across_serial_and_merged_runs(self):
        """p50/p95/p99 match when the same stream arrives via merge."""
        serial = Histogram("latency", reservoir_size=256)
        values = [float((i * 13) % 101) for i in range(200)]
        for value in values:
            serial.observe(value)
        sharded = Histogram("latency", reservoir_size=256)
        for start in range(0, 200, 50):
            worker = Histogram("latency", reservoir_size=256)
            for value in values[start:start + 50]:
                worker.observe(value)
            sharded.merge_state(worker.dump_state())
        assert sharded.summary() == serial.summary()


class TestStopwatch:
    def test_stopwatch_measures_elapsed_seconds(self):
        import time

        with stopwatch() as timer:
            time.sleep(0.02)
        assert timer.seconds >= 0.01

    def test_stopwatch_starts_at_zero_and_is_reusable(self):
        timer = stopwatch()
        assert timer.seconds == 0.0
        with timer:
            pass
        assert timer.seconds >= 0.0
        with timer:
            sum(range(1000))
        assert timer.seconds >= 0.0


class TestManifest:
    def test_build_manifest_carries_provenance(self):
        manifest = build_manifest(seed=7, config={"experiment": "table2"})
        assert manifest["seed"] == 7
        assert manifest["config"]["experiment"] == "table2"
        assert manifest["package"] == "repro"
        import repro

        assert manifest["package_version"] == repro.__version__
        assert "python" in manifest["host"]
        assert "hostname" in manifest["host"]

    def test_manifest_file_round_trip(self, tmp_path):
        manifest = build_manifest(seed=3, span_tree={"name": "run",
                                                     "count": 0,
                                                     "seconds": 0.0,
                                                     "children": []})
        path = tmp_path / "run.manifest.json"
        write_manifest(path, manifest)
        loaded = read_manifest(path)
        assert loaded == manifest

    def test_read_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(ConfigurationError):
            read_manifest(path)

    def test_read_missing_raises(self, tmp_path):
        with pytest.raises(ConfigurationError):
            read_manifest(tmp_path / "nope.json")


class TestPipelineInstrumentation:
    def test_attack_and_defense_spans_recorded(self):
        import numpy as np

        from repro.attack import WaveformEmulationAttack
        from repro.defense import CumulantDetector
        from repro.zigbee.transmitter import ZigBeeTransmitter

        telemetry = get_telemetry()
        telemetry.enable()
        observed = ZigBeeTransmitter().transmit_payload(b"hi").waveform
        WaveformEmulationAttack().emulate(observed)
        rng = np.random.default_rng(0)
        chips = 2.0 * rng.integers(0, 2, 512) - 1.0
        CumulantDetector().statistic(chips)
        telemetry.disable()

        names = {c["name"] for c in telemetry.span_tree()["children"]}
        assert "attack.emulate" in names
        assert "defense.detect" in names
        attack = next(c for c in telemetry.span_tree()["children"]
                      if c["name"] == "attack.emulate")
        child_names = {c["name"] for c in attack["children"]}
        assert {"attack.interpolate", "attack.quantize"} <= child_names
        counters = telemetry.snapshot()["metrics"]["counters"]
        assert counters["attack.emulations{mode=baseband}"] == 1
        assert sum(v for k, v in counters.items()
                   if k.startswith("detector.decisions")) == 1

    def test_pipeline_untouched_when_disabled(self):
        from repro.attack import WaveformEmulationAttack
        from repro.zigbee.transmitter import ZigBeeTransmitter

        telemetry = get_telemetry()
        observed = ZigBeeTransmitter().transmit_payload(b"hi").waveform
        result = WaveformEmulationAttack().emulate(observed)
        assert result.scale > 0
        assert telemetry.span_tree()["children"] == []
        assert telemetry.snapshot()["metrics"]["counters"] == {}


class TestRenderAndLoad:
    def test_render_contains_tree_and_metrics(self):
        telemetry = Telemetry()
        telemetry.enable()
        with telemetry.span("stage.a"):
            with telemetry.span("stage.b"):
                pass
        telemetry.count("events", kind="x")
        telemetry.observe("values", 1.0)
        payload = telemetry.snapshot()
        payload["manifest"] = build_manifest(seed=1)
        text = render_telemetry(payload)
        assert "stage.a" in text
        assert "stage.b" in text
        assert "events{kind=x}" in text
        assert "p95" in text
        assert "seed: 1" in text

    def test_load_telemetry_round_trip(self, tmp_path):
        telemetry = Telemetry()
        telemetry.enable()
        with telemetry.span("s"):
            pass
        path = tmp_path / "t.json"
        path.write_text(json.dumps(telemetry.snapshot()))
        loaded = load_telemetry(path)
        assert loaded["spans"]["children"][0]["name"] == "s"

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"rows": []}))
        with pytest.raises(ConfigurationError):
            load_telemetry(path)

    def test_render_empty_payload(self):
        text = render_telemetry(Telemetry().snapshot())
        assert "no spans" in text
